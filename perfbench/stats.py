"""Order statistics used to report timings."""
import statistics


def describe(values, unit):
    """Median and sample count of a list of timings."""
    return "median %.6g %s over %d samples" % (statistics.median(values), unit, len(values))


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles`` gives
    them; the run-to-run spread the benchmark's bounds are checked against."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
