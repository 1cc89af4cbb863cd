import statistics

import pytest

import stats


def test_describe_reports_median_and_sample_count():
    assert stats.describe([3.0, 1.0, 2.0], "s") == "median 2 s over 3 samples"
    assert stats.describe([0.5, 0.25], "s") == "median 0.375 s over 2 samples"
    with pytest.raises(statistics.StatisticsError):
        stats.describe([], "s")


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 5) == 0.0
    # statistics.quantiles (exclusive method) on 1..9: Q1 = 2.5, Q3 = 7.5
    assert stats.quartile_spread([float(k) for k in range(1, 10)]) == pytest.approx(5.0 / 5.0)
