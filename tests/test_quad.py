import numpy as np

from fyk._quad import gauss_panels, graded_edges, halfsphere_rule


def test_gauss_panels_polynomial_exactness():
    # order-k Gauss rule on each panel is exact for degree 2k-1
    edges = np.array([0.0, 0.3, 1.0, 2.5])
    x, w = gauss_panels(edges, order=6)
    for deg in range(12):
        got = float(np.sum(w * x**deg))
        want = edges[-1] ** (deg + 1) / (deg + 1)
        assert abs(got - want) <= 1e-13 * max(1.0, want)


def test_gauss_panels_weights_positive():
    x, w = gauss_panels(np.linspace(0.0, 1.0, 5), order=4)
    assert (w > 0.0).all()
    assert (np.diff(x) > 0.0).all()


def test_graded_edges_cluster_at_the_left_end():
    e = graded_edges(0.0, 1.0, h0=1e-3, ratio=1.4)
    assert e[0] == 0.0 and e[-1] == 1.0
    gaps = np.diff(e)
    assert (gaps > 0.0).all()
    assert gaps[0] < gaps[-1]


def test_graded_integral_of_singular_power():
    # integral of x^(-1/2) on (0, 1] converges under geometric grading
    # the residual is dominated by the first panel and scales like sqrt(h0)
    e = graded_edges(0.0, 1.0, h0=1e-12, ratio=1.3)
    x, w = gauss_panels(e, order=10)
    got = float(np.sum(w / np.sqrt(x)))
    assert abs(got - 2.0) <= 1e-6


def test_halfsphere_rule_angles_agree():
    # the rule gives the distance d to the equator with cos(theta) and
    # sin(theta): formed from d on the tanh-sinh panel, so there they are
    # sin(d) and cos(d) exactly, and within rounding on the Gauss panels
    d, c, s, w = halfsphere_rule(4, 0.8)
    assert d.shape == c.shape == s.shape == w.shape
    assert np.all(np.abs(c - np.sin(d)) <= 2e-16) and np.all(np.abs(s - np.cos(d)) <= 2e-16)
    ts = d < 0.3
    assert np.array_equal(c[ts], np.sin(d[ts])) and np.array_equal(s[ts], np.cos(d[ts]))
    assert d.min() > 0.0 and (w > 0.0).all()
