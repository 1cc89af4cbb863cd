import math

import numpy as np
import pytest
from scipy import special

from fyk import bubble, moments, specfun
from fyk._quad import gauss_panels, graded_edges, jacobi_end_panel
from fyk.errors import DomainError, NumericError
from fyk.specfun import (
    ProblemIndex,
    profile_decay_bound,
    profile_phi,
    profile_phi_prime,
    profile_what,
    profile_what_prime,
)


def test_default_table_recurrences():
    # the default orders cover one instance of every printed recurrence
    table = moments.compute_moments(ProblemIndex(6, 0.35))
    residuals = moments.verify_recurrences(table)
    assert residuals
    assert max(residuals.values()) <= 1e-9


# the orders of acceptance criterion 3: every printed recurrence is covered
_CRITERION_3_ORDERS = {
    "A": (1, 3, 5, 7),
    "Ap": (2, 4, 6),
    "App": (1, 3, 5),
    "B": (2, 4),
    "Bp": (1, 3),
    "Bpp": (2, 4),
}


def _moment_oracle(n, g, order):
    """Oracle: the defining integrands of the moments on a fixed composite
    Gauss-Legendre rule over [0, 60] with ``order`` nodes per panel, graded
    toward the t -> 0 singularities (t^(2g-1) at worst, from App_1):
    panels [5^-(k+1), 5^-k] for k < 45, then unit panels.  The integrands
    decay like exp(-2t): the tail beyond t = 60 is below 1e-50.  Returns
    moment(family, k), the moment of that family at order k."""
    edges = np.concatenate([[0.0], 5.0 ** -np.arange(45.0, 0.0, -1.0), np.arange(1.0, 61.0)])
    t, w = gauss_panels(edges, order)
    ph, php = profile_phi(g, t), profile_phi_prime(g, t)
    wh, whp = profile_what(g, t), profile_what_prime(g, t)
    products = {"A": ph * ph, "Ap": ph * php, "App": php * php,
                "B": wh * wh, "Bp": wh * whp, "Bpp": whp * whp}

    def moment(family, k):
        p = k - 2.0 * g if family.startswith("A") else n - 1 - k + 2.0 * g
        return w @ (t**p * products[family])

    return moment


@pytest.mark.parametrize("gamma", [0.2, 0.45, 0.7])
def test_a_chain_against_direct_quadrature(gamma):
    # every family at the criterion-3 orders against direct quadrature
    n = 8
    table = moments.compute_moments(ProblemIndex(n, gamma), orders=_CRITERION_3_ORDERS)
    oracle, doubled = _moment_oracle(n, gamma, 20), _moment_oracle(n, gamma, 40)
    for family, orders in _CRITERION_3_ORDERS.items():
        for order in orders:
            want = oracle(family, order)
            # the rule has converged: doubling its order moves no digit that matters
            assert abs(doubled(family, order) - want) <= 1e-12 * abs(want), (family, order)
            assert getattr(table, family)[order] == pytest.approx(want, rel=1e-9), (family, order)
    # and the chain relation ties A_1 to A_3 with rational coefficients
    lhs = table.A[1]
    rhs = 3.0 / 2.0 / (1.0 - gamma**2) * table.A[3]
    assert lhs == pytest.approx(rhs, rel=1e-9)


@pytest.mark.parametrize(
    "n,gamma,family,order",
    [(8, 0.3, "A", 3), (7, 0.45, "Ap", 2), (8, 0.7, "B", 4)],
)
def test_single_transform_moments_against_mpmath(n, gamma, family, order):
    # SciPy-free oracle: 30-digit quadrature of t^p K_mu K_nu
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        g = mpmath.mpf(gamma)
        d2 = (2 ** (1 - g) / mpmath.gamma(g)) ** 2
        mu, nu, p, scale = {
            "A": (g, g, order, d2),
            "Ap": (g, 1 - g, order, -d2),
            "B": (g, g, n - 1 - order, 1),
        }[family]
        want = scale * mpmath.quad(
            lambda t: t**p * mpmath.besselk(mu, t) * mpmath.besselk(nu, t),
            [0, 1, mpmath.inf],
        )
    table = moments.compute_moments(ProblemIndex(n, gamma), orders={family: (order,)})
    assert getattr(table, family)[order] == pytest.approx(float(want), rel=1e-13)


def test_gamma_half_closed_forms():
    table = moments.compute_moments(ProblemIndex(5, 0.5))
    assert table.A[1] == pytest.approx(0.5, abs=1e-10)
    assert table.A[3] == pytest.approx(0.25, abs=1e-10)
    assert table.B[2] == pytest.approx(math.pi / 8.0, rel=1e-10)


def test_divergent_moment_raises():
    # at n = 2 + 2*gamma the B_2 integrand behaves like 1/t at the origin
    with pytest.raises(DomainError):
        moments.compute_moments(ProblemIndex(3, 0.5))
    with pytest.raises(DomainError):
        moments.compute_integrals(ProblemIndex(3, 0.5))


@pytest.mark.parametrize(
    "n,gamma,family,order",
    [
        (3, 0.5, "B", 2),  # t^(-1)
        (5, 0.7, "A", 0),  # t^(-1.4)
        (5, 0.5, "Ap", 0),  # t^(-1)
        (4, 0.3, "App", 0),  # t^(-1.4)
        (5, 0.7, "Bp", 3),  # t^(-1.4)
        (4, 0.6, "Bpp", 1),  # t^(-1.2)
    ],
)
def test_divergence_names_the_moment(n, gamma, family, order):
    # the small-t power of the integrand is <= -1; the next order converges
    idx = ProblemIndex(n, gamma)
    with pytest.raises(DomainError, match=rf"{family}\[{order}\]"):
        moments.compute_moments(idx, orders={family: (order,)})
    step = 1 if family.startswith("A") else -1
    table = moments.compute_moments(idx, orders={family: (order + step,)})
    assert math.isfinite(getattr(table, family)[order + step])


def test_overflowing_moment_raises_numeric_error():
    with pytest.raises(NumericError, match=r"A\[400\]"):
        moments.compute_moments(ProblemIndex(6, 0.35), {"A": (400,)})


def test_unknown_family_raises():
    with pytest.raises(DomainError):
        moments.compute_moments(ProblemIndex(6, 0.35), {"C": (1,)})


@pytest.mark.parametrize("n,gamma", [(5, 0.5), (7, 0.25)])
def test_nine_ratios_bessel_route(n, gamma):
    idx = ProblemIndex(n, gamma)
    iset = moments.compute_integrals(idx)
    got = iset.I / iset.C0
    want = moments.closed_form_ratios(idx)
    assert np.abs(got / want - 1.0).max() <= 1e-8


def test_nine_ratios_direct_route_independent():
    # the 2d quadrature route never touches the moment tables
    idx = ProblemIndex(5, 0.5)
    a = moments.compute_integrals(idx, method="bessel_moments")
    b = moments.compute_integrals(idx, method="direct_2d")
    assert abs(a.C0 / b.C0 - 1.0) <= 1e-4
    assert np.abs(a.I / b.I - 1.0).max() <= 1e-3


def test_unknown_method_raises():
    with pytest.raises(DomainError):
        moments.compute_integrals(ProblemIndex(5, 0.5), method="nope")


def test_combined_ratios_closed_form():
    idx = ProblemIndex(6, 0.4)
    iset = moments.compute_integrals(idx)
    got = np.asarray(moments.combined_integrals(idx, iset)) / iset.C0
    assert np.abs(got / moments.combined_ratios(idx) - 1.0).max() <= 1e-8


def test_combined_direct_agrees_with_moment_route():
    idx = ProblemIndex(5, 0.6)
    iset = moments.compute_integrals(idx)
    a = np.asarray(moments.combined_integrals(idx, iset))
    b = np.asarray(moments.combined_integrals_direct(idx))
    assert np.abs(a / b - 1.0).max() <= 1e-3


def test_c0_positive_and_scales():
    # C0 = |S^(n-1)| A_3 B_2 in the calibrated normalization: positive
    for n, g in [(5, 0.5), (6, 0.3), (8, 0.75)]:
        iset = moments.compute_integrals(ProblemIndex(n, g))
        assert iset.C0 > 0.0
        assert iset.I.shape == (9,)


def _live_entries(idx, s, kw, s0, z):
    """The profile arguments z[k] * s0[i] the decay cut keeps, from its rule
    applied to every term: s0 z < 1, or b(s) * bound(s0 z) >= 1e-20 sum |kw|,
    with b the nonincreasing envelope of |kw| max(1, s^2) (max over arcs)."""
    b = (np.abs(kw) * np.maximum(1.0, s * s)).reshape(-1, s0.size).max(axis=0)
    b = np.maximum.accumulate(b[::-1])[::-1]
    tau = 1e-20 * np.abs(kw).sum(axis=-1).min()
    t = np.outer(z, s0)
    keep = (t < 1.0) | (b * profile_decay_bound(idx, np.maximum(t, 1.0)) >= tau)
    # the rule keeps a prefix of s at every point
    assert np.array_equal(keep, np.arange(s0.size) < keep.sum(axis=1)[:, None])
    assert not keep.all()
    return t[keep]


def test_direct_route_evaluates_each_arc_point_once(monkeypatch):
    # the half-ball's arcs take one polar_profiles call.  Those at
    # rho >= 1/32 share one kernel and profile evaluation, one s-rule
    # rescaled to each radius: phi and phi' come together from
    # profile_phi_pair, which sees each live (s', d) point of that band
    # exactly once; the arcs inside 1/32 take the origin expansion and
    # evaluate no profile, and SciPy's kv is never called
    idx = ProblemIndex(5, 0.7)
    seen = {"profile_phi_pair": [], "profile_phi": []}
    for name in seen:
        original = getattr(bubble, name)

        def spy(idx, t, original=original, name=name):
            seen[name].append(np.array(t, dtype=float).ravel())
            return original(idx, t)

        monkeypatch.setattr(bubble, name, spy)
    kv_args = []
    kv = special.kv

    def kv_spy(order, t):
        kv_args.append((order, np.array(t, dtype=float).ravel()))
        return kv(order, t)

    monkeypatch.setattr(special, "kv", kv_spy)
    calls = []
    polar = bubble.polar_profiles

    def polar_spy(idx, rho, *, d, fields):
        calls.append((rho, d))
        return polar(idx, rho, d=d, fields=fields)

    monkeypatch.setattr(bubble, "polar_profiles", polar_spy)
    moments._integrals_direct(idx)

    rho = moments._rho_rule(idx)[0]
    [(got_rho, d)] = calls
    assert np.array_equal(got_rho, rho)
    arcs = rho[rho >= bubble._ORIGIN_RADIUS]
    top = arcs.max()
    s0, ws0 = bubble._s_nodes(bubble._rmax_key(top))
    scale = (top / arcs)[:, None]
    kw = bubble._what_weights(idx, scale * s0, scale * ws0, specfun.profile_what(idx, scale * s0))
    live = _live_entries(idx, scale * s0, kw, s0, top * np.sin(d))
    assert seen["profile_phi"] == []
    got = np.concatenate(seen["profile_phi_pair"])
    assert got.size == live.size
    assert np.array_equal(np.sort(got), np.sort(live))
    assert kv_args == []


def test_direct_route_profile_points(monkeypatch):
    # only the band rho >= 1/32 of the half-ball evaluates profiles, once
    # for all its arcs: at (4, 0.8) 0.12 M points
    points = []
    pair = bubble.profile_phi_pair

    def spy(idx, t):
        points.append(np.size(t))
        return pair(idx, t)

    monkeypatch.setattr(bubble, "profile_phi_pair", spy)
    moments._integrals_direct(ProblemIndex(4, 0.8))
    assert 0 < sum(points) <= 0.13e6


# per index and bound of the former core-square route (the test ids), ten
# times the half-ball route's measured error
_DIRECT_BOUNDS = {
    (7, 0.25, 1e-10): 4.5e-15,  # measured 4.4e-16
    (4, 0.3, 1e-8): 1.2e-12,  # 1.1e-13
    (3, 0.45, 1e-5): 3.5e-11,  # 3.5e-12
    (4, 0.5, 1e-6): 4.5e-15,  # 4.4e-16
    (10, 0.9, 4e-13): 8.9e-15,  # 8.9e-16
    (5, 0.9, 8e-8): 4.4e-13,  # 4.3e-14
    (6, 0.75, 3e-8): 6.7e-15,  # 6.7e-16
    (4, 0.95, 1.2e-4): 7.5e-11,  # 7.5e-12
}


@pytest.mark.parametrize("n,gamma,bound", list(_DIRECT_BOUNDS))
def test_direct_route_accuracy(n, gamma, bound):
    tight = _DIRECT_BOUNDS[(n, gamma, bound)]
    assert tight <= bound  # every bound is kept, and tightened
    idx = ProblemIndex(n, gamma)
    iset = moments.compute_integrals(idx, method="direct_2d")
    want = moments.closed_form_ratios(idx)
    assert np.abs(iset.I / iset.C0 / want - 1.0).max() <= tight


@pytest.mark.parametrize("n,gamma", [(6, 0.05), (5, 0.02), (24, 0.5)])
def test_direct_route_is_finite_at_the_edges(n, gamma):
    # at (6, 0.05) the half-sphere rule reaches cos(theta) = 8e-155, where
    # Wz is about 1e146 and Wz^2 would overflow; at (24, 0.5) rho^-54 would
    # overflow at rho = 3e-7.  Each weight's square root goes into each
    # factor, and each integrand's power of rho is one exponent
    import warnings

    idx = ProblemIndex(n, gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        iset, combined = moments._integrals_direct(idx)
    got = np.concatenate([iset.I / iset.C0, combined / iset.C0])
    want = np.concatenate([moments.closed_form_ratios(idx), moments.combined_ratios(idx)])
    assert np.all(np.isfinite(got))
    assert np.abs(got / want - 1.0).max() <= 1e-9


def _image_fields(idx, y_r, y_z):
    """The fields at x = y/|y|^2 from ``moments._kelvin`` of the fields at
    the points y, unscaled: W, Wr_over_r, Wz and lap_tan."""
    rho = np.hypot(y_r, y_z)
    c, s = y_z / rho, y_r / rho
    f = bubble.paired_profiles(idx, y_r, y_z, moments._FIELDS)
    scaled = {"W": f["W"], "R": rho**2 * f["Wr_over_r"], "Z": rho * f["Wz"],
              "L": rho**2 * f["lap_tan"], "T": rho**3 * f["Wrz_over_r"],
              "Q": bubble.dilation_field(idx, y_r, y_z, f)}
    g = moments._kelvin(idx, c, s, scaled)
    # the scale-free fields at x are |y|^m times these, and |x| = 1/|y|
    x_rho, q = 1.0 / rho, rho**idx.m
    return {"W": q * g["W"], "Wr_over_r": q * g["R"] / x_rho**2, "Wz": q * g["Z"] / x_rho,
            "lap_tan": q * g["L"] / x_rho**2, "Z0": q * g["Q"]}


@pytest.mark.parametrize("n,gamma", [(4, 0.3), (5, 0.7), (7, 0.25), (4, 0.95)])
def test_kelvin_map_matches_the_fields_at_the_image(n, gamma):
    # the exterior integrands take the fields at x = y/|y|^2 from those at
    # y; against paired_profiles evaluated at x itself, for |y| in [1/2, 1]
    idx = ProblemIndex(n, gamma)
    rho = np.array([0.5, 0.7, 1.0])
    d = np.array([0.01, 0.3, 0.8, 1.3, 1.56])
    y_r, y_z = np.outer(rho, np.cos(d)).ravel(), np.outer(rho, np.sin(d)).ravel()
    got = _image_fields(idx, y_r, y_z)
    x_r, x_z = y_r / (y_r**2 + y_z**2), y_z / (y_r**2 + y_z**2)
    want = bubble.paired_profiles(idx, x_r, x_z, ("W", "Wr_over_r", "Wz", "lap_tan"))
    want["Z0"] = bubble.dilation_field(idx, x_r, x_z, want)
    for k, v in want.items():
        assert np.abs(got[k] - v).max() <= 1e-9 * np.abs(v).max(), k


@pytest.mark.parametrize("R", [0.0, -8.0, math.nan, math.inf, -math.inf])
def test_direct_route_rejects_bad_radius(R):
    # the route's band evaluator, polar_profiles, takes no arc radius that
    # is not finite and > 0, neither as an inner arc nor as the outer one
    # whose s-rule every arc rescales
    idx = ProblemIndex(5, 0.7)
    d = np.array([0.2, 1.0])
    for arcs in ([R, 1.0], [bubble._ORIGIN_RADIUS, R]):
        with pytest.raises(DomainError):
            bubble.polar_profiles(idx, np.array(arcs), d=d)


@pytest.mark.parametrize("gamma", [0.05, 0.25, 0.45, 0.5, 0.8, 0.95])
def test_first_z_panel_integrates_the_weight_exactly(gamma):
    # the rho-rule's first panel, 12 Gauss-Jacobi nodes in the exterior
    # integrands' weight rho^a, a = n - 3 - 2g, integrates rho^a rho^k
    # exactly for k <= 23; its weights are divided by the weight function.
    # The nodes are polished in the distance to the singular end, so the
    # nearest one (rho = 7.2e-4 h at a = -0.9) keeps its relative digits
    # too (measured 4.4e-15; with the eigenvalues' distances 1 - x alone
    # this read 1.2e-13)
    h = moments._RHO_FIRST
    for n in (3, 4, 7, 24):
        if n - 2.0 * gamma <= 2.0:  # below the supercritical line
            continue
        rho, w = moments._rho_rule(ProblemIndex(n, gamma))
        first = rho <= h
        assert np.count_nonzero(first) == 12
        x, w = rho[first] / h, w[first] / h  # the panel on [0, 1]
        a = n - 3.0 - 2.0 * gamma
        for k in range(24):
            want = 1.0 / (a + k + 1.0)  # int_0^1 x^a x^k dx
            assert abs(w @ x ** (a + k) / want - 1.0) <= 1e-14, (n, k)


def test_core_grid_cost(monkeypatch):
    # the cost of the direct route: 282 rho-nodes (12 on the Gauss-Jacobi
    # panel, then 27 Gauss panels of 10) times the 148-179 angles of the
    # half-sphere rule, in one polar_profiles call.  Of the rho-nodes 55 lie
    # in [1/32, 1] and take its band; the other 227 take the origin expansion
    calls = {"polar": [], "origin": []}
    polar, origin = bubble.polar_profiles, bubble._origin_fields

    def polar_spy(idx, rho, *, d, fields):
        calls["polar"].append((rho.size, d.size))
        return polar(idx, rho, d=d, fields=fields)

    def origin_spy(idx, rho, d, names):
        calls["origin"].append((rho.size, d.size))
        return origin(idx, rho, d, names)

    monkeypatch.setattr(bubble, "polar_profiles", polar_spy)
    monkeypatch.setattr(bubble, "_origin_fields", origin_spy)
    moments._integrals_direct(ProblemIndex(4, 0.8))
    assert calls == {"polar": [(282, 159)], "origin": [(227, 159)]}


def test_half_ball_band_keys_one_s_rule(monkeypatch):
    # every arc of the band rescales the s-rule of its outer arc, rho < 1,
    # whose key is 8, the key of every rmax <= 8: the route builds one
    # s-rule and no other
    keys = []
    nodes = bubble._s_nodes

    def spy(key):
        keys.append(key)
        return nodes(key)

    monkeypatch.setattr(bubble, "_s_nodes", spy)
    for n, gamma in [(7, 0.25), (12, 0.7), (4, 0.8), (3, 0.45)]:
        moments._integrals_direct(ProblemIndex(n, gamma))
    assert keys == [8.0] * 4


def test_rho_rule_matches_a_finer_rule(monkeypatch):
    # the rho-panels of ratio 2 and 10 nodes give the totals of panels of
    # ratio 1.5 and 12 nodes (540 nodes instead of 282)
    def finer(idx):
        d, wd = jacobi_end_panel(moments._RHO_FIRST, idx.n - 3.0 - 2.0 * idx.gamma)
        edges = graded_edges(moments._RHO_FIRST, 1.0, moments._RHO_FIRST, ratio=1.5)
        rho, w = gauss_panels(edges, 12)
        return np.concatenate([d[::-1], rho]), np.concatenate([wd[::-1], w])

    for n, gamma in [(7, 0.25), (4, 0.3)]:
        idx = ProblemIndex(n, gamma)
        iset, combined = moments._integrals_direct(idx)
        got = np.concatenate([iset.I, combined])
        with monkeypatch.context() as m:
            m.setattr(moments, "_rho_rule", finer)
            assert finer(idx)[0].size == 540
            iset, combined = moments._integrals_direct(idx)
        want = np.concatenate([iset.I, combined])
        assert np.abs(got / want - 1.0).max() <= 1e-13
