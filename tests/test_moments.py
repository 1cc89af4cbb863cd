import math

import numpy as np
import pytest
from scipy import special

from fyk import bubble, moments, specfun
from fyk._quad import gauss_panels
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
    # the nine tail arcs share one kernel and profile evaluation, and the
    # decay cut evaluates only the s-terms that can matter: phi and phi' come
    # together from profile_phi_pair, which sees each live (s, z) point of
    # the core grid's kernel columns (over several calls, one per block of
    # s-rows) and of the arcs' (s', theta) grid exactly once, and SciPy's kv
    # is never called
    R = 8.0
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
    polar_args = []
    polar = bubble.polar_profiles

    def polar_spy(idx, rho, theta, fields):
        polar_args.append((rho, theta, len(seen["profile_phi_pair"])))
        return polar(idx, rho, theta, fields)

    monkeypatch.setattr(bubble, "polar_profiles", polar_spy)
    moments._integrals_direct(idx, R=R)

    r, _, z, _ = moments._grid_rules(idx, R)
    s, kw = bubble._s_rule(idx.n, idx.gamma, bubble._rmax_key(r.max()))
    # the columns with s z <= 1/2 at every node are summed from the
    # profiles' series and evaluate no profile point
    series = z * s[-1] <= specfun._T_SERIES
    assert np.count_nonzero(series) > 20
    core = _live_entries(idx, s, kw, s, z[~series])
    [(arcs, th, split)] = polar_args
    top = arcs.max()
    s0, ws0 = bubble._s_nodes(bubble._rmax_key(top))
    scale = (top / arcs)[:, None]
    kw = bubble._what_weights(idx, scale * s0, scale * ws0)
    tail = _live_entries(idx, scale * s0, kw, s0, top * np.cos(th))
    calls = seen["profile_phi_pair"]
    assert seen["profile_phi"] == []
    assert split > 1  # the core grid streams its s-rows in blocks
    got = np.concatenate(calls[:split])
    # the live entries of the kernel columns alone, none of the series'
    assert got.size == core.size
    assert np.array_equal(np.sort(got), np.sort(core))
    got = np.concatenate(calls[split:])
    assert got.size == tail.size
    assert np.array_equal(np.sort(got), np.sort(tail))
    assert kv_args == []


def test_direct_route_profile_points(monkeypatch):
    # the core grid's columns near the trace are summed from the profiles'
    # series, so at (4, 0.8) the route evaluates 0.47 M profile points, core
    # and arcs, where evaluating every live point took 1.22 M
    points = []
    pair = bubble.profile_phi_pair

    def spy(idx, t):
        points.append(np.size(t))
        return pair(idx, t)

    monkeypatch.setattr(bubble, "profile_phi_pair", spy)
    moments._integrals_direct(ProblemIndex(4, 0.8))
    assert 0 < sum(points) <= 0.65e6


@pytest.mark.parametrize(
    "n,gamma,bound",
    [
        (7, 0.25, 1e-10),
        (4, 0.3, 1e-8),
        (3, 0.45, 1e-5),
        (4, 0.5, 1e-6),
        (10, 0.9, 4e-13),
        (5, 0.9, 8e-8),
        (6, 0.75, 3e-8),
        (4, 0.95, 1.2e-4),
    ],
)
def test_direct_route_accuracy(n, gamma, bound):
    # the tail fit carries the nine far-field exponents, the pairwise sums of
    # 0, 2g, 2 - 2g and 2; R = 32 where n - 2g > 4, else 64.  For g > 1/2 the
    # core grid's Gauss-Jacobi first z-panel carries the weight z^(1-2g): the
    # Legendre start it replaced left 6.5e-3 at (10, 0.9), 4.6e-3 at (5, 0.9),
    # 1.9e-6 at (6, 0.75) and 1.8e-2 at (4, 0.95)
    idx = ProblemIndex(n, gamma)
    iset = moments.compute_integrals(idx, method="direct_2d")
    want = moments.closed_form_ratios(idx)
    assert np.abs(iset.I / iset.C0 / want - 1.0).max() <= bound


def test_tail_exponents_are_the_pairwise_sums():
    g = 0.3
    want = [0.0, 2 * g, 4 * g, 2 - 2 * g, 2.0, 2 + 2 * g, 4 - 4 * g, 4 - 2 * g, 4.0]
    assert np.allclose(moments._tail_exponents(g), sorted(want), rtol=0.0, atol=1e-12)
    # coinciding exponents merge: at g = 1/2 the set is 0, 1, 2, 3, 4
    assert np.array_equal(moments._tail_exponents(0.5), [0.0, 1.0, 2.0, 3.0, 4.0])


def test_default_radius_keys_the_s_rule_at_r():
    # the core grid's largest r and the outer tail arc round up to the same
    # power of two, R itself, so the whole route shares one s-rule
    for n, gamma, R in [(7, 0.25, 32.0), (12, 0.7, 32.0), (4, 0.8, 64.0), (3, 0.45, 64.0)]:
        idx = ProblemIndex(n, gamma)
        assert moments._default_radius(idx) == R
        r = moments._grid_rules(idx, R)[0]
        assert bubble._rmax_key(r.max()) == R
        assert bubble._rmax_key(R * moments._ARCS.max()) == R


@pytest.mark.parametrize("R", [0.0, -8.0, math.nan, math.inf, -math.inf])
def test_direct_route_rejects_bad_radius(R):
    idx = ProblemIndex(5, 0.7)
    with pytest.raises(DomainError, match="truncation radius R"):
        moments.combined_integrals_direct(idx, R=R)


@pytest.mark.parametrize("gamma", [0.05, 0.5, 0.8, 0.95])
def test_first_z_panel_integrates_the_weight_exactly(gamma):
    # the 12 nodes of the core grid's first z-panel integrate z^(1-2g) z^k
    # exactly for k <= 23; its weights are divided by the weight function.
    # Exactly means to the digits of SciPy's nodes x on [-1, 1]: the
    # distance 1 - x to the singular end keeps an absolute error of about
    # eps, which at g = 0.95 is 1e-13 relative at the nearest node
    # (1 - x = 1.4e-3); measured 1.1e-13 there, at most 3.4e-14 elsewhere
    idx, h = ProblemIndex(4, gamma), moments._Z_FIRST
    _, _, z, wz = moments._grid_rules(idx, 64.0)
    first = z <= h
    x, w = z[first] / h, wz[first] / h  # the panel on [0, 1]
    a = 1.0 - 2.0 * gamma
    for k in range(24):
        want = 1.0 / (a + k + 1.0)  # int_0^1 x^a x^k dx
        assert abs(w @ x ** (a + k) / want - 1.0) <= 2e-13, k


def test_core_grid_cost(monkeypatch):
    # the cost of the direct route's core grid, whose z-columns each take a
    # profile sum over the s-rule: at most 250 z-columns at R = 64 (242 now,
    # 320 before the Gauss-Jacobi first panel), 12 of them on that panel
    class Stop(Exception):
        pass

    calls = []

    def spy(idx, r, z, fields):
        calls.append(z)
        raise Stop

    monkeypatch.setattr(bubble, "radial_profiles", spy)
    idx = ProblemIndex(4, 0.8)
    assert moments._default_radius(idx) == 64.0
    with pytest.raises(Stop):
        moments._integrals_direct(idx)
    [z] = calls
    assert z.size <= 250
    assert np.count_nonzero(z <= moments._Z_FIRST) == 12


def test_geometric_core_grid_matches_the_capped_grid(monkeypatch, capped_grid_rules):
    # panels that grow geometrically all the way to R give the totals of
    # the capped grid, with 140 x 242 core points instead of 480 x 780
    idx, R = ProblemIndex(7, 0.25), 40.0
    r, _, z, _ = moments._grid_rules(idx, R)
    rc, _, zc, _ = capped_grid_rules(idx, R)
    assert (r.size, z.size, rc.size, zc.size) == (140, 242, 480, 780)
    iset, combined = moments._integrals_direct(idx, R=R)
    got = np.concatenate([iset.I, combined])
    monkeypatch.setattr(moments, "_grid_rules", capped_grid_rules)
    iset, combined = moments._integrals_direct(idx, R=R)
    want = np.concatenate([iset.I, combined])
    assert np.abs(got / want - 1.0).max() <= 1e-13
