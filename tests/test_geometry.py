import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fyk import geometry
from fyk.bubble import HalfSpacePoint
from fyk.errors import DomainError, NumericError
from fyk.solver import SymmetricTensor
from fyk.specfun import ProblemIndex


def _random_tracefree(rng, n):
    a = rng.normal(size=(n, n))
    a = 0.5 * (a + a.T)
    a -= np.eye(n) * (np.trace(a) / n)
    return SymmetricTensor(a, trace_free=True)


# -- jets ---------------------------------------------------------------------


def test_jet_shape_and_symmetry_validation():
    pi = SymmetricTensor(np.diag([1.0, -1.0, 0.0]), trace_free=True)
    n = 3
    ok = dict(
        H=0.0,
        pi=pi,
        Rij_h=np.zeros((n, n)),
        riem_h=np.zeros((n, n, n, n)),
        r_NN=0.0,
        r_iNjN=np.zeros((n, n)),
        g_Nk=np.zeros((n, n, n)),
    )
    geometry.MetricJet(**ok)
    bad = dict(ok, Rij_h=np.array([[0.0, 1.0, 0], [0, 0, 0], [0, 0, 0]]))
    with pytest.raises(DomainError):
        geometry.MetricJet(**bad)
    bad = dict(ok, r_NN=1.0)  # trace of r_iNjN must match
    with pytest.raises(DomainError):
        geometry.MetricJet(**bad)
    riem = np.zeros((n, n, n, n))
    riem[0, 1, 0, 1] = 1.0  # missing the antisymmetric partners
    bad = dict(ok, riem_h=riem)
    with pytest.raises(DomainError):
        geometry.MetricJet(**bad)


@given(n=st.integers(3, 10), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_gauss_codazzi_identity(n, seed):
    # 2 R_NN + ||pi||^2 + R[h] - H^2 collapses to -(n/(n-1)) ||pi||^2 in
    # the normalized gauge, for every trace-free second fundamental form
    rng = np.random.default_rng(seed)
    pi = _random_tracefree(rng, n)
    jet = geometry.normalized_jet(pi)
    got = geometry.gauss_codazzi_scalar(jet)
    want = -n / (n - 1.0) * pi.norm_sq()
    assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_gauss_codazzi_rejects_unnormalized():
    pi = SymmetricTensor(np.diag([1.0, -1.0, 0.0]), trace_free=True)
    n = 3
    jet = geometry.MetricJet(
        H=0.5,
        pi=pi,
        Rij_h=np.zeros((n, n)),
        riem_h=np.zeros((n, n, n, n)),
        r_NN=0.0,
        r_iNjN=np.zeros((n, n)),
        g_Nk=np.zeros((n, n, n)),
    )
    with pytest.raises(DomainError):
        geometry.gauss_codazzi_scalar(jet)


def test_normalized_jet_gauge_values():
    pi = SymmetricTensor(np.diag([2.0, -2.0, 0.0, 0.0]), trace_free=True)
    jet = geometry.normalized_jet(pi)
    n = 4
    assert jet.H == 0.0
    assert np.all(jet.Rij_h == 0.0)
    assert jet.r_NN == pytest.approx((1 - 2 * n) / (2 * (n - 1)) * 8.0, rel=1e-14)
    assert geometry.is_normalized(jet)


def test_sqrt_det_expansion_values():
    # trivial jet: volume element is 1; H = 0 kills the linear z term
    pi = SymmetricTensor(np.zeros((3, 3)), trace_free=True)
    jet = geometry.normalized_jet(pi)
    pt = HalfSpacePoint(np.array([0.1, -0.2, 0.05]), 0.3)
    assert geometry.sqrt_det_expansion(jet, pt) == 1.0

    pi = SymmetricTensor(np.diag([1.0, -1.0, 0.0]), trace_free=True)
    jet = geometry.normalized_jet(pi)
    z = 0.3
    got = geometry.sqrt_det_expansion(jet, HalfSpacePoint(np.zeros(3), z))
    # linear term absent; quadratic term 0.5 (-||pi||^2 - r_NN) z^2
    want = 1.0 + 0.5 * (-2.0 - jet.r_NN) * z**2
    assert got == pytest.approx(want, rel=1e-14)


def test_inverse_metric_expansion_values():
    pi = SymmetricTensor(np.diag([1.0, -1.0, 0.0]), trace_free=True)
    jet = geometry.normalized_jet(pi)
    z = 0.2
    got = geometry.inverse_metric_expansion(jet, HalfSpacePoint(np.zeros(3), z))
    want = np.eye(3) + 2.0 * z * pi.entries
    want += (3.0 * pi.entries @ pi.entries + jet.r_iNjN) * z**2
    assert np.allclose(got, want, rtol=1e-14)
    # at the base point, the identity exactly
    got0 = geometry.inverse_metric_expansion(jet, HalfSpacePoint(np.zeros(3), 0.0))
    assert np.array_equal(got0, np.eye(3))


# -- characteristics -----------------------------------------------------------


def test_characteristics_trivial_from_center():
    # from xbar0 = 0 the momentum starts at zero and stays zero: the
    # characteristic is the vertical line and the phase never moves
    idx = ProblemIndex(3, 0.5)
    b = geometry.eikonal_characteristics(K=10.0, xbar0=np.zeros(3), r=0.005)
    assert b.sup_p == 0.0
    assert np.abs(b.z).max() == 0.0
    assert np.allclose(b.x[:, :3], 0.0)
    assert np.allclose(b.x[:, 3], b.s)  # x_N = s when p == 0


def test_characteristics_conserve_defining_relation():
    idx = ProblemIndex(3, 0.5)
    v = np.array([0.004, -0.003, 0.001])
    b = geometry.eikonal_characteristics(K=10.0, xbar0=v, r=0.005)
    assert b.hamiltonian_max <= 1e-8
    # initial data: p = -2K xbar0, z = -K |xbar0|^2
    assert np.allclose(b.p[0, :3], -20.0 * v, rtol=1e-12)
    assert b.z[0] == pytest.approx(-10.0 * float(v @ v), rel=1e-12)


def test_characteristics_domain_checks():
    idx = ProblemIndex(3, 0.5)
    with pytest.raises(DomainError):
        geometry.eikonal_characteristics(K=10.0, xbar0=np.zeros(3), r=0.02)
    with pytest.raises(DomainError):
        geometry.eikonal_characteristics(K=-1.0, xbar0=np.zeros(3), r=0.005)
    with pytest.raises(DomainError):
        geometry.eikonal_characteristics(
            K=10.0, xbar0=np.array([1.0, 0.0, 0.0]), r=0.005
        )


def test_characteristic_supnorm_bounds_flat():
    # the two smallness bounds the collar construction relies on, verified
    # empirically over sampled base points for the flat metric
    idx = ProblemIndex(3, 0.5)
    K, r = 10.0, 0.009
    sup = geometry.characteristic_supnorms(idx, K, r, samples=8)
    assert sup["sup_p"] <= 5.0 / K
    assert 2.0 * (sup["sup_grad_p"] + sup["sup_p_dot"]) <= 5.0 * K


def _curved_metric(xbar):
    # a z-independent perturbed metric exercises the dg^{ij} force term
    n = len(xbar)
    g = np.eye(n) * (1.0 + 0.1 * float(xbar @ xbar))
    dg = np.zeros((n, n, n))
    for k in range(n):
        dg[k] = np.eye(n) * (0.2 * xbar[k])
    return g, dg


def test_characteristics_curved_metric_still_conserves():
    v = np.array([0.004, 0.002, -0.001])
    b = geometry.eikonal_characteristics(K=10.0, xbar0=v, r=0.005, metric=_curved_metric)
    assert b.hamiltonian_max <= 1e-8
    assert b.sup_p <= 5.0 / 10.0


def _supnorms_one_at_a_time(idx, K, r, samples, metric):
    """Oracle for ``characteristic_supnorms``: one ODE solve per start point,
    each on its own adapted grid, finite-difference pairs compared by step
    index.  The sampling is the library's."""
    n = idx.n
    rng = np.random.default_rng(7)
    sup_p = sup_dp = sup_pdot = 0.0
    h = 1e-6 * max(r, 1e-6)
    for _ in range(samples):
        v = rng.normal(size=n)
        v *= rng.uniform(0.0, 2.0 * r) / np.linalg.norm(v)
        base = geometry.eikonal_characteristics(K, v, r, metric=metric)
        sup_p = max(sup_p, base.sup_p)
        sup_pdot = max(sup_pdot, base.sup_p_dot)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            hi = geometry.eikonal_characteristics(K, np.clip(v + e, -2 * r, 2 * r), r, metric=metric)
            lo = geometry.eikonal_characteristics(K, np.clip(v - e, -2 * r, 2 * r), r, metric=metric)
            kmax = min(len(hi.s), len(lo.s))
            sup_dp = max(sup_dp, np.abs(hi.p[:kmax] - lo.p[:kmax]).max() / (2.0 * h))
    return {"sup_p": sup_p, "sup_grad_p": sup_dp, "sup_p_dot": sup_pdot}


@pytest.mark.parametrize("r", [0.004, 0.009])
@pytest.mark.parametrize("metric", [None, _curved_metric], ids=["flat", "curved"])
def test_batched_supnorms_match_one_solve_per_point(metric, r):
    idx = ProblemIndex(3, 0.5)
    got = geometry.characteristic_supnorms(idx, 10.0, r, samples=4, metric=metric)
    want = _supnorms_one_at_a_time(idx, 10.0, r, 4, metric)
    assert got.keys() == want.keys()
    for key, val in want.items():
        assert type(got[key]) is float
        assert got[key] == pytest.approx(val, rel=1e-12, abs=0.0), key


def test_supnorm_sweep_is_one_ode_solve(monkeypatch):
    calls = []
    solve_ivp = geometry.solve_ivp

    def counted(*args, **kwargs):
        calls.append(len(args[2]))
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(geometry, "solve_ivp", counted)
    geometry.characteristic_supnorms(
        ProblemIndex(3, 0.5), 10.0, 0.005, samples=4, metric=_curved_metric
    )
    # 4 samples and their 2n = 6 partners, each a state of 2n + 3 = 9
    assert calls == [4 * 7 * 9]


def test_flat_supnorm_sweep_solves_no_ode(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the flat characteristics are in closed form")

    monkeypatch.setattr(geometry, "solve_ivp", refuse)
    geometry.characteristic_supnorms(ProblemIndex(3, 0.5), 10.0, 0.005, samples=4)
    geometry.eikonal_characteristics(10.0, np.array([0.004, -0.003, 0.001]), 0.005)


def _flat_metric(xbar):
    # the flat metric as a callable: sends the characteristics through the ODE
    n = len(xbar)
    return np.eye(n), np.zeros((n, n, n))


@pytest.mark.parametrize(
    "K, r, v",
    [
        (10.0, 0.005, [0.004, -0.003, 0.001]),
        (10.0, 0.009, [0.0, 0.0, -0.0179]),
        (2.0, 0.2, [0.3, -0.2, 0.1]),
        (1.0, 0.9, [0.5, 0.3, 0.0]),  # u = |p| s / 2 reaches 1.05 at s = 2r
    ],
)
def test_flat_closed_form_matches_the_ode(K, r, v):
    v = np.array(v)
    closed = geometry.eikonal_characteristics(K, v, r)
    ode = geometry.eikonal_characteristics(K, v, r, metric=_flat_metric)
    assert len(closed.s) == 17
    assert closed.s[-1] == ode.s[-1]
    for key in ("p", "x", "z"):
        np.testing.assert_allclose(getattr(closed, key)[-1], getattr(ode, key)[-1], rtol=1e-10, atol=0.0)
    assert closed.hamiltonian_max <= 1e-14


@pytest.mark.parametrize("r", [0.004, 0.009])
def test_flat_supnorms_match_the_ode(r):
    idx = ProblemIndex(3, 0.5)
    closed = geometry.characteristic_supnorms(idx, 10.0, r, samples=8)
    ode = geometry.characteristic_supnorms(idx, 10.0, r, samples=8, metric=_flat_metric)
    for key, val in ode.items():
        assert closed[key] == pytest.approx(val, rel=1e-12, abs=0.0), key


@pytest.mark.parametrize("metric", [None, _flat_metric], ids=["closed", "ode"])
def test_flat_blow_up_raises(metric):
    # |p| 2r = 6.1 > pi: p_N = -|p| tan(|p| s / 2) blows up inside the span
    with pytest.raises(NumericError):
        geometry.eikonal_characteristics(1.0, np.array([1.7, 0.0, 0.0]), 0.9, metric=metric)


def test_start_points_outside_the_ball_raise():
    K, r = 10.0, 0.005
    h = 1e-6 * r
    v = np.array([math.sqrt(2.0) * r, math.sqrt(2.0) * r, 0.0])  # |v| = 2r
    # clipping to the box [-2r, 2r]^n leaves this partner outside the ball
    partner = np.clip(v + np.array([h, 0.0, 0.0]), -2 * r, 2 * r)
    assert np.linalg.norm(partner) > 2.0 * r * (1.0 + 1e-12)
    geometry._characteristics(K, v[None], r, None, 1e-10)
    with pytest.raises(DomainError):
        geometry._characteristics(K, np.stack([v, partner, -v]), r, None, 1e-10)
    with pytest.raises(DomainError):
        geometry.eikonal_characteristics(K, partner, r)
    with pytest.raises(DomainError):
        geometry.characteristic_supnorms(ProblemIndex(3, 0.5), K, r, samples=0)
