import math

import numpy as np
import pytest

from fyk import bubble, moments, pohozaev
from fyk.errors import DomainError
from fyk.pohozaev import BubbleExtensionField, PowerField
from fyk.specfun import ProblemIndex, constants, sphere_area


@pytest.mark.parametrize(
    "n,gamma",
    [(3, 0.5), (4, 0.3), (5, 0.7), (3, 0.05), (6, 0.05), (4, 0.5), (3, 0.9), (4, 0.9), (6, 0.9)],
)
def test_halfsphere_area_quadrature_matches_closed_form(n, gamma):
    # cos^(1-2g) th is singular at the equator for g > 1/2; the tanh-sinh
    # panel in the distance to it integrates the power to rounding, where
    # panels stopping 2e-15 short of it left 4.6e-4 at (4, 0.9)
    idx = ProblemIndex(n, gamma)
    for r in (0.5, 1.0, 2.0):
        q = pohozaev.weighted_halfsphere_area(idx, r)
        c = pohozaev.weighted_halfsphere_area_closed(idx, r)
        assert q == pytest.approx(c, rel=1e-13)


def test_halfsphere_area_scaling():
    # the weighted area scales like r^(n + 1 - 2*gamma)
    idx = ProblemIndex(4, 0.3)
    a1 = pohozaev.weighted_halfsphere_area_closed(idx, 1.0)
    a2 = pohozaev.weighted_halfsphere_area_closed(idx, 2.0)
    assert a2 / a1 == pytest.approx(2.0 ** (idx.n + 1.0 - 2.0 * idx.gamma), rel=1e-14)


def test_halfsphere_area_known_value():
    # at (3, 1/2) the weight is trivial and the area is |S^3_+| = pi^2
    idx = ProblemIndex(3, 0.5)
    assert pohozaev.weighted_halfsphere_area_closed(idx) == pytest.approx(
        math.pi**2, rel=1e-14
    )


@pytest.mark.parametrize("n,gamma,r", [(3, 0.5, 1.0), (4, 0.3, 0.7), (5, 0.7, 1.5)])
def test_identity_on_bubble(n, gamma, r):
    # the surface and trace-boundary contributions cancel on the exact bubble
    idx = ProblemIndex(n, gamma)
    rep = pohozaev.pohozaev_P(idx, BubbleExtensionField(idx), r)
    scale = max(abs(rep.surface_term), abs(rep.boundary_term))
    assert scale > 0.0
    assert abs(rep.total) <= 1e-7 * scale
    k = constants(idx).kappa
    assert rep.total == k * rep.surface_term + rep.boundary_term
    assert rep.r == r


@pytest.mark.parametrize(
    "n,gamma,bound", [(6, 0.05, 1e-10), (5, 0.1, 1e-10), (4, 0.9, 1e-10), (4, 0.3, 1e-12)]
)
def test_identity_on_bubble_at_the_cli_radii(n, gamma, bound):
    # the field's z^(2g-1) normal derivatives make the surface integrand
    # singular at the equator; the rule's tanh-sinh panel resolves it (the
    # worst residuals measured 1.1e-15, 2.0e-15, 6.4e-12 and 1.3e-15; 2.2e-2,
    # 4.9e-4 and 9.1e-5 with panels stopping 2e-15 short of the equator),
    # and (4, 0.3) and (4, 0.9) need the s-rule's graded start (7.6e-10 and
    # 6.0e-8 without it)
    idx = ProblemIndex(n, gamma)
    field = BubbleExtensionField(idx)
    for r in (0.5, 1.0, 2.0):
        rep = pohozaev.pohozaev_P(idx, field, r)
        scale = max(abs(rep.surface_term), abs(rep.boundary_term))
        assert abs(rep.total) <= bound * scale, r


def test_boundary_term_takes_p_f_and_delta():
    # the trace-sphere term r/(p+1) |S^(n-1)| r^(n-1) f(r)^(-delta) u(r)^(p+1):
    # f and delta scale it by f(r)^(-delta) and p sets its power, and the
    # surface term reads none of them
    idx = ProblemIndex(4, 0.3)
    field = PowerField([1.0, 1.0], [idx.m, 0.0])
    r = 0.8
    base = pohozaev.pohozaev_P(idx, field, r)
    u, area = float(field.trace(r)), sphere_area(idx.n) * r**idx.n
    pc = idx.p_critical
    assert base.boundary_term == pytest.approx(area * u ** (pc + 1.0) / (pc + 1.0), rel=1e-14)
    for p, f, delta in [(2.0, None, 0.0), (pc, lambda s: 1.0 + s * s, 0.7), (1.5, lambda s: 3.0, -0.4)]:
        rep = pohozaev.pohozaev_P(idx, field, r, p=p, f=f, delta=delta)
        scale = 1.0 if f is None else f(r) ** (-delta)
        assert rep.surface_term == base.surface_term
        assert rep.boundary_term == pytest.approx(area * scale * u ** (p + 1.0) / (p + 1.0), rel=1e-14)
        assert rep.total == constants(idx).kappa * rep.surface_term + rep.boundary_term


def test_pprime_annihilates_pure_powers():
    # the dilation functional vanishes on each weighted-harmonic power alone
    idx = ProblemIndex(4, 0.3)
    for mu in (0.0, idx.m):
        field = PowerField([1.0], [mu])
        for r in (0.5, 2.0):
            assert abs(pohozaev.pohozaev_Pprime(idx, field, r)) <= 1e-10


def test_pprime_cross_term_is_r_independent():
    idx = ProblemIndex(4, 0.3)
    field = PowerField([1.0, 1.0], [idx.m, 0.0])
    vals = [pohozaev.pohozaev_Pprime(idx, field, r) for r in (0.1, 0.9, 3.0)]
    assert max(vals) - min(vals) <= 1e-9 * abs(vals[0])
    oracle = pohozaev.limit_value_oracle(idx)
    assert vals[1] == pytest.approx(oracle, rel=1e-9)


def test_limit_oracle_closed_form():
    # -kappa c1^2 (m^2/2) * weighted halfsphere area, quadratic in c1
    idx = ProblemIndex(5, 0.7)
    k = constants(idx).kappa
    want = -k * idx.m**2 / 2.0 * pohozaev.weighted_halfsphere_area_closed(idx)
    assert pohozaev.limit_value_oracle(idx) == pytest.approx(want, rel=1e-14)
    assert pohozaev.limit_value_oracle(idx, c1=3.0) == pytest.approx(
        9.0 * want, rel=1e-14
    )


def test_coefficient_known_value():
    # numerator at (6, 0.5) is 108 - 108 + 15 = 15, and the normalized
    # value is 15 / (8 * 6 * 5 * 0.75) = 1/12
    rep = pohozaev.coefficient(ProblemIndex(6, 0.5))
    assert rep.c_value == pytest.approx(1.0 / 12.0, rel=1e-14)
    assert rep.positive
    assert rep.gate_1_2
    assert not rep.boundary_zero


def test_gate_thresholds():
    # each gamma band has its own minimal n, and the band edges are the
    # exact zeros of the numerator at the threshold dimension
    s19 = math.sqrt(1.0 / 19.0)
    s511 = math.sqrt(5.0 / 11.0)
    assert pohozaev.dimension_gate(7, 0.1) and not pohozaev.dimension_gate(6, 0.1)
    assert pohozaev.dimension_gate(6, 0.4) and not pohozaev.dimension_gate(5, 0.4)
    assert pohozaev.dimension_gate(5, 0.6) and not pohozaev.dimension_gate(4, 0.6)
    assert pohozaev.dimension_gate(4, 0.9) and not pohozaev.dimension_gate(3, 0.9)
    assert abs(pohozaev.coefficient_numerator(6, s19)) < 1e-12
    assert abs(pohozaev.coefficient_numerator(5, 0.5)) < 1e-12
    assert abs(pohozaev.coefficient_numerator(4, s511)) < 1e-12


def test_gate_equivalence_needs_admissible_index():
    # outside n > 2 + 2*gamma the closed-form sign and the gate disagree:
    # the functional the coefficient multiplies is divergent there
    n, g = 3, 0.85  # n < 2 + 2*gamma would need gamma > 0.5
    assert pohozaev.coefficient_numerator(n, g) > 0.0
    assert not pohozaev.dimension_gate(n, g)


def test_assemble_matches_closed_form():
    idx = ProblemIndex(6, 0.4)
    iset = moments.compute_integrals(idx)
    combined = moments.combined_integrals(idx, iset)
    got = pohozaev.assemble_Fhat(idx, combined)
    assert got == pytest.approx(pohozaev.coefficient(idx).c_value, rel=1e-8)


def test_local_sign_bound_shape():
    idx = ProblemIndex(6, 0.4)
    Cs = (1.0, 1.0, 1.0, 1.0)
    # the quadratic term dominates for small eps_hat at unit radius
    assert pohozaev.local_sign_bound(idx, 1e-3, 1.0, Cs, 0.5) > 0.0
    # while shrinking the radius revives the r^(-n+2g+1) correction
    assert pohozaev.local_sign_bound(idx, 1e-2, 1e-3, Cs, 0.5) < 0.0
    with pytest.raises(DomainError):
        pohozaev.local_sign_bound(idx, -1.0, 1.0, Cs, 0.5)
    with pytest.raises(DomainError):
        pohozaev.local_sign_bound(idx, 1.0, 1.0, Cs, 0.0)


@pytest.mark.parametrize("n,gamma", [(4, 0.3), (5, 0.7), (7, 0.25)])
def test_bubble_field_matches_one_point_evaluation(n, gamma):
    # value/grad on an array share one s-rule keyed on the largest r; with
    # every r <= 1 that is the rule of each one-point call as well
    idx = ProblemIndex(n, gamma)
    field = BubbleExtensionField(idx)
    r = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    z = np.array([0.01, 0.3, 0.9, 2.5])
    W = field.value(r, z)
    gr, gz = field.grad(r, z)
    assert W.shape == gr.shape == gz.shape == (3, 4)
    for (i, j), ri in np.ndenumerate(r):
        f = bubble.radial_profiles(idx, [ri], [z[j]], ("W", "Wr_over_r", "Wz"))
        for got, want in (
            (W[i, j], f["W"][0, 0]),
            (gr[i, j], ri * f["Wr_over_r"][0, 0]),
            (gz[i, j], f["Wz"][0, 0]),
        ):
            assert abs(got - want) <= 1e-15 * abs(want), (ri, z[j])


@pytest.mark.parametrize(
    "field",
    [BubbleExtensionField(ProblemIndex(4, 0.3)), BubbleExtensionField(ProblemIndex(3, 0.5)),
     PowerField([1.0, 0.5], [2.6, 0.0])],
    ids=["bubble", "bubble-half", "power"],
)
def test_value_grad_is_value_and_grad(field):
    r = np.linspace(0.0, 2.0, 12).reshape(3, 4)
    z = np.array([0.01, 0.3, 0.9, 2.5])
    u, ur, uz = field.value_grad(r, z)
    gr, gz = field.grad(r, z)
    assert np.array_equal(u, field.value(r, z))
    assert np.array_equal(ur, gr) and np.array_equal(uz, gz)


def test_each_half_sphere_makes_one_paired_call(monkeypatch):
    calls = []
    paired = bubble.paired_profiles

    def spy(idx, r, z, fields):
        calls.append((fields, r.size))
        return paired(idx, r, z, fields)

    monkeypatch.setattr(bubble, "paired_profiles", spy)
    idx = ProblemIndex(4, 0.3)
    for r in (0.5, 1.0, 2.0):
        pohozaev.pohozaev_P(idx, BubbleExtensionField(idx), r)
    assert [f for f, _ in calls] == [("W", "Wr_over_r", "Wz")] * 3
    # the cost of the check: at most 200 angles per half-sphere (176 now,
    # 648 before the tanh-sinh equator panel)
    assert all(size <= 200 for _, size in calls)
