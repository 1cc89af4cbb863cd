"""End-to-end acceptance gate.

One test (or parametrized family) per shipped guarantee, each run at its
stated tolerance.  Guarantees that cannot hold as stated are kept as
strict-xfail tests next to a passing corrected variant; see the test
docstrings for what breaks and why.
"""

import functools
import math

import numpy as np
import pytest

from fyk import bubble, cli, moments, pohozaev, solver
from fyk.errors import DomainError
from fyk.specfun import ProblemIndex, constants

RATIO_PAIRS = [(5, 0.5), (5, 0.7), (7, 0.25)]


@functools.lru_cache(maxsize=None)
def _integrals(n, gamma, method):
    return moments.compute_integrals(ProblemIndex(n, gamma), method=method)


# -- 1. nine integral ratios, both quadrature routes -------------------------


@pytest.mark.parametrize("n,gamma", RATIO_PAIRS)
def test_criterion_01_ratios_bessel_route(n, gamma):
    idx = ProblemIndex(n, gamma)
    iset = _integrals(n, gamma, "bessel_moments")
    rel = np.abs(iset.I / iset.C0 - moments.closed_form_ratios(idx))
    rel /= np.abs(moments.closed_form_ratios(idx))
    assert rel.max() <= 1e-6


@pytest.mark.parametrize("n,gamma", RATIO_PAIRS)
def test_criterion_01_ratios_direct_route(n, gamma):
    idx = ProblemIndex(n, gamma)
    iset = _integrals(n, gamma, "direct_2d")
    rel = np.abs(iset.I / iset.C0 - moments.closed_form_ratios(idx))
    rel /= np.abs(moments.closed_form_ratios(idx))
    assert rel.max() <= 1e-4


def test_criterion_01_direct_route_at_4_08():
    # the weight z^(-0.6) is singular at the trace: the tail's equator panel
    # is Gauss-Jacobi in that weight, and the CLI's residual check passes
    idx = ProblemIndex(4, 0.8)
    iset = _integrals(4, 0.8, "direct_2d")
    rel = np.abs(iset.I / iset.C0 / moments.closed_form_ratios(idx) - 1.0)
    assert rel.max() <= 1e-4
    argv = ["integrals", "--n", "4", "--gamma", "0.8", "--method", "direct_2d", "--tol", "1e-4"]
    assert cli.main(argv) == 0


@pytest.mark.xfail(
    strict=True,
    raises=DomainError,
    reason="at (3, 0.5) the trace dimension equals 2 + 2*gamma, so the "
    "normalizing moment B_2 diverges logarithmically and the nine ratios "
    "are undefined; the divergence is reported instead of a value",
)
def test_criterion_01_ratios_at_3_05():
    idx = ProblemIndex(3, 0.5)
    iset = moments.compute_integrals(idx)
    rel = np.abs(iset.I / iset.C0 / moments.closed_form_ratios(idx) - 1.0)
    assert rel.max() <= 1e-6


# -- 2. three combined functionals -------------------------------------------


@pytest.mark.parametrize("n,gamma", RATIO_PAIRS)
def test_criterion_02_combined_ratios(n, gamma):
    idx = ProblemIndex(n, gamma)
    iset = _integrals(n, gamma, "bessel_moments")
    got = np.asarray(moments.combined_integrals(idx, iset)) / iset.C0
    want = moments.combined_ratios(idx)
    assert np.abs(got / want - 1.0).max() <= 1e-6


@pytest.mark.xfail(
    strict=True,
    raises=DomainError,
    reason="same divergence as the nine-ratio case: combined functionals "
    "normalize by C0, which is infinite at (3, 0.5)",
)
def test_criterion_02_combined_ratios_at_3_05():
    idx = ProblemIndex(3, 0.5)
    iset = moments.compute_integrals(idx)
    got = np.asarray(moments.combined_integrals(idx, iset)) / iset.C0
    assert np.abs(got / moments.combined_ratios(idx) - 1.0).max() <= 1e-6


# -- 3. moment recurrences and the gamma = 1/2 closed forms -------------------


@pytest.mark.parametrize("n,gamma", [(8, 0.3), (7, 0.45)])
def test_criterion_03_recurrences(n, gamma):
    # orders chosen so every A-recurrence with alpha in {1,3,5} and every
    # B-recurrence with beta in {2,4} has both sides available
    orders = {
        "A": (1, 3, 5, 7),
        "Ap": (2, 4, 6),
        "App": (1, 3, 5),
        "B": (2, 4),
        "Bp": (1, 3),
        "Bpp": (2, 4),
    }
    table = moments.compute_moments(ProblemIndex(n, gamma), orders=orders)
    residuals = moments.verify_recurrences(table)
    assert residuals, "no recurrence instances covered"
    assert max(residuals.values()) <= 1e-7


def test_criterion_03_closed_forms_at_half():
    table = moments.compute_moments(ProblemIndex(5, 0.5))
    assert abs(table.A[1] - 0.5) <= 1e-9
    assert abs(table.A[3] - 0.25) <= 1e-9


# -- 4. sign of the energy coefficient vs the dimension gate ------------------


def test_criterion_04_gate_sweep():
    """Sign of the closed-form coefficient agrees with the piecewise gate.

    The equivalence only makes sense where the problem index is admissible
    (n > 2 + 2*gamma), which excludes n = 3 with gamma >= 1/2; everywhere
    else the sweep is exhaustive at step 1e-3.  The lone grid point sitting
    exactly on a zero of the numerator, (5, 0.5), has sign(c) = gate = False
    on both sides of the comparison.
    """
    gammas = np.round(np.arange(1, 1000) * 1e-3, 9)
    for n in range(3, 31):
        for g in gammas:
            if n <= 2.0 + 2.0 * g:
                continue
            num = pohozaev.coefficient_numerator(n, g)
            assert (num > 0.0) == pohozaev.dimension_gate(n, g), (n, g, num)


def test_criterion_04_boundary_zero():
    rep = pohozaev.coefficient(ProblemIndex(5, 0.5))
    assert rep.boundary_zero
    assert abs(pohozaev.coefficient_numerator(5, 0.5)) < 1e-12


# -- 5. coefficient assembly from quadrature ---------------------------------


@pytest.mark.parametrize(
    "n,gamma", [(4, 0.8), (5, 0.6), (6, 0.5), (7, 0.2), (8, 0.35)]
)
def test_criterion_05_assembly(n, gamma):
    idx = ProblemIndex(n, gamma)
    iset = _integrals(n, gamma, "bessel_moments")
    combined = moments.combined_integrals(idx, iset)
    got = pohozaev.assemble_Fhat(idx, combined)
    want = pohozaev.coefficient(idx).c_value
    assert abs(got / want - 1.0) <= 1e-6


# -- 6. Pohozaev identity and the dilation-limit value ------------------------


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_criterion_06_identity_bubble(r):
    """|P(W, r)| small relative to the size of its two constituent terms.

    The stated scale for this bound, kappa * C0, is infinite at (3, 0.5)
    (see the ratio tests above), which would make the literal inequality
    vacuous; max(|surface|, |boundary|) is the finite scale actually at
    stake in the cancellation, and the bound is checked against that.
    """
    idx = ProblemIndex(3, 0.5)
    rep = pohozaev.pohozaev_P(idx, pohozaev.BubbleExtensionField(idx), r)
    scale = max(abs(rep.surface_term), abs(rep.boundary_term))
    assert scale > 0.0
    assert abs(rep.total) <= 1e-4 * scale


def _limit_computed(idx, r):
    field = pohozaev.PowerField([1.0, 1.0], [idx.m, 0.0])
    return pohozaev.pohozaev_Pprime(idx, field, r)


@pytest.mark.xfail(
    strict=True,
    reason="the stated limit -kappa*(m/2)*area evaluates to -pi^2 at "
    "(3, 0.5), but the dilation derivative of the leading-power field is "
    "-kappa*(m^2/2)*area = -2*pi^2 there: the prefactor is m^2/2, not m/2, "
    "so at m = 2 the stated value is low by a factor of 2; see the "
    "corrected-oracle test below",
)
def test_criterion_06_limit_value_as_stated():
    idx = ProblemIndex(3, 0.5)
    stated = -constants(idx).kappa * (idx.m / 2.0) * (
        pohozaev.weighted_halfsphere_area_closed(idx)
    )
    assert abs(stated + math.pi**2) < 1e-12  # the printed value
    computed = _limit_computed(idx, 0.05)
    assert abs(computed / stated - 1.0) <= 0.01


@pytest.mark.parametrize("r", [0.05, 0.5, 2.0])
def test_criterion_06_limit_value_corrected(r):
    idx = ProblemIndex(3, 0.5)
    oracle = pohozaev.limit_value_oracle(idx)
    assert abs(oracle + 2.0 * math.pi**2) < 1e-12
    computed = _limit_computed(idx, r)
    assert abs(computed / oracle - 1.0) <= 0.01


# -- 7. Green's-function asymptotics ------------------------------------------


def test_criterion_07_green_asymptotics():
    idx = ProblemIndex(3, 0.5)
    fit = solver.green_asymptotics(idx, R=4.0)
    assert abs(fit.slope / (-(idx.m)) - 1.0) <= 0.02
    assert abs(fit.constant / constants(idx).green_const - 1.0) <= 0.05


# -- 8. eigenvalue scaling -----------------------------------------------------


def test_criterion_08_lambda1_scaling():
    idx = ProblemIndex(3, 0.5)
    vals = np.array(
        [solver.rayleigh_lambda1(idx, R) * R**2 for R in (0.5, 1.0, 2.0)]
    )
    spread = vals.max() / vals.min() - 1.0
    assert spread <= 1e-3
    assert (vals > 0.0).all()


# -- 9. extension-solver convergence and the Neumann ratio --------------------


def test_criterion_09_extension_convergence():
    idx = ProblemIndex(3, 0.5)
    errs = []
    for nr in (32, 64, 128):
        grid = solver.WeightedGrid(6.0, 6.0, nr, nr)
        W = solver.solve_extension(idx, grid)
        exact = bubble.radial_profiles(idx, grid.r, grid.z)["W"]
        errs.append(np.abs(W - exact).max())
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.5, (errs, orders)


@pytest.mark.parametrize("n,gamma", [(3, 0.5), (4, 0.3)])
def test_criterion_09_neumann_ratio(n, gamma):
    idx = ProblemIndex(n, gamma)
    p = bubble.BubbleParams()
    for rho in np.linspace(0.0, 3.0, 13):
        xbar = np.zeros(idx.n)
        xbar[0] = rho
        flux = bubble.neumann_trace(idx, p, xbar)
        w = bubble.trace_bubble(idx, p, xbar)
        assert abs(flux / w**idx.p_critical - 1.0) <= 1e-3


# -- 10. linearized problem ----------------------------------------------------


@functools.lru_cache(maxsize=None)
def _linearized(scale):
    idx = ProblemIndex(4, 0.3)
    entries = scale * np.diag([1.0, -1.0, 0.0, 0.0])
    pi = solver.SymmetricTensor(entries, trace_free=True)
    grid = solver.WeightedGrid(20.0, 20.0, 160, 160)
    return solver.solve_linearized(idx, pi, 0.5, grid)


def test_criterion_10_zero_tensor():
    idx = ProblemIndex(4, 0.3)
    pi = solver.SymmetricTensor(np.zeros((4, 4)), trace_free=True)
    grid = solver.WeightedGrid(20.0, 20.0, 64, 64)
    res = solver.solve_linearized(idx, pi, 0.5, grid)
    pts = [
        (np.array([1.0, 0.5, 0.0, 0.0]), 0.2),
        (np.array([2.0, 0.0, 1.0, 0.0]), 1.0),
    ]
    assert all(res.evaluate(xbar, xN) == 0.0 for xbar, xN in pts)


def test_criterion_10_linearity():
    r1, r2 = _linearized(1.0), _linearized(2.0)
    pts = [
        (np.array([1.0, 0.5, 0.0, 0.0]), 0.2),
        (np.array([0.3, -0.7, 0.4, 0.1]), 1.3),
        (np.array([2.0, 1.0, -1.0, 0.5]), 0.05),
    ]
    for xbar, xN in pts:
        v1 = r1.evaluate(xbar, xN)
        v2 = r2.evaluate(xbar, xN)
        assert abs(v2 - 2.0 * v1) <= 1e-12 * max(1.0, abs(v1))


def test_criterion_10_orthogonality_and_envelope():
    res = _linearized(1.0)
    d = res.diagnostics
    scale = max(abs(d["energy"]), 1e-30)
    assert abs(d["ortho_energy"]) <= 1e-3 * scale
    assert abs(d["ortho_trace"]) <= 1e-3 * scale
    assert abs(d["proj_dilation"]) <= 1e-3 * scale
    assert np.all(np.abs(np.asarray(d["proj_translation"])) <= 1e-3 * scale)
    assert math.isfinite(d["envelope_max"])
    assert d["envelope_max"] <= 10.0
