import math

import numpy as np
import pytest
from scipy import integrate

from fyk import moments
from fyk.errors import DomainError, NumericError
from fyk.specfun import (
    ProblemIndex,
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


def _quad_moment(family, order, n, g):
    """Oracle: adaptive quadrature of the defining integrand of a moment."""
    a = order - 2.0 * g
    w = n - 1 - order + 2.0 * g
    f = {
        "A": lambda t: t**a * profile_phi(g, t) ** 2,
        "Ap": lambda t: t**a * profile_phi(g, t) * profile_phi_prime(g, t),
        "App": lambda t: t**a * profile_phi_prime(g, t) ** 2,
        "B": lambda t: t**w * profile_what(g, t) ** 2,
        "Bp": lambda t: t**w * profile_what(g, t) * profile_what_prime(g, t),
        "Bpp": lambda t: t**w * profile_what_prime(g, t) ** 2,
    }[family]
    # the integrands decay like exp(-2t): the tail beyond t = 60 is below 1e-50
    val, err = integrate.quad(f, 0.0, 60.0, epsabs=0.0, epsrel=1e-12, limit=400, points=[1.0])
    assert err <= 1e-10 * abs(val)
    return val


@pytest.mark.parametrize("gamma", [0.2, 0.45, 0.7])
def test_a_chain_against_direct_quadrature(gamma):
    # every family at the criterion-3 orders against direct quadrature
    n = 8
    table = moments.compute_moments(ProblemIndex(n, gamma), orders=_CRITERION_3_ORDERS)
    for family, orders in _CRITERION_3_ORDERS.items():
        for order in orders:
            want = _quad_moment(family, order, n, gamma)
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
