import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from fyk import specfun
from fyk.errors import DomainError
from fyk.specfun import ProblemIndex, constants


def test_problem_index_validation():
    with pytest.raises(DomainError):
        ProblemIndex(0, 0.5)
    with pytest.raises(DomainError):
        ProblemIndex(3, 0.0)
    with pytest.raises(DomainError):
        ProblemIndex(3, 1.0)
    with pytest.raises(DomainError):
        ProblemIndex(1, 0.6)  # n <= 2*gamma
    idx = ProblemIndex(5, 0.25)
    assert idx.m == 4.5
    assert idx.p_critical == pytest.approx(5.5 / 4.5)
    with pytest.raises(DomainError):
        ProblemIndex(3, 0.5).require_supercritical()
    ProblemIndex(4, 0.5).require_supercritical()


def test_gamma_fn_matches_reference():
    xs = np.array([0.25, 0.5, 1.0, 1.5, 3.7, 10.0])
    from scipy.special import gamma as ref

    assert np.allclose(specfun.gamma_fn(xs), ref(xs), rtol=1e-15)
    assert specfun.gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi))
    with pytest.raises(DomainError):
        specfun.gamma_fn(-1.0)


@pytest.mark.parametrize("order", [0.25, 0.5, 0.8])
@pytest.mark.parametrize("t", [0.1, 1.0, 4.0])
def test_bessel_k_integral_representation(order, t):
    # K_nu(t) = int_0^inf exp(-t cosh s) cosh(nu s) ds, an independent route
    val, err = integrate.quad(
        lambda s: math.exp(-t * math.cosh(s)) * math.cosh(order * s),
        0.0,
        30.0,
        epsabs=0.0,
        epsrel=1e-13,
        limit=200,
    )
    assert specfun.bessel_k(order, t) == pytest.approx(val, rel=1e-11)


def test_bessel_k_half_closed_form():
    t = np.linspace(0.2, 8.0, 20)
    want = np.sqrt(math.pi / 2.0 / t) * np.exp(-t)
    assert np.allclose(specfun.bessel_k(0.5, t), want, rtol=1e-13)


@given(
    g=st.floats(0.05, 0.95),
    t=st.floats(0.05, 20.0),
)
@settings(max_examples=60, deadline=None)
def test_profile_phi_solves_weighted_ode(g, t):
    # phi'' + ((1-2g)/t) phi' - phi = 0, checked by central differences
    # step proportional to t: near 0 the t^(2g) component makes higher
    # derivatives blow up, so an absolute step loses accuracy there
    h = 1e-4 * t
    f = lambda s: specfun.profile_phi(g, s)
    d2 = (f(t + h) - 2.0 * f(t) + f(t - h)) / h**2
    d1 = (f(t + h) - f(t - h)) / (2.0 * h)
    resid = d2 + (1.0 - 2.0 * g) / t * d1 - f(t)
    scale = max(abs(d2), abs((1.0 - 2.0 * g) / t * d1), abs(f(t)), 1.0)
    assert abs(resid) <= 1e-4 * scale


def test_profile_phi_boundary_values():
    assert specfun.profile_phi(0.3, 0.0) == 1.0
    assert specfun.profile_phi(0.3, 800.0) == 0.0
    # derivative consistent with finite differences
    g, t = 0.45, 1.3
    h = 1e-6
    fd = (specfun.profile_phi(g, t + h) - specfun.profile_phi(g, t - h)) / (2 * h)
    assert specfun.profile_phi_prime(g, t) == pytest.approx(fd, rel=1e-8)


def test_profile_what_derivative():
    g, t = 0.3, 0.8
    h = 1e-6
    fd = (specfun.profile_what(g, t + h) - specfun.profile_what(g, t - h)) / (2 * h)
    assert specfun.profile_what_prime(g, t) == pytest.approx(fd, rel=1e-8)


def _profile_formulas(g):
    """The closed forms each profile evaluates below the underflow cutoff."""
    d1 = 2.0 ** (1.0 - g) / math.gamma(g)
    return {
        "profile_phi": lambda t: d1 * t**g * special.kv(g, t),
        "profile_phi_prime": lambda t: -d1 * t**g * special.kv(1.0 - g, t),
        "profile_what": lambda t: t ** (-g) * special.kv(g, t),
        "profile_what_prime": lambda t: -2.0 * g * t ** (-g - 1.0) * special.kv(g, t)
        - t ** (-g) * special.kv(1.0 - g, t),
    }


_PROFILES = ("profile_phi", "profile_phi_prime", "profile_what", "profile_what_prime")


@pytest.mark.parametrize("name", _PROFILES)
def test_profiles_at_the_underflow_cutoff_and_beyond(name):
    g = 0.3
    prof = getattr(specfun, name)
    formula = _profile_formulas(g)[name]
    t = np.array([689.999, 690.0, 690.001, 1e4, np.inf])
    want = np.concatenate([formula(t[:2]), np.zeros(3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = prof(g, t)
        scalars = [prof(g, float(x)) for x in t]
    assert np.array_equal(got, want)
    assert np.array_equal(scalars, want)
    assert all(isinstance(v, float) for v in scalars)
    # below the cutoff the values are the closed form, bit for bit
    dense = np.linspace(1e-3, 690.0, 4001).reshape(1, 4001)
    assert np.array_equal(prof(g, dense), formula(dense))
    if name == "profile_phi":
        assert prof(g, 0.0) == 1.0
        assert np.array_equal(prof(g, np.array([0.0, 1e4])), [1.0, 0.0])
    else:
        with pytest.raises(DomainError):
            prof(g, 0.0)


@pytest.mark.parametrize("name", _PROFILES)
def test_profiles_reject_nan(name):
    prof = getattr(specfun, name)
    with pytest.raises(DomainError):
        prof(0.3, math.nan)
    with pytest.raises(DomainError):
        prof(0.3, np.array([1.0, math.nan, 2.0]))


def test_sphere_area_values():
    assert specfun.sphere_area(2) == pytest.approx(2.0 * math.pi)
    assert specfun.sphere_area(3) == pytest.approx(4.0 * math.pi)
    assert specfun.sphere_area(4) == pytest.approx(2.0 * math.pi**2)
    # recursion |S^n| = 2 pi / (n-1) |S^(n-2)|
    for n in range(4, 12):
        assert specfun.sphere_area(n) == pytest.approx(
            2.0 * math.pi / (n - 2) * specfun.sphere_area(n - 2), rel=1e-14
        )


def test_constants_at_3_half():
    c = constants(ProblemIndex(3, 0.5))
    assert c.alpha == pytest.approx(2.0, rel=1e-14)
    assert c.kappa == pytest.approx(1.0, rel=1e-14)
    assert c.green_const == pytest.approx(1.0 / (2.0 * math.pi**2), rel=1e-12)
    assert c.sphere_area == pytest.approx(4.0 * math.pi, rel=1e-14)


def test_kappa_closed_form():
    # kappa = 2^(2g-1) Gamma(g) / Gamma(1-g)
    for g in (0.2, 0.35, 0.5, 0.8):
        idx = ProblemIndex(5, g)
        want = 2.0 ** (2.0 * g - 1.0) * math.gamma(g) / math.gamma(1.0 - g)
        assert constants(idx).kappa == pytest.approx(want, rel=1e-14)
