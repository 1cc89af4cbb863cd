from functools import lru_cache
import math

import numpy as np
import pytest
from scipy import special
from scipy.linalg import blas

from fyk import bubble, moments, solver, specfun
from fyk._quad import halfsphere_rule
from fyk.bubble import BubbleParams, HalfSpacePoint
from fyk.errors import DomainError, NumericError
from fyk.specfun import ProblemIndex, constants


def _pt(xbar, xN):
    return HalfSpacePoint(np.asarray(xbar, dtype=float), xN)


def test_trace_closed_form():
    idx = ProblemIndex(4, 0.3)
    a = constants(idx).alpha
    p = BubbleParams(lam=2.0, sigma=np.array([1.0, 0.0, 0.0, 0.0]))
    x = np.array([1.0, 2.0, 0.0, 0.0])
    want = a * (2.0 / (4.0 + 4.0)) ** (idx.m / 2.0)
    assert bubble.trace_bubble(idx, p, x) == pytest.approx(want, rel=1e-14)


def test_trace_center_value():
    # w(sigma) = alpha * lam^(-m/2)
    for n, g in [(3, 0.5), (5, 0.7)]:
        idx = ProblemIndex(n, g)
        p = BubbleParams(lam=0.7)
        want = constants(idx).alpha * 0.7 ** (-idx.m / 2.0)
        assert bubble.trace_bubble(idx, p, np.zeros(n)) == pytest.approx(
            want, rel=1e-14
        )


def test_extension_trace_limit():
    # the fourier route at tiny height reproduces the trace
    idx = ProblemIndex(4, 0.3)
    p = BubbleParams()
    for rho in (0.0, 0.8, 2.5):
        xbar = np.zeros(4)
        xbar[0] = rho
        w = bubble.trace_bubble(idx, p, xbar)
        # the approach rate is z^(2*gamma), so at z = 1e-8 the gap is ~1e-5
        W = bubble.extension(idx, p, _pt(xbar, 1e-8))
        assert W == pytest.approx(w, rel=1e-4)


@pytest.mark.parametrize("n,gamma", [(3, 0.5), (4, 0.3), (5, 0.7)])
def test_extension_dual_route_agreement(n, gamma):
    # fourier-bessel synthesis vs the poisson kernel: fully independent
    idx = ProblemIndex(n, gamma)
    p = BubbleParams()
    pts = [(0.0, 0.5), (1.0, 0.3), (2.0, 1.5), (0.5, 3.0)]
    # near the trace the kernel is a spike of width z around xbar
    pts += [(0.0, 1e-3), (1.0, 1e-2), (2.0, 1e-3), (0.5, 1e-2)]
    for rho, z in pts:
        xbar = np.zeros(n)
        xbar[0] = rho
        a = bubble.extension(idx, p, _pt(xbar, z), route="fourier_bessel")
        b = bubble.extension(idx, p, _pt(xbar, z), route="poisson_kernel")
        assert abs(a / b - 1.0) <= 1e-5


def test_extension_unknown_route():
    # on the trace too, where the extension is the trace for either route
    idx = ProblemIndex(3, 0.5)
    for xN in (1.0, 0.0):
        with pytest.raises(DomainError):
            bubble.extension(idx, BubbleParams(), _pt(np.zeros(3), xN), route="nope")


@pytest.mark.parametrize(
    "call",
    [
        lambda idx, xbar: bubble.trace_bubble(idx, BubbleParams(), xbar),
        lambda idx, xbar: bubble.extension(idx, BubbleParams(), _pt(xbar, 0.3)),
        lambda idx, xbar: bubble.neumann_trace(idx, BubbleParams(), xbar),
        lambda idx, xbar: bubble.jacobi_field(idx, 1, _pt(xbar, 0.3)),
    ],
    ids=["trace_bubble", "extension", "neumann_trace", "jacobi_field"],
)
def test_wrong_length_xbar_raises(call):
    # a length-1 xbar used to broadcast against sigma and stand for |xbar| = 1
    idx = ProblemIndex(4, 0.3)
    for xbar in ([0.5], np.zeros(5), np.zeros((1, 4))):
        with pytest.raises(DomainError):
            call(idx, xbar)


def test_non_finite_point_inputs_raise():
    # NaN or inf in lambda, sigma or xbar raises DomainError, not a NaN
    # value (or 0.0 from trace_bubble at lam = inf), an inf / inf warning
    # from jacobi_field (k = 1), or neumann_trace's NumericError that blames
    # the s-rule's largest key
    idx = ProblemIndex(4, 0.3)
    nan_x, inf_x = np.array([np.nan, 0.0, 0.0, 0.0]), np.array([np.inf, 0.0, 0.0, 0.0])
    for bad in ({"lam": np.nan}, {"lam": np.inf}, {"sigma": nan_x}):
        with pytest.raises(DomainError):
            BubbleParams(**bad)
    calls = [
        lambda: bubble.trace_bubble(idx, BubbleParams(), nan_x),
        lambda: bubble.extension(idx, BubbleParams(), _pt(nan_x, 0.0)),
        lambda: bubble.jacobi_field(idx, 0, _pt(nan_x, 0.0)),
        lambda: bubble.jacobi_field(idx, 1, _pt(inf_x, 0.0)),
        lambda: bubble.neumann_trace(idx, BubbleParams(), nan_x),
    ]
    for call in calls:
        with pytest.raises(DomainError):
            call()


def test_poisson_route_gamma_half_sweep():
    # at gamma = 1/2 the Poisson route against the closed form, from the
    # spike near the trace (z = 1e-3) out to r = 1000
    for n in (2, 3, 6, 12):
        idx = ProblemIndex(n, 0.5)
        for r in (0.0, 1.0, 5.0, 20.0, 80.0, 300.0, 1000.0):
            xbar = np.zeros(n)
            xbar[0] = r
            for z in (1e-3, 1e-2, 0.5, 3.0, 50.0):
                got = bubble.extension(idx, BubbleParams(), _pt(xbar, z), route="poisson_kernel")
                want = float(bubble.extension_gamma_half(idx, r, z))
                assert abs(got / want - 1.0) <= 1e-11, (n, r, z)


@pytest.mark.parametrize("gamma", [0.1, 0.3, 0.45])
def test_poisson_route_n1_against_line_quadrature(gamma):
    # at n = 1 the sphere of directions is two points: the route against
    # adaptive quadrature of the convolution over the whole line, split at
    # the kernel's peak and the trace's scale
    from scipy import integrate

    idx = ProblemIndex(1, gamma)
    c = bubble.poisson_constant(idx)
    e = -(1.0 + 2.0 * gamma) / 2.0
    for r in (0.0, 0.7, 3.0, 40.0):
        for z in (1e-2, 0.3, 2.0, 30.0):

            def f(y):
                return bubble._trace_radial(idx, abs(y)) * ((r - y) ** 2 + z * z) ** e

            cuts = sorted({-1.0, 0.0, 1.0, r - z, r, r + z})
            pieces = [(-np.inf, cuts[0]), *zip(cuts[:-1], cuts[1:]), (cuts[-1], np.inf)]
            val = sum(
                integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                for a, b in pieces
            )
            got = bubble.extension(idx, BubbleParams(), _pt([r], z), route="poisson_kernel")
            assert got == pytest.approx(c * z ** (2.0 * gamma) * val, rel=1e-10), (r, z)


def test_gamma_half_closed_form():
    # at gamma = 1/2 the extension is the trace formula with lam -> lam + z
    idx = ProblemIndex(3, 0.5)
    p = BubbleParams()
    for rho, z in [(0.0, 0.2), (1.3, 0.7), (3.0, 2.0)]:
        xbar = np.zeros(3)
        xbar[0] = rho
        got = bubble.extension(idx, p, _pt(xbar, z))
        want = bubble.extension_gamma_half(idx, rho, z)
        assert got == pytest.approx(float(want), rel=1e-9)


def test_gamma_half_closed_form_scales_with_lam():
    # W_lam(r, z) = lam^(-m/2) W(r/lam, z/lam), and the Fourier-Bessel route
    # at BubbleParams(lam) agrees
    for n in (2, 3, 6):
        idx = ProblemIndex(n, 0.5)
        r, z = np.array([0.0, 0.4, 2.5]), np.array([0.0, 0.3, 1.7])
        for lam in (0.3, 2.5):
            got = bubble.extension_gamma_half(idx, r, z, lam=lam)
            want = lam ** (-idx.m / 2.0) * bubble.extension_gamma_half(idx, r / lam, z / lam)
            assert np.allclose(got, want, rtol=1e-14, atol=0.0), (n, lam)
            xbar = np.zeros(n)
            xbar[0] = r[1]
            fb = bubble.extension(idx, BubbleParams(lam=lam), _pt(xbar, z[1]))
            assert fb == pytest.approx(got[1], rel=1e-9), (n, lam)


def test_scaling_covariance():
    # W_{lam,0}(x) = lam^(-m/2) W_{1,0}(x / lam)
    idx = ProblemIndex(4, 0.3)
    lam = 1.7
    xbar = np.array([0.9, 0.0, 0.0, 0.0])
    z = 0.6
    a = bubble.extension(idx, BubbleParams(lam=lam), _pt(xbar, z))
    b = lam ** (-idx.m / 2.0) * bubble.extension(
        idx, BubbleParams(), _pt(xbar / lam, z / lam)
    )
    assert a == pytest.approx(b, rel=1e-9)


def test_radial_profiles_consistency():
    # the tensor-grid evaluator agrees with pointwise extension calls
    idx = ProblemIndex(5, 0.7)
    p = BubbleParams()
    r = np.array([0.4, 1.1])
    z = np.array([0.3, 0.9])
    W = bubble.radial_profiles(idx, r, z)["W"]
    for i, ri in enumerate(r):
        for j, zj in enumerate(z):
            xbar = np.zeros(5)
            xbar[0] = ri
            assert W[i, j] == pytest.approx(
                bubble.extension(idx, p, _pt(xbar, zj)), rel=1e-10
            )


def test_radial_profiles_derivatives():
    idx = ProblemIndex(4, 0.3)
    r = np.array([0.8])
    z = np.array([0.6])
    f = bubble.radial_profiles(idx, r, z, ("W", "Wr_over_r", "Wz", "lap_tan"))
    h = 1e-5
    Wc = lambda rr, zz: bubble.radial_profiles(
        idx, np.array([rr]), np.array([zz])
    )["W"][0, 0]
    fd_r = (Wc(0.8 + h, 0.6) - Wc(0.8 - h, 0.6)) / (2 * h)
    fd_z = (Wc(0.8, 0.6 + h) - Wc(0.8, 0.6 - h)) / (2 * h)
    assert f["Wr_over_r"][0, 0] * 0.8 == pytest.approx(fd_r, rel=1e-6)
    assert f["Wz"][0, 0] == pytest.approx(fd_z, rel=1e-6)
    # tangential laplacian = W_rr + (n-1)/r W_r
    fd_rr = (Wc(0.8 + h, 0.6) - 2 * Wc(0.8, 0.6) + Wc(0.8 - h, 0.6)) / h**2
    want = fd_rr + (idx.n - 1) / 0.8 * fd_r
    assert f["lap_tan"][0, 0] == pytest.approx(want, rel=1e-4)


def test_radial_profiles_wz_requires_positive_height():
    idx = ProblemIndex(4, 0.3)
    with pytest.raises(DomainError):
        bubble.radial_profiles(idx, np.array([1.0]), np.array([0.0, 1.0]), ("Wz",))


def test_extension_decay_envelope():
    # W <= C (1 + |x|)^(-m) along a diagonal ray
    idx = ProblemIndex(4, 0.6)
    p = BubbleParams()
    a = constants(idx).alpha
    for t in (2.0, 5.0, 10.0):
        xbar = np.zeros(4)
        xbar[0] = t
        W = bubble.extension(idx, p, _pt(xbar, t))
        assert 0.0 < W <= 2.0 * a * (1.0 + 2.0 * t**2) ** (-idx.m / 2.0)


def test_neumann_trace_balances_nonlinearity():
    # -kappa lim z^(1-2g) dW/dz equals w^((n+2g)/(n-2g)) on the trace
    idx = ProblemIndex(5, 0.7)
    p = BubbleParams()
    for rho in (0.0, 1.0, 2.5):
        xbar = np.zeros(5)
        xbar[0] = rho
        flux = bubble.neumann_trace(idx, p, xbar)
        w = bubble.trace_bubble(idx, p, xbar)
        assert flux == pytest.approx(w**idx.p_critical, rel=1e-3)


@pytest.mark.parametrize(
    "n,gamma,lam,sigma,bound",
    [
        (4, 0.3, 1.0, None, 1e-13),
        (5, 0.7, 1.0, None, 1e-13),
        (4, 0.95, 1.0, None, 1e-13),
        (3, 0.5, 1.0, None, 1e-13),
        (10, 0.9, 1.0, None, 2e-10),
        (5, 0.7, 2.0, [1.0, -0.5, 0.0, 0.0, 0.25], 1.3e-15),
    ],
)
def test_neumann_trace_is_the_fractional_symbol_sum(n, gamma, lam, sigma, bound):
    # sum kw s^(2g) e_nu(s r) against w^p: 4.4e-16, 6.4e-15, 1.3e-15,
    # 3.3e-16, 9.8e-11 and 5.6e-16 here; the Richardson quotient it
    # replaced left 8.0e-6, 2.4e-4, 8.4e-4, 1.8e-5, 3.4e-3 and 1.8e-4
    idx = ProblemIndex(n, gamma)
    p = BubbleParams(lam=lam, sigma=None if sigma is None else np.array(sigma))
    for rho in np.linspace(0.0, 3.0, 13):
        xbar = np.zeros(n)
        xbar[0] = rho
        flux = bubble.neumann_trace(idx, p, xbar)
        w = bubble.trace_bubble(idx, p, xbar)
        assert abs(flux / w**idx.p_critical - 1.0) <= bound, rho


@pytest.mark.parametrize(
    "rho,bound",
    [(10.0, 2e-7), (15.0, 3e-6), (15.5, None), (20.0, None), (30.0, None)],
)
def test_neumann_trace_raises_where_its_sum_cancels(rho, bound):
    # at (12, 0.95) |sum| / sum |terms| falls with r: 3.4e-7 at r = 10 and
    # 1.2e-8 at 15 (errors 1.1e-7 and 2.3e-6 against w^p), then below 1e-8:
    # 9.0e-9 at 15.5, 1.1e-9 at 20 and 3.6e-11 at 30, where the sum erred by
    # 3.0e-6, 7.4e-6 and 3.9e-4
    idx = ProblemIndex(12, 0.95)
    p = BubbleParams()
    xbar = np.zeros(12)
    xbar[0] = rho
    if bound is None:
        with pytest.raises(NumericError, match="cancels"):
            bubble.neumann_trace(idx, p, xbar)
        return
    flux = bubble.neumann_trace(idx, p, xbar)
    w = bubble.trace_bubble(idx, p, xbar)
    assert abs(flux / w**idx.p_critical - 1.0) <= bound


@pytest.mark.parametrize(
    "n,rho,err", [(12, 0.0, 1.1e-9), (16, 0.0, 1.6e-7), (24, 0.0, 1.9e-4), (24, 0.5, 5.9e-10)]
)
def test_neumann_trace_floor_at_small_r_and_large_n(n, rho, err):
    # the floor that neumann_trace's docstring states: at g = 1/2 against
    # w^p, with no raise, its error is the documented value to 10 %
    idx = ProblemIndex(n, 0.5)
    xbar = np.zeros(n)
    xbar[0] = rho
    flux = bubble.neumann_trace(idx, BubbleParams(), xbar)
    w = bubble.trace_bubble(idx, BubbleParams(), xbar)
    assert abs(flux / w**idx.p_critical - 1.0) == pytest.approx(err, rel=0.1)


@pytest.mark.parametrize("n,gamma,bound", [(4, 0.3, 1.1e-10), (3, 0.05, 5e-14), (5, 0.5, 1e-7)])
def test_extension_flux_meets_the_neumann_trace(n, gamma, bound):
    # the extension's own Neumann data: -kappa z^(1-2g) Wz at z = 1e-8 is
    # the flux up to its O(z^(2-2g)) correction (5.5e-11, 2.3e-14 and
    # 5.0e-8 here)
    idx = ProblemIndex(n, gamma)
    r, z = np.array([0.0, 1.0, 2.5]), 1e-8
    Wz = bubble.paired_profiles(idx, r, np.full(r.size, z), ("Wz",))["Wz"]
    got = -constants(idx).kappa * z ** (1.0 - 2.0 * gamma) * Wz
    for rho, g in zip(r, got):
        xbar = np.zeros(n)
        xbar[0] = rho
        assert abs(g / bubble.neumann_trace(idx, BubbleParams(), xbar) - 1.0) <= bound, rho


@pytest.mark.parametrize("n,gamma", [(3, 0.5), (4, 0.3), (5, 0.7)])
def test_poisson_constant_normalization(n, gamma):
    # the kernel c * z^(2g) / (|x|^2 + z^2)^((n+2g)/2) must have unit mass,
    # so that constants extend to constants; checked by direct quadrature
    idx = ProblemIndex(n, gamma)
    c = bubble.poisson_constant(idx)
    from scipy import integrate

    from fyk.specfun import sphere_area

    val, _ = integrate.quad(
        lambda s: s ** (n - 1) * (1.0 + s**2) ** (-(n + 2 * gamma) / 2.0),
        0.0,
        np.inf,
    )
    assert c * sphere_area(n) * val == pytest.approx(1.0, rel=1e-10)


_FD_DELTA = 1e-4


def _jacobi_fd(idx, k, x):
    """Z^0 = -dW/dlam and Z^k = dW/dsigma_k at (1, 0) by central differences
    of the Fourier-Bessel extension: the oracle for ``jacobi_field``."""
    if k == 0:
        wp = bubble.extension(idx, BubbleParams(lam=1.0 + _FD_DELTA), x)
        wm = bubble.extension(idx, BubbleParams(lam=1.0 - _FD_DELTA), x)
        return -(wp - wm) / (2.0 * _FD_DELTA)
    e = np.zeros(idx.n)
    e[k - 1] = _FD_DELTA
    wp = bubble.extension(idx, BubbleParams(sigma=e), x)
    wm = bubble.extension(idx, BubbleParams(sigma=-e), x)
    return (wp - wm) / (2.0 * _FD_DELTA)


def test_jacobi_field_dilation_identity():
    # Z^0 = r W_r + z W_z + (m/2) W, on the tensor grid and at paired points,
    # against central differences; on the trace (z = 0) the closed form
    idx = ProblemIndex(4, 0.3)
    r = np.array([0.7, 1.6])
    z = np.array([0.4, 1.2])
    via_identity = bubble.jacobi_field_radial(idx, r, z)
    for i, ri in enumerate(r):
        xbar = np.zeros(4)
        xbar[0] = ri
        for j, zj in enumerate(z):
            got = bubble.jacobi_field(idx, 0, _pt(xbar, zj))
            assert via_identity[i, j] == pytest.approx(got, rel=1e-5)
            assert got == pytest.approx(_jacobi_fd(idx, 0, _pt(xbar, zj)), rel=1e-6)
        got = bubble.jacobi_field(idx, 0, _pt(xbar, 0.0))
        assert got == pytest.approx(_jacobi_fd(idx, 0, _pt(xbar, 0.0)), rel=1e-6)


def test_jacobi_field_translation_symmetry():
    # Z^k vanishes on the symmetry axis orthogonal to e_k
    idx = ProblemIndex(3, 0.5)
    x = _pt(np.array([0.0, 1.0, 0.0]), 0.5)
    z1 = bubble.jacobi_field(idx, 1, x)
    assert z1 == 0.0
    with pytest.raises(DomainError):
        bubble.jacobi_field(idx, 4, x)
    # off the axis, against central differences, above and on the trace
    for xN in (0.5, 0.0):
        x = _pt(np.array([0.3, -0.8, 0.5]), xN)
        for k in (1, 2, 3):
            want = _jacobi_fd(idx, k, x)
            assert bubble.jacobi_field(idx, k, x) == pytest.approx(want, rel=1e-6), (xN, k)


# -- the Fourier-Bessel kernel pair -------------------------------------------


def _e_jv(mu, u):
    """Gamma(mu+1) (u/2)^(-mu) J_mu(u) from SciPy's general-order jv, and
    below u = 1 SciPy's hyp0f1, e_mu(u) = 0F1(; mu + 1; -u^2/4): the oracle
    for the kernel.  There the jv form errs by up to 2.6e-14 at orders up
    to 12.5 against 30-digit values, hyp0f1 by 1.8e-15."""
    u = np.asarray(u, dtype=float)
    small = u < 1.0
    us = np.where(small, 1.0, u)
    out = math.gamma(mu + 1.0) * (us / 2.0) ** (-mu) * special.jv(mu, us)
    return np.where(small, special.hyp0f1(mu + 1.0, -0.25 * u * u), out)


_JV_GRID = np.linspace(0.0, 3000.0, 600001)


@lru_cache(maxsize=4)
def _e_jv_grid(mu):
    # the oracle on the shared grid, by order: the order nu + 1 of n is the
    # order nu of n + 2, so in the cases' order each order is computed once
    return _e_jv(mu, _JV_GRID)


@pytest.mark.parametrize("n", range(2, 25))
def test_kernel_pair_matches_jv_formula(n):
    nu = n / 2.0 - 1.0
    edges = [0.0, 1e-9, 1e-7 * (1.0 - 1e-9), 1e-7, 1e-7 * (1.0 + 1e-9)]
    edges += [nu + 1.0 - 1e-9, nu + 1.0, nu + 1.0 + 1e-9]
    # each value depends on its own u alone, so the edges take one call of
    # their own
    for u, oracle in [(np.array(edges), lambda mu: _e_jv(mu, edges)), (_JV_GRID, _e_jv_grid)]:
        e0, e1 = bubble._e_pair(nu, u)
        assert np.abs(e0 - oracle(nu)).max() <= 1e-14
        assert np.abs(e1 - oracle(nu + 1.0)).max() <= 1e-14


def test_kernel_pair_never_calls_jv(monkeypatch):
    # the recurrence covers u > nu + 1 and the power series the rest; a
    # SciPy Bessel call anywhere in the kernel would raise here
    def refuse(*args):
        raise AssertionError("scipy.special called")

    for name in ("jv", "hyp0f1", "gamma"):
        monkeypatch.setattr(special, name, refuse)
    u = np.concatenate([[0.0, 1e-300, 1e-9], np.linspace(0.0, 40.0, 4001)])
    for nu in (-0.5, 0.0, 0.5, 3.0, 4.5, 11.0):
        e0, e1 = bubble._e_pair(nu, u)
        assert e0[0] == 1.0 and e1[0] == 1.0


@pytest.mark.parametrize(
    "nu,u",
    [(0.0, 2.5), (0.5, 7.3), (1.0, 50.0), (2.5, 3.4), (4.0, 1234.5), (5.0, 6.0000001)],
)
def test_kernel_pair_against_mpmath(nu, u):
    mpmath = pytest.importorskip("mpmath")
    e0, e1 = bubble._e_pair(nu, np.array([u]))
    with mpmath.workdps(30):
        for mu, got in ((nu, e0[0]), (nu + 1.0, e1[0])):
            m, x = mpmath.mpf(mu), mpmath.mpf(u)
            want = mpmath.gamma(m + 1) * (x / 2) ** (-m) * mpmath.besselj(m, x)
            assert abs(got - float(want)) <= 1e-14


@pytest.mark.parametrize("n", range(2, 25))
def test_kernel_series_against_mpmath(n):
    # the power series serves u <= nu + 1; at its upper end its terms
    # cancel most, and the recurrence takes over just above it
    mpmath = pytest.importorskip("mpmath")
    nu = n / 2.0 - 1.0
    u = np.array([nu + 1.0 - 1e-9, nu + 1.0])
    e0, e1 = bubble._e_pair(nu, u)
    with mpmath.workdps(30):
        for mu, got in ((nu, e0), (nu + 1.0, e1)):
            for x, g in zip(u, got):
                m, x = mpmath.mpf(mu), mpmath.mpf(x)
                want = mpmath.gamma(m + 1) * (x / 2) ** (-m) * mpmath.besselj(m, x)
                assert abs(g - float(want)) <= 1e-15, (mu, x)


def test_extension_large_r_agreement():
    # the fourier route against the poisson kernel away from the axis; the
    # adaptive quadrature the poisson route once used lost 3e-2 at r = 300
    idx = ProblemIndex(4, 0.3)
    p = BubbleParams()
    for rho in (5.0, 20.0, 80.0, 300.0):
        x = _pt([rho, 0.0, 0.0, 0.0], 0.5)
        a = bubble.extension(idx, p, x, route="fourier_bessel")
        b = bubble.extension(idx, p, x, route="poisson_kernel")
        assert abs(a / b - 1.0) <= 1e-7


def test_far_points_beyond_the_s_rule_raise():
    # the s-rule is keyed on r; at z = 4000 its first node sits at s z = 0.12,
    # just past the reach, and further out the s ~ 1/z where the integrand
    # lives is missed: at z = 1e4 the sums come back 1.4e-5 off at (3, 1/2)
    idx = ProblemIndex(3, 0.5)
    far = np.array([4000.0])
    with pytest.raises(NumericError):
        bubble.radial_profiles(idx, np.zeros(1), far)
    with pytest.raises(NumericError):
        bubble.paired_profiles(idx, np.zeros(1), far)
    with pytest.raises(NumericError):
        bubble.extension(idx, BubbleParams(), _pt(np.zeros(3), 4000.0))
    # within the reach the closed form holds to 1e-8, n = 3..12
    for n in (3, 5, 9, 12):
        idx = ProblemIndex(n, 0.5)
        first = bubble._s_nodes(bubble._rmax_key(1.0))[0][0]
        z = np.linspace(0.5, 1.0, 6) * bubble._SZ_MAX / first
        got = bubble.paired_profiles(idx, np.zeros(z.size), z)["W"]
        assert np.abs(got / bubble.extension_gamma_half(idx, 0.0, z) - 1.0).max() <= 1e-8
        with pytest.raises(NumericError):
            bubble.paired_profiles(idx, np.zeros(1), np.array([1.01 * z[-1]]))


def test_s_rule_keys_are_bounded(monkeypatch):
    # the rule's node count grows with its key, 368720 nodes at the largest:
    # a one-point paired_profiles at r = 1e4 once took 2.7 s on 1.47M nodes,
    # and at r = 1e300 the rule's panels never ended.  Past the largest key
    # every s-sum raises before it builds a node
    assert bubble._rmax_key(bubble._S_KEY_MAX) == bubble._S_KEY_MAX
    for r in (np.nextafter(bubble._S_KEY_MAX, math.inf), 1e300, math.inf, math.nan):
        with pytest.raises(NumericError, match="largest key"):
            bubble._rmax_key(r)

    def refuse(key):
        raise AssertionError(f"an s-rule was built at the key {key}")

    monkeypatch.setattr(bubble, "_s_nodes", refuse)
    # the point evaluators take r = |xbar| / lam = 1e300, with |xbar|^2
    # inside the float range
    idx = ProblemIndex(4, 0.3)
    far, xbar, p = np.array([1e300]), np.array([1e150, 0.0, 0.0, 0.0]), BubbleParams(lam=1e-150)
    calls = [
        lambda: bubble.paired_profiles(idx, far, np.ones(1)),
        lambda: bubble.radial_profiles(idx, far, np.ones(1)),
        lambda: bubble.neumann_trace(idx, p, xbar),
        lambda: bubble.extension(idx, p, _pt(xbar, 1e-150)),
    ]
    for call in calls:
        with pytest.raises(NumericError, match="largest key"):
            call()


def test_s_rule_keys_are_quarter_octaves():
    # a key is rmax rounded up to 2^(k/4): at most 2^(1/4) = 1.19 times
    # the nodes rmax needs (a power-of-two key could take twice them), and
    # every rmax <= 8 shares the key 8, whose rule does not move
    rng = np.random.default_rng(3)
    for r in np.exp(rng.uniform(math.log(8.0), math.log(bubble._S_KEY_MAX), 2000)):
        key = bubble._rmax_key(r)
        assert r <= key < 2.0**0.25 * r, r
    # at each key and its float neighbours, the key one quarter octave below
    # is less than rmax, and the key is not
    for k in range(13, 49):
        edge = 2.0 ** (k / 4.0)
        for r in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf)):
            if r > bubble._S_KEY_MAX:
                continue
            key = bubble._rmax_key(r)
            j = round(4.0 * math.log2(key))
            assert key == 2.0 ** (j / 4.0) and 2.0 ** ((j - 1) / 4.0) < r <= key, (k, r)
    assert bubble._rmax_key(8.0) == 8.0
    assert bubble._rmax_key(bubble._S_KEY_MAX) == bubble._S_KEY_MAX
    assert {bubble._rmax_key(r) for r in (0.0, 1e-300, 1.0, np.nextafter(8.0, 0.0))} == {8.0}
    # the linearized solve's box 20 takes 2120 nodes; its power-of-two key,
    # 32, took 2960
    assert bubble._s_nodes(bubble._rmax_key(20.0))[0].size == 2120
    assert bubble._s_nodes(32.0)[0].size == 2960


@pytest.mark.parametrize("n", [2, 3, 4, 6, 12])
def test_quarter_octave_rule_holds_the_gamma_half_closed_form(n):
    # the linearized solve's default grid at box 20 with its far face,
    # 161 x 161 points out to r = 20 on the key 2^4.5 = 22.6: within the
    # closed-form tests' 1e-9 (largest 4.5e-10, at n = 12)
    idx = ProblemIndex(n, 0.5)
    grid = solver.WeightedGrid(20.0, 20.0, 160, 160)
    r, z = np.append(grid.r, grid.r_max), grid.z
    assert bubble._rmax_key(r.max()) == 2.0**4.5
    got = bubble.radial_profiles(idx, r, z)["W"]
    want = bubble.extension_gamma_half(idx, r[:, None], z[None, :])
    assert np.abs(got / want - 1.0).max() <= 1e-9


def test_radial_profiles_stop_at_the_last_live_row(monkeypatch):
    # the top row of the extension solve's 128-cell grid: 193 of the rule's
    # 830 s-rows are live at z = 6, inside the first block of 512 rows,
    # which evaluates kernels on those rows alone
    idx = ProblemIndex(4, 0.3)
    grid = solver.WeightedGrid(6.0, 6.0, 128, 128)
    r, z = grid.r, np.array([grid.z_max])
    s, kw = bubble._s_rule(idx.n, idx.gamma, bubble._rmax_key(r.max()))
    live = bubble._live_counts(idx, s, kw, s, z).max()
    assert live == 193 and bubble._KERNEL_BLOCK // r.size == 512
    rows = []
    e_pair = bubble._e_pair

    def spy(nu, u):
        rows.append(np.shape(u)[0])
        return e_pair(nu, u)

    monkeypatch.setattr(bubble, "_e_pair", spy)
    bubble.radial_profiles(idx, r, z)
    assert rows == [live]


def test_point_inputs_past_the_range_of_their_squares():
    # |xbar| = 1e300 once overflowed in the norm's dot product, a
    # RuntimeWarning that the suite's filter makes an error; with warnings
    # ignored the trace form of Z^0 was inf/inf = NaN from |xbar| = 1e160 on
    idx = ProblemIndex(4, 0.3)
    p, xbar = BubbleParams(), np.array([1e300, 0.0, 0.0, 0.0])
    for call in (
        lambda: bubble.neumann_trace(idx, p, xbar),
        lambda: bubble.extension(idx, p, _pt(xbar, 0.5)),
        lambda: bubble.jacobi_field(idx, 0, _pt(xbar, 0.5)),
    ):
        with pytest.raises(NumericError, match="largest key"):
            call()
    values = [
        bubble.trace_bubble(idx, p, xbar),
        bubble.extension(idx, p, _pt(xbar, 0.0)),
        bubble.jacobi_field(idx, 0, _pt(xbar, 0.0)),
        bubble.jacobi_field(idx, 1, _pt(xbar, 0.0)),
        *solver.barrier_values(idx, 1.0, _pt(xbar, 0.5)),
    ]
    assert all(math.isfinite(v) for v in values)
    grid = solver.WeightedGrid(8.0, 8.0, 8, 8)
    pi = solver.SymmetricTensor(np.diag([1.0, -1.0, 0.0, 0.0]), trace_free=True)
    res = solver.LinearizedResult(np.zeros((8, 9)), grid, idx.gamma, pi, 0.5)
    with pytest.raises(DomainError, match="outside the solved box"):
        res.evaluate(xbar, 0.5)
    # where 1 + r^2 overflows it is r^2 to rounding: at m = 1 the trace is
    # alpha / r, and Z^0 and Z^1 tend to -(m/2) w and m w / r
    idx = ProblemIndex(2, 0.5)
    a = constants(idx).alpha
    for r in (1e160, 1e200, 1e300):
        x = _pt([r, 0.0], 0.0)
        w = bubble.trace_bubble(idx, p, x.xbar)
        assert w == pytest.approx(a / r, rel=1e-15)
        assert bubble.jacobi_field(idx, 0, x) == -0.5 * w
        assert bubble.jacobi_field(idx, 1, x) == pytest.approx(w / r, rel=1e-15)


def test_extension_sums_its_point_on_paired_profiles(monkeypatch):
    # the Fourier-Bessel route is one paired_profiles sum at the point,
    # bit for bit, and no tensor-grid call
    idx = ProblemIndex(4, 0.3)
    points = [(0.0, 0.5), (0.7, 1e-3), (2.5, 1.2), (30.0, 0.25), (300.0, 4.0)]
    want = [bubble.paired_profiles(idx, np.array([r]), np.array([z]))["W"][0] for r, z in points]

    def refuse(*args, **kwargs):
        raise AssertionError("extension called radial_profiles")

    monkeypatch.setattr(bubble, "radial_profiles", refuse)
    for (r, z), w in zip(points, want):
        assert bubble.extension(idx, BubbleParams(), _pt([r, 0.0, 0.0, 0.0], z)) == w


def test_reach_check_leaves_the_routes_unchanged(monkeypatch, tmp_path):
    # the direct route (R = 64 and its arcs), the Pohozaev surface fields and
    # the solvers' reference fields stay within the s-rule's reach: their
    # tables are the same with the check as with it switched off
    from fyk import cli

    jobs = [
        ["integrals", "--n", "4", "--gamma", "0.8", "--method", "direct_2d"],
        ["pohozaev", "--n", "4", "--gamma", "0.3"],
        ["solve", "extension", "--n", "4", "--gamma", "0.3"],
        ["solve", "linearized", "--n", "4", "--gamma", "0.3"],
    ]
    tables = {}
    for reach in (bubble._SZ_MAX, math.inf):
        monkeypatch.setattr(bubble, "_SZ_MAX", reach)
        for k, argv in enumerate(jobs):
            out = tmp_path / f"{reach}-{k}"
            assert cli.main(argv + ["--out", str(out)]) in (0, 3)
            for f in sorted(out.iterdir()):
                tables.setdefault((k, f.name), []).append(f.read_bytes())
    assert len(tables) >= len(jobs)
    for key, (checked, unchecked) in tables.items():
        assert checked == unchecked, key


# -- paired and polar evaluation ----------------------------------------------


_FIELDS = ("W", "Wr_over_r", "Wz", "lap_tan")
_ALL_FIELDS = _FIELDS + ("Wrz_over_r",)


def _band(idx):
    """The direct route's polar band: its arcs, the rho-nodes in
    [1/32, 1], and the half-sphere rule's angles d to the trace plane."""
    rho = moments._rho_rule(idx)[0]
    return rho[rho >= bubble._ORIGIN_RADIUS], halfsphere_rule(idx.n, idx.gamma)[0]


@pytest.mark.parametrize("n,gamma", [(7, 0.25), (4, 0.8), (5, 0.7), (4, 0.3)])
def test_polar_profiles_match_tensor_diagonal(n, gamma):
    # the direct route's band: one radius-scaled s-rule against the tensor
    # grid on each arc, whose rule is keyed on that arc's largest r, which
    # rounds up to 1 as the band's outer arc does.  The two rules differ at
    # the Fourier-Bessel accuracy floor, largest for W on the inner arc,
    # whose scaled rule starts 30 times further out: 8.3e-10 relative at
    # (4, 0.8), 1.6e-12 at (4, 0.3), at most 2.5e-12 elsewhere
    idx = ProblemIndex(n, gamma)
    arcs, d = _band(idx)
    got = bubble.polar_profiles(idx, arcs, d=d, fields=_FIELDS)
    for a, rho in enumerate(arcs):
        want = bubble.radial_profiles(idx, rho * np.cos(d), rho * np.sin(d), _FIELDS)
        for k in _FIELDS:
            assert got[k].shape == (arcs.size, d.size)
            w = np.diagonal(want[k])
            assert np.all(np.abs(got[k][a] - w) <= 2e-9 * np.abs(w)), (rho, k)


@pytest.mark.parametrize("n,gamma", [(4, 0.3), (5, 0.7), (7, 0.25)])
def test_polar_profiles_resolve_each_arc_or_raise(n, gamma):
    # with the outer arc at rho = 1 the band's rule is scaled by 1/rho on an
    # inner band arc, at most 32 times, where its first node sits at 9.8e-4:
    # the band arcs hold within 2.8e-12 of paired_profiles, and the arcs
    # inside 1/32 take the origin expansion and hold down to rho = 1e-8
    idx = ProblemIndex(n, gamma)
    d = np.linspace(0.5 * math.pi - 1.5, 0.5 * math.pi, 13)
    for rho in np.logspace(-8.0, 0.0, 33):
        got = bubble.polar_profiles(idx, np.array([rho, 1.0]), d=d, fields=_FIELDS)
        want = bubble.paired_profiles(idx, rho * np.cos(d), rho * np.sin(d), _FIELDS)
        for k in _FIELDS:
            assert np.abs(got[k][0] - want[k]).max() <= 1e-9 * np.abs(want[k]).max(), (rho, k)
    # an arc past the unit half-ball raises, alone and next to arcs inside
    # it: the radius-keyed rule it once took left W 6 times off at (24, 1/2),
    # rho = 80, and its Kelvin image lies inside
    for rho in (np.nextafter(1.0, 2.0), 8.0, 80.0, 4000.0):
        for arcs in ([rho], [0.01, rho], [0.5, rho]):
            with pytest.raises(DomainError, match="rho <= 1"):
                bubble.polar_profiles(idx, np.array(arcs), d=d)


@pytest.mark.parametrize(
    "n,gamma,bound",
    [(3, 0.75, 1e-7), (3, 0.95, 2e-6), (2, 0.3, 1e-6), (4, 0.8, 1e-11), (4, 0.95, 1e-10)],
)
def test_fourier_bessel_floor_against_the_poisson_route(n, gamma, bound):
    # the s^(n-1-2g) factor of the s-integrand is least smooth at small
    # n - 1 - 2g; the s-rule's start, graded toward s = 0, resolves it to
    # 6.5e-8, 1.1e-6, 4.8e-7, 6.4e-12 and 3.3e-11 here (a first panel 64
    # times wider left 3.3e-5, 1.1e-4, 1.6e-4, 1.4e-7 and 2.1e-7)
    idx = ProblemIndex(n, gamma)
    r, z = np.linspace(0.0, 3.0, 7), np.linspace(0.1, 2.0, 6)
    fb = bubble.radial_profiles(idx, r, z)["W"]
    po = np.array([[bubble._extension_poisson(idx, a, b) for b in z] for a in r])
    assert np.abs(fb / po - 1.0).max() <= bound


def test_paired_profiles_match_tensor_diagonal():
    idx = ProblemIndex(5, 0.7)
    r = np.array([0.0, 0.3, 1.7, 2.5])
    z = np.array([0.2, 1.1, 0.05, 3.0])
    got = bubble.paired_profiles(idx, r, z, _FIELDS)
    want = bubble.radial_profiles(idx, r, z, _FIELDS)
    for k, v in got.items():
        assert v.shape == r.shape
        assert np.abs(v - np.diagonal(want[k])).max() <= 1e-15 * np.abs(want[k]).max()


def test_paired_and_polar_profiles_reject_bad_input():
    # a NaN point would otherwise drop out of the decay cut's bisection
    idx = ProblemIndex(4, 0.3)
    with pytest.raises(DomainError):
        bubble.paired_profiles(idx, np.ones(3), np.ones(2))
    nan, inf = math.nan, math.inf
    for r, z in [(nan, 1.0), (1.0, nan), (inf, 1.0), (1.0, inf), (-1.0, 1.0), (1.0, -1.0)]:
        with pytest.raises(DomainError):
            bubble.paired_profiles(idx, np.array([r]), np.array([z]))
        with pytest.raises(DomainError):
            bubble.radial_profiles(idx, np.array([r]), np.array([z]))
    with pytest.raises(DomainError):
        bubble.radial_profiles(idx, np.ones(2), np.array([1.0, 0.0]), ("Wz",))
    # a bad arc or angle next to a band arc and next to an arc inside 1/32,
    # which takes the origin expansion: one check serves both routes
    for rho, d in [(nan, 0.3), (inf, 0.3), (1.0, nan), (1.0, inf),
                   (1.0, -0.1), (1.0, 0.5 * math.pi + 0.1), (-1.0, 0.3)]:
        for good in (0.5, 0.01):
            with pytest.raises(DomainError):
                bubble.polar_profiles(idx, np.array([good, rho]), d=np.array([0.2, d]))
    with pytest.raises(DomainError):
        bubble.paired_profiles(idx, np.ones(2), np.array([1.0, 0.0]), ("Wz",))
    with pytest.raises(DomainError):
        bubble.polar_profiles(idx, np.array([1.0, 0.0]), d=np.array([0.3]))
    with pytest.raises(DomainError):
        bubble.polar_profiles(idx, np.array([]), d=np.array([0.3]))
    for rho in (1.0, 0.01):
        with pytest.raises(DomainError):
            bubble.polar_profiles(idx, np.array([rho]), d=np.array([0.0]), fields=("Wz",))
    # the angle is keyword-only: a positional polar angle from the z-axis
    # would give the fields at the mirrored angle
    with pytest.raises(TypeError):
        bubble.polar_profiles(idx, np.array([1.0]), np.array([0.3]))


def test_profile_evaluators_reject_unknown_fields():
    # unknown names used to drop out of the output without an error, and a
    # bare string "Wz" asked for both W (a substring) and Wz
    idx = ProblemIndex(4, 0.3)
    pts = np.array([0.5, 1.0])
    calls = [
        lambda f: bubble.radial_profiles(idx, pts, pts, f),
        lambda f: bubble.paired_profiles(idx, pts, pts, f),
        lambda f: bubble.polar_profiles(idx, pts, d=np.array([0.2, 0.7]), fields=f),
    ]
    for call in calls:
        for fields in [("Wzz",), ("W", "Wrr"), ("W_minus_w",), "Wz", "W"]:
            with pytest.raises(DomainError):
                call(fields)
        assert tuple(call(["Wz", "W"])) == ("W", "Wz")


# -- the decay cut and the streamed s-sums ------------------------------------


def _uncut_terms(idx, s, kw, r, z, profiles):
    """(coefficient, kernel, profile) of each of the four fields, every term
    evaluated, with the s-nodes on the first axis: kernels at s r and
    profiles at s z for the (s, r) and (s, z) arrays ``r`` and ``z``.
    ``profiles`` maps an array of arguments to (phi, phi')."""
    nu = idx.n / 2.0 - 1.0
    Ev, Ev1 = bubble._e_pair(nu, s[:, None] * r)
    Ph, Php = profiles(s[:, None] * z)
    return {
        "W": (kw, Ev, Ph),
        "Wr_over_r": (-(kw * s**2 / (2.0 * (nu + 1.0))), Ev1, Ph),
        "lap_tan": (-(kw * s**2), Ev, Ph),
        "Wz": (kw * s, Ev, Php),
    }


def _uncut_pair(idx):
    return lambda t: (specfun.profile_phi(idx, t), specfun.profile_phi_prime(idx, t))


def _blocked_uncut_sums(idx, s, kw, r, z):
    """The four fields on the grid r x z summed as ``radial_profiles`` sums
    them, but over every term: the same blocks of s-rows, partial sums of
    isqrt(S) rows each added to the output by one dgemm, and the coefficient
    on the profile side.  Against it the cut shows alone."""
    rows = max(1, bubble._KERNEL_BLOCK // max(r.size, z.size))
    step = math.isqrt(s.size)
    out = {k: np.zeros((r.size, z.size), order="F") for k in _FIELDS}
    for i in range(0, s.size, rows):
        b = slice(i, i + rows)
        for k, (c, K, P) in _uncut_terms(idx, s[b], kw[b], r, z, _uncut_pair(idx)).items():
            for j in range(0, len(K), step):
                Kj, Pj = K[j : j + step], c[j : j + step, None] * P[j : j + step]
                blas.dgemm(1.0, Kj.T, Pj.T, beta=1.0, c=out[k], trans_b=True, overwrite_c=True)
    return out


def _one_gemm_sums_and_scale(idx, s, kw, r, z):
    """The four fields as one GEMM over the decay cut's terms, with the
    coefficient on the kernel side and the s-terms summed one by one, and
    the scale sum |terms| of each field's rounding."""
    counts = bubble._live_counts(idx, s, kw, s, z)
    dead = np.arange(s.size)[:, None] >= counts

    def cut(t):
        return tuple(np.where(dead, 0.0, p) for p in _uncut_pair(idx)(t))

    sums, scale = {}, {}
    for k, (c, K, P) in _uncut_terms(idx, s, kw, r, z, cut).items():
        sums[k] = (K * c[:, None]).T @ P
        scale[k] = (np.abs(K) * np.abs(c)[:, None]).T @ np.abs(P)
    return sums, scale


def _rounding_floor(s, scale):
    """Two orders of one s-sum of products differ by at most
    2 gamma_(S+1) sum |terms| ~ (S + 1) eps sum |terms|: each term takes at
    most two product roundings and S - 1 additions in any order (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, eq. 4.4)."""
    return (s.size + 1) * np.finfo(float).eps * scale


@pytest.mark.parametrize("n,gamma", [(7, 0.25), (4, 0.8)])
def test_decay_cut_matches_the_uncut_sums(n, gamma, capped_grid_rules):
    # the capped grid (every sixth r and every second z node: 120 x 510
    # points at R = 64, 67 x 350 at R = 32) and the direct route's band of
    # arcs
    idx = ProblemIndex(n, gamma)
    alpha = constants(idx).alpha
    R = 32.0 if n - 2.0 * gamma > 4.0 else 64.0
    r, _, z, _ = capped_grid_rules(idx, R)
    r, z = r[::6], z[::2]
    s, kw = bubble._s_rule(n, gamma, bubble._rmax_key(r.max()))
    got = bubble._tensor_fields(idx, s, kw, r, z, _FIELDS)
    # in the streamed order, every dropped term is below 1e-20 alpha
    want = _blocked_uncut_sums(idx, s, kw, r, z)
    for k in want:
        assert np.abs(got[k] - want[k]).max() <= 1e-15 * alpha, ("core", k)
    # against the one-GEMM sum of the same terms, the order of summation
    # moves a field at its rounding floor only: Wz near z = 0 sums large
    # cancelling terms, so this floor is far above 1e-15 alpha there
    one, scale = _one_gemm_sums_and_scale(idx, s, kw, r, z)
    for k in one:
        assert np.all(np.abs(got[k] - one[k]) <= _rounding_floor(s, scale[k])), ("order", k)
    # the band's arcs, near W = alpha, sit at their rounding floor
    arcs, d = _band(idx)
    got = bubble.polar_profiles(idx, arcs, d=d, fields=_ALL_FIELDS)
    s0 = bubble._s_nodes(bubble._S_KEY_MIN)[0]
    for k, (c, KP) in _arc_terms(idx, arcs, d).items():
        floor = _rounding_floor(s0, np.abs(c) @ np.abs(KP).T)
        assert np.all(np.abs(got[k] - c @ KP.T) <= floor), ("band", k)



def _arc_terms(idx, arcs, d):
    """Per field on the arcs (arcs, d) of ``polar_profiles``, every term of
    its s-sum as (c, K P): the arc-dependent coefficients (len(arcs), S) and
    the shared kernel-profile products (len(d), S), none cut."""
    nu = idx.n / 2.0 - 1.0
    top = arcs.max()
    s0, ws0 = bubble._s_nodes(bubble._S_KEY_MIN)
    scale = (top / arcs)[:, None]
    s = scale * s0
    kw = bubble._what_weights(idx, s, scale * ws0, specfun.profile_what(idx, s))
    uz = np.outer(top * np.sin(d), s0)
    Ev, Ev1 = bubble._e_pair(nu, np.outer(top * np.cos(d), s0))
    Ph, Php = specfun.profile_phi(idx, uz), specfun.profile_phi_prime(idx, uz)
    return {
        "W": (kw, Ev * Ph),
        "Wr_over_r": (-kw * s**2 / (2.0 * (nu + 1.0)), Ev1 * Ph),
        "Wz": (kw * s, Ev * Php),
        "lap_tan": (-kw * s**2, Ev * Ph),
        "Wrz_over_r": (-kw * s**3 / (2.0 * (nu + 1.0)), Ev1 * Php),
    }


def _series_sums(idx, s, kw, r, z):
    """The four fields with phi and phi' from their power series
    (``bubble._profile_series``) in place of the kernel, every term kept,
    for z with s z <= 1/2 at every node."""
    nu = idx.n / 2.0 - 1.0
    c, p = bubble._profile_series(idx.gamma)
    cp, pp = 0.5 * c * p, p - 1.0  # phi' term by term
    half = 0.5 * np.outer(s, z)
    Ph = sum(a * half**e for a, e in zip(c, p))
    Php = sum(a * half**e for a, e in zip(cp, pp))
    Ev, Ev1 = bubble._e_pair(nu, np.outer(s, r))
    coef = {"W": (kw, Ev, Ph), "Wr_over_r": (-kw * s**2 / (2.0 * (nu + 1.0)), Ev1, Ph),
            "lap_tan": (-kw * s**2, Ev, Ph), "Wz": (kw * s, Ev, Php)}
    return {k: (K * c[:, None]).T @ P for k, (c, K, P) in coef.items()}


@pytest.mark.parametrize("gamma", [0.02, 0.05, 0.5, 0.95, 0.98])
@pytest.mark.parametrize("n", [3, 4, 7, 12])
def test_series_columns_match_the_kernel_path(n, gamma):
    # the columns with s z <= 1/2 at every node: the kernel path of
    # radial_profiles, whose corner inside 1/32 it then overwrites, against
    # the same sums with the profiles' power series (the series the origin
    # expansion takes its coefficients from).  Near g = 0 and g = 1 the
    # series' two sums cancel (by a factor of about 50 at t = 1/2); the two
    # stay within the rounding floor of the kernel path's own summation order
    idx = ProblemIndex(n, gamma)
    r = np.concatenate([[0.0], np.geomspace(0.01, 8.0, 15)])
    s, kw = bubble._s_rule(n, gamma, bubble._rmax_key(r.max()))
    z = np.geomspace(1e-12, specfun._T_SERIES / s[-1], 24)
    got = bubble._tensor_fields(idx, s, kw, r, z, _FIELDS)
    want = _series_sums(idx, s, kw, r, z)
    _, scale = _one_gemm_sums_and_scale(idx, s, kw, r, z)
    for k in want:
        assert np.all(np.abs(got[k] - want[k]) <= _rounding_floor(s, scale[k])), k


def test_radial_profiles_peak_memory(capped_grid_rules):
    # the capped (4, 0.8) core grid at R = 64, 720 x 1020 points on 5790
    # s-nodes: streaming the s-rows keeps no S x N array; the four outputs
    # alone take 23.5 MB (one S x N array would take 47 MB, and the
    # evaluation before streaming peaked at 215 MB)
    import tracemalloc

    idx = ProblemIndex(4, 0.8)
    r, _, z, _ = capped_grid_rules(idx, 64.0)
    bubble._s_rule(idx.n, idx.gamma, bubble._rmax_key(r.max()))
    tracemalloc.start()
    try:
        bubble.radial_profiles(idx, r, z, _FIELDS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 86e6


def _small_grid(grid_rules):
    # the capped core grid at R = 8, where the s-rule has about 800 nodes,
    # so that one-row blocks stay cheap; the decay cut is active
    idx = ProblemIndex(5, 0.7)
    r, _, z, _ = grid_rules(idx, 8.0)
    return idx, r[::3], z[::3]


@pytest.mark.parametrize("height", ["one row", "whole grid"])
def test_block_height_moves_only_rounding(monkeypatch, height, capped_grid_rules):
    idx, r, z = _small_grid(capped_grid_rules)
    s, kw = bubble._s_rule(idx.n, idx.gamma, bubble._rmax_key(r.max()))
    default = bubble.radial_profiles(idx, r, z, _FIELDS)
    block = 1 if height == "one row" else s.size * max(r.size, z.size)
    monkeypatch.setattr(bubble, "_KERNEL_BLOCK", block)
    got = bubble.radial_profiles(idx, r, z, _FIELDS)
    _, scale = _one_gemm_sums_and_scale(idx, s, kw, r, z)
    for k in _FIELDS:
        assert np.all(np.abs(got[k] - default[k]) <= _rounding_floor(s, scale[k])), k


def test_field_subsets_match_the_full_request(capped_grid_rules):
    # each output entry is the same chain of roundings whichever fields
    # share its GEMM
    idx, r, z = _small_grid(capped_grid_rules)
    full = bubble.radial_profiles(idx, r, z, _FIELDS)
    for sub in [("W",), ("Wr_over_r", "Wz", "lap_tan"), ("Wz", "W")]:
        got = bubble.radial_profiles(idx, r, z, sub)
        assert tuple(got) == tuple(k for k in full if k in sub)
        for k in sub:
            assert np.array_equal(got[k], full[k]), (sub, k)


def test_shuffled_z_permutes_the_fields(capped_grid_rules):
    # on shuffled z a block of s-rows sums every column up to the last live
    # one, whose dead entries add exact zeros; the output follows the
    # caller's order
    idx, r, z = _small_grid(capped_grid_rules)
    want = bubble.radial_profiles(idx, r, z, _FIELDS)
    perm = np.random.default_rng(7).permutation(z.size)
    got = bubble.radial_profiles(idx, r, z[perm], _FIELDS)
    for k in _FIELDS:
        assert np.array_equal(got[k], want[k][:, perm]), k


# -- the origin expansion -----------------------------------------------------


def _origin_fields_per_point(idx, r, z, fields):
    # the reference oracle: the origin expansion summed at each point (r, z)
    # of arrays of one shape on its own, every power of r^2 and z/2 raised
    # there, where the library forms one product of rho-powers and angular
    # tables
    J = bubble._ORIGIN_TERMS
    j = np.arange(J)
    U = (r * r)[..., None] ** j
    h = (z / 2.0)[..., None]
    out = {}
    for e, coef, M in bubble._origin_tables(idx.n, idx.gamma):
        Z = h**e
        T = coef[:, None] * M[:-1, :J]
        Tr = coef[:, None] * 2.0 * (j + 1.0) * M[:-1, 1:]
        terms = {"W": (Z, T), "Wr_over_r": (Z, Tr), "lap_tan": (Z, -coef[:, None] * M[1:, :J])}
        if any(k in bubble._PRIME_FIELDS for k in fields):
            Zp = Z * (0.5 * e) / h
            terms.update(Wz=(Zp, T), Wrz_over_r=(Zp, Tr))
        for k in fields:
            zk, tk = terms[k]
            out[k] = out.get(k, 0.0) + np.sum((zk @ tk) * U, axis=-1)
    return out


def _polar_points(rho, d):
    return np.outer(rho, np.cos(d)), np.outer(rho, np.sin(d))


def _origin_grid(idx):
    # the direct route's arcs inside the origin radius, and its angles
    rho = moments._rho_rule(idx)[0]
    return rho[rho < bubble._ORIGIN_RADIUS], halfsphere_rule(idx.n, idx.gamma)[0]


@pytest.mark.parametrize(
    "n,gamma", [(3, 0.2), (4, 0.8), (7, 0.25), (5, 0.02), (6, 0.05), (12, 0.7), (24, 0.5), (4, 0.99)]
)
def test_origin_fields_match_the_per_point_sum(n, gamma):
    # polar_profiles on the direct route's own arcs inside 1/32, 227 of them
    # down to rho = 3e-11, by 148-179 angles down to d = 1e-200: within
    # 3e-14 of each field's max, measured 1.6e-14 (Wz and Wrz_over_r at
    # (5, 0.02) and (4, 0.99), where they grow like z^(2g-1) at the trace)
    # and at most 1.4e-15 elsewhere
    idx = ProblemIndex(n, gamma)
    rho, d = _origin_grid(idx)
    got = bubble.polar_profiles(idx, rho, d=d, fields=_ALL_FIELDS)
    want = _origin_fields_per_point(idx, *_polar_points(rho, d), _ALL_FIELDS)
    for k in _ALL_FIELDS:
        assert got[k].shape == (rho.size, d.size), k
        assert np.abs(got[k] - want[k]).max() <= 3e-14 * np.abs(want[k]).max(), k


def test_origin_fields_peak_memory():
    # the direct route's 227 x 159 origin points at (4, 0.8): the five
    # fields take 1.4 MB, the product 2.6 MB at its peak and polar_profiles'
    # outputs 1.4 MB more, 4.1 MB; the per-point sum peaked at 17 MB on its
    # (points, 12) temporaries
    import tracemalloc

    idx = ProblemIndex(4, 0.8)
    rho, d = _origin_grid(idx)
    bubble._origin_tables(idx.n, idx.gamma)
    tracemalloc.start()
    try:
        bubble.polar_profiles(idx, rho, d=d, fields=_ALL_FIELDS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5e6


@pytest.mark.parametrize("n", [2, 3, 4, 6, 12, 16, 20, 24])
def test_origin_fields_match_the_gamma_half_closed_form(n):
    # W = alpha (u^2 + r^2)^(-q), u = 1 + z, q = m/2, and its derivatives,
    # at rho < 1/32 down to the trace and the axis: within 8.0e-15 (n = 20)
    idx = ProblemIndex(n, 0.5)
    rho = np.array([1e-9, 1e-4, 0.01, 0.02, np.nextafter(bubble._ORIGIN_RADIUS, 0.0)])
    d = np.array([1e-12, 0.3, 0.8, 1.2, 0.5 * math.pi])
    got = bubble.polar_profiles(idx, rho, d=d, fields=_ALL_FIELDS)
    want = _gamma_half_fields(idx, *_polar_points(rho, d))
    for k in _ALL_FIELDS:
        assert np.all(np.abs(got[k] / want[k] - 1.0) <= 1e-14), k


def _gamma_half_fields(idx, r, z):
    # W = alpha (u^2 + r^2)^(-q), u = 1 + z, q = m/2, and its derivatives
    alpha, q = constants(idx).alpha, idx.m / 2.0
    u = 1.0 + z
    den = u**2 + r**2
    W = alpha * den ** (-q)
    Wr_over_r = -2.0 * q * W / den
    Wz = u * Wr_over_r
    Wzz = Wr_over_r + 4.0 * q * (q + 1.0) * u * u * W / den**2
    return {
        "W": W,
        "Wr_over_r": Wr_over_r,
        "Wz": Wz,
        "lap_tan": -Wzz,  # W is harmonic at g = 1/2
        "Wrz_over_r": 4.0 * q * (q + 1.0) * u * W / den**2,
    }


@pytest.mark.parametrize("n", [2, 3, 4, 8, 12, 16, 24])
def test_every_evaluator_takes_the_origin_expansion_inside_1_32(n, monkeypatch):
    # paired_profiles, the corner of radial_profiles and polar_profiles,
    # down to rho = 1e-9 and d = 1e-12: within 1e-14 of the closed form,
    # measured at most 7.1e-15 (n = 24).  The s-sums the paired and tensor
    # evaluators took there erred by up to 3.6e-14 (n = 4), 5.4e-11 (n = 8),
    # 1.5e-8 (n = 12), 1.3e-6 (n = 16) and 7.0e-4 (n = 24).  A call whose
    # points all lie inside builds no s-rule
    idx = ProblemIndex(n, 0.5)
    served, origin_fields, s_rule = [], bubble._origin_fields, bubble._s_rule

    def spy(idx, rho, d, names, paired=False):
        served.append((paired, rho.size))
        return origin_fields(idx, rho, d, names, paired)

    def refuse(*key):
        raise AssertionError(f"an s-rule was built for points inside 1/32: {key}")

    monkeypatch.setattr(bubble, "_origin_fields", spy)
    monkeypatch.setattr(bubble, "_s_rule", refuse)
    rho = np.array([1e-9, 1e-4, 0.01, 0.02, np.nextafter(bubble._ORIGIN_RADIUS, 0.0)])
    d = np.array([1e-12, 0.3, 0.8, 1.2, 0.5 * math.pi])
    r, z = _polar_points(rho, d)
    paired = bubble.paired_profiles(idx, r.ravel(), z.ravel(), _ALL_FIELDS)
    polar = bubble.polar_profiles(idx, rho, d=d, fields=_ALL_FIELDS)
    want = _gamma_half_fields(idx, r, z)
    # a tensor grid whose corner holds 5 x 5 of its 6 x 6 entries, the
    # axis and d = 1e-12 (r = 1e-9, z = 1e-21) among them; the corner alone
    # builds no s-rule and gives the grid's values there bit for bit
    rg = np.array([0.0, 1e-9, 1e-4, 0.01, 0.02, 0.1])
    zg = np.array([1e-21, 1e-9, 1e-4, 0.01, 0.02, 0.5])
    alone = bubble.radial_profiles(idx, rg[:5], zg[:5], _ALL_FIELDS)
    monkeypatch.setattr(bubble, "_s_rule", s_rule)
    radial = bubble.radial_profiles(idx, rg, zg, _ALL_FIELDS)
    corner = np.hypot(rg[:, None], zg[None, :]) < bubble._ORIGIN_RADIUS
    want_grid = _gamma_half_fields(idx, rg[:, None], zg[None, :])
    assert served == [(True, r.size), (False, rho.size), (True, corner.sum()), (True, corner.sum())]
    for k in _ALL_FIELDS:
        assert np.all(np.abs(paired[k] / want[k].ravel() - 1.0) <= 1e-14), ("paired", k)
        assert np.all(np.abs(polar[k] / want[k] - 1.0) <= 1e-14), ("polar", k)
        assert np.all(np.abs(radial[k] / want_grid[k] - 1.0)[corner] <= 1e-14), ("radial", k)
        assert np.array_equal(alone[k], radial[k][:5, :5]), ("corner alone", k)


@pytest.mark.parametrize("n,gamma", [(3, 0.2), (4, 0.8), (5, 0.7), (7, 0.25)])
def test_origin_fields_match_paired_profiles(n, gamma):
    # polar_profiles and paired_profiles both take the origin expansion
    # inside 1/32, one as a tensor product and one point by point, at
    # angles found again from (r, z)
    idx = ProblemIndex(n, gamma)
    rho, d = np.array([0.005, 0.02, 0.031]), np.array([0.05, 0.5, 1.0, 1.5])
    got = bubble.polar_profiles(idx, rho, d=d, fields=_ALL_FIELDS)
    r, z = _polar_points(rho, d)
    want = bubble.paired_profiles(idx, r.ravel(), z.ravel(), _ALL_FIELDS)
    assert tuple(got) == tuple(want)
    for k in _ALL_FIELDS:
        assert np.abs(got[k].ravel() - want[k]).max() <= 1e-14 * np.abs(want[k]).max(), k


@pytest.mark.parametrize("n,gamma", [(4, 0.3), (7, 0.25), (3, 0.45), (12, 0.7)])
def test_polar_profiles_route_each_arc_by_its_radius(n, gamma):
    # arcs on both sides of 1/32, in shuffled order: each row is, bit for
    # bit, that arc's row of the call with the arcs of its own side alone
    idx = ProblemIndex(n, gamma)
    inner = np.array([1e-6, 0.004, 0.02, np.nextafter(bubble._ORIGIN_RADIUS, 0.0)])
    band = np.array([bubble._ORIGIN_RADIUS, 0.1, 0.6, 1.0])
    rho = np.concatenate([inner, band])
    perm = np.random.default_rng(3).permutation(rho.size)
    d = halfsphere_rule(n, gamma)[0]
    got = bubble.polar_profiles(idx, rho[perm], d=d, fields=_ALL_FIELDS)
    parts = [bubble.polar_profiles(idx, arcs, d=d, fields=_ALL_FIELDS) for arcs in (inner, band)]
    for k in _ALL_FIELDS:
        assert np.array_equal(got[k], np.concatenate([f[k] for f in parts])[perm]), k
    assert bubble.polar_profiles(idx, rho, d=d, fields=()) == {}


@pytest.mark.parametrize("n,gamma", [(1, 0.3), (1, 0.45), (2, 0.7)])
def test_inner_arcs_hold_below_n_minus_2g_one(n, gamma):
    # where n - 2g < 1 the Fourier-Bessel sums raise, but the origin
    # expansion holds, on arcs, at paired points and at a point of
    # extension's Fourier-Bessel route alike: against the Poisson route
    # within 1e-14, measured 3.3e-16 to 8.9e-16.  A band arc or a paired
    # point at rho = 0.5 at the same index still raises
    idx = ProblemIndex(n, gamma)
    rho, d = np.array([0.005, 0.02, 0.03]), np.array([0.3, 0.8, 1.4])
    r, z = _polar_points(rho, d)
    want = np.vectorize(lambda a, b: bubble._extension_poisson(idx, a, b))(r, z)
    e1 = np.eye(n)[0]
    got = {
        "polar": bubble.polar_profiles(idx, rho, d=d)["W"],
        "paired": bubble.paired_profiles(idx, r.ravel(), z.ravel())["W"].reshape(r.shape),
        "extension": np.vectorize(lambda a, b: bubble.extension(idx, BubbleParams(), _pt(a * e1, b)))(r, z),
    }
    for route, w in got.items():
        assert np.abs(w / want - 1.0).max() <= 1e-14, route
    with pytest.raises(NumericError, match="n - 2 gamma"):
        bubble.polar_profiles(idx, np.append(rho, 0.5), d=d)
    with pytest.raises(NumericError, match="n - 2 gamma"):
        bubble.paired_profiles(idx, np.append(r.ravel(), 0.4), np.append(z.ravel(), 0.3))


@pytest.mark.parametrize(
    "rho,d",
    [([], [0.3]), ([0.0], [0.3]), ([-0.01], [0.3]), ([math.nan], [0.3]), ([math.inf], [0.3]),
     ([[0.01]], [0.3]), ([0.01], [math.nan]), ([0.01], [-0.1]), ([0.01], [1.6])],
)
def test_origin_fields_reject_bad_arcs(rho, d):
    # the arcs inside 1/32 pass polar_profiles' one check too: a nonempty
    # 1-D rho, finite and > 0, and finite angles 0 <= d <= pi/2, alone and
    # next to a good inner arc
    idx = ProblemIndex(4, 0.3)
    with pytest.raises(DomainError):
        bubble.polar_profiles(idx, rho, d=d)
    if np.ndim(rho) == 1 and len(rho):
        with pytest.raises(DomainError):
            bubble.polar_profiles(idx, [0.02] + rho, d=[0.2] + d)


@pytest.mark.parametrize("n,gamma", [(4, 0.3), (5, 0.7), (12, 0.7)])
def test_wrz_over_r_is_the_z_derivative_of_wr_over_r(n, gamma):
    # a central difference of Wr_over_r, step 1e-4 z, against the new field,
    # on both the Fourier-Bessel route and, inside 1/32, the origin route
    idx = ProblemIndex(n, gamma)
    for r, z in [
        (np.array([0.0, 0.4, 1.5, 3.0]), np.array([0.2, 0.7, 0.05, 1.3])),
        (np.array([0.0, 0.01, 0.02]), np.array([0.02, 0.005, 0.01])),
    ]:
        h = 1e-4 * z
        up, down = (bubble.paired_profiles(idx, r, z + e, ("Wr_over_r",))["Wr_over_r"] for e in (h, -h))
        got = bubble.paired_profiles(idx, r, z, ("Wrz_over_r",))["Wrz_over_r"]
        assert np.all(np.abs(got - (up - down) / (2.0 * h)) <= 1e-6 * np.abs(got)), r


@pytest.mark.parametrize("n,gamma", [(1, 0.01), (1, 0.45), (2, 0.55), (2, 0.7)])
def test_fourier_bessel_raises_below_n_minus_2g_one(n, gamma):
    # where n - 2g < 1 the s-integrand's factor s^(n-1-2g) is singular at
    # s = 0 and the s-rule misses it: against the Poisson route on
    # r in {0, 0.7, 3} and z in {0.1, 0.5, 2} these indices erred by 2.4e-4,
    # 0.33, 1.5e-5 and 1.1e-3.  Every Fourier-Bessel evaluator raises; the
    # Poisson route still takes the index
    idx = ProblemIndex(n, gamma)
    pts = np.array([0.2, 1.0])
    calls = [
        lambda: bubble.radial_profiles(idx, pts, pts),
        lambda: bubble.paired_profiles(idx, pts, pts),
        lambda: bubble.polar_profiles(idx, pts, d=pts),
        lambda: bubble.neumann_trace(idx, BubbleParams(), np.full(n, 0.3)),
        lambda: bubble.extension(idx, BubbleParams(), _pt(np.full(n, 0.3), 0.5)),
    ]
    for call in calls:
        with pytest.raises(NumericError, match="n - 2 gamma"):
            call()
    x = _pt(np.full(n, 0.3), 0.5)
    assert math.isfinite(bubble.extension(idx, BubbleParams(), x, route="poisson_kernel"))


@pytest.mark.parametrize("n,gamma", [(2, 0.45), (3, 0.95), (3, 0.99), (2, 0.5)])
def test_fourier_bessel_holds_at_n_minus_2g_one_and_above(n, gamma):
    # on the other side of the line the route holds within 2.2e-6 of the
    # Poisson route on the same points
    idx = ProblemIndex(n, gamma)
    r, z = np.array([0.0, 0.7, 3.0]), np.array([0.1, 0.5, 2.0])
    fb = bubble.radial_profiles(idx, r, z)["W"]
    po = np.array([[bubble._extension_poisson(idx, a, b) for b in z] for a in r])
    assert np.abs(fb / po - 1.0).max() <= 2.5e-6
