"""Special functions and closed-form constants consumed by every other module.

The profile functions below arise from separating variables in the weighted
half-space problem div(x_N^{1-2g} grad W) = 0: radially, the multiplier on a
frequency-s mode is phi(s*x_N) where phi solves

    phi'' + ((1-2g)/t) phi' - phi = 0,   phi(0) = 1,  phi(inf) = 0,

whose decaying solution is d1 * t^g * K_g(t) with d1 = 2^(1-g)/Gamma(g).
The radial Fourier profile of the standard trace bubble is proportional to
t^(-g) * K_g(t); its overall normalization is a free choice (see
``profile_what``) and is pinned downstream by a single calibration.

All four profiles, and the pair (phi, phi') of ``profile_phi_pair``, rest
on one numpy kernel, ``_k_pair``, that returns K_g and K_(1-g) together at
0 < t <= 690 (past that every profile is exactly 0).  Its two regimes:

* t < _T_SERIES = 0.5: Temme's series (N. M. Temme, J. Comput. Phys. 19,
  1975; Numerical Recipes ``bessik``), which yields K_mu and K_(mu+1) at
  once; with mu = -g (g <= 1/2) or mu = g - 1 (g > 1/2) that pair is
  (K_g, K_(1-g)).  1/Gamma(1 +- mu) and Temme's gam1 come from the Taylor
  series of 1/Gamma(1+x) (A&S 6.1.34), so gam1 stays free of cancellation
  as g -> 0 or 1.  The number of terms is fixed per octave of t.
* t >= 0.5: the trapezoidal rule for e^t K_nu(t) = int_0^inf
  e^(-t (cosh u - 1)) cosh(nu u) du (DLMF 10.32.9), which converges
  exponentially (Trefethen & Weideman, SIAM Rev. 56, 2014).  Each octave
  of t has its own step and node count, chosen so that the discretization
  and truncation errors stay below e^(-_L), _L = 40; one exponential per
  node serves both orders.

``_what_long`` takes t^(-g) K_g(t) from the same rules in long double, with
e^(-45) in place of e^(-_L), at every t: on x86 its values round correctly
but for near-ties.
It serves the weights of ``bubble``'s cached s-rules, which are computed
once per rule.

A point's octave, and so its series length or rule, depends on that point
alone and the arithmetic is element-wise: a value does not depend on the
other points of a call.  Against 30-digit mpmath values at g in {0.02,
0.25, 0.5, 0.7, 0.8, 0.98} and 1e-12 <= t <= 690 the kernel is within
1.1e-15 relative for both orders, where SciPy's ``kv`` errs by up to 7e-14.
``kv`` remains in ``bessel_k``, for general orders, and in the tests as a
reference.

The oscillatory kernels of ``bubble`` start from J_0 and J_1, which
``_j01`` evaluates in numpy from the pinned table ``_j01_table`` (made by
``tools/j01_table.py`` with mpmath):

* u < 8: Chebyshev interpolants of J_0 and J_1 on [0, 4) and [4, 8), 19
  terms each, in the monomial basis of the panel's local variable;
* u >= 8: Hankel's form (DLMF 10.17.3)
  J_nu(u) = sqrt(2/(pi u)) (P_nu(u) cos chi - Q_nu(u) sin chi),
  chi = u - (nu/2 + 1/4) pi, with the non-oscillatory P_nu and u Q_nu
  interpolated in x = (lo/u)^2 on [8, 16), [16, 32) and [32, inf), 12, 8
  and 7 terms.  Both orders share one cos u and one sin u:
  cos chi_0 = (cos u + sin u)/sqrt(2), and chi_1 = chi_0 - pi/2.

Every interpolant is within 3.5e-18 of its function, so the error is the
evaluation's rounding: against 30-digit mpmath on (0, 3000] at most 1.8e-16
absolute for either order, where Cephes ``j0``/``j1`` err by up to 3.6e-15
(their phase at large u).  SciPy's ``gamma`` and ``kv`` serve only the
public ``gamma_fn`` and ``bessel_k``, which import ``scipy.special`` on
their first call, so loading the library loads no SciPy.
"""
from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from ._j01_table import J_PANELS, PQ_PANELS
from .errors import DomainError, NumericError

__all__ = [
    "ProblemIndex",
    "Constants",
    "gamma_fn",
    "bessel_k",
    "profile_phi",
    "profile_phi_prime",
    "profile_phi_pair",
    "profile_what",
    "profile_what_prime",
    "profile_decay_bound",
    "constants",
    "sphere_area",
]


@dataclass(frozen=True)
class ProblemIndex:
    """The pair (n, gamma): boundary dimension and fractional order."""

    n: int
    gamma: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n}")
        if not 0.0 < self.gamma < 1.0:
            raise DomainError(f"gamma must lie in (0,1), got {self.gamma}")
        if self.n <= 2.0 * self.gamma:
            raise DomainError(
                f"need n > 2*gamma for the trace exponent, got ({self.n}, {self.gamma})"
            )

    @property
    def m(self):
        """Decay exponent n - 2*gamma of the trace bubble."""
        return self.n - 2.0 * self.gamma

    @property
    def p_critical(self):
        """Critical trace exponent (n + 2*gamma)/(n - 2*gamma)."""
        return (self.n + 2.0 * self.gamma) / (self.n - 2.0 * self.gamma)

    def require_supercritical(self, what="this operation"):
        """Raise unless n > 2 + 2*gamma (needed for the weighted integrals)."""
        if self.n <= 2.0 + 2.0 * self.gamma:
            raise DomainError(
                f"{what} requires n > 2 + 2*gamma; "
                f"(n, gamma) = ({self.n}, {self.gamma}) violates it"
            )


@dataclass(frozen=True)
class Constants:
    """Closed-form constants attached to a ProblemIndex."""

    alpha: float          # trace-bubble normalization
    kappa: float          # weighted-flux constant of the fractional Neumann map
    green_const: float    # leading constant of the Green's function at the pole
    sphere_area: float    # |S^(n-1)|


def gamma_fn(x):
    """Gamma function on (0, inf); scalar or array."""
    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr)):
        raise DomainError("gamma_fn got NaN")
    if np.any(arr <= 0.0):
        raise DomainError("gamma_fn requires positive arguments")
    if arr.ndim == 0:
        return math.gamma(float(arr))
    from scipy import special  # on first use: the library itself needs no SciPy

    return special.gamma(arr)


def bessel_k(order, t):
    """Modified Bessel function of the second kind K_order(t), t > 0."""
    tt = np.asarray(t, dtype=float)
    if np.any(np.isnan(tt)):
        raise DomainError("bessel_k got NaN")
    if np.any(tt <= 0.0):
        raise DomainError("bessel_k requires t > 0")
    from scipy import special

    out = special.kv(order, tt)
    if tt.ndim == 0:
        return float(out)
    return out


def _d1(g):
    return 2.0 ** (1.0 - g) / math.gamma(g)


# K_nu(t) ~ sqrt(pi/(2t)) e^(-t) underflows near t ~ 700; past this cutoff
# every profile is exactly 0 in floating point and the kernel is not called
_T_UNDERFLOW = 690.0

# points per chunk of a profile evaluation; it bounds the kernel's
# temporaries, about a dozen arrays of one chunk each
_CHUNK = 1 << 16

# -- the kernel (K_g, K_(1-g)) ------------------------------------------------

# Taylor coefficients of 1/Gamma(1+x) about 0 (A&S 6.1.34), to double
# precision; on |x| <= 1/2 the last one is below 1e-22
_RGAMMA_TAYLOR = (
    1.0, 0.5772156649015329, -0.6558780715202539, -0.04200263503409524,
    0.16653861138229148, -0.04219773455554433, -0.009621971527876973,
    0.0072189432466631, -0.0011651675918590652, -0.00021524167411495098,
    0.0001280502823881162, -2.013485478078824e-05, -1.2504934821426706e-06,
    1.133027231981696e-06, -2.056338416977607e-07, 6.116095104481416e-09,
    5.002007644469223e-09, -1.18127457048702e-09, 1.0434267116911005e-10,
    7.782263439905071e-12, -3.696805618642206e-12, 5.100370287454476e-13,
    -2.0583260535665066e-14, -5.348122539423018e-15, 1.2267786282382608e-15,
)

# points t < _T_SERIES (a power of 2) take Temme's series, the others the
# trapezoidal rule
_T_SERIES = 0.5
# the trapezoidal rule's discretization and truncation errors are held to
# e^(-_L) of the integral
_L = 40.0
# ``_what_long``'s rules hold them below long double's epsilon: e^(-45) < 2^-64
_L_LONG = 45.0
# octave bands are frexp exponents: band b holds 2^(b-1) <= t < 2^b; the
# series bands run up to _BAND_RULE - 1, every t below 2^(_BAND_MIN - 1)
# joins the lowest, and the rule bands run from _BAND_RULE to the one that
# holds _T_UNDERFLOW
_BAND_MIN = -64
_BAND_RULE = math.frexp(_T_SERIES)[1]
_BAND_TOP = math.frexp(_T_UNDERFLOW)[1]


def _series_terms(band):
    """Terms of Temme's series for t < 2^band: the first term left out,
    (2/t) (t^2/4)^(n+1) / ((n+1)!)^2 relative to the sum (the factor 2/t
    bounds (2/t)^(2|mu|) in the K_(mu+1) sum), is below 2^-64 at the top of
    the band."""
    t = math.ldexp(1.0, band)
    y = 0.25 * t * t
    n = 1
    while (2.0 / t) * y ** (n + 1) / math.factorial(n + 1) ** 2 >= 2.0**-64:
        n += 1
    return n


# term i of the series runs on the points of the bands from _SERIES_FROM[i - 1]
# up; the term count grows with the band
_SERIES_FROM = tuple(
    next(b for b in range(_BAND_MIN, _BAND_RULE) if _series_terms(b) >= i)
    for i in range(1, _series_terms(_BAND_RULE - 1) + 1)
)


@lru_cache(maxsize=64)
def _temme_constants(g):
    """mu with (K_mu, K_(mu+1)) = (K_g, K_(1-g)) up to order, and Temme's
    scalars: gam1 = (1/Gamma(1-mu) - 1/Gamma(1+mu))/(2 mu), gam2 =
    (1/Gamma(1-mu) + 1/Gamma(1+mu))/2, 1/Gamma(1+mu), 1/Gamma(1-mu) and
    pi mu / sin(pi mu).  gam1 and gam2 are the odd and even parts of the
    Taylor series, so gam1 has no cancellation as mu -> 0."""
    mu = -g if g <= 0.5 else g - 1.0
    m2 = mu * mu
    gam1 = gam2 = 0.0
    for a in reversed(_RGAMMA_TAYLOR[1::2]):
        gam1 = gam1 * m2 + a
    for a in reversed(_RGAMMA_TAYLOR[0::2]):
        gam2 = gam2 * m2 + a
    gam1 = -gam1
    return mu, gam1, gam2, gam2 - mu * gam1, gam2 + mu * gam1, math.pi * mu / math.sin(math.pi * mu)


def _temme(g, t, bounds, k0, k1):
    """Temme's series for K_mu and K_(mu+1) (Numerical Recipes ``bessik``,
    x < 2) at the points ``t`` < _T_SERIES, sorted by band; ``bounds[b -
    _BAND_MIN]`` is where band b starts.  Writes K_g into k0, K_(1-g) into k1.

    (t/2)^(-mu) comes from one power, not from exp(mu log(2/t)), which would
    lose |mu log(t/2)| ulps; sinh(mu log(2/t)) comes from it too where that
    argument is at least 1."""
    mu, gam1, gam2, gampl, gammi, fact = _temme_constants(g)
    x2 = 0.5 * t
    ex = np.power(x2, -mu)
    ie = 1.0 / ex
    e = np.log(x2)
    e *= -mu
    sh = np.where(np.abs(e) < 1.0, np.sinh(e), 0.5 * (ex - ie))
    # f_0 = fact (gam1 cosh(e) + gam2 sinh(e)/mu)
    ff = (ex + ie) * (0.5 * gam1)
    sh *= gam2 / mu
    ff += sh
    ff *= fact
    s0 = ff.copy()
    p = ex
    p *= 0.5 / gampl
    q = ie
    q *= 0.5 / gammi
    s1 = p.copy()
    c = np.ones(t.size)
    y = t * t
    y *= 0.25
    tmp = sh
    for i, band in enumerate(_SERIES_FROM, start=1):
        j = bounds[band - _BAND_MIN]
        if j == t.size:
            break
        F, P, Q, C, T = ff[j:], p[j:], q[j:], c[j:], tmp[j:]
        # f_i = (i f_(i-1) + p_(i-1) + q_(i-1)) / (i^2 - mu^2), c_i = y^i / i!
        F *= i
        F += P
        F += Q
        F *= 1.0 / (i * i - mu * mu)
        C *= y[j:]
        C *= 1.0 / i
        P *= 1.0 / (i - mu)
        Q *= 1.0 / (i + mu)
        np.multiply(C, F, out=T)
        s0[j:] += T
        # the K_(mu+1) term c_i (p_i - i f_i)
        np.multiply(F, -float(i), out=T)
        T += P
        T *= C
        s1[j:] += T
    s1 *= 2.0 / t
    if g <= 0.5:
        k0[:], k1[:] = s0, s1
    else:
        k0[:], k1[:] = s1, s0


def _rule_step(hi, L):
    """The largest trapezoidal step h with hi (1 - cos d) - 2 pi d / h <= -L
    for some strip half-width d <= pi/2: h = 2 pi d / (L + hi (1 - cos d)),
    maximal where L + hi (1 - cos d - d sin d) = 0, or at d = pi/2."""
    G = lambda d: L + hi * (1.0 - math.cos(d) - d * math.sin(d))
    lo, up = 0.0, 0.5 * math.pi
    if G(up) < 0.0:
        for _ in range(100):
            mid = 0.5 * (lo + up)
            lo, up = (mid, up) if G(mid) > 0.0 else (lo, mid)
    return 2.0 * math.pi * up / (L + hi * (1.0 - math.cos(up)))


@lru_cache(maxsize=256)
def _trapezoid_rule(g, band, dtype=float, L=_L):
    """The trapezoidal rule on band 2^(band-1) <= t < 2^band for
    e^t K_nu(t) = int_0^inf e^(-t (cosh u - 1)) cosh(nu u) du (DLMF 10.32.9):
    the exponents -(cosh u_k - 1) and the weights, a row each for nu = g and
    nu = 1 - g, as arrays of ``dtype``, for the error bound e^(-L).

    The integrand is analytic in the strip |Im u| < d, where it grows by at
    most e^(t (1 - cos d)), so the rule's error is about
    e^(t (1 - cos d) - 2 pi d / h) (Trefethen & Weideman, SIAM Rev. 56,
    2014): the step holds it to e^(-L) at the band's top.  The nodes stop at
    the first U with 2^(band-1) (cosh U - 1) - U >= L, past which every
    term, cosh(nu u) <= e^u included, is below e^(-L)."""
    lo, hi = math.ldexp(0.5, band), min(math.ldexp(1.0, band), _T_UNDERFLOW)
    h = _rule_step(hi, L)
    a, b = 0.0, 50.0  # lo (cosh U - 1) - U - L is convex, negative at 0
    for _ in range(100):
        mid = 0.5 * (a + b)
        a, b = (mid, b) if lo * (math.cosh(mid) - 1.0) - mid < L else (a, mid)
    u = h * np.arange(math.ceil(b / h) + 1, dtype=dtype)
    w = h * np.cosh(np.outer(np.array([g, 1.0 - g], dtype), u))
    w[:, 0] *= 0.5
    return -2.0 * np.sinh(0.5 * u) ** 2, w


def _trapezoid(g, t, band, k0, k1):
    """The band's trapezoidal rule at the points ``t``: one exponential per
    node serves both orders.  Writes K_g into k0, K_(1-g) into k1."""
    c, w = _trapezoid_rule(g, band)
    k = np.empty((2, t.size))
    k[:] = w[:, :1]
    x, y = np.empty(t.size), np.empty((2, t.size))
    for j in range(1, c.size):
        np.multiply(t, c[j], out=x)
        np.exp(x, out=x)
        np.multiply(w[:, j : j + 1], x, out=y)
        k += y
    np.negative(t, out=x)
    np.exp(x, out=x)
    np.multiply(k[0], x, out=k0)
    np.multiply(k[1], x, out=k1)


def _what_long(g, t):
    """t^(-g) K_g(t) at the 1-D points 2^-64 <= t <= _T_UNDERFLOW, from the
    trapezoidal rules of ``_trapezoid_rule`` in long double, in every band,
    the series bands too, rounded to float once at the end.

    Where long double carries 64 mantissa bits (x86) the rules' error
    e^(-_L_LONG) is below its epsilon, so the value is the correctly
    rounded one but for near-ties (at the 830 nodes of an s-rule, all equal
    30-digit values rounded at g = 0.05, 0.3 and 0.8, all but one at 0.5),
    where ``_k_pair`` errs by up to 3 eps; where long double is double it
    has ``_k_pair``'s accuracy.  It serves the weights of the cached
    s-rules in ``bubble``: about 3 ms for the 830 nodes of a rule for
    r <= 8 and 170 ms for the 92240 of the rule for r <= 1024, where
    ``_k_pair`` takes 2 and 12 ms."""
    ld = np.longdouble
    out = np.empty(t.size, dtype=ld)
    band = np.frexp(t)[1]
    for b in range(int(band.min()), int(band.max()) + 1):
        at = band == b
        if not at.any():
            continue
        tb = t[at].astype(ld)
        c, w = _trapezoid_rule(g, b, ld, _L_LONG)
        out[at] = (np.exp(np.multiply.outer(tb, c)) @ w[0]) * np.exp(-tb) * tb ** ld(-g)
    return out.astype(float)


def _k_pair(g, t):
    """K_g(t) and K_(1-g)(t) at a 1-D array of 0 < t <= _T_UNDERFLOW, for
    0 < g < 1 (see the module docstring).

    Each point's band, and with it its series length or rule, is a function
    of that point alone, and the arithmetic is element-wise, so a value does
    not depend on the other points of the call.  The points are sorted by
    band (a stable sort of small integers) so that each band is one slice."""
    band = np.maximum(np.frexp(t)[1], _BAND_MIN).astype(np.int8)
    order = np.argsort(band, kind="stable")
    ts = t[order]
    bounds = np.searchsorted(band[order], np.arange(_BAND_MIN, _BAND_TOP + 2))
    k0, k1 = np.empty(t.size), np.empty(t.size)
    n = bounds[_BAND_RULE - _BAND_MIN]  # points of the series bands
    if n:
        _temme(g, ts[:n], bounds, k0[:n], k1[:n])
    for b in range(_BAND_RULE, _BAND_TOP + 1):
        i, j = bounds[b - _BAND_MIN], bounds[b - _BAND_MIN + 1]
        if j > i:
            _trapezoid(g, ts[i:j], b, k0[i:j], k1[i:j])
    out0, out1 = np.empty(t.size), np.empty(t.size)
    out0[order] = k0
    out1[order] = k1
    return out0, out1


# -- the pair (J_0, J_1) --------------------------------------------------------

# each panel's series as one (functions, terms) array; panel k of _j01
# holds _J01_EDGES[k - 1] <= u < _J01_EDGES[k]
_J01_PANELS = tuple((lo, hi, np.array(series)) for lo, hi, series in J_PANELS + PQ_PANELS)
_J01_EDGES = tuple(hi for _, hi, _ in _J01_PANELS[:-1])


def _horner(coefs, t):
    """The polynomials whose coefficients (highest power first) are the rows
    of ``coefs``, at the 1-D points t, as one (rows, len(t)) array."""
    acc = coefs[:, :1] * t
    acc += coefs[:, 1:2]
    for k in range(2, coefs.shape[1]):
        acc *= t
        acc += coefs[:, k : k + 1]
    return acc


def _j01(u):
    """J_0(u) and J_1(u) at an array u >= 0 (see the module docstring).

    A point's panel depends on that point alone and the arithmetic is
    element-wise, so a value does not depend on the other points."""
    shape = np.shape(u)
    u = np.asarray(u, dtype=float).ravel()
    j0, j1 = np.empty_like(u), np.empty_like(u)
    panel = np.zeros(u.shape, np.int8)
    for edge in _J01_EDGES:
        panel += u >= edge
    for k, (lo, hi, coefs) in enumerate(_J01_PANELS):
        at = panel == k
        v = u[at]
        if not v.size:
            continue
        if k < len(J_PANELS):
            j0[at], j1[at] = _horner(coefs, (v - 0.5 * (lo + hi)) * (2.0 / (hi - lo)))
            continue
        w = 1.0 / v
        x_hi = (lo / hi) ** 2
        t = (lo * w) ** 2 * (2.0 / (1.0 - x_hi)) - (1.0 + x_hi) / (1.0 - x_hi)
        p0, q0, p1, q1 = _horner(coefs, t)
        # sqrt(2) cos chi_0 = cos u + sin u and sqrt(2) sin chi_0 = sin u - cos u;
        # cos chi_1 = sin chi_0 and sin chi_1 = -cos chi_0; in place, since
        # fresh temporaries of this size cost as much as the arithmetic
        c, s = np.cos(v), np.sin(v)
        plus = c + s
        s -= c
        amp = np.sqrt(w * (1.0 / math.pi))
        w *= amp
        p0 *= plus
        q0 *= w
        q0 *= s
        p0 *= amp
        p0 -= q0
        j0[at] = p0
        p1 *= s
        q1 *= w
        q1 *= plus
        p1 *= amp
        p1 += q1
        j1[at] = p1
    return j0.reshape(shape), j1.reshape(shape)


# -- the profiles ---------------------------------------------------------------


def _profile_chunk(name, f, at_zero, t, outs):
    """Write the values of ``f`` at the 1-D points ``t`` into ``outs`` (each
    of t's length).  An overflow past the float range raises NumericError:
    the kernel's warnings are silenced here, where its result is checked."""
    live = (t > 0.0) & (t <= _T_UNDERFLOW)
    tl = t[live]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        vals = f(tl)
    finite = np.logical_and.reduce([np.isfinite(v) for v in vals])
    if not np.all(finite):
        bad = float(tl[~finite][0])
        raise NumericError(
            f"{name} exceeds the float range at t = {bad!r}", {"t": bad}
        )
    for out, v in zip(outs, vals):
        out[live] = v
        if at_zero is not None:
            out[t == 0.0] = at_zero


def _profile(name, t, f, count=1, at_zero=None):
    """Evaluate ``count`` profiles: ``f`` maps the points 0 < t <=
    _T_UNDERFLOW (a 1-D array) to a tuple of their values; each profile is
    exactly 0 beyond (inf included) and ``at_zero`` at t = 0, where it is
    defined.  NaN and points outside the domain raise DomainError, a value
    past the float range NumericError.  Returns a tuple of floats or of
    arrays shaped like ``t``.

    The flattened input is evaluated in chunks of _CHUNK points, one after
    the other, in the calling thread."""
    tt = np.asarray(t, dtype=float)
    if np.any(np.isnan(tt)):
        raise DomainError(f"{name} got NaN")
    if at_zero is None and np.any(tt <= 0.0):
        raise DomainError(f"{name} requires t > 0")
    if np.any(tt < 0.0):
        raise DomainError(f"{name} requires t >= 0")
    outs = [np.zeros(tt.shape) for _ in range(count)]
    flat_t, flat_outs = tt.reshape(-1), [o.reshape(-1) for o in outs]
    for i in range(0, flat_t.size, _CHUNK):
        c = slice(i, i + _CHUNK)
        _profile_chunk(name, f, at_zero, flat_t[c], [o[c] for o in flat_outs])
    if tt.ndim == 0:
        return tuple(float(o) for o in outs)
    return tuple(outs)


def _gamma_of(idx):
    return idx.gamma if isinstance(idx, ProblemIndex) else float(idx)


def _phi_pair(g, t):
    k0, k1 = _k_pair(g, t)
    a = _d1(g) * t**g
    return a * k0, -a * k1


def profile_phi(idx, t):
    """Decaying profile phi(t) = d1 * t^gamma * K_gamma(t), phi(0) = 1."""
    g = _gamma_of(idx)
    return _profile("profile_phi", t, lambda ts: _phi_pair(g, ts)[:1], at_zero=1.0)[0]


def profile_phi_prime(idx, t):
    """d/dt of profile_phi; equals -d1 * t^gamma * K_(1-gamma)(t) for t > 0."""
    g = _gamma_of(idx)
    return _profile("profile_phi_prime", t, lambda ts: _phi_pair(g, ts)[1:])[0]


def profile_phi_pair(idx, t):
    """(profile_phi(t), profile_phi_prime(t)) for t > 0 from one kernel
    evaluation, bit for bit the values of the two calls."""
    g = _gamma_of(idx)
    return _profile("profile_phi_pair", t, lambda ts: _phi_pair(g, ts), count=2)


def profile_what(idx, t):
    """Radial Fourier profile t^(-gamma) * K_gamma(t) of the trace bubble.

    The absolute normalization is a free choice here (only ratios of the
    weighted moments are determined); the extension evaluator calibrates the
    single multiplicative constant it needs against the bubble's center value.
    """
    g = _gamma_of(idx)
    return _profile("profile_what", t, lambda ts: (ts ** (-g) * _k_pair(g, ts)[0],))[0]


def profile_what_prime(idx, t):
    """d/dt of profile_what: -2*gamma*t^(-gamma-1)*K_gamma - t^(-gamma)*K_(1-gamma)."""
    g = _gamma_of(idx)

    def f(ts):
        k0, k1 = _k_pair(g, ts)
        return (-(2.0 * g * k0 / ts + k1) * ts ** (-g),)

    return _profile("profile_what_prime", t, f)[0]


def profile_decay_bound(idx, t):
    """Upper bound d1 * sqrt(pi/2) * t^(gamma-1/2) * e^(-t) * (1 + 1/t) on both
    profile_phi(t) and |profile_phi_prime(t)|, for finite t > 0.

    It is K_nu(t) <= sqrt(pi/(2t)) e^(-t) (1 + 1/t) for nu in [0, 1] times
    d1 * t^gamma: the integral representation DLMF 10.32.8 gives
    K_nu(t) <= sqrt(pi/(2t)) e^(-t) for nu <= 1/2, and with
    (1 + u/(2t))^(nu-1/2) <= 1 + (nu-1/2) u/(2t) the factor 1 + 3/(8t) for
    1/2 < nu <= 1 (DLMF 10.40.10).  The ratio to K_nu tends to 1 as t grows.
    """
    g = _gamma_of(idx)
    tt = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(tt) & (tt > 0.0)):
        raise DomainError("profile_decay_bound requires finite t > 0")
    out = _d1(g) * math.sqrt(0.5 * math.pi) * tt ** (g - 0.5) * np.exp(-tt) * (1.0 + 1.0 / tt)
    return float(out) if tt.ndim == 0 else out


def sphere_area(n):
    """Surface area |S^(n-1)| of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def constants(idx):
    """All four closed-form constants for the given index."""
    n, g = idx.n, idx.gamma
    m = idx.m
    alpha = 2.0 ** (m / 2.0) * (
        math.gamma((n + 2.0 * g) / 2.0) / math.gamma(m / 2.0)
    ) ** (m / (4.0 * g))
    kappa = 2.0 ** (-(1.0 - 2.0 * g)) * math.gamma(g) / math.gamma(1.0 - g)
    green_const = math.gamma(m / 2.0) / (
        math.pi ** (n / 2.0) * 2.0 ** (2.0 * g) * math.gamma(g)
    )
    return Constants(
        alpha=alpha,
        kappa=kappa,
        green_const=green_const,
        sphere_area=sphere_area(n),
    )
