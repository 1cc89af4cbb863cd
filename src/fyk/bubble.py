"""The standard bubble family, its weighted harmonic extension, and the
kernel fields generated by dilation and translation.

Two independent evaluation routes are provided for the extension:

* ``fourier_bessel`` — radial Hankel-type inversion of the separated
  representation  W(r, z) = D * int s^(n-1) what(s) phi(s z) e_nu(s r) ds,
  with nu = n/2 - 1 and e_nu the normalized oscillatory kernel
  Gamma(nu+1) (u/2)^(-nu) J_nu(u).  The single constant D is calibrated so
  that W(0, 0) equals the bubble's center value.
* ``poisson_kernel`` — convolution of the trace with the half-space kernel
  p_{n,g} z^(2g) / (|xbar - ybar|^2 + z^2)^((n+2g)/2) (Caffarelli and
  Silvestre 2007), by one fixed Gauss product rule in the radius rho of
  ybar and the angle theta between xbar and ybar, built per point and
  summed as one numpy product.  The kernel peaks at rho = r, theta = 0 with
  widths z and z/r, so the rho-panels grow geometrically (ratio 2) away
  from r from width z/2, merged with panels at the trace's own scale graded
  up from 0; past rho1 = 2 max(r, z, 1) the map rho = rho1/t leaves
  t^(n-1) times a smooth factor on 0 < t <= 1; the theta-panels grow from
  width z / (2 max(r, z)) at 0 up to width 1.  The distance is formed as
  (rho - r)^2 + z^2 + 4 r rho sin^2(theta/2), which keeps its digits at
  the peak.  At n = 1 the sphere of directions S^0 is the two points
  theta = 0 and pi.  Against ``extension_gamma_half`` it holds to 1e-13
  for n in {2, 3, 6, 12}, r <= 1000 and 1e-3 <= z <= 50.

The kernel (Jacobi) fields Z^0 and Z^k of ``jacobi_field`` follow from the
extension fields by the exact identities of the family's dilation and
translation covariance, so no finite difference is taken.

The tensor-grid evaluator ``radial_profiles`` shares one s-quadrature across
all requested derivative fields, which keeps grid sweeps cheap.  Two paired
evaluators sum over s at matched points instead of on a tensor grid, so
their cost grows with the number of points, not its square:
``paired_profiles`` at points (r_k, z_k), on which ``extension`` and
``jacobi_field`` sum their one point, and ``polar_profiles`` on arcs
(r, z) = (rho cos d, rho sin d), d the angle to the trace plane (measured
from the trace, so that z = rho sin d keeps its digits next to it).  The
latter rests on the scaling identity, from s = s'/rho,

    W(rho cos d, rho sin d)
      = D * int (s'/rho)^(n-1) what(s'/rho) e_nu(s' cos d) phi(s' sin d) ds'/rho:

e_nu, e_(nu+1), phi and phi' are evaluated once on (s', d), and only the
what-weights depend on rho.  The arcs lie in the unit half-ball, rho <= 1,
so the nodes s' are the s-rule of the key 8 (below) scaled by the outermost
arc's radius, and no arc sees more phase per panel than that rule resolves.
This band starts at 1/32, where an arc's scaled first node is at most 32
times the rule's, 9.8e-4.  The three evaluators share their field formulas,
and inside 1/32 all three take the origin expansion below.

Every term of a field is  c(s) e(s r) p(s z)  with |e| <= 1 (DLMF 10.14.4),
|c(s)| <= |kw| max(1, s^2) for the weights kw = D s^(n-1) what(s) ds, and p
phi or phi', both bounded by  Phibar(t) = d1 sqrt(pi/2) t^(g-1/2) e^(-t)
(1 + 1/t)  (``specfun.profile_decay_bound``; K_nu asymptotics, DLMF 10.40).
The evaluators cut each point's s-sum where that bound makes the terms
negligible: with b(s) the nonincreasing envelope of |kw| max(1, s^2) (on
arcs also the max over arcs) and tau = 1e-20 sum |kw|, a node is kept while
s z < 1 or b(s) Phibar(s z) >= tau.  The test is monotone in s, so the kept
nodes are a prefix, found by bisection.  phi and phi' (and, at paired points,
the kernels) are evaluated on that prefix only and are exactly 0 past it.
Where Wz is requested, phi and phi' come from one
``specfun.profile_phi_pair`` call, one kernel evaluation for both.  sum |kw|
is the calibration mass alpha, so each dropped term is below 1e-20 alpha and
the at most ~6000 of them below 1e-16 alpha, the rounding floor of the sums
(on the direct route's grids the dropped mass is at most 7e-19 alpha per
point).  Every field is cut this way; the coefficient of Wrz_over_r
exceeds the envelope by at most s/n <= 45, so its dropped terms stay below
4.5e-19 alpha.

Inside |x| < 1/32 (_ORIGIN_RADIUS) the evaluators take the origin
expansion in place of the s-sums: the trace expansion of Caffarelli and
Silvestre (2007), summed to every order; ``paired_profiles`` and
``radial_profiles`` overwrite their s-sums there (``_route``).  With
phi(t) = sum_k A_k (t/2)^(2k) + B_k (t/2)^(2k+2g) (``_profile_series``;
DLMF 10.25.2, 10.27.4) and (-Delta)^g w = w^p,

    W = sum_k A_k (z/2)^(2k) (-Delta)^k w + B_k (z/2)^(2k+2g) (-Delta)^k w^p,

and the coefficient of r^(2j) in (-Delta)^k (1 + r^2)^(-a) is
(-1)^j (a)_(j+k) / (j+k)! * 4^k (j+1)_k (j+n/2)_k.  The other fields
differentiate the powers, and lap_tan shifts k to k + 1.  With the series'
K = 9 or 10 powers of z/2 and J = _ORIGIN_TERMS = 12 of r^2, at
|x| <= 1/32 every field holds within 8.0e-15 of the g = 1/2 closed form
for n <= 24 (the Fourier-Bessel sums: 7.0e-4 at n = 24); at |x| = 1/8 the
truncation leaves 5.2e-4 at n = 24, so the band's s-sums take every arc
from 1/32 out.  It needs no s-rule, so it holds where n - 2g < 1 too.  At
(r, z) = (rho cos d, rho sin d) a term T_kj (z/2)^(e_k) r^(2j) of a branch,
e_k = e_0 + 2k, is rho^(e_0 + 2(k+j)) times T_kj (sin(d)/2)^(e_k)
cos(d)^(2j).  So every field is one product A @ B.T: A holds the
K + J - 1 powers of rho of each branch, and B, per field and angle, the
angular factors of each power summed.  That is O((N_rho + N_d) K J)
powers and products and one matrix product, instead of K + J powers at
each of the N_rho N_d points.

At paired points the sums run over every node, one block of points at a
time (``_BLOCK`` values of (s, point) per block, however many arcs share
them): a block forms kernel times profile on (s, point) for each field and
contracts it over s with the field's coefficients, of every arc at once, by
a matrix product.  ``radial_profiles`` streams the tensor grid instead
(``_tensor_fields``), one block of s-rows at a time (``_KERNEL_BLOCK``
values per row block), so it never holds an S x len(r) or S x len(z) array.
Each block evaluates the kernels on (s, r), the profiles on the live (s, z)
entries of the columns up to the last one it still needs (all of them live
on ascending z, whose live prefixes shrink), and adds each field's terms to
that field's output in place by a matrix product, with the coefficients on
the profile side.  The blocks stop at the last live row (at (4, 0.3) the
top row z = 6 of a 128-cell grid has 193).  The tensor, paired and polar
evaluators share one contraction, ``_accumulate``: an entry's sum over s is
chunked, k = isqrt(S) s-rows at a time.  ``np.matmul`` writes a chunk's
partial sums into a buffer, and one add puts the buffer on the output, so a
chunk takes two roundings beyond those inside its product: one where the
buffer holds its partial sum and one where that sum joins the output.  A
chunk's k terms cost at most k - 1 roundings inside the product, and with
the buffer's rounding at most k, each relative to the chunk's sum |terms|;
the output's adds cost S/k more, each relative to the whole sum |terms|.
So the chunked sum of S terms rounds within (k + S/k) eps sum |terms| to
first order (Higham, *Accuracy and Stability of Numerical Algorithms*,
2002, sections 3.1 and 4.2), least near k = sqrt(S), where it is about
2 sqrt(S) eps sum |terms|; one product over all S rows sums term by term,
within S eps sum |terms|.

The s-rule is keyed on the largest r, rounded up to a quarter octave
2^(k/4) (at least 8; ``_rmax_key``), so a rule has at most 2^(1/4) = 1.19
times the nodes its r needs: 830 nodes up to r = 8, 2120 at the key
2^4.5 = 22.6 that r = 20 takes.  Its panels have width w = min(0.6, 5 / key)
out to s = 45, where K_g(s) < 3e-20, so no panel sees more than 5 rad of
phase of e_nu(s r), except near s = 0, where they are graded down
geometrically (ratio 2) to w/256.  There the s-integrand carries the factor
s^(n-1-2g), which is least smooth at small n - 1 - 2g, and geometric
grading toward an endpoint singularity resolves it at any exponent: against
the Poisson route a start at w/4 left 1.1e-4 at (3, 0.95) and 1.4e-7 at
(4, 0.8), the graded one 1.1e-6 and 6.4e-12.  The start stays in proportion
to w, so the rules keyed on R and R/2 begin with the same panels scaled by
2.  A point at large z puts its s-integrand at s ~ 1/z, which the rule's
first panels resolve only while (first node) * z <= _SZ_MAX, z <= 3.2e3 for
max r <= 8; beyond that ``_route`` raises NumericError rather than
return a sum that misses the integrand.  The rule's node count grows in
proportion to its key (368720 nodes at 2^12, whose what-weights take
0.5 s), so the keys stop at _S_KEY_MAX, and a larger r raises NumericError
before any node is built.  Where n - 2g < 1 the factor s^(n-1-2g) is
singular and the rule misses it (against the Poisson route 0.33 at
(1, 0.45), 1.1e-3 at (2, 0.7); at most 2.2e-6 for n - 2g >= 1), so there
``_what_weights``, which every s-sum calls, raises NumericError; the
Poisson route and the origin expansion take every n.

The kernels e_nu and e_(nu+1) come together from ``_e_pair``.  Since n is an
integer, nu is an integer or a half-integer, and the pair is run up from
e_0 = J_0(u), e_1 = 2 J_1(u)/u (the numpy kernel ``specfun._j01``) or from
e_(-1/2) = cos u, e_(1/2) = sin(u)/u (DLMF 10.16.1) by the recurrence
e_(mu+1) = mu (mu+1) (2/u)^2 (e_mu - e_(mu-1)), which is DLMF 10.6.1
rescaled.  The recurrence is stable only where u exceeds the orders it
passes, so it runs where u > nu + 1.  Below that the power series
e_mu(u) = sum_k (-u^2/4)^k / (k! (mu+1)_k) (DLMF 10.2.2, normalized) takes
both orders by Horner's rule, with a term count fixed per nu by the terms at
u = nu + 1 (``_series_terms``); it is exact at u = 0, and a value depends on
its own u alone.  Against 30-digit mpmath it is within 6.2e-16 for n <= 24,
where SciPy's ``jv`` errs by up to 9.2e-15, so no ``jv`` call is left.
"""
from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from ._quad import gauss_panels, graded_edges
from .errors import DomainError, NumericError
from .specfun import (
    _T_SERIES,
    ProblemIndex,
    _j01,
    _what_long,
    constants,
    profile_decay_bound,
    profile_phi,
    profile_phi_pair,
    profile_what,
    sphere_area,
)

__all__ = [
    "BubbleParams",
    "HalfSpacePoint",
    "trace_bubble",
    "extension",
    "extension_gamma_half",
    "neumann_trace",
    "jacobi_field",
    "radial_profiles",
    "paired_profiles",
    "polar_profiles",
    "poisson_constant",
]

# the fields the evaluators take, in the order they return them, and those
# on phi', which need z > 0
_FIELD_NAMES = ("W", "Wr_over_r", "lap_tan", "Wz", "Wrz_over_r")
_PRIME_FIELDS = ("Wz", "Wrz_over_r")
_S_CUT = 45.0   # K_g(s) < 3e-20 beyond this; truncation is below fp noise
# s-terms below _TAU times sum |kw| (the calibration mass, alpha) are not
# evaluated; see the module docstring
_TAU = 1e-20
_GAUSS_ORDER = 10
# _route raises past (first s-node) * max z = _SZ_MAX (see the module
# docstring): below it the gamma = 1/2 closed form holds to 6.2e-10 at r = 0
# for n = 3..12; 1e-8 is first lost at 0.125 (n = 8, 9)
_SZ_MAX = 0.1
# the s-rule keys: 8, whose panels every rmax <= 8 shares, up to the
# largest rule built (see the module docstring)
_S_KEY_MIN, _S_KEY_MAX = 8.0, 2.0**12
# the origin expansion's powers of z/2 per branch and of r^2 per power, and
# the radius it serves (see the module docstring)
_ORIGIN_TERMS = 12
_ORIGIN_RADIUS = 1.0 / 32.0
# neumann_trace raises where |sum| / sum |terms| falls below this: on a sweep
# of n <= 12, g in {0.05, ..., 0.95} and r <= 30 the values it keeps hold
# within 2.3e-6 for n >= 2, and every ratio at r <= 3 is at least 4e-3
_NEUMANN_MIN_RATIO = 1e-8
# kernel or profile values of (s, point) per block of paired points; the
# arcs of polar_profiles share them, so they do not count
_BLOCK = 2**17
_KERNEL_BLOCK = 2**16  # kernel or profile values per block of the tensor grid's s-rows
# the Poisson route's product rule: Gauss nodes per panel and the growth of
# its graded panels (see the module docstring)
_POISSON_ORDER = 12
_POISSON_RATIO = 2.0


@dataclass(frozen=True)
class BubbleParams:
    """Concentration scale and center of a bubble."""

    lam: float = 1.0
    sigma: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise DomainError("bubble scale lambda must be positive and finite")
        sigma = np.asarray(0.0 if self.sigma is None else self.sigma, dtype=float)
        if not np.all(np.isfinite(sigma)):
            raise DomainError("bubble center sigma must be finite")

    def center(self, n):
        if self.sigma is None:
            return np.zeros(n)
        sig = np.asarray(self.sigma, dtype=float)
        if sig.shape != (n,):
            raise DomainError(f"sigma must have length {n}")
        return sig


@dataclass(frozen=True)
class HalfSpacePoint:
    """A point (xbar, xN) in the closed upper half-space."""

    xbar: np.ndarray
    xN: float

    def __post_init__(self):
        if self.xN < 0.0:
            raise DomainError("xN must be nonnegative")


def trace_bubble(idx, p, xbar):
    """Trace bubble alpha * (lam / (lam^2 + |xbar - sigma|^2))^(m/2)."""
    return float(p.lam ** (-idx.m / 2.0) * _trace_radial(idx, _radius(idx, p, xbar)))


def _trace_radial(idx, r):
    r = np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):
        q = 1.0 + r**2
    # where 1 + r^2 overflows it is r^2 to rounding: alpha r^(-m), not 0 for m < 2
    w = np.where(np.isinf(q), np.maximum(r, 1.0) ** -idx.m, q ** (-idx.m / 2.0))
    return constants(idx).alpha * w


def _series_terms(x, mu):
    """The highest power of a series sum_k x^k / (k! (mu+1)_k) that a sum
    needs: the first whose term is below 2^-60.  The term ratio
    x / (k (mu + k)) grows with x and shrinks with mu, so the count serves
    every smaller x and every larger mu as well.  ``_e_pair`` takes it at
    u = nu + 1, the largest u its series serves (x = u^2/4, mu = nu), and
    ``_profile_series`` at t = _T_SERIES (x = t^2/4, mu = -g)."""
    term, k = 1.0, 0
    while term >= 2.0**-60:
        k += 1
        term *= x / (k * (mu + k))
    return k


@lru_cache(maxsize=64)
def _profile_series(g):
    """phi at t <= _T_SERIES as a sum of powers, c_j (t/2)^(p_j): (c, p),
    the K coefficients A_k of the first sum and then the K coefficients B_k
    of the second.  From K_g = (pi/2) (I_(-g) - I_g) / sin(pi g)
    (DLMF 10.27.4) and the series of I_(+-g) (DLMF 10.25.2),

        phi(t) = sum_k (t/2)^(2k) / (k! (1-g)_k)
                 - (Gamma(1-g)/Gamma(1+g)) sum_k (t/2)^(2k+2g) / (k! (1+g)_k).

    Both sums stop at the power ``_series_terms`` gives for the first at
    t = 1/2; from k = 1 on, the second's terms are no larger than the
    first's there."""
    k = np.arange(_series_terms(0.25 * _T_SERIES**2, -g) + 1.0)
    # 1/(k! (1-g)_k) and 1/(k! (1+g)_k) as running products
    a = np.cumprod(np.concatenate([[1.0], 1.0 / (k[1:] * (k[1:] - g))]))
    b = np.cumprod(np.concatenate([[1.0], 1.0 / (k[1:] * (k[1:] + g))]))
    c = np.concatenate([a, -(math.gamma(1.0 - g) / math.gamma(1.0 + g)) * b])
    return c, np.concatenate([2.0 * k, 2.0 * k + 2.0 * g])


def _e_series(mu, u, terms):
    """e_mu(u) = sum_k (-u^2/4)^k / (k! (mu+1)_k) (DLMF 10.2.2 normalized)
    up to the power ``terms``, by Horner's rule; exactly 1 at u = 0."""
    x = -0.25 * u * u
    acc = np.ones_like(u)
    for k in range(terms, 0, -1):
        acc *= x
        acc /= k * (mu + k)
        acc += 1.0
    return acc


def _e_pair(nu, u):
    """The normalized kernels e_nu(u) and e_(nu+1)(u), for an integer or
    half-integer nu >= -1/2 and an array u >= 0 (see the module docstring)."""
    u = np.asarray(u, dtype=float)
    low = u <= nu + 1.0
    # points where the recurrence is unstable get a harmless stand-in and
    # are overwritten from the power series below
    us = np.where(low, nu + 2.0, u)
    if nu == int(nu):
        j0, j1 = _j01(us)
        mu, e0, e1 = 0.0, j0, 2.0 * j1 / us
    else:
        mu, e0, e1 = -0.5, np.cos(us), np.sin(us) / us
    h2 = 4.0 / (us * us)
    while mu < nu:
        e0, e1 = e1, (mu + 1.0) * (mu + 2.0) * h2 * (e1 - e0)
        mu += 1.0
    ul = u[low]
    if ul.size:
        terms = _series_terms(0.25 * (nu + 1.0) ** 2, nu)
        e0[low] = _e_series(nu, ul, terms)
        e1[low] = _e_series(nu + 1.0, ul, terms)
    return e0, e1


@lru_cache(maxsize=16)
def _s_nodes(rmax_key):
    """Nodes and raw weights of the s-quadrature; they do not depend on the
    index, so ``polar_profiles`` can rescale them.

    ``rmax_key`` bounds the largest r the rule must resolve: panel widths are
    chosen so each panel sees at most a few oscillations of e_nu(s r).  The
    first panel is graded down toward s = 0, to 1/256 of that width, for the
    s^(n-1-2g) factor of the integrand there (see the module docstring).
    """
    rmax = float(rmax_key)
    width = min(0.6, 5.0 / max(rmax, 1e-9))
    inner = graded_edges(0.0, min(1.0, _S_CUT), width / 256.0, ratio=2.0, h_max=width)
    outer = np.arange(inner[-1], _S_CUT + width, width)  # starts at inner[-1]
    return gauss_panels(np.concatenate([inner, outer[1:]]), _GAUSS_ORDER)


def _what_weights(idx, s, ws, what):
    """The quadrature weights ``ws`` at the nodes ``s`` (any shape) times the
    calibrated s-integrand factor D s^(n-1) what(s), given the values
    ``what`` of ``profile_what`` at s; NumericError where n - 2g < 1 (see
    the module docstring)."""
    n, g = idx.n, idx.gamma
    if n - 2.0 * g < 1.0:
        raise NumericError(
            f"the Fourier-Bessel s-rule does not resolve n - 2 gamma = {n - 2.0 * g:g} < 1 "
            f"at (n, gamma) = ({n}, {g}); the Poisson route takes this index",
            {"n": n, "gamma": g},
        )
    # calibration: W(0,0) = alpha forces D * int s^(n-1) what(s) ds = alpha,
    # and the s-integral has the closed form 2^(n-g-2) Gamma(m/2) Gamma(n/2)
    m = idx.m
    i0 = 2.0 ** (n - g - 2.0) * math.gamma(m / 2.0) * math.gamma(n / 2.0)
    D = constants(idx).alpha / i0
    return ws * D * s ** (n - 1) * what


@lru_cache(maxsize=64)
def _s_rule(n, gamma, rmax_key):
    """Cached s-quadrature plus precomputed what-weights for one index; the
    what values are computed once per rule, so they come correctly rounded
    from ``specfun._what_long``."""
    s, ws = _s_nodes(rmax_key)
    return s, _what_weights(ProblemIndex(n, gamma), s, ws, _what_long(gamma, s))


def _rmax_key(rmax):
    """Bucket rmax up to a quarter octave, 2^(k/4), so the lru cache is
    effective while a rule is at most 2^(1/4) = 1.19 times wider in nodes
    than rmax needs.  Every rmax <= 8 gets the widest panels, 0.6 < 5/8
    (see ``_s_nodes``), so they share the key 8 and one rule per index.  An
    rmax past _S_KEY_MAX raises NumericError (see the module docstring)."""
    if not rmax <= _S_KEY_MAX:
        raise NumericError(
            f"r = {rmax:g} is beyond the s-rule's largest key {_S_KEY_MAX:g}",
            {"r": float(rmax), "key_max": _S_KEY_MAX},
        )
    r = max(rmax, _S_KEY_MIN)
    k = math.ceil(4.0 * math.log2(r))
    # log2 rounds; a step either way keeps 2^((k-1)/4) < r <= 2^(k/4)
    k += 2.0 ** (k / 4.0) < r
    k -= 2.0 ** ((k - 1) / 4.0) >= r
    return float(2.0 ** (k / 4.0))


def _check_request(r, z, fields):
    """The requested names in ``_FIELD_NAMES`` order; raises DomainError on any
    other name (or a bare string for the names), NaN or infinite coordinates,
    negative r or z, and z = 0 for a field on phi' (Wz, Wrz_over_r)."""
    if isinstance(fields, str):
        raise DomainError(f"fields must be a sequence of field names, not the string {fields!r}")
    unknown = [k for k in fields if k not in _FIELD_NAMES]
    if unknown:
        raise DomainError(f"unknown fields {unknown}; available: {', '.join(_FIELD_NAMES)}")
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(z))):
        raise DomainError("r and z must be finite")
    if np.any(r < 0.0) or np.any(z < 0.0):
        raise DomainError("r and z must be nonnegative")
    prime = [k for k in fields if k in _PRIME_FIELDS]
    if prime and np.any(z <= 0.0):
        raise DomainError(f"{', '.join(prime)} requires z > 0")
    return [k for k in _FIELD_NAMES if k in fields]


def _check_reach(s0, z):
    """Raise NumericError where the s-nodes ``s0`` cannot resolve the largest z (_SZ_MAX)."""
    zmax, first = float(z.max(initial=0.0)), float(s0[0])
    if first * zmax > _SZ_MAX:
        raise NumericError(
            f"z = {zmax:g} is beyond the s-rule's reach: its first node "
            f"{first:.3g} times z is {first * zmax:.3g} > {_SZ_MAX}",
            {"z": zmax, "s_first": first, "reach": first * zmax},
        )


def _live_counts(idx, s, kw, s0, z):
    """For each point z[k], how many leading s-nodes carry terms that can
    matter: those with s0 z < 1 or b(s) * profile_decay_bound(s0 z) >= tau
    (see the module docstring).  ``s`` and ``kw`` have s0's length on their
    last axis and may carry a leading axis of arcs; the envelope b takes the
    max over it.  The test is monotone in s, so a bisection per point finds
    the prefix."""
    b = (np.abs(kw) * np.maximum(1.0, s * s)).reshape(-1, s0.size).max(axis=0)
    b = np.maximum.accumulate(b[::-1])[::-1]
    tau = _TAU * np.abs(kw).sum(axis=-1).min()
    lo = np.zeros(z.shape, dtype=np.intp)
    hi = np.full(z.shape, s0.size, dtype=np.intp)
    for _ in range(s0.size.bit_length()):
        mid = (lo + hi) // 2
        i = np.minimum(mid, s0.size - 1)
        t = s0[i] * z
        big = b[i] * profile_decay_bound(idx, np.maximum(t, 1.0)) >= tau
        keep = (mid < hi) & ((t < 1.0) | big)
        lo = np.where(keep, mid + 1, lo)
        hi = np.where(keep, hi, mid)
    return lo


def _scatter(live, vals):
    """An array shaped like the mask ``live``: ``vals`` at its live entries
    and exactly 0 elsewhere."""
    out = np.zeros(live.shape)
    out[live] = vals
    return out


def _cut_profiles(idx, t, live, fields):
    """phi, and phi' where a field on it is requested, at the live entries
    of the mask ``live``, whose profile arguments are ``t``, and 0
    elsewhere; the pair comes from one kernel evaluation."""
    if not any(k in _PRIME_FIELDS for k in fields):
        return _scatter(live, profile_phi(idx, t)), None
    return tuple(_scatter(live, p) for p in profile_phi_pair(idx, t))


_PHI, _PHI_PRIME = range(2)


def _field_terms(idx, s, kw, fields):
    """The requested fields as s-sums, in the order of ``_FIELD_NAMES``:
    each field is sum_i c_i kernel(s_i r) profile(s_i z), given as
    (c, kernel, profile) with a coefficient c = kw * (a power of s), kernel
    0 for e_nu and 1 for e_(nu+1) (the pair ``_e_pair``), and profile phi or
    phi' (``_PHI``, ``_PHI_PRIME``).  The three evaluators share these
    formulas."""
    nu = idx.n / 2.0 - 1.0
    terms = {
        "W": (kw, 0, _PHI),
        "Wr_over_r": (-(kw * s**2 / (2.0 * (nu + 1.0))), 1, _PHI),
        "lap_tan": (-(kw * s**2), 0, _PHI),
        "Wz": (kw * s, 0, _PHI_PRIME),
        # d/dz of Wr_over_r
        "Wrz_over_r": (-(kw * s**3 / (2.0 * (nu + 1.0))), 1, _PHI_PRIME),
    }
    return {k: v for k, v in terms.items() if k in fields}


def _paired_fields(idx, s, kw, s0, r, z, fields):
    """The fields of ``_field_terms`` at the paired points (r[k], z[k]), with
    the kernels at s0 r and the profiles at s0 z, in blocks of points: each
    point's sum is independent of the others, and a block of _BLOCK values
    of (s0, point) bounds the temporaries of ``_e_pair`` and the profiles.
    Kernels and profiles are evaluated on each point's live s-prefix only
    and are 0 past it, so every sum still runs over all of s0 in the same
    order.  Each field is kernel * profile contracted over s with its
    coefficients, for every arc of ``s`` at once, by ``_accumulate``."""
    nu = idx.n / 2.0 - 1.0
    counts = _live_counts(idx, s, kw, s0, z)
    rows = np.arange(s0.size)[:, None]
    terms = _field_terms(idx, s, kw, fields)
    # coefficients as (s, arc) and outputs as (arc, point), one arc on paired
    # points; a block's columns of an F-ordered output are contiguous rows of
    # its transpose, which _accumulate adds to in place
    coefs = {
        k: np.ascontiguousarray(np.reshape(c, (-1, s0.size)).T) for k, (c, _, _) in terms.items()
    }
    out = {k: np.zeros((c.shape[1], r.size), order="F") for k, c in coefs.items()}
    step = max(1, math.isqrt(s0.size))  # see the module docstring
    size = max(1, _BLOCK // s0.size)
    for i in range(0, r.size, size):
        blk = slice(i, i + size)
        live = rows < counts[blk]
        kernels = [_scatter(live, e) for e in _e_pair(nu, np.outer(s0, r[blk])[live])]
        profiles = _cut_profiles(idx, np.outer(s0, z[blk])[live], live, fields)
        for k, (_, e, p) in terms.items():
            _accumulate(coefs[k], kernels[e] * profiles[p], out[k][:, blk], step)
    shape = np.shape(kw)[:-1] + (r.size,)
    return {k: v.reshape(shape) for k, v in out.items()}


def _accumulate(a, b, c, step):
    """c += a^T b in place, for C-ordered ``a`` and ``b`` with the s-rows of
    one block as their first axis and an F-ordered ``c``: per ``step`` rows,
    one ``np.matmul`` of the partial sums into a buffer shaped like the
    C-ordered c^T, then one add of the buffer to c^T (see the module
    docstring)."""
    ct = c.T
    buf = np.empty(ct.shape)
    for i in range(0, len(a), step):
        j = slice(i, i + step)
        np.matmul(b[j].T, a[j], out=buf)
        ct += buf


def _tensor_fields(idx, s, kw, r, z, fields):
    """The fields of ``_field_terms`` on the tensor grid r x z (see the module docstring)."""
    nu = idx.n / 2.0 - 1.0
    counts = _live_counts(idx, s, kw, s, z)
    terms = _field_terms(idx, s, kw, fields)
    # a block's columns of an F-ordered output are contiguous rows of its
    # transpose, which _accumulate adds to in place
    out = {k: np.zeros((r.size, z.size), order="F") for k in terms}
    rows = max(1, _KERNEL_BLOCK // max(r.size, z.size, 1))
    # partial sums of about sqrt(S) rows minimize the chunked sum's rounding
    # bound (see the module docstring)
    step = max(1, math.isqrt(s.size))
    # the blocks stop at the last live row (see the module docstring)
    stop = counts.max(initial=0) if r.size else 0
    for i in range(0, stop, rows):
        blk = slice(i, min(i + rows, stop))
        kernels = _e_pair(nu, np.outer(s[blk], r))
        # the columns up to the last one still live in this block
        live = np.flatnonzero(counts > i)[-1] + 1
        mask = np.arange(i, i + len(kernels[0]))[:, None] < counts[:live]
        profiles = _cut_profiles(idx, np.outer(s[blk], z[:live])[mask], mask, fields)
        for k, (c, e, p) in terms.items():
            _accumulate(kernels[e], c[blk, None] * profiles[p], out[k][:, :live], step)
    return out


def _route(idx, r, z, fields, paired):
    """The fields of ``paired_profiles`` if ``paired``, else of ``radial_profiles``, with
    no s-rule where every point (on a tensor grid, its far corner) lies inside _ORIGIN_RADIUS."""
    r, z = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (r, z))
    if paired and (r.shape != z.shape or r.ndim != 1):
        raise DomainError("paired r and z must be 1-D arrays of one length")
    names = _check_request(r, z, fields)
    grid = (r, z) if paired else (r[:, None], z[None, :])
    far = (r, z) if paired else (r.max(initial=0.0), z.max(initial=0.0))
    if np.all(np.hypot(*far) < _ORIGIN_RADIUS):
        out = {k: np.empty(np.broadcast(*grid).shape) for k in names}
    else:
        s, kw = _s_rule(idx.n, idx.gamma, _rmax_key(r.max(initial=0.0)))
        _check_reach(s, z)
        out = _paired_fields(idx, s, kw, s, r, z, names) if paired else _tensor_fields(idx, s, kw, r, z, names)
    rho = np.hypot(*grid)
    inner = rho < _ORIGIN_RADIUS
    if names and inner.any():
        r, z = (np.broadcast_to(a, rho.shape)[inner] for a in grid)
        f = _origin_fields(idx, rho[inner], np.arctan2(z, r), names, paired=True)
        for k in names:
            out[k][inner] = f[k][:, 0]
    return out


def radial_profiles(idx, r, z, fields=("W",)):
    """Evaluate extension-derived fields on the tensor grid r x z.

    ``r`` and ``z`` are 1-D arrays of finite values >= 0 (z > 0 for ``Wz``);
    returns a dict of (len(r), len(z)) arrays. Available fields:

    * ``W``        — the extension itself (z = 0 allowed)
    * ``Wr_over_r``— (1/r) dW/dr (finite at r = 0)
    * ``Wz``       — dW/dz (z > 0 required)
    * ``lap_tan``  — tangential Laplacian of W
    * ``Wrz_over_r`` — (1/r) d^2W/dr dz (z > 0 required)

    Any other name, or a bare string for ``fields``, raises DomainError.
    Entries inside _ORIGIN_RADIUS take the origin expansion instead of the
    s-sums, so a grid with none outside takes every n.
    """
    return _route(idx, r, z, fields, paired=False)


def paired_profiles(idx, r, z, fields=("W",)):
    """The fields of ``radial_profiles`` at the paired points (r[k], z[k]).

    ``r`` and ``z`` are 1-D arrays of one length; returns a dict of 1-D
    arrays.  All points share one s-rule, keyed on the largest r, and each
    field is summed over s point by point, so the cost grows with N, not N^2;
    the points inside _ORIGIN_RADIUS take the origin expansion instead, so a
    call with none outside takes every n.
    """
    return _route(idx, r, z, fields, paired=True)


def polar_profiles(idx, rho, *, d, fields=("W",)):
    """The fields of ``radial_profiles`` on arcs of the unit half-ball: at
    (r, z) = (rho[a] cos d[t], rho[a] sin d[t]), as (len(rho), len(d))
    arrays, where d is the angle to the trace plane.  0 < ``rho`` <= 1, in
    any order, and 0 <= ``d`` <= pi/2 (> 0 for the fields on phi'); an arc
    past rho = 1 raises DomainError, as its Kelvin image
    W(x) = |x|^(-m) W(x/|x|^2) lies inside.  The angle is measured from the
    trace so that z = rho sin d keeps its digits next to it; ``d`` and
    ``fields`` are keyword-only, so a call that passes the polar angle from
    the z-axis in their place fails instead of mirroring the arcs.

    Arcs inside _ORIGIN_RADIUS take the origin expansion; the others form
    one band on one scaled s-rule (see the module docstring).
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if rho.ndim != 1 or d.ndim != 1 or not (rho.size and 0.0 < rho.min() and rho.max() <= 1.0):
        raise DomainError("polar_profiles needs a nonempty 1-D 0 < rho <= 1 and 1-D d")
    if not np.all(np.isfinite(d)):
        raise DomainError("d must be finite")
    names = _check_request(rho.max() * np.cos(d), rho.max() * np.sin(d), fields)
    if not names:
        return {}
    out = {k: np.empty((rho.size, d.size)) for k in names}
    inner = rho < _ORIGIN_RADIUS
    band = rho[~inner]
    if band.size:
        top = band.max()
        # the outermost arc keeps the rule radial_profiles would use there
        s0, ws0 = _s_nodes(_S_KEY_MIN)
        scale = (top / band)[:, None]
        s = scale * s0
        kw = _what_weights(idx, s, scale * ws0, profile_what(idx, s))
        # no reach check: z <= rho <= 1 times the first node, 3.06e-5, is far below _SZ_MAX
        f = _paired_fields(idx, s, kw, s0, top * np.cos(d), top * np.sin(d), names)
        for k in names:
            out[k][~inner] = f[k]
    if inner.any():
        f = _origin_fields(idx, rho[inner], d, names)
        for k in names:
            out[k][inner] = f[k]
    return out


@lru_cache(maxsize=64)
def _origin_tables(n, g):
    """Per branch, w = alpha (1 + r^2)^(-m/2) and w^p = alpha^p
    (1 + r^2)^(-(n+2g)/2): the powers of z/2 and A_k or B_k from
    ``_profile_series``, and M[k, j], the coefficient of r^(2j) in
    (-Delta)^k of the branch, for k <= K and j <= _ORIGIN_TERMS, one row and
    column more than the sums take, for lap_tan (k + 1) and 1/r d/dr (j + 1)."""
    c, p = _profile_series(g)
    K = c.size // 2  # the coefficients A_k, then B_k
    alpha = constants(ProblemIndex(n, g)).alpha
    m = n - 2.0 * g
    j = np.arange(_ORIGIN_TERMS + 1.0)
    k = np.arange(K + 1.0)
    i = np.arange(1.0, j[-1] + k[-1] + 1.0)

    def rising(x):  # (x_j)_k as [k, j]
        return np.cumprod(np.vstack([np.ones_like(x), x + k[:-1, None]]), axis=0)

    jk = (j[None, :] + k[:, None]).astype(int)
    tables = []
    for b, (scale, a) in enumerate([(alpha, m / 2.0), (alpha ** ((n + 2.0 * g) / m), (n + 2.0 * g) / 2.0)]):
        poch = np.concatenate([[1.0], np.cumprod((a + i - 1.0) / i)])  # (a)_i / i!
        M = scale * (-1.0) ** j * poch[jk] * 4.0 ** k[:, None] * rising(j + 1.0) * rising(j + n / 2.0)
        tables.append((p[b * K : (b + 1) * K], c[b * K : (b + 1) * K], M))
    return tables


def _origin_fields(idx, rho, d, names, paired=False):
    """The fields ``names``, in the order of ``_FIELD_NAMES``, from the
    origin expansion (see the module docstring) on the arcs rho <
    _ORIGIN_RADIUS and angles d that ``polar_profiles`` or ``_route`` checks,
    as (len(rho), len(d)) arrays, or (len(rho), 1) with arc i at d[i] if ``paired``.

    All the fields are one product A @ B.T, A the powers of rho and B the
    angular factors of equal power summed, one row per field and angle (if
    ``paired``, each row of A meets its own).  The fields on phi' take
    d/dz (z/2)^e = (e/2) (z/2)^(e-1) and divide by rho."""
    c, s = np.sin(d), np.cos(d)
    J = _ORIGIN_TERMS
    j = np.arange(J)
    S = (s * s)[:, None] ** j
    h = 0.5 * c[:, None]
    A, B = [], []
    for e, coef, M in _origin_tables(idx.n, idx.gamma):
        K = e.size
        A.append(rho[:, None] ** (e[0] + 2.0 * np.arange(K + J - 1)))  # e_k = e_0 + 2k
        H = h**e
        T = coef[:, None] * M[:-1, :J]
        Tr = coef[:, None] * 2.0 * (j + 1.0) * M[:-1, 1:]  # (1/r) d/dr
        terms = {"W": (H, T), "Wr_over_r": (H, Tr), "lap_tan": (H, -coef[:, None] * M[1:, :J])}
        if any(k in _PRIME_FIELDS for k in names):
            Hp = (0.5 * e) * h ** (e - 1.0)
            terms.update(Wz=(Hp, T), Wrz_over_r=(Hp, Tr))
        Hs, Ts = (np.stack(x) for x in zip(*(terms[k] for k in names)))
        Bb = np.zeros((len(names), d.size, K + J - 1))
        for k in range(K):  # the terms T_kj go to the powers k + j
            Bb[:, :, k : k + J] += Hs[:, :, k : k + 1] * Ts[:, None, k] * S
        B.append(Bb)
    A, B = np.concatenate(A, axis=1), np.concatenate(B, axis=2)
    V = np.einsum("ip,fip->if", A, B) if paired else A @ B.reshape(len(names) * d.size, -1).T
    V = V.reshape(rho.size, len(names), -1)
    return {k: V[:, i] / rho[:, None] if k in _PRIME_FIELDS else V[:, i] for i, k in enumerate(names)}


def extension_gamma_half(idx, r, z, lam=1.0):
    """Closed-form extension at gamma = 1/2.

    With the weight trivial, the extension is harmonic in R^(n+1) and equals
    the shifted fundamental solution alpha * (lam / ((lam+z)^2 + r^2))^(m/2),
    m = n - 1; its trace is exactly the bubble.
    """
    if abs(idx.gamma - 0.5) > 1e-14:
        raise DomainError("closed form only available at gamma = 1/2")
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    alpha = constants(idx).alpha
    u = lam + z
    return alpha * (lam / (u**2 + r**2)) ** (idx.m / 2.0)


def poisson_constant(idx):
    """Normalization of the half-space kernel, Gamma((n+2g)/2)/(pi^(n/2) Gamma(g))."""
    n, g = idx.n, idx.gamma
    return math.gamma((n + 2.0 * g) / 2.0) / (math.pi ** (n / 2.0) * math.gamma(g))


def _extension_poisson(idx, r, z):
    """Poisson-kernel route at a single scaled point (r, z), z > 0: one fixed
    Gauss product rule over the radius rho of ybar and the angle theta
    between xbar and ybar (see the module docstring)."""
    n, g = idx.n, idx.gamma
    rho1 = 2.0 * max(r, z, 1.0)
    # rho-panels as offsets u = rho - r: geometric away from the kernel's
    # peak at u = 0 from width z/2, merged with the trace's panels
    edges = np.sort(np.concatenate([
        -graded_edges(0.0, r, z / 2.0, ratio=_POISSON_RATIO),
        graded_edges(0.0, rho1 - r, z / 2.0, ratio=_POISSON_RATIO),
        graded_edges(0.0, rho1, 0.25, ratio=_POISSON_RATIO) - r,
    ]))
    # the distinct edges, as np.unique gives them; np.unique reads np.ma,
    # whose first import costs a run about 10 ms
    edges = edges[np.append(True, edges[1:] > edges[:-1])]
    u, wu = gauss_panels(edges, _POISSON_ORDER)
    # the tail rho = rho1 / t, 0 < t <= 1, where the integrand is t^(n-1)
    # times a smooth factor
    t, wt = gauss_panels(np.linspace(0.0, 1.0, 5), _POISSON_ORDER)
    u = np.concatenate([u, rho1 / t - r])
    rho = r + u
    wr = np.concatenate([wu, wt * rho1 / t**2])
    # sin^2(theta/2) and the weights of the sphere S^(n-2) of directions
    if n == 1:
        half, wc = np.array([0.0, 1.0]), np.ones(2)
    else:
        h0 = z / (2.0 * max(r, z))
        th, wth = gauss_panels(
            graded_edges(0.0, math.pi, h0, ratio=_POISSON_RATIO, h_max=1.0), _POISSON_ORDER
        )
        half = np.sin(0.5 * th) ** 2
        wc = sphere_area(n - 1) * np.sin(th) ** (n - 2) * wth
    # |xbar - ybar|^2 + z^2, with its digits kept where u and theta are small
    d2 = (u * u + z * z)[:, None] + 4.0 * r * rho[:, None] * half
    ang = d2 ** (-(n + 2.0 * g) / 2.0) @ wc
    radial = _trace_radial(idx, rho) * rho ** (n - 1) * wr
    return poisson_constant(idx) * z ** (2.0 * g) * (radial @ ang)


def _radius(idx, p, xbar):
    """|xbar - sigma| / lam for a point ``xbar`` of R^n."""
    xbar = np.asarray(xbar, dtype=float)
    if xbar.shape != (idx.n,):
        raise DomainError(f"xbar must have shape ({idx.n},), got {xbar.shape}")
    if not np.all(np.isfinite(xbar)):
        raise DomainError("xbar must be finite")
    # hypot, not the root of a sum of squares, which overflows past 1.3e154
    return math.hypot(*(xbar - p.center(idx.n))) / p.lam


def extension(idx, p, x, route="fourier_bessel"):
    """The extension W_{lam,sigma} at a half-space point; the Fourier-Bessel
    route is one ``paired_profiles`` sum there."""
    if route not in ("fourier_bessel", "poisson_kernel"):
        raise DomainError(f"unknown route {route!r}")
    r = _radius(idx, p, x.xbar)
    z = x.xN / p.lam
    scale = p.lam ** (-idx.m / 2.0)
    if x.xN == 0.0:
        return float(scale * _trace_radial(idx, r))
    if route == "fourier_bessel":
        w = paired_profiles(idx, r, z)["W"][0]
    else:
        w = _extension_poisson(idx, r, z)
    return float(scale * w)


def neumann_trace(idx, p, xbar):
    """-kappa * lim_{z->0} z^(1-2g) dW/dz, as one s-sum of the fractional
    symbol: sum kw s^(2g) e_nu(s r), times lam^(-(n+2g)/2).

    The profile phi(t) = d1 t^g K_g(t) has phi(t) = 1 - t^(2g) / (2 g kappa)
    + O(t^2) (DLMF 10.30.2), so z^(1-2g) s phi'(s z) -> -s^(2g) / kappa as
    z -> 0 and kappa cancels; the sum is (-Delta)^g w, the trace's symbol
    |xi|^(2g) times its transform.  Against w^((n+2g)/(n-2g)), for n <= 12
    and r <= 30, it holds within 2e-9 at r <= 3 and 1.1e-7 at r <= 10 for
    n >= 3.  Further out the sum falls far below its terms: its rounding is
    about 3e-14 of sum |terms|, so the relative error grows as the ratio
    |sum| / sum |terms| falls (7.4e-6 at ratio 1.1e-9, (12, 0.95), r = 20).
    Where the ratio is below _NEUMANN_MIN_RATIO it raises NumericError; the
    values it returns hold within 2.3e-6 on that sweep (n >= 2).  At n = 1
    the error is about 1e-5, the s-rule's floor at small n - 1 - 2g (see the
    module docstring).  Past n = 12 the error grows before the ratio falls
    that low, with no raise, at small r too: against w^p at g = 1/2 it is
    1.1e-9 at r = 0 for n = 12; 1.6e-7, 2.4e-8, 7.8e-6 at r = 0, 5, 10 for
    n = 16; 1.9e-4, 5.9e-10, 3.5e-8, 4.8e-4 at r = 0, 0.5, 2, 5 for n = 24.
    It keeps its s-sum inside 1/32, unlike the fields: the floor reaches
    past 1/32, and on the trace the origin expansion is w^p itself, which
    would leave the sum no independent check.
    """
    r = _radius(idx, p, xbar)
    s, kw = _s_rule(idx.n, idx.gamma, _rmax_key(r))
    e = _e_pair(idx.n / 2.0 - 1.0, s * r)[0]
    c = kw * s ** (2.0 * idx.gamma)
    flux, mass = c @ e, np.abs(c) @ np.abs(e)
    if abs(flux) < _NEUMANN_MIN_RATIO * mass:
        raise NumericError(
            f"the Neumann trace at r = {r:g} cancels to {abs(flux) / mass:.3g} of "
            f"its terms, below {_NEUMANN_MIN_RATIO:g}: its rounding would show",
            {"r": r, "ratio": abs(flux) / mass},
        )
    return float(flux * p.lam ** (-(idx.n + 2.0 * idx.gamma) / 2.0))


def jacobi_field(idx, k, x):
    """Kernel fields of the linearization at the standard bubble (lam = 1,
    sigma = 0): Z^0 = -dW/dlam (k = 0) and Z^k = dW/dsigma_k (1 <= k <= n).

    By the exact parameter covariance of the family,
    Z^0 = r W_r + z W_z + (m/2) W (``dilation_field``) and Z^k = -x_k W_r / r,
    from one ``paired_profiles`` call; on the trace (xN = 0) they take the
    trace's closed forms Z^0 = (m/2) w (1 - r^2)/(1 + r^2) and
    Z^k = m x_k w / (1 + r^2), which are -(m/2) w and m x_k w / r^2 where
    r^2 overflows.
    """
    if not 0 <= k <= idx.n:
        raise DomainError(f"k must lie in [0, {idx.n}]")
    r = _radius(idx, BubbleParams(), x.xbar)
    z = x.xN
    m = idx.m
    if z == 0.0:
        w, q = _trace_radial(idx, r), r * r
        if q == math.inf:  # 1 + r^2 is r^2 to rounding
            return float(-0.5 * m * w if k == 0 else m * (x.xbar[k - 1] / r) * w / r)
        if k == 0:
            return float(0.5 * m * w * (1.0 - q) / (1.0 + q))
        return float(m * x.xbar[k - 1] * w / (1.0 + q))
    f = paired_profiles(idx, r, z, ("W", "Wr_over_r", "Wz"))
    if k == 0:
        return float(dilation_field(idx, r, z, f)[0])
    return float(-x.xbar[k - 1] * f["Wr_over_r"][0])


def dilation_field(idx, r, z, f):
    """Z^0 = r W_r + z W_z + (m/2) W from the ``W``, ``Wr_over_r`` and ``Wz``
    fields of ``radial_profiles`` or ``polar_profiles``, at points (r, z)
    that broadcast against them (r[:, None] and z[None, :] on a tensor
    grid)."""
    return r**2 * f["Wr_over_r"] + z * f["Wz"] + 0.5 * idx.m * f["W"]


def jacobi_field_radial(idx, r, z):
    """Z^0 on the (r, z) tensor grid via the radial identity
    Z^0 = r W_r + z W_z + (m/2) W (z > 0 required)."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    f = radial_profiles(idx, r, z, ("W", "Wr_over_r", "Wz"))
    return dilation_field(idx, r[:, None], z[None, :], f)
