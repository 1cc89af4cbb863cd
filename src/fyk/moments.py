"""Weighted Bessel moments, their recurrence checks, the nine quadratic
integrals of the extension, and the three combined functionals.

Notation: with phi and what the two radial profiles from ``specfun``,

    A_a   = int t^(a-2g) phi^2        Ap_a  = int t^(a-2g) phi phi'
    App_a = int t^(a-2g) (phi')^2     B_b   = int t^(n-1-b+2g) what^2
    Bp_b  = int t^(n-1-b+2g) what what'   Bpp_b = int t^(n-1-b+2g) (what')^2

Each is a sum of Mellin transforms M(p; mu, nu) = int_0^inf t^p K_mu K_nu dt
with mu, nu in {g, 1-g}, which have a four-Gamma closed form
(Gradshteyn-Ryzhik 6.576.4); ``compute_moments`` evaluates that form, and the
tests keep direct quadrature of the integrands above as its oracle.

The nine quadratic integrals of W over the half-space reduce, by Plancherel
in the tangential variables, to bilinear combinations of these moments; the
reductions implemented in ``_integrals_from_moments`` were re-derived from
the profile ODEs and cross-validated against the direct two-dimensional
route and against the closed-form ratio table (see ``closed_form_ratios``).
"""
from dataclasses import dataclass, field
from functools import lru_cache
import math

import numpy as np
# integrate is unused here; perfbench/tracing.py wraps moments.integrate by name
from scipy import integrate  # noqa: F401

from . import bubble
from ._quad import gauss_panels, graded_edges
from .errors import DomainError, NumericError
from .specfun import _d1, constants, sphere_area

__all__ = [
    "MomentTable",
    "IntegralSet",
    "compute_moments",
    "verify_recurrences",
    "compute_integrals",
    "combined_integrals",
    "combined_integrals_direct",
    "closed_form_ratios",
    "combined_ratios",
]

@dataclass
class MomentTable:
    n: int
    gamma: float
    A: dict = field(default_factory=dict)
    Ap: dict = field(default_factory=dict)
    App: dict = field(default_factory=dict)
    B: dict = field(default_factory=dict)
    Bp: dict = field(default_factory=dict)
    Bpp: dict = field(default_factory=dict)


@dataclass
class IntegralSet:
    I: np.ndarray  # the nine quadratic integrals, I[0] .. I[8]
    C0: float


_DEFAULT_ORDERS = {
    "A": (1, 3),
    "Ap": (2, 4),
    "App": (3,),
    "B": (2,),
    "Bp": (1,),
    "Bpp": (),
}


def _mellin_terms(family, order, n, g):
    """The moment as a sum of terms (c, p, mu, nu), each c * M(p; mu, nu).

    From phi = d1 t^g K_g, phi' = -d1 t^g K_(1-g) and what = t^(-g) K_g;
    the weights t^(a-2g) and t^(n-1-b+2g) absorb the powers of t.
    """
    h = 1.0 - g
    d2 = _d1(g) ** 2
    w = n - 1 - order
    terms = {
        "A": ((d2, order, g, g),),
        "Ap": ((-d2, order, g, h),),
        "App": ((d2, order, h, h),),
        "B": ((1.0, w, g, g),),
        "Bp": ((-2.0 * g, w - 1, g, g), (-1.0, w, g, h)),
        "Bpp": ((4.0 * g * g, w - 2, g, g), (4.0 * g, w - 1, g, h), (1.0, w, h, h)),
    }
    if family not in terms:
        raise DomainError(f"unknown moment family {family!r}")
    return terms[family]


def _mellin_kk(p, mu, nu):
    """M(p; mu, nu) = int_0^inf t^p K_mu(t) K_nu(t) dt for p + 1 > mu + nu >= 0
    (Gradshteyn-Ryzhik 6.576.4), evaluated in log space; inf on overflow."""
    log_m = (p - 2.0) * math.log(2.0) - math.lgamma(p + 1.0) + sum(
        math.lgamma((p + 1.0 + s * mu + r * nu) / 2.0) for s in (1, -1) for r in (1, -1)
    )
    try:
        return math.exp(log_m)
    except OverflowError:
        return math.inf


def compute_moments(idx, orders=None):
    """The requested moments from the Mellin closed form of K_mu K_nu.

    ``orders`` maps family name ("A", "Ap", ..., "Bpp") to an iterable of
    integer orders; defaults to the orders the integral assembly needs.
    Divergent requests raise a DomainError naming the failing index; a value
    beyond the floating-point range raises a NumericError.
    """
    if orders is None:
        orders = _DEFAULT_ORDERS
    table = MomentTable(n=idx.n, gamma=idx.gamma)
    for family, idxs in orders.items():
        for order in idxs:
            terms = _mellin_terms(family, order, idx.n, idx.gamma)
            # the integrand behaves like t^p K_mu K_nu ~ t^(p - mu - nu) at 0+
            for _, p, mu, nu in terms:
                if p + 1.0 <= mu + nu:
                    raise DomainError(
                        f"moment {family}[{order}] diverges at t=0 for "
                        f"(n, gamma) = ({idx.n}, {idx.gamma}) "
                        f"(small-t exponent {p - mu - nu:.3f} <= -1)"
                    )
            val = sum(c * _mellin_kk(p, mu, nu) for c, p, mu, nu in terms)
            if not math.isfinite(val):
                raise NumericError(
                    f"moment {family}[{order}] overflows the floating-point range",
                    {"n": idx.n, "gamma": idx.gamma},
                )
            getattr(table, family)[order] = val
    return table


def _recurrence_instances(table):
    """Yield (label, lhs, rhs) for every printed recurrence the table covers."""
    n, g = table.n, table.gamma
    for a, Aa in table.A.items():
        if a + 2 in table.A:
            rhs = (a + 2) / (a + 1) / (((a + 1) / 2.0) ** 2 - g**2) * table.A[a + 2]
            yield (f"A_chain[{a}]", Aa, rhs)
        if a + 1 in table.Ap:
            yield (f"A_from_Ap[{a}]", Aa, -table.Ap[a + 1] / ((a + 1) / 2.0 - g))
        if a in table.App:
            # note the direction: A_a = ((a-1)/2 + g) / ((a+1)/2 - g) * App_a
            rhs = ((a - 1) / 2.0 + g) / ((a + 1) / 2.0 - g) * table.App[a]
            yield (f"A_from_App[{a}]", Aa, rhs)
    for b, Bb in table.B.items():
        if b - 2 in table.B:
            rhs = (
                4.0
                * (n - b + 1)
                * table.B[b - 2]
                / ((n - b) * (n + 2 * g - b) * (n - 2 * g - b))
            )
            yield (f"B_chain[{b}]", Bb, rhs)
        if b - 1 in table.Bp:
            yield (f"B_from_Bp[{b}]", Bb, -2.0 * table.Bp[b - 1] / (n + 2 * g - b))
        if b in table.Bpp:
            rhs = (n - 2 * g - b - 2) * table.Bpp[b] / (n + 2 * g - b)
            yield (f"B_from_Bpp[{b}]", Bb, rhs)


def verify_recurrences(table):
    """Relative residual |LHS-RHS|/|LHS| for each recurrence instance covered."""
    out = {}
    for label, lhs, rhs in _recurrence_instances(table):
        out[label] = abs(lhs - rhs) / abs(lhs)
    if not out:
        raise DomainError("table does not cover any linked recurrence pair")
    return out


def closed_form_ratios(idx):
    """The nine closed-form ratios I_k / C0."""
    n, g = idx.n, idx.gamma
    return np.array(
        [
            3.0 / (2.0 * (1.0 - g**2)),
            -3.0 * n / (4.0 * (1.0 - g**2)),
            -3.0 / (2.0 * (1.0 + g)),
            (3.0 * n - 2.0 * (1.0 + g)) / (4.0 * (1.0 + g)),
            -1.0,
            1.0,
            (2.0 - g) / (1.0 + g),
            -n / 2.0,
            2.0 - g,
        ]
    )


def combined_ratios(idx):
    """Closed-form ratios of the three combined functionals to C0."""
    g = idx.gamma
    return np.array([1.0, 3.0 / (2.0 * (1.0 + g)), -3.0 / (2.0 * (1.0 - g**2))])


def _plancherel_factor(idx):
    """Puts the moment-route integrals in the same absolute normalization as
    the calibrated extension: alpha^2 * 2^(2g+2-n) / Gamma(m/2)^2.

    This is (2 pi)^(-n) d2^2 for the Fourier-profile constant d2 pinned by
    matching the extension's center value (see the bubble module).
    """
    alpha = constants(idx).alpha
    return alpha**2 * 2.0 ** (2.0 * idx.gamma + 2.0 - idx.n) / math.gamma(idx.m / 2.0) ** 2


def _integrals_from_moments(idx):
    idx.require_supercritical("the quadratic integrals")
    t = compute_moments(idx)
    n = idx.n
    S = sphere_area(n) * _plancherel_factor(idx)
    A1, A3 = t.A[1], t.A[3]
    Ap2, Ap4 = t.Ap[2], t.Ap[4]
    App3 = t.App[3]
    B2, Bp1 = t.B[2], t.Bp[1]
    C0 = S * A3 * B2
    I = np.array(
        [
            S * A1 * B2,
            -S * (n * A1 * B2 + A1 * Bp1 + Ap2 * B2),
            S * Ap2 * B2,
            -S * (n * Ap2 * B2 + Ap2 * Bp1 + App3 * B2),
            -C0,
            C0,
            S * App3 * B2,
            -(n / 2.0) * C0,
            -S * Ap4 * B2,
        ]
    )
    return IntegralSet(I=I, C0=C0)


# ---------------------------------------------------------------------------
# direct 2-D route


# the width of the core grid's first z-panel, one Gauss-Jacobi panel in the
# weight z^(1-2g): the z^(2g) term of the fields' trace expansion is not in
# its polynomial space, and its error grows like _Z_FIRST^2 (at 1e-4,
# (11, 0.35) loses two digits to 4.2e-12 relative)
_Z_FIRST = 1e-6


def _jacobi_end_panel(h, a):
    """A 12-node Gauss-Jacobi panel on [0, h] in the distance d to an
    endpoint singularity d^a, a > -1: the distances (descending) and their
    weights, each divided by the weight function d^a at its node, so the
    rule takes the plain integrand values."""
    from scipy.special import roots_jacobi  # keeps scipy.special off the import path

    x, wx = roots_jacobi(12, a, 0.0)  # weight (1 - x)^a on [-1, 1]
    return 0.5 * h * (1.0 - x), 0.5 * h * wx / (1.0 - x) ** a


def _grid_rules(idx, R):
    """The core rule on [0, R]^2.  In r, 10-node Gauss-Legendre panels whose
    widths grow geometrically all the way to R, by 1.6 from 0.05.  In z, one
    12-node Gauss-Jacobi panel in the weight z^(1-2g) on [0, _Z_FIRST] (every
    integrand is that weight times z to an integer power times the fields,
    and the weight is singular at z = 0 for g > 1/2), then 10-node
    Gauss-Legendre panels from _Z_FIRST that grow by 2.2 all the way to R.
    The integrands are analytic away from z = 0 and vary on the scale of the
    distance to the origin, so no width cap is needed: this is 150 x 242
    points at R = 64 and 130 x 232 at R = 32, and capping the widths at 1
    (and the ratios at 1.35 and 1.7: 720 x 912 points at R = 64, the same
    first z-panel) moves no total beyond 2.1e-14 relative on a sweep of 17
    indices with n = 3 ... 12."""
    r, wr = gauss_panels(graded_edges(0.0, R, 0.05, ratio=1.6), 10)
    d, wd = _jacobi_end_panel(_Z_FIRST, 1.0 - 2.0 * idx.gamma)
    z, wz = gauss_panels(graded_edges(_Z_FIRST, R, 1.2 * _Z_FIRST, ratio=2.2), 10)
    return r, wr, np.concatenate([d[::-1], z]), np.concatenate([wd[::-1], wz])

_FIELDS = ("W", "Wr_over_r", "Wz", "lap_tan")


def _field_pack(idx, r, z, f):
    """Complete the fields ``f`` at the points (r, z), which broadcast
    against f's arrays, with the integrand building blocks Wr and Z0."""
    f["Wr"] = r * f["Wr_over_r"]
    f["Z0"] = bubble.dilation_field(idx, r, z, f)
    return f


def _nine_integrands(idx, r, f):
    """Pointwise integrand values as (z_exponent, array) pairs, one at a
    time, so the caller can reduce each before the next is built: the nine
    quadratic integrals first, then the three combined functionals.  ``r``
    broadcasts against the arrays of ``f``: r[:, None] on a tensor grid, the
    paired radii on arcs.  The r^(n-1) area factor and the z-power weights
    are applied by the caller."""
    g = idx.gamma
    n = idx.n
    yield 1.0 - 2 * g, f["W"] ** 2
    yield 1.0 - 2 * g, r * f["W"] * f["Wr"]
    yield 2.0 - 2 * g, f["W"] * f["Wz"]
    yield 2.0 - 2 * g, r * f["Wr"] * f["Wz"]
    yield 3.0 - 2 * g, f["W"] * f["lap_tan"]
    yield 3.0 - 2 * g, f["Wr"] ** 2
    yield 3.0 - 2 * g, f["Wz"] ** 2
    # W_rr = lap_tan - (n - 1) W_r / r
    yield 3.0 - 2 * g, r * f["Wr"] * (f["lap_tan"] - (n - 1) * f["Wr_over_r"])
    yield 4.0 - 2 * g, f["Wz"] * f["lap_tan"]
    # combined functionals against the dilation field
    yield 3.0 - 2 * g, f["lap_tan"] * f["Z0"]
    yield 2.0 - 2 * g, f["Wz"] * f["Z0"]
    yield 1.0 - 2 * g, f["W"] * f["Z0"]


@lru_cache(maxsize=16)
def _tail_theta_rule(g):
    """The tail's polar-angle rule, 84 nodes: 12-node Gauss-Legendre panels
    split at pi/4 (the square-complement boundary radius has a kink there)
    and graded toward the equator over six levels, then one 12-node
    Gauss-Jacobi panel against the weight (pi/2 - theta)^(1-2g) up to the
    equator.  Every integrand carries a z-power 1 - 2g plus an integer, and
    z = rho sin(pi/2 - theta), so this one panel fits all twelve; each of
    its weights is divided by the weight function at its node, so the rule
    takes the plain integrand values.  The arrays are shared: read-only."""
    dist = 0.25 * math.pi * 0.55 ** np.arange(6)
    th, wth = gauss_panels(np.concatenate([[0.0], 0.5 * math.pi - dist]), 12)
    d, wd = _jacobi_end_panel(dist[-1], 1.0 - 2.0 * g)
    th = np.concatenate([th, 0.5 * math.pi - d])
    wth = np.concatenate([wth, wd])
    th.setflags(write=False)
    wth.setflags(write=False)
    return th, wth


def _default_radius(idx):
    """The direct route's truncation radius: 32 where the integrands decay
    fast (n - 2g > 4), else 64.  A power of two, so the core grid, whose
    largest r rounds up to R, and the outer tail arc share one s-rule."""
    return 32.0 if idx.n - 2.0 * idx.gamma > 4.0 else 64.0


# sample arcs of the tail fit, as fractions of R
_ARCS = np.array([0.2, 0.25, 0.28, 0.33, 0.4, 0.5, 0.63, 0.8, 1.0])


def _tail_exponents(g):
    """Relative correction exponents e of the far field, rho^(-q) sum_e
    c_e rho^(-e).  The inversion W(x) = |x|^(-m) W(x/|x|^2) maps the far
    field to the trace expansion W ~ w + c z^(2g) + d z^2 near the origin,
    with |x|^(-1) in place of the distance to it: W has relative corrections
    rho^(-2g) and rho^(-2) (the Taylor term of w and d z^2), and
    W_z ~ 2g c z^(2g-1) + 2 d z adds rho^(-(2-2g)).  Every integrand is a
    product of two fields, so its exponents are the pairwise sums of the
    single-field set {0, 2g, 2 - 2g, 2}: 0, 2g, 4g, 2 - 2g, 2, 2 + 2g,
    4 - 4g, 4 - 2g and 4, with coinciding ones merged."""
    single = np.array([0.0, 2.0 * g, 2.0 - 2.0 * g, 2.0])
    return np.unique(np.round(single[:, None] + single[None, :], 12))


def _integrals_direct(idx, R=None):
    if R is None:
        R = _default_radius(idx)
    if not (math.isfinite(R) and R > 0.0):
        raise DomainError(f"the truncation radius R must be finite and > 0, got R = {R}")
    idx.require_supercritical("the quadratic integrals")
    n, g = idx.n, idx.gamma
    S = sphere_area(n)
    r, wr, z, wz = _grid_rules(idx, R)
    rc, zc = r[:, None], z[None, :]
    f = _field_pack(idx, rc, zc, bubble.radial_profiles(idx, r, z, _FIELDS))
    area_r = wr * r ** (n - 1)
    core = np.array(
        [S * (area_r @ F @ (wz * z**pz)) for pz, F in _nine_integrands(idx, rc, f)]
    )

    # tail over the complement of the square [0,R]^2: per polar angle, fit the
    # radial profile of each integrand to its leading power rho^(-q) times the
    # correction powers of _tail_exponents, on the nine arcs R * _ARCS, and
    # integrate the fit outward
    th, wth = _tail_theta_rule(g)
    arcs = R * _ARCS
    q = n - 2.0 * g  # F_total ~ rho^(-q) g(theta), with F_total = F * r^(n-1) z^pz
    # all nine arcs from one evaluation: polar_profiles rescales a single
    # s-rule to each radius, so kernels and profiles are shared
    ra = arcs[:, None] * np.sin(th)
    za = arcs[:, None] * np.cos(th)
    fa = _field_pack(idx, ra, za, bubble.polar_profiles(idx, arcs, th, _FIELDS))
    samples = np.array(
        [F * ra ** (n - 1) * za**pz for pz, F in _nine_integrands(idx, ra, fa)]
    )
    # in units of R: fit Y(x) = F_total(x R) x^q = sum_e c_e x^(-e) on the
    # arcs x = _ARCS, all twelve integrands and every angle in one lstsq;
    # int_(rho0)^inf F_total rho drho = R^2 sum_e c_e u0^(2-q-e) / (q-2+e)
    # with u0 = rho0 / R
    expos = _tail_exponents(g)
    X = _ARCS[:, None] ** (-expos[None, :])
    Y = (samples * _ARCS[:, None] ** q).transpose(1, 0, 2).reshape(_ARCS.size, -1)
    coef = np.linalg.lstsq(X, Y, rcond=None)[0].reshape(expos.size, 12, th.size)
    u0 = 1.0 / np.maximum(np.sin(th), np.cos(th))
    radial = u0 ** (2.0 - q - expos[:, None]) / (q - 2.0 + expos[:, None])
    tails = S * R**2 * np.einsum("jkt,jt,t->k", coef, radial, wth)
    total = core + tails
    C0 = -total[4]  # I5 = -C0 exactly
    return IntegralSet(I=total[:9], C0=C0), total[9:]


def compute_integrals(idx, method="bessel_moments"):
    """The nine quadratic integrals and C0, by either route."""
    if method == "bessel_moments":
        return _integrals_from_moments(idx)
    if method == "direct_2d":
        iset, _ = _integrals_direct(idx)
        return iset
    raise DomainError(f"unknown method {method!r}")


def combined_integrals(idx, iset):
    """The three combined functionals assembled from the nine integrals."""
    I = iset.I
    m = idx.m
    n = idx.n
    first = I[7] + (n - 1) * I[5] + I[8] + 0.5 * m * I[4]
    second = I[3] + I[6] + 0.5 * m * I[2]
    third = I[1] + I[2] + 0.5 * m * I[0]
    return np.array([first, second, third])


def combined_integrals_direct(idx, R=None):
    """The three combined functionals by direct quadrature of the
    dilation-field-weighted integrands (independent of the nine-integral
    assembly).

    ``R`` is the truncation radius of the core square [0, R]^2, beyond which
    a far-field fit takes over; the default is ``_default_radius(idx)``.  It
    should be a power of two, so that the core grid and the tail arcs share
    one cached s-rule.  A finite R > 0 is required (else DomainError).  The
    accuracy falls fast at small R: at (4, 0.8) the worst relative error of
    the nine integrals over C0 is 1.1 at R = 4, 2.1e-2 at R = 8, 1.3e-3 at
    R = 16, 5.6e-5 at R = 32 and 1.8e-6 at the default R = 64."""
    _, combined = _integrals_direct(idx, R=R)
    return np.asarray(combined)
