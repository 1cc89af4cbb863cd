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

The direct route (``method="direct_2d"``) integrates the fields themselves,
with no truncation: the bubble extension is invariant under the inversion
x -> x/|x|^2, W(x) = |x|^(-m) W(x/|x|^2) with m = n - 2g, so the half-space
outside the unit half-ball is the unit half-ball again, and every integral
is one sum over it.  In polar coordinates (rho, theta), with the fields
scaled to be scale-free, each integrand is rho^(n+1-2g) times angular
factors inside and rho^(n-3-2g) times the image fields outside
(``_integrals_direct``).  The rule is a Gauss-Jacobi panel in
rho^(n-3-2g) on [0, 1e-8] and Gauss panels of ratio 2 up to 1, times the
Pohozaev half-sphere rule (``_quad.halfsphere_rule``).  The fields at
rho >= 1/32 come from one ``bubble.polar_profiles`` band and inside 1/32
from the origin expansion (``bubble._origin_fields``).
"""
from dataclasses import dataclass, field
import math

import numpy as np

from . import bubble
from ._quad import gauss_panels, graded_edges, halfsphere_rule, jacobi_end_panel
from .errors import DomainError, NumericError
from .specfun import _d1, constants, sphere_area

# a stand-in for the tracer in perfbench/tracing.py, which patches this name
# (ROADMAP item 1 drops that wrapper)
integrate = None

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


# the width of the rho-rule's first panel, one Gauss-Jacobi panel in the
# weight rho^(n-3-2g): the fields' rho^(2g) branches are not in its
# polynomial space, and at (3, 0.45) their error falls in proportion to the
# width (2.8e-8 relative at 1e-4, 2.8e-10 at 1e-6, 3.5e-12 here, where the
# Fourier-Bessel floor takes over)
_RHO_FIRST = 1e-8

_FIELDS = ("W", "Wr_over_r", "Wz", "lap_tan", "Wrz_over_r")


def _rho_rule(idx):
    """The rule on 0 < rho <= 1: one 12-node Gauss-Jacobi panel in the
    weight rho^(n-3-2g) on [0, _RHO_FIRST] (the exterior integrands carry
    that power, singular at 0 for n - 2g < 3; the interior ones carry it
    times rho^4), then 10-node Gauss-Legendre panels from _RHO_FIRST that
    double in width up to 1.  The weights take the plain integrand values."""
    d, wd = jacobi_end_panel(_RHO_FIRST, idx.n - 3.0 - 2.0 * idx.gamma)
    rho, w = gauss_panels(graded_edges(_RHO_FIRST, 1.0, _RHO_FIRST, ratio=2.0), 10)
    return np.concatenate([d[::-1], rho]), np.concatenate([wd[::-1], w])


def _half_ball_fields(idx, rho, d, c, s):
    """The fields at the points (rho s, rho c) of the unit half-ball, as
    (len(rho), len(d)) arrays, each times the power of rho that makes it
    scale-free: W, R = rho^2 Wr_over_r, Z = rho Wz, L = rho^2 lap_tan,
    T = rho^3 Wrz_over_r, Wrr = rho^2 W_rr and the dilation field
    Q = Z^0; from the origin expansion below bubble._ORIGIN_RADIUS, from
    one polar_profiles band above."""
    inner = rho < bubble._ORIGIN_RADIUS
    near = bubble._origin_fields(idx, np.outer(rho[inner], s), np.outer(rho[inner], c), _FIELDS)
    far = bubble.polar_profiles(idx, rho[~inner], d=d, fields=_FIELDS)
    f = {k: np.concatenate([near[k], far[k]]) for k in _FIELDS}
    p = rho[:, None]
    R, L = p**2 * f["Wr_over_r"], p**2 * f["lap_tan"]
    return {"W": f["W"], "R": R, "Z": p * f["Wz"], "L": L, "T": p**3 * f["Wrz_over_r"],
            "Wrr": L - (idx.n - 1.0) * R, "Q": bubble.dilation_field(idx, p * s, p * c, f)}


def _kelvin(idx, c, s, f):
    """The scale-free fields of ``_half_ball_fields`` at x = y/|y|^2, over
    |y|^m, from those at y, where (c, s) = (z, r)/|y| at both points.

    From W(x) = |y|^m W(y) (m = n - 2g) and x/|x| = y/|y|, every field at x
    is |y|^m times a fixed combination of the fields at y.  The Hessian of
    W at y enters through W_rr = lap_tan - (n - 1) W_r/r, W_rz = r Wrz_over_r
    and the equation, z^2 W_zz = -z^2 lap_tan - (1 - 2g) z W_z, so that
    nothing is divided by z.  The dilation field Q = Z^0 only changes
    sign."""
    n, g, m = idx.n, idx.gamma, idx.m
    W, R, Z, L, T = (f[k] for k in "WRZLT")
    c2, s2 = c * c, s * s
    d = c2 - s2
    Rx = d * R - m * W - 2.0 * c * Z
    Zx = -m * c * W - 2.0 * s2 * c * R - d * Z
    Wrr = (
        m * ((m + 2.0) * s2 - 1.0) * W
        - (2.0 * m * s2 * d + (n - 1.0) * d * d - 2.0 * s2 * (s2 - 3.0 * c2)) * R
        + 2.0 * c * ((2.0 * n + 1.0) * s2 - c2) * Z
        + (d * d - 4.0 * s2 * c2) * L
        - 4.0 * s2 * c * d * T
    )
    return {"W": W, "R": Rx, "Z": Zx, "L": Wrr + (n - 1.0) * Rx, "Wrr": Wrr, "Q": -f["Q"]}


def _integrand_factors(s, f):
    """The twelve integrands, the nine quadratic integrals and then the three
    combined functionals, as (k, X, Y): in the scale-free fields ``f`` each
    one is rho^(n+1-2g) c^k X Y times the rule's weight c^(1-2g) s^(n-1)
    (the area factor r^(n-1) z^(1-2g+k) dr dz)."""
    W, R, Z, L, Wrr, Q = (f[k] for k in ("W", "R", "Z", "L", "Wrr", "Q"))
    sW, sR, ssR = s * W, s * R, s * s * R
    return [
        (0, W, W), (0, sW, sR), (1, W, Z), (1, ssR, Z), (2, W, L), (2, sR, sR),
        (2, Z, Z), (2, ssR, Wrr), (3, Z, L),
        # the combined functionals against the dilation field
        (2, L, Q), (1, Z, Q), (0, W, Q),
    ]


def _integrals_direct(idx):
    """The twelve totals: with a = n - 3 - 2g, sum w rho^(a+4) c^k X Y over
    the unit half-ball plus, by x = y/|y|^2, sum w rho^a c^k X' Y' with the
    fields of ``_kelvin``.  Each power of rho is one exponent, and the
    square root of each weight goes into each factor: near the equator the
    raw products would overflow where their weighted values do not."""
    idx.require_supercritical("the quadratic integrals")
    a = idx.n - 3.0 - 2.0 * idx.gamma
    rho, wrho = _rho_rule(idx)
    d, c, s, wth = halfsphere_rule(idx.n, idx.gamma)
    f = _half_ball_fields(idx, rho, d, c, s)
    total = np.zeros(12)
    for power, g in ((a + 4.0, f), (a, _kelvin(idx, c, s, f))):
        root = np.sqrt(wrho) * rho ** (0.5 * power)
        for j, (k, X, Y) in enumerate(_integrand_factors(s, g)):
            q = np.outer(root, np.sqrt(wth) * c ** (0.5 * k))
            total[j] += np.sum((q * X) * (q * Y))
    total *= sphere_area(idx.n)
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


def combined_integrals_direct(idx):
    """The three combined functionals by direct quadrature of the
    dilation-field-weighted integrands (independent of the nine-integral
    assembly), on the unit half-ball and its image under the inversion."""
    _, combined = _integrals_direct(idx)
    return np.asarray(combined)
