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
import math

import numpy as np
# integrate is unused here; perfbench/tracing.py wraps moments.integrate by name
from scipy import integrate  # noqa: F401

from . import bubble
from ._quad import gauss_panels, graded_edges
from .errors import DomainError, NumericError
from .specfun import _d1, sphere_area

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
    from .specfun import constants as _constants

    alpha = _constants(idx).alpha
    return alpha**2 * 2.0 ** (2.0 * idx.gamma + 2.0 - idx.n) / math.gamma(idx.m / 2.0) ** 2


def _integrals_from_moments(idx):
    idx.require_supercritical("the quadratic integrals")
    t = compute_moments(
        idx,
        {"A": (1, 3), "Ap": (2, 4), "App": (3,), "B": (2,), "Bp": (1,)},
    )
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


def _grid_rules(idx, R):
    r_edges = graded_edges(0.0, R, 0.05, ratio=1.35, h_max=1.0)
    # deep grading toward z = 0: the weight z^(1-2g) is singular for g > 1/2
    z_edges = graded_edges(0.0, R, 1e-9, ratio=1.7, h_max=1.0)
    r, wr = gauss_panels(r_edges, 10)
    z, wz = gauss_panels(z_edges, 10)
    return r, wr, z, wz

def _field_pack(idx, r, z):
    """All integrand building blocks on a tensor grid (z > 0)."""
    f = bubble.radial_profiles(idx, r, z, ("W", "Wr_over_r", "Wz", "lap_tan"))
    f["Wr"] = r[:, None] * f["Wr_over_r"]
    f["Z0"] = (
        r[:, None] * f["Wr"] + z[None, :] * f["Wz"] + 0.5 * idx.m * f["W"]
    )
    return f


def _nine_integrands(idx, r, z, f):
    """Pointwise integrand values as (z_exponent, 2-D array) pairs: the nine
    quadratic integrals first, then the three combined functionals.  The
    r^(n-1) area factor and the z-power weights are applied by the caller."""
    g = idx.gamma
    n = idx.n
    Wrr = f["lap_tan"] - (n - 1) * f["Wr_over_r"]
    vals = [
        (1.0 - 2 * g, f["W"] ** 2),
        (1.0 - 2 * g, r[:, None] * f["W"] * f["Wr"]),
        (2.0 - 2 * g, f["W"] * f["Wz"]),
        (2.0 - 2 * g, r[:, None] * f["Wr"] * f["Wz"]),
        (3.0 - 2 * g, f["W"] * f["lap_tan"]),
        (3.0 - 2 * g, f["Wr"] ** 2),
        (3.0 - 2 * g, f["Wz"] ** 2),
        (3.0 - 2 * g, r[:, None] * f["Wr"] * Wrr),
        (4.0 - 2 * g, f["Wz"] * f["lap_tan"]),
        # combined functionals against the dilation field
        (3.0 - 2 * g, f["lap_tan"] * f["Z0"]),
        (2.0 - 2 * g, f["Wz"] * f["Z0"]),
        (1.0 - 2 * g, f["W"] * f["Z0"]),
    ]
    return vals


def _integrals_direct(idx, R=None):
    if R is None:
        # push the truncation radius out when the integrands decay slowly
        R = 40.0 if idx.n - 2.0 * idx.gamma > 4.0 else 64.0
    idx.require_supercritical("the quadratic integrals")
    n, g = idx.n, idx.gamma
    S = sphere_area(n)
    r, wr, z, wz = _grid_rules(idx, R)
    f = _field_pack(idx, r, z)
    packs = _nine_integrands(idx, r, z, f)
    area_r = wr * r ** (n - 1)
    core = np.array([S * (area_r @ F @ (wz * z**pz)) for pz, F in packs])

    # tail over the complement of the square [0,R]^2: per polar angle, fit the
    # radial profile of each integrand to a + b*rho^-2 on three sample arcs
    # (shared homogeneity degree 2g - n) and integrate the fit outward
    # theta rule: split at pi/4 (the square-complement boundary radius has a
    # kink there) and grade toward the equator, where the z-power weights are
    # not smooth (and singular for g > 1/2)
    dist = 0.25 * math.pi * 0.55 ** np.arange(18)
    th_edges = np.concatenate([[0.0], 0.5 * math.pi - dist, [0.5 * math.pi]])
    th, wth = gauss_panels(th_edges, 12)
    arcs = R * np.array([0.4, 0.5, 0.63, 0.8, 1.0])
    q = n - 2.0 * g  # F_total ~ rho^(-q) g(theta), with F_total = F * r^(n-1) z^pz
    samples = np.empty((len(packs), arcs.size, th.size))
    for ia, rho in enumerate(arcs):
        ra = rho * np.sin(th)
        za = rho * np.cos(th)
        fa = _field_pack(idx, ra, za)
        pa = _nine_integrands(idx, ra, za, fa)
        for k, (pz, F) in enumerate(pa):
            samples[k, ia] = np.diagonal(F) * ra ** (n - 1) * za**pz
    tails = np.empty(len(packs))
    rho0 = R / np.maximum(np.sin(th), np.cos(th))
    # correction exponents of the radial profile: inversion of the extension
    # gives relative corrections rho^(-2g), rho^(-4g), rho^(-2), ...
    expos = np.unique(np.round(np.array([0.0, 2.0 * g, 4.0 * g, 2.0]), 12))
    X = arcs[:, None] ** (-expos[None, :])
    for k in range(len(packs)):
        Y = samples[k] * arcs[:, None] ** q
        coef, *_ = np.linalg.lstsq(X, Y, rcond=None)
        t_fit = sum(
            coef[j] * rho0 ** (2.0 - q - expos[j]) / (q - 2.0 + expos[j])
            for j in range(expos.size)
        )
        tails[k] = S * np.sum(wth * t_fit)
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
    assembly)."""
    _, combined = _integrals_direct(idx, R=R)
    return np.asarray(combined)
