"""Pohozaev-type boundary functionals, the energy-coefficient assembly, the
sign coefficient in closed form, and the dimension gate.

The surface functional lives on the interior half-sphere of radius r:

    P(U, r) = kappa * int_{half-sphere} z^(1-2g)
                [ (m/2) u u_rho - (rho/2)|grad u|^2 + rho u_rho^2 ] dsigma
              + (r/(p+1)) * oint_{boundary sphere} f^(-delta) u^(p+1),

and P' is the kappa part alone.  Fields are axisymmetric functions of
(r, z) = (|xbar|, x_N) exposing ``value``, ``grad`` and ``value_grad``, which
returns both from one evaluation.
"""
from dataclasses import dataclass
import math

import numpy as np

from . import bubble
from ._quad import halfsphere_rule
from .errors import DomainError
from .specfun import constants, sphere_area

__all__ = [
    "PohozaevReport",
    "CoefficientReport",
    "BubbleExtensionField",
    "PowerField",
    "pohozaev_P",
    "pohozaev_Pprime",
    "weighted_halfsphere_area",
    "assemble_Fhat",
    "coefficient",
    "coefficient_numerator",
    "c_value",
    "dimension_gate",
    "local_sign_bound",
]


@dataclass
class PohozaevReport:
    r: float
    surface_term: float   # the weighted half-sphere integral (without kappa)
    boundary_term: float  # the trace-sphere nonlinear term
    total: float          # kappa * surface_term + boundary_term


@dataclass
class CoefficientReport:
    n: int
    gamma: float
    c_value: float
    positive: bool
    gate_1_2: bool
    boundary_zero: bool = False


class BubbleExtensionField:
    """The unit bubble's extension as an axisymmetric half-space field."""

    def __init__(self, idx):
        self.idx = idx
        self._half = abs(idx.gamma - 0.5) < 1e-14

    def _profiles(self, r, z, fields):
        """The bubble fields at the paired points (r, z), in their
        broadcast shape, from one s-rule keyed on the largest r."""
        r, z = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(z, dtype=float))
        f = bubble.paired_profiles(self.idx, r.ravel(), z.ravel(), fields)
        return r, {k: v.reshape(r.shape) for k, v in f.items()}

    def value(self, r, z):
        if self._half:
            return bubble.extension_gamma_half(self.idx, r, z)
        return self._profiles(r, z, ("W",))[1]["W"]

    def grad(self, r, z):
        r = np.asarray(r, dtype=float)
        z = np.asarray(z, dtype=float)
        if self._half:
            alpha = constants(self.idx).alpha
            q = self.idx.m / 2.0
            u = 1.0 + z
            den = u**2 + r**2
            W = alpha * den ** (-q)
            return -2.0 * q * r * W / den, -2.0 * q * u * W / den
        r, f = self._profiles(r, z, ("Wr_over_r", "Wz"))
        return r * f["Wr_over_r"], f["Wz"]

    def value_grad(self, r, z):
        """(u, u_r, u_z) from one paired evaluation: the same per-point sums
        as ``value`` and ``grad``."""
        if self._half:
            return (self.value(r, z), *self.grad(r, z))
        r, f = self._profiles(r, z, ("W", "Wr_over_r", "Wz"))
        return f["W"], r * f["Wr_over_r"], f["Wz"]

    def trace(self, r):
        return bubble._trace_radial(self.idx, r)


class PowerField:
    """u = sum_k c_k |x|^(-mu_k) over the punctured half-space."""

    def __init__(self, coeffs, exponents):
        self.coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
        self.exponents = np.atleast_1d(np.asarray(exponents, dtype=float))
        if self.coeffs.shape != self.exponents.shape:
            raise DomainError("coeffs and exponents must have matching shapes")

    def value(self, r, z):
        rho = np.sqrt(np.asarray(r, dtype=float) ** 2 + np.asarray(z, dtype=float) ** 2)
        return sum(c * rho ** (-mu) for c, mu in zip(self.coeffs, self.exponents))

    def grad(self, r, z):
        r = np.asarray(r, dtype=float)
        z = np.asarray(z, dtype=float)
        rho2 = r**2 + z**2
        dr = sum(
            -mu * c * rho2 ** (-(mu + 2.0) / 2.0) * r
            for c, mu in zip(self.coeffs, self.exponents)
        )
        dz = sum(
            -mu * c * rho2 ** (-(mu + 2.0) / 2.0) * z
            for c, mu in zip(self.coeffs, self.exponents)
        )
        return dr, dz

    def value_grad(self, r, z):
        return (self.value(r, z), *self.grad(r, z))

    def trace(self, r):
        return self.value(np.asarray(r, dtype=float), 0.0)


def weighted_halfsphere_area(idx, r=1.0):
    """oint z^(1-2g) dsigma over the half-sphere of radius r (quadrature)."""
    w = halfsphere_rule(idx.n, idx.gamma)[3]
    return sphere_area(idx.n) * r ** (idx.n + 1.0 - 2.0 * idx.gamma) * np.sum(w)


def weighted_halfsphere_area_closed(idx, r=1.0):
    """Closed form |S^(n-1)| * Gamma(n/2)Gamma(1-g) / (2 Gamma((n+2-2g)/2))."""
    n, g = idx.n, idx.gamma
    return (
        sphere_area(n)
        * r ** (n + 1.0 - 2.0 * g)
        * math.gamma(n / 2.0)
        * math.gamma(1.0 - g)
        / (2.0 * math.gamma((n + 2.0 - 2.0 * g) / 2.0))
    )


def _surface_integral(idx, field, r):
    """The weighted half-sphere integral of the dilation-tested bulk terms."""
    n, g = idx.n, idx.gamma
    m = idx.m
    _, c, s, w = halfsphere_rule(n, g)
    u, ur, uz = field.value_grad(r * s, r * c)
    # the weight's square root goes into each factor: near the equator the
    # squared normal derivative would overflow where its weighted value does
    # not
    q = np.sqrt(w)
    u, ur, uz = q * u, q * ur, q * uz
    u_rho = s * ur + c * uz
    integrand = 0.5 * m * u * u_rho - 0.5 * r * (ur**2 + uz**2) + r * u_rho**2
    return sphere_area(n) * r ** (n + 1.0 - 2.0 * g) * np.sum(integrand)


def pohozaev_Pprime(idx, field, r):
    """The kappa-weighted half-sphere part of the identity."""
    if r <= 0.0:
        raise DomainError("radius must be positive")
    return constants(idx).kappa * _surface_integral(idx, field, r)


def pohozaev_P(idx, field, r, p=None, f=None, delta=0.0):
    """Full functional: surface part plus the trace-sphere nonlinear term.

    ``f`` is a radial boundary function (callable of r) or None for f == 1;
    the boundary term uses the field's trace.
    """
    if r <= 0.0:
        raise DomainError("radius must be positive")
    if p is None:
        p = idx.p_critical
    surf = _surface_integral(idx, field, r)
    u_tr = float(field.trace(r))
    f_val = 1.0 if f is None else float(f(r))
    boundary = (
        r / (p + 1.0) * sphere_area(idx.n) * r ** (idx.n - 1.0)
        * f_val ** (-delta) * u_tr ** (p + 1.0)
    )
    kappa = constants(idx).kappa
    return PohozaevReport(
        r=r,
        surface_term=surf,
        boundary_term=boundary,
        total=kappa * surf + boundary,
    )


def limit_value_oracle(idx, c1=1.0):
    """Independent closed form for P' on U = c1(|x|^(-m) + 1), any radius.

    The two pure powers |x|^0 and |x|^(-m) are individually annihilated by
    the surface integrand; the bilinear cross terms sum pointwise to
    -(m^2/2) c1^2 rho^(-m-1), and the weighted sphere area scales as
    r^(m+1), so the value is independent of the sphere radius.
    """
    m = idx.m
    kappa = constants(idx).kappa
    return -kappa * c1**2 * 0.5 * m**2 * weighted_halfsphere_area_closed(idx)


# The closed forms below take Python scalars or numpy arrays alike and give
# the same bits either way: gamma is squared by multiplication.


def coefficient_numerator(n, gamma):
    """Numerator polynomial 3n^2 + n(16 gamma^2 - 22) + 20(1 - gamma^2)."""
    g2 = gamma * gamma
    return 3.0 * n**2 + n * (16.0 * g2 - 22.0) + 20.0 * (1.0 - g2)


def c_value(n, gamma):
    """Closed-form sign coefficient numerator / (8 n (n-1)(1 - gamma^2))."""
    return coefficient_numerator(n, gamma) / (8.0 * n * (n - 1.0) * (1.0 - gamma * gamma))


_GATE_EDGES = (math.sqrt(1.0 / 19.0), 0.5, math.sqrt(5.0 / 11.0))


def dimension_gate(n, gamma):
    """The piecewise dimension threshold in gamma: n >= 7, 6, 5, 4 on the
    pieces cut at the edges sqrt(1/19), 1/2, sqrt(5/11)."""
    return n >= 7 - sum(gamma > edge for edge in _GATE_EDGES)


def coefficient(idx):
    """Closed-form sign coefficient and the dimension-gate lookup."""
    n, g = idx.n, idx.gamma
    if n < 3:
        raise DomainError("coefficient requires n >= 3")
    c = c_value(n, g)
    return CoefficientReport(
        n=n,
        gamma=g,
        c_value=c,
        positive=c > 0.0,
        gate_1_2=dimension_gate(n, g),
        boundary_zero=abs(coefficient_numerator(n, g)) < 1e-12,
    )


def assemble_Fhat(idx, combined):
    """Energy coefficient from the three combined functionals.

    ``combined`` is (first, second, third) as returned by
    ``moments.combined_integrals``; the first equals C0, which normalizes the
    result so it can be compared to ``coefficient().c_value`` directly.
    """
    first, second, third = (float(v) for v in np.asarray(combined))
    n = idx.n
    m = idx.m
    bracket = (
        -m / (4.0 * (n - 1.0)) * third
        - (4.0 * n - 5.0) / (2.0 * n * (n - 1.0)) * first
        - 1.0 / (2.0 * (n - 1.0)) * second
    )
    return bracket / first


def local_sign_bound(idx, eps_hat, r, Cs, eta):
    """The lower-bound expression controlling the sign of the local term."""
    if eps_hat <= 0.0 or r <= 0.0 or eta <= 0.0:
        raise DomainError("eps_hat, r, eta must be positive")
    C1, C2, C3, C4 = Cs
    n = idx.n
    m = idx.m
    return (
        eps_hat**2 * C1
        - eps_hat ** (2.0 + eta) * r ** (2.0 - eta) * C2
        - eps_hat**m * r ** (-n + 2.0 * idx.gamma + 1.0) * C3
        - eps_hat**n * r**n * C4 / (eps_hat ** (2.0 * n) + r ** (2.0 * n))
    )
