"""Special functions and closed-form constants consumed by every other module.

The profile functions below arise from separating variables in the weighted
half-space problem div(x_N^{1-2g} grad W) = 0: radially, the multiplier on a
frequency-s mode is phi(s*x_N) where phi solves

    phi'' + ((1-2g)/t) phi' - phi = 0,   phi(0) = 1,  phi(inf) = 0,

whose decaying solution is d1 * t^g * K_g(t) with d1 = 2^(1-g)/Gamma(g).
The radial Fourier profile of the standard trace bubble is proportional to
t^(-g) * K_g(t); its overall normalization is a free choice (see
``profile_what``) and is pinned downstream by a single calibration.
"""
from dataclasses import dataclass
import math

import numpy as np
from scipy import special

from .errors import DomainError

__all__ = [
    "ProblemIndex",
    "Constants",
    "gamma_fn",
    "bessel_k",
    "profile_phi",
    "profile_phi_prime",
    "profile_what",
    "profile_what_prime",
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
    if np.any(arr <= 0.0):
        raise DomainError("gamma_fn requires positive arguments")
    if arr.ndim == 0:
        return math.gamma(float(arr))
    return special.gamma(arr)


def bessel_k(order, t):
    """Modified Bessel function of the second kind K_order(t), t > 0."""
    tt = np.asarray(t, dtype=float)
    if np.any(tt <= 0.0):
        raise DomainError("bessel_k requires t > 0")
    out = special.kv(order, tt)
    if tt.ndim == 0:
        return float(out)
    return out


def _d1(g):
    return 2.0 ** (1.0 - g) / math.gamma(g)


# K_nu(t) ~ sqrt(pi/(2t)) e^(-t) underflows near t ~ 700; past this cutoff
# every profile is exactly 0 in floating point and kv is not called
_T_UNDERFLOW = 690.0


def _profile(name, t, f, at_zero=None):
    """Evaluate a profile: ``f`` on the points 0 < t <= _T_UNDERFLOW, exactly
    0 beyond (inf included) and ``at_zero`` at t = 0, where it is defined.
    NaN and points outside the domain raise DomainError."""
    tt = np.asarray(t, dtype=float)
    if np.any(np.isnan(tt)):
        raise DomainError(f"{name} got NaN")
    if at_zero is None and np.any(tt <= 0.0):
        raise DomainError(f"{name} requires t > 0")
    if np.any(tt < 0.0):
        raise DomainError(f"{name} requires t >= 0")
    out = np.zeros_like(tt)
    live = (tt > 0.0) & (tt <= _T_UNDERFLOW)
    out[live] = f(tt[live])
    if at_zero is not None:
        out[tt == 0.0] = at_zero
    if tt.ndim == 0:
        return float(out)
    return out


def _gamma_of(idx):
    return idx.gamma if isinstance(idx, ProblemIndex) else float(idx)


def profile_phi(idx, t):
    """Decaying profile phi(t) = d1 * t^gamma * K_gamma(t), phi(0) = 1."""
    g = _gamma_of(idx)
    return _profile(
        "profile_phi", t, lambda ts: _d1(g) * ts**g * special.kv(g, ts), at_zero=1.0
    )


def profile_phi_prime(idx, t):
    """d/dt of profile_phi; equals -d1 * t^gamma * K_(1-gamma)(t) for t > 0."""
    g = _gamma_of(idx)
    return _profile(
        "profile_phi_prime", t, lambda tt: -_d1(g) * tt**g * special.kv(1.0 - g, tt)
    )


def profile_what(idx, t):
    """Radial Fourier profile t^(-gamma) * K_gamma(t) of the trace bubble.

    The absolute normalization is a free choice here (only ratios of the
    weighted moments are determined); the extension evaluator calibrates the
    single multiplicative constant it needs against the bubble's center value.
    """
    g = _gamma_of(idx)
    return _profile("profile_what", t, lambda tt: tt ** (-g) * special.kv(g, tt))


def profile_what_prime(idx, t):
    """d/dt of profile_what: -2*gamma*t^(-gamma-1)*K_gamma - t^(-gamma)*K_(1-gamma)."""
    g = _gamma_of(idx)
    return _profile(
        "profile_what_prime",
        t,
        lambda tt: -2.0 * g * tt ** (-g - 1.0) * special.kv(g, tt)
        - tt ** (-g) * special.kv(1.0 - g, tt),
    )


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
