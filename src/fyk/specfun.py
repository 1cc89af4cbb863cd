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
import os
import threading

import numpy as np
from scipy import special

from . import _threads
from .errors import DomainError, NumericError

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
    if np.any(np.isnan(arr)):
        raise DomainError("gamma_fn got NaN")
    if np.any(arr <= 0.0):
        raise DomainError("gamma_fn requires positive arguments")
    if arr.ndim == 0:
        return math.gamma(float(arr))
    return special.gamma(arr)


def bessel_k(order, t):
    """Modified Bessel function of the second kind K_order(t), t > 0."""
    tt = np.asarray(t, dtype=float)
    if np.any(np.isnan(tt)):
        raise DomainError("bessel_k got NaN")
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

# points per chunk of a profile evaluation; an input of at most one chunk is
# evaluated in the calling thread, a larger one chunk by chunk on the pool
_CHUNK = 1 << 16

_pool_lock = threading.Lock()
_pool = None  # (threads, executor or None), made by _profile_pool on first use


def _forget_pool():
    # a forked child has none of the parent's worker threads: work queued on
    # the inherited executor would never run, so the child makes its own
    global _pool, _pool_lock
    _pool_lock = threading.Lock()
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _profile_pool():
    """The pool that evaluates profile chunks, as (threads, executor).

    Its size is read once, on first use: FYK_THREADS when set, else the CPUs
    this process may run on.  With one thread there is no executor and the
    chunks run in the calling thread."""
    global _pool
    with _pool_lock:
        if _pool is None:
            n = _threads.threads()
            if n > 1:
                from concurrent.futures import ThreadPoolExecutor

                _pool = (n, ThreadPoolExecutor(n, thread_name_prefix="fyk-profile"))
            else:
                _pool = (1, None)
        return _pool


def _profile_chunk(name, f, at_zero, t, out):
    """Write the profile of the 1-D points ``t`` into ``out`` (same length).

    numpy's error state is per thread, so it is set here, where the chunk
    runs: an overflow past the float range raises NumericError."""
    live = (t > 0.0) & (t <= _T_UNDERFLOW)
    with np.errstate(over="ignore"):
        vals = f(t[live])
    if not np.all(np.isfinite(vals)):
        bad = float(t[live][~np.isfinite(vals)][0])
        raise NumericError(
            f"{name} exceeds the float range at t = {bad!r}", {"t": bad}
        )
    out[live] = vals
    if at_zero is not None:
        out[t == 0.0] = at_zero


def _profile(name, t, f, at_zero=None):
    """Evaluate a profile: ``f`` on the points 0 < t <= _T_UNDERFLOW, exactly
    0 beyond (inf included) and ``at_zero`` at t = 0, where it is defined.
    NaN and points outside the domain raise DomainError, a value past the
    float range NumericError.

    The flattened input is cut into chunks of _CHUNK points that write into
    disjoint slices of the output, so the result does not depend on how many
    threads evaluate them; kv releases the GIL, so the threads overlap."""
    tt = np.asarray(t, dtype=float)
    if np.any(np.isnan(tt)):
        raise DomainError(f"{name} got NaN")
    if at_zero is None and np.any(tt <= 0.0):
        raise DomainError(f"{name} requires t > 0")
    if np.any(tt < 0.0):
        raise DomainError(f"{name} requires t >= 0")
    out = np.zeros(tt.shape)
    flat_t, flat_out = tt.reshape(-1), out.reshape(-1)
    chunks = [slice(i, i + _CHUNK) for i in range(0, flat_t.size, _CHUNK)]
    pool = _profile_pool()[1] if len(chunks) > 1 else None
    if pool is None:
        for c in chunks:
            _profile_chunk(name, f, at_zero, flat_t[c], flat_out[c])
    else:
        futures = [
            pool.submit(_profile_chunk, name, f, at_zero, flat_t[c], flat_out[c])
            for c in chunks
        ]
        # wait for every chunk before raising the first error, so that no
        # worker still writes into out once this call has returned
        errors = [fut.exception() for fut in futures]
        for exc in errors:
            if exc is not None:
                raise exc
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
