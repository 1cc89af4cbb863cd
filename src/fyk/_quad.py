"""Internal quadrature helpers: composite Gauss rules on panel decompositions,
a Gauss-Jacobi end panel, and the weighted half-sphere rule."""
from functools import lru_cache
import math

import numpy as np
# numpy loads its submodules on first use; this one is imported with the
# library, so that no run pays for it inside its first rule
from numpy.polynomial.legendre import leggauss


@lru_cache(maxsize=32)
def _leg(order):
    x, w = leggauss(order)
    return x, w


def gauss_panels(edges, order=10):
    """Composite Gauss-Legendre rule over the panels defined by ``edges``.

    Returns (nodes, weights) as flat arrays covering [edges[0], edges[-1]].
    """
    edges = np.asarray(edges, dtype=float)
    x, w = _leg(order)
    a = edges[:-1]
    h = np.diff(edges)
    nodes = (a[:, None] + 0.5 * h[:, None] * (x[None, :] + 1.0)).ravel()
    weights = (0.5 * h[:, None] * w[None, :]).ravel()
    return nodes, weights


def graded_edges(a, b, h0, ratio=1.3, h_max=None):
    """Panel edges on [a, b] with width h0 at ``a`` growing geometrically."""
    edges = [a]
    h = h0
    while edges[-1] < b:
        edges.append(min(b, edges[-1] + h))
        h *= ratio
        if h_max is not None:
            h = min(h, h_max)
    return np.array(edges)


_JACOBI_NODES = 12


def _jacobi_series(n, a, y):
    """P_n^(a,0)(1 - 2y) up to its constant factor, as the terminating
    series sum_k c_k y^k of 2F1(-n, n + a + 1; a + 1; y) (DLMF 18.5.7), and
    its derivative in y and the sum of |c_k| y^k, by Horner's rule."""
    c = [1.0]
    for k in range(n):
        c.append(c[-1] * (k - n) * (k + n + a + 1.0) / ((k + a + 1.0) * (k + 1.0)))
    f, df, size = np.zeros_like(y), np.zeros_like(y), np.zeros_like(y)
    for ck in reversed(c):
        df = df * y + f
        f = f * y + ck
        size = size * y + abs(ck)
    return f, df, size


@lru_cache(maxsize=64)
def _gauss_jacobi(a):
    """The 12-node Gauss rule for the weight d^a on [0, 2], d = 1 - x the
    distance to x = 1: (d, weights), d descending.

    Golub and Welsch (1969): the nodes x are the eigenvalues of the Jacobi
    matrix of the weight (1 - x)^a on [-1, 1], and the weights are its
    mass 2^(a+1)/(a+1) times the squared first components of the
    eigenvectors.  An eigenvalue carries an absolute error of about eps, so
    d = 1 - x does so too, which is large relative to the nodes next to
    x = 1.  Those nodes are polished by Newton's method in y = d/2 on the
    series of P_12^(a,0)(1 - 2y), whose root then errs by about eps times the
    sum of its |terms| over its slope; a node takes the polished value where
    that is below the eigenvalue's eps.  Against 50-digit roots every node
    is within 2.4e-15 of its d, relative, for -0.9 <= a <= 20.9 (the
    eigenvalues alone: 3.3e-13 at a = -0.9)."""
    n = _JACOBI_NODES
    # recurrence coefficients of the monic Jacobi polynomials (beta = 0)
    k = np.arange(1.0, n)
    s = 2.0 * k + a
    diag = np.concatenate([[-a / (a + 2.0)], -a * a / (s * (s + 2.0))])
    off = 2.0 * k * (k + a) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 ** (a + 1.0) / (a + 1.0) * vec[0] ** 2
    y = 0.5 * (1.0 - x)
    for _ in range(3):
        f, df, size = _jacobi_series(n, a, y)
        # the root's error in y: eps size/|df| from the series, about eps
        # from the eigenvalue
        y = np.where(size < np.abs(df), y - f / df, y)
    return 2.0 * y, w


def jacobi_end_panel(h, a):
    """A 12-node Gauss-Jacobi panel on [0, h] in the distance d to an
    endpoint singularity d^a, a > -1: the distances (descending) and their
    weights, each divided by the weight function d^a at its node, so the
    rule takes the plain integrand values (see ``_gauss_jacobi``)."""
    d, w = _gauss_jacobi(float(a))
    return 0.5 * h * d, 0.5 * h * w / d**a


# the half-sphere rule: the order of its six Gauss panels, and its tanh-sinh
# equator panel: its width in angle, its steps 1/_TS_STEPS from _TS_START,
# where the weights are below 3e-16 of the panel, and the least distance to
# the equator it may reach (see _equator_stop)
_HALFSPHERE_ORDER = 12
_TS_WIDTH = 0.3
_TS_STEPS = 12
_TS_START = -3.2
_D_MIN = 1e-200


def _equator_stop(g):
    """The last step of the tanh-sinh panel, whose nodes stop at a distance
    d_stop to the equator.  Near the equator the integrand, the weight
    d^(1-2g) times the fields' squared normal derivative d^(4g-2) or a
    bounded factor, grows like d^(a-1), a = min(2g, 2 - 2g), so the dropped
    tail is O(d_stop^a), below eps at d_stop = eps^(1/a).  For g < 0.04 or
    g > 0.96 that lies below _D_MIN, which keeps d^(1-2g) and (r d)^(2g-1)
    within about 1e200, and the tail is left at _D_MIN^a."""
    a = min(2.0 * g, 2.0 - 2.0 * g)
    d_stop = max(np.finfo(float).eps ** (1.0 / a), _D_MIN)
    # d = _TS_WIDTH / (1 + exp(pi sinh t)) >= d_stop
    return math.floor(_TS_STEPS * math.asinh(math.log(_TS_WIDTH / d_stop) / math.pi))


def halfsphere_rule(n, g):
    """Quadrature for int_0^{pi/2} cos^(1-2g)th sin^(n-1)th h(th) dth over
    the polar angle th from the z-axis, returned as (d, cos(th), sin(th),
    weights), with d = pi/2 - th the distance to the equator (the trace
    plane) and the full weight factor folded into the weights.

    Fields built from the extension have normal derivatives like z^(2g-1)
    near the trace, so h itself can carry an integrable equator singularity.
    Six Gauss panels of order _HALFSPHERE_ORDER cover [0, pi/2 - 0.3]; the
    last 0.3 is one tanh-sinh panel (Takahasi and Mori 1974) in d,
    d = 0.3 / (1 + exp(pi sinh t)) at the steps t = k / 12 in
    [_TS_START, ``_equator_stop``].  Its nodes cluster doubly exponentially
    at d = 0, which integrates every power d^(a-1), a > 0, without tuning to
    the exponent, and cos(th) = sin(d) and sin(th) = cos(d) are formed from
    d, so the nodes keep full relative accuracy down to d = _D_MIN."""
    edges = np.linspace(0.0, 0.5 * math.pi - _TS_WIDTH, 7)
    th, w = gauss_panels(edges, _HALFSPHERE_ORDER)
    t = np.arange(math.ceil(_TS_START * _TS_STEPS), _equator_stop(g) + 1) / _TS_STEPS
    e = np.exp(math.pi * np.sinh(t))
    d = _TS_WIDTH / (1.0 + e)
    # dd/dt = d pi cosh(t) e / (1 + e), written so that e^2 cannot overflow
    wd = d * math.pi * np.cosh(t) / (1.0 + 1.0 / e) / _TS_STEPS
    c = np.concatenate([np.cos(th), np.sin(d)])
    s = np.concatenate([np.sin(th), np.cos(d)])
    w = np.concatenate([w, wd])
    return np.concatenate([0.5 * math.pi - th, d]), c, s, w * c ** (1.0 - 2.0 * g) * s ** (n - 1)
