"""Boundary-adapted coordinate jets and the conformal-factor characteristics.

Second-order metric expansions near a boundary point in coordinates where
x_N is the distance to the boundary, the gauge-normalized curvature
constraints, the Gauss-Codazzi reduction of the scalar curvature, and the
bicharacteristics of the first-order equation

    d_N f + (x_N/2) (g^{ij} d_i f d_j f + (d_N f)^2) = 0

that extends a boundary conformal factor into the collar.  For the flat
metric they are evaluated in closed form on a fixed s-grid; for a metric
callable the bicharacteristic ODE system is integrated numerically.
"""
from dataclasses import dataclass

import numpy as np
# imported with the library, not on a sweep's first draw (see fyk._quad)
from numpy.random import default_rng

from .errors import DomainError, NumericError
from .solver import SymmetricTensor

# points of the flat s-grid on [0, 2r): the ODE route's max_step, span / 16
_FLAT_POINTS = 17


def _check_riemann_symmetries(riem, atol):
    if not (
        np.allclose(riem, -np.swapaxes(riem, 0, 1), atol=atol)
        and np.allclose(riem, -np.swapaxes(riem, 2, 3), atol=atol)
        and np.allclose(riem, np.transpose(riem, (2, 3, 0, 1)), atol=atol)
    ):
        raise DomainError("curvature array lacks Riemann symmetries")


@dataclass(frozen=True)
class MetricJet:
    """Second-order jet of a metric at a boundary point.

    Index convention: ``riem_h[i, k, j, l]`` is R_{ikjl} of the boundary
    metric, ``r_iNjN[i, j]`` the mixed normal curvature with trace ``r_NN``,
    and ``g_Nk[i, j, k]`` the coefficient of x_N x_k in g^{ij}.
    """

    H: float
    pi: SymmetricTensor
    Rij_h: np.ndarray
    riem_h: np.ndarray
    r_NN: float
    r_iNjN: np.ndarray
    g_Nk: np.ndarray
    H_grad: np.ndarray = None

    def __post_init__(self):
        n = self.pi.n
        rij = np.asarray(self.Rij_h, dtype=float)
        riem = np.asarray(self.riem_h, dtype=float)
        rinjn = np.asarray(self.r_iNjN, dtype=float)
        gnk = np.asarray(self.g_Nk, dtype=float)
        hg = (
            np.zeros(n)
            if self.H_grad is None
            else np.asarray(self.H_grad, dtype=float)
        )
        for name, arr, shape in [
            ("Rij_h", rij, (n, n)),
            ("riem_h", riem, (n, n, n, n)),
            ("r_iNjN", rinjn, (n, n)),
            ("g_Nk", gnk, (n, n, n)),
            ("H_grad", hg, (n,)),
        ]:
            if arr.shape != shape:
                raise DomainError("%s has shape %s, expected %s" % (name, arr.shape, shape))
        scale = max(1.0, np.abs(riem).max(), np.abs(rij).max(), np.abs(rinjn).max())
        atol = 1e-12 * scale
        if not np.allclose(rij, rij.T, atol=atol):
            raise DomainError("boundary Ricci must be symmetric")
        if not np.allclose(rinjn, rinjn.T, atol=atol):
            raise DomainError("mixed normal curvature must be symmetric")
        _check_riemann_symmetries(riem, atol)
        if abs(np.trace(rinjn) - self.r_NN) > 1e-10 * max(1.0, abs(self.r_NN)):
            raise DomainError("trace of r_iNjN must equal r_NN")
        object.__setattr__(self, "Rij_h", rij)
        object.__setattr__(self, "riem_h", riem)
        object.__setattr__(self, "r_iNjN", rinjn)
        object.__setattr__(self, "g_Nk", gnk)
        object.__setattr__(self, "H_grad", hg)

    @property
    def n(self):
        return self.pi.n

    def pi_norm_sq(self):
        return self.pi.norm_sq()


def normalized_jet(pi, riem_h=None, r_iNjN=None, g_Nk=None):
    """Build a jet in the normalized gauge: vanishing boundary Ricci and mean
    curvature at the base point, and the normal-normal curvature pinned to
    (1-2n)/(2(n-1)) ||pi||^2."""
    if not isinstance(pi, SymmetricTensor):
        pi = SymmetricTensor(np.asarray(pi, dtype=float))
    n = pi.n
    r_nn = (1.0 - 2.0 * n) / (2.0 * (n - 1.0)) * pi.norm_sq()
    if r_iNjN is None:
        r_iNjN = np.eye(n) * (r_nn / n)
    else:
        r_iNjN = np.asarray(r_iNjN, dtype=float)
        tr = np.trace(r_iNjN)
        if abs(tr) > 1e-14:
            r_iNjN = r_iNjN * (r_nn / tr)
        elif abs(r_nn) > 1e-14:
            r_iNjN = r_iNjN + np.eye(n) * (r_nn / n)
    if riem_h is None:
        riem_h = np.zeros((n, n, n, n))
    if g_Nk is None:
        g_Nk = np.zeros((n, n, n))
    return MetricJet(
        H=0.0,
        pi=pi,
        Rij_h=np.zeros((n, n)),
        riem_h=riem_h,
        r_NN=r_nn,
        r_iNjN=r_iNjN,
        g_Nk=g_Nk,
    )


def is_normalized(jet, tol=1e-12):
    n = jet.n
    target = (1.0 - 2.0 * n) / (2.0 * (n - 1.0)) * jet.pi_norm_sq()
    scale = max(1.0, jet.pi_norm_sq())
    return (
        abs(jet.H) <= tol * scale
        and np.abs(jet.Rij_h).max() <= tol * scale
        and abs(jet.r_NN - target) <= tol * scale
    )


def sqrt_det_expansion(jet, x):
    """Second-order volume-element expansion at the base point."""
    xbar = np.asarray(x.xbar, dtype=float)
    z = float(x.xN)
    n = jet.n
    h = jet.H
    pi2 = jet.pi_norm_sq()
    val = (
        1.0
        - n * h * z
        + 0.5 * (n**2 * h**2 - pi2 - jet.r_NN) * z**2
        - n * float(jet.H_grad @ xbar) * z
        - float(xbar @ jet.Rij_h @ xbar) / 6.0
    )
    return val


def inverse_metric_expansion(jet, x):
    """Second-order expansion of the inverse boundary-tangential metric."""
    xbar = np.asarray(x.xbar, dtype=float)
    z = float(x.xN)
    p = jet.pi.entries
    out = (
        np.eye(jet.n)
        + 2.0 * p * z
        + np.einsum("ikjl,k,l->ij", jet.riem_h, xbar, xbar) / 3.0
        + np.einsum("ijk,k->ij", jet.g_Nk, xbar) * z
        + (3.0 * p @ p + jet.r_iNjN) * z**2
    )
    return out


def gauss_codazzi_scalar(jet):
    """Boundary-point scalar curvature 2 R_NN + ||pi||^2 + R[h] - Htilde^2.

    In the normalized gauge this collapses to -(n/(n-1)) ||pi||^2.
    """
    if not is_normalized(jet, tol=1e-10):
        raise DomainError("scalar-curvature reduction requires a normalized jet")
    n = jet.n
    r_h = float(np.trace(jet.Rij_h))  # may differ from 0 only within tolerance
    h_tilde = jet.H
    return 2.0 * jet.r_NN + jet.pi_norm_sq() + r_h - h_tilde**2


@dataclass(frozen=True)
class CharacteristicBundle:
    """Characteristics of the collar-extension equation from one boundary
    point, plus the empirical sup-norms the smallness argument needs."""

    s: np.ndarray
    p: np.ndarray  # (ns, N)
    z: np.ndarray
    x: np.ndarray  # (ns, N)
    sup_p: float
    sup_p_dot: float
    hamiltonian_max: float


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call: only a
    metric callable needs the ODE, and the import is a third of the CLI's
    start-up."""
    from scipy import integrate

    return integrate.solve_ivp(*args, **kwargs)


def _flow(y, metric, n):
    """Right-hand side of the bicharacteristic system at every row of a
    (P, 2n + 3) stack of states (p, z, x), and g^{ij} p_i p_j at each row.

    ``metric`` is called once per row; its values are stacked."""
    p, pn, xn = y[:, :n], y[:, n], y[:, -1]
    g, dg = (np.array(a, dtype=float) for a in zip(*map(metric, y[:, n + 2 : -1])))
    gp = np.einsum("aij,aj->ai", g, p)
    gpp = np.einsum("ai,ai->a", p, gp)
    dy = np.empty_like(y)
    dy[:, :n] = -(xn / 2.0)[:, None] * np.einsum("akij,ai,aj->ak", dg, p, p)
    dy[:, n] = -0.5 * (gpp + pn**2)
    dy[:, n + 1] = xn * gpp + pn * (1.0 + xn * pn)
    dy[:, n + 2 : -1] = xn[:, None] * gp
    dy[:, -1] = 1.0 + xn * pn
    return dy, gpp


def _flat_states(K, X0, span):
    """The characteristics of the flat metric in closed form at every row of
    a (B, n) stack of base points, on ``_FLAT_POINTS`` equispaced s in
    [0, span]: (s, states (B, T, 2n + 3) ordered (p, z, x), |p|^2 and
    |p dot|, both (B, T)).

    With g = I the tangential momentum p = -2K xbar0 is constant; with
    c = |p| and u = c s / 2, p_N = -c tan u, x_N = sin(c s) / c,
    x = xbar0 + p (1 - cos c s) / c^2 and z = z0 - 2 log cos u.  p_N blows up
    where u reaches pi/2 (the Riccati equation for p_N)."""
    B, n = X0.shape
    s = np.linspace(0.0, span, _FLAT_POINTS)
    p = -2.0 * K * X0
    c = np.linalg.norm(p, axis=1)[:, None]
    u = 0.5 * c * s
    if np.any(u[:, -1] >= np.pi / 2.0):
        raise NumericError("characteristic blows up before s = 2r: |p| 2r >= pi")
    sin_u = np.sin(u)
    y = np.empty((B, len(s), 2 * n + 3))
    y[..., :n] = p[:, None]
    y[..., n] = -c * np.tan(u)
    y[..., n + 1] = -K * np.einsum("ai,ai->a", X0, X0)[:, None] - np.log1p(-sin_u**2)
    # (1 - cos c s) / c^2 = (s^2 / 2) (sin u / u)^2, finite at c = 0
    y[..., n + 2 : -1] = X0[:, None] + p[:, None] * (0.5 * s**2 * np.sinc(u / np.pi) ** 2)[..., None]
    y[..., -1] = s * np.sinc(2.0 * u / np.pi)
    gpp = np.broadcast_to(c**2, u.shape)
    return s, y, gpp, 0.5 * (gpp + y[..., n] ** 2)  # only p_N moves


def _ode_states(K, X0, span, metric, rtol):
    """Integrate the bicharacteristic system from every row of a (B, n)
    stack of base points in one ODE solve on a shared s-grid: (s, states
    (B, T, 2n + 3) ordered (p, z, x), g^{ij} p_i p_j and |p dot|, both
    (B, T))."""
    B, n = X0.shape
    zero = np.zeros((B, 1))
    z0 = -K * np.einsum("ai,ai->a", X0, X0)[:, None]
    y0 = np.concatenate([-2.0 * K * X0, zero, z0, X0, zero], axis=1)
    sol = solve_ivp(
        lambda s, y: _flow(y.reshape(B, -1), metric, n)[0].ravel(),
        (0.0, span),
        y0.ravel(),
        rtol=rtol,
        atol=1e-13,
        max_step=span / 16.0,
    )
    if not sol.success:
        raise NumericError("characteristic integration failed: %s" % sol.message)

    T = len(sol.t)
    y = sol.y.reshape(B, 2 * n + 3, T).transpose(0, 2, 1)
    dy, gpp = _flow(y.reshape(B * T, -1), metric, n)
    pdot = np.linalg.norm(dy[:, : n + 1], axis=1).reshape(B, T)
    return sol.t, y, gpp.reshape(B, T), pdot


def _characteristics(K, X0, r, metric, rtol):
    """The characteristics from every row of a (B, n) stack of base points on
    s in [0, 2r), on one s-grid shared by all rows: closed form for the flat
    metric (``metric`` None), one ODE solve to ``rtol`` otherwise.

    Returns the grid s (T,), the states (B, T, 2n + 3) ordered (p, z, x),
    and at every output point the drift of the defining relation and
    |p dot|, both (B, T)."""
    if K <= 0 or r <= 0:
        raise DomainError("K and r must be positive")
    if r >= K ** (-2.0):
        raise DomainError("the smallness regime requires r < K^(-2)")
    X0 = np.asarray(X0, dtype=float)
    n = X0.shape[1]
    if np.any(np.linalg.norm(X0, axis=1) > 2.0 * r * (1.0 + 1e-12)):
        raise DomainError("base point must satisfy |xbar0| <= 2r")

    span = 2.0 * r * (1.0 - 1e-12)
    if metric is None:
        s, y, gpp, pdot = _flat_states(K, X0, span)
    else:
        s, y, gpp, pdot = _ode_states(K, X0, span, metric, rtol)
    pn, xn = y[..., n], y[..., -1]
    ham = pn + (xn / 2.0) * (gpp + pn**2)
    return s, y, ham, pdot


def eikonal_characteristics(K, xbar0, r, metric=None, rtol=1e-10):
    """The bicharacteristics from one base point on s in [0, 2r).

    ``metric`` maps xbar to (g_inv, dg_inv) with dg_inv[k] = d_k g^{ij}.
    None means the flat metric, evaluated in closed form (see
    ``_flat_states``) on 17 equispaced s in [0, 2r); ``NumericError`` where
    p_N blows up inside the span.  A metric callable is integrated as an ODE
    to relative tolerance ``rtol`` on the solver's own grid (step at most
    2r/16); ``rtol`` applies only to that route.  Initial data
    p = (-2K xbar0, 0), z = -K|xbar0|^2, x = (xbar0, 0).  Along the flow the
    defining relation p_N + (x_N/2)(g^{ij} p_i p_j + p_N^2) = 0 is
    conserved; its drift is returned as a diagnostic.
    """
    xbar0 = np.asarray(xbar0, dtype=float)
    n = len(xbar0)
    s, y, ham, pdot = _characteristics(K, xbar0[None], r, metric, rtol)
    p = y[0, :, : n + 1]
    return CharacteristicBundle(
        s=s,
        p=p,
        z=y[0, :, n + 1],
        x=y[0, :, n + 2 :],
        sup_p=float(np.abs(p).max()),
        sup_p_dot=float(pdot.max()),
        hamiltonian_max=float(np.abs(ham).max()),
    )


def characteristic_supnorms(idx, K, r, samples=24, metric=None):
    """Sup over sampled base points in B(0, 2r) of |p|, of the finite-
    difference Jacobian d p / d xbar0, and of |p dot|; these support the
    empirical bounds sup|p| <= 5/K and 2 (sup|grad p| + sup|p dot|) <= 5K.

    Every sample and its 2n partners xbar0 +- h e_i (clipped to the box
    [-2r, 2r]^n) go through one ``_characteristics`` call on a shared s-grid,
    so each difference compares the two partners at the same s: the closed
    form for the flat metric, one ODE solve to rtol 1e-10 for a callable."""
    n = idx.n
    if samples < 1:
        raise DomainError("need at least one sample")
    rng = default_rng(7)

    def draw():
        v = rng.normal(size=n)
        return v * (rng.uniform(0.0, 2.0 * r) / np.linalg.norm(v))

    V = np.array([draw() for _ in range(samples)])
    h = 1e-6 * max(r, 1e-6)
    step = h * np.eye(n)
    hi = np.clip(V[:, None] + step, -2 * r, 2 * r).reshape(-1, n)
    lo = np.clip(V[:, None] - step, -2 * r, 2 * r).reshape(-1, n)
    _, y, _, pdot = _characteristics(K, np.concatenate([V, hi, lo]), r, metric, 1e-10)
    p = y[..., : n + 1]
    p_base, p_hi, p_lo = np.split(p, [samples, samples + len(hi)])
    return {
        "sup_p": float(np.abs(p_base).max()),
        "sup_grad_p": float(np.abs(p_hi - p_lo).max() / (2.0 * h)),
        "sup_p_dot": float(pdot[:samples].max()),
    }
