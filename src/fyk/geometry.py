"""Boundary-adapted coordinate jets and the conformal-factor characteristics.

Second-order metric expansions near a boundary point in coordinates where
x_N is the distance to the boundary, the gauge-normalized curvature
constraints, the Gauss-Codazzi reduction of the scalar curvature, and the
bicharacteristic ODE system for the first-order equation

    d_N f + (x_N/2) (g^{ij} d_i f d_j f + (d_N f)^2) = 0

that extends a boundary conformal factor into the collar.
"""
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainError, NumericError
from .solver import SymmetricTensor


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


def _flat_metric(xbar):
    return np.eye(len(xbar)), np.zeros((len(xbar), len(xbar), len(xbar)))


def eikonal_characteristics(K, xbar0, r, metric=None, rtol=1e-10):
    """Integrate the bicharacteristic system on s in [0, 2r).

    ``metric`` maps xbar to (g_inv, dg_inv) with dg_inv[k] = d_k g^{ij};
    None means the flat metric.  Initial data p = (-2K xbar0, 0),
    z = -K|xbar0|^2, x = (xbar0, 0).  Along the flow the defining relation
    p_N + (x_N/2)(g^{ij} p_i p_j + p_N^2) = 0 is conserved; its drift is
    returned as a diagnostic.
    """
    if K <= 0 or r <= 0:
        raise DomainError("K and r must be positive")
    if r >= K ** (-2.0):
        raise DomainError("the smallness regime requires r < K^(-2)")
    xbar0 = np.asarray(xbar0, dtype=float)
    n = len(xbar0)
    if np.linalg.norm(xbar0) > 2.0 * r * (1.0 + 1e-12):
        raise DomainError("base point must satisfy |xbar0| <= 2r")
    if metric is None:
        metric = _flat_metric

    def rhs(s, y):
        p = y[: n + 1]
        x = y[n + 2 :]
        xn = x[n]
        g, dg = metric(x[:n])
        gpp = float(p[:n] @ g @ p[:n])
        pdot = np.empty(n + 1)
        pdot[:n] = -(xn / 2.0) * np.einsum("kij,i,j->k", dg, p[:n], p[:n])
        pdot[n] = -0.5 * (gpp + p[n] ** 2)
        zdot = xn * gpp + p[n] * (1.0 + xn * p[n])
        xdot = np.empty(n + 1)
        xdot[:n] = xn * (g @ p[:n])
        xdot[n] = 1.0 + xn * p[n]
        return np.concatenate([pdot, [zdot], xdot])

    y0 = np.concatenate([-2.0 * K * xbar0, [0.0, -K * float(xbar0 @ xbar0)], xbar0, [0.0]])
    span = 2.0 * r * (1.0 - 1e-12)
    sol = solve_ivp(
        rhs,
        (0.0, span),
        y0,
        rtol=rtol,
        atol=1e-13,
        dense_output=False,
        max_step=span / 16.0,
    )
    if not sol.success:
        raise NumericError("characteristic integration failed: %s" % sol.message)

    p = sol.y[: n + 1].T
    z = sol.y[n + 1]
    x = sol.y[n + 2 :].T
    ham = np.empty(len(sol.t))
    pdots = np.empty(len(sol.t))
    for k in range(len(sol.t)):
        g, _ = metric(x[k, :n])
        gpp = float(p[k, :n] @ g @ p[k, :n])
        ham[k] = p[k, n] + (x[k, n] / 2.0) * (gpp + p[k, n] ** 2)
        pdots[k] = np.linalg.norm(rhs(sol.t[k], sol.y[:, k])[: n + 1])
    return CharacteristicBundle(
        s=sol.t,
        p=p,
        z=z,
        x=x,
        sup_p=float(np.abs(p).max()),
        sup_p_dot=float(pdots.max()),
        hamiltonian_max=float(np.abs(ham).max()),
    )


def characteristic_supnorms(idx, K, r, n=None, samples=24, metric=None):
    """Sup over sampled base points in B(0, 2r) of |p|, of the finite-
    difference Jacobian d p / d xbar0, and of |p dot|; these support the
    empirical bounds sup|p| <= 5/K and 2 (sup|grad p| + sup|p dot|) <= 5K."""
    if n is None:
        n = idx.n
    rng = np.random.default_rng(7)
    sup_p = sup_dp = sup_pdot = 0.0
    h = 1e-6 * max(r, 1e-6)
    for _ in range(samples):
        v = rng.normal(size=n)
        v *= rng.uniform(0.0, 2.0 * r) / np.linalg.norm(v)
        base = eikonal_characteristics(K, v, r, metric=metric)
        sup_p = max(sup_p, base.sup_p)
        sup_pdot = max(sup_pdot, base.sup_p_dot)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            hi = eikonal_characteristics(K, np.clip(v + e, -2 * r, 2 * r), r, metric=metric)
            lo = eikonal_characteristics(K, np.clip(v - e, -2 * r, 2 * r), r, metric=metric)
            kmax = min(len(hi.s), len(lo.s))
            dp = np.abs(hi.p[:kmax] - lo.p[:kmax]).max() / (2.0 * h)
            sup_dp = max(sup_dp, dp)
    return {"sup_p": sup_p, "sup_grad_p": sup_dp, "sup_p_dot": sup_pdot}
