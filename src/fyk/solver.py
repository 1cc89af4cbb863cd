"""Finite-volume solvers for the degenerate operator -div(z^(1-2g) grad u).

Everything here works on axially symmetric fields over the half-plane
(r, z) with r = |xbar| >= 0 and z >= 0, where the ambient measure is
r^(n-1) z^(1-2g) dr dz.  The z-direction carries the degenerate weight, so
vertical face transmissibilities are flux-exact for the span {1, z^(2g)}
(harmonic averaging of the weight); this is what makes the schemes behave
near the trace, where solutions look like a(r) + b(r) z^(2g).

Grid layout: r is cell-centered (faces at i*hr, no node on the axis), z is
node-based with z = 0 on the grid.  The z = 0 row holds trace unknowns for
flux/Robin problems and Dirichlet data for extension solves, which take all
their data as one table on (r, r_max) x z.  ``WeightedGrid``
owns this geometry: its nodes, its radial pencil and cell masses (from
``_radial_axis``, which the polar rho axis of ``rayleigh_lambda1`` shares),
the vertical face transmissibilities t, and the node weights and slab masses
of z.  Two discretizations are built from it: ``_extension_pencils`` (node
weights and t/hz^2) and ``_trace_flux_pencils`` (slab masses, t/hz and a
natural trace face).

Every finite-volume matrix here is a Kronecker sum
L_r x diag(w_z) + diag(w_r) x L_z of two 1-D symmetric tridiagonal pencils,
each kept as its two arrays (diagonal, off-diagonal), so the solves are
separable (fast diagonalization, Lynch, Rice and Thomas 1964): the
eigenvectors of the radial pencil, from numpy's dense symmetric ``eigh``,
split the 2-D solve into one tridiagonal system in z per radial mode, which
one vectorized Thomas sweep solves for all modes at once, between two dense
products that take the data to the modes and back.  The one
non-separable term, the Robin diagonal on the trace row of the linearized
problem, is added by a capacitance solve on the trace unknowns.  Every
solve is one ``_solve`` call, which checks it by its residual (residual
gate); ``_kron_apply`` computes that matrix-free from the very pencils the
solve diagonalized, and no sparse matrix is built.  An assembled sparse
matrix and SuperLU on it are only a test oracle.
"""
from dataclasses import dataclass, field
import math

import numpy as np
from numpy.linalg import LinAlgError, solve

from . import bubble
from .errors import DomainError, NumericError
from .specfun import constants, sphere_area

# stand-ins for the tracer in perfbench/tracing.py, which patches these names
# (ROADMAP item 1 drops those wrappers)
eigsh = spsolve = None

# the most cells per axis of any grid here: a fast-diagonalization solve
# peaked at about six N x N float arrays beyond the interpreter (237 MB of
# RSS at N = 2048), so about 0.8 GB at N = 4096; a larger grid raises
# DomainError before anything is allocated
_MAX_CELLS = 4096
# the least normal float: ``_thomas_modes`` sets what falls below it to 0
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class WeightedGrid:
    """Uniform tensor grid on [0, r_max] x [0, z_max] and its finite-volume
    geometry: nodes, masses and face transmissibilities, whose methods take
    gamma.  The z = 0 face carries trace unknowns.
    """

    r_max: float
    z_max: float
    nr: int
    nz: int

    def __post_init__(self):
        if not (0 < self.r_max < np.inf and 0 < self.z_max < np.inf):
            raise DomainError("grid extents must be finite and positive")
        if not all(isinstance(k, (int, np.integer)) and k >= 2 for k in (self.nr, self.nz)):
            raise DomainError("need an integer number of at least two cells per axis")
        if max(self.nr, self.nz) > _MAX_CELLS:
            raise DomainError(f"at most {_MAX_CELLS} cells per axis")

    @property
    def hr(self):
        return self.r_max / self.nr

    @property
    def hz(self):
        return self.z_max / self.nz

    @property
    def r(self):
        """Radial cell centers (the axis r = 0 is a face, not a node)."""
        return (np.arange(self.nr) + 0.5) * self.hr

    @property
    def z(self):
        """Vertical nodes including the trace z = 0."""
        return np.arange(self.nz + 1) * self.hz

    def radial_axis(self, power):
        """``_radial_axis`` of the r cells for the weight r^power."""
        return _radial_axis(self.hr, self.nr, power)

    def node_weights(self, g):
        """z^(1-2g) at the z nodes, 0 on the trace row: no node-weighted
        balance is evaluated there, and the weight is infinite for g > 1/2."""
        w = np.where(self.z > 0, self.z, 1.0) ** (1.0 - 2.0 * g)
        w[0] = 0.0
        return w

    def vertical_transmissibility(self, g):
        """Face values t between consecutive z nodes such that
        t*(u_hi - u_lo)/dz reproduces the exact flux z^(1-2g) u'(z) for u in
        span{1, z^(2g)} (harmonic mean of the weight)."""
        z = self.z
        return 2.0 * g * np.diff(z) / np.diff(z ** (2.0 * g))

    def slab_mass(self, ex):
        """Exact integral of z^(ex-1) over each node's control-volume slab
        [z_j - hz/2, z_j + hz/2] clipped to [0, z_max]."""
        lo = np.maximum(self.z - self.hz / 2.0, 0.0)
        hi = np.minimum(self.z + self.hz / 2.0, self.z_max)
        return (hi**ex - lo**ex) / ex

    def shape_check(self, field_arr):
        if np.shape(field_arr) != (self.nr, self.nz + 1):
            raise DomainError(
                "field shape %s does not match grid (%d, %d)"
                % (np.shape(field_arr), self.nr, self.nz + 1)
            )


@dataclass(frozen=True)
class SymmetricTensor:
    """Symmetric n x n tensor (a second fundamental form)."""

    entries: np.ndarray
    trace_free: bool = False

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError("tensor entries must be a square matrix")
        if not np.allclose(a, a.T, atol=1e-12 * max(1.0, np.abs(a).max())):
            raise DomainError("tensor entries must be symmetric")
        if self.trace_free:
            scale = np.linalg.norm(a)
            if scale > 0 and abs(np.trace(a)) > 1e-12 * scale:
                raise DomainError("tensor marked trace_free has nonzero trace")

    @property
    def n(self):
        return self.entries.shape[0]

    def norm_sq(self):
        return float(np.sum(self.entries**2))

    def sup_norm(self):
        return float(np.abs(self.entries).max())


def _flux_balance(t):
    """Symmetric tridiagonal flux balance of len(t) - 1 cells in a row, as
    the pencil (diagonal, off-diagonal).

    ``t[k]`` is the transmissibility of face k, between cells k-1 and k, so
    row k is t[k] (u_k - u_(k-1)) + t[k+1] (u_k - u_(k+1)).  The end faces
    t[0] and t[-1] reach a Dirichlet-0 ghost and only add to the diagonal; a
    natural (zero-flux) end face has transmissibility 0.
    """
    t = np.asarray(t, dtype=float)
    return t[:-1] + t[1:], -t[1:-1]


def _tridiag_apply(L, U):
    """L @ U along the first axis of the 2-D array U, for the symmetric
    tridiagonal pencil L = (diagonal, off-diagonal)."""
    d, e = L
    out = d[:, None] * U
    out[1:] += e[:, None] * U[:-1]
    out[:-1] += e[:, None] * U[1:]
    return out


def _kron_apply(pencils, U, trace_diag=None):
    """(L_r x diag(w_z) + diag(w_r) x L_z) U for ``pencils`` = (L_r, w_r,
    L_z, w_z) on the (len(w_r), len(w_z)) array U, plus
    ``trace_diag * U[:, 0]`` on the column j = 0 when given: the operator
    that ``_fast_diag_solve`` inverts, applied matrix-free."""
    L_r, w_r, L_z, w_z = pencils
    out = _tridiag_apply(L_r, U) * w_z + w_r[:, None] * _tridiag_apply(L_z, U.T).T
    if trace_diag is not None:
        out[:, 0] += trace_diag * U[:, 0]
    return out


def _radial_axis(h, cells, power):
    """Cell-centered axis of ``cells`` cells of width h from 0 with the
    weight r^power: the flux-balance pencil of the transmissibilities
    r^power / h on the faces k*h, the exact integral of r^power over each
    cell, and the far face's transmissibility.  The face at 0 is natural;
    the far face reaches a Dirichlet-0 ghost at distance h/2, which doubles
    it."""
    faces = np.arange(cells + 1) * h
    t = faces**power / h
    t[0] = 0.0
    t[-1] *= 2.0
    return _flux_balance(t), np.diff(faces ** (power + 1.0)) / (power + 1.0), t[-1]


def eigh_tridiagonal(d, e):
    """Eigenvalues (ascending) and orthonormal eigenvectors of the symmetric
    tridiagonal matrix with diagonal d and off-diagonal e, by LAPACK's dense
    symmetric solver through ``np.linalg.eigh``, which reads the lower
    triangle only."""
    a = np.diag(d)
    i = np.arange(len(e))
    a[i + 1, i] = e
    return np.linalg.eigh(a)


def _lowest_eigenvalue(d, e):
    """The least eigenvalue of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, by Sturm-sequence bisection (Barth,
    Martin and Wilkinson 1967).

    The pivots of the LDL' factorization of T - x I count the eigenvalues
    below x; the least one lies in [min(d - |e_(i-1)| - |e_i|), min(d)]
    (Gershgorin, and the Rayleigh quotient of a unit vector).  The interval
    is halved until its ends are adjacent floats, so the value is exact
    for a matrix within a few eps ||T|| of T.  Between two finite ends that
    takes at most 2100 halvings (the exponent range, down to subnormals,
    plus the mantissa); a non-finite entry or Gershgorin end raises
    NumericError, since no comparison with NaN would ever end the loop."""
    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    r = np.abs(np.concatenate([[0.0], e])) + np.abs(np.concatenate([e, [0.0]]))
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = float(np.min(d - r)), float(np.min(d))
        e2 = (e * e).tolist()
    if not (np.isfinite(lo) and np.isfinite(hi) and np.all(np.isfinite(e2))):
        raise NumericError(
            "eigenvalue bisection needs a finite matrix",
            diagnostics={"lower": lo, "upper": hi},
        )
    d = d.tolist()
    tiny = np.finfo(float).tiny
    for _ in range(2100):
        x = 0.5 * (lo + hi)
        if x <= lo or x >= hi:
            return hi
        q = d[0] - x
        below = q < 0.0
        for di, ei2 in zip(d[1:], e2):
            q = di - x - ei2 / (q if q != 0.0 else tiny)
            if q < 0.0:
                below = True
                break
        if below:
            hi = x
        else:
            lo = x
    raise NumericError(
        "eigenvalue bisection did not converge", diagnostics={"lower": lo, "upper": hi}
    )


def _scaled_tridiagonal(L, w):
    """Diagonal and off-diagonal of diag(w)^(-1/2) L diag(w)^(-1/2), the
    symmetric standard form of the tridiagonal pencil (L, diag(w)) with
    L = (diagonal, off-diagonal), and the scaling s = w^(-1/2)."""
    d, e = L
    s = 1.0 / np.sqrt(w)
    return d * s * s, e * s[:-1] * s[1:], s


def _thomas_modes(lam, L, w, R):
    """Solve (L + lam_i diag(w)) y_i = r_i for every mode i at once, where
    r_i and y_i are column i of the (len(w), len(lam)) array R and of the
    result, and L = (diagonal, off-diagonal) is a tridiagonal pencil: one
    forward and one backward sweep of Thomas's algorithm, each step a
    vector operation over the modes.  With lam_i > 0, w > 0 and L a flux
    balance each matrix is symmetric positive definite and strictly
    diagonally dominant, so the elimination needs no pivoting.

    The high modes decay through the subnormal range along z (about 5100
    entries at the 512 cells of ``green_asymptotics``), and a dense product
    that reads subnormals runs many times slower on x86 (X @ V.T there:
    21 ms, and 2 ms with them at 0), so every entry below the least normal
    float, _TINY, is set to 0.  A term that small moves no sum of normal
    size: the green trace is bit-identical."""
    d, e = L
    ratio = np.empty((len(d) - 1, len(lam)))
    Y = np.empty(R.shape)
    # each row's diagonal d + w lam is formed where the sweep needs it, and
    # the flush takes no float temporary: a whole diagonal array and an
    # np.abs(Y) raised the peak RSS of ``solve green`` by 2.1 MB
    piv = d[0] + w[0] * lam
    np.divide(R[0], piv, out=Y[0])
    for j in range(1, len(d)):
        np.divide(e[j - 1], piv, out=ratio[j - 1])
        piv = d[j] + w[j] * lam - e[j - 1] * ratio[j - 1]
        np.subtract(R[j], e[j - 1] * Y[j - 1], out=Y[j])
        Y[j] /= piv
    for j in range(len(d) - 2, -1, -1):
        Y[j] -= ratio[j] * Y[j + 1]
    Y[(Y > -_TINY) & (Y < _TINY)] = 0.0
    return Y


def _fast_diag_solve(pencils, F, trace_diag=None):
    """Solve (L_r x diag(w_z) + diag(w_r) x L_z + diag(trace_diag) x e0 e0') U = F
    for U of shape (len(w_r), len(w_z)), i-major, by fast diagonalization in
    r; ``pencils`` = (L_r, w_r, L_z, w_z), where L_r and L_z are tridiagonal
    pencils (diagonal, off-diagonal).

    With L_r X = diag(w_r) X diag(lam) and X' diag(w_r) X = I, U = X V turns
    the Kronecker sum into one tridiagonal system per mode i,
    (L_z + lam_i diag(w_z)) v_i = (X' F)_i, solved for all modes at once by
    ``_thomas_modes``.  A diagonal d = ``trace_diag`` on the row j = 0 is
    added by Woodbury: the trace t = U[:, 0] solves (I + C diag(d)) t = t0
    with t0 the trace of the plain solve and C = X diag(c) X', c_i = y_i[0]
    for the solution y_i of mode i's system with a unit source at node 0,
    and the plain solution loses the response to the trace source d t.
    """
    L_r, w_r, L_z, w_z = pencils
    try:
        d_r, e_r, s_r = _scaled_tridiagonal(L_r, w_r)
        lam, X = eigh_tridiagonal(d_r, e_r)
        X *= s_r[:, None]
        # V[j, i] is mode i's coefficient at z node j
        V = _thomas_modes(lam, L_z, w_z, F.T @ X)
        if trace_diag is not None:
            unit = np.zeros(V.shape)
            unit[0] = 1.0
            Y = _thomas_modes(lam, L_z, w_z, unit)
            C = (X * Y[0]) @ X.T
            t0 = X @ V[0]
            t = solve(np.eye(len(w_r)) + C * trace_diag[None, :], t0)
            V -= Y * (X.T @ (trace_diag * t))
    except LinAlgError as exc:
        raise NumericError("fast-diagonalization solve failed: %s" % exc) from exc
    return X @ V.T


def _check_solution(what, pencils, u, f, trace_diag=None):
    """Residual gate of a solve: ||A u - f|| for the Kronecker sum A of
    ``pencils`` = (L_r, w_r, L_z, w_z) and ``trace_diag`` (see
    ``_kron_apply``), on (len(w_r), len(w_z)) arrays u and f."""
    if not np.all(np.isfinite(u)):
        raise NumericError(
            "%s solve produced non-finite values" % what,
            diagnostics={"nunk": f.size},
        )
    res = float(np.linalg.norm(_kron_apply(pencils, u, trace_diag) - f))
    if res > 1e-8 * max(1.0, np.linalg.norm(f)):
        raise NumericError(
            "%s solve residual too large" % what,
            diagnostics={"residual": res, "nunk": f.size},
        )


def _solve(what, pencils, f, trace_diag=None):
    """``_fast_diag_solve`` of ``pencils``, ``f`` and ``trace_diag``, gated
    by ``_check_solution`` on the same three.  The gate runs after the
    solve has returned and freed its mode arrays: run inside the solve it
    raised the traced peak of ``green_asymptotics`` at 512 cells from 11.1
    to 14.9 MB."""
    u = _fast_diag_solve(pencils, f, trace_diag)
    _check_solution(what, pencils, u, f, trace_diag)
    return u


def apply_operator(idx, grid, field_arr):
    """Pointwise discrete -div(z^(1-2g) grad u) for axisymmetric u(r, z).

    Values are produced on nodes with 1 <= j <= nz-1 and 0 <= i <= nr-2;
    rows/columns that would need data beyond the grid are left at zero.
    Second-order accurate away from z = 0; at the weighted face the flux-
    exact vertical transmissibilities keep the {1, z^(2g)} family in the
    discrete kernel.
    """
    grid.shape_check(field_arr)
    g = idx.gamma
    u = np.asarray(field_arr, dtype=float)
    z = grid.z
    out = np.zeros_like(u)

    # the extension solve's pencils: the radial part -(z^(1-2g)/vol) *
    # d(r^(n-1) u_r), whose row nr-1 would need the ghost beyond r_max and
    # stays zero, and the vertical part, of which only the nodes
    # j = 1..nz-1 are kept
    (L_r, vol, L_z, zw), _ = _extension_pencils(idx, grid)
    div_r = -_tridiag_apply(L_r, u) / vol[:, None]
    div_z = -_tridiag_apply(L_z, u.T).T[:, 1:-1]

    # near the weighted face solutions mix z^(2g) and z^2 behaviour; the
    # two-point fluxes cannot be consistent for both, so the first rows use
    # the exact operator on a local fit in span{1, z^(2g), z^2, z^(2+2g)}
    for j in range(1, min(4, grid.nz - 2)):
        zs = z[j - 1 : j + 3]
        B = np.stack([np.ones(4), zs ** (2.0 * g), zs**2, zs ** (2.0 + 2.0 * g)], axis=1)
        ops = [0.0, 0.0, 2.0 * (2.0 - 2.0 * g) * zw[j], 2.0 * (2.0 + 2.0 * g) * z[j]]
        div_z[:, j - 1] = u[:, j - 1 : j + 3] @ np.linalg.solve(B.T, np.array(ops))

    out[: grid.nr - 1, 1:-1] = -(
        zw[None, 1:-1] * div_r[: grid.nr - 1, 1:-1] + div_z[: grid.nr - 1, :]
    )
    return out


def barrier_values(idx, mu, x):
    """Exact flat-metric values of the weighted operator on the two barrier
    families |x|^(-mu) and z^(2g)|x|^(-(mu+2g))."""
    n, g = idx.n, idx.gamma
    xbar = np.asarray(x.xbar, dtype=float)
    z = float(x.xN)
    rho = math.hypot(*xbar, z)
    if rho == 0.0:
        raise DomainError("barrier values are singular at the origin")
    zw = z ** (1.0 - 2.0 * g)
    first = zw * mu * (n - 2.0 * g - mu) * rho ** (-(mu + 2.0))
    second = (
        zw * (mu + 2.0 * g) * (n - mu) * rho ** (-(mu + 2.0)) * (z / rho) ** (2.0 * g)
    )
    return first, second


def solve_extension(idx, grid, boundary=None):
    """Solve -div(z^(1-2g) grad u) = 0 with Dirichlet data everywhere.

    ``boundary`` is one (nr + 1, nz + 1) table on (r, r_max) x z whose edges
    are the data: its column z = 0 the trace, its last column the top
    z = z_max and its last row the side r = r_max; any other shape raises
    DomainError.  The default is the standard bubble's extension from one
    ``radial_profiles`` call.  Returns the full (nr, nz+1) grid function,
    whose trace column and top row are the table's.
    """
    r, z = grid.r, grid.z
    nr, nz = grid.nr, grid.nz
    if boundary is None:
        boundary = bubble.radial_profiles(idx, np.append(r, grid.r_max), z)["W"]
    boundary = np.asarray(boundary, dtype=float)
    if boundary.shape != (nr + 1, nz + 1):
        raise DomainError(
            "Dirichlet table shape %s does not match (nr + 1, nz + 1) = (%d, %d)"
            % (boundary.shape, nr + 1, nz + 1)
        )
    trace, top, side = boundary[:nr, 0], boundary[:nr, -1], boundary[-1]

    # unknowns: u[i, j] for 0 <= i < nr, 1 <= j <= nz-1, i-major; rows are
    # scaled by the radial cell volumes, which makes the matrix the
    # Kronecker sum L_r x diag(zw) + diag(vol) x L_z on the interior rows
    (L_r, vol, (d_z, e_z), zw), t_far = _extension_pencils(idx, grid)
    L_z, zw = (d_z[1:-1], e_z[1:-1]), zw[1:-1]

    # Dirichlet data enters through the ghost faces of the boundary rows;
    # the end off-diagonals -e_z[0] and -e_z[-1] are the vertical ones
    rhs = np.zeros((nr, nz - 1))
    rhs[-1, :] += t_far * zw * side[1:nz]
    rhs[:, 0] -= vol * e_z[0] * trace
    rhs[:, -1] -= vol * e_z[-1] * top
    u = _solve("extension", (L_r, vol, L_z, zw), rhs)
    return np.column_stack((trace, u, top))


def rayleigh_lambda1(idx, R, resolution=96):
    """Smallest eigenvalue of the weighted Rayleigh quotient on the half-ball
    of radius R, with zero data on the spherical cap and the trace face free.

    Cell-centered finite volumes in polar coordinates (rho, theta), theta
    measured from the trace plane; the separable weight is
    rho^(n+1-2g) sin^(1-2g)(theta) cos^(n-1)(theta).  The discrete operator
    is the Kronecker sum L_rho x W + D x L_theta with mass M_rho x W (W the
    angular cell masses, D the rho-cell integrals of rho^(n-1-2g)).  Both
    theta faces are natural, so L_theta annihilates constants and the
    vectors f(rho) x 1 span an invariant subspace carrying the pencil
    (L_rho, M_rho); every other angular mode adds mu D with mu > 0, which
    only raises the Rayleigh quotient.  So lambda1 is exactly the lowest
    eigenvalue of the radial tridiagonal pencil, and neither the angular
    mesh nor W enters it.

    The mesh width is fixed in absolute units (``resolution`` cells per unit
    radius), so the scaling law lambda1(R) R^2 = const is a genuine check of
    the discretized operator rather than an artifact of mesh similarity.
    """
    if not 0 < R < np.inf:
        raise DomainError("radius must be positive and finite")
    if not (isinstance(resolution, (int, np.integer)) and resolution >= 1):
        raise DomainError("resolution must be a positive integer")
    if resolution > _MAX_CELLS / R:
        raise DomainError(f"resolution * R must be at most {_MAX_CELLS} cells")
    nrho = max(8, int(round(resolution * R)))
    L, mass, _ = _radial_axis(R / nrho, nrho, idx.n + 1.0 - 2.0 * idx.gamma)
    # symmetric scaling M^(-1/2) L M^(-1/2) keeps the pencil tridiagonal; at
    # a radius so small that the cell masses underflow it is not finite,
    # which the bisection reports as NumericError
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d, e, _ = _scaled_tridiagonal(L, mass)
    lam1 = _lowest_eigenvalue(d, e)
    if lam1 <= 0:
        raise NumericError(
            "first eigenvalue not positive", diagnostics={"lambda1": lam1}
        )
    return lam1


@dataclass(frozen=True)
class GreenFit:
    """Log-log fit of the trace of the Green function against |x|."""

    slope: float
    constant: float
    radii: np.ndarray
    trace_values: np.ndarray


def green_asymptotics(idx, R, width=None, resolution=512):
    """Solve the flat Green problem with a mollified trace delta and fit the
    near-origin power law of the trace values on the annulus [4*width, R/4].

    The computational box extends to 3R so the zero Dirichlet truncation
    pollutes the fit window by less than a percent.  The mollifier mass is
    normalized in the discrete measure, so the discrete problem carries unit
    flux exactly.
    """
    if not idx.n >= 2.0 + 2.0 * idx.gamma:
        raise DomainError("Green asymptotics requires n >= 2 + 2*gamma")
    if not 0 < R < np.inf:
        raise DomainError("radius must be positive and finite")
    n, g = idx.n, idx.gamma
    if width is None:
        width = R / 64.0
    if 4.0 * width >= R / 4.0:
        raise DomainError("fit annulus [4*width, R/4] is empty")
    kappa = constants(idx).kappa
    L = 3.0 * R
    grid = WeightedGrid(L, L, resolution, resolution)
    r = grid.r
    nr, nz = grid.nr, grid.nz

    # bump mollifier, unit mass in the discrete trace measure
    pencils = _trace_flux_pencils(idx, grid)
    vol = pencils[1]
    psi = np.zeros(nr)
    inside = r < width
    psi[inside] = np.exp(-1.0 / (1.0 - (r[inside] / width) ** 2))
    mass = sphere_area(n) * np.sum(psi * vol)
    if mass <= 0:
        raise DomainError("mollifier width unresolved by the grid")
    psi /= mass

    rhs = np.zeros((nr, nz))
    rhs[:, 0] = psi * vol / kappa  # prescribed weighted flux through z = 0, per cell
    trace = _solve("trace-flux", pencils, rhs)[:, 0]
    sel = (r >= 4.0 * width) & (r <= R / 4.0)
    if not np.any(sel):
        raise DomainError("fit annulus contains no grid radii")
    if np.any(trace[sel] <= 0):
        raise NumericError(
            "Green trace not positive on the fit annulus",
            diagnostics={"min": float(trace[sel].min())},
        )
    slope, intercept = np.polyfit(np.log(r[sel]), np.log(trace[sel]), 1)
    return GreenFit(float(slope), float(np.exp(intercept)), r[sel], trace[sel])


def _extension_pencils(idx, grid):
    """The two 1-D pencils (L_r, w_r, L_z, w_z) of the extension operator
    L_r x diag(w_z) + diag(w_r) x L_z on the full node column j = 0..nz, and
    the far radial face's transmissibility.  w_r are the radial cell volumes,
    w_z the node weights z^(1-2g); L_z has the face transmissibilities t/hz^2
    and natural end faces, so its interior rows j = 1..nz-1 are the Dirichlet
    problem's pencil."""
    L_r, vol, t_far = grid.radial_axis(idx.n - 1)
    tz = grid.vertical_transmissibility(idx.gamma) / grid.hz**2
    L_z = _flux_balance(np.concatenate(([0.0], tz, [0.0])))
    return (L_r, vol, L_z, grid.node_weights(idx.gamma)), t_far


def _trace_flux_pencils(idx, grid):
    """The two 1-D pencils of the trace-flux operator on the rows
    j = 0..nz-1: it is L_r x diag(w_z) + diag(w_r) x L_z, returned as
    (L_r, w_r, L_z, w_z) with L_r and L_z as (diagonal, off-diagonal)
    arrays.  w_r are the radial cell volumes, w_z the slab masses of
    z^(1-2g), and L_z has the face transmissibilities t/hz; the trace face
    z = 0 is natural, the far faces r = r_max and z = z_max are zero
    Dirichlet."""
    L_r, vol, _ = grid.radial_axis(idx.n - 1)
    t = np.concatenate(([0.0], grid.vertical_transmissibility(idx.gamma)))
    slab_w = grid.slab_mass(2.0 - 2.0 * idx.gamma)[: grid.nz]
    return L_r, vol, _flux_balance(t / grid.hz), slab_w


def _cutoff(t):
    """Smooth cutoff: 1 on [0, 1], 0 on [2, inf), cosine ramp between."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t <= 1.0] = 1.0
    mid = (t > 1.0) & (t < 2.0)
    out[mid] = 0.5 * (1.0 + np.cos(np.pi * (t[mid] - 1.0)))
    return out


@dataclass
class LinearizedResult:
    """Angular-profile solution Psi(x) = psi(r, z) * (xbar' pi xbar)/r^2."""

    psi: np.ndarray
    grid: WeightedGrid
    gamma: float
    pi: SymmetricTensor
    eps_hat: float
    diagnostics: dict = field(default_factory=dict)

    def evaluate(self, xbar, xN):
        """Pointwise Psi on the solved box [0, r_max] x [0, z_max]; the
        angular factor vanishes like r^2 at the axis."""
        xbar = np.asarray(xbar, dtype=float)
        r, z = math.hypot(*xbar), float(xN)
        if not (r <= self.grid.r_max and 0.0 <= z <= self.grid.z_max):
            raise DomainError("point (r, z) = (%g, %g) is outside the solved box" % (r, z))
        if r == 0.0:
            return 0.0
        return self._psi_at(r, z) * float(xbar @ self.pi.entries @ xbar) / r**2

    def _psi_at(self, r, z):
        g = self.grid
        # bilinear in (r, z^(2g)): near the trace psi ~ a(r) + b(r) z^(2g),
        # which this chart reproduces exactly
        i = min(max(int(r / g.hr - 0.5), 0), g.nr - 1)
        j = min(max(int(z / g.hz), 0), g.nz - 1)
        two_g = 2.0 * self.gamma
        s_lo, s_hi = g.z[j] ** two_g, g.z[j + 1] ** two_g
        # psi falls to 0 at the axis, hr/2 before the first cell center, and
        # to the far face's Dirichlet 0 at r_max, hr/2 past the last
        zero = np.zeros_like(self.psi[0])
        if r < g.r[0]:
            r0, lo, hi, width = 0.0, zero, self.psi[0], 0.5 * g.hr
        else:
            r0, lo = g.r[i], self.psi[i]
            hi, width = (self.psi[i + 1], g.hr) if i + 1 < g.nr else (zero, 0.5 * g.hr)
        fr = np.clip((r - r0) / width, 0.0, 1.0)
        fz = np.clip((max(z, 0.0) ** two_g - s_lo) / (s_hi - s_lo), 0.0, 1.0)
        return float(
            (1 - fr) * (1 - fz) * lo[j]
            + fr * (1 - fz) * hi[j]
            + (1 - fr) * fz * lo[j + 1]
            + fr * fz * hi[j + 1]
        )


def solve_linearized(idx, pi, eps_hat, grid):
    """Linearized correction around the standard bubble for a trace-free
    second fundamental form.

    For trace-free pi the source 2*eps*z*chi(rho)*pi_ij d_ij W factors as
    (W_rr - W_r/r) times the quadratic spherical harmonic (xbar' pi xbar)/r^2,
    so the problem reduces to a scalar profile psi(r, z) solving

        -div(z^(1-2g) grad psi) + 2n z^(1-2g) psi / r^2
            = z^(1-2g) * 2*eps*z*chi(rho)*(W_rr - W_r/r)

    with the Robin trace condition
    lim z^(1-2g) dz psi = -(1/kappa)((n+2g)/m) w^(4g/m) psi(., 0),
    psi -> 0 at the axis (the harmonic vanishes like r^2) and at the far
    field.  The kernel fields (dilation and translation derivatives of the
    bubble) live in the radial and first angular sectors, so their
    components in psi vanish; they are computed and reported rather than
    assumed.  The ``ortho_energy``, ``ortho_trace`` and ``psi_origin``
    diagnostics are exactly 0 by construction, not a numerical gate: the
    angular factor |S| tr(pi) / n of the first two is 0 for trace-free pi,
    and ``evaluate`` returns 0 at r = 0.

    The bubble is evaluated only on the bounding box of the cutoff's
    support, rho < 2/eps, off the trace row: one ``radial_profiles`` call
    on r[:kr] x z[1:kz].  Every other node of the source has chi = 0 and
    stays 0, and no diagnostic reads a bubble field.
    """
    if not 0 < eps_hat < np.inf:
        raise DomainError("eps_hat must be positive and finite")
    if not isinstance(pi, SymmetricTensor):
        pi = SymmetricTensor(np.asarray(pi, dtype=float), trace_free=True)
    if not pi.trace_free:
        raise DomainError("linearized correction requires a trace-free tensor")
    if pi.n != idx.n:
        raise DomainError("tensor dimension does not match the index")
    idx.require_supercritical("the linearized correction")

    n, g = idx.n, idx.gamma
    m = idx.m
    kappa = constants(idx).kappa
    r, z = grid.r, grid.z
    nz = grid.nz

    # the source lives where chi > 0: r[:kr] x z[:kz], a prefix of each axis
    # as chi falls with rho; the trace slab carries no volume source mass, so
    # its row stays 0 and the bubble is evaluated on z[1:kz] only
    chi = _cutoff(eps_hat * np.sqrt(r[:, None] ** 2 + z[None, :] ** 2))
    kr, kz = (np.count_nonzero(chi.any(axis=a)) for a in (1, 0))
    prof = bubble.radial_profiles(idx, r[:kr], z[1:kz], fields=("Wr_over_r", "lap_tan"))
    # pi_ij d_ij W = (W_rr - W_r/r) * angular for trace-free pi; the control
    # volumes integrate the source against the radial volume and the slab
    # mass of z^(2-2g), which takes the source's factor z
    src_radial = prof["lap_tan"] - n * prof["Wr_over_r"]
    L_r, vol, L_z, slab_w = _trace_flux_pencils(idx, grid)
    slab_z2 = grid.slab_mass(3.0 - 2.0 * g)
    src_cells = np.zeros(chi.shape)
    src_cells[:kr, 1:kz] = vol[:kr, None] * slab_z2[None, 1:kz] * (
        2.0 * eps_hat * chi[:kr, 1:kz] * src_radial
    )

    # zero-order terms: angular eigenvalue 2n/r^2 in the bulk, the radial
    # diagonal's 2n int r^(n-3) times the slab weights, and Robin on the trace
    L_r = (L_r[0] + 2.0 * n * grid.radial_axis(n - 3.0)[1], L_r[1])
    w_tr = bubble._trace_radial(idx, r)
    robin = -((n + 2.0 * g) / m) * w_tr ** (4.0 * g / m) / kappa
    # lim z^(1-2g) dz psi = robin * psi(., 0); the outward bottom flux is the
    # negative of that limit, so the trace balance gains +robin on the LHS
    # diagonal (the coefficient is negative: the boundary term is attractive)
    u = _solve("trace-flux", (L_r, vol, L_z, slab_w), src_cells[:, :nz], vol * robin)
    psi = np.pad(u, ((0, 0), (0, 1)))  # zero on the Dirichlet row j = nz

    result = LinearizedResult(psi=psi, grid=grid, gamma=g, pi=pi, eps_hat=eps_hat)
    _diagnose(idx, result, vol, w_tr)
    return result


def _diagnose(idx, result, vol, w_tr):
    """Report the kernel components pinned at the origin and the
    orthogonality residuals; ``vol`` are the radial cell volumes and
    ``w_tr`` the trace bubble at the cell centers.

    The radial energy overlap int z^(1-2g) grad psi . grad W is taken in its
    trace form: by parts, with div(z^(1-2g) grad W) = 0, psi = 0 on the far
    faces and the bubble's Neumann identity -kappa lim z^(1-2g) dz W = w^p
    (Caffarelli-Silvestre), it equals (1/kappa) int w^p psi(., 0), so no
    bubble field is read."""
    n, g = idx.n, idx.gamma
    m = idx.m
    grid = result.grid
    r, z = grid.r, grid.z
    cst = constants(idx)
    h = 0.25 * grid.hr

    # pinning coefficients from the angular representation (zero for the
    # quadratic harmonic; evaluated, not assumed)
    val0 = result.evaluate(np.zeros(n), 0.0)
    grad0 = np.array(
        [
            (result.evaluate(h * e, 0.0) - result.evaluate(-h * e, 0.0)) / (2.0 * h)
            for e in np.eye(n)
        ]
    )
    c0 = 2.0 * val0 / (cst.alpha * m)
    ci = grad0 / (cst.alpha * m)

    # orthogonality residuals: angular factor x radial integral
    ang = sphere_area(n) * np.trace(result.pi.entries) / n
    psi = result.psi
    pr = np.zeros_like(psi)
    pz = np.zeros_like(psi)
    pr[1:-1, :] = (psi[2:, :] - psi[:-2, :]) / (2.0 * grid.hr)
    pz[:, 1:-1] = (psi[:, 2:] - psi[:, :-2]) / (2.0 * grid.hz)
    # the trace row z = 0 carries no weight (z^(1-2g) is infinite there for g > 1/2)
    weight = vol[:, None] * grid.node_weights(g)[None, :] * grid.hz
    energy = float(np.sum(weight * (pr**2 + pz**2)))
    p_crit = (n + 2.0 * g) / m
    tr_rad = float(np.sum(vol * w_tr**p_crit * psi[:, 0]))
    overlap = tr_rad / cst.kappa
    ortho_energy = ang * overlap
    ortho_trace = ang * tr_rad

    sup = result.pi.sup_norm()
    rho = np.sqrt(r[:, None] ** 2 + z[None, :] ** 2)
    envelope = np.abs(psi) * (1.0 + rho ** (m - 1.0))
    if sup > 0:
        envelope = envelope / (result.eps_hat * sup)

    result.diagnostics.update(
        {
            "psi_origin": val0,
            "grad_origin": grad0,
            "proj_dilation": c0,
            "proj_translation": ci,
            "ortho_energy": ortho_energy,
            "ortho_trace": ortho_trace,
            "energy": energy,
            "radial_energy_overlap": overlap,
            "envelope_max": float(envelope.max()),
        }
    )
