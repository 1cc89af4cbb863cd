"""Finite-volume solvers for the degenerate operator -div(z^(1-2g) grad u).

Everything here works on axially symmetric fields over the half-plane
(r, z) with r = |xbar| >= 0 and z >= 0, where the ambient measure is
r^(n-1) z^(1-2g) dr dz.  The z-direction carries the degenerate weight, so
vertical face transmissibilities are flux-exact for the span {1, z^(2g)}
(harmonic averaging of the weight); this is what makes the schemes behave
near the trace, where solutions look like a(r) + b(r) z^(2g).

Grid layout: r is cell-centered (faces at i*hr, no node on the axis), z is
node-based with z = 0 on the grid.  The z = 0 row holds trace unknowns for
flux/Robin problems and Dirichlet data for extension solves.

Every finite-volume matrix here is a Kronecker sum
L_r x diag(w_z) + diag(w_r) x L_z of two 1-D symmetric tridiagonal pencils,
each kept as its two arrays (diagonal, off-diagonal), so the solves are
separable (fast diagonalization, Lynch, Rice and Thomas 1964): the
eigenvectors of both pencils turn the 2-D solve into four dense products and
a pointwise division.  The one non-separable term, the Robin diagonal on the
trace row of the linearized problem, is added by a capacitance solve on the
trace unknowns.  Each solve is checked by its residual (residual gate), which
``_kron_apply`` computes matrix-free from the very pencils the solve
diagonalized; no sparse matrix is built.  An assembled sparse matrix and
SuperLU on it are only a test oracle.
"""
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal, solve

from . import bubble
from .errors import DomainError, NumericError
from .specfun import constants, sphere_area

# stand-ins for the tracer in perfbench/tracing.py, which patches these names
# (ROADMAP item 1 drops those wrappers)
eigsh = spsolve = None


@dataclass(frozen=True)
class WeightedGrid:
    """Uniform tensor grid on [0, r_max] x [0, z_max].

    ``weight_exponent`` must equal 1 - 2*gamma of the index the grid is used
    with; operations check this.  The z = 0 face carries trace unknowns.
    """

    r_max: float
    z_max: float
    nr: int
    nz: int
    weight_exponent: float

    def __post_init__(self):
        if self.r_max <= 0 or self.z_max <= 0:
            raise DomainError("grid extents must be positive")
        if self.nr < 2 or self.nz < 2:
            raise DomainError("need at least two cells per axis")

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

    def check(self, idx):
        if abs(self.weight_exponent - (1.0 - 2.0 * idx.gamma)) > 1e-12:
            raise DomainError(
                "grid weight exponent %.6g does not match 1-2*gamma = %.6g"
                % (self.weight_exponent, 1.0 - 2.0 * idx.gamma)
            )

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


def _vertical_transmissibility(z_lo, z_hi, g):
    """Face value t such that t*(u_hi - u_lo)/dz reproduces the exact flux
    z^(1-2g) u'(z) for u in span{1, z^(2g)} (harmonic mean of the weight)."""
    dz = z_hi - z_lo
    return 2.0 * g * dz / (z_hi ** (2.0 * g) - z_lo ** (2.0 * g))


def _radial_cell_volumes(grid, n):
    """Exact integral of r^(n-1) over each cell."""
    faces = np.arange(grid.nr + 1) * grid.hr
    return np.diff(faces**n) / n


def _slab_integrals(grid, ex):
    """Exact integral of z^(ex-1) over each control-volume slab
    [z_j - hz/2, z_j + hz/2] clipped to [0, z_max]."""
    lo = np.maximum(grid.z - grid.hz / 2.0, 0.0)
    hi = np.minimum(grid.z + grid.hz / 2.0, grid.z_max)
    return (hi**ex - lo**ex) / ex


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


def _kron_apply(L_r, w_r, L_z, w_z, U, trace_diag=None):
    """(L_r x diag(w_z) + diag(w_r) x L_z) U on the (len(w_r), len(w_z))
    array U, plus ``trace_diag * U[:, 0]`` on the column j = 0 when given:
    the operator that ``_fast_diag_solve`` inverts, applied matrix-free."""
    out = _tridiag_apply(L_r, U) * w_z + w_r[:, None] * _tridiag_apply(L_z, U.T).T
    if trace_diag is not None:
        out[:, 0] += trace_diag * U[:, 0]
    return out


def _radial_faces(h, cells, power):
    """Transmissibilities r^power / h of the faces k*h of a cell-centered
    radial axis: the axis face is natural, and the last face reaches a
    Dirichlet-0 ghost at distance h/2, which doubles it."""
    t = (np.arange(cells + 1) * h) ** power / h
    t[0] = 0.0
    t[-1] *= 2.0
    return t


def _scaled_tridiagonal(L, w):
    """Diagonal and off-diagonal of diag(w)^(-1/2) L diag(w)^(-1/2), the
    symmetric standard form of the tridiagonal pencil (L, diag(w)) with
    L = (diagonal, off-diagonal), and the scaling s = w^(-1/2)."""
    d, e = L
    s = 1.0 / np.sqrt(w)
    return d * s * s, e * s[:-1] * s[1:], s


def _fast_diag_solve(L_r, w_r, L_z, w_z, F, trace_diag=None):
    """Solve (L_r x diag(w_z) + diag(w_r) x L_z + diag(trace_diag) x e0 e0') U = F
    for U of shape (len(w_r), len(w_z)), i-major, by fast diagonalization;
    L_r and L_z are tridiagonal pencils (diagonal, off-diagonal).

    With L_r X_r = diag(w_r) X_r diag(lam) and L_z X_z = diag(w_z) X_z diag(mu),
    both eigenvector sets normalized in their mass, the Kronecker sum is
    diagonal in X_r x X_z: U = X_r [(X_r' F X_z) / (lam_i + mu_j)] X_z'.  A
    diagonal d = ``trace_diag`` on the row j = 0 is added by Woodbury: the
    trace t = U[:, 0] solves (I + C diag(d)) t = t0 with t0 the trace of the
    plain solve and C = X_r diag(c) X_r', c_i = sum_j X_z[0, j]^2 / (lam_i + mu_j),
    and the plain solution loses the response to the trace source d t.
    """
    try:
        d_r, e_r, s_r = _scaled_tridiagonal(L_r, w_r)
        d_z, e_z, s_z = _scaled_tridiagonal(L_z, w_z)
        lam, X_r = eigh_tridiagonal(d_r, e_r)
        mu, X_z = eigh_tridiagonal(d_z, e_z)
        X_r *= s_r[:, None]
        X_z *= s_z[:, None]
        denom = lam[:, None] + mu[None, :]
        V = (X_r.T @ F @ X_z) / denom
        if trace_diag is not None:
            x0 = X_z[0]
            C = (X_r * (x0**2 / denom).sum(axis=1)) @ X_r.T
            t0 = X_r @ (V @ x0)
            t = solve(np.eye(len(w_r)) + C * trace_diag[None, :], t0)
            V -= np.outer(X_r.T @ (trace_diag * t), x0) / denom
    except LinAlgError as exc:
        raise NumericError("fast-diagonalization solve failed: %s" % exc) from exc
    return X_r @ V @ X_z.T


def _check_solution(what, pencils, u, f, trace_diag=None):
    """Residual gate of a solve: ||A u - f|| for the Kronecker sum A of
    ``pencils`` = (L_r, w_r, L_z, w_z) and ``trace_diag`` (see
    ``_kron_apply``), on (len(w_r), len(w_z)) arrays u and f."""
    if not np.all(np.isfinite(u)):
        raise NumericError(
            "%s solve produced non-finite values" % what,
            diagnostics={"nunk": f.size},
        )
    res = float(np.linalg.norm(_kron_apply(*pencils, u, trace_diag) - f))
    if res > 1e-8 * max(1.0, np.linalg.norm(f)):
        raise NumericError(
            "%s solve residual too large" % what,
            diagnostics={"residual": res, "nunk": f.size},
        )


def apply_operator(idx, grid, field_arr):
    """Pointwise discrete -div(z^(1-2g) grad u) for axisymmetric u(r, z).

    Values are produced on nodes with 1 <= j <= nz-1 and 0 <= i <= nr-2;
    rows/columns that would need data beyond the grid are left at zero.
    Second-order accurate away from z = 0; at the weighted face the flux-
    exact vertical transmissibilities keep the {1, z^(2g)} family in the
    discrete kernel.
    """
    grid.check(idx)
    grid.shape_check(field_arr)
    n, g = idx.n, idx.gamma
    u = np.asarray(field_arr, dtype=float)
    hr, hz = grid.hr, grid.hz
    z = grid.z

    out = np.zeros_like(u)

    # radial part: -(z^(1-2g)/vol) * d(r^(n-1) u_r), faces at i*hr; the row
    # nr-1 would need the ghost beyond r_max and is zeroed below
    L_r = _flux_balance(_radial_faces(hr, grid.nr, n - 1))
    div_r = -_tridiag_apply(L_r, u) / _radial_cell_volumes(grid, n)[:, None]
    zw = np.where(z > 0, z, 1.0) ** (1.0 - 2.0 * g)
    zw[0] = 0.0  # the j = 0 row is not evaluated anyway

    # vertical part with flux-exact face transmissibilities on the faces
    # j+1/2 and natural end faces; only the nodes j = 1..nz-1 are kept
    tz = _vertical_transmissibility(z[:-1], z[1:], g) / hz**2
    L_z = _flux_balance(np.concatenate(([0.0], tz, [0.0])))
    div_z = -_tridiag_apply(L_z, u.T).T[:, 1:-1]

    # near the weighted face solutions mix z^(2g) and z^2 behaviour; the
    # two-point fluxes cannot be consistent for both, so the first rows use
    # the exact operator on a local fit in span{1, z^(2g), z^2, z^(2+2g)}
    for j in range(1, min(4, grid.nz - 2)):
        zs = z[j - 1 : j + 3]
        B = np.stack(
            [np.ones(4), zs ** (2.0 * g), zs**2, zs ** (2.0 + 2.0 * g)], axis=1
        )
        lvec = np.linalg.solve(
            B.T,
            np.array(
                [0.0, 0.0, 2.0 * (2.0 - 2.0 * g) * zw[j], 2.0 * (2.0 + 2.0 * g) * z[j]]
            ),
        )
        div_z[:, j - 1] = u[:, j - 1 : j + 3] @ lvec

    out[: grid.nr - 1, 1:-1] = -(
        zw[None, 1:-1] * div_r[: grid.nr - 1, 1:-1] + div_z[: grid.nr - 1, :]
    )
    out[grid.nr - 1, :] = 0.0
    return out


def barrier_values(idx, mu, x):
    """Exact flat-metric values of the weighted operator on the two barrier
    families |x|^(-mu) and z^(2g)|x|^(-(mu+2g))."""
    n, g = idx.n, idx.gamma
    xbar = np.asarray(x.xbar, dtype=float)
    z = float(x.xN)
    rho = float(np.sqrt(np.dot(xbar, xbar) + z * z))
    if rho == 0.0:
        raise DomainError("barrier values are singular at the origin")
    zw = z ** (1.0 - 2.0 * g)
    first = zw * mu * (n - 2.0 * g - mu) * rho ** (-(mu + 2.0))
    second = (
        zw * (mu + 2.0 * g) * (n - mu) * rho ** (-(mu + 2.0)) * (z / rho) ** (2.0 * g)
    )
    return first, second


def solve_extension(idx, grid, dirichlet_trace, boundary=None):
    """Solve -div(z^(1-2g) grad u) = 0 with Dirichlet data everywhere.

    ``dirichlet_trace`` maps radii to trace values at z = 0; ``boundary``
    maps (r, z) arrays to values on the lateral face r = r_max and the top
    z = z_max (default: the analytic standard-bubble extension).  Returns
    the full (nr, nz+1) grid function including the boundary rows.
    """
    grid.check(idx)
    n, g = idx.n, idx.gamma
    if boundary is None:
        boundary = lambda r, z: bubble.radial_profiles(idx, r, z)["W"]
    hr, hz = grid.hr, grid.hz
    r, z = grid.r, grid.z
    nr, nz = grid.nr, grid.nz

    trace = np.asarray(dirichlet_trace(r), dtype=float)
    top = np.broadcast_to(
        np.asarray(boundary(r, grid.z_max), dtype=float).ravel(), (nr,)
    ).copy()
    side = np.broadcast_to(
        np.asarray(boundary(grid.r_max, z), dtype=float).ravel(), (nz + 1,)
    ).copy()

    # unknowns: u[i, j] for 0 <= i < nr, 1 <= j <= nz-1, i-major; rows are
    # scaled by the radial cell volumes, which makes the matrix the
    # Kronecker sum L_r x diag(zw) + diag(vol) x L_z
    vol = _radial_cell_volumes(grid, n)
    t_r = _radial_faces(hr, nr, n - 1)
    tz = _vertical_transmissibility(z[:-1], z[1:], g) / hz**2
    zw = z[1:nz] ** (1.0 - 2.0 * g)
    L_r, L_z = _flux_balance(t_r), _flux_balance(tz)

    # Dirichlet data enters through the ghost faces of the boundary rows
    rhs = np.zeros((nr, nz - 1))
    rhs[-1, :] += t_r[-1] * zw * side[1:nz]
    rhs[:, 0] += vol * tz[0] * trace
    rhs[:, -1] += vol * tz[-1] * top
    u = _fast_diag_solve(L_r, vol, L_z, zw, rhs)
    _check_solution("extension", (L_r, vol, L_z, zw), u, rhs)

    out = np.empty((nr, nz + 1))
    out[:, 0] = trace
    out[:, nz] = top
    out[:, 1:nz] = u
    return out


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
    if R <= 0:
        raise DomainError("radius must be positive")
    n, g = idx.n, idx.gamma
    a = n + 1.0 - 2.0 * g
    nrho = max(8, int(round(resolution * R)))
    hrho = R / nrho
    rho_f = np.arange(nrho + 1) * hrho

    L = _flux_balance(_radial_faces(hrho, nrho, a))
    mass = np.diff(rho_f ** (a + 1.0)) / (a + 1.0)  # int rho^a
    # symmetric scaling M^(-1/2) L M^(-1/2) keeps the pencil tridiagonal
    d, e, _ = _scaled_tridiagonal(L, mass)
    try:
        lam = eigh_tridiagonal(
            d,
            e,
            eigvals_only=True,
            select="i",
            select_range=(0, 0),
        )
    except LinAlgError as exc:
        raise NumericError("eigenvalue solve failed: %s" % exc) from exc
    lam1 = float(lam[0])
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
    if R <= 0:
        raise DomainError("radius must be positive")
    n, g = idx.n, idx.gamma
    if width is None:
        width = R / 64.0
    if 4.0 * width >= R / 4.0:
        raise DomainError("fit annulus [4*width, R/4] is empty")
    kappa = constants(idx).kappa
    L = 3.0 * R
    grid = WeightedGrid(L, L, resolution, resolution, 1.0 - 2.0 * g)
    r = grid.r
    nr, nz = grid.nr, grid.nz

    # bump mollifier, unit mass in the discrete trace measure
    vol = _radial_cell_volumes(grid, n)
    psi = np.zeros(nr)
    inside = r < width
    psi[inside] = np.exp(-1.0 / (1.0 - (r[inside] / width) ** 2))
    mass = sphere_area(n) * np.sum(psi * vol)
    if mass <= 0:
        raise DomainError("mollifier width unresolved by the grid")
    psi /= mass

    rhs = np.zeros((nr, nz))
    rhs[:, 0] = psi * vol / kappa  # prescribed weighted flux through z = 0, per cell
    G = _solve_trace_flux(idx, grid, rhs)

    trace = G[:, 0]
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


def _trace_flux_pencils(idx, grid):
    """The two 1-D pencils of the trace-flux operator on the rows
    j = 0..nz-1: it is L_r x diag(w_z) + diag(w_r) x L_z, returned as
    (L_r, w_r, L_z, w_z) with L_r and L_z as (diagonal, off-diagonal)
    arrays.  w_r are the radial cell volumes, w_z the slab integrals of
    z^(1-2g); the trace face z = 0 is natural, the far faces r = r_max and
    z = z_max are zero Dirichlet."""
    n, g = idx.n, idx.gamma
    z, nz = grid.z, grid.nz
    tz = np.concatenate(([0.0], _vertical_transmissibility(z[:-1], z[1:], g)))
    L_r = _flux_balance(_radial_faces(grid.hr, grid.nr, n - 1))
    L_z = _flux_balance(tz / grid.hz)
    slab_w = _slab_integrals(grid, 2.0 - 2.0 * g)[:nz]
    return L_r, _radial_cell_volumes(grid, n), L_z, slab_w


def _solve_trace_flux(idx, grid, rhs, bulk_r=None, robin=None):
    """FV solve of -div(z^(1-2g) grad u) (+ zero-order terms) on the rows
    j = 0..nz-1 (see ``_trace_flux_pencils``).  ``rhs`` is the (nr, nz)
    right-hand side, already integrated over control volumes; a weighted
    flux prescribed through z = 0 enters its trace row.  The zero-order
    terms are a separable bulk term ``bulk_r[i] * w_z[j]`` and a Robin trace
    coefficient ``robin`` per radial cell.  Returns the (nr, nz+1) grid
    function, zero on the Dirichlet row j = nz.
    """
    nr, nz = grid.nr, grid.nz
    L_r, vol, L_z, slab_w = _trace_flux_pencils(idx, grid)
    if bulk_r is not None:
        L_r = (L_r[0] + bulk_r, L_r[1])
    trace_diag = None if robin is None else vol * robin
    u = _fast_diag_solve(L_r, vol, L_z, slab_w, rhs, trace_diag)
    _check_solution("trace-flux", (L_r, vol, L_z, slab_w), u, rhs, trace_diag)
    out = np.zeros((nr, nz + 1))
    out[:, :nz] = u
    return out


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
    pi: SymmetricTensor
    eps_hat: float
    diagnostics: dict = field(default_factory=dict)

    def evaluate(self, xbar, xN):
        """Pointwise Psi; the angular factor vanishes like r^2 at the axis."""
        xbar = np.asarray(xbar, dtype=float)
        r = float(np.linalg.norm(xbar))
        quad = float(xbar @ self.pi.entries @ xbar)
        if r == 0.0:
            return 0.0
        return self._psi_at(r, float(xN)) * quad / r**2

    def _psi_at(self, r, z):
        g = self.grid
        # bilinear in (r, z^(2g)): near the trace psi ~ a(r) + b(r) z^(2g),
        # which this chart reproduces exactly
        i = min(max(int(r / g.hr - 0.5), 0), g.nr - 2)
        j = min(max(int(z / g.hz), 0), g.nz - 1)
        two_g = 1.0 - g.weight_exponent
        s_lo, s_hi = g.z[j] ** two_g, g.z[j + 1] ** two_g
        fr = np.clip((r - g.r[i]) / g.hr, 0.0, 1.0)
        fz = np.clip((max(z, 0.0) ** two_g - s_lo) / (s_hi - s_lo), 0.0, 1.0)
        p = self.psi
        return float(
            (1 - fr) * (1 - fz) * p[i, j]
            + fr * (1 - fz) * p[i + 1, j]
            + (1 - fr) * fz * p[i, j + 1]
            + fr * fz * p[i + 1, j + 1]
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
    assumed.
    """
    if eps_hat <= 0:
        raise DomainError("eps_hat must be positive")
    if not isinstance(pi, SymmetricTensor):
        pi = SymmetricTensor(np.asarray(pi, dtype=float), trace_free=True)
    if not pi.trace_free:
        raise DomainError("linearized correction requires a trace-free tensor")
    if pi.n != idx.n:
        raise DomainError("tensor dimension does not match the index")
    idx.require_supercritical("the linearized correction")
    grid.check(idx)

    n, g = idx.n, idx.gamma
    m = idx.m
    kappa = constants(idx).kappa
    r, z = grid.r, grid.z
    nz = grid.nz

    # one evaluation serves the source and the diagnostics; Wz needs z > 0,
    # so the trace row takes z[1], which the source multiplies by z = 0 and
    # the diagnostics' weight masks
    z_pos = np.where(z > 0, z, z[1])
    prof = bubble.radial_profiles(idx, r, z_pos, fields=("Wr_over_r", "Wz", "lap_tan"))
    # pi_ij d_ij W = (W_rr - W_r/r) * angular for trace-free pi
    src_radial = prof["lap_tan"] - n * prof["Wr_over_r"]
    rho = np.sqrt(r[:, None] ** 2 + z[None, :] ** 2)
    source = 2.0 * eps_hat * z[None, :] * _cutoff(eps_hat * rho) * src_radial

    # control-volume integration: radial volume x slab integral of z^(2-2g)
    vol = _radial_cell_volumes(grid, n)
    slab_z2 = _slab_integrals(grid, 3.0 - 2.0 * g)
    safe = np.where(z > 0, z, 1.0)
    src_cells = vol[:, None] * slab_z2[None, :] * (source / safe[None, :])
    src_cells[:, 0] = 0.0  # the trace slab carries no volume source mass

    # zero-order terms: angular eigenvalue 2n/r^2 in the bulk (the radial
    # factor times the slab weights), Robin on the trace
    vol_m2 = _radial_cell_volumes(grid, n - 2.0)  # int r^(n-3)
    w_tr = bubble._trace_radial(idx, r)
    robin = -((n + 2.0 * g) / m) * w_tr ** (4.0 * g / m) / kappa
    # lim z^(1-2g) dz psi = robin * psi(., 0); the outward bottom flux is the
    # negative of that limit, so the trace balance gains +robin on the LHS
    # diagonal (the coefficient is negative: the boundary term is attractive)
    psi = _solve_trace_flux(
        idx, grid, src_cells[:, :nz], bulk_r=2.0 * n * vol_m2, robin=robin
    )

    result = LinearizedResult(psi=psi, grid=grid, pi=pi, eps_hat=eps_hat)
    _diagnose(idx, result, prof)
    return result


def _diagnose(idx, result, prof):
    """Report the kernel components pinned at the origin and the
    orthogonality residuals; ``prof`` holds the bubble's ``Wr_over_r`` and
    ``Wz`` on the grid, with the trace row at z[1]."""
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

    # orthogonality residuals: angular factor x radial energy integral
    ang = sphere_area(n) * np.trace(result.pi.entries) / n
    wr = r[:, None] * prof["Wr_over_r"]
    wz = prof["Wz"]
    psi = result.psi
    pr = np.zeros_like(psi)
    pz = np.zeros_like(psi)
    pr[1:-1, :] = (psi[2:, :] - psi[:-2, :]) / (2.0 * grid.hr)
    pz[:, 1:-1] = (psi[:, 2:] - psi[:, :-2]) / (2.0 * grid.hz)
    # the trace row z = 0 carries no weight (z^(1-2g) is infinite there for g > 1/2)
    z_weight = np.zeros_like(z)
    z_weight[z > 0] = z[z > 0] ** (1.0 - 2.0 * g)
    weight = _radial_cell_volumes(grid, n)[:, None] * z_weight[None, :] * grid.hz
    i_rad = float(np.sum(weight * (pr * wr + pz * wz)))
    energy = float(np.sum(weight * (pr**2 + pz**2)))
    ortho_energy = ang * i_rad
    w_tr = bubble._trace_radial(idx, r)
    p_crit = (n + 2.0 * g) / m
    tr_rad = float(
        np.sum(_radial_cell_volumes(grid, n) * w_tr**p_crit * psi[:, 0])
    )
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
            "radial_energy_overlap": i_rad,
            "envelope_max": float(envelope.max()),
        }
    )
