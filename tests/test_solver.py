import math

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import LinAlgError
from scipy.sparse.linalg import spsolve

from fyk import bubble, solver
from fyk.bubble import HalfSpacePoint
from fyk.errors import DomainError, NumericError
from fyk.solver import SymmetricTensor, WeightedGrid
from fyk.specfun import ProblemIndex, constants


def _grid(L, n):
    return WeightedGrid(L, L, n, n)


# -- grid and tensor plumbing -------------------------------------------------


def test_grid_validation():
    with pytest.raises(DomainError):
        WeightedGrid(-1.0, 1.0, 8, 8)
    with pytest.raises(DomainError):
        WeightedGrid(1.0, 1.0, 1, 8)
    # extents must be finite, cell counts integers
    for bad in (
        (math.nan, 1.0, 8, 8),
        (1.0, math.inf, 8, 8),
        (1.0, 1.0, 2.5, 8),
        (1.0, 1.0, 8, 8.0),
    ):
        with pytest.raises(DomainError):
            WeightedGrid(*bad)
    assert WeightedGrid(1.0, 1.0, np.int64(8), 8).nr == 8
    g = WeightedGrid(2.0, 1.0, 4, 5)
    assert g.hr == 0.5
    assert g.r[0] == 0.25  # cell-centered radial axis
    assert g.z[0] == 0.0  # node-based vertical axis with the trace row
    assert len(g.z) == 6


def test_symmetric_tensor_validation():
    with pytest.raises(DomainError):
        SymmetricTensor(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DomainError):
        SymmetricTensor(np.eye(3), trace_free=True)
    t = SymmetricTensor(np.diag([1.0, -1.0, 0.0]), trace_free=True)
    assert t.n == 3
    assert t.norm_sq() == 2.0
    assert t.sup_norm() == 1.0


# -- discrete operator --------------------------------------------------------


@pytest.mark.parametrize("n,gamma", [(3, 0.5), (4, 0.3), (5, 0.7)])
def test_operator_annihilates_kernel_families(n, gamma):
    # u = 1 and u = z^(2g) are exact solutions; the flux-exact vertical
    # transmissibilities make both discretely harmonic to rounding
    idx = ProblemIndex(n, gamma)
    grid = _grid(4.0, 40)
    R, Z = np.meshgrid(grid.r, grid.z, indexing="ij")
    for u in (np.ones_like(R), Z ** (2.0 * gamma)):
        resid = solver.apply_operator(idx, grid, u)
        interior = resid[1:-1, 1:-1]
        assert np.abs(interior).max() <= 1e-11


def test_operator_consistency_on_smooth_field():
    # -div(z^w grad u) for u = r^2 z^2 has the closed form checked here
    idx = ProblemIndex(4, 0.3)
    g = idx.gamma
    grid = _grid(4.0, 160)
    R, Z = np.meshgrid(grid.r, grid.z, indexing="ij")
    u = R**2 * Z**2
    # exact: -z^(1-2g) * (2n z^2 + (4 - 4g) r^2)
    exact = -(Z ** (1.0 - 2.0 * g)) * (2.0 * idx.n * Z**2 + (4.0 - 4.0 * g) * R**2)
    resid = solver.apply_operator(idx, grid, u) - exact
    zw = np.where(Z > 0, Z, 1.0) ** (1.0 - 2.0 * g)
    rel = np.abs(resid / zw)
    win = (R > 1.0) & (R < 2.0) & (Z > 0.5) & (Z < 2.0)
    assert rel[win].max() <= 2e-2


@pytest.mark.parametrize("n,gamma", [(4, 0.3), (5, 0.7)])
def test_operator_residual_convergence_on_bubble(n, gamma):
    # weight-normalized residual on the exact extension shrinks with order
    # close to 2 both away from and next to the weighted face
    idx = ProblemIndex(n, gamma)
    interior, face = [], []
    for cells in (40, 80, 160):
        grid = _grid(4.0, cells)
        W = bubble.radial_profiles(idx, grid.r, grid.z)["W"]
        resid = solver.apply_operator(idx, grid, W)
        R, Z = np.meshgrid(grid.r, grid.z, indexing="ij")
        zw = np.where(Z > 0, Z, 1.0) ** (1.0 - 2.0 * gamma)
        rel = np.abs(resid) / zw
        ring = (R > 1.0) & (R < 2.0)
        interior.append(rel[ring & (Z > 0.5) & (Z < 3.0)].max())
        face.append(rel[ring & (Z > 0.0) & (Z <= 0.5)].max())
    # the coarsest refinement can be preasymptotic near the weighted face,
    # so require monotone decrease throughout and order >= 1.5 at the end
    for errs in (interior, face):
        assert errs[0] > errs[1] > errs[2], errs
        assert math.log2(errs[1] / errs[2]) >= 1.5, errs


@pytest.mark.parametrize("n,gamma", [(4, 0.3), (5, 0.7)])
def test_operator_is_the_solved_operator(captured, n, gamma):
    # on a field that vanishes on the Dirichlet rows j = 0 and j = nz, the
    # extension solve's gated pencils, divided by the cell volumes, are
    # apply_operator away from its near-trace fit rows j = 1..3 and the
    # row i = nr-1 it leaves at zero
    idx = ProblemIndex(n, gamma)
    grid = _grid(6.0, 32)
    solver.solve_extension(idx, grid)
    _, (L_r, vol, L_z, zw), _, _, _ = captured[0]
    U = np.zeros((grid.nr, grid.nz + 1))
    U[:, 1:-1] = np.random.default_rng(3).standard_normal((grid.nr, grid.nz - 1))
    got = solver.apply_operator(idx, grid, U)[:-1, 4:-1]
    want = solver._kron_apply((L_r, vol, L_z, zw), U[:, 1:-1]) / vol[:, None]
    absolute = lambda L: (np.abs(L[0]), np.abs(L[1]))
    scale = solver._kron_apply((absolute(L_r), vol, absolute(L_z), zw), np.abs(U[:, 1:-1]))
    scale = (scale / vol[:, None])[:-1, 3:]
    assert (np.abs(got - want[:-1, 3:]) <= 1e-13 * scale).all()


@pytest.mark.parametrize("power", [0.0, 0.5, 3.0, 4.4, 23.0])
def test_radial_axis_masses_sum_to_the_integral(power):
    # the cell masses telescope to int_0^R r^p dr = R^(p+1)/(p+1)
    R, cells = 2.5, 97
    L, mass, t_far = solver._radial_axis(R / cells, cells, power)
    assert math.fsum(mass) == pytest.approx(R ** (power + 1) / (power + 1), rel=1e-14)
    assert len(L[0]) == len(mass) == cells and len(L[1]) == cells - 1
    assert t_far == 2.0 * R**power / (R / cells)


def test_operator_shape_mismatch():
    idx = ProblemIndex(4, 0.3)
    grid = _grid(2.0, 8)
    with pytest.raises(DomainError):
        solver.apply_operator(idx, grid, np.zeros((3, 3)))


# -- barriers -----------------------------------------------------------------


def test_barrier_values_match_finite_differences():
    idx = ProblemIndex(5, 0.7)
    g = idx.gamma
    mu = 2.2
    x = HalfSpacePoint(np.array([0.8, 0.3, 0.0, 0.0, 0.0]), 0.9)
    first, second = solver.barrier_values(idx, mu, x)

    def apply_num(u):
        h = 1e-4
        xb, z = x.xbar, x.xN
        rho = lambda dxb, dz: np.sqrt(np.dot(xb + dxb, xb + dxb) + (z + dz) ** 2)
        val = 0.0
        # laplacian in the n tangential directions plus the weighted z part
        for k in range(idx.n):
            e = np.zeros(idx.n)
            e[k] = h
            val += (u(rho(e, 0), z) - 2 * u(rho(0 * e, 0), z) + u(rho(-e, 0), z)) / h**2
        uz = lambda dz: u(rho(np.zeros(idx.n), dz), z + dz)
        val += (uz(h) - 2 * uz(0) + uz(-h)) / h**2
        val += (1.0 - 2.0 * g) / z * (uz(h) - uz(-h)) / (2 * h)
        return -(z ** (1.0 - 2.0 * g)) * val

    u1 = lambda rho, z: rho ** (-mu)
    u2 = lambda rho, z: z ** (2.0 * g) * rho ** (-(mu + 2.0 * g))
    assert first == pytest.approx(apply_num(u1), rel=1e-5)
    assert second == pytest.approx(apply_num(u2), rel=1e-5)


def test_barrier_singular_at_origin():
    idx = ProblemIndex(4, 0.3)
    with pytest.raises(DomainError):
        solver.barrier_values(idx, 1.0, HalfSpacePoint(np.zeros(4), 0.0))


# -- dirichlet solve ----------------------------------------------------------


def test_solve_extension_reproduces_constants():
    idx = ProblemIndex(4, 0.3)
    grid = _grid(3.0, 24)
    W = solver.solve_extension(idx, grid, np.ones((grid.nr + 1, grid.nz + 1)))
    assert np.abs(W - 1.0).max() <= 1e-12


@pytest.mark.parametrize("n,gamma", [(3, 0.5), (4, 0.3)])
def test_solve_extension_converges_to_bubble(n, gamma):
    idx = ProblemIndex(n, gamma)
    errs = []
    for cells in (24, 48, 96):
        grid = _grid(6.0, cells)
        W = solver.solve_extension(idx, grid)
        exact = bubble.radial_profiles(idx, grid.r, grid.z)["W"]
        errs.append(np.abs(W - exact).max())
    assert errs[0] > errs[1] > errs[2], errs
    assert math.log2(errs[1] / errs[2]) >= 1.5, errs


# -- trace-flux assembly ------------------------------------------------------


def _tridiagonal(L):
    d, e = L
    return sparse.diags([e, d, e], [-1, 0, 1])


def _kron_sum(L_r, w_r, L_z, w_z, trace_diag=None):
    """The test oracle's sparse matrix L_r x diag(w_z) + diag(w_r) x L_z,
    i-major, plus ``trace_diag`` on the rows j = 0, assembled from the
    (diagonal, off-diagonal) pencils; a bulk term sits on L_r's diagonal."""
    A = sparse.kron(_tridiagonal(L_r), sparse.diags(w_z)) + sparse.kron(
        sparse.diags(w_r), _tridiagonal(L_z)
    )
    if trace_diag is not None:
        diag = np.zeros((len(w_r), len(w_z)))
        diag[:, 0] = trace_diag
        A = A + sparse.diags(diag.ravel())
    return A.tocsr()


def test_kron_sum_structure():
    # the flux balance is symmetric, and constants carry no flux except
    # through the two Dirichlet-0 faces r = r_max and z = z_max
    idx = ProblemIndex(4, 0.3)
    grid = WeightedGrid(3.0, 2.0, 12, 10)
    L_r, vol, L_z, slab_w = solver._trace_flux_pencils(idx, grid)
    A = _kron_sum(L_r, vol, L_z, slab_w)
    scale = abs(A).max()
    assert abs(A - A.T).max() <= 1e-15 * scale
    ones = (A @ np.ones(A.shape[0])).reshape(grid.nr, grid.nz)
    ghost = np.zeros_like(ones, dtype=bool)
    ghost[-1, :] = True
    ghost[:, -1] = True
    assert np.abs(ones[~ghost]).max() <= 1e-13 * scale
    assert (ones[ghost] > 0.0).all()
    # a bulk term on L_r and a trace term only add to the diagonal, the
    # trace term on row j = 0
    bulk_r = np.arange(grid.nr, dtype=float)
    trace = np.linspace(-1.0, 1.0, grid.nr)
    bulk_L_r = (L_r[0] + bulk_r, L_r[1])
    D = _kron_sum(bulk_L_r, vol, L_z, slab_w, trace) - A
    expect = np.outer(bulk_r, slab_w)
    expect[:, 0] += trace
    assert abs(D - sparse.diags(expect.ravel())).max() <= 1e-13 * scale
    # the gates' matrix-free apply is that matrix times U, to rounding
    U = np.random.default_rng(7).standard_normal((grid.nr, grid.nz))
    for P, t in ((L_r, None), (bulk_L_r, None), (L_r, trace), (bulk_L_r, trace)):
        M = _kron_sum(P, vol, L_z, slab_w, t)
        got = solver._kron_apply((P, vol, L_z, slab_w), U, t)
        assert got.shape == U.shape
        row_scale = abs(M) @ np.abs(U.ravel())
        assert (np.abs(got.ravel() - M @ U.ravel()) <= 1e-14 * row_scale).all()


def test_non_finite_solution_trips_the_gate():
    idx = ProblemIndex(4, 0.3)
    grid = WeightedGrid(3.0, 2.0, 12, 10)
    pencils = solver._trace_flux_pencils(idx, grid)
    u = np.zeros((grid.nr, grid.nz))
    u[3, 4] = np.nan
    with pytest.raises(NumericError, match="non-finite") as info:
        solver._check_solution("trace-flux", pencils, u, np.zeros_like(u))
    assert info.value.diagnostics == {"nunk": u.size}


def test_extension_default_boundary_is_the_bubble(monkeypatch):
    # the default Dirichlet table is the bubble on (r, r_max) x z from one
    # radial_profiles call, and the solution's trace column and top row are
    # that table's edges, bit for bit
    idx = ProblemIndex(4, 0.3)
    grid = _grid(6.0, 32)
    calls, radial_profiles = [], bubble.radial_profiles

    def profiles_spy(*args, **kwargs):
        calls.append((args, radial_profiles(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(bubble, "radial_profiles", profiles_spy)
    W = solver.solve_extension(idx, grid)
    ((args, f),) = calls
    assert np.array_equal(args[1], np.append(grid.r, grid.r_max))
    assert np.array_equal(args[2], grid.z)
    table = f["W"]
    assert np.array_equal(W[:, 0], table[:-1, 0])
    assert np.array_equal(W[:, -1], table[:-1, -1])


def test_extension_rejects_a_table_of_the_wrong_shape():
    idx = ProblemIndex(4, 0.3)
    grid = WeightedGrid(6.0, 4.0, 12, 10)
    for shape in ((12, 11), (13, 10)):
        with pytest.raises(DomainError, match="Dirichlet table"):
            solver.solve_extension(idx, grid, np.ones(shape))


# -- eigenvalue scaling -------------------------------------------------------


@pytest.mark.parametrize("n,gamma", [(3, 0.5), (4, 0.3)])
def test_lambda1_positive_and_scales(n, gamma):
    idx = ProblemIndex(n, gamma)
    vals = {R: solver.rayleigh_lambda1(idx, R) for R in (0.5, 1.0, 2.0)}
    assert all(v > 0.0 for v in vals.values())
    # lambda1(R) ~ c / R^2
    scaled = [v * R**2 for R, v in vals.items()]
    assert max(scaled) / min(scaled) - 1.0 <= 1e-3
    # monotone decreasing in the domain radius
    assert vals[0.5] > vals[1.0] > vals[2.0]


@pytest.mark.parametrize("n,gamma", [(3, 0.5), (4, 0.3)])
def test_lambda1_continuum_limit(n, gamma):
    # the half-ball in the weighted measure has effective dimension m + 2,
    # so lambda1 R^2 -> j_{m/2,1}^2
    import mpmath

    idx = ProblemIndex(n, gamma)
    target = float(mpmath.besseljzero(idx.m / 2.0, 1)) ** 2
    assert solver.rayleigh_lambda1(idx, 1.0) == pytest.approx(target, rel=1e-3)


@pytest.mark.parametrize(
    "R,resolution", [(math.nan, 96), (math.inf, 96), (0.0, 96), (1.0, 0), (1.0, -5), (1.0, 2.5)]
)
def test_lambda1_rejects_bad_radius_and_resolution(R, resolution):
    with pytest.raises(DomainError):
        solver.rayleigh_lambda1(ProblemIndex(4, 0.3), R, resolution=resolution)


def test_cell_counts_are_bounded():
    # more than _MAX_CELLS cells per axis raises before anything is
    # allocated: R = 1e15 in rayleigh_lambda1 asked numpy for 682 PiB
    cap = solver._MAX_CELLS
    idx = ProblemIndex(4, 0.3)
    WeightedGrid(1.0, 1.0, cap, cap)
    for nr, nz in ((cap + 1, 8), (8, cap + 1), (10**30, 8)):
        with pytest.raises(DomainError, match="at most"):
            WeightedGrid(1.0, 1.0, nr, nz)
    assert math.isfinite(solver.rayleigh_lambda1(idx, 1.0, resolution=cap))
    for R, resolution in ((1e15, 96), (1.0, cap + 1), (1e-3, 10**400)):
        with pytest.raises(DomainError, match="at most"):
            solver.rayleigh_lambda1(idx, R, resolution=resolution)
    with pytest.raises(DomainError, match="at most"):
        solver.green_asymptotics(ProblemIndex(3, 0.5), R=4.0, resolution=cap + 1)


def test_default_cell_counts_stay_far_inside_the_bound():
    # every solve subcommand's default grid has at most 1/8 of _MAX_CELLS
    # per axis
    from fyk import cli

    parser = cli.build_parser()
    for kind in ("extension", "green", "lambda1", "linearized"):
        args = parser.parse_args(["solve", kind, "--n", "4", "--gamma", "0.3"])
        cells = max(args.sizes) if kind == "extension" else args.resolution
        if kind == "lambda1":
            cells = round(cells * max(args.radii))
        assert cells <= solver._MAX_CELLS // 8, kind


def test_lambda1_is_deterministic():
    idx = ProblemIndex(4, 0.3)
    assert solver.rayleigh_lambda1(idx, 1.0) == solver.rayleigh_lambda1(idx, 1.0)


@pytest.mark.parametrize("cells", [8, 512, solver._MAX_CELLS])
def test_lowest_eigenvalue_by_bisection(cells):
    # the Sturm bisection of rayleigh_lambda1 against the least eigenvalue
    # of the scaled radial pencil from a dense eigvalsh, and at _MAX_CELLS,
    # where the dense solve takes about 24 s on two cores, against LAPACK's
    # tridiagonal bisection through SciPy; each is exact for a matrix within
    # a few eps ||T|| of T (measured at most 0.5 eps ||T|| apart)
    from scipy.linalg import eigvalsh_tridiagonal

    for idx in (ProblemIndex(4, 0.3), ProblemIndex(3, 0.95)):
        L, mass, _ = solver._radial_axis(1.0 / cells, cells, idx.n + 1.0 - 2.0 * idx.gamma)
        d, e, _ = solver._scaled_tridiagonal(L, mass)
        if cells < solver._MAX_CELLS:
            want = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))[0]
        else:
            want = eigvalsh_tridiagonal(d, e, select="i", select_range=(0, 0))[0]
        norm = np.max(np.abs(d) + np.abs(np.r_[0.0, e]) + np.abs(np.r_[e, 0.0]))
        got = solver._lowest_eigenvalue(d, e)
        assert abs(got - want) <= 2.0 * np.finfo(float).eps * norm, (idx, cells)


@pytest.mark.parametrize("n, R", [(4, 1e-100), (24, 1e-12)])
def test_lambda1_on_an_underflowing_radius_raises(n, R):
    # the cell masses underflow to 0, so the scaled pencil holds NaN, with
    # which the bisection's interval tests would never end it
    with pytest.raises(NumericError):
        solver.rayleigh_lambda1(ProblemIndex(n, 0.3), R)
    with pytest.raises(NumericError):
        solver._lowest_eigenvalue([1.0, np.nan], [0.5])


# -- green's function ---------------------------------------------------------


def test_green_asymptotics_slope_and_constant():
    idx = ProblemIndex(3, 0.5)
    fit = solver.green_asymptotics(idx, R=4.0)
    assert fit.slope == pytest.approx(-idx.m, rel=0.02)
    assert fit.constant == pytest.approx(constants(idx).green_const, rel=0.05)
    assert fit.radii.shape == fit.trace_values.shape
    assert (fit.trace_values > 0.0).all()


def test_green_solve_peak_memory():
    # the 512 x 512 trace-flux solve at the CLI default: the residual gate
    # applies the Kronecker sum matrix-free, so the peak is a few dense
    # 512 x 512 arrays (11.1 MB measured, and 14.9 MB with the gate run
    # inside the solve, before its mode arrays are freed); assembling the
    # sparse 2-D matrix for the gate took it to 70 MB
    import tracemalloc

    tracemalloc.start()
    try:
        solver.green_asymptotics(ProblemIndex(3, 0.5), 4.0, resolution=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13e6


def _green_modes(monkeypatch, tiny):
    """The fit of ``green_asymptotics`` at the CLI default (R = 4, 512
    cells) with ``solver._TINY`` set to ``tiny``, and the mode coefficients
    V of its one ``_thomas_modes`` call."""
    seen = []
    thomas = solver._thomas_modes

    def spy(*args):
        seen.append(thomas(*args))
        return seen[-1]

    with monkeypatch.context() as m:
        m.setattr(solver, "_TINY", tiny)
        m.setattr(solver, "_thomas_modes", spy)
        fit = solver.green_asymptotics(ProblemIndex(3, 0.5), 4.0)
    (V,) = seen
    return fit, V


def _subnormal(a):
    return (a != 0.0) & (np.abs(a) < np.finfo(float).tiny)


def test_thomas_modes_leave_no_subnormals(monkeypatch):
    # green's high radial modes decay through the subnormal range along z,
    # which a dense product reads many times slower; the sweep returns them
    # as 0
    _, unflushed = _green_modes(monkeypatch, 0.0)
    assert _subnormal(unflushed).sum() > 4000
    _, V = _green_modes(monkeypatch, np.finfo(float).tiny)
    assert not _subnormal(V).any()
    assert np.array_equal(V, np.where(_subnormal(unflushed), 0.0, unflushed))


def test_green_trace_is_the_unflushed_product(monkeypatch):
    # the modes' product back to the grid, built here from the unflushed V,
    # gives the green trace bit for bit
    _, unflushed = _green_modes(monkeypatch, 0.0)
    fit, _ = _green_modes(monkeypatch, np.finfo(float).tiny)
    grid = WeightedGrid(12.0, 12.0, 512, 512)
    L_r, vol, _, _ = solver._trace_flux_pencils(ProblemIndex(3, 0.5), grid)
    d, e, s = solver._scaled_tridiagonal(L_r, vol)
    X = solver.eigh_tridiagonal(d, e)[1] * s[:, None]
    trace = (X @ unflushed.T)[:, 0]
    assert np.array_equal(fit.trace_values, trace[np.isin(grid.r, fit.radii)])


def test_green_requires_admissible_index():
    with pytest.raises(DomainError):
        solver.green_asymptotics(ProblemIndex(3, 0.5 + 1e-9), R=2.0)
    for R in (math.nan, math.inf, 0.0):
        with pytest.raises(DomainError):
            solver.green_asymptotics(ProblemIndex(3, 0.5), R=R)


def test_green_is_linear_in_the_source():
    # halving the source mass halves the trace values (pure linear algebra,
    # checked end to end through the assembly)
    idx = ProblemIndex(4, 0.3)
    a = solver.green_asymptotics(idx, R=2.0, resolution=128)
    assert a.slope == pytest.approx(-idx.m, rel=0.05)


# -- linearized solve ---------------------------------------------------------


def _linearized(idx, scale=1.0, cells=96, box=16.0):
    entries = scale * np.diag([1.0, -1.0] + [0.0] * (idx.n - 2))
    pi = SymmetricTensor(entries, trace_free=True)
    grid = WeightedGrid(box, box, cells, cells)
    return solver.solve_linearized(idx, pi, 0.5, grid)


def test_linearized_requires_trace_free():
    idx = ProblemIndex(4, 0.3)
    pi = SymmetricTensor(np.eye(4))
    grid = _grid(8.0, 32)
    with pytest.raises(DomainError):
        solver.solve_linearized(idx, pi, 0.5, grid)


@pytest.mark.parametrize("eps_hat", [math.nan, math.inf, 0.0, -0.5])
def test_linearized_rejects_bad_eps(eps_hat):
    idx = ProblemIndex(4, 0.3)
    pi = SymmetricTensor(np.diag([1.0, -1.0, 0.0, 0.0]), trace_free=True)
    with pytest.raises(DomainError):
        solver.solve_linearized(idx, pi, eps_hat, _grid(8.0, 32))


def test_linearized_evaluate_stays_in_the_box():
    # outside [0, r_max] x [0, z_max] there is no solution to interpolate:
    # past r_max the solve's far boundary is 0, not the last cell's value
    res = _linearized(ProblemIndex(4, 0.3), cells=32, box=8.0)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    assert math.isfinite(res.evaluate(8.0 * x, 8.0))
    for xbar, z in (
        (50.0 * x, 0.5),
        (x, -0.1),
        (x, 8.5),
        (np.array([math.nan, 0.0, 0.0, 0.0]), 0.5),
        (np.array([math.inf, 0.0, 0.0, 0.0]), 0.5),
        (x, math.nan),
    ):
        with pytest.raises(DomainError):
            res.evaluate(xbar, z)


def test_linearized_evaluate_falls_to_zero_at_the_far_face():
    # psi is 0 on the far Dirichlet face r = r_max: past the last cell
    # center r_max - hr/2 it falls linearly to 0 there (before, it stayed at
    # the last cell's value, 3.45e-5 at r = r_max)
    res = _linearized(ProblemIndex(4, 0.3), cells=32, box=8.0)
    hr, j = res.grid.hr, 4
    z = res.grid.z[j]
    x = np.array([1.0, 0.0, 0.0, 0.0])
    last = res.psi[-1, j]
    assert last != 0.0
    assert res.evaluate(8.0 * x, z) == 0.0
    assert res.evaluate((8.0 - 0.5 * hr) * x, z) == last
    assert res.evaluate((8.0 - 0.25 * hr) * x, z) == pytest.approx(0.5 * last, rel=1e-12)
    # inside, psi still interpolates between cell centers
    assert res.evaluate((8.0 - hr) * x, z) == pytest.approx(0.5 * (last + res.psi[-2, j]), rel=1e-12)


def test_linearized_evaluate_falls_to_zero_at_the_axis():
    # psi is 0 on the axis: before the first cell center hr/2 it falls
    # linearly to 0 there (before, it held the first cell's value, 4.07e-3
    # at both r = 1e-6 and r = hr/4 at z = 0.5)
    res = _linearized(ProblemIndex(4, 0.3), cells=32, box=8.0)
    hr, j = res.grid.hr, 2
    z = res.grid.z[j]
    x = np.array([1.0, 0.0, 0.0, 0.0])
    first = res.psi[0, j]
    assert first != 0.0
    assert res.evaluate(0.5 * hr * x, z) == first
    assert res.evaluate(0.25 * hr * x, z) == pytest.approx(0.5 * first, rel=1e-12)
    assert res.evaluate(1e-6 * x, z) == pytest.approx(2e-6 / hr * first, rel=1e-9)
    # the pinning diagnostics' central difference at hr/4 still reads 0
    assert res.diagnostics["grad_origin"].tolist() == [0.0] * 4


def test_linearized_scales_linearly():
    # the radial factor psi(r, z) does not see the tensor amplitude; the
    # amplitude enters only through the angular factor, so the full field
    # is exactly linear in the tensor
    idx = ProblemIndex(4, 0.3)
    r1 = _linearized(idx, 1.0)
    r3 = _linearized(idx, 3.0)
    assert np.array_equal(r1.psi, r3.psi)
    x = np.array([0.7, -0.2, 0.1, 0.0])
    assert r3.evaluate(x, 0.4) == pytest.approx(
        3.0 * r1.evaluate(x, 0.4), rel=1e-13
    )


def test_linearized_orthogonality_diagnostics():
    idx = ProblemIndex(4, 0.3)
    res = _linearized(idx)
    d = res.diagnostics
    scale = max(abs(d["energy"]), 1e-30)
    # the angular structure kills every kernel projection identically
    assert abs(d["ortho_energy"]) <= 1e-12 * scale
    assert abs(d["ortho_trace"]) <= 1e-12 * scale
    assert abs(d["psi_origin"]) <= 1e-12
    assert np.abs(np.asarray(d["grad_origin"])).max() <= 1e-12
    assert math.isfinite(d["envelope_max"])


def test_linearized_diagnostics_finite_above_half():
    # for gamma > 1/2 the weight z^(1-2g) is infinite on the trace row,
    # which must carry no weight rather than turn the energies into NaN
    idx = ProblemIndex(5, 0.7)
    d = _linearized(idx, cells=48, box=8.0).diagnostics
    assert math.isfinite(d["energy"]) and d["energy"] > 0.0
    assert abs(d["ortho_energy"]) <= 1e-12 * d["energy"]
    assert abs(d["ortho_trace"]) <= 1e-12 * d["energy"]


def test_linearized_interpolates_in_the_trace_chart():
    # fields a + b z^(2g), the shape of solutions at the trace, are
    # reproduced between the first two rows
    idx = ProblemIndex(4, 0.3)
    grid = _grid(8.0, 48)
    psi = np.broadcast_to(1.0 + grid.z ** (2.0 * idx.gamma), (grid.nr, grid.nz + 1))
    pi = SymmetricTensor(np.diag([1.0, -1.0, 0.0, 0.0]), trace_free=True)
    res = solver.LinearizedResult(psi=psi, grid=grid, gamma=idx.gamma, pi=pi, eps_hat=0.5)
    xbar = np.array([2.0, 0.0, 0.0, 0.0])
    for z in (0.1 * grid.hz, 0.5 * grid.hz):
        exact = 1.0 + z ** (2.0 * idx.gamma)
        assert res.evaluate(xbar, z) == pytest.approx(exact, rel=1e-12, abs=0)


def test_linearized_evaluate_angular_factor():
    # Psi(x) = psi(r, z) * (xbar . pi xbar) / r^2: flipping the active axes
    # flips the sign, and diagonal-null directions give zero
    idx = ProblemIndex(4, 0.3)
    res = _linearized(idx, cells=48, box=8.0)
    xy = np.array([1.0, 0.0, 0.0, 0.0])
    yx = np.array([0.0, 1.0, 0.0, 0.0])
    zz = np.array([0.0, 0.0, 1.0, 0.0])
    v1 = res.evaluate(xy, 0.5)
    assert res.evaluate(yx, 0.5) == pytest.approx(-v1, rel=1e-12)
    assert res.evaluate(zz, 0.5) == 0.0


@pytest.mark.parametrize("eps_hat,kr,kz", [(0.5, 32, 32), (1e-3, 160, 161), (100.0, 0, 0)])
def test_linearized_evaluates_the_bubble_on_the_cutoffs_support(monkeypatch, eps_hat, kr, kz):
    # one radial_profiles call on r[:kr] x z[1:kz], the bounding box of
    # chi(eps rho) > 0 without the trace row, and no Wz: at box 20 and 160
    # cells that is rho < 4 for eps = 1/2, the whole box for eps = 1e-3, and
    # no node at all for eps = 100, where psi is 0
    idx = ProblemIndex(4, 0.3)
    calls, radial_profiles = [], bubble.radial_profiles

    def profiles_spy(*args, **kwargs):
        calls.append((args, kwargs))
        return radial_profiles(*args, **kwargs)

    monkeypatch.setattr(bubble, "radial_profiles", profiles_spy)
    pi = SymmetricTensor(np.diag([1.0, -1.0, 0.0, 0.0]), trace_free=True)
    grid = _grid(20.0, 160)
    res = solver.solve_linearized(idx, pi, eps_hat, grid)
    ((args, kw),) = calls
    assert np.array_equal(args[1], grid.r[:kr])
    assert np.array_equal(args[2], grid.z[1:kz])
    assert "Wz" not in kw["fields"]
    assert (res.psi == 0.0).all() == (kr == 0)


@pytest.mark.parametrize("n,gamma", [(4, 0.3), (5, 0.7)])
def test_linearized_source_matches_the_full_grid_source(captured, n, gamma):
    # the gated right-hand side is the source built from the bubble on the
    # whole grid, up to the s-rule's rounding, and exactly 0 off chi's support
    idx = ProblemIndex(n, gamma)
    _linearized(idx, cells=64, box=16.0)
    f = captured[0][4]
    grid = WeightedGrid(16.0, 16.0, 64, 64)
    r, z = grid.r, grid.z[: grid.nz]
    prof = bubble.radial_profiles(idx, r, z[1:], fields=("Wr_over_r", "lap_tan"))
    chi = solver._cutoff(0.5 * np.hypot(r[:, None], z[None, :]))
    vol = grid.radial_axis(n - 1)[1]
    want = np.zeros_like(f)
    want[:, 1:] = vol[:, None] * grid.slab_mass(3.0 - 2.0 * gamma)[None, 1 : grid.nz] * (
        2.0 * 0.5 * chi[:, 1:] * (prof["lap_tan"] - n * prof["Wr_over_r"])
    )
    assert np.abs(f - want).max() <= 1e-13 * np.abs(want).max()
    assert (f[chi == 0.0] == 0.0).all()
    assert (chi == 0.0).any() and (chi > 0.0).any()


def _volume_overlap(idx, res):
    # int z^(1-2g) grad psi . grad W in its volume form: the bubble's
    # gradient on the whole grid and central differences of psi, off the
    # trace row
    grid, psi = res.grid, res.psi
    r, z = grid.r, grid.z
    prof = bubble.radial_profiles(idx, r, z[1:], fields=("Wr_over_r", "Wz"))
    pr = np.zeros_like(psi[:, 1:])
    pz = np.zeros_like(psi[:, 1:])
    pr[1:-1] = (psi[2:, 1:] - psi[:-2, 1:]) / (2.0 * grid.hr)
    pz[:, :-1] = (psi[:, 2:] - psi[:, :-2]) / (2.0 * grid.hz)
    weight = grid.radial_axis(idx.n - 1)[1][:, None] * grid.node_weights(idx.gamma)[None, 1:] * grid.hz
    return float(np.sum(weight * (pr * r[:, None] * prof["Wr_over_r"] + pz * prof["Wz"])))


def test_linearized_overlap_trace_form_meets_the_volume_form():
    # the reported overlap is (1/kappa) int w^p psi(., 0), the trace form the
    # Neumann identity gives; the volume form approaches it as z is refined,
    # the gap being psi's discretization error
    idx = ProblemIndex(4, 0.3)
    pi = SymmetricTensor(np.diag([1.0, -1.0, 0.0, 0.0]), trace_free=True)
    gaps = []
    for nz in (160, 1280):
        res = solver.solve_linearized(idx, pi, 0.5, WeightedGrid(20.0, 20.0, 160, nz))
        gaps.append(abs(_volume_overlap(idx, res) - res.diagnostics["radial_energy_overlap"]))
    assert gaps[1] < 0.5 * gaps[0]


# -- fast diagonalization against SuperLU -------------------------------------


@pytest.fixture
def captured(monkeypatch):
    """Every (what, pencils, trace_diag, u, f) passed to the residual gate,
    in call order."""
    calls = []
    gate = solver._check_solution

    def record(what, pencils, u, f, trace_diag=None):
        calls.append((what, pencils, trace_diag, u.copy(), f.copy()))
        return gate(what, pencils, u, f, trace_diag)

    monkeypatch.setattr(solver, "_check_solution", record)
    return calls


def _assert_matches_superlu(calls, what):
    # the fast solve agrees with SuperLU on the matrix assembled from the
    # very pencils and right-hand side that its residual gate checks
    assert [c[0] for c in calls] == [what]
    _, pencils, trace_diag, u, f = calls[0]
    A = _kron_sum(*pencils, trace_diag)
    ref = spsolve(A.tocsc(), f.ravel()).reshape(f.shape)
    assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n,gamma", [(4, 0.3), (5, 0.7), (3, 0.02), (3, 0.98)])
def test_extension_matches_superlu(captured, n, gamma):
    idx = ProblemIndex(n, gamma)
    grid = _grid(6.0, 64)
    solver.solve_extension(idx, grid)
    _assert_matches_superlu(captured, "extension")


@pytest.mark.parametrize("n,gamma", [(3, 0.5), (4, 0.3), (5, 0.7)])
def test_green_matches_superlu(captured, n, gamma):
    solver.green_asymptotics(ProblemIndex(n, gamma), R=2.0, resolution=128)
    _assert_matches_superlu(captured, "trace-flux")


@pytest.mark.parametrize("n,gamma", [(4, 0.3), (5, 0.7)])
def test_linearized_with_robin_term_matches_superlu(captured, n, gamma):
    idx = ProblemIndex(n, gamma)
    _linearized(idx, cells=64, box=16.0)
    _assert_matches_superlu(captured, "trace-flux")
    # the gated pencils are the plain trace-flux ones plus the separable bulk
    # term 2n int r^(n-3) on the radial diagonal, and the attractive
    # (negative) Robin term vol * robin on the trace row
    grid = WeightedGrid(16.0, 16.0, 64, 64)
    L_r, vol, L_z, slab_w = solver._trace_flux_pencils(idx, grid)
    _, (gL_r, gvol, gL_z, gslab_w), trace_diag, _, _ = captured[0]
    for got, want in zip((gL_r[1], gvol, *gL_z, gslab_w), (L_r[1], vol, *L_z, slab_w)):
        assert np.array_equal(got, want)
    faces = np.arange(grid.nr + 1) * grid.hr
    bulk_r = 2.0 * n * np.diff(faces ** (n - 2.0)) / (n - 2.0)
    assert np.allclose(gL_r[0] - L_r[0], bulk_r, rtol=1e-9, atol=0)
    w_tr = bubble._trace_radial(idx, grid.r)
    m, kappa = idx.m, constants(idx).kappa
    robin = -((n + 2.0 * gamma) / m) * w_tr ** (4.0 * gamma / m) / kappa
    assert (trace_diag < 0.0).all()
    assert np.allclose(trace_diag, vol * robin, rtol=1e-13, atol=0)


def _solve_each(kind):
    if kind == "extension":
        idx = ProblemIndex(4, 0.3)
        solver.solve_extension(idx, _grid(6.0, 32))
    elif kind == "green":
        solver.green_asymptotics(ProblemIndex(3, 0.5), R=2.0, resolution=128)
    else:
        _linearized(ProblemIndex(4, 0.3), cells=32, box=8.0)


@pytest.mark.parametrize("kind", ["extension", "green", "linearized"])
def test_wrong_eigenvalue_trips_the_residual_gate(monkeypatch, kind):
    eig = solver.eigh_tridiagonal

    def wrong(d, e, **kw):
        lam, X = eig(d, e, **kw)
        lam = lam.copy()
        lam[0] *= 1.01
        return lam, X

    monkeypatch.setattr(solver, "eigh_tridiagonal", wrong)
    with pytest.raises(NumericError, match="residual") as info:
        _solve_each(kind)
    diag = info.value.diagnostics
    assert diag["residual"] > 0.0 and diag["nunk"] > 0


@pytest.mark.parametrize("kind", ["extension", "green", "linearized"])
def test_failing_eigensolve_raises_numeric_error(monkeypatch, kind):
    def fail(d, e, **kw):
        raise LinAlgError("eigenvalue iteration did not converge")

    monkeypatch.setattr(solver, "eigh_tridiagonal", fail)
    with pytest.raises(NumericError, match="did not converge"):
        _solve_each(kind)


def test_singular_capacitance_raises_numeric_error(monkeypatch):
    def singular(a, b):
        raise LinAlgError("singular capacitance matrix")

    monkeypatch.setattr(solver, "solve", singular)
    with pytest.raises(NumericError, match="singular capacitance"):
        _solve_each("linearized")


def test_solves_do_not_call_superlu(monkeypatch):
    def superlu(*args, **kw):
        raise AssertionError("SuperLU called")

    monkeypatch.setattr(solver, "spsolve", superlu)
    for kind in ("extension", "green", "linearized"):
        _solve_each(kind)
