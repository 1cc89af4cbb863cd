import math

import numpy as np
import pytest
from scipy import sparse

from fyk import bubble, solver
from fyk.bubble import HalfSpacePoint
from fyk.errors import DomainError
from fyk.solver import SymmetricTensor, WeightedGrid
from fyk.specfun import ProblemIndex, constants


def _grid(idx, L, n):
    return WeightedGrid(L, L, n, n, 1.0 - 2.0 * idx.gamma)


# -- grid and tensor plumbing -------------------------------------------------


def test_grid_validation():
    with pytest.raises(DomainError):
        WeightedGrid(-1.0, 1.0, 8, 8, 0.4)
    with pytest.raises(DomainError):
        WeightedGrid(1.0, 1.0, 1, 8, 0.4)
    g = WeightedGrid(2.0, 1.0, 4, 5, 0.4)
    assert g.hr == 0.5
    assert g.r[0] == 0.25  # cell-centered radial axis
    assert g.z[0] == 0.0  # node-based vertical axis with the trace row
    assert len(g.z) == 6
    with pytest.raises(DomainError):
        g.check(ProblemIndex(4, 0.25))  # weight exponent mismatch


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
    grid = _grid(idx, 4.0, 40)
    R, Z = np.meshgrid(grid.r, grid.z, indexing="ij")
    for u in (np.ones_like(R), Z ** (2.0 * gamma)):
        resid = solver.apply_operator(idx, grid, u)
        interior = resid[1:-1, 1:-1]
        assert np.abs(interior).max() <= 1e-11


def test_operator_consistency_on_smooth_field():
    # -div(z^w grad u) for u = r^2 z^2 has the closed form checked here
    idx = ProblemIndex(4, 0.3)
    g = idx.gamma
    grid = _grid(idx, 4.0, 160)
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
        grid = _grid(idx, 4.0, cells)
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


def test_operator_shape_mismatch():
    idx = ProblemIndex(4, 0.3)
    grid = _grid(idx, 2.0, 8)
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
    grid = _grid(idx, 3.0, 24)
    W = solver.solve_extension(
        idx, grid, lambda r: np.ones_like(r), boundary=lambda r, z: np.ones(
            np.broadcast(np.atleast_1d(r), np.atleast_1d(z)).shape
        )
    )
    assert np.abs(W - 1.0).max() <= 1e-12


@pytest.mark.parametrize("n,gamma", [(3, 0.5), (4, 0.3)])
def test_solve_extension_converges_to_bubble(n, gamma):
    idx = ProblemIndex(n, gamma)
    errs = []
    for cells in (24, 48, 96):
        grid = _grid(idx, 6.0, cells)
        W = solver.solve_extension(idx, grid, lambda r: bubble._trace_radial(idx, r))
        exact = bubble.radial_profiles(idx, grid.r, grid.z)["W"]
        errs.append(np.abs(W - exact).max())
    assert errs[0] > errs[1] > errs[2], errs
    assert math.log2(errs[1] / errs[2]) >= 1.5, errs


# -- trace-flux assembly ------------------------------------------------------


def test_trace_flux_matrix_structure():
    # the flux balance is symmetric, and constants carry no flux except
    # through the two Dirichlet-0 faces r = r_max and z = z_max
    idx = ProblemIndex(4, 0.3)
    grid = WeightedGrid(3.0, 2.0, 12, 10, 1.0 - 2.0 * idx.gamma)
    A = solver._trace_flux_matrix(idx, grid)
    scale = abs(A).max()
    assert abs(A - A.T).max() <= 1e-15 * scale
    ones = (A @ np.ones(A.shape[0])).reshape(grid.nr, grid.nz)
    ghost = np.zeros_like(ones, dtype=bool)
    ghost[-1, :] = True
    ghost[:, -1] = True
    assert np.abs(ones[~ghost]).max() <= 1e-13 * scale
    assert (ones[ghost] > 0.0).all()
    # zero-order terms only add to the diagonal, the trace term on row j = 0
    trace = np.linspace(-1.0, 1.0, grid.nr)
    bulk = np.arange(grid.nr * (grid.nz + 1), dtype=float).reshape(grid.nr, -1)
    D = solver._trace_flux_matrix(idx, grid, {"trace": trace, "bulk": bulk}) - A
    expect = bulk[:, : grid.nz].copy()
    expect[:, 0] += solver._radial_cell_volumes(grid, idx.n) * trace
    assert abs(D - sparse.diags(expect.ravel())).max() <= 1e-13 * scale


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


def test_lambda1_is_deterministic():
    idx = ProblemIndex(4, 0.3)
    assert solver.rayleigh_lambda1(idx, 1.0) == solver.rayleigh_lambda1(idx, 1.0)


# -- green's function ---------------------------------------------------------


def test_green_asymptotics_slope_and_constant():
    idx = ProblemIndex(3, 0.5)
    fit = solver.green_asymptotics(idx, R=4.0)
    assert fit.slope == pytest.approx(-idx.m, rel=0.02)
    assert fit.constant == pytest.approx(constants(idx).green_const, rel=0.05)
    assert fit.radii.shape == fit.trace_values.shape
    assert (fit.trace_values > 0.0).all()


def test_green_requires_admissible_index():
    with pytest.raises(DomainError):
        solver.green_asymptotics(ProblemIndex(3, 0.5 + 1e-9), R=2.0)


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
    grid = WeightedGrid(box, box, cells, cells, 1.0 - 2.0 * idx.gamma)
    return solver.solve_linearized(idx, pi, 0.5, grid)


def test_linearized_requires_trace_free():
    idx = ProblemIndex(4, 0.3)
    pi = SymmetricTensor(np.eye(4))
    grid = _grid(idx, 8.0, 32)
    with pytest.raises(DomainError):
        solver.solve_linearized(idx, pi, 0.5, grid)


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
    grid = _grid(idx, 8.0, 48)
    psi = np.broadcast_to(1.0 + grid.z ** (2.0 * idx.gamma), (grid.nr, grid.nz + 1))
    pi = SymmetricTensor(np.diag([1.0, -1.0, 0.0, 0.0]), trace_free=True)
    res = solver.LinearizedResult(psi=psi, grid=grid, pi=pi, eps_hat=0.5)
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
