import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from holelab import (CorrectorField, DomainDescriptor, MarkDistribution,
                     MarkedConfiguration, ProcessSpec, build_capacity_measure, build_cube_covering,
                     c0_constant, deposit_measure, hminus_norm,
                     homogenization_error, homogenized_solve,
                     neumann_cell_energies, sample_configuration,
                     solve_perforated)
from holelab import pde
from holelab.corrector import CapacityMeasure
from holelab.pde import (Grid, GriddedMeasure, corrector_on_grid,
                         dirichlet_energy_central)
from test_corrector import corrector_eval


def unit_marks_config(eps, half=1.0, seed=0):
    spec = ProcessSpec(d=3, epsilon=eps, process="lattice",
                       marks=MarkDistribution.constant(1.0),
                       domain=DomainDescriptor("axis_cube", half),
                       master_seed=seed)
    return sample_configuration(spec, 0)


def eigenfunction(grid):
    ax = grid.axes()
    lo = np.asarray(grid.lo)
    span = np.asarray(grid.hi) - lo
    x, y, z = np.meshgrid(*ax, indexing="ij")
    return (np.sin(np.pi * (x - lo[0]) / span[0])
            * np.sin(np.pi * (y - lo[1]) / span[1])
            * np.sin(np.pi * (z - lo[2]) / span[2]))


def fibonacci_sphere(m: int) -> np.ndarray:
    """Quasi-uniform points on the unit 2-sphere (golden-angle spiral)."""
    return pde._fibonacci(np.arange(m) + 0.5, m)


# ----------------------------------------------------------------------
# deposition
# ----------------------------------------------------------------------

def test_fibonacci_sphere_unit_norms():
    pts = fibonacci_sphere(300)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert np.linalg.norm(pts.mean(axis=0)) < 0.01


def test_deposit_zero_measure():
    grid = Grid.from_domain(DomainDescriptor("axis_cube", 1.0), 17)
    mu = CapacityMeasure(np.empty((0, 3)), np.empty(0), np.empty(0), 3)
    g = deposit_measure(mu, 0.0, grid)
    assert np.all(g.values == 0.0)


def test_deposit_conserves_mass():
    grid = Grid.from_domain(DomainDescriptor("axis_cube", 1.0), 33)
    mu = CapacityMeasure(np.array([[0.1, -0.2, 0.05]]), np.array([0.3]),
                         np.array([2.5]), 3)
    g = deposit_measure(mu, 0.0, grid)
    assert g.total_mass == pytest.approx(2.5, rel=1e-12)


def test_deposit_signed_mass_conservation():
    # interior atoms: node sum equals atom total minus c0 * |D| exactly
    grid = Grid.from_domain(DomainDescriptor("axis_cube", 1.0), 65)
    rng = np.random.default_rng(2)
    centers = rng.uniform(-0.6, 0.6, size=(40, 3))
    radii = rng.uniform(0.05, 0.2, size=40)
    weights = rng.uniform(0.5, 3.0, size=40)
    mu = CapacityMeasure(centers, radii, weights, 3)
    c0 = 4.0
    g = deposit_measure(mu, c0, grid, min_radius_factor=0.0)
    want = float(weights.sum()) - c0 * 8.0
    assert g.dropped_samples == 0
    assert abs(g.total_mass - want) <= 1e-10 * abs(float(weights.sum()) + c0 * 8.0)


def test_deposit_resolvability_guard():
    grid = Grid.from_domain(DomainDescriptor("axis_cube", 1.0), 17)
    mu = CapacityMeasure(np.zeros((1, 3)), np.array([0.01]), np.array([1.0]), 3)
    with pytest.raises(ValueError, match="radius"):
        deposit_measure(mu, 0.0, grid)
    deposit_measure(mu, 0.0, grid, min_radius_factor=0.0)   # explicit override


# ----------------------------------------------------------------------
# dual norm
# ----------------------------------------------------------------------

def test_hminus_zero():
    grid = Grid.from_domain(DomainDescriptor("axis_cube", 1.0), 17)
    g = GriddedMeasure(np.zeros(grid.shape), grid)
    assert hminus_norm(g, grid) == 0.0


def test_hminus_eigenfunction_closed_form():
    grid = Grid(65, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    phi = eigenfunction(grid)
    g = GriddedMeasure(3 * np.pi ** 2 * phi * grid.node_volumes(), grid)
    exact = np.pi * math.sqrt(3.0 / 8.0)
    assert abs(hminus_norm(g, grid) - exact) / exact < 0.01


def test_hminus_norm_properties():
    grid = Grid.from_domain(DomainDescriptor("axis_cube", 0.5), 21)
    rng = np.random.default_rng(0)
    vols = grid.node_volumes()
    for _ in range(3):
        f1 = rng.standard_normal(grid.shape) * vols
        f2 = rng.standard_normal(grid.shape) * vols
        g1 = GriddedMeasure(f1, grid)
        g2 = GriddedMeasure(f2, grid)
        g12 = GriddedMeasure(f1 + f2, grid)
        n1, n2, n12 = (hminus_norm(g, grid) for g in (g1, g2, g12))
        assert n12 <= n1 + n2 + 1e-8 * (n1 + n2)
        s = 2.75
        ns = hminus_norm(GriddedMeasure(s * f1, grid), grid)
        assert ns == pytest.approx(s * n1, rel=1e-8)


def test_hminus_grid_convergence():
    # fixed smooth density: < 2% change between n = 65 and n = 97
    def norm_at(n):
        grid = Grid.from_domain(DomainDescriptor("axis_cube", 1.0), n)
        ax = grid.axes()
        x, y, z = np.meshgrid(*ax, indexing="ij")
        dens = np.cos(0.5 * np.pi * x) * y * np.exp(z / 3.0)
        g = GriddedMeasure(dens * grid.node_volumes(), grid)
        return hminus_norm(g, grid)

    a, b = norm_at(65), norm_at(97)
    assert abs(a - b) / b < 0.02


# ----------------------------------------------------------------------
# per-cell zero-mean Neumann energies
# ----------------------------------------------------------------------

def test_neumann_energy_empty_cell_zero():
    config = unit_marks_config(1 / 8)
    cov = build_cube_covering(config, 3)
    mu = CapacityMeasure(np.empty((0, 3)), np.empty(0), np.empty(0), 3)
    grid = Grid.from_domain(DomainDescriptor("axis_cube", 1.0), 33)
    energies = neumann_cell_energies(cov, mu, grid)
    assert np.all(energies == 0.0)


def test_neumann_energy_single_atom_grid_refinement():
    config = unit_marks_config(1 / 8)
    cov = build_cube_covering(config, 3)
    cell = int(np.flatnonzero(cov.interior)[0])
    center = (cov.lo[cell] + cov.hi[cell]) / 2.0
    mu = CapacityMeasure(center[None, :], np.array([0.08]), np.array([1.7]), 3)
    grid_c = Grid.from_domain(DomainDescriptor("axis_cube", 1.0), 33)
    coarse = neumann_cell_energies(cov, mu, grid_c, min_nodes=41)[cell]
    fine = neumann_cell_energies(cov, mu, grid_c, min_nodes=55)[cell]
    assert abs(coarse - fine) / fine < 0.02


def test_neumann_rejects_straddling_sphere():
    config = unit_marks_config(1 / 8)
    cov = build_cube_covering(config, 3)
    cell = int(np.flatnonzero(cov.interior)[0])
    mu = CapacityMeasure(cov.lo[cell][None, :] + 0.01, np.array([0.2]),
                         np.array([1.0]), 3)
    grid = Grid.from_domain(DomainDescriptor("axis_cube", 1.0), 33)
    with pytest.raises(ValueError, match="contained"):
        neumann_cell_energies(cov, mu, grid)


def test_kv_chain_bounds_dual_norm():
    # dual norm of (measure - cell averages) <= 1.1 * sqrt(sum energies)
    eps = 1 / 8
    marks = MarkDistribution.uniform(0.5, 1.5)
    spec = ProcessSpec(d=3, epsilon=eps, process="lattice", marks=marks,
                       domain=DomainDescriptor("axis_cube", 1.0), master_seed=3)
    config = sample_configuration(spec, 0)
    k = 3
    cov = build_cube_covering(config, k)
    fld = CorrectorField.from_configuration(config, delta=1.0)
    mu = build_capacity_measure(fld)
    grid = Grid.from_domain(DomainDescriptor("axis_cube", 1.0), 65)
    energies = neumann_cell_energies(cov, mu, grid)
    # cellwise-average background density
    cell_of = cov.cell_of_points(mu.centers)
    mass = np.zeros(cov.n_cells)
    np.add.at(mass, cell_of, mu.weights)
    dens_cells = mass / cov.cell_size ** 3
    ax = grid.axes()
    x, y, z = np.meshgrid(*ax, indexing="ij")
    nodes = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    background = dens_cells[cov.cell_of_points(nodes)].reshape(grid.shape)
    g = deposit_measure(mu, background, grid, min_radius_factor=0.0)
    lhs = hminus_norm(g, grid)
    rhs = math.sqrt(float(energies.sum()))
    assert lhs <= 1.1 * rhs


# ----------------------------------------------------------------------
# solves
# ----------------------------------------------------------------------

def test_perforated_no_holes_eigenfunction():
    spec = ProcessSpec(d=3, epsilon=0.5, process="poisson",
                       marks=MarkDistribution.constant(1.0),
                       domain=DomainDescriptor("axis_cube", 0.5),
                       intensity=1e-9, master_seed=0)
    config = sample_configuration(spec, 0)
    assert len(config) == 0
    grid = Grid.from_domain(spec.domain, 65)
    lam1 = 3 * np.pi ** 2    # first Dirichlet eigenvalue of the unit cube
    phi = eigenfunction(grid)
    sol = solve_perforated(config, None, lambda x, y, z: np.ones_like(x), grid)
    # with f = lam1 * phi the solution is phi
    sol2 = solve_perforated(config, None,
                            lambda x, y, z: lam1 * eigenfunction(grid), grid)
    err = np.max(np.abs(sol2.u - phi)) / np.max(phi)
    assert err < 0.01


def test_perforated_full_domain_hole():
    spec = ProcessSpec(d=3, epsilon=0.5, process="poisson",
                       marks=MarkDistribution.constant(10.0),
                       domain=DomainDescriptor("axis_cube", 0.5),
                       intensity=1e-9, master_seed=0)
    # truncated hole radius 1 covers D
    config = MarkedConfiguration(spec, 0, np.array([100.0]), points=np.zeros((1, 3)))
    grid = Grid.from_domain(spec.domain, 33)
    sol = solve_perforated(config, None, 1.0, grid)
    assert np.all(sol.u == 0.0)


def test_perforated_reports_subresolution_holes():
    config = unit_marks_config(1 / 6)
    # n = 26 puts interior nodes off the hole centres; radius (1/6)^3 << h
    # catches no node except at the 8 domain corners
    grid = Grid.from_domain(DomainDescriptor("axis_cube", 1.0), 26)
    sol = solve_perforated(config, None, 1.0, grid)
    assert len(sol.omitted_holes) == len(config) - 8


def test_perforated_smaller_than_hole_free():
    config = unit_marks_config(1 / 6)
    grid = Grid.from_domain(DomainDescriptor("axis_cube", 1.0), 49)
    sol = solve_perforated(config, None, 1.0, grid)
    u_free = homogenized_solve(0.0, 1.0, grid)
    assert float(np.abs(sol.u).max()) <= float(np.abs(u_free).max()) + 1e-12
    e_hole = dirichlet_energy_central(sol.u, grid)
    e_free = dirichlet_energy_central(u_free, grid)
    assert math.sqrt(e_hole) < math.sqrt(e_free) * 1.05


def test_homogenized_reduces_to_poisson():
    grid = Grid.from_domain(DomainDescriptor("axis_cube", 0.5), 33)
    u0 = homogenized_solve(0.0, 1.0, grid)
    spec = ProcessSpec(d=3, epsilon=0.5, process="poisson",
                       marks=MarkDistribution.constant(1.0),
                       domain=DomainDescriptor("axis_cube", 0.5),
                       intensity=1e-9)
    config = sample_configuration(spec, 0)
    sol = solve_perforated(config, None, 1.0, grid)
    assert np.allclose(u0, sol.u, atol=1e-10)


def test_homogenized_eigenfunction_identity():
    grid = Grid(65, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    c0 = 7.0
    lam1 = 3 * np.pi ** 2
    phi = eigenfunction(grid)
    u = homogenized_solve(c0, lambda x, y, z: (lam1 + c0) * eigenfunction(grid), grid)
    assert np.max(np.abs(u - phi)) / np.max(phi) < 0.01


def test_homogenized_damping_monotone():
    grid = Grid.from_domain(DomainDescriptor("axis_cube", 0.5), 25)
    norms = []
    for c0 in (1.0, 10.0, 100.0):
        u = homogenized_solve(c0, 1.0, grid)
        norms.append(float(np.linalg.norm(u)))
    assert norms[0] > norms[1] > norms[2]
    with pytest.raises(ValueError):
        homogenized_solve(-1.0, 1.0, grid)


# ----------------------------------------------------------------------
# corrector on the grid and the homogenization error
# ----------------------------------------------------------------------

def test_corrector_on_grid_matches_pointwise():
    config = unit_marks_config(1 / 4)
    fld = CorrectorField.from_configuration(config, delta=1.0)
    grid = Grid.from_domain(DomainDescriptor("axis_cube", 1.0), 33)
    w = corrector_on_grid(fld, grid)
    ax = grid.axes()
    rng = np.random.default_rng(1)
    for _ in range(40):
        i, j, k = rng.integers(0, grid.n, size=3)
        x = np.array([ax[0][i], ax[1][j], ax[2][k]])
        assert w[i, j, k] == pytest.approx(float(corrector_eval(fld, x)), abs=1e-12)


def test_homogenization_error_exact_zero():
    config = unit_marks_config(1 / 4)
    fld = CorrectorField.from_configuration(config, delta=1.0)
    grid = Grid.from_domain(DomainDescriptor("axis_cube", 1.0), 33)
    w = corrector_on_grid(fld, grid)
    u = np.random.default_rng(0).standard_normal(grid.shape)
    assert homogenization_error(w * u, fld, u, grid) == 0.0


def test_homogenization_error_discretization_baseline():
    # hole-free solve against the sampled eigenfunction: only grid error
    grid = Grid(65, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    lam1 = 3 * np.pi ** 2
    phi = eigenfunction(grid)
    u_h = homogenized_solve(0.0, lambda x, y, z: lam1 * eigenfunction(grid), grid)
    fld = CorrectorField.empty(3)
    err = homogenization_error(u_h, fld, phi, grid)
    denom = math.sqrt(dirichlet_energy_central(phi, grid))
    assert err / denom < 1e-2


# ----------------------------------------------------------------------
# direct transforms and the blocked deposit against kept references
# ----------------------------------------------------------------------

def per_sphere_deposit(mu, grid):
    """One sphere at a time, eight np.add.at calls each (reference)."""
    n, h = grid.n, grid.h
    values = np.zeros(grid.shape)
    flat = values.reshape(-1)
    dropped = 0
    for k in range(len(mu)):
        r = float(mu.sphere_radii[k])
        m = max(64, int(math.ceil(4.0 * math.pi * (r / h) ** 2)))
        rel = (mu.centers[k] + r * fibonacci_sphere(m) - np.asarray(grid.lo)) / h
        inside = np.all((rel >= 0) & (rel <= n - 1), axis=1)
        dropped += int(np.count_nonzero(~inside))
        rel = rel[inside]
        base = np.minimum(np.floor(rel).astype(np.int64), n - 2)
        frac = rel - base
        for corner in range(8):
            off = np.array([(corner >> 2) & 1, (corner >> 1) & 1, corner & 1])
            wt = np.ones(rel.shape[0])
            for a in range(3):
                wt = wt * (frac[:, a] if off[a] else 1.0 - frac[:, a])
            node = base + off
            np.add.at(flat, (node[:, 0] * n + node[:, 1]) * n + node[:, 2],
                      mu.weights[k] / m * wt)
    return values, dropped


def test_blocked_deposit_matches_per_sphere_loop():
    grid = Grid.from_domain(DomainDescriptor("axis_cube", 1.0), 33)
    rng = np.random.default_rng(5)
    k = 120
    centers = rng.uniform(-1.3, 1.3, size=(k, 3))     # some straddle the box
    radii = rng.uniform(0.1, 0.5, size=k)
    mu = CapacityMeasure(centers, radii, rng.uniform(0.5, 3.0, size=k), 3)
    samples = np.maximum(64, np.ceil(4.0 * math.pi * (radii / grid.h) ** 2)).sum()
    assert samples > pde._DEPOSIT_BLOCK
    want, dropped = per_sphere_deposit(mu, grid)
    g = deposit_measure(mu, 0.0, grid, min_radius_factor=0.0)
    assert 0 < dropped < samples
    assert g.dropped_samples == dropped
    assert np.max(np.abs(g.values - want)) <= 1e-14 * np.max(np.abs(want))


def reference_stiffness(active, h):
    """Energy form u^T A u = sum over faces of h^(d-2) (u_i - u_j)^2,
    including the faces between active nodes and inactive (or out-of-grid)
    nodes, where the neighbour value is pinned to zero (reference assembly).
    """
    shape = active.shape
    m = int(np.count_nonzero(active))
    idx = -np.ones(shape, dtype=np.int64)
    idx[active] = np.arange(m)
    rows, cols, vals = [], [], []
    diag = np.zeros(m)
    for axis in range(3):
        sl_lo = [slice(None)] * 3
        sl_hi = [slice(None)] * 3
        sl_lo[axis] = slice(0, shape[axis] - 1)
        sl_hi[axis] = slice(1, shape[axis])
        a_lo = active[tuple(sl_lo)]
        a_hi = active[tuple(sl_hi)]
        both = a_lo & a_hi
        i = idx[tuple(sl_lo)][both]
        j = idx[tuple(sl_hi)][both]
        rows.append(i); cols.append(j); vals.append(-np.ones(i.size))
        rows.append(j); cols.append(i); vals.append(-np.ones(i.size))
        np.add.at(diag, i, 1.0)
        np.add.at(diag, j, 1.0)
        only_lo = a_lo & ~a_hi
        only_hi = a_hi & ~a_lo
        np.add.at(diag, idx[tuple(sl_lo)][only_lo], 1.0)
        np.add.at(diag, idx[tuple(sl_hi)][only_hi], 1.0)
        # grid edge counts as an inactive neighbour
        for side in (0, shape[axis] - 1):
            edge = [slice(None)] * 3
            edge[axis] = side
            np.add.at(diag, idx[tuple(edge)][active[tuple(edge)]], 1.0)
    rows.append(np.arange(m)); cols.append(np.arange(m)); vals.append(diag)
    a_mat = sp.coo_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(m, m)).tocsr()
    return h * a_mat  # h^(d-2) with d = 3


def test_spectral_dirichlet_matches_cg():
    grid = Grid.from_domain(DomainDescriptor("axis_cube", 1.0), 13)
    active = grid.inside_domain()
    rng = np.random.default_rng(11)
    a_mat = reference_stiffness(active, grid.h)
    # dual norm: one preconditioned step against b . A^-1 b by a direct solve
    g = GriddedMeasure(rng.standard_normal(grid.shape), grid)
    b = g.values[active]
    energy = float(b @ spsolve(a_mat.tocsc(), b))
    assert hminus_norm(g, grid) ** 2 == pytest.approx(energy, rel=1e-12)
    # homogenized solve with a shift and a callable right-hand side
    c0 = 3.5
    f = rng.standard_normal(grid.shape)
    u = homogenized_solve(c0, lambda x, y, z: f, grid)
    shifted = a_mat + c0 * grid.h ** 3 * sp.identity(a_mat.shape[0], format="csr")
    rhs = grid.h ** 3 * f[active]
    u_cg = spsolve(shifted.tocsc(), rhs)
    assert np.all(u[~active] == 0.0)
    assert np.linalg.norm(shifted @ u[active] - rhs) <= 1e-12 * np.linalg.norm(rhs)
    assert np.max(np.abs(u[active] - u_cg)) <= 1e-8 * np.max(np.abs(u_cg))
    assert float(rhs @ u[active]) == pytest.approx(float(rhs @ u_cg), rel=1e-12)


def holed_box(n, seed):
    """Interior box of an n^3 grid minus a few random balls of nodes."""
    grid = Grid.from_domain(DomainDescriptor("axis_cube", 1.0), n)
    rng = np.random.default_rng(seed)
    pts = grid.node_points()
    holes = np.zeros(pts.shape[0], dtype=bool)
    for c, r in zip(rng.uniform(-1.0, 1.0, size=(6, 3)), rng.uniform(0.1, 0.4, size=6)):
        holes |= np.linalg.norm(pts - c, axis=1) < r
    return grid, grid.inside_domain() & ~holes.reshape(grid.shape)


@pytest.mark.parametrize("case", ["box", "ball", "holed_box", "n2", "n3"])
def test_stencil_matches_reference_matrix(case):
    if case == "holed_box":
        grid, active = holed_box(15, 1)
    else:
        shape = "unit_ball" if case == "ball" else "axis_cube"
        n = {"n2": 2, "n3": 3}.get(case, 15)
        grid = Grid.from_domain(DomainDescriptor(shape, 1.0), n)
        active = grid.inside_domain()
    a_mat = reference_stiffness(active, grid.h)
    rng = np.random.default_rng(3)
    for shift in (0.0, 0.7):
        a_op, _ = pde._box_operators(active[1:-1, 1:-1, 1:-1], grid.h, shift)
        u = rng.standard_normal(grid.shape)          # nonzero off the mask too
        got = np.zeros(grid.shape)
        got[1:-1, 1:-1, 1:-1] = (a_op @ u[1:-1, 1:-1, 1:-1].ravel()).reshape(
            np.asarray(grid.shape) - 2)
        want = a_mat @ u[active] + shift * u[active]
        assert np.all(got[~active] == 0.0)
        assert np.allclose(got[active], want, rtol=0.0, atol=1e-13 * grid.h)


@pytest.mark.parametrize("case", ["ball", "holed_box"])
def test_preconditioned_solve_matches_reference(case, monkeypatch):
    if case == "ball":
        grid = Grid.from_domain(DomainDescriptor("unit_ball"), 21)
        active = grid.inside_domain()
    else:
        grid, active = holed_box(21, 2)
    assert 0 < np.count_nonzero(active) < (grid.n - 2) ** 3
    rng = np.random.default_rng(6)
    b = rng.standard_normal(grid.shape)
    monkeypatch.setattr(pde, "_RTOL", 1e-10)
    for shift in (0.0, 2.0 * grid.h ** 3):
        u = pde._dirichlet_solve(active, b, grid, shift, "test")
        a_mat = reference_stiffness(active, grid.h) + shift * sp.identity(
            int(np.count_nonzero(active)), format="csr")
        want = spsolve(a_mat.tocsc(), b[active])
        assert np.all(u[~active] == 0.0)
        assert np.max(np.abs(u[active] - want)) <= 1e-8 * np.max(np.abs(want))


def test_iteration_limit_raises_with_residual(monkeypatch):
    grid, active = holed_box(21, 2)
    monkeypatch.setattr(pde, "_MAXITER", 1)
    monkeypatch.setattr(pde, "_RTOL", 1e-10)
    with pytest.raises(pde.SolverError, match="perforation test") as info:
        pde._dirichlet_solve(active, np.ones(grid.shape), grid, 0.0, "perforation test")
    assert "rtol=1e-10" in str(info.value) and "1 iterations" in str(info.value)
    assert len(info.value.residuals) == 1 and info.value.residuals[0] > 1e-10


def test_dct_neumann_matches_kronecker_pseudoinverse():
    config = unit_marks_config(1 / 8)
    cov = build_cube_covering(config, 3)
    grid = Grid.from_domain(DomainDescriptor("axis_cube", 1.0), 17)   # 9^3 cells
    rng = np.random.default_rng(4)
    cells = np.flatnonzero(cov.interior)[[0, 7]]
    centers, radii = [], []
    for c in cells:
        r = rng.uniform(0.02, 0.06, size=5)
        centers.append(rng.uniform(cov.lo[c] + r[:, None], cov.hi[c] - r[:, None]))
        radii.append(r)
    mu = CapacityMeasure(np.concatenate(centers), np.concatenate(radii),
                         rng.uniform(0.5, 3.0, size=10), 3)
    energies = neumann_cell_energies(cov, mu, grid)
    assert np.count_nonzero(energies) == 2
    m = 9
    path = np.diag(np.r_[1.0, np.full(m - 2, 2.0), 1.0]) - np.eye(m, k=1) - np.eye(m, k=-1)
    eye = np.eye(m)
    lap = (np.kron(np.kron(path, eye), eye) + np.kron(np.kron(eye, path), eye)
           + np.kron(np.kron(eye, eye), path))
    lap_pinv = np.linalg.pinv(lap, hermitian=True)
    for j, c in enumerate(cells):
        local = Grid(m, tuple(cov.lo[c]), tuple(cov.hi[c]))
        atoms = slice(5 * j, 5 * j + 5)
        cell_mu = CapacityMeasure(mu.centers[atoms], mu.sphere_radii[atoms],
                                  mu.weights[atoms], 3)
        density = float(cell_mu.weights.sum()) / float(np.prod(cov.hi[c] - cov.lo[c]))
        rhs = deposit_measure(cell_mu, density, local, min_radius_factor=0.0).values.ravel()
        want = float(rhs @ lap_pinv @ rhs) / local.h
        assert energies[c] == pytest.approx(want, rel=1e-12)


def test_grid_without_interior_nodes():
    # n = 2 leaves no unknowns: nothing to transform, zero potential
    grid = Grid.from_domain(DomainDescriptor("axis_cube", 1.0), 2)
    assert hminus_norm(GriddedMeasure(np.ones(grid.shape), grid), grid) == 0.0
    assert np.all(homogenized_solve(1.0, 1.0, grid) == 0.0)


# ----------------------------------------------------------------------
# the ball domain (CG on an irregular mask)
# ----------------------------------------------------------------------

def test_ball_dual_norm_at_most_cube():
    # the ball's nodal test space is a subspace of the cube's
    ball = Grid.from_domain(DomainDescriptor("unit_ball"), 25)
    cube = Grid.from_domain(DomainDescriptor("axis_cube", 1.0), 25)
    assert ball.lo == cube.lo and ball.hi == cube.hi
    rng = np.random.default_rng(8)
    for _ in range(3):
        values = rng.standard_normal(cube.shape) * cube.h ** 3
        n_ball = hminus_norm(GriddedMeasure(values, ball), ball)
        n_cube = hminus_norm(GriddedMeasure(values, cube), cube)
        assert 0.0 < n_ball <= n_cube


def test_ball_homogenized_solution_below_cube():
    ball = Grid.from_domain(DomainDescriptor("unit_ball"), 25)
    cube = Grid.from_domain(DomainDescriptor("axis_cube", 1.0), 25)
    for c0 in (0.0, 5.0):
        u_ball = homogenized_solve(c0, 1.0, ball)
        u_cube = homogenized_solve(c0, 1.0, cube)
        tol = 1e-7 * float(u_cube.max())
        assert np.all(u_ball[~ball.inside_domain()] == 0.0)
        assert u_ball.max() > 0.0 and u_ball.min() >= -tol
        assert np.all(u_ball <= u_cube + tol)


# ----------------------------------------------------------------------
# blocked node-box evaluation against the per-sphere loops
# ----------------------------------------------------------------------

def per_hole_mask(config, grid):
    """One hole at a time over its node box (reference); also returns how
    many holes cover each node."""
    centers = config.centers()
    radii = config.hole_radii(truncate=True)
    n, h = grid.n, grid.h
    lo = np.asarray(grid.lo)
    cover = np.zeros(grid.shape, dtype=int)
    omitted = []
    ax = grid.axes()
    for k in range(len(config)):
        c, r = centers[k], radii[k]
        lo_i = np.maximum(np.ceil((c - r - lo) / h).astype(int), 0)
        hi_i = np.minimum(np.floor((c + r - lo) / h).astype(int), n - 1)
        if np.any(lo_i > hi_i):
            omitted.append(k)
            continue
        segs = [ax[a][lo_i[a]:hi_i[a] + 1] - c[a] for a in range(3)]
        r2 = (segs[0][:, None, None] ** 2 + segs[1][None, :, None] ** 2
              + segs[2][None, None, :] ** 2)
        local = r2 < r * r
        if not local.any():
            omitted.append(k)
            continue
        cover[lo_i[0]:hi_i[0] + 1, lo_i[1]:hi_i[1] + 1, lo_i[2]:hi_i[2] + 1] += local
    return cover > 0, omitted, cover


def per_cell_corrector(corrector, grid):
    """One annulus cell at a time over its node box (reference)."""
    w = np.ones(grid.shape)
    n, h = grid.n, grid.h
    lo = np.asarray(grid.lo)
    ax = grid.axes()
    d = 3
    for k in range(len(corrector)):
        c = corrector.centers[k]
        a, big = float(corrector.inner[k]), float(corrector.outer[k])
        lo_i = np.maximum(np.ceil((c - big - lo) / h).astype(int), 0)
        hi_i = np.minimum(np.floor((c + big - lo) / h).astype(int), n - 1)
        if np.any(lo_i > hi_i):
            continue
        segs = [ax[axis][lo_i[axis]:hi_i[axis] + 1] - c[axis] for axis in range(3)]
        r2 = (segs[0][:, None, None] ** 2 + segs[1][None, :, None] ** 2
              + segs[2][None, None, :] ** 2)
        r = np.sqrt(r2)
        block = w[lo_i[0]:hi_i[0] + 1, lo_i[1]:hi_i[1] + 1, lo_i[2]:hi_i[2] + 1]
        inner = r <= a
        ann = (r > a) & (r < big)
        if inner.any():
            block[inner] = 0.0
        if ann.any():
            a2 = a ** (2 - d)
            big2 = big ** (2 - d)
            block[ann] = (a2 - r[ann] ** (2 - d)) / (a2 - big2)
    return w


def node_box_sizes(grid, centers, radii):
    """Unclipped and clipped node-box extents of every ball."""
    lo = np.asarray(grid.lo)
    first = np.ceil((centers - radii[:, None] - lo) / grid.h).astype(int)
    last = np.floor((centers + radii[:, None] - lo) / grid.h).astype(int)
    straddles = np.any((first < 0) | (last > grid.n - 1), axis=1)
    size = np.maximum(np.minimum(last, grid.n - 1) - np.maximum(first, 0) + 1, 0)
    return straddles, size.prod(axis=1)


def test_node_boxes_match_per_sphere_loops():
    from holelab.experiments import lattice_spec, poisson_spec
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    specs = [lattice_spec(marks, 1 / 4, seed=0), poisson_spec(marks, 2.0, 1 / 4, seed=0)]
    seen = set()
    for spec in specs:
        config = sample_configuration(spec, 0)
        grid = Grid.from_domain(spec.domain, 65)
        mask, omitted = pde.hole_mask(config, grid)
        want, want_omitted, cover = per_hole_mask(config, grid)
        assert np.array_equal(mask, want)
        assert omitted == want_omitted
        straddles, slots = node_box_sizes(grid, config.centers(),
                                          config.hole_radii(truncate=True))
        seen |= {"overlap"} if np.any(cover > 1) else set()
        seen |= {"omitted"} if omitted else set()
        seen |= {"straddle"} if np.any(straddles & (slots > 0)) else set()
        seen |= {"mask blocks"} if slots.sum() > pde._DEPOSIT_BLOCK else set()

        fld = CorrectorField.from_configuration(config, 1.0)
        w = corrector_on_grid(fld, grid)
        ref = per_cell_corrector(fld, grid)
        # the loop raises a Python float to -1 (libm pow), the blocks a
        # numpy array (a reciprocal): they may differ in the last place
        assert np.all(np.abs(w - ref) <= np.spacing(np.abs(ref)))
        assert np.array_equal(w == 0.0, ref == 0.0) and np.array_equal(w == 1.0, ref == 1.0)
        straddles, slots = node_box_sizes(grid, fld.centers, fld.outer)
        seen |= {"cell straddle"} if np.any(straddles & (slots > 0)) else set()
        seen |= {"empty cell box"} if np.any(slots == 0) else set()
        seen |= {"cell blocks"} if slots.sum() > pde._DEPOSIT_BLOCK else set()
    assert seen == {"overlap", "omitted", "straddle", "mask blocks", "cell straddle",
                    "empty cell box", "cell blocks"}


def test_hole_mask_excludes_nodes_on_the_sphere():
    # hole radius eps^3 * 2 = 1/32 = h: the six axis neighbours of every
    # centre lie exactly on its sphere, so only the centres are pinned
    spec = ProcessSpec(d=3, epsilon=1 / 4, process="lattice",
                       marks=MarkDistribution.constant(2.0),
                       domain=DomainDescriptor("axis_cube", 1.0))
    config = sample_configuration(spec, 0)
    grid = Grid.from_domain(spec.domain, 65)
    assert config.hole_radii()[0] == grid.h
    mask, omitted = pde.hole_mask(config, grid)
    assert omitted == [] and np.count_nonzero(mask) == len(config) == 9 ** 3
    assert np.array_equal(mask, per_hole_mask(config, grid)[0])
