import math

import numpy as np
import pytest
import scipy.sparse as sp

from holelab import (CorrectorField, DomainDescriptor, MarkDistribution,
                     ProcessSpec, build_capacity_measure, build_cube_covering,
                     c0_constant, deposit_measure, hminus_norm,
                     homogenization_error, homogenized_solve,
                     neumann_cell_energies, sample_configuration,
                     solve_perforated)
from holelab import pde
from holelab.corrector import CapacityMeasure
from holelab.pde import (Grid, GriddedMeasure, corrector_on_grid,
                         dirichlet_energy_central, fibonacci_sphere)


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
    g = GriddedMeasure(np.zeros(grid.shape), grid, 0.0, 0.0)
    assert hminus_norm(g, grid) == 0.0


def test_hminus_eigenfunction_closed_form():
    grid = Grid.from_box((0, 0, 0), (1, 1, 1), 65)
    phi = eigenfunction(grid)
    g = GriddedMeasure(3 * np.pi ** 2 * phi * grid.node_volumes(), grid, 0.0, 0.0)
    exact = np.pi * math.sqrt(3.0 / 8.0)
    assert abs(hminus_norm(g, grid) - exact) / exact < 0.01


def test_hminus_norm_properties():
    grid = Grid.from_domain(DomainDescriptor("axis_cube", 0.5), 21)
    rng = np.random.default_rng(0)
    vols = grid.node_volumes()
    for _ in range(3):
        f1 = rng.standard_normal(grid.shape) * vols
        f2 = rng.standard_normal(grid.shape) * vols
        g1 = GriddedMeasure(f1, grid, 0.0, 0.0)
        g2 = GriddedMeasure(f2, grid, 0.0, 0.0)
        g12 = GriddedMeasure(f1 + f2, grid, 0.0, 0.0)
        n1, n2, n12 = (hminus_norm(g, grid) for g in (g1, g2, g12))
        assert n12 <= n1 + n2 + 1e-8 * (n1 + n2)
        s = 2.75
        ns = hminus_norm(GriddedMeasure(s * f1, grid, 0.0, 0.0), grid)
        assert ns == pytest.approx(s * n1, rel=1e-8)


def test_hminus_grid_convergence():
    # fixed smooth density: < 2% change between n = 65 and n = 97
    def norm_at(n):
        grid = Grid.from_domain(DomainDescriptor("axis_cube", 1.0), n)
        ax = grid.axes()
        x, y, z = np.meshgrid(*ax, indexing="ij")
        dens = np.cos(0.5 * np.pi * x) * y * np.exp(z / 3.0)
        g = GriddedMeasure(dens * grid.node_volumes(), grid, 0.0, 0.0)
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
    config = sample_configuration(spec, 0)
    config.points = np.zeros((1, 3))
    config.rho = np.array([100.0])   # truncated hole radius 1 covers D
    config._index = config._min_dist = None
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
    grid = Grid.from_box((0, 0, 0), (1, 1, 1), 65)
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
    from holelab import corrector_eval
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
    grid = Grid.from_box((0, 0, 0), (1, 1, 1), 65)
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


def test_spectral_dirichlet_matches_cg():
    grid = Grid.from_domain(DomainDescriptor("axis_cube", 1.0), 13)
    active = grid.inside_domain()
    rng = np.random.default_rng(11)
    a_mat = pde._stiffness(active, grid.h)
    # dual norm: sum b^2/lambda over sine modes against b . A^-1 b by CG
    g = GriddedMeasure(rng.standard_normal(grid.shape), grid, 0.0, 0.0)
    b = g.values[active]
    energy = float(b @ pde._cg(a_mat, b, rtol=1e-10))
    assert hminus_norm(g, grid) ** 2 == pytest.approx(energy, rel=1e-12)
    # homogenized solve with a shift and a callable right-hand side
    c0 = 3.5
    f = rng.standard_normal(grid.shape)
    u = homogenized_solve(c0, lambda x, y, z: f, grid)
    shifted = a_mat + c0 * grid.h ** 3 * sp.identity(a_mat.shape[0], format="csr")
    rhs = grid.h ** 3 * f[active]
    u_cg = pde._cg(shifted, rhs, rtol=1e-10)
    assert np.all(u[~active] == 0.0)
    assert np.linalg.norm(shifted @ u[active] - rhs) <= 1e-12 * np.linalg.norm(rhs)
    assert np.max(np.abs(u[active] - u_cg)) <= 1e-8 * np.max(np.abs(u_cg))
    assert float(rhs @ u[active]) == pytest.approx(float(rhs @ u_cg), rel=1e-12)


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
        local = Grid.from_box(cov.lo[c], cov.hi[c], m)
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
    assert not pde._is_interior_box(grid.inside_domain())
    assert hminus_norm(GriddedMeasure(np.ones(grid.shape), grid, 0.0, 0.0), grid) == 0.0
    assert np.all(homogenized_solve(1.0, 1.0, grid) == 0.0)


# ----------------------------------------------------------------------
# the ball domain (CG on an irregular mask)
# ----------------------------------------------------------------------

def test_ball_dual_norm_at_most_cube():
    # the ball's nodal test space is a subspace of the cube's
    ball = Grid.from_domain(DomainDescriptor("unit_ball"), 25)
    cube = Grid.from_domain(DomainDescriptor("axis_cube", 1.0), 25)
    assert ball.lo == cube.lo and ball.hi == cube.hi
    assert not pde._is_interior_box(ball.inside_domain())
    rng = np.random.default_rng(8)
    for _ in range(3):
        values = rng.standard_normal(cube.shape) * cube.h ** 3
        n_ball = hminus_norm(GriddedMeasure(values, ball, 0.0, 0.0), ball)
        n_cube = hminus_norm(GriddedMeasure(values, cube, 0.0, 0.0), cube)
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
