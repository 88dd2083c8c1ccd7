import math

import numpy as np
import pytest

from scipy.spatial import cKDTree

from holelab import (CorrectorField, DomainDescriptor, MarkDistribution,
                     ProcessSpec, annulus_capacity, annulus_capacity_fd,
                     build_capacity_measure, c0_constant, corrector_energy,
                     sample_configuration)
from holelab.corrector import capacity_normalization


def lattice(eps=0.125, marks=None, seed=0):
    return sample_configuration(
        ProcessSpec(d=3, epsilon=eps, process="lattice",
                    marks=marks or MarkDistribution.constant(1.0),
                    domain=DomainDescriptor("axis_cube", 1.0), master_seed=seed), 0)


# ----------------------------------------------------------------------
# capacities
# ----------------------------------------------------------------------

def test_whole_space_capacity():
    assert annulus_capacity(1.0, math.inf, 3) == pytest.approx(4 * math.pi, rel=1e-14)


def test_annulus_capacity_value():
    assert annulus_capacity(0.25, 0.5, 3) == pytest.approx(2 * math.pi, rel=1e-14)


def test_capacity_against_fd_oracle_d4():
    exact = annulus_capacity(0.3, 0.9, 4)
    assert abs(annulus_capacity_fd(0.3, 0.9, 4) - exact) / exact < 1e-3


def test_capacity_scaling_covariance():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.uniform(0.05, 0.3)
        big = a * rng.uniform(1.5, 5.0)
        s = rng.uniform(0.1, 10.0)
        for d in (3, 4, 5):
            assert annulus_capacity(s * a, s * big, d) == pytest.approx(
                s ** (d - 2) * annulus_capacity(a, big, d), rel=1e-12)


def test_capacity_domain_errors():
    with pytest.raises(ValueError):
        annulus_capacity(0.5, 0.5, 3)
    with pytest.raises(ValueError):
        annulus_capacity(0.6, 0.5, 3)


# ----------------------------------------------------------------------
# corrector evaluation
# ----------------------------------------------------------------------

def corrector_eval(field: CorrectorField, x):
    """Corrector value at one point or an (n, d) batch, cell by cell; the
    pointwise reference for ``pde.corrector_on_grid``."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.ones(x.shape[0])
    if len(field) == 0:
        return out if out.size > 1 else float(out[0])
    d = field.d
    # cells are disjoint, so each evaluation point sees at most one of them
    tree = cKDTree(field.centers)
    r_max = float(field.outer.max())
    hits = tree.query_ball_point(x, r_max)
    for row, cand in enumerate(hits):
        for k in cand:
            r = float(np.linalg.norm(x[row] - field.centers[k]))
            if r >= field.outer[k]:
                continue
            if r <= field.inner[k]:
                out[row] = 0.0
            else:
                a2 = field.inner[k] ** (2.0 - d)
                r2 = r ** (2.0 - d)
                big2 = field.outer[k] ** (2.0 - d)
                out[row] = (a2 - r2) / (a2 - big2)
            break
    return out if out.size > 1 else float(out[0])


def field_one_cell(a=0.1, big=0.4):
    return CorrectorField(np.zeros((1, 3)), np.array([a]), np.array([big]), 3)


def test_corrector_boundary_values():
    f = field_one_cell()
    assert corrector_eval(f, [0.1, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-14)
    assert corrector_eval(f, [0.4, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-14)
    assert corrector_eval(f, [0.05, 0.0, 0.0]) == 0.0
    assert corrector_eval(f, [2.0, 0.0, 0.0]) == 1.0


def test_corrector_midpoint_value():
    f = field_one_cell(0.1, 0.4)
    # (1/0.1 - 1/0.2) / (1/0.1 - 1/0.4) = 5 / 7.5
    assert corrector_eval(f, [0.2, 0.0, 0.0]) == pytest.approx(2.0 / 3.0, rel=1e-13)


def test_corrector_continuity_on_random_rays():
    rng = np.random.default_rng(3)
    f = field_one_cell(0.05, 0.3)
    for _ in range(25):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        for r in (0.05, 0.3):
            lo = corrector_eval(f, (r - 1e-9) * u)
            hi = corrector_eval(f, (r + 1e-9) * u)
            assert abs(hi - lo) < 1e-6
        vals = corrector_eval(f, np.outer(np.linspace(0.01, 0.5, 64), u))
        assert np.all((0.0 <= vals) & (vals <= 1.0))


def test_cell_validation():
    with pytest.raises(ValueError):
        CorrectorField(np.zeros((1, 3)), np.array([0.0]), np.array([0.4]), 3)


# ----------------------------------------------------------------------
# energy and the capacity measure
# ----------------------------------------------------------------------

def test_energy_empty_and_single():
    assert corrector_energy(CorrectorField.empty(3)) == 0.0
    f = CorrectorField(np.zeros((1, 3)), np.array([1.0]), np.array([np.inf]), 3)
    assert corrector_energy(f) == pytest.approx(4 * math.pi, rel=1e-14)


def test_lattice_energy_closed_form():
    eps = 0.125
    config = lattice(eps=eps)
    f = CorrectorField.from_configuration(config, delta=1.0)
    want = len(config) * 4 * math.pi * eps ** 3 / (1 - 16 * eps ** 2 * eps ** 0)
    # per-cell flux with inner eps^3 and outer eps/4: c3 eps^3 / (1 - (4 eps^2)^1)
    want = len(config) * 4 * math.pi * eps ** 3 / (1 - 4 * eps ** 2)
    assert corrector_energy(f) == pytest.approx(want, rel=1e-12)


def test_measure_weight_identities():
    f = CorrectorField(np.zeros((1, 3)), np.array([0.25]), np.array([0.5]), 3)
    mu = build_capacity_measure(f)
    assert mu.weights[0] == pytest.approx(2 * math.pi, rel=1e-14)
    # same weight in product form c_d a^(d-2) R^(d-2) / (R^(d-2) - a^(d-2))
    rng = np.random.default_rng(5)
    for d in (3, 4, 5):
        a = rng.uniform(0.05, 0.2)
        big = a * rng.uniform(1.5, 4.0)
        c_d = capacity_normalization(d)
        prod = c_d * a ** (d - 2) * big ** (d - 2) / (big ** (d - 2) - a ** (d - 2))
        assert annulus_capacity(a, big, d) == pytest.approx(prod, rel=1e-12)


def test_measure_weight_equals_cell_energy():
    config = lattice(eps=0.125, marks=MarkDistribution.uniform(0.5, 1.5))
    f = CorrectorField.from_configuration(config, delta=1.0)
    mu = build_capacity_measure(f)
    assert mu.total_weight == pytest.approx(corrector_energy(f), rel=1e-12)


def test_cell_average_second_order():
    # |weight/eps^d - c0| <= C eps^2 with C stable under refinement
    coeffs = []
    for eps in (0.25, 0.125, 0.0625):
        config = lattice(eps=eps)
        mu = build_capacity_measure(CorrectorField.from_configuration(config, 1.0))
        c0 = c0_constant(config.spec)
        coeffs.append(abs(mu.weights[0] / eps ** 3 - c0) / eps ** 2)
    assert abs(coeffs[1] / coeffs[2] - 1) <= 0.05
    assert coeffs[0] < 2 * coeffs[2]


def test_c0_values():
    spec_l = ProcessSpec(d=3, epsilon=0.25, process="lattice",
                         marks=MarkDistribution.constant(1.0))
    assert c0_constant(spec_l) == pytest.approx(4 * math.pi, rel=1e-14)
    spec_p = ProcessSpec(d=3, epsilon=0.25, process="poisson",
                         marks=MarkDistribution.constant(1.0), intensity=2.0)
    assert c0_constant(spec_p) == pytest.approx(8 * math.pi, rel=1e-14)
    pareto = MarkDistribution.pareto(2.5, 0.2, d=3)
    spec = ProcessSpec(d=3, epsilon=0.25, process="lattice", marks=pareto)
    assert c0_constant(spec) == pytest.approx(4 * math.pi * (2.5 * 0.2 / 1.5), rel=1e-12)
    # a tail at the integrability edge has no finite capacity density, and
    # spec validation refuses such mark laws outright
    edge = MarkDistribution("pareto", (2.0, 0.2), beta_eff=0.5)
    assert edge.moment(2) == math.inf
    with pytest.raises(ValueError):
        ProcessSpec(d=4, epsilon=0.25, process="lattice", marks=edge)


def test_poisson_cells_disjoint():
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    spec = ProcessSpec(d=3, epsilon=0.125, process="poisson", marks=marks,
                       domain=DomainDescriptor("axis_cube", 0.5), intensity=1.0,
                       master_seed=2)
    config = sample_configuration(spec, 0)
    f = CorrectorField.from_configuration(config, delta=0.8)
    n = len(f)
    for i in range(n):
        d = np.linalg.norm(f.centers - f.centers[i], axis=1)
        d[i] = np.inf
        assert np.all(f.outer[i] + f.outer < d + 1e-12)
