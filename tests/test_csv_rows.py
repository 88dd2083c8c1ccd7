"""The CSV row generators against the per-row numpy indexing they replace.

Each old generator is kept here as the reference; both are written through
``write_csv`` and the files must be byte-identical.
"""

import numpy as np
import pytest

from holelab import (CorrectorField, DomainDescriptor, EnsembleStat, MarkDistribution,
                     ProcessSpec, build_capacity_measure, build_cube_covering,
                     build_random_covering, sample_configuration)
from holelab.io_utils import write_csv
from holelab.partition import partition_configuration


def spec(process, eps=1 / 8, domain=DomainDescriptor()):
    return ProcessSpec(d=3, epsilon=eps, process=process,
                       marks=MarkDistribution.pareto_for_beta(3, 0.5), domain=domain,
                       intensity=1.0 if process == "poisson" else None, master_seed=5)


def same_bytes(tmp_path, new_rows, old_rows):
    write_csv(tmp_path / "new.csv", ["h"], new_rows)
    write_csv(tmp_path / "old.csv", ["h"], old_rows)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    return new.count(b"\n") - 1


@pytest.mark.parametrize("process", ["lattice", "poisson"])
def test_configuration_rows(tmp_path, process):
    config = sample_configuration(spec(process, domain=DomainDescriptor("unit_ball")), 2)

    def old():
        for i in range(len(config)):
            yield (config.replicate, *config.points[i], config.rho[i])

    assert same_bytes(tmp_path, config.csv_rows(), old()) == len(config)


def test_partition_rows(tmp_path):
    config = sample_configuration(spec("poisson"), 4)
    part = partition_configuration(config, 0.8)
    assert all(cls.size for cls in (part.good, part.bad_J, part.bad_K, part.bad_C, part.bad_I_tilde))

    def old():
        r = config.minimal_distances()
        labels = [(part.good, "good"), (part.bad_J, "J"), (part.bad_K, "K"),
                  (part.bad_C, "C"), (part.bad_I_tilde, "I")]
        for idx, name in labels:
            for i in idx:
                yield (int(i), name, config.rho[i], r[i])

    assert same_bytes(tmp_path, part.csv_rows(config), old()) == len(config)


def test_cube_covering_rows(tmp_path):
    config = sample_configuration(spec("lattice", domain=DomainDescriptor("axis_cube", 0.45)), 0)
    cov = build_cube_covering(config, 3)

    def old():
        counts = np.bincount(cov.point_cell, minlength=cov.n_cells)
        vols = np.full(cov.n_cells, cov.cell_size ** cov.m_lo.size)
        for c in range(cov.n_cells):
            yield (c, *cov.anchors[c], vols[c], int(counts[c]), bool(cov.interior[c]))

    assert same_bytes(tmp_path, cov.csv_rows(), old()) == cov.n_cells


def test_random_covering_rows(tmp_path):
    cov = build_random_covering(sample_configuration(spec("poisson", eps=1 / 16), 0), 3)

    def old():
        counts = np.bincount(cov.cell_of, minlength=cov.base.n_cells)
        for c in range(cov.base.n_cells):
            yield (c, *cov.base.anchors[c], cov.volumes[c], int(counts[c]),
                   bool(cov.base.interior[c]))

    assert same_bytes(tmp_path, cov.csv_rows(), old()) == cov.base.n_cells


def test_capacity_measure_rows(tmp_path):
    config = sample_configuration(spec("poisson", eps=1 / 12), 0)
    mu = build_capacity_measure(CorrectorField.from_configuration(config, 0.8))
    assert len(mu) > 100

    def old():
        for k in range(len(mu)):
            yield (*mu.centers[k], mu.sphere_radii[k], mu.weights[k])

    assert same_bytes(tmp_path, mu.csv_rows(), old()) == len(mu)


def test_ensemble_rows(tmp_path):
    samples = np.array([[0.1, 1 / 3, 1e-300], [2.5e17, np.nan, -0.0]])
    stat = EnsembleStat("bad_capacity", [1 / 8, 1 / 16], 3, samples)
    sp = spec("lattice")

    def old():
        beta = sp.marks.beta_eff
        for i, eps in enumerate(stat.epsilon_grid):
            for r in range(stat.replicates):
                yield (stat.quantity, sp.d, beta, eps, r, stat.samples[i, r])

    assert same_bytes(tmp_path, stat.csv_rows(sp), old()) == samples.size
