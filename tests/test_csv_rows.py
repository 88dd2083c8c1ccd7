"""The columnar CSV writer against the standard library's ``csv.writer``.

Each old per-row generator is kept here as the reference and written
through ``csv.writer``; the package's ``write_csv`` of the matching
``csv_columns()`` must give the same bytes.
"""

import csv
import math
import os

import numpy as np
import pytest

from holelab import (CorrectorField, DomainDescriptor, EnsembleStat, MarkDistribution,
                     ProcessSpec, build_capacity_measure, build_cube_covering,
                     build_random_covering, sample_configuration)
from holelab.io_utils import _ROW_BLOCK, write_csv
from holelab.partition import partition_configuration


def spec(process, eps=1 / 8, domain=DomainDescriptor()):
    return ProcessSpec(d=3, epsilon=eps, process=process,
                       marks=MarkDistribution.pareto_for_beta(3, 0.5), domain=domain,
                       intensity=1.0 if process == "poisson" else None, master_seed=5)


def reference_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def same_bytes(tmp_path, columns, old_rows, header=("h",)):
    write_csv(tmp_path / "new.csv", header, columns)
    reference_csv(tmp_path / "old.csv", header, old_rows)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    return new.count(b"\n") - 1


@pytest.mark.parametrize("process", ["lattice", "poisson"])
def test_configuration_rows(tmp_path, process):
    for shape in ("axis_cube", "unit_ball"):
        config = sample_configuration(spec(process, domain=DomainDescriptor(shape)), 2)

        def old():
            for i in range(len(config)):
                yield (config.replicate, *config.points[i], config.rho[i])

        assert len(config) > _ROW_BLOCK
        assert same_bytes(tmp_path, config.csv_columns(), old()) == len(config)


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

    assert same_bytes(tmp_path, part.csv_columns(config), old()) == len(config)


def test_cube_covering_rows(tmp_path):
    config = sample_configuration(spec("lattice", domain=DomainDescriptor("axis_cube", 0.45)), 0)
    cov = build_cube_covering(config, 3)

    def old():
        counts = np.bincount(cov.point_cell, minlength=cov.n_cells)
        vols = np.full(cov.n_cells, cov.cell_size ** cov.m_lo.size)
        for c in range(cov.n_cells):
            yield (c, *cov.anchors[c], vols[c], int(counts[c]), bool(cov.interior[c]))

    assert same_bytes(tmp_path, cov.csv_columns(), old()) == cov.n_cells


def test_random_covering_rows(tmp_path):
    cov = build_random_covering(sample_configuration(spec("poisson", eps=1 / 16), 0), 3, 0.8)

    def old():
        counts = np.bincount(cov.cell_of, minlength=cov.base.n_cells)
        for c in range(cov.base.n_cells):
            yield (c, *cov.base.anchors[c], cov.volumes[c], int(counts[c]),
                   bool(cov.base.interior[c]))

    assert same_bytes(tmp_path, cov.csv_columns(), old()) == cov.base.n_cells


def test_capacity_measure_rows(tmp_path):
    config = sample_configuration(spec("poisson", eps=1 / 12), 0)
    mu = build_capacity_measure(CorrectorField.from_configuration(config, 0.8))
    assert len(mu) > 100

    def old():
        for k in range(len(mu)):
            yield (*mu.centers[k], mu.sphere_radii[k], mu.weights[k])

    assert same_bytes(tmp_path, mu.csv_columns(), old()) == len(mu)


def test_ensemble_rows(tmp_path):
    samples = np.array([[0.1, 1 / 3, 1e-300], [2.5e17, np.nan, -0.0]])
    stat = EnsembleStat("bad_capacity", [1 / 8, 1 / 16], 3, samples)
    sp = spec("lattice")

    def old():
        beta = sp.marks.beta_eff
        for i, eps in enumerate(stat.epsilon_grid):
            for r in range(stat.replicates):
                yield (stat.quantity, sp.d, beta, eps, r, stat.samples[i, r])

    assert same_bytes(tmp_path, stat.csv_columns(sp), old()) == samples.size


EDGE_FLOATS = [-0.0, math.nan, math.inf, -math.inf, 1e16, 1e-5, 5e-324, 2.5e17, 0.1 + 0.2,
               1 / 3, -7.0, 0.0, 123456789.125]


@pytest.mark.parametrize("n", [0, 1, _ROW_BLOCK, _ROW_BLOCK + 3, 2 * _ROW_BLOCK + 1])
def test_edge_case_columns(tmp_path, n):
    floats = np.array([EDGE_FLOATS[i % len(EDGE_FLOATS)] for i in range(n)])
    pairs = np.stack([floats[::-1], np.arange(n) - 5.5], axis=1)
    flags = np.arange(n) % 3 == 0
    labels = np.where(flags, "good", "I")
    py_floats = floats.tolist()
    py_bools = [bool(b) for b in flags]
    columns = ("label", np.float64(0.1 + 0.2), 7, True, -0.0, floats, pairs, flags, labels,
               np.arange(n, dtype=np.int64) - 3, py_floats, py_bools, list(labels.tolist()))

    def old():
        for i in range(n):
            yield ("label", np.float64(0.1 + 0.2), 7, True, -0.0, floats[i], *pairs[i],
                   flags[i], labels[i], i - 3, py_floats[i], py_bools[i], str(labels[i]))

    header = [f"f{i}" for i in range(14)]
    assert same_bytes(tmp_path, columns, old(), header) == n


def test_misaligned_columns_refused_before_any_file(tmp_path):
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError, match="5 and 4"):
        write_csv(path, ["a", "b", "c"], (np.arange(5), 1.0, np.zeros((4, 1))))
    with pytest.raises(ValueError, match="3 and 2"):
        write_csv(path, ["a", "b"], ([1, 2, 3], ["x", "y"]))
    assert os.listdir(tmp_path) == []
