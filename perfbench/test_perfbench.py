"""Tests of the benchmark itself: every output check rejects a perturbed
value, tiny runs of every workload finish in seconds and pass, and the
traced run reports every per-layer metric.

    python3 -m pytest perfbench -q
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from holelab.io_utils import write_field  # noqa: E402


@pytest.fixture(scope="module")
def tiny_rounds(tmp_path_factory):
    """One tiny round of every workload, timed, with its workload object."""
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(3, "tiny", str(tmp_path_factory.mktemp(name)))
        t0 = time.perf_counter()
        rnd = wl.run_round()
        out[name] = (wl, rnd, time.perf_counter() - t0)
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_round_is_fast_and_correct(tiny_rounds, name):
    wl, rnd, elapsed = tiny_rounds[name]
    assert elapsed < 20.0
    failed = {op for op, ok, _ in rnd.ops if not ok}
    assert failed == set(wl.EXPECTED_FAILURES)
    assert wl.check(rnd) == []
    assert wl.fingerprint(rnd) == wl.fingerprint(copy.deepcopy(rnd))


def _perturbed(tiny_rounds, name, edit):
    wl, rnd, _ = tiny_rounds[name]
    bad = copy.deepcopy(rnd)
    edit(bad.data)
    return wl.check(bad)


def _scale(arr, factor, index=(0, 0)):
    arr[index] *= factor


# ----------------------------------------------------------------------
# workload-level perturbations: each must be caught

LATTICE_EDITS = {
    "bad_capacity": lambda d: _scale(d["bad"].samples, 1 + 1e-9),
    "det_below_sqrt_bad": lambda d: _scale(d["det"].samples, 0.0, (1, 0)),
    "fit_slope": lambda d: setattr(d["fit"], "slope", d["fit"].slope + 1e-6),
    "fit_sample": lambda d: _scale(d["fit_stat"].samples, 1.5, (1, 3)),
}


@pytest.mark.parametrize("edit", list(LATTICE_EDITS))
def test_lattice_checks_catch(tiny_rounds, edit):
    assert _perturbed(tiny_rounds, "lattice_ensemble", LATTICE_EDITS[edit])


def _first(d):
    return d[min(d)]


POISSON_EDITS = {
    "min_dist": lambda d: _scale(_first(d)["min_dist"], 1 + 1e-9, 5),
    "class_sizes": lambda d: _first(d)["classes"].update(J=_first(d)["classes"]["J"] + 1),
    "overlaps": lambda d: _first(d).update(overlaps=_first(d)["overlaps"] + 1),
    "covering_verifier": lambda d: _first(d)["covering"].update(dichotomy=1),
    "partition_verifier": lambda d: _first(d).update(partition={"good_separation": "x"}),
}


@pytest.mark.parametrize("edit", list(POISSON_EDITS))
def test_poisson_checks_catch(tiny_rounds, edit):
    assert _perturbed(tiny_rounds, "poisson_geometry", POISSON_EDITS[edit])


def _bump_node(arr, value):
    arr[arr.shape[0] // 2, arr.shape[1] // 2, arr.shape[2] // 2] += value


GRID_EDITS = {
    "crit4_node_mass": lambda d: d["crit4_6"].update(g_mass=d["crit4_6"]["g_mass"] + 1e-8),
    "crit4_dropped": lambda d: d["crit4_8"].update(dropped=d["crit4_8"]["dropped"] + 1),
    "eigen_norm": lambda d: d["eigen"].update(norm=d["eigen"]["norm"] * 1.02),
    "eigen_node_mass": lambda d: d["eigen"].update(g_mass=d["eigen"]["g_mass"] * (1 + 1e-9)),
    "homogenized_phi": lambda d: _bump_node(d["u_phi"], 1e-2),
    "perforated_negative": lambda d: _bump_node(d["perf_6"]["u"], -1.0),
    "perforated_above_free": lambda d: d["perf_12"].update(u=d["u_free"] + 1e-3),
    "homogenization_error": lambda d: d["perf_6"].update(error=math.nan),
    "dual_bound": lambda d: d["cellwise"].update(norm=10.0 * d["cellwise"]["norm"]),
    "cellwise_node_mass": lambda d: d["cellwise"].update(g_mass=d["cellwise"]["g_mass"] - 1e-8),
}


@pytest.mark.parametrize("edit", list(GRID_EDITS))
def test_grid_checks_catch(tiny_rounds, edit):
    assert _perturbed(tiny_rounds, "grid_solves", GRID_EDITS[edit])


def _edit_file(path, transform):
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(transform(text))
    return text


def _drop_last_line(text):
    return "".join(text.splitlines(keepends=True)[:-1])


def _set_cell(text, row, col, fn):
    """Replace one numeric cell of a CSV text (row 0 is the first data row)."""
    lines = text.split("\n")
    cols = lines[row + 1].split(",")
    cols[col] = repr(fn(float(cols[col])))
    lines[row + 1] = ",".join(cols)
    return "\n".join(lines)


def _json_edit(key, value):
    def edit(text):
        obj = json.loads(text)
        obj[key] = value
        return json.dumps(obj)
    return edit


CLI_EDITS = {
    "exponents.json": ("exponents/exponents.json", _json_edit("delta", 0.81)),
    "sample rows": ("sample/configuration.csv", _drop_last_line),
    "partition label": ("partition/partition.csv", lambda t: t.replace(",good,", ",bogus,", 1)),
    "partition header": ("partition/partition.csv", lambda t: t.replace("class", "klass", 1)),
    "corrector energy": ("corrector/corrector_summary.json", _json_edit("energy", 1.0)),
    "corrector rows": ("corrector/capacity_measure.csv", _drop_last_line),
    "covering volume": ("covering/covering.csv", lambda t: _set_cell(t, 0, 4, lambda v: 3 * v)),
    "rates rows": ("rates/samples_bad_capacity.csv", _drop_last_line),
    "rates interval": ("rates/fit_bad_capacity.json", _json_edit("ci_lo", 1e9)),
    "solve midplane": ("solve/u_midplane.csv", _drop_last_line),
    "mecke z": ("mecke_axis_cube/mecke.csv", lambda t: _set_cell(t, 1, 6, lambda v: 4.5)),
    "mecke ball z": ("mecke_unit_ball/mecke.csv", lambda t: _set_cell(t, 0, 6, lambda v: -v)),
}


@pytest.mark.parametrize("edit", list(CLI_EDITS))
def test_cli_checks_catch(tiny_rounds, edit):
    wl, rnd, _ = tiny_rounds["cli_outputs"]
    rel, transform = CLI_EDITS[edit]
    path = os.path.join(wl.dir, rel)
    original = _edit_file(path, transform)
    try:
        assert wl.check(rnd)
    finally:
        with open(path, "w") as fh:
            fh.write(original)
    assert wl.check(rnd) == []


@pytest.mark.parametrize("damage", ["truncate", "boundary", "negative", "too_large"])
def test_field_reader_catches(tmp_path, damage):
    n, h = 9, 0.25
    x = np.linspace(-1, 1, n)
    u = 0.1 * np.einsum("i,j,k->ijk", 1 - x ** 2, 1 - x ** 2, 1 - x ** 2)
    path = str(tmp_path / "u.bin")
    write_field(path, u, h)
    assert checks.check_field(path, n, h, u_max=0.5) == []
    if damage == "truncate":
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(raw[:-8])
    else:
        v = u.copy()
        if damage == "boundary":
            v[0, 3, 3] = 1e-3
        elif damage == "negative":
            v[4, 4, 4] = -1e-3
        else:
            v[4, 4, 4] = 0.6
        write_field(path, v, h)
    assert checks.check_field(path, n, h, u_max=0.5)


def test_lattice_reference_sees_contagion():
    """The recomputation must reproduce holelab's value only with contagion."""
    from holelab import MarkDistribution, ProcessSpec, sample_configuration
    from holelab.domain import DomainDescriptor
    from holelab.partition import bad_capacity_sum, partition_configuration
    spec = ProcessSpec(3, 1 / 16, "lattice", MarkDistribution.pareto_for_beta(3, 0.5),
                       DomainDescriptor("axis_cube", 1.0), master_seed=11)
    config = sample_configuration(spec, 0)
    part = partition_configuration(config, 0.8)
    assert part.bad_I_tilde.size > 0
    coords = checks.lattice_sites(16)
    from holelab.rng import coordinate_uniforms
    rho = spec.marks.quantile(coordinate_uniforms(11, 0, coords))
    ref = checks.lattice_bad_capacity(coords, rho, 1 / 16, 0.8)
    assert checks.check_bad_capacity("x", bad_capacity_sum(config, part), ref) == []
    core_only = (1 / 16) ** 3 * np.sum(rho[(1 / 16) ** 3 * rho >= (1 / 16) ** 1.8])
    assert checks.check_bad_capacity("x", core_only, ref)


# ----------------------------------------------------------------------
# run.py end to end

def _run(cwd, *args, timeout=120):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_traced_run_reports_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert names == set(tracing.TIME_METRICS) | set(tracing.COUNT_METRICS) | {"run.cpu_s"}
    proc = _run(ROOT, "--workload", "cli_outputs", "--seed", "2", "--seconds", "1",
                "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == names
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["cli.self_s"] > 0 and m["io_utils.bytes"] > 0 and m["process.mecke_s"] > 0
    assert result["correct"] and result["failed"] == 1


def test_untraced_run_reports_end_to_end_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "--workload", "lattice_ensemble", "--seed", "2", "--seconds", "1",
                "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0


def test_run_without_sources_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "grid_solves", "--seed", "1", "--seconds", "1",
                timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
