import csv
import io
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from holelab.cli import main
from holelab.io_utils import write_csv, write_field, write_json


def run(args):
    return main(args)


def test_exponents_values(tmp_path, capsys):
    code = run(["exponents", "--d", "3", "--beta", "0.5",
                "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out.split("exponents: ")[1])
    assert payload["delta"] == pytest.approx(0.8)
    assert payload["rate"] == pytest.approx(0.3)
    assert payload["k_exp"] == pytest.approx(0.4)
    assert payload["kappa"] == pytest.approx(0.2)
    with open(tmp_path / "exponents.json") as fh:
        assert json.load(fh)["delta"] == pytest.approx(0.8)


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"replicate": 0, "bogus_key": 1}))
    code = run(["sample", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "bogus_key" in capsys.readouterr().err


def test_sample_byte_identical_outputs(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "spec": {"d": 3, "epsilon": 0.25, "process": "poisson", "lambda": 1.0,
                 "marks": {"kind": "pareto", "beta_eff": 0.5},
                 "domain": {"shape": "axis_cube", "half_width": 1.0},
                 "master_seed": 7},
        "replicate": 2}))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["sample", "--config", str(cfg), "--out-dir", str(out1)]) == 0
    assert run(["sample", "--config", str(cfg), "--out-dir", str(out2)]) == 0
    a = (out1 / "configuration.csv").read_bytes()
    b = (out2 / "configuration.csv").read_bytes()
    assert a == b and len(a) > 100


def test_rates_parallel_outputs_match_serial(tmp_path):
    # each worker process samples its replicates and builds its own index
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "spec": {"d": 3, "epsilon": 0.125, "process": "poisson", "lambda": 1.0,
                 "marks": {"kind": "pareto", "beta_eff": 0.5},
                 "domain": {"shape": "axis_cube", "half_width": 0.5},
                 "master_seed": 5},
        "quantity": "bad_capacity",
        "epsilon_grid": [1 / 8, 1 / 10, 1 / 12, 1 / 16],
        "replicates": 30,
        "delta": 0.8}))
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        code = run(["rates", "--config", str(cfg), "--workers", workers,
                    "--out-dir", str(out)])
        outs.append((code, sorted(os.listdir(out)),
                     (out / "samples_bad_capacity.csv").read_bytes(),
                     (out / "fit_bad_capacity.json").read_bytes()))
    assert outs[0][0] in (0, 1) and len(outs[0][2]) > 100
    assert outs[0] == outs[1]


def test_outputs_get_the_umask_mode(tmp_path):
    old = os.umask(0o022)
    try:
        write_json(str(tmp_path / "a.json"), {"x": 1})
        with open(tmp_path / "b.json", "w") as fh:
            fh.write("{}")
    finally:
        os.umask(old)
    modes = [os.stat(tmp_path / name).st_mode & 0o777 for name in ("a.json", "b.json")]
    assert modes == [0o644, 0o644]


def test_failed_csv_leaves_the_target_alone(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("old\n")

    class Unprintable:
        def __str__(self):
            raise RuntimeError("field text failed")

    # the failing field lies past the first block of rows
    values = [0.5 * i for i in range(5000)]
    values[2500] = Unprintable()
    with pytest.raises(RuntimeError):
        write_csv(str(path), ["i", "x"], (np.arange(5000), values))
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["rows.csv"]


def test_dry_run_writes_nothing(tmp_path, capsys):
    code = run(["partition", "--dry-run", "--out-dir", str(tmp_path / "x")])
    assert code == 0
    assert "would" in capsys.readouterr().out
    assert not (tmp_path / "x").exists()


def test_rates_degenerate_refused(tmp_path, capsys):
    # all-good regime: every bad-capacity sample is zero, the fit is refused
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "spec": {"d": 3, "epsilon": 0.125, "process": "lattice",
                 "marks": {"kind": "constant", "r": 1.0},
                 "domain": {"shape": "axis_cube", "half_width": 0.5},
                 "master_seed": 1},
        "quantity": "bad_capacity",
        "epsilon_grid": [1 / 8, 1 / 12, 1 / 16, 1 / 24],
        "replicates": 30,
        "delta": 0.8}))
    code = run(["rates", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "positive" in capsys.readouterr().err


@pytest.mark.parametrize("dry_run", [False, True])
@pytest.mark.parametrize("design", [{"epsilon_grid": [1 / 8, 1 / 12, 1 / 16], "replicates": 30},
                                    {"epsilon_grid": [1 / 8, 1 / 10, 1 / 12, 1 / 16],
                                     "replicates": 2}])
def test_rates_design_refused_before_the_ensemble(tmp_path, capsys, design, dry_run):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict(design, quantity="bad_capacity", delta=0.8)))
    out = tmp_path / "out"
    code = run(["rates", "--config", str(cfg), "--out-dir", str(out)]
               + ["--dry-run"] * dry_run)
    captured = capsys.readouterr()
    assert code == 2 and "need at least" in captured.err
    assert "would run" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("dry_run", [False, True])
@pytest.mark.parametrize("extra, message", [
    # eps = 0.25 at delta = 0.5 fails the lattice partition in every replicate
    ({}, "epsilon=0.25 too large for delta=0.5"),
    ({"delta": 0.0, "spec": {"d": 3, "epsilon": 0.125, "process": "poisson", "lambda": 1.0,
                             "marks": {"kind": "pareto", "beta_eff": 2.0}}}, "delta must lie in"),
], ids=["lattice_epsilon", "delta"])
def test_rates_partition_scale_refused_before_the_ensemble(tmp_path, capsys, monkeypatch,
                                                           dry_run, extra, message):
    import holelab.cli as cli
    monkeypatch.setattr(cli, "ensemble_run", lambda *a, **k: pytest.fail("ran the ensemble"))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict({"quantity": "det_rhs", "delta": 0.5, "replicates": 30,
                                    "epsilon_grid": [0.25, 0.2, 0.1666, 0.125]}, **extra)))
    out = tmp_path / "out"
    code = run(["rates", "--config", str(cfg), "--out-dir", str(out)]
               + ["--dry-run"] * dry_run)
    captured = capsys.readouterr()
    assert code == 2 and message in captured.err
    assert "would run" not in captured.out
    assert not out.exists()


def test_partition_and_covering_outputs(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "spec": {"d": 3, "epsilon": 1 / 16, "process": "poisson", "lambda": 1.0,
                 "marks": {"kind": "pareto", "beta_eff": 0.5},
                 "domain": {"shape": "axis_cube", "half_width": 0.5},
                 "master_seed": 3}}))
    assert run(["partition", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    header = (tmp_path / "partition.csv").read_text().splitlines()[0]
    assert header == "index,class,rho,R"
    assert run(["covering", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    header = (tmp_path / "covering.csv").read_text().splitlines()[0]
    assert header.startswith("cell,anchor1")


def test_mecke_cli_small(tmp_path, capsys):
    code = run(["mecke", "--trials", "300", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0 and "max |z|" in out
    rows = {row.split(",")[0]: row.split(",") for row in
            (tmp_path / "mecke.csv").read_text().splitlines()[1:]}
    assert float(rows["isolated_mark"][4]) > 0.0      # rhs: not a null event


def read_field(path):
    """The inverse of io_utils.write_field."""
    raw = Path(path).read_bytes()
    n, h, d = struct.unpack_from("<qdq", raw)
    return np.frombuffer(raw, dtype=np.float64, offset=24).reshape((n,) * d), h


def test_field_binary_roundtrip(tmp_path):
    values = np.arange(27.0).reshape(3, 3, 3)
    path = str(tmp_path / "f.bin")
    write_field(path, values, 0.5)
    back, h = read_field(path)
    assert h == 0.5 and np.array_equal(back, values)


def test_hminus_rtol_key_rejected(tmp_path, capsys):
    # the cube dual norm is a direct solve; no tolerance is read
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"grid_n": 17, "rtol": 1e-10}))
    code = run(["hminus", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "rtol" in capsys.readouterr().err
    assert not (tmp_path / "hminus.csv").exists()


def test_hminus_spec_key_rejected(tmp_path, capsys):
    # the dual-norm geometry is fixed; a spec would be silently ignored
    cfg = tmp_path / "c.json"
    spec = {"d": 3, "epsilon": 0.125, "process": "poisson", "lambda": 1.0,
            "marks": {"kind": "constant", "r": 1.0},
            "domain": {"shape": "axis_cube", "half_width": 0.5}, "master_seed": 3}
    cfg.write_text(json.dumps({"grid_n": 17, "spec": spec}))
    code = run(["hminus", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "spec" in capsys.readouterr().err
    assert not (tmp_path / "hminus.csv").exists()


@pytest.mark.parametrize("key", ["d", "epsilon", "process", "marks"])
def test_spec_missing_key_is_a_config_error(key, tmp_path, capsys):
    spec = {"d": 3, "epsilon": 0.125, "process": "lattice",
            "marks": {"kind": "constant", "r": 1.0}}
    del spec[key]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"spec": spec}))
    out = tmp_path / "out"
    code = run(["sample", "--config", str(cfg), "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: spec is missing required key(s): {key}\n"
    assert not out.exists() or not any(out.iterdir())


def test_trials_flag_overrides_config(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "spec": {"d": 3, "epsilon": 0.25, "process": "poisson", "lambda": 1.0,
                 "marks": {"kind": "pareto", "beta_eff": 2.0},
                 "domain": {"shape": "axis_cube", "half_width": 1.0},
                 "master_seed": 3},
        "trials": 50, "functional": "count"}))
    code = run(["mecke", "--config", str(cfg), "--trials", "20",
                "--out-dir", str(tmp_path)])
    assert code in (0, 1)
    rows = (tmp_path / "mecke.csv").read_text().splitlines()
    assert rows[0].split(",")[:2] == ["functional", "trials"]
    assert [row.split(",")[:2] for row in rows[1:]] == [["count", "20"]]


@pytest.mark.parametrize("trials", ["0", "1"])
def test_mecke_refuses_fewer_than_two_trials(tmp_path, capsys, trials):
    # 0 is a value, not a request for the default; one trial has no standard
    # error, and z = 0 would pass vacuously
    out = tmp_path / "out"
    code = run(["mecke", "--trials", trials, "--out-dir", str(out)])
    assert code == 2 and "at least 2 trials" in capsys.readouterr().err
    assert not (out / "mecke.csv").exists()


# mecke has no grid, but its spec fixes epsilon just as firmly
@pytest.mark.parametrize("command", ["rates", "hminus", "mecke"])
def test_epsilon_rejected_where_the_grid_replaces_it(tmp_path, capsys, command):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run([command, "--epsilon", "0.1", "--dry-run", "--out-dir", str(out)])
    assert exc.value.code == 2
    assert "--epsilon" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dry_run", [False, True])
def test_random_covering_refused_on_a_lattice_spec(tmp_path, capsys, monkeypatch, dry_run):
    # the randomized covering serves poisson centres; on this lattice spec
    # its volume bound failed after sampling (exit 3)
    import holelab.cli as cli
    monkeypatch.setattr(cli, "sample_configuration", lambda *a: pytest.fail("sampled"))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "spec": {"d": 3, "epsilon": 0.125, "process": "lattice",
                 "marks": {"kind": "pareto", "beta_eff": 0.5},
                 "domain": {"shape": "axis_cube", "half_width": 1.0}, "master_seed": 1},
        "k": 2, "delta": 0.8, "random": True}))
    out = tmp_path / "out"
    code = run(["covering", "--config", str(cfg), "--out-dir", str(out)]
               + ["--dry-run"] * dry_run)
    assert code == 2
    assert '"random": true needs a poisson spec' in capsys.readouterr().err
    assert not out.exists()


def test_partition_guard_catches_a_planted_violation(tmp_path, capsys, monkeypatch):
    import holelab.cli as cli
    real = cli.partition_configuration

    def contagion_point_moved_to_good(config, delta):
        part = real(config, delta)
        assert part.bad_I_tilde.size > 0
        part.good = np.sort(np.append(part.good, part.bad_I_tilde[0]))
        part.bad_I_tilde = part.bad_I_tilde[1:]
        return part

    monkeypatch.setattr(cli, "partition_configuration", contagion_point_moved_to_good)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "spec": {"d": 3, "epsilon": 0.125, "process": "lattice",
                 "marks": {"kind": "pareto", "beta_eff": 0.5},
                 "domain": {"shape": "axis_cube", "half_width": 0.5},
                 "master_seed": 0}}))
    code = run(["partition", "--config", str(cfg), "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "good_avoids_bad_region" in out and "touches safety ball" in out


def test_covering_guard_catches_a_planted_violation(tmp_path, capsys, monkeypatch):
    import holelab.cli as cli
    real = cli.build_random_covering

    def cube_shifted_onto_a_foreign_cube(config, k, delta=None):
        cov = real(config, k, delta)
        cov.cube_lo[0], cov.cube_hi[0] = cov.cube_lo[1], cov.cube_hi[1]
        return cov

    monkeypatch.setattr(cli, "build_random_covering", cube_shifted_onto_a_foreign_cube)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "spec": {"d": 3, "epsilon": 1 / 16, "process": "poisson", "lambda": 1.0,
                 "marks": {"kind": "pareto", "beta_eff": 0.5},
                 "domain": {"shape": "axis_cube", "half_width": 0.5},
                 "master_seed": 3}}))
    code = run(["covering", "--config", str(cfg), "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "cubes of thinned points 0 and 1 overlap" in out


def _small_spec(process, shape="axis_cube", eps=0.125, half=0.5, seed=4):
    spec = {"d": 3, "epsilon": eps, "process": process,
            "marks": {"kind": "pareto", "beta_eff": 0.5},
            "domain": {"shape": shape, "half_width": half}, "master_seed": seed}
    return dict(spec, **{"lambda": 1.0}) if process == "poisson" else spec


_CSV_COMMANDS = [
    *[pytest.param(command, {"spec": _small_spec(process, shape, half=1.0)},
                   id=f"{command}-{process}-{shape}")
      for command in ("sample", "partition")
      for process in ("lattice", "poisson") for shape in ("axis_cube", "unit_ball")],
    pytest.param("corrector", {"spec": _small_spec("poisson", half=1.0)}, id="corrector"),
    pytest.param("covering", {"spec": _small_spec("lattice", half=1.0), "k": 2},
                 id="covering-cube"),
    pytest.param("covering", {"spec": _small_spec("poisson", eps=1 / 16), "k": 3, "random": True},
                 id="covering-random"),
    pytest.param("rates", {"spec": _small_spec("lattice"), "quantity": "det_rhs", "delta": 0.8,
                           "epsilon_grid": [1 / 8, 1 / 10, 1 / 12, 1 / 16], "replicates": 1},
                 id="rates"),
    pytest.param("solve", {"spec": _small_spec("poisson", eps=0.25, half=1.0), "grid_n": 17},
                 id="solve"),
    pytest.param("mecke", {"trials": 40}, id="mecke"),
    pytest.param("hminus", {"epsilon_grid": [1 / 4, 1 / 6, 1 / 8], "grid_n": 17}, id="hminus"),
]


def _number(field):
    for kind in (int, float):
        try:
            return kind(field)
        except ValueError:
            pass
    return field


@pytest.mark.parametrize("command, config", _CSV_COMMANDS)
def test_csv_fields_are_shortest_round_trip_text(tmp_path, command, config):
    # re-read every CSV, turn its numbers back into int or float and write
    # it again with the standard writer: the bytes must not change
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out-dir", str(out)]) in (0, 1)
    paths = sorted(out.glob("*.csv"))
    assert len(paths) == 1
    raw = paths[0].read_bytes()
    rows = list(csv.reader(io.StringIO(raw.decode("utf-8"))))
    assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows)
    again = io.StringIO()
    csv.writer(again, lineterminator="\n").writerows(
        [rows[0]] + [[_number(field) for field in row] for row in rows[1:]])
    assert again.getvalue().encode("utf-8") == raw
