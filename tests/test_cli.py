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


def test_exponents_flags_override_config_keys(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"d": 3, "beta": 0.5}))
    code = run(["exponents", "--config", str(cfg), "--d", "4", "--beta", "2.0",
                "--out-dir", str(tmp_path)])
    payload = json.loads(capsys.readouterr().out.split("exponents: ")[1])
    assert code == 0
    assert payload["delta"] == pytest.approx(1 / 3)       # 4/(d^2-4) at d = 4
    assert payload["rate"] == pytest.approx(2 / 3)        # d*beta/(d^2-4)
    with open(tmp_path / "exponents.json") as fh:
        table = json.load(fh)
    assert (table["d"], table["beta"]) == (4, 2.0)


def test_exponents_refuses_d_0(tmp_path, capsys):
    # 0 is a value, not a request for the default d = 3
    out = tmp_path / "out"
    code = run(["exponents", "--d", "0", "--out-dir", str(out)])
    assert code == 2 and "d must be an integer >= 3" in capsys.readouterr().err
    assert not out.exists()


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


_WORK = ("sample_configuration", "ensemble_run", "mecke_check", "periodic_hminus_rate",
         "write_csv", "write_json", "write_field")


def test_dry_run_writes_nothing(tmp_path, capsys, monkeypatch):
    # every command's plan line from its defaults; the work would fail
    import holelab.cli as cli
    for name in _WORK:
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("started the work"))
    monkeypatch.delenv("HOLELAB_WORKERS", raising=False)
    plans = {
        "sample": "sample: would draw ~4.1e+03 points (replicate 0)",
        "partition": "partition: would classify ~4.1e+03 points at delta=0.8",
        "corrector": "corrector: would build cells at delta=0.8",
        "covering": "covering: would tile with k=2 (randomized=False)",
        "rates": "rates: would run bad_capacity over 4 epsilons x 50 replicates (1 workers)",
        "hminus": "hminus: would run 4 deposits and solves at n=97",
        "solve": "solve: would rasterise and solve on a 65^3 grid",
        "mecke": "mecke: would run ['count', 'truncated_mark', 'isolated_mark'] at 10000 trials",
        "exponents": 'exponents: {"delta": 0.8, "rate": 0.3, "k_exp": 0.4, "kappa": 0.2}',
    }
    assert sorted(plans) == sorted(cli.COMMANDS)
    for command, plan in plans.items():
        code = run([command, "--dry-run", "--out-dir", str(tmp_path / "x")])
        assert (code, capsys.readouterr().out) == (0, plan + "\n")
    assert not (tmp_path / "x").exists()


def test_failure_while_running_exits_3(tmp_path, capsys, monkeypatch):
    # a ValueError raised by the work is a runtime error, not a refused config
    import holelab.cli as cli

    def refuse(*args):
        raise ValueError("planted write failure")

    monkeypatch.setattr(cli, "write_csv", refuse)
    code = run(["sample", "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "runtime error: planted write failure" in captured.err


def test_rates_degenerate_refused(tmp_path, capsys):
    # all-good regime: every bad-capacity sample is zero, the fit is refused;
    # the refusal comes after the ensemble has run, so it is a runtime error
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
    assert code == 3
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
    # the quantities that thin without partitioning check the range alone
    ({"quantity": "s_variance", "delta": 5.0}, "delta must lie in"),
    ({"quantity": "hminus", "delta": 5.0}, "delta must lie in"),
], ids=["lattice_epsilon", "delta", "s_variance_delta", "hminus_delta"])
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


_POISSON = {"d": 3, "epsilon": 0.125, "process": "poisson", "lambda": 1.0,
            "marks": {"kind": "pareto", "beta_eff": 0.5}}
_LATTICE_HALF = {"d": 3, "epsilon": 0.125, "process": "lattice",
                 "marks": {"kind": "pareto", "beta_eff": 0.5},
                 "domain": {"shape": "axis_cube", "half_width": 0.5}}


@pytest.mark.parametrize("dry_run", [False, True])
@pytest.mark.parametrize("command, config, message", [
    # 0 is a value, not a request for the default; k counts whole epsilons
    ("partition", {"delta": 0}, "delta must lie in"),
    ("corrector", {"delta": 0}, "delta must lie in"),
    ("covering", {"k": 0}, "k must be an integer >= 1"),
    ("covering", {"k": 2.5}, "k must be an integer >= 1"),
    ("covering", {"delta": 0, "spec": _POISSON}, "delta must lie in"),
    ("rates", {"k": 0, "quantity": "s_variance", "replicates": 30,
               "epsilon_grid": [1 / 8, 1 / 12, 1 / 16, 1 / 24]}, "k must be an integer >= 1"),
    # cells of side k*eps = 9/8 on a domain of radius 1/2
    ("covering", {"k": 9, "spec": _LATTICE_HALF}, "k*eps = 1.125 exceeds the domain scale"),
    ("rates", {"k": 9, "spec": _LATTICE_HALF, "quantity": "s_variance", "replicates": 30,
               "epsilon_grid": [1 / 8, 1 / 12, 1 / 16, 1 / 24]},
     "k*eps = 1.125 exceeds the domain scale"),
    # at eps = 1/8 the cells of side k*eps = 1/2 span the domain's radius,
    # so none lies inside it at distance eps
    ("rates", {"k": 4, "spec": _LATTICE_HALF, "quantity": "s_variance", "replicates": 30,
               "epsilon_grid": [1 / 8, 1 / 12, 1 / 16, 1 / 24]},
     "no cell of side k*eps = 0.5 is interior to the domain"),
    ("rates", {"quantity": "nope"}, "unknown quantity 'nope'"),
    ("solve", {"delta": 0}, "delta must lie in"),
    ("mecke", {"trials": 1}, "trials must be an integer >= 2"),
    ("mecke", {"spec": _LATTICE_HALF, "functional": "nope"}, "specific to the poisson process"),
    ("mecke", {"functional": "nope"}, "unknown functional 'nope'"),
    ("mecke", {"spec": dict(_POISSON, domain={"shape": "axis_cube", "half_width": 0.1})},
     "sampling window too small"),
    *[(command, {"replicate": -1}, "replicate must be an integer >= 0")
      for command in ("sample", "partition", "corrector", "covering", "solve")],
    # counts are integers, and a bool is not one
    *[("sample", {"replicate": r}, "replicate must be an integer >= 0")
      for r in (1.5, True, "abc")],
    ("covering", {"k": True}, "k must be an integer >= 1"),
    ("rates", {"replicates": 30.5}, "replicates must be an integer >= 1"),
    ("mecke", {"trials": 2.5}, "trials must be an integer >= 2"),
    # a grid needs an interior node
    ("solve", {"grid_n": 1}, "grid_n must be an integer >= 3"),
    ("solve", {"grid_n": 2}, "grid_n must be an integer >= 3"),
    ("hminus", {"grid_n": 1}, "grid_n must be an integer >= 3"),
    ("rates", {"quantity": "hminus", "grid_n": 1}, "grid_n must be an integer >= 3"),
    # every epsilon of the grid is range-checked, whatever the quantity
    ("hminus", {"epsilon_grid": [1.5, 0.5, 0.25, 0.125], "grid_n": 17},
     "epsilon must lie in (0, 1)"),
    ("rates", {"quantity": "overlap_pairs", "epsilon_grid": [1.5, 0.5, 0.25, 0.125],
               "replicates": 30}, "epsilon must lie in (0, 1)"),
    # the fit's tolerance is a number >= 0, and "random" a JSON bool
    *[("rates", {"tolerance": t}, "tolerance must be a number >= 0") for t in ("abc", -0.5)],
    ("covering", {"random": "no", "spec": _POISSON}, '"random" must be true or false'),
    # spec fields that were read as something else: "cube" as the unit ball,
    # a ball's half-width, a lattice lambda and a lone pareto alpha dropped,
    # a fractional d or master_seed truncated
    ("sample", {"spec": dict(_LATTICE_HALF, domain={"shape": "cube", "half_width": 0.5})},
     "unknown domain shape 'cube'"),
    ("sample", {"spec": dict(_LATTICE_HALF, domain={"shape": "unit_ball", "half_width": 0.5})},
     "the unit ball has half_width 1, got 0.5"),
    ("sample", {"spec": dict(_LATTICE_HALF, **{"lambda": 5.0})}, "unknown keys ['lambda'] in spec"),
    ("sample", {"spec": dict(_POISSON, marks={"kind": "pareto", "alpha": 3.0, "beta_eff": 0.5})},
     "spec.marks is missing required key(s): x_min"),
    ("sample", {"spec": dict(_POISSON, d=3.7)}, "d must be an integer >= 3, got 3.7"),
    ("sample", {"spec": dict(_POISSON, master_seed=1.9)}, "master_seed must be an integer >= 0, got 1.9"),
    ("exponents", {"d": 3.5}, "d must be an integer >= 3, got 3.5"),
], ids=["partition_delta", "corrector_delta", "covering_k", "covering_fractional_k",
        "covering_delta", "rates_k", "covering_oversized_k", "rates_oversized_k",
        "rates_no_interior_cell", "rates_quantity", "solve_delta", "mecke_trials", "mecke_lattice",
        "mecke_functional", "mecke_window", "sample_replicate", "partition_replicate",
        "corrector_replicate", "covering_replicate", "solve_replicate",
        "sample_fractional_replicate", "sample_bool_replicate", "sample_text_replicate",
        "covering_bool_k", "rates_fractional_replicates", "mecke_fractional_trials",
        "solve_grid_n_1", "solve_grid_n_2", "hminus_grid_n", "rates_hminus_grid_n",
        "hminus_epsilon", "rates_overlap_epsilon", "rates_text_tolerance",
        "rates_negative_tolerance", "covering_text_random", "domain_cube", "ball_half_width",
        "lattice_lambda", "pareto_lone_alpha", "fractional_d", "fractional_seed",
        "exponents_fractional_d"])
def test_config_faults_refused_before_the_dry_run(tmp_path, capsys, monkeypatch, command,
                                                  config, message, dry_run):
    import holelab.cli as cli
    for name in _WORK:
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("started the work"))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = run([command, "--config", str(cfg), "--out-dir", str(out)] + ["--dry-run"] * dry_run)
    captured = capsys.readouterr()
    assert code == 2 and message in captured.err
    assert "would" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("dry_run", [False, True])
@pytest.mark.parametrize("where", ["spec", "spec.marks", "spec.domain"])
def test_unknown_nested_key_refused(tmp_path, capsys, where, dry_run):
    spec = json.loads(json.dumps(_LATTICE_HALF))
    obj = {"spec": spec, "spec.marks": spec["marks"], "spec.domain": spec["domain"]}[where]
    obj["bogus_nested"] = 1
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"spec": spec}))
    out = tmp_path / "out"
    code = run(["sample", "--config", str(cfg), "--out-dir", str(out)] + ["--dry-run"] * dry_run)
    captured = capsys.readouterr()
    assert code == 2 and f"unknown keys ['bogus_nested'] in {where}" in captured.err
    assert captured.out == "" and not out.exists()


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
    # neither command takes a solver tolerance from its config
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"grid_n": 17, "rtol": 1e-10}))
    for command in ("hminus", "solve"):
        for dry_run in (False, True):
            code = run([command, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
                       + ["--dry-run"] * dry_run)
            captured = capsys.readouterr()
            assert code == 2 and "unknown keys ['rtol']" in captured.err
            assert captured.out == ""
    assert not (tmp_path / "out").exists()


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
    assert code == 2 and "trials must be an integer >= 2" in capsys.readouterr().err
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
        part.bad_I_tilde = part.bad_I_tilde[1:]         # good now holds it
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

    def cube_shifted_onto_a_foreign_cube(config, k, delta):
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


# ----------------------------------------------------------------------
# quantitative verdicts: exit 1, the summary line and the written outputs
# ----------------------------------------------------------------------

def _run_config(tmp_path, capsys, command, config):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = run([command, "--config", str(cfg), "--out-dir", str(out)])
    return code, capsys.readouterr().out, out


def test_rates_failed_fit_exits_1(tmp_path, capsys):
    # at tolerance 0 the at-least rule is the bare slope >= 0.6
    code, stdout, out = _run_config(tmp_path, capsys, "rates", {
        "spec": {"d": 3, "epsilon": 0.125, "process": "lattice",
                 "marks": {"kind": "pareto", "beta_eff": 0.5},
                 "domain": {"shape": "axis_cube", "half_width": 0.5}, "master_seed": 1},
        "quantity": "bad_capacity", "epsilon_grid": [1 / 8, 1 / 10, 1 / 12, 1 / 16],
        "replicates": 30, "tolerance": 0})
    assert code == 1
    assert stdout == "rates[bad_capacity]: slope=0.2650 ci=(-1.042,1.447) theo=0.6 FAIL\n"
    fit = json.loads((out / "fit_bad_capacity.json").read_text())
    assert (fit["pass"], fit["comparison"], fit["theoretical"], fit["tolerance"]) == \
        (False, "at_least", 0.6, 0)
    assert round(fit["slope"], 4) == 0.2650
    assert len((out / "samples_bad_capacity.csv").read_text().splitlines()) == 1 + 4 * 30


def test_rates_fit_without_target_passes(tmp_path, capsys):
    # s_variance has no predicted slope: nothing is compared, the run passes
    code, stdout, out = _run_config(tmp_path, capsys, "rates", {
        "spec": {"d": 3, "epsilon": 0.125, "process": "lattice",
                 "marks": {"kind": "uniform", "lo": 0.5, "hi": 1.5},
                 "domain": {"shape": "axis_cube", "half_width": 0.5}, "master_seed": 4},
        "quantity": "s_variance", "k": 2, "delta": 1.0,
        "epsilon_grid": [1 / 8, 1 / 12, 1 / 16, 1 / 24], "replicates": 30})
    assert code == 0
    assert stdout == "rates[s_variance]: slope=0.5430 ci=(0.365,0.670) theo=None pass\n"
    fit = json.loads((out / "fit_s_variance.json").read_text())
    assert (fit["pass"], fit["comparison"], fit["theoretical"], fit["tolerance"]) == \
        (None, "two_sided", None, 0.2)


@pytest.mark.parametrize("grid_n, slope", [(17, "2.9266"), (33, "1.2788")])
def test_hminus_slope_outside_its_band_exits_1(tmp_path, capsys, grid_n, slope):
    code, stdout, out = _run_config(tmp_path, capsys, "hminus", {"grid_n": grid_n})
    assert code == 1
    assert stdout == f"hminus: slope={slope} (target 1.0 +- 0.25) FAIL\n"
    fit = json.loads((out / "hminus_fit.json").read_text())
    assert fit["pass"] is False and f"{fit['slope']:.4f}" == slope
    assert (out / "hminus.csv").read_text().splitlines()[0] == "epsilon,norm"
    assert len((out / "hminus.csv").read_text().splitlines()) == 5


def test_mecke_z_of_4_exits_1(tmp_path, capsys, monkeypatch):
    # |z| < 4 is strict: a functional at exactly 4 fails the run
    import holelab.cli as cli
    from holelab.process import MeckeReport
    z = {"count": 1.0, "truncated_mark": -4.0, "isolated_mark": 2.5}
    monkeypatch.setattr(cli, "mecke_check", lambda spec, name, trials:
                        MeckeReport(name, trials, z[name], 1.0, 0.0, 0.0))
    out = tmp_path / "out"
    code = run(["mecke", "--trials", "20", "--out-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().out == "mecke: max |z| = 4.000 over 3 functionals FAIL\n"
    rows = [row.split(",") for row in (out / "mecke.csv").read_text().splitlines()]
    assert rows[0] == ["functional", "trials", "lhs", "lhs_se", "rhs", "rhs_se", "z"]
    assert [(r[0], r[1], float(r[-1])) for r in rows[1:]] == \
        [("count", "20", 1.0), ("truncated_mark", "20", -4.0), ("isolated_mark", "20", 2.5)]


def test_summary_verdict_on_its_bound():
    # an inclusive bound passes at equality, a strict one fails; no verdict passes
    import holelab.cli as cli
    from holelab.rates import Verdict
    assert cli._judged("s", Verdict(0.05, 0.05, "<=")) == (0, "s pass")
    assert cli._judged("s", Verdict(0.45, 0.45, ">=")) == (0, "s pass")
    assert cli._judged("s", Verdict(4.0, 4.0, "<")) == (1, "s FAIL")
    assert cli._judged("s", None) == (0, "s pass")
