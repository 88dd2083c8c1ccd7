"""Command-line driver: every pipeline as a subcommand with JSON configs.

Exit codes: 0 pass, 1 quantitative check failed, 2 usage or config error,
3 runtime error.  All outputs are written atomically.  Flags override
config keys; unknown config keys are rejected.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .corrector import CorrectorField, build_capacity_measure, c0_constant, corrector_energy
from .covering import (build_cube_covering, build_random_covering,
                       mesoscale_parameters, verify_random_covering)
from .experiments import exponent_table, mecke_spec, periodic_hminus_rate
from .io_utils import write_csv, write_field, write_json
from .partition import check_partition_scale, partition_configuration, verify_partition
from .pde import Grid, homogenization_error, homogenized_solve, solve_perforated
from .process import MECKE_FUNCTIONALS, ProcessSpec, mecke_check, sample_configuration
from .rates import (_delta_for, canonical_quantity, check_fit_design, ensemble_run,
                    fit_rate, theoretical_exponents)

logger = logging.getLogger("holelab")

COMMANDS = ("sample", "partition", "corrector", "covering", "rates",
            "hminus", "solve", "mecke", "exponents")

_SPEC_KEYS = {"d", "epsilon", "process", "lambda", "marks", "domain", "master_seed"}
_MARKS_KEYS = {"kind", "r", "lo", "hi", "alpha", "x_min", "beta_eff", "eta_margin"}
_DOMAIN_KEYS = {"shape", "half_width"}
_SCHEMAS = {
    "sample": {"spec", "replicate"},
    "partition": {"spec", "replicate", "delta"},
    "corrector": {"spec", "replicate", "delta"},
    "covering": {"spec", "replicate", "k", "delta", "random"},
    "rates": {"spec", "quantity", "epsilon_grid", "replicates", "delta", "k",
              "grid_n", "tolerance"},
    "hminus": {"epsilon_grid", "grid_n"},
    "solve": {"spec", "replicate", "grid_n", "delta", "rtol"},
    "mecke": {"spec", "trials", "functional"},
    "exponents": {"d", "beta", "epsilon"},
}


class ConfigError(ValueError):
    pass


def _validate_keys(obj: dict, allowed, where: str):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def _load_config(path, command) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    _validate_keys(cfg, _SCHEMAS[command], f"config for {command!r}")
    if "spec" in cfg:
        _validate_keys(cfg["spec"], _SPEC_KEYS, "spec")
        if "marks" in cfg["spec"]:
            _validate_keys(cfg["spec"]["marks"], _MARKS_KEYS, "spec.marks")
        if "domain" in cfg["spec"]:
            _validate_keys(cfg["spec"]["domain"], _DOMAIN_KEYS, "spec.domain")
    return cfg


def _default_spec() -> dict:
    return {"d": 3, "epsilon": 0.125, "process": "lattice",
            "marks": {"kind": "pareto", "beta_eff": 0.5},
            "domain": {"shape": "axis_cube", "half_width": 1.0},
            "master_seed": 0}


def _spec_from(cfg: dict, args) -> ProcessSpec:
    spec_obj = cfg.get("spec") or _default_spec()
    if args.seed is not None:
        spec_obj = dict(spec_obj, master_seed=args.seed)
    if getattr(args, "epsilon", None) is not None:
        spec_obj = dict(spec_obj, epsilon=args.epsilon)
    return ProcessSpec.from_json(spec_obj)


def _workers(args) -> int:
    if args.workers is not None:
        return args.workers
    return int(os.environ.get("HOLELAB_WORKERS", "1"))


def _out(args, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


# ----------------------------------------------------------------------
# subcommand bodies; each returns (exit_code, one_line_summary)
# ----------------------------------------------------------------------

def _cmd_sample(args, cfg):
    spec = _spec_from(cfg, args)
    rep = cfg.get("replicate", 0)
    if args.dry_run:
        return 0, f"sample: would draw ~{spec.expected_points():.3g} points (replicate {rep})"
    config = sample_configuration(spec, rep)
    path = _out(args, "configuration.csv")
    header = ["replicate"] + [f"x{i + 1}" for i in range(spec.d)] + ["rho"]
    write_csv(path, header, config.csv_columns())
    return 0, f"sample: {len(config)} points -> {path}"


def _cmd_partition(args, cfg):
    spec = _spec_from(cfg, args)
    rep = cfg.get("replicate", 0)
    delta = cfg.get("delta") or theoretical_exponents(spec.d, spec.marks.beta_eff).delta
    if args.dry_run:
        return 0, f"partition: would classify ~{spec.expected_points():.3g} points at delta={delta}"
    config = sample_configuration(spec, rep)
    part = partition_configuration(config, delta)
    failed = [c for c in verify_partition(config, part).checks if not c.passed]
    path = _out(args, "partition.csv")
    write_csv(path, ["index", "class", "rho", "R"], part.csv_columns(config))
    summary = (f"partition: good={part.good.size} J={part.bad_J.size} K={part.bad_K.size}"
               f" C={part.bad_C.size} I={part.bad_I_tilde.size} -> {path}")
    if failed:
        return 1, f"{summary}; check {failed[0].name} failed: {failed[0].detail}"
    return 0, summary


def _cmd_corrector(args, cfg):
    spec = _spec_from(cfg, args)
    rep = cfg.get("replicate", 0)
    delta = cfg.get("delta") or theoretical_exponents(spec.d, spec.marks.beta_eff).delta
    if args.dry_run:
        return 0, f"corrector: would build cells at delta={delta}"
    config = sample_configuration(spec, rep)
    fld = CorrectorField.from_configuration(config, delta)
    mu = build_capacity_measure(fld)
    path = _out(args, "capacity_measure.csv")
    write_csv(path, [f"c{i + 1}" for i in range(spec.d)] + ["R", "weight"], mu.csv_columns())
    summary = {"cells": len(fld), "energy": corrector_energy(fld),
               "c0": c0_constant(spec), "total_weight": mu.total_weight}
    write_json(_out(args, "corrector_summary.json"), summary)
    return 0, f"corrector: {len(fld)} cells, energy {summary['energy']:.6g} -> {path}"


def _cmd_covering(args, cfg):
    spec = _spec_from(cfg, args)
    rep = cfg.get("replicate", 0)
    k = cfg.get("k") or mesoscale_parameters(spec.d, spec.epsilon)[0]
    randomized = cfg.get("random", spec.process == "poisson")
    if randomized and spec.process == "lattice":
        raise ConfigError('"random": true needs a poisson spec; lattice sites use the cube tiling')
    if args.dry_run:
        return 0, f"covering: would tile with k={k} (randomized={randomized})"
    config = sample_configuration(spec, rep)
    header = ["cell", *[f"anchor{i + 1}" for i in range(spec.d)],
              "volume", "n_points", "is_interior"]
    path = _out(args, "covering.csv")
    if randomized:
        cov = build_random_covering(config, k, cfg.get("delta"))
        report = verify_random_covering(cov)
        write_csv(path, header, cov.csv_columns())
        summary = (f"covering: {report.n_cells} cells, violations "
                   f"vol={report.volume_violations} overlap={report.overlap_violations}"
                   f" dichotomy={report.dichotomy_violations} -> {path}")
        if not report.ok:
            return 1, f"{summary}; {report.detail}"
        return 0, summary
    cov = build_cube_covering(config, k)
    write_csv(path, header, cov.csv_columns())
    n_int = int(np.count_nonzero(cov.interior & cov.meets_domain))
    return 0, f"covering: {cov.n_cells} cells ({n_int} interior) -> {path}"


def _cmd_rates(args, cfg):
    spec = _spec_from(cfg, args)
    quantity = canonical_quantity(cfg.get("quantity", "bad_capacity"))
    grid = cfg.get("epsilon_grid", [1 / 8, 1 / 16, 1 / 32, 1 / 64])
    reps = cfg.get("replicates", 50)
    params = {"delta": cfg.get("delta"), "k": cfg.get("k"),
              "grid_n": cfg.get("grid_n", 65)}
    check_fit_design(grid, reps)
    if quantity in ("bad_capacity", "det_rhs"):
        check_partition_scale(spec.d, max(grid), _delta_for(spec, params),
                              spec.process == "lattice")
    if args.dry_run:
        return 0, (f"rates: would run {quantity} over {len(grid)} epsilons x {reps}"
                   f" replicates ({_workers(args)} workers)")
    stat = ensemble_run(spec, quantity, grid, reps, params=params, workers=_workers(args))
    write_csv(_out(args, f"samples_{quantity}.csv"),
              ["quantity", "d", "beta_eff", "epsilon", "replicate", "value"],
              stat.csv_columns(spec))
    theo = theoretical_exponents(spec.d, spec.marks.beta_eff, spec.marks)
    fit = fit_rate(stat, theo=theo, tolerance=cfg.get("tolerance", 0.2))
    write_json(_out(args, f"fit_{quantity}.json"), dict(fit.to_json(), quantity=quantity))
    verdict = "pass" if fit.passed or fit.passed is None else "FAIL"
    code = 0 if fit.passed in (True, None) else 1
    return code, (f"rates[{quantity}]: slope={fit.slope:.4f} ci=({fit.ci[0]:.3f},{fit.ci[1]:.3f})"
                  f" theo={fit.theoretical} {verdict}")


def _cmd_hminus(args, cfg):
    grid = cfg.get("epsilon_grid", [1 / 6, 1 / 8, 1 / 12, 1 / 16])
    n = cfg.get("grid_n", 97)
    if args.dry_run:
        return 0, f"hminus: would run {len(grid)} deposits and solves at n={n}"
    # the geometry is fixed (unit marks on the unit-volume lattice cube)
    seed = args.seed if args.seed is not None else 0
    result = periodic_hminus_rate(grid, grid_n=n, seed=seed)
    write_csv(_out(args, "hminus.csv"), ["epsilon", "norm"], (result.epsilons, result.norms))
    write_json(_out(args, "hminus_fit.json"),
               {"slope": result.slope, "r2": result.r2, "pass": result.passed})
    return (0 if result.passed else 1), \
        f"hminus: slope={result.slope:.4f} (target 1.0 +- 0.25) {'pass' if result.passed else 'FAIL'}"


def _cmd_solve(args, cfg):
    spec = _spec_from(cfg, args)
    rep = cfg.get("replicate", 0)
    n = cfg.get("grid_n", 65)
    delta = cfg.get("delta", 1.0)
    if args.dry_run:
        return 0, f"solve: would rasterise and solve on a {n}^3 grid"
    rtol = cfg.get("rtol", 1e-8)
    config = sample_configuration(spec, rep)
    grid = Grid.from_domain(spec.domain, n)
    sol = solve_perforated(config, None, 1.0, grid, rtol=rtol)
    u_hom = homogenized_solve(c0_constant(spec), 1.0, grid, rtol=rtol)
    fld = CorrectorField.from_configuration(config, delta)
    err = homogenization_error(sol.u, fld, u_hom, grid)
    write_field(_out(args, "u_perforated.bin"), sol.u, grid.h)
    write_field(_out(args, "u_homogenized.bin"), u_hom, grid.h)
    mid = grid.n // 2
    write_csv(_out(args, "u_midplane.csv"), ["i", "j", "u_eps", "u_hom"],
              (np.indices((grid.n, grid.n)).reshape(2, -1).T,
               sol.u[:, :, mid].ravel(), u_hom[:, :, mid].ravel()))
    return 0, (f"solve: error={err:.6g}, pinned nodes={sol.pinned_nodes},"
               f" omitted holes={len(sol.omitted_holes)}")


def _cmd_mecke(args, cfg):
    spec = ProcessSpec.from_json(cfg["spec"]) if cfg.get("spec") else mecke_spec(seed=0)
    if args.seed is not None:
        spec = dataclasses.replace(spec, master_seed=args.seed)
    trials = cfg.get("trials", 10000)
    names = [cfg["functional"]] if "functional" in cfg else list(MECKE_FUNCTIONALS)
    if args.dry_run:
        return 0, f"mecke: would run {names} at {trials} trials"
    reports = [mecke_check(spec, name, trials) for name in names]
    write_csv(_out(args, "mecke.csv"),
              ["functional", "trials", "lhs", "lhs_se", "rhs", "rhs_se", "z"],
              [[getattr(r, name) for r in reports] for name in
               ("functional", "trials", "lhs", "lhs_se", "rhs", "rhs_se", "z_score")])
    worst = max(abs(r.z_score) for r in reports)
    ok = worst < 4.0
    return (0 if ok else 1), f"mecke: max |z| = {worst:.3f} over {len(reports)} functionals" \
                             f" {'pass' if ok else 'FAIL'}"


def _cmd_exponents(args, cfg):
    d = cfg.get("d", args.d or 3)
    beta = cfg.get("beta", args.beta if args.beta is not None else 0.5)
    epsilon = cfg.get("epsilon", args.epsilon)
    table = exponent_table(d, beta, epsilon)
    if not args.dry_run:
        write_json(_out(args, "exponents.json"), table)
    keys = ("delta", "rate", "k_exp", "kappa")
    return 0, "exponents: " + json.dumps({k: table[k] for k in keys})


_BODIES = {
    "sample": _cmd_sample, "partition": _cmd_partition, "corrector": _cmd_corrector,
    "covering": _cmd_covering, "rates": _cmd_rates, "hminus": _cmd_hminus,
    "solve": _cmd_solve, "mecke": _cmd_mecke, "exponents": _cmd_exponents,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="holelab",
                                     description="perforated-domain homogenization laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out-dir", default="holelab_out")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (HOLELAB_WORKERS as fallback)")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--dry-run", action="store_true",
                       help="validate config and print the planned work")
        if name not in ("rates", "hminus", "mecke"):
            # rates and hminus take their epsilons from epsilon_grid, mecke
            # from its spec
            p.add_argument("--epsilon", type=float, default=None)
        if name == "exponents":
            p.add_argument("--d", type=int, default=None)
            p.add_argument("--beta", type=float, default=None)
        if name == "mecke":
            p.add_argument("--trials", type=int, default=None)
        if name == "rates":
            p.add_argument("--quantity", default=None)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config, args.command)
        if getattr(args, "quantity", None):
            cfg["quantity"] = args.quantity
        if getattr(args, "trials", None) is not None:
            cfg["trials"] = args.trials
        code, summary = _BODIES[args.command](args, cfg)
    except (ConfigError, ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures
        logger.exception("runtime error")
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    print(summary)
    return code


if __name__ == "__main__":
    sys.exit(main())
