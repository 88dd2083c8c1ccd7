"""Command-line driver: every pipeline as a subcommand with JSON configs.

Each command runs in two phases.  Resolve reads the config and flags (a flag
overrides the config key of its name; unknown keys are rejected), applies
defaults and calls the library's check of every run parameter; ``--dry-run``
stops after it and prints the planned work.  Run does the work and writes
the outputs, each atomically.  Exit codes: 0 pass, 1 check failed (the
command's ``Verdict`` or verifier), 2 refused while resolving (usage or
config), 3 failed while running.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .corrector import CorrectorField, build_capacity_measure, c0_constant, corrector_energy
from .covering import (build_cube_covering, build_random_covering, mesoscale_k,
                       verify_random_covering)
from .experiments import (HMINUS_TARGET, HMINUS_TOLERANCE, MeckeResult, exponent_table,
                          hminus_setup, lattice_spec, mecke_spec, periodic_hminus_rate)
from .io_utils import check_keys, write_csv, write_field, write_json
from .marks import MarkDistribution
from .partition import check_partition_scale, partition_configuration, verify_partition
from .pde import Grid, check_grid_n, homogenization_error, homogenized_solve, solve_perforated
from .process import (MECKE_FUNCTIONALS, ProcessSpec, check_delta, check_mecke_arguments,
                      check_replicate, mecke_check, sample_configuration)
from .rates import (check_fit_design, check_quantity, ensemble_run, fit_rate, resolve_delta,
                    theoretical_exponents)

logger = logging.getLogger("holelab")

COMMANDS = ("sample", "partition", "corrector", "covering", "rates",
            "hminus", "solve", "mecke", "exponents")

_SCHEMAS = {
    "sample": {"spec", "replicate"},
    "partition": {"spec", "replicate", "delta"},
    "corrector": {"spec", "replicate", "delta"},
    "covering": {"spec", "replicate", "k", "delta", "random"},
    "rates": {"spec", "quantity", "epsilon_grid", "replicates", "delta", "k",
              "grid_n", "tolerance"},
    "hminus": {"epsilon_grid", "grid_n"},
    "solve": {"spec", "replicate", "grid_n", "delta"},
    "mecke": {"spec", "trials", "functional"},
    "exponents": {"d", "beta", "epsilon"},
}


def _config(args) -> dict:
    """The config file's keys (checked), each overridden by the flag of its name."""
    cfg = {}
    if args.config is not None:
        with open(args.config) as fh:
            cfg = json.load(fh)
        check_keys(cfg, _SCHEMAS[args.command], f"config for {args.command!r}")
    cfg.update({key: value for key, value in vars(args).items()
                if key in _SCHEMAS[args.command] and value is not None})
    return cfg


def _spec_from(cfg: dict, args, default=None) -> ProcessSpec:
    """The config's spec, else default's (if None, pareto marks of beta_eff 0.5
    on the lattice cube at eps = 1/8); --seed and --epsilon override their fields."""
    if default is None:
        default = lattice_spec(MarkDistribution.pareto_for_beta(3, 0.5), seed=0)
    spec_obj = cfg.get("spec") or default.to_json()
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


def _judged(summary: str, verdict) -> tuple:
    """(1, summary FAIL) if the verdict failed, else (0, summary pass); None passes."""
    ok = verdict is None or verdict.passed
    return (0 if ok else 1), f"{summary} {'pass' if ok else 'FAIL'}"


# ----------------------------------------------------------------------
# subcommand bodies: each resolves its config and yields the plan line,
# then runs and yields (exit_code, one_line_summary)
# ----------------------------------------------------------------------

def _cmd_sample(args, cfg):
    spec = _spec_from(cfg, args)
    rep = check_replicate(cfg.get("replicate", 0))
    yield f"sample: would draw ~{spec.expected_points():.3g} points (replicate {rep})"
    config = sample_configuration(spec, rep)
    path = _out(args, "configuration.csv")
    header = ["replicate"] + [f"x{i + 1}" for i in range(spec.d)] + ["rho"]
    write_csv(path, header, config.csv_columns())
    yield 0, f"sample: {len(config)} points -> {path}"


def _cmd_partition(args, cfg):
    spec = _spec_from(cfg, args)
    rep = check_replicate(cfg.get("replicate", 0))
    delta = resolve_delta(spec, cfg.get("delta"))
    check_partition_scale(spec.d, spec.epsilon, delta, spec.process == "lattice")
    yield f"partition: would classify ~{spec.expected_points():.3g} points at delta={delta}"
    config = sample_configuration(spec, rep)
    part = partition_configuration(config, delta)
    failed = [c for c in verify_partition(config, part).checks if not c.passed]
    path = _out(args, "partition.csv")
    write_csv(path, ["index", "class", "rho", "R"], part.csv_columns(config))
    summary = (f"partition: good={part.good.size} J={part.bad_J.size} K={part.bad_K.size}"
               f" C={part.bad_C.size} I={part.bad_I_tilde.size} -> {path}")
    yield (1, f"{summary}; check {failed[0].name} failed: {failed[0].detail}") if failed \
        else (0, summary)


def _cmd_corrector(args, cfg):
    spec = _spec_from(cfg, args)
    rep = check_replicate(cfg.get("replicate", 0))
    delta = resolve_delta(spec, cfg.get("delta"))
    check_delta(spec.d, delta)
    yield f"corrector: would build cells at delta={delta}"
    config = sample_configuration(spec, rep)
    fld = CorrectorField.from_configuration(config, delta)
    mu = build_capacity_measure(fld)
    path = _out(args, "capacity_measure.csv")
    write_csv(path, [f"c{i + 1}" for i in range(spec.d)] + ["R", "weight"], mu.csv_columns())
    summary = {"cells": len(fld), "energy": corrector_energy(fld),
               "c0": c0_constant(spec), "total_weight": mu.total_weight}
    write_json(_out(args, "corrector_summary.json"), summary)
    yield 0, f"corrector: {len(fld)} cells, energy {summary['energy']:.6g} -> {path}"


def _cmd_covering(args, cfg):
    spec = _spec_from(cfg, args)
    rep = check_replicate(cfg.get("replicate", 0))
    k = mesoscale_k(spec, cfg.get("k"))
    randomized = cfg.get("random", spec.process == "poisson")
    if not isinstance(randomized, bool):
        raise ValueError(f'"random" must be true or false, got {randomized!r}')
    if randomized and spec.process == "lattice":
        raise ValueError('"random": true needs a poisson spec; lattice sites use the cube tiling')
    delta = resolve_delta(spec, cfg.get("delta"))
    if randomized:
        check_delta(spec.d, delta)
    yield f"covering: would tile with k={k} (randomized={randomized})"
    config = sample_configuration(spec, rep)
    header = ["cell", *[f"anchor{i + 1}" for i in range(spec.d)],
              "volume", "n_points", "is_interior"]
    path = _out(args, "covering.csv")
    if randomized:
        cov = build_random_covering(config, k, delta)
        report = verify_random_covering(cov)
        write_csv(path, header, cov.csv_columns())
        summary = (f"covering: {report.n_cells} cells, violations "
                   f"vol={report.volume_violations} overlap={report.overlap_violations}"
                   f" dichotomy={report.dichotomy_violations} -> {path}")
        yield (0, summary) if report.ok else (1, f"{summary}; {report.detail}")
    else:
        cov = build_cube_covering(config, k)
        write_csv(path, header, cov.csv_columns())
        n_int = int(np.count_nonzero(cov.interior & cov.meets_domain))
        yield 0, f"covering: {cov.n_cells} cells ({n_int} interior) -> {path}"


def _cmd_rates(args, cfg):
    spec = _spec_from(cfg, args)
    quantity = cfg.get("quantity", "bad_capacity")
    grid = cfg.get("epsilon_grid", [1 / 8, 1 / 16, 1 / 32, 1 / 64])
    reps = cfg.get("replicates", 50)
    tolerance = cfg.get("tolerance", 0.2)
    params = {key: cfg[key] for key in ("delta", "k", "grid_n") if key in cfg}
    check_quantity(spec, quantity, grid, params)
    check_fit_design(grid, reps, tolerance)
    workers = _workers(args)
    yield (f"rates: would run {quantity} over {len(grid)} epsilons x {reps}"
           f" replicates ({workers} workers)")
    stat = ensemble_run(spec, quantity, grid, reps, params=params, workers=workers)
    write_csv(_out(args, f"samples_{quantity}.csv"),
              ["quantity", "d", "beta_eff", "epsilon", "replicate", "value"],
              stat.csv_columns(spec))
    theo = theoretical_exponents(spec.d, spec.marks.beta_eff, spec.marks)
    fit = fit_rate(stat, theo=theo, tolerance=tolerance)
    write_json(_out(args, f"fit_{quantity}.json"), dict(fit.to_json(), quantity=quantity))
    yield _judged(f"rates[{quantity}]: slope={fit.slope:.4f}"
                  f" ci=({fit.ci[0]:.3f},{fit.ci[1]:.3f}) theo={fit.theoretical}", fit.verdict)


def _cmd_hminus(args, cfg):
    grid = cfg.get("epsilon_grid", [1 / 6, 1 / 8, 1 / 12, 1 / 16])
    n = cfg.get("grid_n", 97)
    hminus_setup(grid, n)             # fixed geometry: unit marks on the lattice cube
    yield f"hminus: would run {len(grid)} deposits and solves at n={n}"
    result = periodic_hminus_rate(grid, grid_n=n, seed=args.seed or 0)
    write_csv(_out(args, "hminus.csv"), ["epsilon", "norm"], (result.epsilons, result.norms))
    write_json(_out(args, "hminus_fit.json"),
               {"slope": result.slope, "r2": result.r2, "pass": result.verdict.passed})
    yield _judged(f"hminus: slope={result.slope:.4f}"
                  f" (target {HMINUS_TARGET} +- {HMINUS_TOLERANCE})", result.verdict)


def _cmd_solve(args, cfg):
    spec = _spec_from(cfg, args)
    rep = check_replicate(cfg.get("replicate", 0))
    n = check_grid_n(cfg.get("grid_n", 65))
    delta = cfg.get("delta", 1.0)
    check_delta(spec.d, delta)
    yield f"solve: would rasterise and solve on a {n}^3 grid"
    config = sample_configuration(spec, rep)
    grid = Grid.from_domain(spec.domain, n)
    sol = solve_perforated(config, None, 1.0, grid)
    u_hom = homogenized_solve(c0_constant(spec), 1.0, grid)
    fld = CorrectorField.from_configuration(config, delta)
    err = homogenization_error(sol.u, fld, u_hom, grid)
    write_field(_out(args, "u_perforated.bin"), sol.u, grid.h)
    write_field(_out(args, "u_homogenized.bin"), u_hom, grid.h)
    mid = grid.n // 2
    write_csv(_out(args, "u_midplane.csv"), ["i", "j", "u_eps", "u_hom"],
              (np.indices((grid.n, grid.n)).reshape(2, -1).T,
               sol.u[:, :, mid].ravel(), u_hom[:, :, mid].ravel()))
    yield 0, (f"solve: error={err:.6g}, pinned nodes={sol.pinned_nodes},"
              f" omitted holes={len(sol.omitted_holes)}")


def _cmd_mecke(args, cfg):
    spec = _spec_from(cfg, args, mecke_spec(seed=0))
    trials = cfg.get("trials", 10000)
    names = [cfg["functional"]] if "functional" in cfg else list(MECKE_FUNCTIONALS)
    for name in names:
        check_mecke_arguments(spec, name, trials)
    yield f"mecke: would run {names} at {trials} trials"
    result = MeckeResult([mecke_check(spec, name, trials) for name in names])
    write_csv(_out(args, "mecke.csv"),
              ["functional", "trials", "lhs", "lhs_se", "rhs", "rhs_se", "z"],
              [[getattr(r, name) for r in result.reports] for name in
               ("functional", "trials", "lhs", "lhs_se", "rhs", "rhs_se", "z_score")])
    yield _judged(f"mecke: max |z| = {result.verdict.value:.3f}"
                  f" over {len(names)} functionals", result.verdict)


def _cmd_exponents(args, cfg):
    table = exponent_table(cfg.get("d", 3), cfg.get("beta", 0.5), cfg.get("epsilon"))
    keys = ("delta", "rate", "k_exp", "kappa")
    summary = "exponents: " + json.dumps({k: table[k] for k in keys})
    yield summary
    write_json(_out(args, "exponents.json"), table)
    yield 0, summary


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
    args = build_parser().parse_args(argv)
    try:
        steps = _BODIES[args.command](args, _config(args))
        plan = next(steps)
    except Exception as exc:  # refused while resolving
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.dry_run:
        print(plan)
        return 0
    try:
        code, summary = next(steps)
    except Exception as exc:  # failed while running
        logger.exception("runtime error")
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    print(summary)
    return code


if __name__ == "__main__":
    sys.exit(main())
