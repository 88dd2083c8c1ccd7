"""Run one holelab benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; holelab is imported from its
``src/`` directory.  The run repeats whole rounds of the workload's fixed
work for about ``--seconds`` seconds (at least one round), then checks the
outputs of the first round and that every later round reproduced them.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from spans with ``--trace 1``.
Results and spans are also written under ``.perfbench_out/``.
"""

import os

# one BLAS/OpenMP thread, set before numpy loads: default pools spin on
# every core and change results in the last digits
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
             "HOLELAB_WORKERS"):
    os.environ[_var] = "1"

import argparse
import json
import logging
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("lattice_ensemble", "poisson_geometry", "grid_solves", "cli_outputs")


def process_age() -> float:
    """Seconds since this process was started, from its /proc start time."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def thread_count() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs each workload at toy sizes (for the benchmark's tests)")
    return p.parse_args(argv)


def import_holelab():
    """Import holelab from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import holelab
    if src.resolve() not in Path(holelab.__file__).resolve().parents:
        raise ImportError(f"holelab was imported from {holelab.__file__}, not {src}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_holelab()
    except ImportError as exc:
        print(f"error: cannot import holelab from the checkout: {exc}", file=sys.stderr)
        return 2
    # warnings every round (holes below grid resolution) would flood stderr
    logging.basicConfig(level=logging.ERROR, format="%(levelname)s %(name)s: %(message)s")

    import tracing
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.begin(-1)
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, str(OUT_DIR))
    try:
        wl.warm_up()
        setup_s = process_age()
        first, mismatched = None, 0
        times, cpu, layer_rounds = [], [], []
        attempted = failed = 0
        unexpected = []
        t_begin = time.perf_counter()
        while True:
            if tracer:
                tracer.begin(len(times))
            c0, t0 = time.process_time(), time.perf_counter()
            rnd = wl.run_round()
            t1, c1 = time.perf_counter(), time.process_time()
            times.append(t1 - t0)
            cpu.append(c1 - c0)
            if tracer:
                layer_rounds.append((tracer.self_times(len(times) - 1), dict(tracer.counts)))
                tracer.begin(-1)
            attempted += len(rnd.ops)
            for name, ok, detail in rnd.ops:
                if not ok:
                    failed += 1
                    if name not in wl.EXPECTED_FAILURES:
                        unexpected.append(f"operation {name} failed: {detail}")
            if first is None:
                first = rnd
            elif wl.fingerprint(rnd) != wl.fingerprint(first):
                mismatched += 1
            if (t1 - t_begin) + (t1 - t0) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        threads = thread_count()
        errors = unexpected + wl.check(first)
    finally:
        if hasattr(wl, "close"):
            wl.close()
    if mismatched:
        errors.append(f"{mismatched} later rounds did not reproduce the first round's outputs")
    if threads > (os.cpu_count() or 1):
        errors.append(f"{threads} threads on {os.cpu_count()} cores")

    if args.trace:
        metrics = {}
        for name in tracing.TIME_METRICS:
            metrics[name] = {"value": statistics.median(r[0].get(name, 0.0) for r in layer_rounds),
                             "unit": "s"}
        metrics["run.cpu_s"] = {"value": statistics.median(cpu), "unit": "s"}
        for name in tracing.COUNT_METRICS:
            metrics[name] = {"value": statistics.median(r[1].get(name, 0) for r in layer_rounds),
                             "unit": tracing.COUNT_UNITS.get(name, "count")}
    else:
        metrics = {"wall_s": {"value": statistics.median(times), "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=args.workload, seed=args.seed, size=args.size,
                  round_wall_s=times, round_cpu_s=cpu, setup_s=setup_s,
                  peak_rss_mb=peak_rss_mb, threads=threads, errors=errors)
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        (OUT_DIR / f"trace-{stem}.json").write_text(json.dumps(
            {"round_wall_s": times, "spans": tracer.to_json()}) + "\n")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
