"""Span tracing of holelab's public functions, installed from outside.

The tracer replaces each traced function by a wrapper that records a span
(name, start, end, parent) and, where the layer table asks for one, a
count.  The replacement is made in the defining module and in every other
holelab module that imported the function by name, so calls reach the
wrapper whichever module they go through.  Spans stay in memory and are
written out when the run ends.  ``src/`` is never edited.

A layer's self time is the summed duration of its spans minus the part of
that time covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

def _nodes(grid):
    return int(grid.n) ** 3


# (span name, module, attribute, counts(args, kwargs, result) -> {name: n})
TRACED = [
    ("process.sample", "holelab.process", "sample_configuration",
     lambda a, k, out: {"process.points": len(out)}),
    ("rng.uniforms", "holelab.rng", "coordinate_uniforms", None),
    ("process.min_dist", "holelab.process", "MarkedConfiguration.minimal_distances", None),
    ("index.build", "holelab.index", "SpatialIndex.__init__",
     lambda a, k, out: {"index.points": a[0].n}),
    ("index.close_pairs", "holelab.index", "SpatialIndex.close_pairs", None),
    ("index.query", "holelab.index", "SpatialIndex.query",
     lambda a, k, out: {"index.query_calls": 1}),
    ("partition.classify", "holelab.partition", "partition_lattice",
     lambda a, k, out: {"partition.bad": out.bad.size}),
    ("partition.classify", "holelab.partition", "partition_poisson",
     lambda a, k, out: {"partition.bad": out.bad.size}),
    ("partition.overlap", "holelab.partition", "overlap_pairs", None),
    ("partition.verify", "holelab.partition", "verify_partition", None),
    ("corrector.build", "holelab.corrector", "CorrectorField.from_configuration",
     lambda a, k, out: {"corrector.cells": len(out)}),
    ("corrector.build", "holelab.corrector", "build_capacity_measure", None),
    ("covering.cube", "holelab.covering", "build_cube_covering",
     lambda a, k, out: {"covering.cells": out.n_cells}),
    ("covering.random", "holelab.covering", "build_random_covering", None),
    ("covering.verify", "holelab.covering", "verify_random_covering", None),
    ("rates.cell_avg", "holelab.rates", "cell_capacity_averages", None),
    ("rates.surrogate", "holelab.rates", "quenched_error_surrogate", None),
    ("rates.ensemble", "holelab.rates", "ensemble_run",
     lambda a, k, out: {"rates.replicates": out.samples.size}),
    ("rates.fit", "holelab.rates", "fit_rate", None),
    ("pde.deposit", "holelab.pde", "deposit_measure",
     lambda a, k, out: {"pde.atoms": len(a[0])}),
    ("pde.dual_norm", "holelab.pde", "hminus_norm",
     lambda a, k, out: {"pde.unknowns": _nodes(a[1])}),
    ("pde.homogenized", "holelab.pde", "homogenized_solve",
     lambda a, k, out: {"pde.unknowns": _nodes(a[2])}),
    ("pde.neumann", "holelab.pde", "neumann_cell_energies",
     lambda a, k, out: {"pde.unknowns": _nodes(a[2])}),
    ("pde.perforated", "holelab.pde", "solve_perforated",
     lambda a, k, out: {"pde.unknowns": _nodes(a[3]),
                        "pde.omitted_holes": len(out.omitted_holes)}),
    ("pde.error", "holelab.pde", "homogenization_error", None),
    ("process.mecke", "holelab.process", "mecke_check", None),
    ("io_utils.write", "holelab.io_utils", "write_csv", None),
    ("io_utils.write", "holelab.io_utils", "write_json", None),
    ("io_utils.write", "holelab.io_utils", "write_field", None),
    ("io_utils.write", "holelab.io_utils", "atomic_write_bytes",
     lambda a, k, out: {"io_utils.bytes": len(a[1])}),
    ("cli.self", "holelab.cli", "main", None),
]

# every per-layer metric the traced run reports, in BENCHMARK.json order
TIME_METRICS = [
    "process.sample_s", "rng.uniforms_s", "process.min_dist_s", "index.build_s",
    "index.close_pairs_s", "index.query_s", "partition.classify_s",
    "partition.overlap_s", "partition.verify_s", "corrector.build_s",
    "covering.cube_s", "covering.random_s", "covering.verify_s",
    "rates.cell_avg_s", "rates.surrogate_s", "rates.ensemble_s", "rates.fit_s",
    "pde.deposit_s", "pde.dual_norm_s", "pde.homogenized_s", "pde.neumann_s",
    "pde.perforated_s", "pde.error_s", "process.mecke_s", "io_utils.write_s",
    "cli.self_s",
]
COUNT_METRICS = [
    "process.points", "index.points", "index.query_calls", "partition.bad",
    "corrector.cells", "covering.cells", "rates.replicates", "pde.atoms",
    "pde.unknowns", "pde.omitted_holes", "io_utils.bytes",
]
COUNT_UNITS = {"io_utils.bytes": "bytes"}


class Tracer:
    """In-memory span and counter store for one benchmark process."""

    def __init__(self):
        self.spans = []          # [id, parent, trace_id, name, start, end]
        self.counts = {}
        self.trace_id = 0
        self._stack = []

    # ------------------------------------------------------------------
    def _wrap(self, fn, name, counts):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(tracer.spans), tracer._stack[-1] if tracer._stack else -1,
                    tracer.trace_id, name, time.perf_counter(), None]
            tracer.spans.append(span)
            tracer._stack.append(span[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span[5] = time.perf_counter()
            if counts is not None:
                for key, value in counts(args, kwargs, out).items():
                    tracer.counts[key] = tracer.counts.get(key, 0) + int(value)
            return out

        return traced

    def install(self):
        """Wrap every function of TRACED wherever holelab binds it by name."""
        for mod in ("holelab", "holelab.cli", "holelab.experiments", "holelab.io_utils"):
            importlib.import_module(mod)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "holelab" or n.startswith("holelab."))]
        for name, mod_name, attr, counts in TRACED:
            home = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(raw.__func__, name, counts))
                else:
                    new = self._wrap(raw, name, counts)
                setattr(cls, meth, new)
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, name, counts)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    setattr(module, attr, wrapper)

    # ------------------------------------------------------------------
    def begin(self, trace_id: int):
        """Start a new trace (one benchmark round); counters restart."""
        self.trace_id = trace_id
        self.counts = {}

    def self_times(self, trace_id: int) -> dict:
        """Per-layer self time (seconds) of the spans of one trace."""
        spans = [s for s in self.spans if s[2] == trace_id]
        child = {}
        for s in spans:
            if s[1] >= 0:
                child[s[1]] = child.get(s[1], 0.0) + (s[5] - s[4])
        out = {}
        for s in spans:
            metric = s[3] + "_s"
            out[metric] = out.get(metric, 0.0) + (s[5] - s[4]) - child.get(s[0], 0.0)
        return out

    def to_json(self) -> list:
        return [{"id": s[0], "parent": s[1], "trace": s[2], "name": s[3],
                 "start": s[4], "end": s[5]} for s in self.spans]
