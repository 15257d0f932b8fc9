"""Spans and counters around calls into thinset_lab, taken from outside it.

A Tracer replaces each traced public function with a recording wrapper in
every module namespace that holds it (so calls between library modules are
seen too), and puts the originals back in ``restore``.  Each call records a
span [name, start, end, parent, job, size]; spans stay in memory and are
written out once, at the end of the run.  A layer is the module a span is
named after; its self time is the span time not covered by child spans.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time

import numpy as np

from workloads import thinset_lab, trigpoly

# (span name, module, attribute); the layer is the part before the dot
TARGETS = (
    ("sampler.sample_driver", "thinset_lab.sampler", "sample_driver"),
    ("trigpoly.sup_norm_rows", "thinset_lab.trigpoly", "sup_norm_rows"),
    ("trigpoly.fft", "numpy.fft", "ifft"),
    ("trigpoly.evaluate_grid", "thinset_lab.trigpoly", "evaluate_grid"),
    ("trigpoly.lq_function_norm", "thinset_lab.trigpoly", "lq_function_norm"),
    ("stable_norm.estimate_bracket", "thinset_lab.stable_norm", "estimate_bracket"),
    ("stable_norm.median_of_means", "thinset_lab.stable_norm", "median_of_means"),
    ("quasi.is_quasi_independent", "thinset_lab.quasi", "is_quasi_independent"),
    ("quasi.max_quasi_independent", "thinset_lab.quasi", "max_quasi_independent"),
    ("quasi.partition_lemma", "thinset_lab.quasi", "partition_lemma"),
    ("orlicz.luxemburg_norm", "thinset_lab.orlicz", "luxemburg_norm"),
    ("orlicz.log_type_functional", "thinset_lab.orlicz", "log_type_functional"),
    ("orlicz.psi_set_norm", "thinset_lab.orlicz", "psi_set_norm"),
    ("examples_sets.generate", "thinset_lab.examples_sets", "generate"),
    ("examples_sets.r_alpha", "thinset_lab.examples_sets", "r_alpha"),
    ("examples_sets.mesh_counts", "thinset_lab.examples_sets", "mesh_counts"),
    ("examples_sets.fit_mesh_exponent", "thinset_lab.examples_sets", "fit_mesh_exponent"),
    ("experiments.run_experiment", "thinset_lab.experiments", "run_experiment"),
    ("experiments.emit_report", "thinset_lab.experiments", "emit_report"),
)

LAYERS = ("sampler", "trigpoly", "stable_norm", "quasi", "orlicz", "examples_sets", "experiments")

# per-layer metrics: name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "sampler.calls": "count",
    "sampler.draws": "count",
    "sampler.busy_s": "s",
    "trigpoly.sup_calls": "count",
    "trigpoly.sup_rows": "count",
    "trigpoly.sup_busy_s": "s",
    "trigpoly.fft_calls": "count",
    "trigpoly.fft_busy_s": "s",
    "trigpoly.refine_s": "s",
    "trigpoly.grid_points": "count",
    "trigpoly.fft_bytes_computed": "bytes",
    "trigpoly.eval_calls": "count",
    "trigpoly.eval_busy_s": "s",
    "trigpoly.eval_points": "count",
    "trigpoly.self_s": "s",
    "stable_norm.calls": "count",
    "stable_norm.trials": "count",
    "stable_norm.busy_s": "s",
    "stable_norm.self_s": "s",
    "stable_norm.aggregate_s": "s",
    "quasi.check_calls": "count",
    "quasi.check_busy_s": "s",
    "quasi.search_calls": "count",
    "quasi.search_busy_s": "s",
    "quasi.search_nodes": "count",
    "quasi.search_exact_frac": "ratio",
    "quasi.partition_calls": "count",
    "quasi.partition_busy_s": "s",
    "quasi.partition_exact": "count",
    "quasi.partition_budget": "count",
    "quasi.partition_greedy": "count",
    "quasi.limit_hits": "count",
    "quasi.self_s": "s",
    "orlicz.calls": "count",
    "orlicz.busy_s": "s",
    "orlicz.grid_evals": "count",
    "orlicz.grid_points": "count",
    "orlicz.self_s": "s",
    "examples_sets.ralpha_busy_s": "s",
    "examples_sets.generate_busy_s": "s",
    "examples_sets.self_s": "s",
    "experiments.runs": "count",
    "experiments.self_s": "s",
    "experiments.emit_busy_s": "s",
    "experiments.checks_failed": "count",
    "bench.cpu_s": "s",
    "bench.trace_overhead": "ratio",
    "bench.span_coverage": "ratio",
}

NAME, START, END, PARENT, JOB, SIZE = range(6)


def _size(name, args, kwargs, out):
    """The per-call quantity a span carries: rows, draws, grid points, nodes, ..."""
    if name == "sampler.sample_driver":
        return int(args[1] if len(args) > 1 else kwargs["n"])
    if name == "trigpoly.sup_norm_rows":
        freqs, n_rows = args[0], int(np.atleast_2d(args[1]).shape[0])
        deg = int(max(-freqs[0], freqs[-1])) if len(freqs) > 1 else 0
        return [n_rows, n_rows * trigpoly.default_grid_size(deg) if deg else 0]
    if name == "trigpoly.evaluate_grid":
        return int(args[1] if len(args) > 1 else kwargs["M"])
    if name == "stable_norm.estimate_bracket":
        return int(args[2] if len(args) > 2 else kwargs["trials"])
    if name == "quasi.max_quasi_independent":
        return [out.nodes_explored, bool(out.exact)]
    if name == "quasi.partition_lemma":
        return list(out.modes)
    if name == "experiments.run_experiment":
        return sum(not c.passed for c in out.checks)
    return 0


class Tracer:
    """Spans, the current job id and the ResourceLimitError count of one run."""

    def __init__(self):
        self.spans: list = []
        self.job = None
        self.limit_hits = 0
        self._stack: list = []
        self._patches: list = []
        self.originals = {}
        for name, mod, attr in TARGETS:
            owner = importlib.import_module(mod)
            self.originals[name] = (owner, attr, getattr(owner, attr))

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except thinset_lab.ResourceLimitError as exc:
                # count each error once, at the innermost traced call it leaves
                if not getattr(exc, "perfbench_counted", False):
                    exc.perfbench_counted = True
                    self.limit_hits += 1
                raise
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            rec[SIZE] = _size(name, args, kwargs, out)
            return out

        traced.perfbench_span = name
        return traced

    def install(self):
        """Swap every traced function for its wrapper, in every thinset_lab module."""
        owners = [m for n, m in sorted(sys.modules.items()) if n == "thinset_lab" or n.startswith("thinset_lab.")]
        for name, (owner, attr, fn) in self.originals.items():
            wrapper = self._wrap(name, fn)
            for mod in [owner] + [m for m in owners if m is not owner]:
                if getattr(mod, attr, None) is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def restore(self):
        while self._patches:
            mod, attr, fn = self._patches.pop()
            setattr(mod, attr, fn)

    def dump(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": ["name", "start", "end", "parent", "job", "size"], "spans": self.spans}, fh)
            fh.write("\n")


def traced_slots() -> list:
    """`module.attr` names that hold a tracing wrapper; [] when nothing is traced."""
    mods = [(n, m) for n, m in sorted(sys.modules.items()) if n in ("thinset_lab", "numpy.fft") or n.startswith("thinset_lab.")]
    return [f"{n}.{attr}" for n, mod in mods for _, _, attr in TARGETS if hasattr(getattr(mod, attr, None), "perfbench_span")]


def layer_metrics(spans: list, first: int, wall: float, limit_hits: int = 0) -> dict:
    """Per-layer numbers for the spans of one pass (spans[first:])."""
    part = spans[first:]
    n = len(part)
    child_time = [0.0] * n
    for rec in part:
        if rec[PARENT] >= first:
            child_time[rec[PARENT] - first] += rec[END] - rec[START]
    m = {k: 0.0 for k in PER_LAYER_UNITS}
    layer_self = {layer: 0.0 for layer in LAYERS}
    roots = 0.0

    def layer_of(i):
        return part[i][NAME].split(".", 1)[0]

    def under(i, layer):
        p = part[i][PARENT]
        while p >= first:
            if layer_of(p - first) == layer:
                return True
            p = part[p - first][PARENT]
        return False

    for i, rec in enumerate(part):
        name, dur, size = rec[NAME], rec[END] - rec[START], rec[SIZE]
        self_t = dur - child_time[i]
        layer = layer_of(i)
        layer_self[layer] += self_t
        if rec[PARENT] < first:
            roots += dur
        if name == "sampler.sample_driver":
            m["sampler.calls"] += 1
            m["sampler.draws"] += size
            m["sampler.busy_s"] += dur
        elif name == "trigpoly.sup_norm_rows":
            m["trigpoly.sup_calls"] += 1
            m["trigpoly.sup_rows"] += size[0]
            m["trigpoly.sup_busy_s"] += dur
            m["trigpoly.refine_s"] += self_t
            m["trigpoly.grid_points"] += size[1]
        elif name == "trigpoly.fft":
            m["trigpoly.fft_calls"] += 1
            m["trigpoly.fft_busy_s"] += dur
        elif name == "trigpoly.evaluate_grid":
            m["trigpoly.eval_calls"] += 1
            m["trigpoly.eval_busy_s"] += dur
            m["trigpoly.eval_points"] += size
            if under(i, "orlicz"):
                m["orlicz.grid_evals"] += 1
                m["orlicz.grid_points"] += size
        elif name == "stable_norm.estimate_bracket":
            m["stable_norm.calls"] += 1
            m["stable_norm.trials"] += size
            m["stable_norm.busy_s"] += dur
            m["stable_norm.self_s"] += self_t
        elif name == "stable_norm.median_of_means":
            m["stable_norm.aggregate_s"] += dur
        elif name == "quasi.is_quasi_independent":
            m["quasi.check_calls"] += 1
            m["quasi.check_busy_s"] += dur
        elif name == "quasi.max_quasi_independent":
            m["quasi.search_calls"] += 1
            m["quasi.search_busy_s"] += dur
            if size:
                m["quasi.search_nodes"] += size[0]
                m["quasi.search_exact_frac"] += size[1]
        elif name == "quasi.partition_lemma":
            m["quasi.partition_calls"] += 1
            m["quasi.partition_busy_s"] += dur
            for mode in size or ():
                m[f"quasi.partition_{mode}"] += 1
        elif name == "examples_sets.r_alpha":
            m["examples_sets.ralpha_busy_s"] += dur
        elif name == "examples_sets.generate":
            m["examples_sets.generate_busy_s"] += dur
        elif name == "experiments.run_experiment":
            m["experiments.runs"] += 1
            m["experiments.self_s"] += self_t
            m["experiments.checks_failed"] += size
        elif name == "experiments.emit_report":
            m["experiments.emit_busy_s"] += dur
        if layer == "orlicz" and not under(i, "orlicz"):
            m["orlicz.calls"] += 1
            m["orlicz.busy_s"] += dur
    m["trigpoly.fft_bytes_computed"] = 16 * m["trigpoly.grid_points"]
    if m["quasi.search_calls"]:
        m["quasi.search_exact_frac"] /= m["quasi.search_calls"]
    m["quasi.limit_hits"] = limit_hits
    for layer in ("trigpoly", "quasi", "orlicz", "examples_sets"):
        m[f"{layer}.self_s"] = layer_self[layer]
    m["bench.span_coverage"] = roots / wall if wall > 0 else 0.0
    return m


def median_metrics(per_pass: list) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
