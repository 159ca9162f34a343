"""Spans around the library's public functions, installed from outside it.

``Tracer.install`` replaces each listed function, wherever a ``tiltedbh``
module has bound it, by a wrapper that records one span per call: its
name, start, end, parent and, for observable traces, the computed flop
count.  Spans stay in memory; ``layer_metrics`` reduces them to self times
per layer.  The library's own files are never edited.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _eigh_span(args, kwargs):
    vectors = _arg(args, kwargs, 1, "compute_vectors", True)
    return "spectrum.eigh_vectors" if vectors else "spectrum.eigh_values"


def _trace_span(args, kwargs):
    return f"dynamics.{_arg(args, kwargs, 3, 'observable')}_trace"


def _trace_flop(args, kwargs):
    """Two (states x dim) @ (dim x dim) products per grid time."""
    states = len(_arg(args, kwargs, 0, "ensemble_indices"))
    dim = _arg(args, kwargs, 1, "spectral").dim
    times = len(_arg(args, kwargs, 2, "time_grid"))
    return 4.0 * states * dim * dim * times


# (module, attribute, span name or name(args, kwargs), flop(args, kwargs))
TARGETS = [
    ("tiltedbh.hamiltonian", "build", "hamiltonian.build", None),
    ("tiltedbh.hamiltonian", "HamiltonianMatrix.to_dense",
     "hamiltonian.densify", None),
    ("tiltedbh.spectrum", "diagonalize", _eigh_span, None),
    ("tiltedbh.spectrum", "mean_gap_ratio", "spectrum.gap_ratio", None),
    ("tiltedbh.diagnostics", "eigenstate_diagnostics",
     "diagnostics.eigenstate", None),
    ("tiltedbh.diagnostics", "write_eigenstate_csv", "diagnostics.write", None),
    ("tiltedbh.initial_states", "sample_energy_window",
     "initial_states.sample", None),
    ("tiltedbh.initial_states", "maximally_imbalanced_states",
     "initial_states.sample", None),
    ("tiltedbh.initial_states", "write_state_manifest",
     "initial_states.write", None),
    ("tiltedbh.dynamics", "survival_trace", "dynamics.survival", None),
    ("tiltedbh.dynamics", "ensemble_ipr", "dynamics.survival", None),
    ("tiltedbh.dynamics", "correlation_hole_depth", "dynamics.survival", None),
    ("tiltedbh.dynamics", "estimate_curve_inputs",
     "dynamics.analytic_curve", None),
    ("tiltedbh.dynamics", "analytic_survival_curve",
     "dynamics.analytic_curve", None),
    ("tiltedbh.dynamics", "observable_trace", _trace_span, _trace_flop),
    ("tiltedbh.dynamics", "write_trace_csv", "dynamics.write", None),
    ("tiltedbh.sweep", "cached_diagonalize", "sweep.cache_io", None),
    ("tiltedbh.sweep", "run_chaos_map", "sweep", None),
    ("tiltedbh.sweep", "run_cut", "sweep", None),
    ("tiltedbh.cli", "main", "cli", None),
]

# spans that orchestrate rather than compute; left out of the coverage sum
ORCHESTRATION = ("sweep", "cli")

TIME_LAYERS = [
    "hamiltonian.build", "hamiltonian.densify",
    "spectrum.eigh_values", "spectrum.eigh_vectors", "spectrum.gap_ratio",
    "diagnostics.eigenstate", "diagnostics.write",
    "initial_states.sample", "initial_states.write",
    "dynamics.survival", "dynamics.analytic_curve",
    "dynamics.entropy_trace", "dynamics.imbalance_trace", "dynamics.write",
    "sweep.cache_io", "sweep", "cli",
]


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index, flop]
        self._stack = []

    def _wrap(self, fn, name, flop):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            work = flop(args, kwargs) if flop else 0.0
            span = [label, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, work]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
        return wrapper

    def install(self) -> None:
        for module_name, attr, name, flop in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), name, flop))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, flop)
            for loaded, mod in list(sys.modules.items()):
                if loaded == "tiltedbh" or loaded.startswith("tiltedbh."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer self times, counts and the share of the wall they cover."""
    child_time = [0.0] * len(spans)
    children = [[] for _ in spans]
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            children[parent].append(i)
    self_s = {name: 0.0 for name in TIME_LAYERS}
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[name] += (end - start) - child_time[i]

    def solves_below(i):
        return any(spans[c][0].startswith("spectrum.eigh") or solves_below(c)
                   for c in children[i])

    cache_calls = [i for i, s in enumerate(spans) if s[0] == "sweep.cache_io"]
    misses = sum(1 for i in cache_calls if solves_below(i))
    gflop = sum(s[4] for s in spans) / 1e9
    trace_s = self_s["dynamics.entropy_trace"] + self_s["dynamics.imbalance_trace"]
    covered = sum(v for k, v in self_s.items() if k not in ORCHESTRATION)
    out = {f"{name}_s" if name not in ORCHESTRATION else f"{name}.self_s": v
           for name, v in self_s.items()}
    out.update({
        "spectrum.eigh_calls": sum(
            1 for s in spans if s[0].startswith("spectrum.eigh")),
        "sweep.cache_hits": len(cache_calls) - misses,
        "sweep.cache_misses": misses,
        "dynamics.trace_gflop": gflop,
        "dynamics.trace_gflop_per_s": gflop / trace_s if trace_s > 0 else 0.0,
        "trace.coverage": covered / wall_s,
        "trace.spans": len(spans),
    })
    return out


def median_metrics(rounds: list) -> dict:
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
