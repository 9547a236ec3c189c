"""Span tracing of glyphsvm from outside the package.

`Tracer.installed()` replaces each traced function with a wrapper in every
glyphsvm module that holds a reference to it. Callers look functions up in
two ways, and both must see the wrapper: as a module global of the defining
module (`svm.kernel_against` inside `svm`, `preprocess.label_components`
inside `preprocess`) and as a name imported into another module
(`multiclass.decision_value`, `multiclass.train_binary`). No file of the
package changes.

A span holds a name, a start, an end and its parent span. Spans stay in
memory in flat arrays while the traced code runs; `layer_metrics` turns them
into per-layer numbers afterwards and `save` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# The public functions of each glyphsvm module that the benchmark traces.
TRACED = {
    "data": ("load_dataset",),
    "pgm": ("read_pgm",),
    "preprocess": (
        "median_filter",
        "otsu_binarize",
        "detect_skew",
        "deskew",
        "segment_lines",
        "segment_characters",
        "label_components",
        "normalize_size",
        "thin",
        "preprocess_character",
        "preprocess_page",
    ),
    "features": ("extract_features", "read_features_csv"),
    "svm": ("train_binary", "kernel_against", "decision_value"),
    "multiclass": ("train_one_vs_all", "train_one_vs_one", "predict"),
    "modelsel": ("grid_search", "cross_validate", "repeat_evaluate"),
    "model_io": ("save_model", "load_model"),
}
LAYERS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# Per-call latency percentiles are reported for these hot, many-call layers.
PER_CALL_LAYERS = (
    "pgm.read_pgm",
    "preprocess.label_components",
    "preprocess.thin",
    "preprocess.preprocess_character",
    "features.extract_features",
    "svm.train_binary",
    "svm.kernel_against",
    "svm.decision_value",
    "multiclass.predict",
)
TAIL_PERCENTILES = (99.999, 99.99, 99.9, 99.0, 90.0)

# Counters taken where the work happens, from each traced call's result.
COUNTERS = (
    ("svm.smo_iterations", "count", "lower"),
    ("svm.us_per_iteration", "us", "lower"),
    ("svm.kernel_rows", "count", "lower"),
    ("preprocess.records", "count", "lower"),
    ("modelsel.cells", "count", "higher"),
    ("modelsel.cells_failed", "count", "lower"),
    ("model_io.bytes", "bytes", "lower"),
)

# Shares of the traced body's wall time. A module's share counts its spans
# that are not nested in another span of the same module.
SHARES = tuple(f"share.{mod}" for mod in TRACED) + (
    "share.svm.train_binary.self",
    "share.svm.decision_value",
)

# Layers whose time in the workload's set-up is reported separately.
SETUP_LAYERS = ("preprocess.preprocess_character", "svm.train_binary")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = []
    for layer in LAYERS:
        spec += [
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.s", "s", "lower"),
            (f"{layer}.self_s", "s", "lower"),
        ]
        if layer in PER_CALL_LAYERS:
            spec.append((f"{layer}.p50_us", "us", "lower"))
    spec += COUNTERS
    spec += [(name, "fraction", "lower") for name in SHARES]
    spec += [(f"setup.{layer}.s", "s", "lower") for layer in SETUP_LAYERS]
    spec.append(("trace.overhead_s", "s", "lower"))
    return spec


def _file_bytes(path) -> int:
    return os.path.getsize(str(path))


class Tracer:
    """Collects spans and result counters while installed."""

    def __init__(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        # results of some layers carry work counts the spans cannot see
        self._on_return = {
            "svm.train_binary": lambda res, args: self._count(
                "svm.smo_iterations", res.meta.iterations
            ),
            "preprocess.preprocess_page": lambda res, args: self._count(
                "preprocess.records", len(res)
            ),
            "modelsel.grid_search": lambda res, args: (
                self._count("modelsel.cells", len(res.entries)),
                self._count(
                    "modelsel.cells_failed", sum(e.error is not None for e in res.entries)
                ),
            ),
            "model_io.save_model": lambda res, args: self._count(
                "model_io.bytes", _file_bytes(args[1])
            ),
            "model_io.load_model": lambda res, args: self._count(
                "model_io.bytes", _file_bytes(args[0])
            ),
        }

    def _count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def _wrap(self, name: str, fn):
        nid = LAYERS.index(name)
        on_return = self._on_return.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if on_return is not None:
                on_return(result, args)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every function in TRACED for the duration of the block."""
        wrappers = {}
        for mod, fns in TRACED.items():
            module = importlib.import_module(f"glyphsvm.{mod}")
            for fn in fns:
                original = getattr(module, fn)
                wrappers[id(original)] = self._wrap(f"{mod}.{fn}", original)
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname != "glyphsvm" and not modname.startswith("glyphsvm."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def _arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start),
            np.frombuffer(self.end),
        )

    def save(self, path) -> None:
        """Write every span: layer name table, layer index, parent, start, end."""
        names, parent, start, end = self._arrays()
        np.savez(path, layers=np.array(LAYERS), layer=names, parent=parent, start=start, end=end)

    def layer_totals(self) -> dict[str, float]:
        """Total seconds spent in each layer (nested calls counted once each)."""
        names, _, start, end = self._arrays()
        dur = end - start
        return {layer: float(dur[names == i].sum()) for i, layer in enumerate(LAYERS)}

    def layer_metrics(self, wall_s: float) -> tuple[dict, dict]:
        """Per-layer metrics (name -> value) and per-call details per layer.

        Self time is a span's duration minus its direct children's. The
        details hold each layer's call count, median and the highest
        percentile that still has at least ten calls beyond it.
        """
        names, parent, start, end = self._arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child
        parent_name = np.where(nested, names[np.maximum(parent, 0)], -1)
        module_of = np.array([layer.split(".")[0] for layer in LAYERS])

        metrics: dict[str, float] = {}
        details: dict[str, dict] = {}
        for i, layer in enumerate(LAYERS):
            mask = names == i
            calls = int(mask.sum())
            metrics[f"{layer}.calls"] = calls
            metrics[f"{layer}.s"] = float(dur[mask].sum())
            metrics[f"{layer}.self_s"] = float(self_time[mask].sum())
            per_call = dur[mask] * 1e6
            p50 = float(np.median(per_call)) if calls else 0.0
            if layer in PER_CALL_LAYERS:
                metrics[f"{layer}.p50_us"] = p50
            if calls:
                tail = next((p for p in TAIL_PERCENTILES if calls * (100.0 - p) / 100.0 >= 10), None)
                details[layer] = {
                    "calls": calls,
                    "total_s": metrics[f"{layer}.s"],
                    "self_s": metrics[f"{layer}.self_s"],
                    "p50_us": p50,
                    "tail": None if tail is None else {
                        "percentile": tail,
                        "us": float(np.percentile(per_call, tail)),
                    },
                }

        iterations = self.counts["svm.smo_iterations"]
        train_self = metrics["svm.train_binary.self_s"]
        kernel = LAYERS.index("svm.kernel_against")
        metrics["svm.smo_iterations"] = iterations
        metrics["svm.us_per_iteration"] = train_self * 1e6 / iterations if iterations else 0.0
        metrics["svm.kernel_rows"] = int(
            np.sum((names == kernel) & (parent_name == LAYERS.index("svm.train_binary")))
        )
        for name in ("preprocess.records", "modelsel.cells", "modelsel.cells_failed", "model_io.bytes"):
            metrics[name] = self.counts[name]

        span_module = module_of[names]
        parent_module = np.where(nested, module_of[np.maximum(parent_name, 0)], "")
        for mod in TRACED:
            outermost = (span_module == mod) & (parent_module != mod)
            metrics[f"share.{mod}"] = float(dur[outermost].sum()) / wall_s
        metrics["share.svm.train_binary.self"] = train_self / wall_s
        metrics["share.svm.decision_value"] = metrics["svm.decision_value.s"] / wall_s
        return metrics, details
