"""The package's public names, and the functions the benchmark's tracer
wraps, exist: deleting one of them fails here, not in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import glyphsvm

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_functions():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(mod, fn) for mod, fns in spans.TRACED.items() for fn in fns]


def test_every_traced_function_exists():
    traced = traced_functions()
    assert traced
    missing = [
        f"{mod}.{fn}"
        for mod, fn in traced
        if not callable(getattr(importlib.import_module(f"glyphsvm.{mod}"), fn, None))
    ]
    assert missing == []


def test_every_public_name_resolves():
    assert [name for name in glyphsvm.__all__ if not hasattr(glyphsvm, name)] == []
