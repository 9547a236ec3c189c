"""The package's public names, and the functions the benchmark's tracer
wraps, exist: deleting one of them fails here, not in a benchmark run. And
every module-level function or class of the package, and every method or
property of its classes, is used somewhere."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import glyphsvm

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


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


def test_no_unused_helpers():
    """A module-level function or class that is not public, and a method or
    property (other than a dunder) of a package class, must be named
    somewhere in the package or the benchmark besides its own definition.
    A module-level function of the test oracles must be named in a test
    file, or called by an oracle that is."""
    sources = sorted((ROOT / "src" / "glyphsvm").glob("*.py"))
    text = "\n".join(p.read_text() for p in sources + sorted((ROOT / "perfbench").glob("*.py")))
    unused = []
    for path in sources:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            names = [] if node.name in glyphsvm.__all__ else [node.name]
            if isinstance(node, ast.ClassDef):
                names += [
                    f"{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                ]
            for name in names:
                if len(re.findall(rf"\b{name.split('.')[-1]}\b", text)) < 2:
                    unused.append(f"{path.stem}.{name}")
    oracles = ROOT / "tests" / "oracles.py"
    tests = "\n".join(p.read_text() for p in sorted(oracles.parent.glob("test_*.py")))
    calls = {
        node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        for node in ast.parse(oracles.read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    used = {name for name in calls if re.search(rf"\b{name}\b", tests)}
    while reached := set().union(*(calls[name] for name in used)) & calls.keys() - used:
        used |= reached
    unused += [f"oracles.{name}" for name in calls if name not in used]
    assert unused == []
