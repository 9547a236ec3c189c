"""The package's public names, and the functions the benchmark's tracer
wraps, exist, and the benchmark's own helpers run: deleting or changing one
of them fails here, not in a benchmark run. And every module-level function,
class or constant of the package, public or not, and every method or
property of its classes, is used somewhere."""

import ast
import importlib
import importlib.util
import os
import sys
from collections import Counter
from pathlib import Path

import glyphsvm
from glyphsvm import model_io, multiclass
from glyphsvm.modelsel import Dataset
from glyphsvm.synth import SynthConfig

ROOT = Path(__file__).resolve().parent.parent


def perfbench_module(name):
    """The benchmark's module `perfbench/<name>.py`, loaded from its file
    and registered, as its dataclasses need."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_functions():
    spans = perfbench_module("spans")
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


def test_benchmark_helpers_run_on_a_small_glyph_set(tmp_path):
    # the benchmark renders glyphs through `preprocess_character` and
    # `extract_features`, and compares reloaded models through `.classifiers`
    # and `svm.decision_value`
    workloads = perfbench_module("workloads")
    labels, rows = workloads.glyph_features(SynthConfig(classes=2, per_class=3, seed=5))
    assert rows.shape == (6, workloads.FEATURES.total_count)
    model = multiclass.train_one_vs_all(rows, labels, *workloads.PAGE_CELL)
    model_io.save_model(model, tmp_path / "model.gsvm")
    loaded = model_io.load_model(tmp_path / "model.gsvm")
    assert workloads.decision_mismatches(loaded, model, rows) == 0


def test_the_benchmark_page_body_reads_one_record_per_glyph(tmp_path):
    # `page_ocr` set-up, body and checks at seed 1: 2 scans of 128 glyphs
    # through `extract_features`, `predict` and the reloaded model's
    # decision values, one glyph at a time. The error rate reads 0.109, 28
    # edits in 256 glyphs, mostly glyphs that the text-line split puts out
    # of reading order.
    workloads = perfbench_module("workloads")
    page = workloads.PageOcr()
    state = page.setup(1, tmp_path)
    outcome = page.outcome(state, page.run(state))
    assert outcome.problems == []
    assert outcome.quality["records"] == 256
    assert outcome.quality["char_error_rate"] <= 0.15


def test_the_benchmark_protocol_does_not_depend_on_the_cpu_count(monkeypatch):
    # the tune workloads' grid, folds and repetitions, dealt over one
    # process and over two, give equal fingerprints
    workloads = perfbench_module("workloads")
    labels, rows = workloads.glyph_features(SynthConfig(classes=3, per_class=10, seed=5))
    data = Dataset(rows, labels)
    for strategy in ("ova", "ovo"):
        fingerprints = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            _, _, grid, report = workloads.tune(data, strategy, 1, 2, 3)
            assert len(grid.entries) == len(workloads.C_GRID) * len(workloads.GAMMA_GRID)
            fingerprints.append(workloads.tune_outcome(grid, report).fingerprint)
        assert fingerprints[0] == fingerprints[1]


def test_every_public_name_resolves():
    assert [name for name in glyphsvm.__all__ if not hasattr(glyphsvm, name)] == []


def references(node) -> Counter:
    """The names that the code under `node` refers to: `Name` ids,
    `Attribute` attrs and imported names. Text in strings is no reference."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found[n.name.rsplit(".", 1)[-1]] += 1
    return found


def references_in(paths) -> Counter:
    return sum((references(ast.parse(path.read_text())) for path in paths), Counter())


def test_no_unused_helpers():
    """A module-level function, class or constant, and a method or property
    (other than a dunder) of a package class, must be referred to in the
    code of the package or the benchmark outside its own definition and the
    re-exports of `__init__.py`, unless it is a function or class that is
    public and the benchmark's tracer wraps it. A module-level function of the test oracles must be
    referred to in a test file, or called by an oracle that is."""
    sources = sorted((ROOT / "src" / "glyphsvm").glob("*.py"))
    program = [path for path in sources if path.name != "__init__.py"]
    everywhere = references_in(program + sorted((ROOT / "perfbench").glob("*.py")))
    traced = {fn for _, fn in traced_functions()}
    unused = []
    for path in sources:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                unused += [
                    f"{path.stem}.{name.id}" for target in targets for name in ast.walk(target)
                    if isinstance(name, ast.Name) and not name.id.startswith("__")
                    and everywhere[name.id] - references(node)[name.id] < 1
                ]
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            wrapped = node.name in glyphsvm.__all__ and node.name in traced
            defs = [] if wrapped else [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{node.name}.{item.name}", item) for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                ]
            for name, definition in defs:
                short = name.split(".")[-1]
                if everywhere[short] - references(definition)[short] < 1:
                    unused.append(f"{path.stem}.{name}")
    oracles = ROOT / "tests" / "oracles.py"
    tests = references_in(sorted(oracles.parent.glob("test_*.py")))
    calls = {
        node.name: set(references(node)) for node in ast.parse(oracles.read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    used = {name for name in calls if tests[name]}
    while reached := set().union(*(calls[name] for name in used)) & calls.keys() - used:
        used |= reached
    unused += [f"oracles.{name}" for name in calls if name not in used]
    assert unused == []
