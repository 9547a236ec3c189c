"""Seeded benchmark of glyphsvm.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tune_ova --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One workload runs in this process. It sets up its inputs SETUP_REPS times
from the seed and reports the median set-up time, then repeats the timed
body until `--seconds` have passed (at least once) and reports the median
body time. Both are wall times scaled to the machine's speed measured while
they ran (see speed.py); the report holds the wall times themselves. With
`--trace 1` it runs the body once untraced and once traced and reports
per-layer metrics instead (see spans.py).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The line before it is the
full report: machine facts, quality numbers, exact counters, checks and the
per-call detail of every traced layer.

`--workload all` runs every workload in its own process, untraced once and
traced twice, prints every metric by name with its unit, and exits non-zero
if an output check fails or an exact counter differs between the two traced
runs.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"

# The held-out seed, used to confirm results but never to tune, is 7919.
DEFAULT_SEED = 1
SETUP_REPS = 3
# One BLAS thread: the machine has 2 cores and is shared, and one thread keeps
# both the timings and the floating-point results independent of load.
BLAS_THREADS = 1
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("chars_per_s", "1/s", "higher"),
)
# Counters that must repeat exactly at a fixed seed.
EXACT = (
    "svm.smo_iterations",
    "svm.decision_value.calls",
    "preprocess.label_components.calls",
    "preprocess.records",
)


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def openblas_threads():
    """Thread count OpenBLAS reports, or None if no OpenBLAS is loaded."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}",
        "blas_threads": openblas_threads(),
        "blas_threads_requested": BLAS_THREADS,
    }


def with_units(values: dict, spec) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up and run one workload; return (result line, report)."""
    import spans
    import workloads
    from speed import SpeedProbe

    workload = workloads.WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        setup_tracer = spans.Tracer()
        setups, digests = [], []
        for rep in range(1 if trace else SETUP_REPS):
            target = workdir / f"setup{rep}"
            target.mkdir()
            probe = SpeedProbe()
            with setup_tracer.installed() if trace else probe:
                state = workload.setup(seed, target)
            if not trace:
                setups.append(probe)
            digests.append(workloads.tree_digest(target))

        rounds, outcomes = [], []
        deadline = perf_counter() + seconds
        while not rounds or (not trace and perf_counter() < deadline):
            with SpeedProbe() as probe:
                result = workload.run(state)
            rounds.append(probe)
            outcomes.append(workload.outcome(state, result))
        run_s = statistics.median(p.normalized_s for p in rounds)

        if trace:
            tracer = spans.Tracer()
            with tracer.installed():
                t0 = perf_counter()
                result = workload.run(state)
                traced_s = perf_counter() - t0
            outcomes.append(workload.outcome(state, result))
            metrics, details = tracer.layer_metrics(traced_s)
            setup_totals = setup_tracer.layer_totals()
            for layer in spans.SETUP_LAYERS:
                metrics[f"setup.{layer}.s"] = setup_totals[layer]
            metrics["trace.overhead_s"] = traced_s - rounds[0].wall_s
            spans_file = ROOT / ".bench_out" / f"spans-{name}-seed{seed}.npz"
            spans_file.parent.mkdir(exist_ok=True)
            tracer.save(spans_file)
            spec = spans.per_layer_spec()
        else:
            metrics = {
                "setup_s": statistics.median(p.normalized_s for p in setups),
                "run_s": run_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "chars_per_s": workload.glyphs / run_s,
            }
            spec = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = outcomes[0]
    problems = [p for out in outcomes for p in out.problems]
    if any(out.fingerprint != first.fingerprint for out in outcomes[1:]):
        problems.append("outputs differ between rounds of the body at one seed")
    if len(set(digests)) > 1:
        problems.append("set-up produced different inputs from one seed")
    attempted = sum(out.attempted for out in outcomes)
    failed = sum(out.failed for out in outcomes)
    report = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "machine": machine_facts(),
        "setup_s_each": [p.normalized_s for p in setups],
        "setup_wall_s_each": [p.wall_s for p in setups],
        "run_s_each": [p.normalized_s for p in rounds],
        "run_wall_s_each": [p.wall_s for p in rounds],
        "reference_job_ms": [1e3 * statistics.median(p.jobs) for p in rounds if p.jobs],
        "quality": first.quality,
        "fingerprint": first.fingerprint,
        "problems": problems,
    }
    if trace:
        report["exact"] = {key: metrics[key] for key in EXACT}
        report["untraced_run_s"] = rounds[0].wall_s
        report["traced_run_s"] = traced_s
        report["largest_self_layer"] = max(details, key=lambda k: details[k]["self_s"])
        report["layers"] = details
        report["spans_file"] = str(spans_file.relative_to(ROOT))
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": with_units(metrics, spec),
    }
    return line, report


def run_child(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict] | None:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def run_all(names, seed: int, seconds: float) -> int:
    """Every workload untraced once and traced twice, each in its own process."""
    ok = True
    for name in names:
        print(f"== {name} (seed {seed})", flush=True)
        runs = [run_child(name, seed, seconds, trace) for trace in (0, 1, 1)]
        if any(r is None for r in runs):
            print("  FAILED: a run exited with an error")
            ok = False
            continue
        for (line, report), label in zip(runs, ("untraced", "traced #1", "traced #2")):
            print(f"  {label}: correct={line['correct']} attempted={line['attempted']} "
                  f"failed={line['failed']} quality={json.dumps(report['quality'])}")
            for problem in report["problems"]:
                print(f"    check failed: {problem}")
            ok &= line["correct"]
        for metric, m in runs[0][0]["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
        (_, first), (_, second) = runs[1], runs[2]
        print(f"  exact counters: {json.dumps(first['exact'])}")
        if first["exact"] != second["exact"] or first["fingerprint"] != second["fingerprint"]:
            print(f"  FAILED: exact counters or outputs differ between traced runs: "
                  f"{json.dumps(second['exact'])}")
            ok = False
        traced = runs[1][0]["metrics"]
        print(f"  trace overhead {traced['trace.overhead_s']['value']:.3f} s, "
              f"largest self time: {first['largest_self_layer']}")
        for metric in ("share.preprocess", "share.svm", "share.svm.train_binary.self",
                       "share.svm.decision_value"):
            print(f"  {metric} = {traced[metric]['value']:.3f}")
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "glyphsvm" / "__init__.py").is_file():
        return fail(f"no glyphsvm sources under {SRC}; run from the root of a checkout")
    try:
        spec = json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read {SPEC.name}: {exc}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(names, args.seed, args.seconds)
    if args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")

    # numpy reads the BLAS thread count when it loads, so set it first
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import spans

    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"] + spec["per_layer"]]
    if declared != list(END_TO_END) + spans.per_layer_spec():
        return fail(f"{SPEC.name} does not list the metrics this benchmark reports")

    line, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
