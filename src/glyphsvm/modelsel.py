"""Train/test splitting, k-fold cross-validation, grid search, and reporting."""

from __future__ import annotations

import mmap
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadKError,
    DegenerateSplitError,
    DimensionMismatchError,
    FoldDegenerateError,
    GlyphSvmError,
    InvalidConfigError,
    NonFiniteInputError,
    WorkerLostError,
)
from .multiclass import (
    STRATEGIES,
    MulticlassModel,
    ordered_classes,
    predict_batch,
    train_multiclass,
    train_multiclass_c_grid,
)
from .svm import KERNEL_PARAMS, KernelSpec, validate_c


@dataclass
class Dataset:
    """Feature vectors with class labels."""

    vectors: np.ndarray
    labels: list

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.labels = list(self.labels)
        if self.vectors.ndim != 2:
            raise InvalidConfigError("vectors must form a 2-D matrix")
        if len(self.labels) != self.vectors.shape[0] or not self.labels:
            raise InvalidConfigError("need one label per vector, at least one sample")
        if not np.isfinite(self.vectors).all():
            raise NonFiniteInputError("feature vectors must not hold nan or inf")

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    @property
    def class_ids(self) -> list:
        return ordered_classes(self.labels)

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(self.vectors[indices], [self.labels[i] for i in indices])


def split_train_test(data: Dataset, train_fraction: float, seed: int):
    """Seeded random split that ignores classes; train gets
    floor(fraction * n) samples."""
    if not 0.0 < train_fraction < 1.0:
        raise InvalidConfigError(
            f"train_fraction must be strictly between 0 and 1, got {train_fraction}"
        )
    check_seed(seed)
    n = len(data)
    perm = np.random.default_rng(seed).permutation(n)
    take = int(np.floor(train_fraction * n))
    train_idx, test_idx = perm[:take], perm[take:]
    if len(train_idx) == 0 or len(test_idx) == 0:
        raise DegenerateSplitError(
            f"split of {n} samples at {train_fraction} leaves one side empty"
        )
    return data.subset(train_idx), data.subset(test_idx)


def kfold_split(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle then near-equal partition: fold sizes differ by <= 1."""
    if k < 2 or k > n:
        raise BadKError(f"k must satisfy 2 <= k <= n, got k={k}, n={n}")
    check_seed(seed)
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(fold) for fold in np.array_split(perm, k)]


def check_seed(seed: int) -> None:
    """InvalidConfigError for a seed numpy refuses, before anything is drawn:
    one that is not an integer or is negative. The package's one seed rule."""
    if not isinstance(seed, (int, np.integer)):
        raise InvalidConfigError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise InvalidConfigError(f"seed must be >= 0, got {seed}")


def _process_count(items: int) -> int:
    """How many processes `_deal` spreads `items` over: one per usable CPU,
    at most one per item. Only the caller while other Python threads are
    alive (a forked child would hold their locks as they were), or where
    the platform cannot tell which CPUs are usable."""
    if threading.active_count() > 1 or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), items))


def _run_share(fn, share) -> tuple[list, Exception | None]:
    """`fn` of each item of `share` in order, until the first error."""
    results = []
    try:
        for item in share:
            results.append(fn(item))
    except Exception as exc:
        return results, exc
    return results, None


def _serve(fn, share, pipe: int) -> None:
    """A worker's whole life: run `share`, write the pickled results and
    first error down `pipe`, and leave without running any of the caller's
    clean-up. Whatever escapes ends it with status 1 and no result."""
    status = 1
    try:
        with os.fdopen(pipe, "wb") as out:
            out.write(pickle.dumps(_run_share(fn, share), pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _drain(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    return b"".join(chunks)


def _reap(workers: dict, pid: int) -> int:
    """Close a worker's pipe, wait for it to end and give its exit status."""
    os.close(workers.pop(pid))
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _deal(fn, items: list) -> list:
    """`[fn(item) for item in items]`, item k run by process k mod P: the
    caller and P - 1 workers forked for this call (`_process_count`).

    A worker starts from the caller's state at the call, patched module
    globals included, and shares nothing with it afterwards but memory that
    `fn` mapped shared before the call. The error of the lowest-index failing
    item is raised, and a worker that ends without a result is
    WorkerLostError. Every worker is reaped before this returns or raises,
    and killed first if the caller is failing.
    """
    count = _process_count(len(items))
    workers = {}  # pid -> read end of its pipe
    try:
        for w in range(1, count):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_end)
                _serve(fn, items[w::count], write_end)
            os.close(write_end)
            workers[pid] = read_end
        shares = [_run_share(fn, items[0::count])]
        for pid in list(workers):
            payload = _drain(workers[pid])
            status = _reap(workers, pid)
            if not payload:
                raise WorkerLostError(
                    f"a model-selection worker ended without a result (exit status {status})"
                )
            shares.append(pickle.loads(payload))
    except BaseException:
        for pid in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in list(workers):
            _reap(workers, pid)
    failures = [
        (w + len(done) * count, error)
        for w, (done, error) in enumerate(shares)
        if error is not None
    ]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(items)
    for w, (done, _) in enumerate(shares):
        results[w::count] = done
    return results


@dataclass
class _FoldedC:
    """One C's cross-validation: each fold's held-out accuracy, pair updates
    summed over the folds, and its first fold's error."""

    C: float
    accuracies: list = field(default_factory=list)
    iterations: int = 0
    error: GlyphSvmError | None = None


def _bare(error: GlyphSvmError) -> GlyphSvmError:
    """`error` without the tracebacks of its chain, whose frames would keep
    the failing fold's models alive."""
    link = error
    while link is not None:
        link.__traceback__ = None
        link = link.__cause__ or link.__context__
    return error


def _fold_results(data, fold, strategy, kernel, c_values) -> list:
    """Train the rows of `data` outside `fold` at every C of `c_values` over
    one kernel matrix and score each model on `fold`: per C, (held-out
    accuracy, pair updates) or the error its training raised (every C's, if
    raised before any model is packaged). Each model dies before the next
    one is packaged, and the fold's training state when this returns."""
    train_part = data.subset(np.delete(np.arange(len(data)), fold))
    test_part = data.subset(fold)
    try:
        if len(set(train_part.labels)) < 2:
            raise FoldDegenerateError("a fold leaves fewer than two classes on the training side")
        package = train_multiclass_c_grid(
            train_part.vectors, train_part.labels, strategy, kernel, c_values
        )
    except GlyphSvmError as exc:
        return [_bare(exc)] * len(c_values)
    outcomes = []
    for k in range(len(c_values)):
        try:
            model = package(k)
        except GlyphSvmError as exc:
            outcomes.append(_bare(exc))
            continue
        predicted = predict_batch(model, test_part.vectors)
        hits = sum(p == lb for p, lb in zip(predicted, test_part.labels))
        outcomes.append((hits / len(test_part), int(model.iterations.sum())))
        del model
    return outcomes


def _cross_validate(data, folds, specs, c_values, strategy) -> list[list[_FoldedC]]:
    """Cross-validate every (kernel, C) of `specs` x `c_values` over `folds`
    (held-out rows of `data`), one row of `_FoldedC` per kernel.

    Each (kernel, fold) unit trains its C values over one kernel matrix, and
    the units are dealt fold-major (`_deal`). A C trains no more after its
    first failing fold: every process reads and records each (kernel, C)'s
    earliest failing fold in a table mapped shared before the fork, and the
    reduction in fold order drops whatever a C trained after that fold, so
    no result depends on timing, only the wasted work does.
    """
    failed_at = np.frombuffer(mmap.mmap(-1, 8 * len(specs) * len(c_values)), dtype=np.int64)
    failed_at = failed_at.reshape(len(specs), len(c_values))
    failed_at[...] = len(folds)

    def unit(item):
        s, f = item
        alive = np.flatnonzero(failed_at[s] > f).tolist()
        outcomes = [None] * len(c_values)
        if alive:
            trained = _fold_results(
                data, folds[f], strategy, specs[s], [c_values[c] for c in alive]
            )
            for c, outcome in zip(alive, trained):
                outcomes[c] = outcome
                if isinstance(outcome, GlyphSvmError):
                    failed_at[s, c] = min(failed_at[s, c], f)
        return outcomes

    units = [(s, f) for f in range(len(folds)) for s in range(len(specs))]
    folded = [[_FoldedC(C) for C in c_values] for _ in specs]
    for (s, _), outcomes in zip(units, _deal(unit, units)):
        for entry, outcome in zip(folded[s], outcomes):
            if entry.error is not None or outcome is None:
                continue
            if isinstance(outcome, GlyphSvmError):
                entry.error = outcome
            else:
                entry.accuracies.append(outcome[0])
                entry.iterations += outcome[1]
    return folded


def cross_validate(
    data: Dataset,
    kernel: KernelSpec,
    C: float,
    strategy: str = "ova",
    k: int = 10,
    seed: int = 0,
) -> float:
    """Mean held-out accuracy over k folds.

    Feature scaling is refitted inside every fold on its training side only,
    which `train_multiclass_c_grid` does by construction, so no statistics
    leak from the held-out samples. The error of the first failing fold is
    raised.
    """
    folds = kfold_split(len(data), k, seed)
    ((cv,),) = _cross_validate(data, folds, [kernel], [C], strategy)
    if cv.error is not None:
        raise cv.error
    return float(np.mean(cv.accuracies))


DEFAULT_GAMMA_GRID = tuple(2.0 ** p for p in range(4, -11, -1))
DEFAULT_C_GRID = tuple(2.0 ** p for p in range(-2, 13))
DEFAULT_DEGREE_GRID = (2, 3, 4, 5, 6)


@dataclass
class GridEntry:
    C: float
    param: object
    accuracy: float
    error: str | None = None
    # SMO pair updates summed over the cell's folds and binary problems
    iterations: int = 0


@dataclass
class GridSearchReport:
    kernel_kind: str
    entries: list[GridEntry]
    best: GridEntry
    seed: int

    def csv_lines(self) -> list[str]:
        lines = ["C,param,accuracy"]
        for e in self.entries:
            lines.append(f"{e.C!r},{e.param!r},{e.accuracy!r}")
        return lines

    def text_lines(self) -> list[str]:
        names = KERNEL_PARAMS.get(self.kernel_kind, ())
        name = names[0] if len(names) == 1 else "param"
        lines = [f"grid search ({self.kernel_kind} kernel, seed {self.seed})"]
        for e in self.entries:
            tag = f"  [{e.error}]" if e.error else ""
            lines.append(f"C={e.C:<12g} {name}={e.param!r:<12} accuracy={e.accuracy:.4f}{tag}")
        lines.append(
            f"best: C={self.best.C:g} {name}={self.best.param!r} "
            f"accuracy={self.best.accuracy:.4f}"
        )
        return lines


def default_param_grid(kernel_kind: str):
    if kernel_kind == "rbf":
        return list(DEFAULT_GAMMA_GRID)
    if kernel_kind == "poly":
        return list(DEFAULT_DEGREE_GRID)
    if kernel_kind == "linear":
        return [None]
    if kernel_kind == "sigmoid":
        raise InvalidConfigError(
            "sigmoid has no default parameter grid; pass (slope, offset) pairs"
        )
    raise InvalidConfigError(f"unknown kernel kind {kernel_kind!r}")


def grid_search(
    data: Dataset,
    kernel_kind: str,
    c_grid=None,
    param_grid=None,
    strategy: str = "ova",
    k: int = 10,
    seed: int = 0,
) -> GridSearchReport:
    """Cross-validated accuracy over the Cartesian (C, param) grid.

    Scan order is C ascending, then gamma descending / degree ascending; the
    reported best is the first entry attaining the maximum accuracy. A cell
    whose evaluation raises is recorded with accuracy 0 and its error tag
    rather than aborting the sweep; an unknown strategy or kernel kind, a C
    that is not a positive finite number, a kernel parameter of the wrong
    form, or a fold count that fits no sweep raises before any cell runs.
    """
    c_values = sorted(validate_c(c_grid if c_grid is not None else DEFAULT_C_GRID))
    params = default_param_grid(kernel_kind) if param_grid is None else list(param_grid)
    if not c_values or not params:
        raise InvalidConfigError("grids must be nonempty")
    if strategy not in STRATEGIES:
        raise InvalidConfigError(f"unknown strategy {strategy!r}")
    folds = kfold_split(len(data), k, seed)
    specs = [KernelSpec.from_param(kernel_kind, param) for param in params]
    if kernel_kind == "rbf":
        specs.sort(key=lambda spec: spec.gamma, reverse=True)
        params = [spec.gamma for spec in specs]
    elif kernel_kind == "poly":
        specs.sort(key=lambda spec: spec.degree)
        params = [spec.degree for spec in specs]

    # one kernel matrix per (param, fold) serves every C of the grid
    columns = _cross_validate(data, folds, specs, c_values, strategy)
    cells = {}
    for p, (param, column) in enumerate(zip(params, columns)):
        for c, cv in enumerate(column):
            if cv.error is None:
                accuracy = float(np.mean(cv.accuracies))
                cells[c, p] = GridEntry(cv.C, param, accuracy, iterations=cv.iterations)
            else:
                cells[c, p] = GridEntry(cv.C, param, 0.0, error=cv.error.category)
    entries = [cells[c, p] for c in range(len(c_values)) for p in range(len(params))]
    best = max(entries, key=lambda e: e.accuracy)  # the first of equals
    return GridSearchReport(kernel_kind=kernel_kind, entries=entries, best=best, seed=seed)


@dataclass
class PerClassError:
    class_id: object
    test_count: int
    error_count: int
    error_rate: float


@dataclass
class EvalReport:
    """A confusion matrix, rows (true) and columns (predicted) in `class_ids`
    order, with the accuracy and per-class error rates read from it, and the
    accuracy of each repetition when the protocol repeats."""

    class_ids: list
    confusion: np.ndarray
    iterations: list[float] | None = None

    @property
    def overall_accuracy(self) -> float:
        return int(np.trace(self.confusion)) / int(self.confusion.sum())

    @property
    def per_class(self) -> list[PerClassError]:
        """Each class's errors over its own test count (0.0 without any)."""
        rows = []
        for i, cls in enumerate(self.class_ids):
            count = int(self.confusion[i].sum())
            errors = count - int(self.confusion[i, i])
            rows.append(PerClassError(cls, count, errors, errors / count if count else 0.0))
        return rows

    @property
    def mean_iteration_accuracy(self) -> float:
        accs = self.iterations if self.iterations else [self.overall_accuracy]
        return float(np.mean(accs))

    def iteration_table(self, row_label: str) -> str:
        accs = self.iterations if self.iterations else [self.overall_accuracy]
        header = ["Configuration"] + [f"Iteration {i+1}" for i in range(len(accs))]
        header.append("Average (%)")
        cells = [row_label] + [f"{a * 100:.4f}" for a in accs]
        cells.append(f"{float(np.mean(accs)) * 100:.2f}")
        w = [max(len(h), len(c)) for h, c in zip(header, cells)]
        line1 = "  ".join(h.ljust(width) for h, width in zip(header, w))
        line2 = "  ".join(c.ljust(width) for c, width in zip(cells, w))
        return line1 + "\n" + line2

    def error_table(self) -> str:
        lines = ["Class       Test  Errors  Error rate"]
        for row in self.per_class:
            lines.append(
                f"{str(row.class_id):<10}  {row.test_count:>4}  {row.error_count:>6}"
                f"  {row.error_rate:.4f}"
            )
        return "\n".join(lines)


def evaluate(model: MulticlassModel, test: Dataset) -> EvalReport:
    """Score a model on a labeled test set: the confusion matrix of its
    predictions, from which the report reads accuracy and per-class error
    rates (each over that class's test count)."""
    if test.dimension != model.scaling.dimension:
        raise DimensionMismatchError(
            f"model expects dimension {model.scaling.dimension}, test has {test.dimension}"
        )
    classes = ordered_classes(set(model.class_ids) | set(test.labels))
    return EvalReport(classes, _confusion(classes, test.labels, predict_batch(model, test.vectors)))


def _confusion(classes, truth, predicted) -> np.ndarray:
    """Counts of (true, predicted) class pairs, rows and columns in `classes` order."""
    index = {cls: i for i, cls in enumerate(classes)}
    confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
    np.add.at(confusion, ([index[lb] for lb in truth], [index[p] for p in predicted]), 1)
    return confusion


def repeat_evaluate(
    data: Dataset,
    kernel: KernelSpec,
    C: float,
    strategy: str = "ova",
    train_fraction: float = 0.8,
    repetitions: int = 5,
    seed: int = 0,
) -> EvalReport:
    """Repeat split -> train -> evaluate and pool the results.

    Each repetition draws its own split seed, derived deterministically from
    `seed`. The report lists per-iteration accuracies; overall accuracy and
    the confusion matrix pool every repetition's test predictions.
    """
    if repetitions < 1:
        raise InvalidConfigError(f"repetitions must be >= 1, got {repetitions}")
    check_seed(seed)

    def repetition(rep_seed):
        train_part, test_part = split_train_test(data, train_fraction, rep_seed)
        model = train_multiclass(train_part.vectors, train_part.labels, strategy, kernel, C)
        return model.class_ids, test_part.labels, predict_batch(model, test_part.vectors)

    rep_seeds = np.random.SeedSequence(seed).generate_state(repetitions).tolist()
    classes, truth, predicted, iteration_acc = set(), [], [], []
    for class_ids, labels, guess in _deal(repetition, rep_seeds):
        iteration_acc.append(sum(p == lb for p, lb in zip(guess, labels)) / len(guess))
        classes.update(class_ids, labels)
        truth.extend(labels)
        predicted.extend(guess)
    classes = ordered_classes(classes)
    return EvalReport(classes, _confusion(classes, truth, predicted), iterations=iteration_acc)
