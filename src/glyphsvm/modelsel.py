"""Train/test splitting, k-fold cross-validation, grid search, and reporting."""

from __future__ import annotations

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
)
from .multiclass import (
    STRATEGIES,
    MulticlassModel,
    ordered_classes,
    predict_batch,
    train_multiclass,
    train_multiclass_c_grid,
)
from .svm import KERNEL_PARAMS, KernelSpec


@dataclass
class Dataset:
    """Feature vectors with class labels."""

    vectors: np.ndarray
    labels: list

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.labels = list(self.labels)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must form a 2-D matrix")
        if len(self.labels) != self.vectors.shape[0] or not self.labels:
            raise ValueError("need one label per vector, at least one sample")
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


def split_train_test(
    data: Dataset, train_fraction: float, seed: int, stratified: bool = False
):
    """Seeded random split; train gets floor(fraction * n) samples.

    The plain split ignores classes; `stratified` applies the fraction
    within each class instead.
    """
    if not 0.0 < train_fraction < 1.0:
        raise InvalidConfigError(
            f"train_fraction must be strictly between 0 and 1, got {train_fraction}"
        )
    n = len(data)
    rng = np.random.default_rng(seed)
    if stratified:
        train_idx: list[int] = []
        test_idx: list[int] = []
        for cls in data.class_ids:
            members = np.array([i for i, lb in enumerate(data.labels) if lb == cls])
            members = members[rng.permutation(len(members))]
            take = int(np.floor(train_fraction * len(members)))
            train_idx.extend(members[:take].tolist())
            test_idx.extend(members[take:].tolist())
        train_idx = np.array(train_idx, dtype=np.int64)
        test_idx = np.array(test_idx, dtype=np.int64)
    else:
        perm = rng.permutation(n)
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
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(fold) for fold in np.array_split(perm, k)]


def accuracy_of(model: MulticlassModel, data: Dataset) -> float:
    predicted = predict_batch(model, data.vectors)
    return sum(p == lb for p, lb in zip(predicted, data.labels)) / len(data)


def _fold_parts(data: Dataset, k: int, seed: int):
    """(training side, held-out side) of each of the k seeded folds, in order."""
    all_idx = np.arange(len(data))
    for fold in kfold_split(len(data), k, seed):
        held = np.zeros(len(data), dtype=bool)
        held[fold] = True
        yield data.subset(all_idx[~held]), data.subset(all_idx[held])


def _fold_results(train_part, test_part, strategy, kernel, c_values, tol, max_iter) -> list:
    """Train on one fold's training side at every C of `c_values` over one
    kernel matrix and score each model on the held-out side.

    Gives, per C, (accuracy, SMO pair updates, scaling record) or the
    GlyphSvmError its training raised. Each C's model is dropped before the
    next one is packaged.
    """
    if len(set(train_part.labels)) < 2:
        raise FoldDegenerateError("a fold leaves fewer than two classes on the training side")
    package = train_multiclass_c_grid(
        train_part.vectors, train_part.labels, strategy, kernel, c_values, tol, max_iter
    )
    results = []
    for k in range(len(c_values)):
        try:
            model = package(k)
        except GlyphSvmError as exc:
            results.append(exc)
            continue
        iterations = sum(clf.meta.iterations for clf in model.classifiers)
        results.append((accuracy_of(model, test_part), iterations, model.scaling))
        del model
    return results


def cross_validate(
    data: Dataset,
    kernel: KernelSpec,
    C: float,
    strategy: str = "ova",
    k: int = 10,
    seed: int = 0,
    tol: float = 1e-3,
    max_iter: int = 1_000_000,
    return_details: bool = False,
):
    """Mean held-out accuracy over k folds.

    Feature scaling is refitted inside every fold on its training side only,
    which `train_multiclass_c_grid` does by construction, so no statistics
    leak from the held-out samples. With `return_details` the per-fold
    accuracies and scaling records are returned alongside the mean.
    """
    fold_acc = []
    fold_scaling = []
    for train_part, test_part in _fold_parts(data, k, seed):
        (result,) = _fold_results(train_part, test_part, strategy, kernel, [C], tol, max_iter)
        if isinstance(result, GlyphSvmError):
            raise result
        accuracy, _, scaling = result
        fold_acc.append(accuracy)
        fold_scaling.append(scaling)
    mean = float(np.mean(fold_acc))
    if return_details:
        return mean, fold_acc, fold_scaling
    return mean


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
    tol: float = 1e-3,
    max_iter: int = 1_000_000,
) -> GridSearchReport:
    """Cross-validated accuracy over the Cartesian (C, param) grid.

    Scan order is C ascending, then gamma descending / degree ascending; the
    reported best is the first entry attaining the maximum accuracy. A cell
    whose evaluation raises is recorded with accuracy 0 and its error tag
    rather than aborting the sweep; an unknown strategy or kernel kind, a C
    that is not positive, a kernel parameter of the wrong form, or a fold
    count that fits no sweep raises before any cell runs.
    """
    c_values = sorted(float(c) for c in (c_grid if c_grid is not None else DEFAULT_C_GRID))
    params = default_param_grid(kernel_kind) if param_grid is None else list(param_grid)
    if not c_values or not params:
        raise InvalidConfigError("grids must be nonempty")
    if not all(C > 0 for C in c_values):
        raise InvalidConfigError("C must be positive")
    if strategy not in STRATEGIES:
        raise InvalidConfigError(f"unknown strategy {strategy!r}")
    kfold_split(len(data), k, seed)
    specs = [KernelSpec.from_param(kernel_kind, param) for param in params]
    if kernel_kind == "rbf":
        specs.sort(key=lambda spec: spec.gamma, reverse=True)
        params = [spec.gamma for spec in specs]
    elif kernel_kind == "poly":
        specs.sort(key=lambda spec: spec.degree)
        params = [spec.degree for spec in specs]

    # one kernel matrix per (param, fold) serves every C of the grid; a cell
    # stops training at its first failing fold and keeps that fold's error
    cells = {}
    for p, (param, spec) in enumerate(zip(params, specs)):
        fold_acc = [[] for _ in c_values]
        iterations = [0] * len(c_values)
        errors: list[str | None] = [None] * len(c_values)
        for train_part, test_part in _fold_parts(data, k, seed):
            alive = [c for c, error in enumerate(errors) if error is None]
            if not alive:
                break
            try:
                results = _fold_results(
                    train_part, test_part, strategy, spec,
                    [c_values[c] for c in alive], tol, max_iter,
                )
            except GlyphSvmError as exc:
                results = [exc] * len(alive)
            for c, result in zip(alive, results):
                if isinstance(result, GlyphSvmError):
                    errors[c] = result.category
                else:
                    fold_acc[c].append(result[0])
                    iterations[c] += result[1]
        for c, C in enumerate(c_values):
            if errors[c] is None:
                cells[c, p] = GridEntry(
                    C=C, param=param, accuracy=float(np.mean(fold_acc[c])),
                    iterations=iterations[c],
                )
            else:
                cells[c, p] = GridEntry(C=C, param=param, accuracy=0.0, error=errors[c])
    entries = [cells[c, p] for c in range(len(c_values)) for p in range(len(params))]
    best = entries[0]
    for e in entries[1:]:
        if e.accuracy > best.accuracy:
            best = e
    return GridSearchReport(kernel_kind=kernel_kind, entries=entries, best=best, seed=seed)


@dataclass
class PerClassError:
    class_id: object
    test_count: int
    error_count: int
    error_rate: float


@dataclass
class EvalReport:
    """Accuracy, per-class error rates, and the confusion matrix."""

    overall_accuracy: float
    class_ids: list
    per_class: list[PerClassError]
    confusion: np.ndarray
    iterations: list[float] | None = None

    @property
    def mean_iteration_accuracy(self) -> float:
        accs = self.iterations if self.iterations else [self.overall_accuracy]
        return float(np.mean(accs))

    def check_consistency(self) -> None:
        total = int(self.confusion.sum())
        correct = int(np.trace(self.confusion))
        if total == 0:
            raise ValueError("empty confusion matrix")
        if abs(self.overall_accuracy - correct / total) > 1e-12:
            raise ValueError("overall accuracy disagrees with the confusion matrix")
        for idx, row in enumerate(self.per_class):
            if self.confusion[idx].sum() != row.test_count:
                raise ValueError("confusion row sum disagrees with per-class count")

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
    """Score a model on a labeled test set.

    Per-class error rate divides by that class's test count; the confusion
    matrix is also included so other denominators stay recomputable.
    """
    if test.dimension != model.scaling.dimension:
        raise DimensionMismatchError(
            f"model expects dimension {model.scaling.dimension}, test has {test.dimension}"
        )
    classes = ordered_classes(set(model.class_ids) | set(test.labels))
    return _report_from_confusion(
        _confusion(classes, test.labels, predict_batch(model, test.vectors)), classes
    )


def _confusion(classes, truth, predicted) -> np.ndarray:
    """Counts of (true, predicted) class pairs, rows and columns in `classes` order."""
    index = {cls: i for i, cls in enumerate(classes)}
    confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
    np.add.at(confusion, ([index[lb] for lb in truth], [index[p] for p in predicted]), 1)
    return confusion


def _report_from_confusion(confusion, classes, iterations=None) -> EvalReport:
    total = int(confusion.sum())
    correct = int(np.trace(confusion))
    per_class = []
    for i, cls in enumerate(classes):
        count = int(confusion[i].sum())
        errors = count - int(confusion[i, i])
        rate = errors / count if count else 0.0
        per_class.append(
            PerClassError(class_id=cls, test_count=count, error_count=errors, error_rate=rate)
        )
    report = EvalReport(
        overall_accuracy=correct / total,
        class_ids=list(classes),
        per_class=per_class,
        confusion=confusion,
        iterations=iterations,
    )
    report.check_consistency()
    return report


def repeat_evaluate(
    data: Dataset,
    kernel: KernelSpec,
    C: float,
    strategy: str = "ova",
    train_fraction: float = 0.8,
    repetitions: int = 5,
    seed: int = 0,
    seeds=None,
    stratified: bool = False,
    tol: float = 1e-3,
    max_iter: int = 1_000_000,
) -> EvalReport:
    """Repeat split -> train -> evaluate and pool the results.

    Each repetition draws its own split seed (explicit `seeds` list, or
    derived deterministically from `seed`). The report lists per-iteration
    accuracies; overall accuracy and the confusion matrix pool every
    repetition's test predictions.
    """
    if repetitions < 1:
        raise InvalidConfigError(f"repetitions must be >= 1, got {repetitions}")
    if seeds is None:
        seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(repetitions)]
    elif len(seeds) != repetitions:
        raise InvalidConfigError(
            f"need exactly one seed per repetition, got {len(seeds)} for {repetitions}"
        )

    classes, truth, predicted, iteration_acc = set(), [], [], []
    for rep_seed in seeds:
        train_part, test_part = split_train_test(
            data, train_fraction, rep_seed, stratified=stratified
        )
        model = train_multiclass(
            train_part.vectors, train_part.labels, strategy, kernel, C, tol, max_iter
        )
        guess = predict_batch(model, test_part.vectors)
        iteration_acc.append(sum(p == lb for p, lb in zip(guess, test_part.labels)) / len(guess))
        classes.update(model.class_ids, test_part.labels)
        truth.extend(test_part.labels)
        predicted.extend(guess)
    classes = ordered_classes(classes)
    return _report_from_confusion(
        _confusion(classes, truth, predicted), classes, iterations=iteration_acc
    )
