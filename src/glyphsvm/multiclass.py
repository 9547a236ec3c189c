"""One-vs-all and one-vs-one reductions over the binary SVM."""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidConfigError,
    NoConvergenceError,
    NonFiniteInputError,
    SingleClassError,
)
from .svm import (
    BinaryModel,
    KernelSpec,
    block_error,
    block_support,
    gram_matrix,
    kernel_against,
    solve_smo,
    validate_c,
)


STRATEGIES = ("ova", "ovo")


def class_sort_key(label):
    """Integer labels first, in numeric order, then the rest in text order;
    ties ("1" and "01", 1 and "1") go by text, then type name."""
    try:
        return (0, int(label), str(label), type(label).__name__)
    except (TypeError, ValueError):
        return (1, 0, str(label), type(label).__name__)


def ordered_classes(labels) -> list:
    return sorted(set(labels), key=class_sort_key)


def class_pairs(class_count: int) -> list[tuple[int, int]]:
    """One-vs-one's class pairs (i, j), i < j, in classifier order."""
    return list(itertools.combinations(range(class_count), 2))


@dataclass(frozen=True)
class MinMaxScaling:
    """Per-dimension min-max record fitted on training data only.

    Constant dimensions map to 0 so unseen offsets cannot blow up the RBF
    distances.
    """

    mins: np.ndarray
    maxs: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "MinMaxScaling":
        X = np.asarray(X, dtype=np.float64)
        return cls(mins=X.min(axis=0), maxs=X.max(axis=0))

    @property
    def dimension(self) -> int:
        return self.mins.shape[0]

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-1] != self.dimension:
            raise DimensionMismatchError(
                f"scaling expects dimension {self.dimension}, got {X.shape[-1]}"
            )
        if not np.isfinite(X).all():
            raise NonFiniteInputError("feature vectors must not hold nan or inf")
        span = self.maxs - self.mins
        safe = np.where(span > 0, span, 1.0)
        scaled = (X - self.mins) / safe
        return np.where(span > 0, scaled, 0.0)


@dataclass
class MulticlassModel:
    """The binary classifiers of a one-vs-all or one-vs-one reduction over
    one table of support vectors.

    Every classifier shares `kernel` and reads its support vectors from the
    rows of `support_vectors`, each row stored once: column p of `coeffs`
    holds classifier p's alpha_i * y_i at its own support vectors and 0 at
    every other row. `biases`, `C`, `iterations` and `kkt_violations` hold
    one value per classifier, in classifier order.
    """

    strategy: str
    class_ids: list
    kernel: KernelSpec
    support_vectors: np.ndarray
    coeffs: np.ndarray
    biases: np.ndarray
    C: np.ndarray
    iterations: np.ndarray
    kkt_violations: np.ndarray
    scaling: MinMaxScaling

    @classmethod
    def from_entries(
        cls, strategy: str, class_ids: list, kernel: KernelSpec, rows: np.ndarray,
        entries: tuple, biases, C, iterations, kkt_violations, scaling: MinMaxScaling,
    ) -> "MulticlassModel":
        """The validated model of the coefficient `entries`, three arrays
        (candidate row, classifier, coefficient) over the candidate `rows`, and
        one bias, C, iteration count and KKT violation per classifier. The
        support-vector table keeps the rows some entry names, once, in order."""
        row, classifier, values = entries
        used = np.zeros(len(rows), dtype=bool)
        used[row] = True
        position = np.cumsum(used) - 1  # a table row's index, by candidate row
        coeffs = np.zeros((np.count_nonzero(used), len(biases)))
        coeffs[position[row], classifier] = values
        model = cls(
            strategy, class_ids, kernel, rows[used], coeffs, np.array(biases), np.array(C),
            np.array(iterations, dtype=np.int64), np.array(kkt_violations), scaling,
        )
        model.validate()
        return model

    @property
    def pairs(self) -> list[tuple[int, int]] | None:
        """`class_pairs` of a one-vs-one model, None for one-vs-all."""
        return None if self.strategy == "ova" else class_pairs(len(self.class_ids))

    @property
    def classifiers(self) -> list[BinaryModel]:
        """Each classifier as a BinaryModel of its own support vectors, in
        table order, derived from the table on every access."""
        return [
            BinaryModel(
                kernel=self.kernel,
                support_vectors=self.support_vectors[col != 0],
                dual_coeffs=col[col != 0],
                bias=float(bias),
            )
            for col, bias in zip(self.coeffs.T, self.biases)
        ]

    def validate(self) -> None:
        n = len(self.class_ids)
        if n < 2:
            raise SingleClassError("multiclass model needs at least two classes")
        expected = n if self.strategy == "ova" else n * (n - 1) // 2
        rows, count = self.coeffs.shape
        if count != expected:
            raise InvalidConfigError(
                f"{self.strategy} with {n} classes needs {expected} classifiers, got {count}"
            )
        per_classifier = (self.biases, self.C, self.iterations, self.kkt_violations)
        if self.support_vectors.shape != (rows, self.scaling.dimension) or any(
            a.shape != (count,) for a in per_classifier
        ):
            raise DimensionMismatchError(
                f"{rows} coefficient rows and {count} classifiers disagree with the "
                f"support-vector table {self.support_vectors.shape} or a per-classifier array"
            )


def train_multiclass(
    data_vectors, data_labels, strategy: str, kernel: KernelSpec, C: float
) -> MulticlassModel:
    """Train every binary problem of a one-vs-all ("ova") or one-vs-one
    ("ovo") reduction over one kernel matrix of the scaled samples: a
    one-C call of `train_multiclass_c_grid`."""
    return train_multiclass_c_grid(data_vectors, data_labels, strategy, kernel, [C])(0)


def train_multiclass_c_grid(
    data_vectors, data_labels, strategy: str, kernel: KernelSpec, c_values
) -> Callable[[int], MulticlassModel]:
    """Train the reduction at every C of `c_values` over one kernel matrix.

    Feature scaling is fitted on the full training set and shared by every
    binary problem (and recorded in the model for prediction time). Every
    problem of the reduction at every C is one lockstep `solve_smo` block on
    that matrix: one-vs-all's classes x `c_values` over all of its rows, and
    one-vs-one's class pairs x `c_values` each over its two classes' rows,
    read from the matrix through `members` rather than copied out. Each
    problem stops by the solver's rule, `svm.DEFAULT_TOL` and
    `svm.DEFAULT_MAX_ITER`.

    A C that is not a positive finite number is InvalidConfigError before
    the matrix is built. The result is a function of k that packages the
    model of the k-th C, or raises the GlyphSvmError of its first failing
    problem (in class order). The model's support-vector table is the union
    of its problems' support vectors as training rows, each row once, in
    row order. A caller that drops each model before asking for the next
    holds one at a time.
    """
    if strategy not in STRATEGIES:
        raise InvalidConfigError(f"unknown strategy {strategy!r}")
    X = np.asarray(data_vectors, dtype=np.float64)
    labels = list(data_labels)
    if X.ndim != 2 or X.shape[0] != len(labels):
        raise DimensionMismatchError("vectors and labels disagree in length")
    classes = ordered_classes(labels)
    if len(classes) < 2:
        raise SingleClassError("need at least two classes")
    c_values = validate_c(c_values)
    scaling = MinMaxScaling.fit(X)
    Xs = scaling.transform(X)
    gram = gram_matrix(kernel, Xs)
    index = {cls: k for k, cls in enumerate(classes)}
    class_idx = np.array([index[lb] for lb in labels])
    if strategy == "ova":
        keys = [(c, None) for c in range(len(classes))]
        rows = np.broadcast_to(np.arange(len(X)), (len(keys), len(X)))  # all, every problem
        members = None
        Y = np.where(class_idx == np.arange(len(classes))[:, None], 1.0, -1.0)
    else:
        keys = class_pairs(len(classes))
        first, second = np.array(keys).T
        # each pair's rows of the matrix, padded with label 0 to the longest pair
        problem, row = np.nonzero((class_idx == first[:, None]) | (class_idx == second[:, None]))
        slot = np.arange(len(row)) - np.searchsorted(problem, problem)  # a row's place in its pair
        rows = np.zeros((len(keys), slot.max() + 1), dtype=np.intp)
        rows[problem, slot] = row
        Y = np.zeros(rows.shape)
        Y[problem, slot] = np.where(class_idx[row] == first[problem], 1.0, -1.0)
        members = np.repeat(rows, len(c_values), axis=0)
    # one block: every problem at every C, problem-major
    block = solve_smo(gram, np.repeat(Y, len(c_values), axis=0), c_values * len(keys), members)
    support, biases, failed = block_support(block)
    coeffs = block.alpha * block.Y

    def package(k: int) -> MulticlassModel:
        # problem p of this C is row p * len(c_values) + k of the block
        at_c = slice(k, None, len(c_values))
        failing = np.flatnonzero(failed[at_c])
        if len(failing):
            exc = block_error(block, failing[0] * len(c_values) + k)
            if isinstance(exc, NoConvergenceError):
                i, j = keys[failing[0]]
                context = classes[i] if j is None else (classes[i], classes[j])
                what = f"class {context!r} vs rest" if j is None else f"class pair {context!r}"
                raise NoConvergenceError(
                    f"{what}: {exc}",
                    iterations=exc.iterations,
                    violation=exc.violation,
                    context=context,
                ) from exc
            raise exc
        problem, slot = np.nonzero(support[at_c])  # never padding, whose alpha stays 0
        entries = (rows[problem, slot], problem, coeffs[at_c][problem, slot])
        return MulticlassModel.from_entries(
            strategy, classes, kernel, Xs, entries, biases[at_c], block.C[at_c],
            block.iterations[at_c], np.maximum(block.violation[at_c], 0.0), scaling,
        )

    return package


def train_one_vs_all(data_vectors, data_labels, kernel: KernelSpec, C: float) -> MulticlassModel:
    """One binary model per class: +1 for the class, -1 for the rest."""
    return train_multiclass(data_vectors, data_labels, "ova", kernel, C)


def train_one_vs_one(data_vectors, data_labels, kernel: KernelSpec, C: float) -> MulticlassModel:
    """One binary model per unordered class pair (i, j), i < j, +1 = class i."""
    return train_multiclass(data_vectors, data_labels, "ovo", kernel, C)


def decision_matrix(model: MulticlassModel, X) -> np.ndarray:
    """Decision values of every classifier at every row of the 2-D X, shape
    (rows, classifiers): one kernel block of X, scaled with the model's
    scaling record, against the support-vector table, times the coefficient
    matrix, plus the biases."""
    xs = model.scaling.transform(X)
    if xs.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D block of samples, got shape {xs.shape}")
    return kernel_against(model.kernel, model.support_vectors, xs) @ model.coeffs + model.biases


def ovo_votes(values, pairs, class_count: int) -> tuple[np.ndarray, np.ndarray]:
    """One-vs-one's max-wins votes and signed decision-value sums, each of
    shape (rows, class_count), from the (rows, pairs) decision values: f >= 0
    votes for the pair's first class, else for its second, and a class's sum
    adds f where it is first and -f where it is second, in pair order."""
    rows = len(values)
    # the (row, class) bins of every pair's two classes, row by row in pair order
    base = np.arange(rows)[:, None] * class_count
    first, second = (base + c for c in np.array(pairs).T)
    won = np.where(values >= 0.0, first, second)
    votes = np.bincount(won.ravel(), minlength=rows * class_count)
    # each bin adds its terms in the order given, so in pair order
    scores = np.bincount(
        np.stack((first, second), axis=2).ravel(),
        np.stack((values, -values), axis=2).ravel(),
        minlength=rows * class_count,
    )
    return votes.reshape(rows, class_count), scores.reshape(rows, class_count)


def predict_batch(model: MulticlassModel, X) -> list:
    """Class ids of every row of X.

    One-vs-all takes the largest decision value, ties to the lowest class id.
    One-vs-one counts max-wins votes (f >= 0 votes for the pair's first
    class); vote ties fall back to the signed decision-value sums, then the
    lowest class id.
    """
    values = decision_matrix(model, X)
    if model.strategy == "ova":
        winners = np.argmax(values, axis=1)
    else:
        votes, scores = ovo_votes(values, model.pairs, len(model.class_ids))
        tied = votes == votes.max(axis=1, keepdims=True)
        # argmax keeps the lowest index on ties
        winners = np.argmax(np.where(tied, scores, -np.inf), axis=1)
    return [model.class_ids[w] for w in winners.tolist()]


def predict(model: MulticlassModel, x):
    """Class id of one sample: a 1-row call of `predict_batch`."""
    return predict_batch(model, np.reshape(x, (1, -1)))[0]

