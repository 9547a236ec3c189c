"""Binary soft-margin kernel SVM with an SMO dual solver.

The solver is sequential minimal optimization over the maximal
KKT-violating pair (Keerthi's working-set selection), deterministic with
lowest-index tie-breaking, so identical inputs always produce identical
models. Binary problems that share a kernel matrix are solved in lockstep,
each with its own arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidConfigError,
    NoConvergenceError,
    SingleClassError,
)

# The parameters of each kernel kind, in the order they are printed and saved.
KERNEL_PARAMS = {
    "linear": (), "poly": ("degree",), "rbf": ("gamma",), "sigmoid": ("slope", "offset")
}
CURVATURE_FLOOR = 1e-12
# Largest kernel matrix one training may hold: n <= 11,585 samples.
GRAM_BUDGET_BYTES = 1 << 30
# Rows of the kernel matrix that `gram_matrix` builds per `kernel_against` call.
_GRAM_BAND_ROWS = 64


@dataclass(frozen=True)
class KernelSpec:
    """Kernel identity plus its parameters.

    linear:   x . y
    poly:     (x . y + 1)^degree
    rbf:      exp(-gamma * ||x - y||^2), gamma > 0 and finite
    sigmoid:  tanh(slope * (x . y) + offset); slope and offset have no
              defaults, must be given explicitly and must be finite
    """

    kind: str
    degree: int = 3
    gamma: float | None = None
    slope: float | None = None
    offset: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_PARAMS:
            raise InvalidConfigError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf":
            if self.gamma is None or not 0 < self.gamma < np.inf:
                raise InvalidConfigError("rbf kernel requires a finite gamma > 0")
        if self.kind == "poly":
            if _number(self.degree, int) != self.degree or self.degree < 1:
                raise InvalidConfigError("poly kernel requires integer degree >= 1")
        if self.kind == "sigmoid":
            if self.slope is None or self.offset is None:
                raise InvalidConfigError("sigmoid kernel requires explicit slope and offset")
            if not np.isfinite([self.slope, self.offset]).all():
                raise InvalidConfigError("sigmoid kernel requires a finite slope and offset")

    @classmethod
    def from_param(cls, kind: str, param=None) -> "KernelSpec":
        """Build a spec from its one tunable parameter: gamma (rbf), degree
        (poly), a (slope, offset) pair (sigmoid) or None (linear). A gamma,
        slope or offset that is not a number, or a degree that is not a whole
        number, is InvalidConfigError."""
        if kind == "rbf":
            return cls(kind, gamma=_number(param, float))
        if kind == "poly":
            return cls(kind, degree=_number(param, int))
        if kind == "sigmoid":
            slope, offset = param
            return cls(kind, slope=_number(slope, float), offset=_number(offset, float))
        return cls(kind)

    def describe(self) -> str:
        params = [f"{n}={getattr(self, n)}" for n in KERNEL_PARAMS[self.kind]]
        return " ".join([self.kind] + params)


def _number(value, cast):
    """`cast(value)` for `cast` float or int; InvalidConfigError unless the
    result equals the value, so text that is no number and a fractional
    degree are refused rather than truncated."""
    try:
        number = cast(value)
        exact = number == float(value)
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        kind = "a whole number" if cast is int else "a number"
        raise InvalidConfigError(f"kernel parameter {value!r} is not {kind}")
    return number


def validate_c(c_values) -> list[float]:
    """The box bounds C as floats; InvalidConfigError unless every one is a
    positive finite number."""
    c_values = [float(C) for C in c_values]
    if not all(0 < C < np.inf for C in c_values):
        raise InvalidConfigError("C must be a positive finite number")
    return c_values


def kernel_against(spec: KernelSpec, rows: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Kernel values of a 2-D block of probes against a 2-D stack of rows,
    as a (probes, rows) matrix. Any other shape is DimensionMismatchError.

    RBF is expanded as ||p||^2 + ||r||^2 - 2 p.r, clipped at 0, as LIBSVM
    computes it, so memory stays probes x rows, not probes x rows x dimension.
    """
    rows = np.asarray(rows, dtype=np.float64)
    probes = np.asarray(probes, dtype=np.float64)
    if rows.ndim != 2 or probes.ndim != 2 or rows.shape[1] != probes.shape[1]:
        raise DimensionMismatchError(f"kernel of {rows.shape} rows against {probes.shape} probes")
    dot = probes @ rows.T
    if spec.kind == "rbf":
        sq_dist = np.einsum("ij,ij->i", probes, probes)[:, None] + np.einsum("ij,ij->i", rows, rows)
        sq_dist -= 2.0 * dot
        np.maximum(sq_dist, 0.0, out=sq_dist)
        sq_dist *= -spec.gamma
        return np.exp(sq_dist, out=sq_dist)
    if spec.kind == "linear":
        return dot
    if spec.kind == "poly":
        return (dot + 1.0) ** spec.degree
    return np.tanh(spec.slope * dot + spec.offset)


def gram_matrix(spec: KernelSpec, samples) -> np.ndarray:
    """The exactly symmetric kernel matrix of the rows of `samples`.

    Only the upper triangle is computed, `_GRAM_BAND_ROWS` rows per
    `kernel_against` call (rows s..e-1 against rows s..n-1), and each band
    is mirrored into the lower triangle, its diagonal block included, so the
    matrix is symmetric whatever the BLAS does. The RBF diagonal is exactly
    1.0, K(x, x) at distance 0. Temporaries scale with a band, not the
    matrix. The matrix may take at most GRAM_BUDGET_BYTES; a larger training
    set raises InvalidConfigError before anything is allocated.
    """
    n = len(samples)
    if n * n * 8 > GRAM_BUDGET_BYTES:
        raise InvalidConfigError(
            f"a {n}x{n} kernel matrix needs {n * n * 8} bytes, "
            f"over the budget of {GRAM_BUDGET_BYTES}"
        )
    X = np.asarray(samples, dtype=np.float64)
    gram = np.empty((n, n))
    for s in range(0, n, _GRAM_BAND_ROWS):
        e = min(s + _GRAM_BAND_ROWS, n)
        gram[s:e, s:] = kernel_against(spec, X[s:], X[s:e])
        gram[e:, s:e] = gram[s:e, e:].T
        block = gram[s:e, s:e]
        lower = np.tril_indices(e - s, -1)
        block[lower] = block.T[lower]
    if spec.kind == "rbf":
        np.fill_diagonal(gram, 1.0)
    return gram


@dataclass
class TrainingMeta:
    iterations: int
    kkt_violation: float


@dataclass
class BinaryModel:
    """Trained binary SVM: support vectors, alpha_i * y_i, and the bias."""

    kernel: KernelSpec
    support_vectors: np.ndarray
    dual_coeffs: np.ndarray
    bias: float
    C: float
    meta: TrainingMeta


@dataclass
class DualBlock:
    """Where SMO left a block of binary problems, one row per problem: labels
    in +-1 (0 pads a problem after its real samples), box bounds C,
    multipliers, y_i times the dual gradient, pair updates made, the last
    maximal KKT violation and whether the problem converged: its violation
    dropped to `DEFAULT_TOL` before `DEFAULT_MAX_ITER` updates ran out, as
    `solve_smo` read the two."""

    Y: np.ndarray
    C: np.ndarray
    alpha: np.ndarray
    yg: np.ndarray
    iterations: np.ndarray
    violation: np.ndarray
    converged: np.ndarray


def _validate_training_input(samples, labels):
    X = np.asarray(samples, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("samples must be a 2-D array")
    if y.shape != (X.shape[0],):
        raise DimensionMismatchError(
            f"{X.shape[0]} samples but {y.shape} labels"
        )
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if np.all(y == y[0]):
        raise SingleClassError("training labels are all identical")
    return X, y


# The SMO stopping rule: done once the maximal KKT violation drops to
# DEFAULT_TOL (LIBSVM's eps), unconverged after DEFAULT_MAX_ITER pair updates.
# `solve_smo` reads both at each call, so setting one reaches every training.
DEFAULT_TOL = 1e-3
DEFAULT_MAX_ITER = 1_000_000


def solve_smo(gram: np.ndarray, Y, C, members=None) -> DualBlock:
    """Solve the soft-margin duals of several binary problems over one
    kernel matrix by SMO, in lockstep.

    Row p of the (problems, n) array `Y` holds problem p's labels in +-1 and
    `C[p]` its box bound; a C list of another length is
    DimensionMismatchError. Each trip takes every unfinished problem through
    one pair update as array operations over all of them: its own maximal
    KKT-violating pair (Keerthi's rule, lowest index on ties), the curvature
    floor, the step clipped to the box, the snap onto the box and the
    gradient update. Each problem's arithmetic is that of solving it alone,
    so its solution is too. A problem leaves the block once its violation
    drops to `DEFAULT_TOL`, or unconverged after `DEFAULT_MAX_ITER` updates.

    Without `members` every problem trains on all rows of `gram`. With it,
    row p of the integer (problems, m) array `members` lists the rows
    of `gram` that problem p trains on, labelled by `Y[p]`; a label of 0
    marks padding after the problem's real samples, which never enters a
    pair and keeps alpha 0.

    The result is one DualBlock of the problems in the order of `Y`, which
    it holds as given. A trip reads the i rows of the kernel matrix for
    every problem with one take, K[i, j] from them, and the j rows with one
    more. Each problem's multipliers are updated in place in the
    block; its gradient, pair updates, violation and convergence are written
    once, when it leaves the block.
    """
    tol, max_iter = DEFAULT_TOL, DEFAULT_MAX_ITER
    Y = np.asarray(Y, dtype=np.float64)
    C = np.array(validate_c(np.ravel(C)))
    gram = np.asarray(gram, dtype=np.float64)
    n = len(gram)
    if gram.shape != (n, n):
        raise DimensionMismatchError(f"kernel matrix has shape {gram.shape}, not square")
    if members is None:
        if Y.ndim != 2 or Y.shape[1] != n:
            raise DimensionMismatchError(f"labels of shape {Y.shape} over {n} kernel rows")
    else:
        members = np.asarray(members)
        if members.shape != Y.shape or Y.ndim != 2 or members.dtype.kind not in "iu":
            raise DimensionMismatchError(
                f"members must be integer rows of the labels' shape {Y.shape}, "
                f"got {members.dtype} of shape {members.shape}"
            )
        if members.size and (members.min() < 0 or members.max() >= n):
            raise DimensionMismatchError(f"members must be rows of the {n}x{n} kernel matrix")
        members = members.astype(np.intp, copy=False)  # flat offsets must not overflow
    problems, width = Y.shape
    if len(C) != problems:
        raise DimensionMismatchError(f"{len(C)} box bounds C for {problems} problems")
    block = DualBlock(
        Y=Y, C=C, alpha=np.zeros(Y.shape), yg=np.empty(Y.shape),
        iterations=np.zeros(problems, dtype=np.int64), violation=np.empty(problems),
        converged=np.zeros(problems, dtype=bool),
    )
    diag = np.diagonal(gram).copy()
    flat_gram = gram.ravel()
    alpha = block.alpha  # every problem's multipliers, updated in place
    # y_i * dW/dalpha_i where y_i * alpha_i can rise (up) or fall (low), and
    # -inf / +inf where it cannot: at alpha = 0 it can rise only for y = +1 and
    # fall only for y = -1, and padding can do neither. Every real sample is in
    # at least one of the two, and an update changes that only for its own
    # pair, so the gradient itself need not be kept apart (its value at
    # alpha = 0 is y).
    up = np.where(Y > 0, Y, -np.inf)
    low = np.where(Y < 0, Y, np.inf)
    live = np.arange(problems)  # the problem each row of the live state belongs to
    iterations = 0
    while live.size:
        count = live.size
        # the pair (i, j) of every row side by side: i first, then j, with
        # the start of its row in the live state (up, low, members) and in
        # the block (Y, alpha), and its C
        pair_start, pair_block_start, pair_C = (
            np.concatenate((a, a)) for a in (np.arange(count) * width, live * width, C[live])
        )
        # keep the box constraint exact despite rounding in the update
        pair_snap = 1e-12 * np.maximum(1.0, pair_C)
        pair_top = pair_C - pair_snap
        while True:
            ij = np.concatenate((up.argmax(axis=1), low.argmin(axis=1)))
            flat = pair_start + ij
            slot = pair_block_start + ij
            flat_i, flat_j = flat[:count], flat[count:]
            violation = up.take(flat_i) - low.take(flat_j)
            done = violation <= tol
            if iterations >= max_iter:
                done[:] = True
            if done.any():
                break
            # the i rows of the kernel matrix against each problem's own
            # samples, K[i, j] read from them, minus the j rows (two takes of
            # one block each run faster than one take of both)
            if members is None:
                g = ij
                delta = gram.take(ij[:count], axis=0)
                k_ij = delta.take(flat_j)
                delta -= gram.take(ij[count:], axis=0)
            else:
                g = members.take(flat)
                delta = flat_gram.take(g[:count, None] * n + members)
                k_ij = delta.take(flat_j)
                delta -= flat_gram.take(g[count:, None] * n + members)
            pair_diag = diag.take(g)
            curvature = np.maximum(
                pair_diag[:count] + pair_diag[count:] - 2.0 * k_ij, CURVATURE_FLOOR
            )
            y = Y.take(slot)
            bound = y * pair_C  # y_i * alpha_i lies in [min(bound, 0), max(bound, 0)]
            upper = np.maximum(bound, 0.0)
            lower = np.minimum(bound, 0.0)
            pair_alpha = alpha.take(slot)
            ya = y * pair_alpha
            step = np.minimum(
                np.minimum(upper[:count] - ya[:count], ya[count:] - lower[count:]),
                violation / curvature,
            )
            delta *= step[:, None]
            up -= delta
            low -= delta
            # the pair's own gradients: i could rise and j could fall before the step
            pair_yg = np.concatenate((up.take(flat_i), low.take(flat_j)))
            moved = pair_alpha + y * np.concatenate((step, -step))
            moved = np.where(moved < pair_snap, 0.0, np.where(moved > pair_top, pair_C, moved))
            alpha.put(slot, moved)
            ya = y * moved
            up.put(flat, np.where(ya < upper, pair_yg, -np.inf))
            low.put(flat, np.where(ya > lower, pair_yg, np.inf))
            iterations += 1
        finished, finished_up = live[done], up[done]
        block.yg[finished] = np.where(finished_up > -np.inf, finished_up, low[done])
        block.iterations[finished] = iterations
        block.violation[finished] = violation[done]
        block.converged[finished] = violation[done] <= tol
        keep = ~done
        up, low, live = up[keep], low[keep], live[keep]
        if members is not None:
            members = members[keep]
    return block


def block_support(block: DualBlock) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The support masks (alpha > 0), the biases and the failures of every
    problem of a solved block, in one pass over its arrays.

    A bias averages y_i - u_i over the problem's unbounded support vectors
    (`np.mean` over them in row order), falling back to the midpoint of the
    feasible interval. `failed[p]` holds when problem p did not converge or
    kept no support vector; `block_error(block, p)` is then its error.
    """
    b = block
    support = b.alpha > 0
    below_c = b.alpha < b.C[:, None]
    pos, neg = b.Y > 0, b.Y < 0
    # where y_i * alpha_i can rise (up) or fall (low); padding can do neither
    in_up = (pos & below_c) | (neg & support)
    in_low = (pos & support) | (neg & below_c)
    m = np.where(in_up, b.yg, -np.inf).max(axis=1)
    big_m = np.where(in_low, b.yg, np.inf).min(axis=1)
    bias = (m + big_m) / 2.0
    unbounded = support & below_c
    counts = np.count_nonzero(unbounded, axis=1)
    # a row of a 2-D mean is summed as np.mean sums it alone, so the problems
    # with one count of unbounded multipliers share one call
    for count in set(counts.tolist()) - {0}:
        rows = counts == count
        bias[rows] = b.yg[rows][unbounded[rows]].reshape(-1, count).mean(axis=1)
    failed = ~b.converged | ~support.any(axis=1)
    return support, bias, failed


def block_error(block: DualBlock, p: int) -> NoConvergenceError | InvalidConfigError:
    """The error of failed problem p of a block: NoConvergenceError with its
    diagnostics when it did not converge, else InvalidConfigError (no
    support vector survived)."""
    if not block.converged[p]:
        iterations, violation = int(block.iterations[p]), float(block.violation[p])
        return NoConvergenceError(
            f"no convergence after {iterations} pair updates "
            f"(KKT violation {violation:.3e} > tol {DEFAULT_TOL:.3e})",
            iterations=iterations,
            violation=violation,
        )
    return InvalidConfigError(f"tol {DEFAULT_TOL} is too loose; no support vectors survived")


def binary_model(block: DualBlock, p: int, samples, kernel: KernelSpec) -> BinaryModel:
    """Package problem p of a solved block as a model over the rows of
    `samples`, its real samples in order, with the support vectors and bias
    of `block_support`; a failed problem raises its `block_error`."""
    support, bias, failed = block_support(block)
    if failed[p]:
        raise block_error(block, p)
    real = slice(len(samples))
    support = support[p, real]
    return BinaryModel(
        kernel=kernel,
        support_vectors=np.asarray(samples, dtype=np.float64)[support],
        dual_coeffs=block.alpha[p, real][support] * block.Y[p, real][support],
        bias=float(bias[p]),
        C=float(block.C[p]),
        meta=TrainingMeta(
            iterations=int(block.iterations[p]),
            kkt_violation=max(float(block.violation[p]), 0.0),
        ),
    )


def train_binary(
    samples, labels, kernel: KernelSpec, C: float, gram: np.ndarray | None = None
) -> BinaryModel:
    """Solve one soft-margin dual by SMO (a one-problem `solve_smo`) and
    package the resulting model.

    Stops by the solver's rule: once the maximal KKT violation drops to
    `DEFAULT_TOL`, else NoConvergenceError with diagnostics after
    `DEFAULT_MAX_ITER` pair updates. `gram` is the kernel matrix of
    `samples` (see `gram_matrix`), built here when omitted.
    """
    X, y = _validate_training_input(samples, labels)
    n = X.shape[0]
    if gram is None:
        gram = gram_matrix(kernel, X)
    elif np.shape(gram) != (n, n):
        raise DimensionMismatchError(
            f"kernel matrix has shape {np.shape(gram)}, {n} samples need ({n}, {n})"
        )
    return binary_model(solve_smo(gram, y[None], [C]), 0, X, kernel)


def decision_values(model: BinaryModel, X) -> np.ndarray:
    """f(x) = sum_i alpha_i y_i K(sv_i, x) + b for every row x of the 2-D X."""
    k = kernel_against(model.kernel, model.support_vectors, X)
    return k @ model.dual_coeffs + model.bias


def decision_value(model: BinaryModel, x) -> float:
    """f(x) of one sample: a 1-row call of `decision_values`."""
    return float(decision_values(model, np.reshape(x, (1, -1)))[0])

