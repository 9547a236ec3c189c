"""Binary soft-margin kernel SVM with an SMO dual solver.

The solver is sequential minimal optimization with second-order
working-set selection (Fan, Chen & Lin, JMLR 2005; LIBSVM's default): i
violates the KKT conditions most, and j gains the most objective with i.
It stops at the maximal KKT violation, and it is deterministic with
lowest-index tie-breaking, so identical inputs always produce identical
models. Binary problems that share a kernel matrix are solved in lockstep,
each with its own arithmetic. C enters an update only through the box, so
problems that differ only in C ride on the updates of the least C until
one of them would take a multiplier to that C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidConfigError,
    NoConvergenceError,
    NonFiniteInputError,
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
    as a (probes, rows) matrix. Any other shape is DimensionMismatchError,
    and a value that is not finite (the kernel overflowed, or an input was
    not finite) is NonFiniteInputError.

    RBF is expanded as ||p||^2 + ||r||^2 - 2 p.r, clipped at 0, as LIBSVM
    computes it, so memory stays probes x rows, not probes x rows x dimension.
    """
    rows = np.asarray(rows, dtype=np.float64)
    probes = np.asarray(probes, dtype=np.float64)
    if rows.ndim != 2 or probes.ndim != 2 or rows.shape[1] != probes.shape[1]:
        raise DimensionMismatchError(f"kernel of {rows.shape} rows against {probes.shape} probes")
    with np.errstate(over="ignore", invalid="ignore"):
        values = probes @ rows.T
        if spec.kind == "rbf":
            probe_sq = np.einsum("ij,ij->i", probes, probes)
            sq_dist = probe_sq[:, None] + np.einsum("ij,ij->i", rows, rows)
            sq_dist -= 2.0 * values
            np.maximum(sq_dist, 0.0, out=sq_dist)
            sq_dist *= -spec.gamma
            values = np.exp(sq_dist, out=sq_dist)
        elif spec.kind == "poly":
            values = (values + 1.0) ** spec.degree
        elif spec.kind == "sigmoid":
            values = np.tanh(spec.slope * values + spec.offset)
    if not np.isfinite(values).all():
        raise NonFiniteInputError(
            f"{spec.describe()} kernel is not finite: it overflowed, or an input is not finite"
        )
    return values


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
    # a band's strict lower triangle: a prefix of a full band's, row by row
    below_rows, below_cols = np.tril_indices(min(n, _GRAM_BAND_ROWS), -1)
    for s in range(0, n, _GRAM_BAND_ROWS):
        e = min(s + _GRAM_BAND_ROWS, n)
        gram[s:e, s:] = kernel_against(spec, X[s:], X[s:e])
        gram[e:, s:e] = gram[s:e, e:].T
        block = gram[s:e, s:e]
        count = (e - s) * (e - s - 1) // 2
        lower = below_rows[:count], below_cols[:count]
        block[lower] = block.T[lower]
    if spec.kind == "rbf":
        np.fill_diagonal(gram, 1.0)
    return gram


@dataclass
class BinaryModel:
    """Trained binary SVM: support vectors, alpha_i * y_i, and the bias."""

    kernel: KernelSpec
    support_vectors: np.ndarray
    dual_coeffs: np.ndarray
    bias: float


@dataclass
class DualBlock:
    """Where SMO left a block of binary problems, one row per problem: labels
    in +-1 (0 pads a problem after its real samples), box bounds C,
    multipliers, y_i times the dual gradient, the pair updates of the
    problem's own solve, the last maximal KKT violation and whether the
    problem converged: its violation dropped to `DEFAULT_TOL` before
    `DEFAULT_MAX_ITER` updates ran out, as `solve_smo` read the two. A row
    that rode on the row of least C of its family, until an update of that
    row would take a multiplier to its C, holds what solving it alone gives,
    so `iterations` counts the updates that solve makes, not the trips that
    stepped the row."""

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
    DimensionMismatchError. Each trip takes every stepped problem through
    one pair update as array operations over all of them:
    - i is the sample whose y_i * alpha_i can rise with the largest
      up_i = y_i * gradient_i, and j is chosen by second-order working-set
      selection (Fan, Chen & Lin 2005): among the samples t whose
      y_t * alpha_t can fall with b_t = up_i - low_t > 0, the largest
      b_t^2 / a_t, where a_t = K_ii + K_tt - 2 K_it is floored at
      `CURVATURE_FLOOR`. Ties go to the lowest index.
    - The step b_ij / a_ij is clipped to the box and the gradient is
      updated. A multiplier below 1e-12 becomes 0 whatever C, and one
      within 1e-12 * max(1, C) of C becomes C, so C enters only the box.
    A problem stops once its maximal KKT violation (largest up minus
    smallest low) drops to `DEFAULT_TOL`, or unconverged after
    `DEFAULT_MAX_ITER` of its own updates.

    Consecutive rows with equal labels (and equal `members`) form a family,
    as one problem of a multiclass reduction at several C values does. Only
    the family's first row of smallest C is stepped; the other rows ride on
    it and copy its result when it finishes. They leave on one event: a
    trip would take a multiplier of the stepped row to its C, where a larger
    C would move it differently. That trip is not applied; the riders of
    larger C leave from the current state as a family of their own, and
    every row makes the trip again. So each problem's arithmetic is that of
    solving it alone, and so is its solution.

    Without `members` every problem trains on all rows of `gram`. With it,
    row p of the integer (problems, m) array `members` lists the rows
    of `gram` that problem p trains on, labelled by `Y[p]`; a label of 0
    marks padding after the problem's real samples, which never enters a
    pair and keeps alpha 0.

    The result is one DualBlock of the problems in the order of `Y`, which
    it holds as given. A trip reads the i rows of the kernel matrix for
    every stepped problem with one take, every curvature a_t from them,
    and the j rows with one more. Each stepped problem's multipliers
    are updated in place in the block; its gradient, pair updates,
    violation and convergence are written once, when it finishes.
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
    # K_ii + K_tt when every K_tt is the same (always for RBF), else None
    twice_diag = diag[0] + diag[0] if n and (diag == diag[0]).all() else None
    flat_gram = gram.ravel()
    alpha = block.alpha  # every stepped problem's multipliers, updated in place
    # families: runs of equal rows. head[p] is the row that problem p rides
    # on, the first row of least C of its family (p itself when stepped).
    same = (Y[1:] == Y[:-1]).all(axis=1)
    if members is not None:
        same &= (members[1:] == members[:-1]).all(axis=1)
    family = np.concatenate(([0], np.cumsum(~same)))[:problems]
    order = np.lexsort((C, family))
    head = order[np.flatnonzero(np.diff(family[order], prepend=-1))][family]
    live = np.flatnonzero(head == np.arange(problems))  # the problem each live row steps
    all_members = members
    # y_i * dW/dalpha_i where y_i * alpha_i can rise (up) or fall (low), and
    # -inf / +inf where it cannot: at alpha = 0 it can rise only for y = +1 and
    # fall only for y = -1, and padding can do neither. Every real sample is in
    # at least one of the two, and an update changes that only for its own
    # pair, so the gradient itself need not be kept apart (its value at
    # alpha = 0 is y).
    up = np.where(Y[live] > 0, Y[live], -np.inf)
    low = np.where(Y[live] < 0, Y[live], np.inf)
    iterations = 0  # trips made: the pair updates of every live row's problem
    while live.size:
        count = live.size
        start = np.arange(count) * width  # the start of each row of the live state
        if all_members is not None:
            members = all_members[live]
        row_diag = diag if members is None else diag.take(members)
        # the pair (i, j) of every row side by side: i first, then j, with
        # the start of its row in the live state and in the block, and its C
        pair_start, pair_block_start, pair_C = (
            np.concatenate((a, a)) for a in (start, live * width, C[live])
        )
        # keep the box constraint exact despite rounding in the update: below
        # 1e-12 is 0 whatever C, and past pair_top is C
        pair_top = pair_C - 1e-12 * np.maximum(1.0, pair_C)
        # whether a larger C rides on each live row; its multipliers must not
        # reach the row's C, where they would move differently
        rider_C = np.zeros(problems)
        np.maximum.at(rider_C, head, C)
        fanned = rider_C[live] > C[live]
        sharing = fanned.any()
        split = np.zeros(count, dtype=bool)
        while True:
            i = up.argmax(axis=1)
            flat_i = start + i
            up_i = up.take(flat_i)
            violation = up_i - low.min(axis=1)
            done = violation <= tol
            if iterations >= max_iter:
                done[:] = True
            if done.any():
                break
            # the i rows of the kernel matrix against each problem's own
            # samples; K[i, t] gives every curvature a_t
            if members is None:
                g_i = i
                k_i = gram.take(i, axis=0)
            else:
                g_i = members.take(flat_i)
                k_i = flat_gram.take(g_i[:, None] * n + members)
            if twice_diag is None:
                curvature = diag.take(g_i)[:, None] + row_diag
                curvature -= 2.0 * k_i
            else:  # the same rounding: doubling is exact, and x + -y is x - y
                curvature = k_i * -2.0
                curvature += twice_diag
            np.maximum(curvature, CURVATURE_FLOOR, out=curvature)
            # b_t^2 / a_t where b_t = up_i - low_t > 0, else 0: the maximal
            # violating t scores above 0, so no such 0 wins
            gain = up_i[:, None] - low
            np.maximum(gain, 0.0, out=gain)
            gain *= gain
            gain /= curvature
            ij = np.concatenate((i, gain.argmax(axis=1)))
            flat = pair_start + ij
            slot = pair_block_start + ij
            flat_j = flat[count:]
            y = Y.take(slot)
            bound = y * pair_C  # y_i * alpha_i lies in [min(bound, 0), max(bound, 0)]
            upper = np.maximum(bound, 0.0)
            lower = np.minimum(bound, 0.0)
            pair_alpha = alpha.take(slot)
            ya = y * pair_alpha
            step = np.minimum(
                np.minimum(upper[:count] - ya[:count], ya[count:] - lower[count:]),
                (up_i - low.take(flat_j)) / curvature.take(flat_j),
            )
            moved = pair_alpha + y * np.concatenate((step, -step))
            top = moved > pair_top
            if sharing:
                split = (top[:count] | top[count:]) & fanned
                if split.any():  # the trip is made again once the riders left
                    break
            moved = np.where(moved < 1e-12, 0.0, np.where(top, pair_C, moved))
            # minus the j rows
            if members is None:
                k_i -= gram.take(ij[count:], axis=0)
            else:
                k_i -= flat_gram.take(members.take(flat_j)[:, None] * n + members)
            k_i *= step[:, None]
            up -= k_i
            low -= k_i
            # the pair's own gradients: i could rise and j could fall before the step
            pair_yg = np.concatenate((up.take(flat_i), low.take(flat_j)))
            alpha.put(slot, moved)
            ya = y * moved
            up.put(flat, np.where(ya < upper, pair_yg, -np.inf))
            low.put(flat, np.where(ya > lower, pair_yg, np.inf))
            iterations += 1
        # regroup: finished rows leave, and the riders of larger C leave each
        # split row as a family of their own, from its state
        finished, finished_up = live[done], up[done]
        block.yg[finished] = np.where(finished_up > -np.inf, finished_up, low[done])
        block.iterations[finished] = iterations
        block.violation[finished] = violation[done]
        block.converged[finished] = violation[done] <= tol
        leaders = np.zeros(np.count_nonzero(split), dtype=np.intp)
        for k, p in enumerate(live[split]):
            leaving = np.flatnonzero((head == p) & (C > C[p]))
            head[leaving] = leaders[k] = leaving[np.argmin(C[leaving])]
        alpha[leaders] = alpha[live[split]]
        keep = ~done
        live = np.concatenate((live[keep], leaders))
        up, low = (np.concatenate((a[keep], a[split])) for a in (up, low))
    # every rider comes out as the row it rode on when that row finished
    riders = np.flatnonzero(head != np.arange(problems))
    for field in (alpha, block.yg, block.iterations, block.violation, block.converged):
        field[riders] = field[head[riders]]
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
    support vector survived the snap of small multipliers to 0)."""
    if not block.converged[p]:
        iterations, violation = int(block.iterations[p]), float(block.violation[p])
        return NoConvergenceError(
            f"no convergence after {iterations} pair updates "
            f"(KKT violation {violation:.3e} > tol {DEFAULT_TOL:.3e})",
            iterations=iterations,
            violation=violation,
        )
    return InvalidConfigError(
        "no support vectors survived: every multiplier fell below the 1e-12 snap to 0, "
        "as happens when kernel values are huge; scale the samples"
    )


def train_binary(samples, labels, kernel: KernelSpec, C: float) -> BinaryModel:
    """Solve one soft-margin dual by SMO (a one-problem `solve_smo` over the
    `gram_matrix` of `samples`) and package its support vectors and bias
    (`block_support`).

    Stops by the solver's rule: once the maximal KKT violation drops to
    `DEFAULT_TOL`, else NoConvergenceError with diagnostics after
    `DEFAULT_MAX_ITER` pair updates.
    """
    X, y = _validate_training_input(samples, labels)
    block = solve_smo(gram_matrix(kernel, X), y[None], [C])
    support, bias, failed = block_support(block)
    if failed[0]:
        raise block_error(block, 0)
    support = support[0]
    return BinaryModel(
        kernel=kernel,
        support_vectors=X[support],
        dual_coeffs=block.alpha[0, support] * y[support],
        bias=float(bias[0]),
    )


def decision_value(model: BinaryModel, x) -> float:
    """f(x) = sum_i alpha_i y_i K(sv_i, x) + b of one sample x."""
    k = kernel_against(model.kernel, model.support_vectors, np.reshape(x, (1, -1)))
    return float((k @ model.dual_coeffs + model.bias)[0])
