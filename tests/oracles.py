"""Independent reference computations used by the unit and acceptance tests.

Nothing here runs the package's computations: the dual oracle works from raw
objective evaluations (grid enumeration plus pairwise polish), and the KKT
check recomputes every decision value from `reference_kernel`. What the
oracles still take from the package is `read_pgm` to read glyph files,
`class_sort_key` to order class directories, `MinMaxScaling.fit` (which
`fold_scalings` records, not replaces), and constants, error types,
`Dataset` and model types. Otsu's threshold is scored pixel by pixel, one
mask per threshold, and rotations map canvases through
`_full_canvas_inverse_map` and `rotated_extent`. The scalar SMO loop that
the package's lockstep solver replaced is kept as its bit-for-bit reference,
and so are the full-canvas bicubic rotation and the float median that the
package's banded rotation and selection median replaced. The rotation reads
its own copy of the tap-at-a-time Keys weights that the package's four-tap
table replaced, and so does the crop-at-a-time resample that the package's
flat batched one replaced. The per-problem support and bias arithmetic and
the pair-at-a-time one-vs-one vote loop are kept as the bit-for-bit
references of the package's one pass per solver block and its two bincounts.
The image-directory loader is kept as it ran before it cleaned glyphs in
stacks: one file at a time, read, cropped alone with scipy's labelling,
normalized, thinned and reduced to features alone, with the features counted
from the reference crossing numbers. One recorder reads the feature scaling
that each fold of a cross-validation fits. The Zhang-Suen pass that looked
each pixel's window code up in a 512-entry table is kept as the reference of
the package's bitwise pass over packed rows, with its own window codes built
from the ring offsets here, and `reference_thin` thins with it. The package
counts crossing numbers on packed rows too; `reference_crossing_number` sums
neighbour planes.
"""

import bisect
import functools
import itertools
import math
import os

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from glyphsvm.preprocess import MAX_SKEW_DEG, MIN_COMPONENT_AREA, NORMALIZED_SIZE
from glyphsvm.errors import (
    EmptyClassError,
    EmptyCropError,
    InvalidConfigError,
    NoConvergenceError,
    UniformImageError,
    UnreadableFileError,
)
from glyphsvm.modelsel import Dataset
from glyphsvm.multiclass import MinMaxScaling, class_sort_key
from glyphsvm.pgm import read_pgm
from glyphsvm.svm import (
    CURVATURE_FLOOR,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    BinaryModel,
    KernelSpec,
)

GRID_POINTS = 11  # {0, C/10, ..., C}


def kernel_matrix(spec, X):
    """The kernel matrix of the rows of X, one `reference_kernel` pair at a time."""
    return np.array([[reference_kernel(spec, a, b) for b in X] for a in X])


def reference_train_binary(
    samples,
    labels,
    kernel: KernelSpec,
    C: float,
    gram: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[BinaryModel, int, float]:
    """The scalar SMO loop that `solve_smo` runs in lockstep: one problem,
    one pair update per trip, the model packaged at the end with the pair
    updates made and the last maximal KKT violation (floored at 0). i is the
    sample that can rise with the largest y * gradient, j the second-order
    choice among those that can fall (the largest b^2 / a), and the step
    b / a is clipped to the box, each tie going to the lowest index.

    Stops once the maximal KKT violation drops to `tol`; raises
    NoConvergenceError with diagnostics if `max_iter` pair updates are not
    enough. The bias averages y_i - u_i over unbounded support vectors,
    falling back to the midpoint of the feasible interval. `gram` is the
    kernel matrix of `samples`.
    """
    X = np.asarray(samples, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n = X.shape[0]

    alpha = np.zeros(n)
    grad = np.ones(n)  # dW/dalpha_i at alpha = 0
    yg = y * grad
    pos = y > 0
    upper = np.where(pos, C, 0.0)  # bound on y_i * alpha_i
    lower = np.where(pos, 0.0, -C)

    iterations = 0
    while True:
        ya = y * alpha
        in_up = ya < upper
        in_low = ya > lower
        up_scores = np.where(in_up, yg, -np.inf)
        low_scores = np.where(in_low, yg, np.inf)
        i = int(np.argmax(up_scores))
        violation = float(up_scores[i] - np.min(low_scores))
        if violation <= tol:
            break
        if iterations >= max_iter:
            raise NoConvergenceError(
                f"no convergence after {iterations} pair updates "
                f"(KKT violation {violation:.3e} > tol {tol:.3e})",
                iterations=iterations,
                violation=violation,
            )
        k_i = gram[i]
        # second-order selection: the j of largest gain b^2 / a among the
        # samples that can fall with b = up_i - low_j > 0, where a is the
        # pair's curvature, floored
        b = up_scores[i] - low_scores
        a = np.maximum(k_i[i] + np.diagonal(gram) - 2.0 * k_i, CURVATURE_FLOOR)
        j = int(np.argmax(np.where(b > 0, b * b / a, -np.inf)))
        k_j = gram[j]
        step = min(
            upper[i] - ya[i],
            ya[j] - lower[j],
            b[j] / a[j],
        )
        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        # keep the box constraint exact despite rounding in the update: below
        # 1e-12 is 0 whatever C, and the snap onto C is relative to C
        for idx in (i, j):
            if alpha[idx] < 1e-12:
                alpha[idx] = 0.0
            elif alpha[idx] > C - 1e-12 * max(1.0, C):
                alpha[idx] = C
        yg -= step * (k_i - k_j)
        iterations += 1

    m = float(np.max(np.where(in_up, yg, -np.inf)))
    big_m = float(np.min(np.where(in_low, yg, np.inf)))
    unbounded = (alpha > 0) & (alpha < C)
    if unbounded.any():
        bias = float(np.mean(yg[unbounded]))
    else:
        bias = (m + big_m) / 2.0
    support = alpha > 0
    if not support.any():
        raise ValueError(
            "no support vectors survived: every multiplier fell below the 1e-12 snap to 0, "
            "as happens when kernel values are huge; scale the samples"
        )
    model = BinaryModel(
        kernel=kernel,
        support_vectors=X[support].copy(),
        dual_coeffs=(alpha[support] * y[support]).copy(),
        bias=bias,
    )
    return model, iterations, max(violation, 0.0)


def reference_solution_support(y, C, alpha, yg, converged, iterations, violation, tol):
    """The support mask (alpha > 0) and the bias of one solved problem, from
    its real samples' labels, multipliers and y_i times the dual gradient:
    the per-problem arithmetic that the package's one pass per block replaced.

    The bias averages y_i - u_i over unbounded support vectors, falling back
    to the midpoint of the feasible interval. An unconverged problem is
    NoConvergenceError with its diagnostics, and one without a support
    vector is InvalidConfigError.
    """
    if not converged:
        raise NoConvergenceError(
            f"no convergence after {iterations} pair updates "
            f"(KKT violation {violation:.3e} > tol {tol:.3e})",
            iterations=iterations,
            violation=violation,
        )
    pos = y > 0
    ya = y * alpha
    in_up = ya < np.where(pos, C, 0.0)
    in_low = ya > np.where(pos, 0.0, -C)
    unbounded = (alpha > 0) & (alpha < C)
    if unbounded.any():
        bias = float(np.mean(yg[unbounded]))
    else:
        m = float(np.max(np.where(in_up, yg, -np.inf)))
        big_m = float(np.min(np.where(in_low, yg, np.inf)))
        bias = (m + big_m) / 2.0
    support = alpha > 0
    if not support.any():
        raise InvalidConfigError(
            "no support vectors survived: every multiplier fell below the 1e-12 snap to 0, "
            "as happens when kernel values are huge; scale the samples"
        )
    return support, bias


def dual_objective(alpha, y, K):
    Q = np.outer(y, y) * K
    return float(alpha.sum() - 0.5 * alpha @ Q @ alpha)


def _project_feasible(alpha, y, C, rounds=25):
    """Alternate orthogonal projection onto {sum alpha*y = 0} and box clipping."""
    a = alpha.astype(np.float64).copy()
    n = len(a)
    for _ in range(rounds):
        a -= (a @ y) / n * y
        np.clip(a, 0.0, C, out=a)
    a -= (a @ y) / n * y
    return a if np.all((a >= -1e-12) & (a <= C + 1e-12)) else None


def _pairwise_polish(alpha, y, K, C, max_sweeps=200):
    """Coordinate ascent over alpha pairs using only objective evaluations.

    Each accepted move strictly improves the dual, so this terminates; for
    the concave dual it converges to the global maximum from any start.
    """
    Q = np.outer(y, y) * K
    def w(a):
        return a.sum() - 0.5 * a @ Q @ a

    a = np.clip(alpha.astype(np.float64).copy(), 0.0, C)
    n = len(a)
    for _ in range(max_sweeps):
        improved = False
        for p in range(n):
            for q in range(p + 1, n):
                # moving a_p by +y_p*t and a_q by -y_q*t keeps the equality
                t_bounds_p = sorted(((-a[p]) * y[p], (C - a[p]) * y[p]))
                t_bounds_q = sorted(((a[q] - C) * y[q], a[q] * y[q]))
                t_lo = max(t_bounds_p[0], t_bounds_q[0])
                t_hi = min(t_bounds_p[1], t_bounds_q[1])
                if t_hi - t_lo <= 1e-14:
                    continue

                def shifted(t):
                    b = a.copy()
                    b[p] += y[p] * t
                    b[q] -= y[q] * t
                    return np.clip(b, 0.0, C)

                mid = (t_lo + t_hi) / 2.0
                h = (t_hi - t_lo) / 4.0
                w_mid, w_plus, w_minus = w(shifted(mid)), w(shifted(mid + h)), w(shifted(mid - h))
                curvature = (w_plus + w_minus - 2.0 * w_mid) / (2.0 * h * h)
                slope = (w_plus - w_minus) / (2.0 * h)
                candidates = [t_lo, t_hi]
                if curvature < 0.0:
                    candidates.append(float(np.clip(mid - slope / (2.0 * curvature), t_lo, t_hi)))
                current = w(a)
                best_t, best_w = None, current
                for t in candidates:
                    value = w(shifted(t))
                    if value > best_w + 1e-13:
                        best_t, best_w = t, value
                if best_t is not None:
                    a = shifted(best_t)
                    improved = True
        if not improved:
            break
    return a


def oracle_best_dual(X, y, spec, C):
    """Best dual objective from grid enumeration/seeding plus pairwise polish."""
    n = len(y)
    K = kernel_matrix(spec, X)
    grid = np.linspace(0.0, C, GRID_POINTS)
    candidates = [np.zeros(n)]

    if n <= 6:
        head = np.array(list(itertools.product(grid, repeat=n - 1)))
        tail = -y[-1] * (head @ y[:-1])
        feasible = (tail >= 0.0) & (tail <= C)
        full = np.hstack([head[feasible], tail[feasible, None]])
        if len(full):
            Q = np.outer(y, y) * K
            scores = full.sum(axis=1) - 0.5 * np.einsum("ij,jk,ik->i", full, Q, full)
            order = np.argsort(scores)[::-1]
            candidates.extend(full[i] for i in order[:20])
    else:
        rng = np.random.default_rng(12345)
        raw = [np.full(n, C / 2.0), np.full(n, C)]
        raw.extend(grid[rng.integers(0, GRID_POINTS, n)] for _ in range(200))
        raw.extend(rng.uniform(0.0, C, n) for _ in range(100))
        for seed in raw:
            projected = _project_feasible(seed, y, C)
            if projected is not None:
                candidates.append(np.clip(projected, 0.0, C))
        scores = [dual_objective(a, y, K) for a in candidates]
        order = np.argsort(scores)[::-1]
        candidates = [candidates[i] for i in order[:20]] + [np.zeros(n)]

    best = -np.inf
    for a in candidates:
        polished = _pairwise_polish(a, y, K, C)
        best = max(best, dual_objective(polished, y, K))
    return best


def recover_alpha(model, X, y):
    """Map a model's support coefficients back onto the training rows."""
    n = len(y)
    alpha = np.zeros(n)
    used = set()
    for sv, coeff in zip(model.support_vectors, model.dual_coeffs):
        for idx in range(n):
            if idx in used:
                continue
            if np.array_equal(X[idx], sv) and np.sign(coeff) == np.sign(y[idx]):
                alpha[idx] = abs(coeff)
                used.add(idx)
                break
        else:
            raise AssertionError("support vector not found among training rows")
    return alpha


def max_kkt_violation(model, X, y, C):
    """Largest per-point KKT violation, decisions recomputed from scratch:
    the bias plus one `reference_kernel` term per support vector."""
    alpha = recover_alpha(model, X, y)
    worst = 0.0
    for idx in range(len(y)):
        decision = model.bias + sum(
            coeff * reference_kernel(model.kernel, sv, X[idx])
            for sv, coeff in zip(model.support_vectors, model.dual_coeffs)
        )
        margin = y[idx] * decision
        if alpha[idx] <= 1e-12:
            worst = max(worst, 1.0 - margin)
        elif alpha[idx] >= C - 1e-12:
            worst = max(worst, margin - 1.0)
        else:
            worst = max(worst, abs(margin - 1.0))
    return worst


def reference_kernel(spec, a, b):
    """K(a, b) straight from the kernel's formula, one pair at a time."""
    dot = float(np.dot(a, b))
    if spec.kind == "linear":
        return dot
    if spec.kind == "poly":
        return (dot + 1.0) ** spec.degree
    if spec.kind == "rbf":
        return math.exp(-spec.gamma * float(np.sum((np.asarray(a) - b) ** 2)))
    return math.tanh(spec.slope * dot + spec.offset)


def reference_decision_matrix(model, X):
    """Decision values of every classifier at every sample, one sample and
    one support vector at a time, with the min-max scaling recomputed."""
    span = model.scaling.maxs - model.scaling.mins
    out = np.empty((len(X), len(model.classifiers)))
    for r, x in enumerate(np.asarray(X, dtype=np.float64)):
        xs = np.where(span > 0, (x - model.scaling.mins) / np.where(span > 0, span, 1.0), 0.0)
        for c, clf in enumerate(model.classifiers):
            out[r, c] = clf.bias + sum(
                coeff * reference_kernel(clf.kernel, sv, xs)
                for sv, coeff in zip(clf.support_vectors, clf.dual_coeffs)
            )
    return out


def reference_label(model, values):
    """The multiclass decision rule for one sample's decision values.

    One-vs-all: largest value, ties to the lowest id. One-vs-one: max-wins
    voting, vote ties to the largest signed decision-value sum, then the
    lowest id.
    """
    if model.strategy == "ova":
        return model.class_ids[int(np.argmax(values))]
    votes = [0] * len(model.class_ids)
    scores = [0.0] * len(model.class_ids)
    for f, (i, j) in zip(values, model.pairs):
        votes[i if f >= 0.0 else j] += 1
        scores[i] += f
        scores[j] -= f
    tied = [k for k, v in enumerate(votes) if v == max(votes)]
    best = tied[0]
    for k in tied[1:]:
        if scores[k] > scores[best]:
            best = k
    return model.class_ids[best]


def reference_ovo_votes(values, pairs, class_count):
    """One-vs-one's votes and signed decision-value sums, one pair at a time
    over every row: the loop that the package's two bincounts replaced."""
    votes = np.zeros((len(values), class_count), dtype=np.int64)
    scores = np.zeros(votes.shape)
    for f, (i, j) in zip(np.asarray(values).T, pairs):
        wins = f >= 0.0
        votes[:, i] += wins
        votes[:, j] += ~wins
        scores[:, i] += f
        scores[:, j] -= f
    return votes, scores


# (row, column) of the neighbours N, NE, E, SE, S, SW, W, NW in a 3x3 window
RING_OFFSETS = ((0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0), (1, 0), (0, 0))


def neighborhood_images():
    """(code, image) for every 3x3 image: bit k of `code` inks neighbour k of
    RING_OFFSETS, and each code comes with the centre clear, then inked."""
    for code in range(256):
        for centre in (False, True):
            img = np.zeros((3, 3), dtype=bool)
            for k, (r, c) in enumerate(RING_OFFSETS):
                img[r, c] = bool(code >> k & 1)
            img[1, 1] = centre
            yield code, img


def window_codes(img):
    """One uint16 per pixel whose bit 3r + c is set when cell (r, c) of the
    pixel's 3x3 window is ink, so bit 4 is the pixel itself. Cells off the
    image count as background. The last two axes are the image; leading axes
    stack independent images."""
    *lead, h, w = img.shape
    padded = np.zeros((*lead, h + 2, w + 2), dtype=np.uint16)
    padded[..., 1:-1, 1:-1] = img
    codes = padded[..., 1:-1, 1:-1] << 4
    for r, c in RING_OFFSETS:
        codes |= padded[..., r : r + h, c : c + w] << 3 * r + c
    return codes


def _neighbour_planes(img):
    """The 8 neighbour planes of a binary image as uint8, zero off the image."""
    padded = np.pad(img, 1, mode="constant", constant_values=False).astype(np.uint8)
    h, w = img.shape
    return tuple(padded[r : r + h, c : c + w] for r, c in RING_OFFSETS)


def reference_zhang_suen_pass(img, second):
    """Zhang-Suen deletion mask by whole-image arithmetic on the neighbour
    planes: 2 <= B <= 6 ink neighbours, A == 1 0-to-1 transitions, and the
    two products of the subiteration."""
    p2, p3, p4, p5, p6, p7, p8, p9 = _neighbour_planes(img)
    seq = (p2, p3, p4, p5, p6, p7, p8, p9, p2)
    b = sum(plane.astype(np.int32) for plane in seq[:-1])
    a = sum(((seq[i] == 0) & (seq[i + 1] == 1)).astype(np.int32) for i in range(8))
    if not second:
        cond = (p2 * p4 * p6 == 0) & (p4 * p6 * p8 == 0)
    else:
        cond = (p2 * p4 * p8 == 0) & (p2 * p6 * p8 == 0)
    return img & (b >= 2) & (b <= 6) & (a == 1) & cond


def random_blob(rng, step_bound, size=32):
    """A random connected blob grown from a seed pixel by 10 to
    `step_bound - 1` steps, each inking a random neighbour of a random ink
    cell. The ink cells are kept as sorted flat indices, the raster order
    of `np.argwhere`, so a draw picks the cell it would pick from
    `np.argwhere(img)`."""
    r, c = rng.integers(4, size - 4, 2).tolist()
    cells = [r * size + c]
    for _ in range(rng.integers(10, step_bound)):
        y, x = divmod(cells[rng.integers(len(cells))], size)
        dy, dx = rng.integers(-1, 2, 2).tolist()
        cell = min(max(y + dy, 0), size - 1) * size + min(max(x + dx, 0), size - 1)
        at = bisect.bisect_left(cells, cell)
        if at == len(cells) or cells[at] != cell:
            cells.insert(at, cell)
    img = np.zeros((size, size), dtype=bool)
    img.flat[cells] = True
    return img


def reference_crossing_number(skeleton):
    """Rutovitz crossing number per ink pixel by summing the transitions of
    adjacent neighbour planes; background pixels get 0."""
    ring = _neighbour_planes(skeleton)
    t = np.zeros(skeleton.shape, dtype=np.int32)
    for i in range(8):
        t += (ring[i] == 0) & (ring[(i + 1) % 8] == 1)
    t[~skeleton] = 0
    return t


def reference_protect_vanishing(img, deletions):
    """Keep the first raster pixel of any component a thinning pass would
    delete entirely, checking every component's mask against the deletions."""
    if not deletions.any():
        return deletions
    labels, count = ndimage.label(img, np.ones((3, 3)))
    for lab in range(1, count + 1):
        mask = labels == lab
        if np.array_equal(mask & deletions, mask):
            anchor = np.flatnonzero(mask.ravel())[0]
            deletions = deletions.copy()
            deletions.ravel()[anchor] = False
    return deletions


@functools.cache
def deletion_table(second):
    """The Zhang-Suen deletion test of the first or second subiteration,
    evaluated once at each of the 512 window codes of `window_codes` (bit
    3r + c for cell (r, c)), true only at an ink centre. Read-only."""
    codes = np.arange(512)
    shifts = np.array([3 * r + c for r, c in RING_OFFSETS])[:, None]
    p2, p3, p4, p5, p6, p7, p8, p9 = bits = codes >> shifts & 1
    transitions = ((bits == 0) & (np.roll(bits, -1, axis=0) == 1)).sum(axis=0)
    b = bits.sum(axis=0)
    table = (b >= 2) & (b <= 6) & (transitions == 1) & ((codes & 16) != 0)
    if not second:
        table &= (p2 * p4 * p6 == 0) & (p4 * p6 * p8 == 0)
    else:
        table &= (p2 * p4 * p8 == 0) & (p2 * p6 * p8 == 0)
    table.flags.writeable = False
    return table


def table_zhang_suen_pass(img, second):
    """Deletion mask of one Zhang-Suen subiteration by one table lookup per
    pixel, as the package ran it before it packed glyph rows into words. The
    last two axes are the image; leading axes stack images."""
    return deletion_table(second).take(window_codes(img))


def reference_thin(img):
    """Zhang-Suen to fixpoint: the table deletion pass, the reference
    vanishing guard."""
    img = img.copy()
    while True:
        changed = False
        for second in (False, True):
            deletions = reference_protect_vanishing(img, table_zhang_suen_pass(img, second))
            if deletions.any():
                img[deletions] = False
                changed = True
        if not changed:
            return img


def rotated_extent(h, w, angle_deg):
    """(height, width) of the smallest canvas that holds an h x w image
    rotated by `angle_deg`."""
    rad = math.radians(angle_deg)
    c, s = abs(math.cos(rad)), abs(math.sin(rad))
    return math.ceil(h * c + w * s), math.ceil(w * c + h * s)


def _rotate_nearest(img, angle_deg):
    """Rotate a binary image about its center, nearest-neighbor sampling."""
    src_y, src_x = _full_canvas_inverse_map(img.shape, img.shape, angle_deg)
    iy = np.rint(src_y).astype(np.int64)
    ix = np.rint(src_x).astype(np.int64)
    inside = (iy >= 0) & (iy < img.shape[0]) & (ix >= 0) & (ix < img.shape[1])
    out = np.zeros(img.shape, dtype=bool)
    out[inside] = img[iy[inside], ix[inside]]
    return out


def reference_detect_skew(page):
    """Skew by rotating the whole page: pad it to its 15-degree extent, undo
    each candidate angle with nearest-neighbour sampling and maximize the
    variance of the row profile. Same sweeps and tie order as the package."""
    pad_shape = rotated_extent(*page.shape, MAX_SKEW_DEG)
    canvas = np.zeros(pad_shape, dtype=bool)
    oy = (pad_shape[0] - page.shape[0]) // 2
    ox = (pad_shape[1] - page.shape[1]) // 2
    canvas[oy : oy + page.shape[0], ox : ox + page.shape[1]] = page

    def score(tenths):
        rotated = _rotate_nearest(canvas, -tenths / 10.0)
        return float(np.var(rotated.sum(axis=1, dtype=np.int64)))

    def sweep(candidates):
        ordered = sorted(candidates, key=lambda t: (abs(t), t >= 0 and t != 0))
        best, best_score = None, -1.0
        for t in ordered:
            s = score(t)
            if s > best_score:
                best, best_score = t, s
        return best

    coarse = sweep(range(-150, 151, 5))
    fine = sweep(range(max(coarse - 5, -150), min(coarse + 5, 150) + 1))
    return fine / 10.0


def reference_otsu_threshold(img):
    """Smallest t in [0, 254] maximizing the between-class variance
    w0 * w1 * (mu0 - mu1)^2, both classes scored from their own pixels under
    one mask per threshold (a threshold that leaves a class empty scores 0).
    An image of a single intensity is UniformImageError."""
    pixels = np.asarray(img, dtype=np.int64).ravel()
    if np.unique(pixels).size < 2:
        raise UniformImageError("image has a single intensity; cannot binarize")
    n = pixels.size
    best_t, best_sigma = 0, -1.0
    for t in range(255):
        low = pixels <= t
        count = int(np.count_nonzero(low))
        sigma = 0.0
        if 0 < count < n:
            mu0 = int(pixels[low].sum()) / count
            mu1 = int(pixels[~low].sum()) / (n - count)
            sigma = count / n * ((n - count) / n) * (mu0 - mu1) ** 2
        if sigma > best_sigma:
            best_t, best_sigma = t, sigma
    return best_t


def reference_median_filter(img):
    """3x3 edge-padded median as `np.median` over sliding windows, a float64
    result cast back to uint8."""
    padded = np.pad(img, 1, mode="edge")
    windows = sliding_window_view(padded, (3, 3))
    return np.median(windows, axis=(2, 3)).astype(np.uint8)


def _full_canvas_inverse_map(out_shape, in_shape, angle_deg):
    """Every destination pixel centre mapped back into source coordinates."""
    rad = math.radians(angle_deg)
    cos, sin = math.cos(rad), math.sin(rad)
    out_h, out_w = out_shape
    in_h, in_w = in_shape
    cy_out, cx_out = (out_h - 1) / 2.0, (out_w - 1) / 2.0
    cy_in, cx_in = (in_h - 1) / 2.0, (in_w - 1) / 2.0
    ys, xs = np.mgrid[0:out_h, 0:out_w].astype(np.float64)
    dy = ys - cy_out
    dx = xs - cx_out
    # content rotates by +angle; sample source with the inverse rotation
    src_x = cos * dx + sin * dy + cx_in
    src_y = -sin * dx + cos * dy + cy_in
    return src_y, src_x


def _cubic_kernel(x: np.ndarray) -> np.ndarray:
    """Keys bicubic convolution kernel with a = -0.5 (4-point support)."""
    x = np.abs(x)
    out = np.zeros_like(x)
    near = x <= 1.0
    far = (x > 1.0) & (x < 2.0)
    out[near] = 1.5 * x[near] ** 3 - 2.5 * x[near] ** 2 + 1.0
    out[far] = -0.5 * x[far] ** 3 + 2.5 * x[far] ** 2 - 4.0 * x[far] + 2.0
    return out


def _taps(centers: np.ndarray):
    """(unclamped index, Keys kernel weight) of each of the 4 taps around `centers`."""
    base = np.floor(centers).astype(np.int64)
    for tap in range(-1, 3):
        idx = base + tap
        yield idx, _cubic_kernel(centers - idx)


def _full_canvas_gather(src, src_y, src_x):
    """Keys bicubic interpolation of a float source at every coordinate at
    once: 16 taps, each a full-canvas index, weight and value array."""
    padded = np.pad(src, 1)
    acc = np.zeros(src_y.shape, dtype=np.float64)
    for ty, wy in _taps(src_y):
        rows = np.clip(ty, -1, src.shape[0]) + 1
        for tx, wx in _taps(src_x):
            acc += wy * wx * padded[rows, np.clip(tx, -1, src.shape[1]) + 1]
    return acc


def reference_rotate_bicubic(img, angle_deg):
    """Bicubic rotation of a binary image over the whole output canvas in
    one pass, re-binarized at 0.5; the output is enlarged to hold all
    rotated content."""
    img = np.asarray(img).astype(bool)
    out_shape = rotated_extent(*img.shape, angle_deg)
    src_y, src_x = _full_canvas_inverse_map(out_shape, img.shape, angle_deg)
    values = _full_canvas_gather(img.astype(np.float64), src_y, src_x)
    return values >= 0.5


def _resample_axis(values: np.ndarray, out_len: int, axis: int) -> np.ndarray:
    """1-D Keys bicubic resample along one axis with edge-clamped taps."""
    in_len = values.shape[axis]
    scale = in_len / out_len
    centers = (np.arange(out_len) + 0.5) * scale - 0.5
    moved = np.moveaxis(values, axis, 0)
    acc = np.zeros((out_len,) + moved.shape[1:], dtype=np.float64)
    for idx, w in _taps(centers):
        idx = np.clip(idx, 0, in_len - 1)
        acc += w.reshape((-1,) + (1,) * (moved.ndim - 1)) * moved[idx]
    return np.moveaxis(acc, 0, axis)


def reference_normalize_size(crop):
    """One binary crop resampled alone to 32x32: axis 0, then axis 1, then
    re-binarized at 0.5."""
    field = np.asarray(crop).astype(np.float64)
    field = _resample_axis(field, NORMALIZED_SIZE, axis=0)
    field = _resample_axis(field, NORMALIZED_SIZE, axis=1)
    return field >= 0.5


def reference_segment_characters(strip):
    """(left, top, width, height, crop) of every 8-connected component of at
    least MIN_COMPONENT_AREA pixels, one whole-strip comparison per
    component, ordered by left edge, then top, then raster order of the
    component's first pixel."""
    labels, count = ndimage.label(strip, structure=np.ones((3, 3)))
    out = []
    for lab in range(1, count + 1):
        mask = labels == lab
        if mask.sum() < MIN_COMPONENT_AREA:
            continue
        rows = np.flatnonzero(mask.any(axis=1))
        cols = np.flatnonzero(mask.any(axis=0))
        top, left = rows[0], cols[0]
        crop = mask[top : rows[-1] + 1, left : cols[-1] + 1]
        out.append((int(left), int(top), crop.shape[1], crop.shape[0], crop))
    return sorted(out, key=lambda rec: rec[:2])


def fold_scalings(run, *args, **kwargs):
    """Call `run`, such as `modelsel.cross_validate`, and return its result
    with the `MinMaxScaling` of every `MinMaxScaling.fit` call it made, in
    call order: one per fold, fitted on the fold's training side."""
    fitted = []
    fit = MinMaxScaling.fit

    def recording_fit(cls, X):
        fitted.append(fit(X))
        return fitted[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MinMaxScaling, "fit", classmethod(recording_fit))
        return run(*args, **kwargs), fitted


def reference_crop_character(gray):
    """(left, top, width, height, crop) of one pre-segmented glyph cleaned
    alone: `reference_median_filter` and `reference_otsu_threshold` (ink at
    or below it), then scipy's 8-connected labelling, components under
    MIN_COMPONENT_AREA pixels dropped and the tight box of the rest. A glyph
    with no larger component is EmptyCropError."""
    filtered = reference_median_filter(gray)
    binary = filtered <= reference_otsu_threshold(filtered)
    labels, _ = ndimage.label(binary, structure=np.ones((3, 3)))
    keep = binary & (np.bincount(labels.ravel()) >= MIN_COMPONENT_AREA)[labels]
    if not keep.any():
        raise EmptyCropError("no component of sufficient area")
    rows = np.flatnonzero(keep.any(axis=1))
    cols = np.flatnonzero(keep.any(axis=0))
    crop = keep[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
    return int(cols[0]), int(rows[0]), crop.shape[1], crop.shape[0], crop


def reference_feature_row(skeleton, width, height, config):
    """The feature values of one thinned glyph whose box is width x height:
    zone counts cell by cell, then width / height, endpoints, cross points
    and branch points from `reference_crossing_number`."""
    c = config.cell_px
    zones = [
        int(skeleton[r : r + c, q : q + c].sum())
        for r in range(0, NORMALIZED_SIZE, c)
        for q in range(0, NORMALIZED_SIZE, c)
    ]
    crossings = reference_crossing_number(skeleton)
    endpoints, cross_points = (crossings == 1).sum(), (crossings >= 4).sum()
    branch_points = (crossings == 3).sum()
    return np.array(zones + [width / height, endpoints, cross_points, branch_points], float)


def reference_load_image_dataset(root, config):
    """`<root>/<class_label>/*.pgm` loaded one file at a time: every class
    directory listed first, then each file read, cropped
    (`reference_crop_character`), resampled (`reference_normalize_size`),
    thinned (`reference_thin`) and reduced (`reference_feature_row`) before
    the next is read. The first file that cannot be read or cropped is
    UnreadableFileError naming it."""
    root = str(root)
    labels = sorted(
        (e for e in os.listdir(root) if os.path.isdir(os.path.join(root, e))), key=class_sort_key
    )
    if not labels:
        raise EmptyClassError(f"{root}: no class directories")
    files = []
    for label in labels:
        class_dir = os.path.join(root, label)
        names = sorted(f for f in os.listdir(class_dir) if f.lower().endswith(".pgm"))
        if not names:
            raise EmptyClassError(f"{class_dir}: no .pgm files")
        files += [(label, os.path.join(class_dir, name)) for name in names]
    rows = []
    for _, path in files:
        try:
            _, _, width, height, crop = reference_crop_character(read_pgm(path))
        except (EmptyCropError, UniformImageError) as exc:
            raise UnreadableFileError(f"{path}: {exc}") from exc
        skeleton = reference_thin(reference_normalize_size(crop))
        rows.append(reference_feature_row(skeleton, width, height, config))
    return Dataset(np.array(rows), [label for label, _ in files])
