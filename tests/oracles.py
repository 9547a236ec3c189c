"""Independent reference computations used by the unit and acceptance tests.

Nothing here shares code paths with the package: the dual oracle works from
raw objective evaluations (grid enumeration plus pairwise polish), and the
KKT check recomputes every decision value from scratch.
"""

import itertools
import math

import numpy as np
from scipy import ndimage

from glyphsvm.preprocess import (
    MAX_SKEW_DEG,
    _inverse_map,
    _rotated_extent,
    _zhang_suen_pass,
)
from glyphsvm.svm import decision_value, kernel_against, kernel_eval

GRID_POINTS = 11  # {0, C/10, ..., C}


def kernel_matrix(spec, X):
    n = len(X)
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            K[i, j] = kernel_eval(spec, X[i], X[j])
    return K


def reference_gram(spec, X):
    """The kernel matrix SMO read before the symmetric Gram matrix: row i is
    `kernel_against(spec, X, X[i])` over all of X, so it need not be
    symmetric bit for bit (one-vs-one built it per class pair)."""
    X = np.asarray(X, dtype=np.float64)
    return np.array([kernel_against(spec, X, x) for x in X]).reshape(len(X), len(X))


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
    """Largest per-point KKT violation, decisions recomputed from scratch."""
    alpha = recover_alpha(model, X, y)
    worst = 0.0
    for idx in range(len(y)):
        margin = y[idx] * decision_value(model, X[idx])
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


def reference_thin(img):
    """Zhang-Suen to fixpoint: the package's deletion pass, the reference
    vanishing guard."""
    img = img.copy()
    while True:
        changed = False
        for second in (False, True):
            deletions = reference_protect_vanishing(img, _zhang_suen_pass(img, second))
            if deletions.any():
                img[deletions] = False
                changed = True
        if not changed:
            return img


def _rotate_nearest(img, angle_deg):
    """Rotate a binary image about its center, nearest-neighbor sampling."""
    src_y, src_x = _inverse_map(img.shape, img.shape, angle_deg)
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
    pad_shape = _rotated_extent(*page.shape, MAX_SKEW_DEG)
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
