"""Page-to-glyph preprocessing: denoise, binarize, deskew, segment, normalize, thin.

Images are plain numpy arrays: grayscale pages are 2-D uint8 (0-255), binary
images are 2-D bool where True marks ink (dark foreground).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AngleOutOfRangeError,
    EmptyCropError,
    EmptyPageError,
    NonFiniteInputError,
    UniformImageError,
    WrongDimensionsError,
)

NORMALIZED_SIZE = 32
MIN_COMPONENT_AREA = 5
MAX_SKEW_DEG = 15.0


@dataclass(frozen=True)
class BoundingBox:
    """Tight pixel box: inclusive top-left corner plus extent."""

    left: int
    top: int
    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"degenerate bounding box {self}")


@dataclass
class CharacterRecord:
    """One segmented character with its normalized and thinned bitmaps."""

    bbox: BoundingBox
    crop: np.ndarray
    normalized: np.ndarray
    skeleton: np.ndarray

    def validate(self) -> None:
        n = NORMALIZED_SIZE
        if self.normalized.shape != (n, n) or self.skeleton.shape != (n, n):
            raise WrongDimensionsError("normalized/skeleton must be 32x32")
        if self.crop.shape != (self.bbox.height, self.bbox.width):
            raise ValueError("crop dimensions disagree with bounding box")
        if np.any(self.skeleton & ~self.normalized):
            raise ValueError("skeleton foreground escapes normalized foreground")


def _check_gray(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.ndim != 2 or img.shape[0] < 1 or img.shape[1] < 1:
        raise WrongDimensionsError("expected a 2-D grayscale image")
    if img.dtype != np.uint8:
        if not np.isfinite(img).all():
            raise NonFiniteInputError("intensities must be finite")
        if img.min() < 0 or img.max() > 255:
            raise ValueError("intensities must lie in [0, 255]")
        img = img.astype(np.uint8)
    return img


def _check_binary(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.ndim != 2:
        raise WrongDimensionsError("expected a 2-D binary image")
    return img.astype(bool)


# Paeth's median-of-9 network (Graphics Gems, 1990): after these
# compare-exchanges of the 3x3 window, slot 4 holds its fifth smallest value
_MEDIAN9 = (
    (1, 2), (4, 5), (7, 8), (0, 1), (3, 4), (6, 7), (1, 2), (4, 5), (7, 8),
    (0, 3), (5, 8), (4, 7), (3, 6), (1, 4), (2, 5), (4, 7), (4, 2), (6, 4), (4, 2),
)


def median_filter(img: np.ndarray) -> np.ndarray:
    """3x3 median with replicate (edge) padding; output keeps input dimensions.

    Selects each window's median with a fixed network of elementwise
    min/max exchanges over the nine shifted planes.
    """
    img = _check_gray(img)
    h, w = img.shape
    padded = np.pad(img, 1, mode="edge")
    planes = [padded[r : r + h, c : c + w] for r in range(3) for c in range(3)]
    for i, j in _MEDIAN9:
        planes[i], planes[j] = np.minimum(planes[i], planes[j]), np.maximum(planes[i], planes[j])
    return planes[4]


def otsu_binarize(img: np.ndarray):
    """Global Otsu threshold.

    Returns (threshold, binary) where the binary image marks pixels with
    intensity <= threshold as foreground (ink is dark). The threshold is the
    smallest t in [0, 254] maximizing the between-class variance of the
    256-bin histogram.
    """
    img = _check_gray(img)
    hist = np.bincount(img.ravel(), minlength=256).astype(np.float64)
    if np.count_nonzero(hist) < 2:
        raise UniformImageError("image has a single intensity; cannot binarize")

    total = hist.sum()
    weights = np.cumsum(hist)  # pixels with intensity <= t
    moments = np.cumsum(hist * np.arange(256))
    w0 = weights[:-1] / total
    w1 = 1.0 - w0
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = np.where(weights[:-1] > 0, moments[:-1] / weights[:-1], 0.0)
        mu1 = np.where(
            total - weights[:-1] > 0,
            (moments[-1] - moments[:-1]) / (total - weights[:-1]),
            0.0,
        )
    sigma_b = np.where(
        (w0 > 0) & (w1 > 0), w0 * w1 * (mu0 - mu1) ** 2, 0.0
    )
    threshold = int(np.argmax(sigma_b))  # first maximizer = smallest t
    return threshold, img <= threshold


# --- rotation -------------------------------------------------------------

def _cubic_kernel(x: np.ndarray) -> np.ndarray:
    """Keys bicubic convolution kernel with a = -0.5 (4-point support)."""
    x = np.abs(x)
    out = np.zeros_like(x)
    near = x <= 1.0
    far = (x > 1.0) & (x < 2.0)
    out[near] = 1.5 * x[near] ** 3 - 2.5 * x[near] ** 2 + 1.0
    out[far] = -0.5 * x[far] ** 3 + 2.5 * x[far] ** 2 - 4.0 * x[far] + 2.0
    return out


def _rotated_extent(h: int, w: int, angle_deg: float):
    rad = math.radians(angle_deg)
    c, s = abs(math.cos(rad)), abs(math.sin(rad))
    return int(math.ceil(h * c + w * s)), int(math.ceil(w * c + h * s))


def _inverse_map(out_shape, in_shape, angle_deg: float, rows: slice = slice(None)):
    """Destination pixel centers of the output `rows` mapped back into source
    coordinates."""
    rad = math.radians(angle_deg)
    cos, sin = math.cos(rad), math.sin(rad)
    out_h, out_w = out_shape
    in_h, in_w = in_shape
    cy_out, cx_out = (out_h - 1) / 2.0, (out_w - 1) / 2.0
    cy_in, cx_in = (in_h - 1) / 2.0, (in_w - 1) / 2.0
    dy = np.arange(out_h, dtype=np.float64)[rows, None] - cy_out
    dx = np.arange(out_w, dtype=np.float64) - cx_out
    # content rotates by +angle; sample source with the inverse rotation
    src_x = cos * dx + sin * dy + cx_in
    src_y = -sin * dx + cos * dy + cy_in
    return src_y, src_x


def _taps(centers: np.ndarray):
    """(unclamped index, Keys kernel weight) arrays of the 4 taps around
    `centers`, left to right along a new first axis. One kernel call weighs
    all four taps at once."""
    base = np.floor(centers).astype(np.int64)
    idx = base + np.arange(-1, 3).reshape((4,) + (1,) * base.ndim)
    return idx, _cubic_kernel(centers - idx)


def _bicubic_gather(padded: np.ndarray, src_y: np.ndarray, src_x: np.ndarray) -> np.ndarray:
    """Evaluate Keys bicubic interpolation at fractional source coords.

    `padded` is the source with a ring of zeros; it may be bool, which reads
    as 1.0 and 0.0. Samples outside the source read as 0: taps clamp onto
    the ring.
    """
    cols = [(np.clip(tx + 1, 0, padded.shape[1] - 1), wx) for tx, wx in zip(*_taps(src_x))]
    acc = np.zeros(src_y.shape, dtype=np.float64)
    for ty, wy in zip(*_taps(src_y)):
        rows = np.clip(ty + 1, 0, padded.shape[0] - 1)
        for col, wx in cols:
            acc += wy * wx * padded[rows, col]
    return acc


# output rows mapped at once: a band bounds the coordinate arrays and the 16
# taps' temporaries (about 150 bytes per active pixel) where a canvas would not
_BAND_ROWS = 32


def rotate_bicubic(img: np.ndarray, angle_deg: float) -> np.ndarray:
    """Rotate a binary image with bicubic interpolation, re-binarized at 0.5.

    The output canvas is enlarged to hold all rotated content. It is mapped
    in bands of rows, and a pixel is decided by the inner 2x2 of its 4x4
    source taps. Each Keys outer weight lies in [-0.0741, 0] and the two of
    an axis sum to at least -0.125, so with every inner tap inked the value
    is at least 1 - 0.125**2 whatever the outer taps hold, and with none
    inked at most 0.125**2: such pixels are True and False without being
    computed. Only pixels whose inner taps are mixed are interpolated.
    """
    img = _check_binary(img)
    if not math.isfinite(angle_deg):
        raise AngleOutOfRangeError(f"rotation angle {angle_deg} is not finite")
    out = np.zeros(_rotated_extent(*img.shape, angle_deg), dtype=bool)
    padded = np.pad(img, 1)
    # window[by + 3, bx + 3] classes rows by..by+1, columns bx..bx+1:
    # 0 no ink, 1 mixed, 2 all ink
    cells = np.pad(img, 3)
    some = cells[:-1] | cells[1:]
    every = cells[:-1] & cells[1:]
    window = (some[:, :-1] | some[:, 1:]).view(np.uint8) + (every[:, :-1] & every[:, 1:])
    for top in range(0, out.shape[0], _BAND_ROWS):
        band = slice(top, top + _BAND_ROWS)
        src_y, src_x = _inverse_map(out.shape, img.shape, angle_deg, band)
        by = np.clip(np.floor(src_y), -3, img.shape[0] + 1).astype(np.intp) + 3
        bx = np.clip(np.floor(src_x), -3, img.shape[1] + 1).astype(np.intp) + 3
        cls = window[by, bx]
        mixed = cls == 1
        out[band] = cls == 2
        out[band][mixed] = _bicubic_gather(padded, src_y[mixed], src_x[mixed]) >= 0.5
    return out


def detect_skew(page: np.ndarray) -> float:
    """Estimate page skew in degrees within +/-15.

    Rotates the ink pixels about the page centre by minus each candidate
    angle and projects them onto rows. The ink count is the same at every
    angle, so the sum of squared row counts ranks angles as the variance of
    the projection profile does. Coarse 0.5-degree sweep, then a 0.1-degree
    sweep in a +/-0.5 window. Ties prefer angles closer to 0, then negative
    ones.
    """
    page = _check_binary(page)
    if not page.any():
        raise EmptyPageError("cannot detect skew on a blank page")
    ys, xs = np.nonzero(page)
    # an integer centre keeps rows whole at 0 degrees; about a half-integer
    # one, rounding half to even would merge pairs of rows
    ys = ys - page.shape[0] // 2
    xs = xs - page.shape[1] // 2

    def score(tenths: int) -> int:
        rad = math.radians(-tenths / 10.0)
        rows = np.rint(math.sin(rad) * xs + math.cos(rad) * ys).astype(np.int64)
        counts = np.bincount(rows - rows.min())
        return int(counts @ counts)

    def sweep(candidates) -> int:
        # tie preference: smaller |angle| first, negative before positive
        ordered = sorted(candidates, key=lambda t: (abs(t), t >= 0 and t != 0))
        best, best_score = None, -1
        for t in ordered:
            s = score(t)
            if s > best_score:
                best, best_score = t, s
        return best

    coarse = sweep(range(-150, 151, 5))
    lo = max(coarse - 5, -150)
    hi = min(coarse + 5, 150)
    fine = sweep(range(lo, hi + 1))
    return fine / 10.0


def deskew(page: np.ndarray, angle_deg: float) -> np.ndarray:
    """Undo a detected skew by rotating the page by -angle with bicubic sampling.

    The output canvas is enlarged to hold all rotated content; regions the
    source never covered are background. Only pixels whose 4x4 source window
    holds ink are interpolated; the rest would sum to +-0 (`rotate_bicubic`).
    """
    page = _check_binary(page)
    if abs(angle_deg) > MAX_SKEW_DEG:
        raise AngleOutOfRangeError(f"|{angle_deg}| exceeds {MAX_SKEW_DEG} degrees")
    return rotate_bicubic(page, -angle_deg)


# --- segmentation ---------------------------------------------------------

def _runs(mask: np.ndarray):
    """Row, start and exclusive end of every run of True along the rows of a
    2-D mask, in raster order."""
    edges = np.diff(np.pad(mask, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    rows, starts = np.nonzero(edges == 1)
    return rows, starts, np.nonzero(edges == -1)[1]


def segment_lines(page: np.ndarray) -> list[tuple[int, int]]:
    """Split a page into text-line row intervals (inclusive, top to bottom).

    Lines are maximal runs of rows with any ink; runs holding several profile
    peaks (touching lines) are split at the minimum-count row between peaks.
    A peak row carries more than half of the run's maximum row count.
    """
    page = _check_binary(page)
    counts = page.sum(axis=1, dtype=np.int64)
    intervals: list[tuple[int, int]] = []
    _, starts, ends = _runs(counts[None] > 0)
    for start, end in zip(starts.tolist(), ends.tolist()):
        intervals.extend(_split_run(counts, start, end - 1))
    return intervals


def _split_run(counts: np.ndarray, start: int, end: int) -> list[tuple[int, int]]:
    run = counts[start : end + 1]
    _, peak_starts, peak_ends = _runs(run[None] > run.max() / 2.0)
    bounds = [start]
    for valley_start, valley_end in zip(peak_ends[:-1].tolist(), peak_starts[1:].tolist()):
        bounds.append(start + valley_start + int(np.argmin(run[valley_start:valley_end])))
    bounds.append(end + 1)
    return [(lo, hi - 1) for lo, hi in zip(bounds, bounds[1:])]


def label_components(img: np.ndarray):
    """8-connected component labeling. Returns (labels int array, count).

    Labels are assigned in raster-scan order of each component's first pixel,
    starting at 1; background stays 0. Works on row runs (He, Chao & Suzuki,
    2008): a run links to the runs of the next row that overlap it widened by
    one column. Links hook the larger root under the smaller until no link
    joins two roots, so each component's root is its first raster run.
    """
    img = _check_binary(img)
    rows, starts, ends = _runs(img)
    width = img.shape[1] + 2  # exceeds every run start and end in a row
    key = rows * width
    # the next row's runs that touch a run form one slice [lo, hi)
    lo = np.searchsorted(key + ends, key + width + starts, side="left")
    hi = np.searchsorted(key + starts, key + width + ends, side="right")
    links = np.maximum(hi - lo, 0)
    runs = np.arange(len(starts))
    upper = np.repeat(runs, links)
    lower = np.arange(len(upper)) - np.repeat(np.cumsum(links) - links - lo, links)
    parent = runs.copy()
    while True:
        root_u, root_l = parent[upper], parent[lower]
        if np.array_equal(root_u, root_l):
            break
        low = np.minimum(root_u, root_l)
        np.minimum.at(parent, root_u, low)
        np.minimum.at(parent, root_l, low)
        parent = parent[parent]
    is_root = parent == runs
    labels = np.zeros(img.shape, dtype=np.int32)
    labels[img] = np.repeat(np.cumsum(is_root, dtype=np.int32)[parent], ends - starts)
    return labels, int(is_root.sum())


def _raw_record(mask: np.ndarray) -> CharacterRecord:
    """The tight bounding box of the ink in `mask` and the crop inside it."""
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    top, bottom = int(rows[0]), int(rows[-1])
    left, right = int(cols[0]), int(cols[-1])
    bbox = BoundingBox(left=left, top=top, width=right - left + 1, height=bottom - top + 1)
    crop = mask[top : bottom + 1, left : right + 1]
    return CharacterRecord(bbox=bbox, crop=crop, normalized=None, skeleton=None)


def segment_characters(line: np.ndarray) -> list[CharacterRecord]:
    """Extract connected components of a line strip as raw character records.

    Components smaller than MIN_COMPONENT_AREA pixels are dropped as noise.
    Records hold the tight bounding box and the component's own pixels;
    `normalized` and `skeleton` are filled by the caller. Ordered by left
    edge, then top. One pass over the labelled ink finds every component's
    row and column extent, and each crop compares only its own box.
    """
    line = _check_binary(line)
    labels, count = label_components(line)
    ys, xs = np.nonzero(labels)
    owner = labels[ys, xs]
    areas = np.bincount(owner, minlength=count + 1)
    top, left = np.full((2, count + 1), max(line.shape))
    bottom, right = np.full((2, count + 1), -1)
    np.minimum.at(top, owner, ys)
    np.maximum.at(bottom, owner, ys)
    np.minimum.at(left, owner, xs)
    np.maximum.at(right, owner, xs)
    records = []
    for lab in (np.flatnonzero(areas[1:] >= MIN_COMPONENT_AREA) + 1).tolist():
        t, b, lf, rt = int(top[lab]), int(bottom[lab]), int(left[lab]), int(right[lab])
        bbox = BoundingBox(left=lf, top=t, width=rt - lf + 1, height=b - t + 1)
        crop = labels[t : b + 1, lf : rt + 1] == lab
        records.append(CharacterRecord(bbox=bbox, crop=crop, normalized=None, skeleton=None))
    records.sort(key=lambda rec: (rec.bbox.left, rec.bbox.top))
    return records


# --- normalization and thinning -------------------------------------------

# values of the flat layout that `normalize_size` resamples at once: crop
# pixels plus 32 axis-0 values per crop column. Temporaries take about 40
# bytes per value, so a block bounds them near 1 MB where a page of crops
# would take 14 MB; smaller blocks were no faster, larger ones slower.
_RESAMPLE_BLOCK = 1 << 14


def normalize_size(crops):
    """Bicubic resample of binary crops to NORMALIZED_SIZE pixels square,
    re-binarized at 0.5.

    Takes one 2-D crop and returns one 32x32 image, or a list or tuple of
    crops and returns a (k, 32, 32) stack. Each axis scales independently;
    the aspect ratio is intentionally not preserved (it survives separately
    as a global feature). An empty or inkless crop is EmptyCropError.

    Consecutive crops are resampled in blocks of about `_RESAMPLE_BLOCK`
    values (`_resample_block`), so temporaries scale with a block's total
    crop area, not with the number of crops times the largest one.
    """
    single = not isinstance(crops, (list, tuple))
    crops = [_check_binary(crop) for crop in ([crops] if single else crops)]
    if any(crop.size == 0 or not crop.any() for crop in crops):
        raise EmptyCropError("cannot normalize an empty crop")
    n = NORMALIZED_SIZE
    out = np.empty((len(crops), n, n), dtype=bool)
    start, size = 0, 0
    for end, crop in enumerate(crops, 1):
        size += crop.size + n * crop.shape[1]
        if size >= _RESAMPLE_BLOCK or end == len(crops):
            out[start:end] = _resample_block(crops[start:end])
            start, size = end, 0
    return out[0] if single else out


def _resample_block(crops: list[np.ndarray]) -> np.ndarray:
    """Keys resample of non-empty binary crops to a (k, 32, 32) stack.

    Taps with edge-clamped indices run along axis 0, then along axis 1, with
    the taps of every crop and both axes from one `_taps` call. The crops,
    and their (32, width) axis-0 results, lie flat end to end. Every output
    pixel sums its four taps in the order a crop resampled alone would.
    """
    n = NORMALIZED_SIZE
    h, w = np.array([crop.shape for crop in crops]).T
    # the taps around the output pixel centres, edge-clamped: index and
    # weight (4, 2, k, n), by tap, axis, crop and output position
    sizes = np.stack((h, w))[..., None]
    index, weight = _taps((np.arange(n) + 0.5) * (sizes / n) - 0.5)
    index = np.minimum(np.maximum(index, 0), sizes - 1)
    # axis 0: crop g's (n, w_g) result holds, at (r, c), the sum over taps t
    # of weight[t, 0, g, r] * crop_g[index[t, 0, g, r], c], row after row
    flat = np.concatenate([crop.ravel() for crop in crops]).astype(np.float64)
    line_len = np.repeat(w, n)
    line_start = np.cumsum(line_len) - line_len
    within = np.arange(line_start[-1] + line_len[-1]) - np.repeat(line_start, line_len)
    src_rows = ((np.cumsum(h * w) - h * w)[:, None] + index[:, 0] * w[:, None]).reshape(4, -1)
    mid = np.zeros(len(within))
    for src, tap_weight in zip(src_rows, weight[:, 0].reshape(4, -1)):
        values = flat[np.repeat(src, line_len) + within]
        values *= np.repeat(tap_weight, line_len)
        mid += values
    # axis 1: at (g, r, c) the sum over taps t of
    # weight[t, 1, g, c] * mid_g[r, index[t, 1, g, c]]
    mid_rows = line_start.reshape(-1, n, 1)
    out = np.zeros((len(crops), n, n))
    for cols, tap_weight in zip(index[:, 1], weight[:, 1]):
        out += tap_weight[:, None, :] * mid[mid_rows + cols[:, None, :]]
    return out >= 0.5


# (row, column) of the neighbors N, NE, E, SE, S, SW, W, NW in a 3x3 window
_RING = ((0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0), (1, 0), (0, 0))


def window_codes(img: np.ndarray) -> np.ndarray:
    """One uint16 per pixel whose bit 3r + c is set when cell (r, c) of the
    pixel's 3x3 window is ink, so bit 4 is the pixel itself. Cells off the
    image count as background. The last two axes are the image; leading axes
    stack independent images."""
    *lead, h, w = img.shape
    cells = np.zeros((*lead, h, w + 2), dtype=np.uint16)
    cells[..., 1:-1] = img
    # bit c of a row code: column c of the window on the pixel's own row
    rows = cells[..., :-2] | cells[..., 1:-1] << 1 | cells[..., 2:] << 2
    codes = rows << 3
    codes[..., 1:, :] |= rows[..., :-1, :]
    codes[..., :-1, :] |= rows[..., 1:, :] << 6
    return codes


def _rule_tables():
    """Every 3x3 rule, evaluated once over all 512 window codes.

    TRANSITIONS[code] is the Rutovitz crossing number of an ink centre, the
    0-to-1 transitions around its circular neighborhood, and 0 for a
    background centre; _DELETABLE[second][code] is the Zhang-Suen deletion
    test of the first or second subiteration, true only at an ink centre.
    """
    codes = np.arange(512)
    shifts = np.array([3 * r + c for r, c in _RING])[:, None]
    p2, p3, p4, p5, p6, p7, p8, p9 = bits = codes >> shifts & 1
    transitions = ((bits == 0) & (np.roll(bits, -1, axis=0) == 1)).sum(axis=0, dtype=np.int32)
    transitions[(codes & 16) == 0] = 0  # bit 4, the centre, is background
    b = bits.sum(axis=0)
    thinnable = (b >= 2) & (b <= 6) & (transitions == 1)
    first = thinnable & (p2 * p4 * p6 == 0) & (p4 * p6 * p8 == 0)
    second = thinnable & (p2 * p4 * p8 == 0) & (p2 * p6 * p8 == 0)
    return transitions, (first, second)


TRANSITIONS, _DELETABLE = _rule_tables()


def _zhang_suen_pass(img: np.ndarray, second: bool) -> np.ndarray:
    """Deletion mask for one Zhang-Suen subiteration."""
    return _DELETABLE[second].take(window_codes(img))


def _protect_vanishing(imgs: np.ndarray, deletions: np.ndarray) -> np.ndarray:
    """Keep one pixel of any component the pass would delete entirely, in
    every image of a (k, h, w) stack; `deletions` is updated in place.

    Classic Zhang-Suen erases isolated 2x2 squares; retaining the component's
    first raster pixel keeps the component count invariant. A deleted pixel
    with a surviving 8-neighbour lies in that survivor's component, so a
    component can vanish only if some deleted pixel has no surviving
    neighbour. One test over the stack finds the images where that happens,
    and only their components are labelled.
    """
    survivors = imgs & ~deletions
    at_risk = (deletions & (window_codes(survivors) == 0)).any(axis=(1, 2))
    for g in at_risk.nonzero()[0]:
        labels, count = label_components(imgs[g])
        alive = np.bincount(labels[survivors[g]], minlength=count + 1)
        for lab in np.flatnonzero(alive[1:] == 0) + 1:
            deletions[g].flat[np.argmax(labels.ravel() == lab)] = False
    return deletions


def _zhang_suen_stack(stack: np.ndarray) -> np.ndarray:
    """Zhang-Suen two-subiteration thinning to fixpoint of every image of a
    (k, h, w) stack, stepped in lockstep.

    Each subiteration computes one deletion mask for the live images. An
    image leaves the live stack after a full iteration deletes nothing, where
    thinning it alone would stop, so every image gets the passes it would get
    alone and later passes cover only the images still changing.
    """
    out = np.empty_like(stack)
    imgs = stack.copy()
    live = np.arange(len(stack))
    while len(live):
        changed = np.zeros(len(live), dtype=bool)
        for second in (False, True):
            deletions = _protect_vanishing(imgs, _zhang_suen_pass(imgs, second))
            imgs &= ~deletions
            changed |= deletions.any(axis=(1, 2))
        if not changed.all():
            out[live[~changed]] = imgs[~changed]
            imgs, live = imgs[changed], live[changed]
    return out


def zhang_suen(img: np.ndarray) -> np.ndarray:
    """Zhang-Suen two-subiteration thinning to fixpoint, any image size."""
    return _zhang_suen_stack(_check_binary(img)[None])[0]


# glyphs thinned at once: the lockstep passes keep about 14.3 KB of
# temporaries per glyph, so a batch bounds them where a whole dataset would not
_THIN_BATCH = 128


def thin(norm: np.ndarray) -> np.ndarray:
    """Thin 32x32 normalized characters to 1-pixel-wide skeletons.

    Takes one 32x32 image or a (k, 32, 32) stack and returns the same shape.
    A stack is thinned in lockstep, in batches of at most `_THIN_BATCH`
    glyphs.
    """
    norm = np.asarray(norm, dtype=bool)
    n = NORMALIZED_SIZE
    if norm.ndim not in (2, 3) or norm.shape[-2:] != (n, n):
        raise WrongDimensionsError(f"thin expects {n}x{n} images, got {norm.shape}")
    stack = norm.reshape(-1, n, n)
    out = np.empty_like(stack)
    for start in range(0, len(stack), _THIN_BATCH):
        batch = slice(start, start + _THIN_BATCH)
        out[batch] = _zhang_suen_stack(stack[batch])
    return out.reshape(norm.shape)


# --- full pipeline ---------------------------------------------------------

def finish_records(records: list[CharacterRecord]) -> list[CharacterRecord]:
    """Fill the normalized bitmaps of cropped records with one
    `normalize_size` call and their skeletons with one `thin` call."""
    stack = normalize_size([rec.crop for rec in records])
    for rec, normalized, skeleton in zip(records, stack, thin(stack)):
        rec.normalized, rec.skeleton = normalized, skeleton
    return records


def clean_page(gray: np.ndarray):
    """The cleaning stage of the page pipeline: median filter, Otsu, deskew.

    Returns (threshold, binary, angle, page): the Otsu threshold, the ink
    mask before deskewing, the detected skew in degrees and the deskewed
    ink mask.
    """
    threshold, binary = otsu_binarize(median_filter(gray))
    angle = detect_skew(binary)
    return threshold, binary, angle, deskew(binary, angle)


def segment_page(page: np.ndarray) -> list[CharacterRecord]:
    """The segmenting stage of the page pipeline: lines, characters, then
    normalize them all with one `normalize_size` call and thin them all with
    one `thin` call. Bounding boxes refer to `page`."""
    records: list[CharacterRecord] = []
    for top, bottom in segment_lines(page):
        strip = page[top : bottom + 1]
        for rec in segment_characters(strip):
            rec.bbox = replace(rec.bbox, top=rec.bbox.top + top)
            records.append(rec)
    return finish_records(records)


def preprocess_page(gray: np.ndarray) -> list[CharacterRecord]:
    """Run the full page pipeline: median filter, Otsu, deskew, segment, thin.

    Returns fully populated character records in reading order; bounding
    boxes refer to the deskewed page.
    """
    return segment_page(clean_page(gray)[3])


def preprocess_character(gray: np.ndarray) -> CharacterRecord:
    """Pipeline for a single pre-segmented character image: the record of
    `crop_character`, normalized and thinned (a one-record `finish_records`)."""
    return finish_records([crop_character(gray)])[0]


def crop_character(gray: np.ndarray) -> CharacterRecord:
    """A single pre-segmented character image up to its crop.

    Median filter and Otsu as on pages, then drop sub-threshold specks and
    take the tight box around the remaining ink; `normalized` and `skeleton`
    are left to the caller. Skew and line segmentation do not apply to
    isolated glyphs.
    """
    filtered = median_filter(gray)
    _, binary = otsu_binarize(filtered)
    labels, count = label_components(binary)
    kept = np.bincount(labels.ravel(), minlength=count + 1) >= MIN_COMPONENT_AREA
    kept[0] = False
    keep = kept[labels]
    if not keep.any():
        raise EmptyCropError("no component of sufficient area")
    return _raw_record(keep)
