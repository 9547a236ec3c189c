"""Page-to-glyph preprocessing: denoise, binarize, deskew, segment, normalize, thin.

Images are plain numpy arrays: grayscale pages are 2-D uint8 (0-255), binary
images are 2-D bool where True marks ink (dark foreground). Median filter,
Otsu and component labelling also take a (k, H, W) stack of same-shaped
images and treat each image as if alone; cropping takes such a stack, and
normalization a list of crops. The 32x32 stages (thinning and the skeleton's
topology) take only a (k, 32, 32) stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AngleOutOfRangeError,
    EmptyCropError,
    EmptyPageError,
    UniformImageError,
    WrongDimensionsError,
)
from .pgm import check_gray

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


def _check_binary(img: np.ndarray, stack: bool = False) -> np.ndarray:
    """`img` as a 2-D bool image or, where `stack`, as a (k, H, W) stack of
    them. A bool array comes back as itself, not a copy: callers only read
    it."""
    img = np.asarray(img)
    if img.ndim != 2 and not (stack and img.ndim == 3):
        raise WrongDimensionsError("expected a 2-D binary image" + " or a stack" * stack)
    return img.astype(bool, copy=False)


def _check_grays(img) -> np.ndarray:
    """`img` as a 2-D grayscale image (`check_gray`) or as a non-empty
    (k, H, W) stack of them, checked as one."""
    img = np.asarray(img)
    if img.ndim == 3 and img.size:
        return check_gray(img.reshape(-1, img.shape[-1])).reshape(img.shape)
    return check_gray(img)


def check_glyphs(glyphs) -> np.ndarray:
    """`glyphs` as a (k, 32, 32) bool stack; any other shape, one 32x32
    image included, is WrongDimensionsError."""
    glyphs = np.asarray(glyphs, dtype=bool)
    n = NORMALIZED_SIZE
    if glyphs.ndim != 3 or glyphs.shape[1:] != (n, n):
        raise WrongDimensionsError(f"expected a (k, {n}, {n}) glyph stack, got {glyphs.shape}")
    return glyphs


def _median3(a, b, c):
    """The elementwise median of three arrays, max(min(a, b), min(max(a, b), c))."""
    low = np.minimum(a, b)
    high = np.maximum(a, b)
    np.minimum(high, c, out=high)
    return np.maximum(low, high, out=low)


def median_filter(img: np.ndarray) -> np.ndarray:
    """3x3 median with replicate (edge) padding; output keeps input dimensions.

    Takes one 2-D image or a (k, H, W) stack, filtered image by image.
    Selects each window's median with a min/max network (Smith, 1996): sort
    every vertical triple of the padded image once; the median of a window
    is then the median of its largest column minimum, the median of its
    column medians and its smallest column maximum. Each triple is shared by
    the three windows that hold it, so the network takes 18 elementwise
    minima and maxima of whole planes, and no more than five planes are
    alive at once.
    """
    img = _check_grays(img)
    h, w = img.shape[-2:]
    padded = np.empty(img.shape[:-2] + (h + 2, w + 2), dtype=np.uint8)
    padded[..., 1:-1, 1:-1] = img
    padded[..., 0, 1:-1] = img[..., 0, :]
    padded[..., -1, 1:-1] = img[..., -1, :]
    padded[..., 0] = padded[..., 1]
    padded[..., -1] = padded[..., -2]
    top, centre, bottom = padded[..., :-2, :], padded[..., 1:-1, :], padded[..., 2:, :]
    low = np.minimum(top, centre)
    high = np.maximum(top, centre)
    mid = np.minimum(high, bottom)
    np.maximum(mid, low, out=mid)  # each column's median
    np.minimum(low, bottom, out=low)  # minimum
    np.maximum(high, bottom, out=high)  # maximum
    del padded, top, centre, bottom
    left, centre, right = slice(0, w), slice(1, w + 1), slice(2, w + 2)
    most_low = np.maximum(low[..., left], low[..., centre])
    np.maximum(most_low, low[..., right], out=most_low)
    del low
    least_high = np.minimum(high[..., left], high[..., centre])
    np.minimum(least_high, high[..., right], out=least_high)
    del high
    mid = _median3(mid[..., left], mid[..., centre], mid[..., right])
    return _median3(most_low, mid, least_high)


def otsu_binarize(img: np.ndarray):
    """Global Otsu threshold.

    Returns (threshold, binary) where the binary image marks pixels with
    intensity <= threshold as foreground (ink is dark). The threshold is the
    smallest t in [0, 254] maximizing the between-class variance of the
    256-bin histogram. A (k, H, W) stack gives a (k,) array of thresholds,
    one per image, from its (k, 256) histograms: one `bincount` per image,
    which is no slower than one over intensity + 256 x image index and
    needs no 8-byte copy of the stack. An image of a single intensity is
    UniformImageError.
    """
    img = _check_grays(img)
    images = img.reshape(-1, img.shape[-2] * img.shape[-1])
    hist = np.stack([np.bincount(image, minlength=256) for image in images])
    if (hist.max(axis=1) == images.shape[1]).any():
        raise UniformImageError("image has a single intensity; cannot binarize")

    hist = hist.astype(np.float64)
    total = hist.sum(axis=1, keepdims=True)
    weights = np.cumsum(hist, axis=1)[:, :-1]  # pixels with intensity <= t
    moments = np.cumsum(hist * np.arange(256), axis=1)
    w0 = weights / total
    w1 = 1.0 - w0
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = np.where(weights > 0, moments[:, :-1] / weights, 0.0)
        mu1 = np.where(
            total - weights > 0,
            (moments[:, -1:] - moments[:, :-1]) / (total - weights),
            0.0,
        )
    sigma_b = np.where(
        (w0 > 0) & (w1 > 0), w0 * w1 * (mu0 - mu1) ** 2, 0.0
    )
    thresholds = np.argmax(sigma_b, axis=1)  # first maximizer = smallest t
    binary = img <= thresholds.astype(np.uint8).reshape(img.shape[:-2] + (1, 1))
    return (int(thresholds[0]) if img.ndim == 2 else thresholds), binary


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
    h, w = padded.shape
    flat = padded.ravel()
    cols = [(np.clip(tx + 1, 0, w - 1), wx) for tx, wx in zip(*_taps(src_x))]
    acc = np.zeros(src_y.shape, dtype=np.float64)
    for ty, wy in zip(*_taps(src_y)):
        row_start = np.clip(ty + 1, 0, h - 1) * w
        for col, wx in cols:
            acc += wy * wx * flat.take(row_start + col)
    return acc


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
    h, w = page.shape
    ys = (ys - h // 2).astype(np.float64)
    xs = (xs - w // 2).astype(np.float64)
    # every rotated row lies within +-bound, so row + bound indexes a count
    bound = math.ceil(math.hypot(h, w)) + 1

    def score(tenths: int) -> int:
        rad = math.radians(-tenths / 10.0)
        rows = np.rint(math.sin(rad) * xs + math.cos(rad) * ys).astype(np.int64)
        rows += bound
        counts = np.bincount(rows)
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


# output rows mapped at once: a band bounds the coordinate arrays and the 16
# taps' temporaries (about 150 bytes per active pixel) where a canvas would not
_BAND_ROWS = 32


def deskew(page: np.ndarray, angle_deg: float) -> np.ndarray:
    """Undo a detected skew: rotate the page by -angle with bicubic
    interpolation, re-binarized at 0.5.

    The output canvas is enlarged to hold all rotated content; regions the
    source never covered are background. It is mapped in bands of rows, and
    a pixel is decided by the inner 2x2 of its 4x4 source taps. Each Keys
    outer weight lies in [-0.0741, 0] and the two of an axis sum to at least
    -0.125, so with every inner tap inked the value is at least
    1 - 0.125**2 whatever the outer taps hold, and with none inked at most
    0.125**2: such pixels are True and False without being computed. Only
    pixels whose inner taps are mixed are interpolated. An angle beyond
    +-MAX_SKEW_DEG, or one that is not a number, is AngleOutOfRangeError.
    """
    page = _check_binary(page)
    if not abs(angle_deg) <= MAX_SKEW_DEG:
        raise AngleOutOfRangeError(f"skew {angle_deg} is not within +-{MAX_SKEW_DEG} degrees")
    rotation = -angle_deg
    out = np.zeros(_rotated_extent(*page.shape, rotation), dtype=bool)
    padded = np.pad(page, 1)
    # window[by + 3, bx + 3] classes rows by..by+1, columns bx..bx+1:
    # 0 no ink, 1 mixed, 2 all ink
    cells = np.pad(page, 3)
    some = cells[:-1] | cells[1:]
    every = cells[:-1] & cells[1:]
    window = (some[:, :-1] | some[:, 1:]).view(np.uint8) + (every[:, :-1] & every[:, 1:])
    for top in range(0, out.shape[0], _BAND_ROWS):
        band = slice(top, top + _BAND_ROWS)
        src_y, src_x = _inverse_map(out.shape, page.shape, rotation, band)
        by = np.clip(np.floor(src_y), -3, page.shape[0] + 1).astype(np.intp) + 3
        bx = np.clip(np.floor(src_x), -3, page.shape[1] + 1).astype(np.intp) + 3
        cls = window.ravel().take(by * window.shape[1] + bx)
        mixed = cls == 1
        out[band] = cls == 2
        out[band][mixed] = _bicubic_gather(padded, src_y[mixed], src_x[mixed]) >= 0.5
    return out


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
    starting at 1; background stays 0. A (k, H, W) stack is labelled as one
    image with a blank row after each image, so its labels number the
    components of image 0, then of image 1, and so on. Works on row runs
    (He, Chao & Suzuki, 2008): a run links to the runs of the next row that
    overlap it widened by one column. Links hook the larger root under the
    smaller until no link joins two roots, so each component's root is its
    first raster run.
    """
    img = _check_binary(img, stack=True)
    h, w = img.shape[-2:]
    rows, starts, ends = _runs(img.reshape(math.prod(img.shape[:-1]), w))
    rows += rows // max(h, 1)  # the blank rows: no run links across images
    width = w + 2  # exceeds every run start and end in a row
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
    run_labels = np.cumsum(is_root, dtype=np.int32)[parent]
    # through flat views: numpy assigns through a 1-D mask twice as fast as a 3-D one
    labels.ravel()[img.ravel()] = np.repeat(run_labels, ends - starts)
    return labels, int(is_root.sum())


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

    Takes a list or tuple of 2-D crops and returns a (k, 32, 32) stack; a
    crop that is not 2-D is WrongDimensionsError. Each axis scales
    independently; the aspect ratio is intentionally not preserved (it
    survives separately as a global feature). An empty or inkless crop is
    EmptyCropError.

    Consecutive crops are resampled in blocks of about `_RESAMPLE_BLOCK`
    values (`_resample_block`), so temporaries scale with a block's total
    crop area, not with the number of crops times the largest one.
    """
    crops = [_check_binary(crop) for crop in crops]
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
    return out


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


# Thinning and the skeleton's topology run on packed rows: bit c of a uint32
# word is column c of one glyph row. The rows of a (k, 32, 32) stack lie in a
# (3, 34, k) array: [0, r + 1, g] is row r of glyph g, under a blank row 0
# and over a blank row 33, and planes 1 and 2 hold plane 0 shifted so that
# bit c is column c + 1 and column c - 1. Zeros shift in, so cells off the
# frame are background.
#
# (plane, row offset) of the ring cells as four segments edge, corner, next
# edge: the edges N, E, S, W and N again, then the corners NE, SE, SW, NW
_SEGMENT_CELLS = ((0, 0), (1, 1), (0, 2), (2, 1), (0, 0), (1, 0), (1, 2), (2, 2), (2, 0))
_SEGMENT_ROWS = (
    np.array([plane * (NORMALIZED_SIZE + 2) + row for plane, row in _SEGMENT_CELLS])[:, None]
    + np.arange(NORMALIZED_SIZE)
)


def _shift_rows(rows: np.ndarray) -> None:
    """Refill planes 1 and 2 of packed rows from plane 0."""
    np.right_shift(rows[0], 1, out=rows[1])
    np.left_shift(rows[0], 1, out=rows[2])


def _pack_rows(stack: np.ndarray) -> np.ndarray:
    """The (3, 34, k) packed rows of a (k, 32, 32) bool stack."""
    n = NORMALIZED_SIZE
    rows = np.zeros((3, n + 2, len(stack)), dtype=np.uint32)
    rows[0, 1:-1] = np.packbits(stack, axis=-1, bitorder="little").view("<u4")[..., 0].T
    _shift_rows(rows)
    return rows


def _unpack_rows(words: np.ndarray) -> np.ndarray:
    """The (k, 32, 32) bool stack of (32, k) row words."""
    n = NORMALIZED_SIZE
    words = np.ascontiguousarray(words.T, dtype="<u4")
    bits = np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")
    return bits.reshape(len(words), n, n).view(bool)


def _segment_steps(rows: np.ndarray):
    """The (9, 32, k) ring words of packed rows in `_SEGMENT_CELLS` order,
    and the (4, 32, k) transition words of the ring's four segments.

    Each segment edge, corner, next edge of the ring N, NE, E, ..., NW holds
    at most one 0-to-1 transition, (corner | next edge) ^ (edge & corner),
    so a pixel's Rutovitz crossing number is how many of its four bits are
    set.
    """
    k = rows.shape[2]
    ring = rows.reshape(-1, k)[_SEGMENT_ROWS]
    edge, next_edge, corner = ring[0:4], ring[1:5], ring[5:9]
    steps = corner | next_edge
    steps ^= edge & corner
    return ring, steps


def _packed_deletions(rows: np.ndarray, second: bool) -> np.ndarray:
    """The (32, k) deletion words of one Zhang-Suen subiteration over packed
    rows: ink pixels with 2 <= B <= 6 ink neighbours, A == 1 0-to-1
    transitions around the ring, and the subiteration's two products zero.

    A == 1 is exactly one segment with a transition (`_segment_steps`).
    Then the ink neighbours form one arc: B >= 2 holds when some corner and
    an edge beside it are ink, and B <= 6 when some corner and an edge
    beside it are background. A == 0 means B is 0 or 8, which those two
    tests refuse.
    """
    ring, steps = _segment_steps(rows)
    edge, next_edge, corner = ring[0:4], ring[1:5], ring[5:9]
    either = steps[:2] | steps[2:]
    refuse = steps[:2] & steps[2:]
    refuse = refuse[0] | refuse[1]
    refuse |= either[0] & either[1]  # A >= 2
    full = edge & next_edge
    full |= corner
    full = full[:2] & full[2:]
    refuse |= full[0] & full[1]  # B >= 7
    north, east, south, west = ring[:4]
    refuse |= (east | south) & north & west if second else (north | west) & east & south
    pairs = edge | next_edge
    pairs &= corner
    pairs = pairs[:2] | pairs[2:]
    deletions = pairs[0] | pairs[1]  # B >= 2
    deletions &= rows[0, 1:-1]
    np.invert(refuse, out=refuse)
    deletions &= refuse
    return deletions


def _protect_vanishing(rows: np.ndarray, deletions: np.ndarray) -> None:
    """Restore one pixel of any component a pass deleted entirely, in every
    glyph of packed `rows` that the pass has already left; `deletions` is
    updated in place.

    Classic Zhang-Suen erases isolated 2x2 squares; retaining the
    component's first raster pixel keeps the component count invariant. A
    deleted pixel with a surviving 8-neighbour lies in that survivor's
    component, so a component can vanish only if some deleted pixel has no
    surviving neighbour. One test over the stack finds the glyphs where
    that happens, and only their components are labelled.
    """
    near = rows[0] | rows[1]
    near |= rows[2]
    lonely = near[:-2] | near[1:-1]
    lonely |= near[2:]
    np.invert(lonely, out=lonely)
    lonely &= deletions
    if not np.count_nonzero(lonely):
        return
    for g in lonely.any(axis=0).nonzero()[0]:
        survivors = _unpack_rows(rows[0, 1:-1, g, None])[0]
        labels, count = label_components(survivors | _unpack_rows(deletions[:, g, None])[0])
        alive = np.bincount(labels[survivors], minlength=count + 1)
        for lab in np.flatnonzero(alive[1:] == 0) + 1:
            r, c = divmod(int(np.argmax(labels.ravel() == lab)), NORMALIZED_SIZE)
            rows[0, r + 1, g] |= np.uint32(1 << c)
            deletions[r, g] ^= np.uint32(1 << c)
    _shift_rows(rows)


def _zhang_suen_stack(stack: np.ndarray) -> np.ndarray:
    """Zhang-Suen two-subiteration thinning to fixpoint of every glyph of a
    (k, 32, 32) stack, stepped in lockstep on packed rows.

    Each subiteration computes one deletion mask for the live glyphs. A
    glyph leaves the live stack after a full iteration deletes nothing,
    where thinning it alone would stop, so every glyph gets the passes it
    would get alone and later passes cover only the glyphs still changing.
    """
    rows = _pack_rows(stack)
    out = np.empty((NORMALIZED_SIZE, len(stack)), dtype=np.uint32)
    live = np.arange(len(stack))
    while len(live):
        gone = np.zeros((NORMALIZED_SIZE, len(live)), dtype=np.uint32)
        for second in (False, True):
            deletions = _packed_deletions(rows, second)
            rows[0, 1:-1] ^= deletions
            _shift_rows(rows)
            _protect_vanishing(rows, deletions)
            gone |= deletions
        changed = gone.any(axis=0)
        if not changed.all():
            out[:, live[~changed]] = rows[0, 1:-1][:, ~changed]
            rows, live = rows[:, :, changed], live[changed]
    return _unpack_rows(out)


def topology_words(skeleton) -> np.ndarray:
    """The (3, 32, k) packed row words of the endpoints, branch points and
    cross points of a (k, 32, 32) stack of skeletons: ink pixels of
    crossing number 1, 3 and 4, the most four segments can hold.

    A bit-sliced adder counts each pixel's four segment transitions
    (`_segment_steps`) in two pairs of segments: an odd count is 1 or 3,
    told apart by a pair that holds two.
    """
    rows = _pack_rows(check_glyphs(skeleton))
    _, steps = _segment_steps(rows)
    steps &= rows[0, 1:-1]
    pairs = steps[:2] ^ steps[2:]
    carries = steps[:2] & steps[2:]
    words = np.empty((3,) + pairs.shape[1:], dtype=np.uint32)
    odd = np.bitwise_xor(*pairs, out=words[0])
    np.bitwise_and(*carries, out=words[2])
    np.bitwise_and(odd, carries[0] | carries[1], out=words[1])
    odd ^= words[1]
    return words


# glyphs thinned at once: the lockstep passes and the unpacked result keep
# about 3.9 KB per glyph, so a batch bounds them where a whole dataset would not
_THIN_BATCH = 128


def thin(norm: np.ndarray) -> np.ndarray:
    """Thin 32x32 normalized characters to 1-pixel-wide skeletons.

    Takes a (k, 32, 32) stack and returns one of the same shape, thinned in
    lockstep, in batches of at most `_THIN_BATCH` glyphs. Each glyph row is
    packed into one uint32 word, so a subiteration is a few dozen bitwise
    operations over the whole batch's words (`_packed_deletions`).
    """
    stack = check_glyphs(norm)
    out = np.empty_like(stack)
    for start in range(0, len(stack), _THIN_BATCH):
        batch = slice(start, start + _THIN_BATCH)
        out[batch] = _zhang_suen_stack(stack[batch])
    return out


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
    """Pipeline for a single pre-segmented 2-D character image: its record
    from a one-image `crop_characters` stack, normalized and thinned (a
    one-record `finish_records`)."""
    return finish_records(crop_characters(check_gray(gray)[None]))[0]


def crop_characters(grays: np.ndarray) -> list[CharacterRecord]:
    """Pre-segmented character images of a (k, H, W) stack up to their crops.

    Median filter and Otsu as on pages, then drop sub-threshold specks and
    take the tight box around the remaining ink; `normalized` and `skeleton`
    are left to the caller. Skew and line segmentation do not apply to
    isolated glyphs. Each stage is one call over the stack: the components
    of every image are labelled at once and their areas counted by one
    `bincount` over the labels of the ink. A uniform image is
    UniformImageError, and one with no component of MIN_COMPONENT_AREA
    pixels EmptyCropError.
    """
    grays = np.asarray(grays)
    if grays.ndim != 3:
        raise WrongDimensionsError("expected a (k, H, W) stack of grayscale images")
    _, binary = otsu_binarize(median_filter(grays))
    labels, count = label_components(binary)
    ink = binary.ravel()
    owner = labels.ravel()[ink]
    keep = np.zeros_like(binary)
    keep.ravel()[ink] = (np.bincount(owner, minlength=count + 1) >= MIN_COMPONENT_AREA)[owner]
    rows, cols = keep.any(axis=2), keep.any(axis=1)
    if not rows.any(axis=1).all():
        raise EmptyCropError("no component of sufficient area")
    # the tight box: first inked row and column, and one past the last
    h, w = keep.shape[1:]
    top, left = rows.argmax(axis=1).tolist(), cols.argmax(axis=1).tolist()
    bottom = (h - rows[:, ::-1].argmax(axis=1)).tolist()
    right = (w - cols[:, ::-1].argmax(axis=1)).tolist()
    return [
        CharacterRecord(
            bbox=BoundingBox(left=lf, top=t, width=rt - lf, height=b - t),
            crop=mask[t:b, lf:rt], normalized=None, skeleton=None,
        )
        for mask, t, b, lf, rt in zip(keep, top, bottom, left, right)
    ]
