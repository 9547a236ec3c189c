"""Page-to-glyph preprocessing: denoise, binarize, deskew, segment, normalize, thin.

Images are plain numpy arrays: grayscale pages are 2-D uint8 (0-255), binary
images are 2-D bool where True marks ink (dark foreground).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    label: object = None

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


def median_filter(img: np.ndarray) -> np.ndarray:
    """3x3 median with replicate (edge) padding; output keeps input dimensions."""
    img = _check_gray(img)
    padded = np.pad(img, 1, mode="edge")
    windows = sliding_window_view(padded, (3, 3))
    return np.median(windows, axis=(2, 3)).astype(np.uint8)


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


def _inverse_map(out_shape, in_shape, angle_deg: float):
    """Destination pixel centers mapped back into source coordinates."""
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


def _taps(centers: np.ndarray):
    """(unclamped index, Keys kernel weight) of each of the 4 taps around `centers`."""
    base = np.floor(centers).astype(np.int64)
    for tap in range(-1, 3):
        idx = base + tap
        yield idx, _cubic_kernel(centers - idx)


def _bicubic_gather(src: np.ndarray, src_y: np.ndarray, src_x: np.ndarray) -> np.ndarray:
    """Evaluate Keys bicubic interpolation of `src` (float) at fractional coords.

    Samples outside the source read as 0: taps clamp onto a ring of zeros.
    """
    padded = np.pad(src, 1)
    acc = np.zeros(src_y.shape, dtype=np.float64)
    for ty, wy in _taps(src_y):
        rows = np.clip(ty, -1, src.shape[0]) + 1
        for tx, wx in _taps(src_x):
            acc += wy * wx * padded[rows, np.clip(tx, -1, src.shape[1]) + 1]
    return acc


def rotate_bicubic(img: np.ndarray, angle_deg: float) -> np.ndarray:
    """Rotate a binary image with bicubic interpolation, re-binarized at 0.5.

    The output canvas is enlarged to hold all rotated content.
    """
    img = _check_binary(img)
    out_shape = _rotated_extent(*img.shape, angle_deg)
    src_y, src_x = _inverse_map(out_shape, img.shape, angle_deg)
    values = _bicubic_gather(img.astype(np.float64), src_y, src_x)
    return values >= 0.5


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
    source never covered are background.
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
    edge, then top.
    """
    line = _check_binary(line)
    labels, count = label_components(line)
    areas = np.bincount(labels.ravel(), minlength=count + 1)
    kept = np.flatnonzero(areas[1:] >= MIN_COMPONENT_AREA) + 1
    records = [_raw_record(labels == lab) for lab in kept]
    records.sort(key=lambda rec: (rec.bbox.left, rec.bbox.top))
    return records


# --- normalization and thinning -------------------------------------------

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


def normalize_size(crop: np.ndarray) -> np.ndarray:
    """Bicubic resample of a binary crop to NORMALIZED_SIZE pixels square,
    re-binarized at 0.5.

    Each axis scales independently; the aspect ratio is intentionally not
    preserved (it survives separately as a global feature).
    """
    crop = _check_binary(crop)
    if crop.size == 0 or not crop.any():
        raise EmptyCropError("cannot normalize an empty crop")
    field = crop.astype(np.float64)
    field = _resample_axis(field, NORMALIZED_SIZE, axis=0)
    field = _resample_axis(field, NORMALIZED_SIZE, axis=1)
    return field >= 0.5


# (row, column) of the neighbors N, NE, E, SE, S, SW, W, NW in a 3x3 window
_RING = ((0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0), (1, 0), (0, 0))


def neighbor_codes(img: np.ndarray) -> np.ndarray:
    """One uint8 per pixel whose bit k is set when neighbor k of `_RING` is
    ink. Neighbors off the image count as background."""
    h, w = img.shape
    canvas = np.zeros((h + 2, w + 2), dtype=np.uint8)
    canvas[1:-1, 1:-1] = img
    return sum(canvas[r : r + h, c : c + w] << k for k, (r, c) in enumerate(_RING))


def _rule_tables():
    """Every 8-neighborhood rule, evaluated once over all 256 codes.

    TRANSITIONS[code] is the Rutovitz crossing number, the 0-to-1 transitions
    around the circular neighborhood; _DELETABLE[second][code] is the
    Zhang-Suen deletion test of the first or second subiteration.
    """
    p2, p3, p4, p5, p6, p7, p8, p9 = bits = (np.arange(256) >> np.arange(8)[:, None]) & 1
    transitions = ((bits == 0) & (np.roll(bits, -1, axis=0) == 1)).sum(axis=0, dtype=np.int32)
    b = bits.sum(axis=0)
    thinnable = (b >= 2) & (b <= 6) & (transitions == 1)
    first = thinnable & (p2 * p4 * p6 == 0) & (p4 * p6 * p8 == 0)
    second = thinnable & (p2 * p4 * p8 == 0) & (p2 * p6 * p8 == 0)
    return transitions, (first, second)


TRANSITIONS, _DELETABLE = _rule_tables()


def _zhang_suen_pass(img: np.ndarray, second: bool) -> np.ndarray:
    """Deletion mask for one Zhang-Suen subiteration."""
    return img & _DELETABLE[second][neighbor_codes(img)]


def _protect_vanishing(img: np.ndarray, deletions: np.ndarray) -> np.ndarray:
    """Keep one pixel of any component the pass would delete entirely.

    Classic Zhang-Suen erases isolated 2x2 squares; retaining the component's
    first raster pixel keeps the component count invariant. A deleted pixel
    with a surviving 8-neighbour lies in that survivor's component, so a
    component can vanish only if some deleted pixel has no surviving
    neighbour. Components are labelled only in that case.
    """
    survivors = img & ~deletions
    if not np.any(deletions & (neighbor_codes(survivors) == 0)):
        return deletions
    labels, count = label_components(img)
    alive = np.bincount(labels[survivors], minlength=count + 1)
    deletions = deletions.copy()
    for lab in np.flatnonzero(alive[1:] == 0) + 1:
        deletions.ravel()[np.argmax(labels.ravel() == lab)] = False
    return deletions


def zhang_suen(img: np.ndarray) -> np.ndarray:
    """Zhang-Suen two-subiteration thinning to fixpoint, any image size."""
    img = _check_binary(img).copy()
    while True:
        changed = False
        for second in (False, True):
            deletions = _zhang_suen_pass(img, second)
            deletions = _protect_vanishing(img, deletions)
            if deletions.any():
                img[deletions] = False
                changed = True
        if not changed:
            return img


def thin(norm: np.ndarray) -> np.ndarray:
    """Thin a 32x32 normalized character to a 1-pixel-wide skeleton."""
    norm = _check_binary(norm)
    n = NORMALIZED_SIZE
    if norm.shape != (n, n):
        raise WrongDimensionsError(f"thin expects {n}x{n}, got {norm.shape}")
    return zhang_suen(norm)


# --- full pipeline ---------------------------------------------------------

def finish_record(record: CharacterRecord) -> CharacterRecord:
    """Fill the normalized and skeleton bitmaps of a segmented record."""
    record.normalized = normalize_size(record.crop)
    record.skeleton = thin(record.normalized)
    return record


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
    normalize and thin each one. Bounding boxes refer to `page`."""
    records: list[CharacterRecord] = []
    for top, bottom in segment_lines(page):
        strip = page[top : bottom + 1]
        for rec in segment_characters(strip):
            rec.bbox = replace(rec.bbox, top=rec.bbox.top + top)
            records.append(finish_record(rec))
    return records


def preprocess_page(gray: np.ndarray) -> list[CharacterRecord]:
    """Run the full page pipeline: median filter, Otsu, deskew, segment, thin.

    Returns fully populated character records in reading order; bounding
    boxes refer to the deskewed page.
    """
    return segment_page(clean_page(gray)[3])


def preprocess_character(gray: np.ndarray) -> CharacterRecord:
    """Pipeline for a single pre-segmented character image.

    Median filter and Otsu as on pages, then drop sub-threshold specks, take
    the tight box around the remaining ink, and normalize + thin it. Skew
    and line segmentation do not apply to isolated glyphs.
    """
    filtered = median_filter(gray)
    _, binary = otsu_binarize(filtered)
    labels, count = label_components(binary)
    kept = np.bincount(labels.ravel(), minlength=count + 1) >= MIN_COMPONENT_AREA
    kept[0] = False
    keep = kept[labels]
    if not keep.any():
        raise EmptyCropError("no component of sufficient area")
    return finish_record(_raw_record(keep))
