import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis.extra.numpy import arrays
from hypothesis.strategies import booleans, composite, floats, integers, sampled_from, tuples
from scipy import ndimage

from glyphsvm import preprocess
from glyphsvm.errors import (
    AngleOutOfRangeError,
    EmptyCropError,
    EmptyPageError,
    InvalidConfigError,
    NonFiniteInputError,
    UniformImageError,
    WrongDimensionsError,
)
from glyphsvm.preprocess import (
    Glyphs,
    crop_characters,
    deskew,
    detect_skew,
    finish_glyphs,
    label_components,
    median_filter,
    normalize_size,
    otsu_binarize,
    preprocess_character,
    preprocess_page,
    segment_characters,
    segment_lines,
    segment_page,
    thin,
    topology_words,
    _bicubic_gather,
    _cubic_kernel,
    _pack_rows,
    _packed_deletions,
    _taps,
    _unpack_rows,
)
from glyphsvm.synth import SynthConfig, render_sample

from oracles import RING_OFFSETS, _neighbour_planes, _taps as reference_taps
from oracles import (
    _full_canvas_inverse_map,
    deletion_table,
    neighborhood_images,
    random_blob,
    reference_crop_character,
    reference_crossing_number,
    reference_detect_skew,
    reference_median_filter,
    reference_normalize_size,
    reference_otsu_threshold,
    reference_segment_characters,
    reference_rotate_bicubic,
    reference_thin,
    reference_zhang_suen_pass,
    table_zhang_suen_pass,
    window_codes,
)

# --- independent oracles ----------------------------------------------------

def median_oracle(img):
    """Median of each 3x3 window on a replicate-padded copy, plain loops."""
    h, w = img.shape
    out = np.zeros_like(img)
    for r in range(h):
        for c in range(w):
            window = []
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    rr = min(max(r + dr, 0), h - 1)
                    cc = min(max(c + dc, 0), w - 1)
                    window.append(int(img[rr, cc]))
            out[r, c] = sorted(window)[4]
    return out


def flood_fill_components(img):
    """8-connected components as frozensets of (row, col), BFS over a set."""
    remaining = {(r, c) for r, c in zip(*np.nonzero(img))}
    comps = []
    while remaining:
        seed = min(remaining)
        queue = [seed]
        remaining.discard(seed)
        comp = {seed}
        while queue:
            y, x = queue.pop(0)
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    nb = (y + dy, x + dx)
                    if nb in remaining:
                        remaining.discard(nb)
                        comp.add(nb)
                        queue.append(nb)
        comps.append(frozenset(comp))
    return comps


def zhang_suen_oracle(img):
    """Dict-based Zhang-Suen reimplementation (no vanish guard)."""
    fg = {(r, c) for r, c in zip(*np.nonzero(img))}

    def neighbors(p):
        r, c = p
        order = [(-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1)]
        return [1 if (r + dr, c + dc) in fg else 0 for dr, dc in order]

    while True:
        changed = False
        for second in (False, True):
            deletions = []
            for p in fg:
                nb = neighbors(p)
                b = sum(nb)
                if not 2 <= b <= 6:
                    continue
                a = sum(1 for i in range(8) if nb[i] == 0 and nb[(i + 1) % 8] == 1)
                if a != 1:
                    continue
                p2, p4, p6, p8 = nb[0], nb[2], nb[4], nb[6]
                if not second:
                    if p2 * p4 * p6 == 0 and p4 * p6 * p8 == 0:
                        deletions.append(p)
                else:
                    if p2 * p4 * p8 == 0 and p2 * p6 * p8 == 0:
                        deletions.append(p)
            if deletions:
                fg -= set(deletions)
                changed = True
        if not changed:
            break
    out = np.zeros_like(img, dtype=bool)
    for r, c in fg:
        out[r, c] = True
    return out


def embed(mask, size=32, at=(4, 4)):
    out = np.zeros((size, size), dtype=bool)
    out[at[0] : at[0] + mask.shape[0], at[1] : at[1] + mask.shape[1]] = mask
    return out


# --- median filter ----------------------------------------------------------

def test_median_constant_image():
    img = np.full((8, 8), 100, np.uint8)
    assert np.array_equal(median_filter(img), img)


def test_median_removes_salt_speck():
    img = np.zeros((9, 9), np.uint8)
    img[4, 4] = 255
    assert np.array_equal(median_filter(img), np.zeros((9, 9), np.uint8))


def test_median_checkerboard_matches_oracle():
    board = np.fromfunction(lambda r, c: ((r + c) % 2) * 255, (4, 4)).astype(np.uint8)
    assert np.array_equal(median_filter(board), median_oracle(board))


def test_median_random_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        img = rng.integers(0, 256, size=(11, 13), dtype=np.uint8)
        assert np.array_equal(median_filter(img), median_oracle(img))


@settings(max_examples=200, deadline=None)
@given(arrays(np.uint8, tuples(integers(1, 20), integers(1, 20))))
@example(np.arange(7, dtype=np.uint8)[None])
@example(np.arange(7, dtype=np.uint8)[:, None])
@example(np.array([[9]], dtype=np.uint8))
def test_median_equals_float_median(img):
    # in a one-pixel-wide image every window repeats its one row or column
    assert np.array_equal(median_filter(img), reference_median_filter(img))


def test_median_of_every_binary_window():
    # 0-1 principle: a compare-exchange network that selects the median of
    # every 0/1 input selects it for every input
    for code in range(512):
        window = ((code >> np.arange(9)) & 1).astype(np.uint8).reshape(3, 3) * 255
        assert median_filter(window)[1, 1] == np.sort(window, axis=None)[4]


def test_median_no_new_intensities():
    rng = np.random.default_rng(8)
    img = rng.choice(np.array([3, 90, 200], np.uint8), size=(10, 10))
    out = median_filter(img)
    assert set(np.unique(out)) <= set(np.unique(img))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("stage", [median_filter, otsu_binarize, preprocess_page])
def test_non_finite_pixel_is_rejected(stage, bad):
    # a NaN used to cast to uint8 with only a RuntimeWarning and read as ink
    gray = np.full((6, 6), 200.0)
    gray[1:4, 1:4] = 20.0
    gray[2, 2] = bad
    with pytest.raises(NonFiniteInputError):
        stage(gray)


# --- otsu -------------------------------------------------------------------

def test_otsu_balanced_extremes():
    img = np.concatenate([np.zeros(50, np.uint8), np.full(50, 255, np.uint8)]).reshape(10, 10)
    t, binary = otsu_binarize(img)
    assert t == 0
    assert binary.sum() == 50
    assert np.array_equal(binary, img == 0)


def test_otsu_unbalanced():
    img = np.concatenate([np.full(60, 10, np.uint8), np.full(40, 200, np.uint8)]).reshape(10, 10)
    t, binary = otsu_binarize(img)
    assert t == 10
    assert binary.sum() == 60


def test_otsu_uniform_raises():
    with pytest.raises(UniformImageError):
        otsu_binarize(np.full((5, 5), 42, np.uint8))


def test_otsu_matches_exhaustive_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        if len(np.unique(img)) < 2:
            continue
        t, _ = otsu_binarize(img)
        assert t == reference_otsu_threshold(img)


# --- skew -------------------------------------------------------------------

def bar_page():
    page = np.zeros((180, 260), dtype=bool)
    for top in (25, 60, 95, 130):
        page[top : top + 10, 30 : 230] = True
    page[25:35, 170:230] = False
    page[95:105, 30:80] = False
    return page


def test_detect_skew_horizontal_is_zero():
    assert abs(detect_skew(bar_page())) <= 0.1


@pytest.mark.parametrize("theta", [-12.0, -5.0, 5.0, 12.0])
def test_detect_skew_roundtrip(theta):
    rotated = deskew(bar_page(), -theta)
    assert abs(detect_skew(rotated) - theta) <= 0.5


def glyph_page(seed):
    """Two lines of five seeded glyphs, rotated by a seeded angle in +/-10
    degrees; returns the page and the angle."""
    rng = np.random.default_rng(seed)
    config = SynthConfig(classes=10, per_class=1, seed=seed, noise_rate=0.0)
    ink = np.zeros((2 * 80 + 32, 5 * 68 + 32), dtype=bool)
    for k in range(10):
        top, left = 16 + (k // 5) * 80, 16 + (k % 5) * 68
        ink[top : top + 64, left : left + 64] = render_sample(config, int(rng.integers(10)), k) == 0
    theta = float(rng.uniform(-10.0, 10.0))
    return deskew(ink, -theta), theta


def assert_skew_as_close_as_reference(page, theta):
    """The ink projection may land on another 0.1-degree step than rotating
    the whole page, but never more than 0.2 degrees farther from the truth."""
    found, reference = detect_skew(page), reference_detect_skew(page)
    assert abs(found - theta) <= abs(reference - theta) + 0.2 + 1e-9, (found, reference)


@pytest.mark.parametrize("theta", [0.0, -5.0, 5.0, -10.0, 10.0, -12.0, 12.0])
def test_detect_skew_bar_page_against_reference(theta):
    assert_skew_as_close_as_reference(deskew(bar_page(), -theta), theta)


@pytest.mark.parametrize("seed", range(6))
def test_detect_skew_glyph_page_against_reference(seed):
    assert_skew_as_close_as_reference(*glyph_page(seed))


def test_detect_skew_empty_page():
    with pytest.raises(EmptyPageError):
        detect_skew(np.zeros((10, 10), dtype=bool))


def test_deskew_identity():
    page = bar_page()
    assert np.array_equal(deskew(page, 0.0), page)


def test_deskew_out_of_range():
    with pytest.raises(AngleOutOfRangeError):
        deskew(bar_page(), 90.0)


@pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_deskew_non_finite_angle(angle):
    # NaN passed the range check and failed in `int(math.ceil(nan))`
    with pytest.raises(AngleOutOfRangeError):
        deskew(bar_page(), angle)


# the heights about the 32-row bands that `deskew` once mapped at a time
BAND_HEIGHTS = [0, 1, 31, 32, 33, 101]


@settings(max_examples=150, deadline=None)
@given(
    height=sampled_from(BAND_HEIGHTS) | integers(0, 96),
    width=integers(0, 40),
    angle=sampled_from([0.0, 15.0, -15.0]) | integers(-150, 150).map(lambda t: t / 10.0),
    fill=floats(0.0, 1.0),
    seed=integers(0, 2**32 - 1),
)
@example(height=31, width=9, angle=0.0, fill=0.5, seed=1)
@example(height=32, width=9, angle=0.0, fill=0.5, seed=2)
@example(height=33, width=9, angle=0.0, fill=0.5, seed=3)
@example(height=96, width=30, angle=15.0, fill=0.3, seed=4)
@example(height=0, width=5, angle=-15.0, fill=1.0, seed=5)
@example(height=1, width=40, angle=0.0, fill=0.5, seed=6)
@example(height=65, width=17, angle=-7.3, fill=0.2, seed=7)
# ink at the source's edges, where the ink window meets the zero ring: on a
# 7x9 source at fill 0.03 these seeds give one ink pixel at the top-left (142),
# top-right (534), bottom-left (254) and bottom-right (428) corner, and ink
# only in row 0 (52) or only in the last column (301)
@example(height=7, width=9, angle=15.0, fill=0.03, seed=142)
@example(height=7, width=9, angle=-15.0, fill=0.03, seed=534)
@example(height=7, width=9, angle=-7.3, fill=0.03, seed=254)
@example(height=7, width=9, angle=0.0, fill=0.03, seed=428)
@example(height=7, width=9, angle=15.0, fill=0.03, seed=52)
@example(height=7, width=9, angle=-7.3, fill=0.03, seed=301)
@example(height=1, width=40, angle=-15.0, fill=0.3, seed=8)
@example(height=40, width=1, angle=15.0, fill=0.3, seed=9)
@example(height=35, width=40, angle=-7.3, fill=0.0, seed=10)
@example(height=96, width=40, angle=-7.3, fill=0.002, seed=0)
def test_banded_rotation_equals_full_canvas(height, width, angle, fill, seed):
    img = np.random.default_rng(seed).random((height, width)) < fill
    assert np.array_equal(deskew(img, -angle), reference_rotate_bicubic(img, angle))


@pytest.mark.parametrize("angle", [0.0, 15.0, -15.0, 0.1])
def test_rotation_of_more_pixels_than_one_chunk_equals_full_canvas(monkeypatch, angle):
    # blobs over a third of the page put several chunks of pixels near ink
    page = np.kron(np.random.default_rng(31).random((40, 50)) < 0.35, np.ones((6, 6), bool))
    chunks = []
    inverse_map = preprocess._inverse_map

    def recording_map(*args):
        chunks.append(args[-1].size)
        return inverse_map(*args)

    monkeypatch.setattr(preprocess, "_inverse_map", recording_map)
    assert np.array_equal(deskew(page, -angle), reference_rotate_bicubic(page, angle))
    assert len(chunks) >= 2 and chunks[0] == preprocess._CHUNK


def test_deskew_peak_memory():
    # the full-canvas rotation peaked at 145.6 MB on this page: 16 taps of
    # index, weight and value arrays over all 852x1234 output pixels
    page = np.random.default_rng(3).random((800, 1200)) < 0.1
    tracemalloc.start()
    try:
        deskew(page, 2.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 145.6e6 / 4


@pytest.mark.parametrize("angle", [0.0, 2.5, -7.3, 15.0])
@pytest.mark.parametrize("ink", [(17, 23), (0, 0), (39, 49)], ids=["inside", "top-left", "bottom-right"])
def test_rotation_interpolates_only_inked_windows(monkeypatch, angle, ink):
    """Record the coordinates `_bicubic_gather` evaluates.

    A blank source needs none. With one ink pixel at (r, c), a pixel's inner
    2x2 taps are mixed exactly when its base index (floor(src_y),
    floor(src_x)) lies in [r-1, r] x [c-1, c], so exactly those pixels are
    evaluated, in raster order. That is when the pixel's source point lies
    in the 2x2 square Q = [r-1, r+1) x [c-1, c+1). The inverse map is a
    rotation plus a shift, so the output pixel centres land on a congruent
    copy of the unit lattice. Give each lattice point in Q its unit cell (a
    unit square centred on it, turned with the lattice): the cells do not
    overlap and each lies within sqrt(2)/2 of Q, so their number is at most
    the area of Q grown by sqrt(2)/2, 4 + 4 sqrt(2) + pi/2 < 12: no more
    than 11 pixels are evaluated.
    """
    evaluated = []
    gather = preprocess._bicubic_gather

    def recording_gather(padded, src_y, src_x):
        evaluated.append((src_y, src_x))
        return gather(padded, src_y, src_x)

    monkeypatch.setattr(preprocess, "_bicubic_gather", recording_gather)
    img = np.zeros((40, 50), dtype=bool)
    deskew(img, -angle)
    assert sum(ys.size for ys, _ in evaluated) == 0
    img[ink] = True
    evaluated.clear()
    rotated = deskew(img, -angle)
    assert np.array_equal(rotated, reference_rotate_bicubic(img, angle))
    src_y, src_x = _full_canvas_inverse_map(rotated.shape, img.shape, angle)
    (r, c), by, bx = ink, np.floor(src_y), np.floor(src_x)
    mixed = (r - 1 <= by) & (by <= r) & (c - 1 <= bx) & (bx <= c)
    got_y = np.concatenate([ys for ys, _ in evaluated])
    got_x = np.concatenate([xs for _, xs in evaluated])
    assert np.array_equal(got_y, src_y[mixed]) and np.array_equal(got_x, src_x[mixed])
    assert 0 < got_y.size <= 11


def test_inner_taps_decide_the_rotated_pixel():
    """Over a 101 x 101 grid of fractional offsets and every ink pattern of
    the 12 outer taps, weighed by `_taps`: with all 4 inner taps inked the
    interpolated value never falls below 0.5, and with none it never reaches
    0.5, so `deskew` may decide those pixels without interpolating."""
    _, weight = _taps(np.linspace(0.0, 1.0, 101, endpoint=False) + 7.0)
    inner = np.zeros((4, 4), dtype=bool)
    inner[1:3, 1:3] = True
    patterns = (np.arange(4096)[:, None] >> np.arange(12) & 1).astype(np.float64)
    lowest, highest = np.inf, -np.inf
    for wy in weight.T:
        products = wy[:, None, None] * weight[None]  # (4, 4, offsets_x)
        outer = patterns @ products[~inner]
        lowest = min(lowest, (products[inner].sum(axis=0) + outer).min())
        highest = max(highest, outer.max())
    assert lowest >= 0.5 and highest < 0.5
    assert lowest >= 1 - 0.125**2 - 1e-12 and highest <= 0.125**2 + 1e-12


def test_deskew_roundtrip_iou():
    page = bar_page()
    rotated = deskew(page, -10.0)
    restored = deskew(rotated, detect_skew(rotated))
    # align by foreground centroid before comparing
    def centered(img, shape):
        ys, xs = np.nonzero(img)
        out = np.zeros(shape, dtype=bool)
        oy = shape[0] // 2 - int(round(ys.mean()))
        ox = shape[1] // 2 - int(round(xs.mean()))
        for y, x in zip(ys, xs):
            out[y + oy, x + ox] = True
        return out

    shape = (400, 500)
    a = centered(page, shape)
    b = centered(restored, shape)
    iou = (a & b).sum() / (a | b).sum()
    assert iou >= 0.9


# --- line segmentation -------------------------------------------------------

def scanned_runs(mask):
    """(row, start, end) of each run of True, row by row, in plain Python."""
    runs = []
    for r, row in enumerate(mask.tolist()):
        c = 0
        while c < len(row):
            if row[c]:
                start = c
                while c < len(row) and row[c]:
                    c += 1
                runs.append((r, start, c))
            c += 1
    return runs


@settings(max_examples=200, deadline=None)
@given(arrays(bool, tuples(integers(0, 12), integers(0, 12)), elements=booleans()))
@example(np.zeros((0, 5), dtype=bool))
@example(np.zeros((5, 0), dtype=bool))
@example(np.ones((4, 7), dtype=bool))
@example(np.eye(5, dtype=bool)[:, ::-1])  # ink in the last column, then row by row leftwards
@example(np.ones((3, 1), dtype=bool))
@example(np.ones((1, 1), dtype=bool))
@example(np.zeros((1, 1), dtype=bool))
@example(np.eye(1, 6, 5, dtype=bool))
def test_runs_equal_a_row_by_row_scan(mask):
    rows, starts, ends = preprocess._runs(mask)
    assert list(zip(rows.tolist(), starts.tolist(), ends.tolist())) == scanned_runs(mask)


def test_segment_lines_two_bands():
    page = np.zeros((60, 40), dtype=bool)
    page[10:21, 5:30] = True
    page[40:51, 5:30] = True
    assert segment_lines(page) == [(10, 20), (40, 50)]


def test_segment_lines_blank():
    assert segment_lines(np.zeros((20, 20), dtype=bool)) == []


def test_segment_lines_single():
    page = np.zeros((20, 20), dtype=bool)
    page[5:10, 2:18] = True
    assert segment_lines(page) == [(5, 9)]


def test_segment_lines_touching_split():
    # two peaks inside one positive run; valley minimum at row 6
    counts = [0, 0, 5, 6, 7, 2, 1, 2, 7, 6, 5, 0]
    page = np.zeros((len(counts), 10), dtype=bool)
    for row, count in enumerate(counts):
        page[row, :count] = True
    assert segment_lines(page) == [(2, 5), (6, 10)]
    # every row's run starts in column 0: one component across the split
    # row, and one record
    glyphs = segment_page(page)
    assert glyphs.boxes.tolist() == [[0, 2, 7, 9]]
    assert np.array_equal(glyphs.crops[0], page[2:11, :7])


# --- character segmentation ---------------------------------------------------

def test_segment_two_squares():
    strip = np.zeros((10, 30), dtype=bool)
    strip[2:7, 0:5] = True
    strip[3:8, 20:25] = True
    boxes, crops = segment_characters(strip)
    assert boxes.dtype == np.int64
    assert boxes.tolist() == [[0, 2, 5, 5], [20, 3, 5, 5]]
    assert len(crops) == 2
    assert crops[0].shape == (5, 5)
    assert crops[0].all()


def test_segment_plus_component():
    strip = np.zeros((12, 12), dtype=bool)
    strip[5, 2:9] = True
    strip[2:9, 5] = True
    boxes, crops = segment_characters(strip)
    assert boxes.tolist() == [[2, 2, 7, 7]]
    assert len(crops) == 1


def test_segment_drops_specks():
    strip = np.zeros((8, 8), dtype=bool)
    strip[3, 3:5] = True  # 2-pixel speck
    for blank_or_specks in (strip, np.zeros_like(strip)):
        boxes, crops = segment_characters(blank_or_specks)
        assert boxes.shape == (0, 4) and boxes.dtype == np.int64 and crops == []


def test_segment_matches_flood_fill_oracle():
    rng = np.random.default_rng(21)
    for _ in range(20):
        strip = rng.random((18, 40)) < 0.25
        boxes, crops = segment_characters(strip)
        oracle = [c for c in flood_fill_components(strip) if len(c) >= 5]
        assert len(boxes) == len(crops) == len(oracle)
        # each crop's pixels must be exactly one oracle component
        kept = set()
        for (left, top, _, _), crop in zip(boxes.tolist(), crops):
            pixels = {(r + top, c + left) for r, c in zip(*np.nonzero(crop))}
            assert frozenset(pixels) in oracle
            assert not (pixels & kept)  # pairwise disjoint
            kept |= pixels
        assert kept == set().union(*oracle) if oracle else not kept


def test_segment_records_equal_per_component_crops():
    # the one-pass boxes give the records of one whole-strip mask per component
    rng = np.random.default_rng(23)
    for shape, fill in [((18, 40), 0.25), ((30, 90), 0.1), ((5, 7), 0.6), ((1, 30), 0.5)]:
        for _ in range(5):
            strip = rng.random(shape) < fill
            boxes, crops = segment_characters(strip)
            got = [(*box, crop) for box, crop in zip(boxes.tolist(), crops, strict=True)]
            want = reference_segment_characters(strip)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g[:4] == w[:4]
                assert g[4].dtype == bool and np.array_equal(g[4], w[4])


def test_segment_characters_labels_once(monkeypatch):
    calls = []

    def counting(img):
        calls.append(img.shape)
        return label_components(img)

    monkeypatch.setattr(preprocess, "label_components", counting)
    strip = np.random.default_rng(24).random((20, 60)) < 0.3
    assert len(segment_characters(strip)[1])
    assert calls == [strip.shape]


# --- page segmentation --------------------------------------------------------

def per_line_glyphs(page):
    """The page segmented one text-line strip at a time: each strip's
    components, their tops moved to the page, strips top to bottom."""
    boxes, crops = [np.empty((0, 4), dtype=np.int64)], []
    for top, bottom in segment_lines(page):
        line_boxes, line_crops = segment_characters(page[top : bottom + 1])
        line_boxes[:, 1] += top
        boxes.append(line_boxes)
        crops += line_crops
    return finish_glyphs(np.concatenate(boxes), crops)


@composite
def blob_pages(draw):
    """Pages of 1 to 3 lines of 1 to 4 random blobs on 16 px canvases, each
    canvas shifted down by up to 6 px: lines may touch, blobs may merge."""
    lines, columns = draw(integers(1, 3)), draw(integers(1, 4))
    rng = np.random.default_rng(draw(integers(0, 2**16)))
    page = np.zeros((lines * 16 + 8, columns * 14 + 4), dtype=bool)
    for line in range(lines):
        for column in range(columns):
            top, left = line * 16 + rng.integers(0, 7), column * 14 + rng.integers(0, 3)
            page[top : top + 16, left : left + 16] |= random_blob(rng, 60, size=16)
    return page


@settings(max_examples=150, deadline=None)
@given(blob_pages())
def test_components_within_one_line_keep_their_per_line_records(page):
    # a component whose first and last rows lie in one line interval
    tops = [top for top, _ in segment_lines(page)]
    labels, _ = ndimage.label(page, structure=np.ones((3, 3)))
    for rows, _ in ndimage.find_objects(labels):
        first, last = np.searchsorted(tops, [rows.start, rows.stop - 1], side="right")
        assume(first == last)
    got, want = segment_page(page), per_line_glyphs(page)
    assert np.array_equal(got.boxes, want.boxes)
    assert all(np.array_equal(g, w) for g, w in zip(got.crops, want.crops, strict=True))
    assert np.array_equal(got.skeletons, want.skeletons)


@pytest.mark.parametrize("seed", range(6))
def test_glyph_page_gives_one_record_per_glyph(seed):
    assert len(segment_page(glyph_page(seed)[0])) == 10


def test_segment_page_labels_the_page_once(monkeypatch):
    calls = []

    def counting(img):
        calls.append(img.shape)
        return label_components(img)

    monkeypatch.setattr(preprocess, "label_components", counting)
    page, _ = glyph_page(3)
    assert len(segment_page(page)) == 10
    assert calls.count(page.shape) == 1


# --- connected components -----------------------------------------------------

def assert_labels_match_scipy(img):
    labels, count = label_components(img)
    expected, expected_count = ndimage.label(img, np.ones((3, 3)))
    assert labels.dtype == np.int32
    assert count == expected_count
    assert np.array_equal(labels, expected)


def serpentine(h, w):
    """One stroke snaking across every other row, joined at alternate ends."""
    img = np.zeros((h, w), dtype=bool)
    img[::2] = True
    for r in range(1, h, 2):
        img[r, -1 if r % 4 == 1 else 0] = True
    return img


def square_spiral(n):
    """One 1-pixel stroke spiralling inwards with 1-pixel gaps between turns."""
    img = np.zeros((n, n), dtype=bool)
    r = c = 0
    dr, dc = 0, 1
    img[0, 0] = True
    while True:
        for _ in range(2):
            nr, nc, ar, ac = r + dr, c + dc, r + 2 * dr, c + 2 * dc
            ahead_free = not (0 <= ar < n and 0 <= ac < n and img[ar, ac])
            if 0 <= nr < n and 0 <= nc < n and not img[nr, nc] and ahead_free:
                r, c = nr, nc
                img[r, c] = True
                break
            dr, dc = dc, -dr
        else:
            return img


@pytest.mark.parametrize(
    "img",
    [
        np.zeros((0, 7), dtype=bool),
        np.zeros((7, 0), dtype=bool),
        np.zeros((6, 9), dtype=bool),
        np.ones((6, 9), dtype=bool),
        np.ones((1, 12), dtype=bool),
        np.ones((12, 1), dtype=bool),
        np.eye(10, dtype=bool),
        np.eye(10, dtype=bool)[::-1],
        serpentine(64, 1215),
        square_spiral(200),
    ],
    ids=["0xN", "Nx0", "background", "ink", "1xN", "Nx1", "diagonal", "antidiagonal",
         "serpentine", "spiral"],
)
def test_label_components_fixed_cases_match_scipy(img):
    assert_labels_match_scipy(img)


def test_label_components_long_paths_are_one_component():
    assert label_components(serpentine(64, 1215))[1] == 1
    assert label_components(square_spiral(200))[1] == 1


@settings(max_examples=300, deadline=None)
@given(arrays(bool, tuples(integers(0, 24), integers(0, 24)), elements=booleans()))
def test_label_components_matches_scipy(img):
    assert_labels_match_scipy(img)


# --- normalization -----------------------------------------------------------

def test_cubic_kernel_hand_values():
    # Keys a=-0.5 kernel at the quarter-sample offsets, exact fractions
    w = _cubic_kernel(np.array([0.25, 0.75, 1.25, 1.75]))
    assert w[0] == pytest.approx(111 / 128, abs=0)
    assert w[1] == pytest.approx(29 / 128, abs=0)
    assert w[2] == pytest.approx(-9 / 128, abs=0)
    assert w[3] == pytest.approx(-3 / 128, abs=0)
    assert _cubic_kernel(np.array([0.0]))[0] == 1.0
    assert _cubic_kernel(np.array([1.0]))[0] == 0.0
    assert _cubic_kernel(np.array([2.0]))[0] == 0.0


def test_normalize_identity_32():
    rng = np.random.default_rng(3)
    img = rng.random((32, 32)) < 0.4
    if not img.any():
        img[0, 0] = True
    assert np.array_equal(normalize_size([img])[0], img)


def test_normalize_constant_field():
    assert normalize_size([np.ones((64, 64), dtype=bool)]).all()


def test_normalize_diagonal_stays_connected():
    diag = np.eye(16, dtype=bool)
    out = normalize_size([diag])[0]
    assert out[0, 0] and out[31, 31]
    _, count = label_components(out)
    assert count == 1


def test_normalize_empty_crop():
    with pytest.raises(EmptyCropError):
        normalize_size([np.zeros((5, 5), dtype=bool)])


def random_crops(rng, shapes, fill=0.3):
    """Random binary crops of the given shapes, each with at least one ink pixel."""
    crops = []
    for shape in shapes:
        crop = rng.random(shape) < fill
        crop.flat[rng.integers(crop.size)] = True
        crops.append(crop)
    return crops


@pytest.mark.parametrize(
    "shapes",
    [
        [(1, 1)],
        [(1, 17), (23, 1), (1, 1), (1, 64), (64, 1)],
        [(32, 32), (31, 33), (16, 64), (89, 2)],
        [(60, 1100)] + [(40, 35)] * 20 + [(1, 1), (2, 3), (120, 45)],
    ],
    ids=["1x1", "lines", "near-32", "mixed"],
)
@pytest.mark.parametrize("block", [1, 1 << 14, 1 << 30], ids=["per-crop", "default", "one"])
def test_batched_normalize_equals_per_crop_oracle(shapes, block, monkeypatch):
    monkeypatch.setattr(preprocess, "_RESAMPLE_BLOCK", block)
    crops = random_crops(np.random.default_rng(len(shapes)), shapes)
    expected = np.array([reference_normalize_size(crop) for crop in crops])
    batch = normalize_size(crops)
    assert batch.shape == (len(crops), 32, 32) and batch.dtype == bool
    assert np.array_equal(batch, expected)
    assert np.array_equal(normalize_size(tuple(crops)), expected)
    for crop, want in zip(crops, expected):
        assert np.array_equal(normalize_size([crop])[0], want)
    with pytest.raises(WrongDimensionsError):
        normalize_size(crops[0])


@settings(max_examples=60, deadline=None)
@given(
    sizes=arrays(np.int64, (12, 2), elements=integers(1, 89)),
    fill=floats(0.05, 0.9),
    seed=integers(0, 2**16),
)
def test_batched_normalize_equals_per_crop_oracle_on_random_crops(sizes, fill, seed):
    crops = random_crops(np.random.default_rng(seed), [tuple(s) for s in sizes.tolist()], fill)
    expected = np.array([reference_normalize_size(crop) for crop in crops])
    assert np.array_equal(normalize_size(crops), expected)


def test_normalize_size_of_no_crops_is_an_empty_stack():
    assert normalize_size([]).shape == (0, 32, 32)


def test_normalize_size_refuses_an_empty_crop_in_a_batch():
    crops = random_crops(np.random.default_rng(4), [(5, 5), (6, 6)])
    for bad in (np.zeros((5, 5), dtype=bool), np.zeros((0, 4), dtype=bool)):
        with pytest.raises(EmptyCropError):
            normalize_size(crops + [bad])


def test_normalize_size_temporaries_scale_with_a_block():
    """One 60x1,100 crop among 127 glyph-sized ones.

    Consecutive crops are resampled in blocks of about 16,384 values of
    their flat layout, and the 60x1,100 crop (101,200 values) is a block of
    its own: the call peaked at 2.4 MB. One block of all 128 crops peaked at
    11.1 MB, and padding them to the largest crop would take 67.6 MB for the
    float input alone.
    """
    rng = np.random.default_rng(5)
    crops = random_crops(rng, [tuple(s) for s in rng.integers(20, 60, (127, 2)).tolist()])
    crops.insert(40, random_crops(rng, [(60, 1100)])[0])
    tracemalloc.start()
    try:
        normalize_size(crops)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_taps_match_tap_at_a_time_weights():
    rng = np.random.default_rng(19)
    centers = [
        rng.uniform(-40.0, 40.0, 200),
        np.arange(-6.0, 6.5, 0.5),  # whole and half-integer, negative too
        rng.uniform(-3.0, 70.0, (9, 11)),
        (np.arange(32) + 0.5) * (45 / 32) - 0.5,  # a resample's centres
    ]
    for c in centers:
        got = list(zip(*_taps(c)))
        expected = list(reference_taps(c))
        assert len(got) == len(expected) == 4
        for (idx, w), (ref_idx, ref_w) in zip(got, expected):
            assert idx.dtype == ref_idx.dtype and np.array_equal(idx, ref_idx)
            assert w.dtype == ref_w.dtype and np.array_equal(w, ref_w)


def test_bicubic_gather_far_outside_reads_zero():
    src = np.ones((5, 7))
    ys = np.array([[-50.0, 1e4, 2.0, -50.0, 1e4, 2.0, -2.0]])
    xs = np.array([[3.0, 3.0, -50.0, 1e4, 1e4, 3.0, 3.0]])
    expected = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]])
    assert np.array_equal(_bicubic_gather(np.pad(src, 1), ys, xs), expected)


# --- thinning ----------------------------------------------------------------

def test_thin_requires_32x32():
    with pytest.raises(WrongDimensionsError):
        thin(np.zeros((16, 16), dtype=bool))


def test_thin_line_unchanged():
    img = embed(np.ones((1, 10), dtype=bool), at=(16, 5))
    assert np.array_equal(thin(img[None])[0], img)


def test_thin_empty():
    img = np.zeros((32, 32), dtype=bool)
    assert np.array_equal(thin(img[None])[0], img)


def test_thin_bar_matches_hand_traceable_oracle():
    img = embed(np.ones((3, 10), dtype=bool), at=(10, 5))
    out = thin(img[None])[0]
    assert np.array_equal(out, zhang_suen_oracle(img))
    # a single 1-pixel-wide horizontal path
    rows = np.unique(np.nonzero(out)[0])
    assert len(rows) == 1
    cols = np.nonzero(out)[1]
    assert len(cols) == cols.max() - cols.min() + 1


def test_thin_random_blobs_properties():
    rng = np.random.default_rng(5)
    for _ in range(50):
        img = random_blob(rng, 120)
        out = thin(img[None])[0]
        assert not np.any(out & ~img)  # skeleton inside foreground
        assert np.array_equal(thin(out[None])[0], out)  # idempotent
        _, before = label_components(img)
        _, after = label_components(out)
        assert before == after


def test_thin_preserves_2x2_square_component():
    img = np.zeros((32, 32), dtype=bool)
    img[6:8, 6:8] = True
    out = thin(img[None])[0]
    _, count = label_components(out)
    assert count == 1
    assert not np.any(out & ~img)


def test_thin_matches_reference_guard_on_vanishing_squares(monkeypatch):
    labelled = []

    def counting_label_components(img):
        labelled.append(img.shape)
        return label_components(img)

    monkeypatch.setattr(preprocess, "label_components", counting_label_components)
    rng = np.random.default_rng(29)
    for _ in range(50):
        img = sprinkle_squares(rng, random_blob(rng, 120))
        assert np.array_equal(thin(img[None])[0], reference_thin(img))
    assert labelled  # the labelling fallback ran


def sprinkle_squares(rng, img, tries=3):
    """Add isolated 2x2 squares, which plain Zhang-Suen would erase."""
    for _ in range(tries):
        r, c = rng.integers(1, 29, 2)
        if not img[r - 1 : r + 3, c - 1 : c + 3].any():
            img[r : r + 2, c : c + 2] = True
    return img


def thinning_stack():
    """An empty and an all-ink glyph, bars that take different numbers of
    iterations, noise of several densities, and blobs of which every other
    one is sprinkled with isolated 2x2 squares."""
    rng = np.random.default_rng(53)
    glyphs = [np.zeros((32, 32), dtype=bool), np.ones((32, 32), dtype=bool)]
    glyphs += [embed(np.ones((rows, 20), dtype=bool)) for rows in (1, 3, 7, 13)]
    glyphs += [rng.random((32, 32)) < density for density in (0.3, 0.5, 0.7, 0.9)]
    for i in range(16):
        blob = random_blob(rng, 120)
        glyphs.append(sprinkle_squares(rng, blob) if i % 2 else blob)
    return np.array(glyphs)


def test_thin_stack_equals_reference_per_glyph(monkeypatch):
    stack = thinning_stack()
    labelled = []
    live_sizes = []

    def counting_label_components(img):
        labelled.append(img.shape)
        return label_components(img)

    def recording_pass(rows, second):
        live_sizes.append(rows.shape[2])
        return _packed_deletions(rows, second)

    monkeypatch.setattr(preprocess, "label_components", counting_label_components)
    per_glyph_labelled = []
    for img in stack:
        labelled.clear()
        assert np.array_equal(thin(img[None])[0], reference_thin(img))
        per_glyph_labelled.append(len(labelled))
    # the labelled fallback runs for some glyphs and not for others
    assert min(per_glyph_labelled) == 0 and max(per_glyph_labelled) > 0

    labelled.clear()
    monkeypatch.setattr(preprocess, "_packed_deletions", recording_pass)
    out = thin(stack)
    assert out.shape == stack.shape and out.dtype == bool
    for g, img in enumerate(stack):
        assert np.array_equal(out[g], reference_thin(img))
    # one screen per pass sends only the flagged glyphs to the fallback
    assert len(labelled) == sum(per_glyph_labelled)
    # glyphs leave the live stack as they converge, at different iterations
    assert live_sizes[0] == len(stack)
    assert live_sizes == sorted(live_sizes, reverse=True)
    assert len(set(live_sizes)) > 3


def test_thin_stack_of_one_and_empty_stack():
    img = embed(np.ones((5, 12), dtype=bool))
    with pytest.raises(WrongDimensionsError):
        thin(img)
    assert np.array_equal(thin(img[None])[0], reference_thin(img))
    empty = thin(np.zeros((0, 32, 32), dtype=bool))
    assert empty.shape == (0, 32, 32) and empty.dtype == bool


@pytest.mark.parametrize("shape", [(3, 16, 16), (2, 32, 16), (2, 2, 32, 32), (32,)])
def test_thin_stack_of_wrong_dimensions(shape):
    with pytest.raises(WrongDimensionsError):
        thin(np.zeros(shape, dtype=bool))


def test_thin_peak_memory():
    """Thinning 2,000 glyphs through `thin` keeps its temporaries to one
    batch.

    The output takes 2,000 x 1,024 bytes. Thinning a stack on packed rows
    keeps about 3.9 KB per glyph, its unpacked result included (measured
    for stacks of 128 and 2,000 glyphs), so a batch of 128 glyphs adds
    about 0.5 MB: the whole call peaked at 2.5 MB. The bound allows the
    output plus 2.56 MB, 4.6 MB; one stack of all 2,000 glyphs peaked at
    7.7 MB.
    """
    rng = np.random.default_rng(61)
    stack = np.array([random_blob(rng, 120) for _ in range(2000)])
    tracemalloc.start()
    try:
        thin(stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2000 * 1024 + 256 * 10_000


def argwhere_blob(rng, step_bound, size=32):
    """`random_blob` as first written: one `np.argwhere` of the image per
    growth step."""
    img = np.zeros((size, size), dtype=bool)
    r, c = rng.integers(4, size - 4, 2)
    img[r, c] = True
    for _ in range(rng.integers(10, step_bound)):
        cells = np.argwhere(img)
        y, x = cells[rng.integers(len(cells))]
        dy, dx = rng.integers(-1, 2, 2)
        img[np.clip(y + dy, 0, size - 1), np.clip(x + dx, 0, size - 1)] = True
    return img


@pytest.mark.parametrize("step_bound", [120, 140])
def test_random_blob_equals_argwhere_loop(step_bound):
    for seed in (5, 17, 61, 104):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(25):
            assert np.array_equal(random_blob(fast, step_bound), argwhere_blob(slow, step_bound))


def test_zhang_suen_matches_oracle_on_blobs():
    # guard only differs on vanishing components; skip those cases
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(30):
        img = random_blob(rng, 120)
        oracle = zhang_suen_oracle(img)
        if not oracle.any():
            continue
        assert np.array_equal(thin(img[None])[0], oracle)
        checked += 1
    assert checked >= 20


def test_neighbor_codes_read_each_neighbourhood():
    for code, img in neighborhood_images():
        ring = sum((code >> k & 1) << 3 * r + c for k, (r, c) in enumerate(RING_OFFSETS))
        assert window_codes(img).dtype == np.uint16
        assert window_codes(img)[1, 1] == ring | int(img[1, 1]) << 4


def test_window_tables_equal_references_at_every_window():
    """Over all 512 windows, each table read at the centre's window code gives
    the references' value at the centre pixel, and the packed topology words
    of the window centred in a blank frame class the centre by its reference
    crossing number."""
    windows = [img for _, img in neighborhood_images()]
    frames = np.zeros((len(windows), 32, 32), dtype=bool)
    frames[:, 14:17, 15:18] = windows
    ends, branches, crosses = (_unpack_rows(words)[:, 15, 16] for words in topology_words(frames))
    codes = []
    for img, end, branch, cross in zip(windows, ends, branches, crosses):
        code = window_codes(img)[1, 1]
        codes.append(code)
        for second in (False, True):
            assert deletion_table(second)[code] == reference_zhang_suen_pass(img, second)[1, 1]
        crossing = reference_crossing_number(img)[1, 1]
        assert (end, branch, cross) == (crossing == 1, crossing == 3, crossing == 4)
    assert sorted(codes) == list(range(512))


@pytest.mark.parametrize(
    "shape", [(6, 9, 13), (3, 1, 7), (2, 7, 1), (2, 0, 5), (0, 32, 32), (5, 3), (1, 1), (0, 4)]
)
def test_neighbor_codes_of_a_stack_equal_per_image_codes(shape):
    stack = np.random.default_rng(43).random(shape) < 0.5
    codes = window_codes(stack)
    assert codes.shape == stack.shape and codes.dtype == np.uint16
    images = stack if stack.ndim == 3 else stack[None]
    for img, img_codes in zip(images, codes if stack.ndim == 3 else codes[None]):
        planes = _neighbour_planes(img)
        ring = sum(p.astype(np.uint16) << 3 * r + c for p, (r, c) in zip(planes, RING_OFFSETS))
        assert np.array_equal(img_codes, ring + (img.astype(np.uint16) << 4))
        assert np.array_equal(img_codes, window_codes(img))


@pytest.mark.parametrize("second", [False, True])
def test_deletion_table_matches_plane_arithmetic(second):
    rng = np.random.default_rng(41)
    images = [img for _, img in neighborhood_images()]
    images += [rng.random((32, 32)) < density for density in np.linspace(0.05, 0.95, 40)]
    for img in images:
        expected = reference_zhang_suen_pass(img, second)
        assert np.array_equal(table_zhang_suen_pass(img, second), expected)
    stack = np.array(images[-40:])  # the 32x32 images, through the packed pass
    expected = [reference_zhang_suen_pass(img, second) for img in stack]
    assert np.array_equal(_unpack_rows(_packed_deletions(_pack_rows(stack), second)), expected)


# the window's centre in a 32x32 frame: an interior pixel, the middle of each
# edge and each corner
FRAME_POSITIONS = [(15, 16), (0, 16), (31, 16), (15, 0), (15, 31), (0, 0), (0, 31), (31, 0), (31, 31)]


def framed_windows():
    """All 512 windows, each centred at every one of FRAME_POSITIONS (cells
    that fall off the frame are background), as one stack of 32x32 glyphs
    with the rows and columns of their centres."""
    glyphs, centres = [], []
    for _, window in neighborhood_images():
        for r, c in FRAME_POSITIONS:
            glyph = np.zeros((34, 34), dtype=bool)
            glyph[r : r + 3, c : c + 3] = window
            glyphs.append(glyph[1:-1, 1:-1])
            centres.append((r, c))
    rows, cols = np.array(centres).T
    return np.array(glyphs), rows, cols


def assert_interior_windows_hold_every_code(stack, rows, cols):
    interior = (rows == 15) & (cols == 16)
    codes = window_codes(stack)[np.arange(len(stack)), rows, cols]
    assert sorted(codes[interior].tolist()) == list(range(512))


@pytest.mark.parametrize("second", [False, True])
def test_packed_deletions_equal_table_at_every_window_and_frame_position(second):
    """All 512 windows at an interior pixel and at every edge and corner of
    the frame: the packed pass deletes a pixel exactly where the table pass
    does."""
    stack, rows, cols = framed_windows()
    packed = _unpack_rows(_packed_deletions(_pack_rows(stack), second))
    assert np.array_equal(packed, table_zhang_suen_pass(stack, second))
    assert_interior_windows_hold_every_code(stack, rows, cols)


def test_topology_words_equal_reference_crossing_numbers_at_every_window_and_frame_position():
    """All 512 windows at an interior pixel and at every edge and corner of
    the frame: a pixel is set in the packed end, branch or cross words
    exactly where its reference crossing number is 1, 3 or 4."""
    stack, rows, cols = framed_windows()
    crossings = np.array([reference_crossing_number(glyph) for glyph in stack])
    words = topology_words(stack)
    assert words.shape == (3, 32, len(stack))
    for word, crossing in zip(words, (1, 3, 4)):
        assert np.array_equal(_unpack_rows(word), crossings == crossing)
    assert_interior_windows_hold_every_code(stack, rows, cols)


# --- glyph stacks ------------------------------------------------------------

@composite
def gray_stacks(draw, max_side=12):
    """(k, H, W) uint8 stacks, H and W down to 1, with intensities up to a
    drawn maxval as a P5 file of maxval < 255 holds them."""
    maxval = draw(integers(1, 255))
    shape = draw(tuples(integers(1, 4), integers(1, max_side), integers(1, max_side)))
    return draw(arrays(np.uint8, shape, elements=integers(0, maxval)))


def glyph_stack(count, seed):
    """`count` synthetic glyphs with their salt-and-pepper noise."""
    config = SynthConfig(classes=10, per_class=count, seed=seed)
    return np.stack([render_sample(config, i % 10, i) for i in range(count)])


@settings(max_examples=150, deadline=None)
@given(gray_stacks())
@example(np.zeros((2, 1, 1), np.uint8))
@example(np.arange(21, dtype=np.uint8).reshape(3, 1, 7))
def test_median_of_a_stack_is_the_median_of_each_image(stack):
    got = median_filter(stack)
    assert np.array_equal(got, np.stack([median_filter(img) for img in stack]))
    assert np.array_equal(got, np.stack([reference_median_filter(img) for img in stack]))


@settings(max_examples=150, deadline=None)
@given(gray_stacks())
@example(np.array([[[0, 9]], [[3, 3]]], np.uint8))
@example(np.array([[[0, 9, 9]], [[3, 1, 3]]], np.uint8))
def test_otsu_of_a_stack_is_otsu_of_each_image(stack):
    if any(np.unique(img).size < 2 for img in stack):
        with pytest.raises(UniformImageError):
            otsu_binarize(stack)
        return
    thresholds, binary = otsu_binarize(stack)
    alone = [otsu_binarize(img) for img in stack]
    assert thresholds.tolist() == [t for t, _ in alone]
    assert np.array_equal(binary, np.stack([b for _, b in alone]))


@settings(max_examples=150, deadline=None)
@given(arrays(bool, tuples(integers(1, 4), integers(0, 9), integers(0, 9)), elements=booleans()))
def test_labels_of_a_stack_number_each_image_in_turn(stack):
    labels, count = label_components(stack)
    offset = 0
    for img, got in zip(stack, labels):
        want, n = label_components(img)
        assert np.array_equal(got, np.where(want > 0, want + offset, 0))
        offset += n
    assert count == offset


def crop_character(gray):
    """The box and crop of one image cropped alone: `crop_characters` of a
    one-image stack."""
    (box,), (crop,) = crop_characters(np.asarray(gray)[None])
    return tuple(box.tolist()), crop


def assert_crops_of_each_image(stack):
    """`crop_characters` of the stack is `crop_character` of each image and
    the reference crop; where an image fails alone, the stack fails, with
    UniformImageError if any image is uniform once filtered (Otsu runs
    before the crop)."""
    alone, failures = [], set()
    for img in stack:
        try:
            alone.append(crop_character(img))
        except (EmptyCropError, UniformImageError) as exc:
            failures.add(type(exc))
    if failures:
        with pytest.raises(UniformImageError if UniformImageError in failures else EmptyCropError):
            crop_characters(stack)
        return
    boxes, crops = crop_characters(stack)
    assert boxes.shape == (len(stack), 4) and boxes.dtype == np.int64
    for box, crop, (want_box, want_crop), img in zip(boxes, crops, alone, stack, strict=True):
        assert tuple(box.tolist()) == want_box
        assert np.array_equal(crop, want_crop)
        assert want_box == reference_crop_character(img)[:4]
        assert np.array_equal(want_crop, reference_crop_character(img)[4])


@settings(max_examples=150, deadline=None)
@given(gray_stacks())
@example(np.stack([np.full((9, 9), 200, np.uint8), np.eye(9, dtype=np.uint8) * 200]))
def test_crop_of_a_stack_is_the_crop_of_each_image(stack):
    assert_crops_of_each_image(stack)


@pytest.mark.parametrize("seed", [1, 2])
def test_crop_of_a_glyph_stack_is_the_crop_of_each_glyph(seed):
    assert_crops_of_each_image(glyph_stack(24, seed))


def test_a_uniform_image_fails_its_stack():
    stack = glyph_stack(3, 5)
    stack[1] = 255
    with pytest.raises(UniformImageError):
        otsu_binarize(median_filter(stack))
    with pytest.raises(UniformImageError):
        crop_characters(stack)


@pytest.mark.parametrize("stage", [median_filter, otsu_binarize, crop_character])
@pytest.mark.parametrize(
    "img, error",
    [
        (np.zeros(5, np.uint8), WrongDimensionsError),
        (np.zeros((2, 2, 3, 3), np.uint8), WrongDimensionsError),
        (np.zeros((0, 4), np.uint8), WrongDimensionsError),
        (np.zeros((4, 0), np.uint8), WrongDimensionsError),
        (np.full((4, 4), 256.0), ValueError),
        (np.full((4, 4), -1.0), ValueError),
    ],
    ids=["1-D", "4-D", "0xN", "Nx0", "above-255", "negative"],
)
def test_glyph_stages_keep_their_input_checks(stage, img, error):
    with pytest.raises(error):
        stage(img)


@pytest.mark.parametrize("stage", [median_filter, otsu_binarize, crop_characters])
@pytest.mark.parametrize(
    "stack, error",
    [
        (np.zeros((0, 4, 4), np.uint8), WrongDimensionsError),
        (np.zeros((2, 0, 4), np.uint8), WrongDimensionsError),
        (np.full((2, 4, 4), 256.0), ValueError),
        (np.full((2, 4, 4), np.nan), NonFiniteInputError),
    ],
    ids=["no-images", "0xN", "above-255", "nan"],
)
def test_glyph_stacks_are_checked_as_images(stage, stack, error):
    with pytest.raises(error):
        stage(stack)


def test_crop_character_takes_one_image_and_crop_characters_a_stack():
    stack = glyph_stack(2, 3)
    with pytest.raises(WrongDimensionsError):
        preprocess_character(stack)
    with pytest.raises(WrongDimensionsError):
        crop_characters(stack[0])


# --- page pipeline ------------------------------------------------------------

def page_with_glyphs():
    """Two rows of three solid shapes, enough structure for the full pipeline."""
    page = np.zeros((300, 400), np.uint8)
    page[:] = 255
    def stamp(top, left):
        page[top : top + 40, left : left + 30] = 0
        page[top + 10 : top + 30, left + 8 : left + 22] = 255  # hollow it a bit
    for left in (40, 150, 260):
        stamp(50, left)
        stamp(180, left)
    return page


def test_preprocess_page_records():
    glyphs = preprocess_page(page_with_glyphs())
    assert len(glyphs) == 6
    assert glyphs.boxes.shape == (6, 4) and glyphs.boxes.dtype == np.int64
    assert glyphs.normalized.shape == glyphs.skeletons.shape == (6, 32, 32)
    for (_, _, width, height), crop in zip(glyphs.boxes.tolist(), glyphs.crops, strict=True):
        assert crop.shape == (height, width)
    assert not np.any(glyphs.skeletons & ~glyphs.normalized)  # skeleton within the glyph
    tops = glyphs.boxes[:, 1]
    assert max(tops[:3]) < min(tops[3:])  # first line above second
    lefts = glyphs.boxes[:3, 0].tolist()
    assert lefts == sorted(lefts)


def test_check_binary_shares_a_bool_image_and_converts_any_other():
    img = np.random.default_rng(5).random((6, 7)) < 0.5
    assert np.shares_memory(preprocess._check_binary(img), img)
    assert np.shares_memory(preprocess._check_binary(img[None], stack=True), img)
    converted = preprocess._check_binary(img.astype(np.uint8) * 3)
    assert converted.dtype == bool and np.array_equal(converted, img)


def test_page_stages_leave_their_input_unchanged():
    gray = page_with_glyphs()
    kept = gray.copy()
    assert len(preprocess_page(gray)) == 6
    assert np.array_equal(gray, kept)
    page, theta = glyph_page(3)
    kept = page.copy()
    detect_skew(page)
    deskew(page, theta)
    segment_page(page)
    label_components(page)
    assert np.array_equal(page, kept)


def test_preprocess_page_blank_after_binarize():
    # page with two intensities, both light: threshold separates them so the
    # darker half is "ink" covering a full band -> still segmentable
    page = np.full((60, 60), 255, np.uint8)
    page[20:30, 10:50] = 180
    assert len(preprocess_page(page)) == 1


def test_page_of_specks_has_no_records():
    page = np.zeros((60, 80), dtype=bool)
    page[10:12, 10:12] = True  # 4 pixels, under MIN_COMPONENT_AREA
    page[30, 40:44] = True
    page[50, 70] = True
    glyphs = segment_page(page)
    assert len(glyphs) == 0 and glyphs.crops == []
    assert glyphs.boxes.shape == (0, 4) and glyphs.skeletons.shape == (0, 32, 32)


def glyph_batch(boxes):
    """A batch of blank 32x32 glyphs with `boxes` and crops of their size."""
    boxes = np.array(boxes, dtype=np.int64).reshape(-1, 4)
    crops = [np.ones((max(h, 0), max(w, 0)), bool) for _, _, w, h in boxes.tolist()]
    stack = np.zeros((len(boxes), 32, 32), dtype=bool)
    return Glyphs(boxes, crops, stack, stack)


def test_bounding_box_validation():
    for box in ([0, 0, 0, 3], [0, 0, 3, 0], [5, 5, -1, 4]):
        with pytest.raises(InvalidConfigError):
            glyph_batch([[0, 0, 4, 4], box])
    assert glyph_batch([[0, 0, 1, 1]]).boxes.tolist() == [[0, 0, 1, 1]]


def test_a_batch_holds_one_crop_and_one_image_of_each_stack_per_box():
    boxes = np.array([[0, 0, 3, 4], [9, 1, 2, 2]], dtype=np.int64)
    crops = [np.ones((4, 3), bool), np.ones((2, 2), bool)]
    stack = np.zeros((2, 32, 32), dtype=bool)
    Glyphs(boxes, crops, stack, stack)
    with pytest.raises(InvalidConfigError):
        Glyphs(boxes[:1], crops, stack, stack)
    with pytest.raises(InvalidConfigError):
        Glyphs(boxes[:, :3], crops, stack, stack)
    for normalized, skeletons in [(stack[:1], stack), (stack, stack[:1]), (stack, stack[:, :16])]:
        with pytest.raises(WrongDimensionsError):
            Glyphs(boxes, crops, normalized, skeletons)


def test_a_batch_iterates_as_one_glyph_batches():
    glyphs = preprocess_page(page_with_glyphs())
    ones = list(glyphs)
    assert len(ones) == len(glyphs) == 6
    for g, one in enumerate(ones):
        assert len(one) == 1
        assert np.array_equal(one.boxes, glyphs.boxes[g : g + 1])
        assert one.crops == [glyphs.crops[g]]
        assert np.array_equal(one.normalized, glyphs.normalized[g : g + 1])
        assert np.array_equal(one.skeletons, glyphs.skeletons[g : g + 1])
