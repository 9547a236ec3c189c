import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra.numpy import arrays
from hypothesis.strategies import booleans, integers, lists, sampled_from, tuples

from glyphsvm.errors import (
    DimensionMismatchError,
    InvalidConfigError,
    MixedDimensionsError,
    NonFiniteInputError,
    UnreadableFileError,
    WrongDimensionsError,
)
from glyphsvm.features import (
    FeatureConfig,
    FeatureVector,
    csv_header,
    extract_features,
    feature_rows,
    local_zone_features,
    read_features_csv,
    skeleton_topology,
    write_features_csv,
)
from glyphsvm.preprocess import Glyphs, segment_page, thin, topology_words, _unpack_rows

from oracles import neighborhood_images, reference_crossing_number, reference_feature_row


def crossing_number_oracle(img, r, c):
    """0-to-1 transitions around (r, c), plain python."""
    order = [(-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1)]
    vals = []
    for dr, dc in order:
        rr, cc = r + dr, c + dc
        vals.append(1 if 0 <= rr < img.shape[0] and 0 <= cc < img.shape[1] and img[rr, cc] else 0)
    return sum(1 for i in range(8) if vals[i] == 0 and vals[(i + 1) % 8] == 1)


def topology_oracle(img):
    ep = bp = cp = 0
    for r, c in zip(*np.nonzero(img)):
        t = crossing_number_oracle(img, r, c)
        if t == 1:
            ep += 1
        elif t == 3:
            bp += 1
        elif t >= 4:
            cp += 1
    return ep, bp, cp


def blank():
    return np.zeros((32, 32), dtype=bool)


def zones(img, config):
    """`local_zone_features` of one image, as a one-image stack."""
    return local_zone_features(img[None], config)[0]


def topology(img):
    """`skeleton_topology` of one image, as a one-image stack."""
    return tuple(skeleton_topology(img[None])[0].tolist())


def random_thin_curve(rng):
    """Random walk skeletonized by thinning, guaranteed thin."""
    img = blank()
    r, c = rng.integers(8, 24, 2)
    img[r, c] = True
    for _ in range(60):
        dr, dc = rng.integers(-1, 2, 2)
        r = int(np.clip(r + dr, 1, 30))
        c = int(np.clip(c + dc, 1, 30))
        img[r, c] = True
    return thin(img[None])[0]


# --- config & arithmetic -----------------------------------------------------

@pytest.mark.parametrize(
    "cell,n_local,total", [(16, 4, 8), (8, 16, 20), (4, 64, 68), (2, 256, 260)]
)
def test_config_counts(cell, n_local, total):
    cfg = FeatureConfig(cell_px=cell)
    assert cfg.local_count == n_local
    assert cfg.total_count == total


def test_config_rejects_bad_cell():
    with pytest.raises(ValueError):
        FeatureConfig(cell_px=5)


def test_zones_empty():
    out = zones(blank(), FeatureConfig(cell_px=4))
    assert out.shape == (64,)
    assert not out.any()


def test_zones_full():
    out = zones(np.ones((32, 32), dtype=bool), FeatureConfig(cell_px=4))
    assert (out == 16).all()


def test_zones_single_pixel_first_cell():
    img = blank()
    img[0, 0] = True
    out = zones(img, FeatureConfig(cell_px=4))
    assert out[0] == 1
    assert out[1:].sum() == 0


def test_zones_row_major_order():
    img = blank()
    img[0, 31] = True  # top-right cell = index cells_per_side - 1
    out = zones(img, FeatureConfig(cell_px=4))
    assert out[7] == 1 and out.sum() == 1
    img2 = blank()
    img2[31, 0] = True  # bottom-left cell = first cell of last row
    out2 = zones(img2, FeatureConfig(cell_px=4))
    assert out2[56] == 1 and out2.sum() == 1


def test_zones_partition_property():
    rng = np.random.default_rng(2)
    for _ in range(100):
        img = rng.random((32, 32)) < rng.uniform(0.05, 0.5)
        total = img.sum()
        for cell in (16, 8, 4, 2):
            assert zones(img, FeatureConfig(cell_px=cell)).sum() == total


def test_zones_translation_covariance():
    rng = np.random.default_rng(3)
    cfg = FeatureConfig(cell_px=4)
    img = blank()
    img[4:12, 4:12] = rng.random((8, 8)) < 0.5
    shifted = np.roll(img, (4, 4), axis=(0, 1))
    base = zones(img, cfg).reshape(8, 8)
    moved = zones(shifted, cfg).reshape(8, 8)
    assert np.array_equal(np.roll(base, (1, 1), axis=(0, 1)), moved)


def test_zones_require_32():
    with pytest.raises(WrongDimensionsError):
        local_zone_features(np.zeros((16, 16), dtype=bool), FeatureConfig())


@pytest.mark.parametrize("shape", [(16, 16), (3, 32, 16), (2, 2, 32, 32), (32,), (32, 32)])
def test_topology_requires_32(shape):
    with pytest.raises(WrongDimensionsError):
        skeleton_topology(np.zeros(shape, dtype=bool))


# --- aspect ratio -------------------------------------------------------------

def test_aspect_ratio_values():
    config = FeatureConfig()
    glyphs = make_glyphs(np.zeros((3, 32, 32), bool), [(10, 10), (20, 40), (40, 20)])
    assert feature_rows(glyphs, config)[:, config.local_count].tolist() == [1.0, 0.5, 2.0]


# --- topology -------------------------------------------------------------------

def test_topology_line():
    img = blank()
    img[16, 5:15] = True
    assert topology(img) == (2, 0, 0)


def test_topology_plus():
    img = blank()
    img[16, 13:20] = True
    img[13:20, 16] = True
    assert topology(img) == (4, 0, 1)


def test_topology_tee():
    img = blank()
    img[10, 13:20] = True
    img[11:15, 16] = True
    assert topology(img) == (3, 1, 0)


def test_topology_empty():
    assert topology(blank()) == (0, 0, 0)


def test_topology_open_curve_has_two_ends():
    img = blank()
    rr = np.arange(6, 26)
    for i, r in enumerate(rr):  # a diagonal staircase open curve
        img[r, 6 + i // 2] = True
    img = thin(img[None])[0]
    ep, bp, cp = topology(img)
    assert (ep, bp, cp) == (2, 0, 0)


def test_topology_matches_oracle_on_random_curves():
    rng = np.random.default_rng(9)
    for _ in range(50):
        img = random_thin_curve(rng)
        assert topology(img) == topology_oracle(img)


def test_topology_words_match_references():
    """Every 3x3 window, in the corner of a blank frame where the cells
    around it are background as off a 3x3 image, and random images at 10
    densities: the packed end, branch and cross words hold the ink pixels of
    crossing number 1, 3 and 4 by both references."""
    rng = np.random.default_rng(43)
    images = []
    for _, window in neighborhood_images():
        img = blank()
        img[:3, :3] = window
        images.append(img)
    images += [rng.random((32, 32)) < density for density in np.linspace(0.05, 0.95, 10)]
    stack = np.array(images)
    words = [_unpack_rows(word) for word in topology_words(stack)]
    for img, ends, branches, crosses in zip(stack, *words):
        t = reference_crossing_number(img)
        expected = [
            [crossing_number_oracle(img, r, c) if img[r, c] else 0 for c in range(32)]
            for r in range(32)
        ]
        assert np.array_equal(t, expected)
        assert np.array_equal(ends, t == 1)
        assert np.array_equal(branches, t == 3)
        assert np.array_equal(crosses, t == 4)


# --- assembled vector ------------------------------------------------------------

def make_glyphs(skeletons, sizes=((12, 24),)):
    """A batch of thinned glyphs: one (32, 32) skeleton or a stack of them,
    with boxes of `sizes` (width, height) and crops and normalized images
    all ink."""
    skeletons = np.asarray(skeletons, dtype=bool).reshape(-1, 32, 32)
    boxes = np.array([[0, 0, w, h] for w, h in sizes], dtype=np.int64).reshape(-1, 4)
    crops = [np.ones((h, w), dtype=bool) for w, h in sizes]
    return Glyphs(boxes, crops, np.ones_like(skeletons), skeletons)


@pytest.mark.parametrize("cell,total", [(16, 8), (8, 20), (4, 68), (2, 260)])
def test_vector_lengths(cell, total):
    img = blank()
    img[16, 5:15] = True
    vec = extract_features(make_glyphs(img), FeatureConfig(cell_px=cell))
    assert vec.values.shape == (total,)


def test_vector_tail_order_line():
    img = blank()
    img[16, 5:15] = True
    vec = extract_features(make_glyphs(img), FeatureConfig(cell_px=4))
    np.testing.assert_allclose(vec.values[-4:], [12 / 24, 2, 0, 0])


def test_vector_tail_cross_before_branch():
    img = blank()
    img[10, 13:20] = True  # tee: 3 endpoints, 1 branch, 0 cross
    img[11:15, 16] = True
    vec = extract_features(make_glyphs(img), FeatureConfig(cell_px=4))
    whr, ep, cp, bp = vec.values[-4:]
    assert (ep, cp, bp) == (3, 0, 1)


def test_vector_locals_match_zones():
    rng = np.random.default_rng(12)
    img = thin((rng.random((32, 32)) < 0.3)[None])[0]
    cfg = FeatureConfig(cell_px=8)
    vec = extract_features(make_glyphs(img), cfg)
    np.testing.assert_array_equal(vec.values[:16], zones(img, cfg))


@settings(max_examples=100, deadline=None)
@given(
    arrays(bool, tuples(integers(1, 5), integers(32, 32), integers(32, 32)), elements=booleans()),
    lists(tuples(integers(1, 90), integers(1, 90)), min_size=5, max_size=5),
    sampled_from([16, 8, 4, 2]),
)
def test_feature_rows_of_a_stack_are_each_records_features(skeletons, boxes, cell):
    config = FeatureConfig(cell_px=cell)
    glyphs = make_glyphs(skeletons, boxes[: len(skeletons)])
    rows = feature_rows(glyphs, config)
    assert rows.shape == (len(glyphs), config.total_count)
    assert rows.dtype == np.float64
    for row, glyph in zip(rows, glyphs, strict=True):
        assert np.array_equal(row, extract_features(glyph, config).values)
        _, _, width, height = glyph.boxes[0].tolist()
        want = reference_feature_row(glyph.skeletons[0], width, height, config)
        assert np.array_equal(row, want)


def test_a_page_of_no_glyphs_has_no_feature_rows():
    page = np.zeros((40, 60), dtype=bool)
    page[20, 30:32] = True  # 2 px, under MIN_COMPONENT_AREA
    glyphs = segment_page(page)
    assert len(glyphs) == 0
    assert feature_rows(glyphs, FeatureConfig()).shape == (0, 68)
    assert local_zone_features(glyphs.skeletons, FeatureConfig(cell_px=8)).shape == (0, 16)
    assert skeleton_topology(glyphs.skeletons).shape == (0, 3)
    assert topology_words(glyphs.skeletons).shape == (3, 32, 0)


def test_extract_features_takes_one_glyph():
    stack = np.zeros((2, 32, 32), dtype=bool)
    for glyphs in (make_glyphs(stack, [(3, 4), (5, 6)]), make_glyphs(stack[:0], [])):
        with pytest.raises(WrongDimensionsError):
            extract_features(glyphs, FeatureConfig())


def test_stacked_zone_and_topology_counts_are_each_images():
    rng = np.random.default_rng(29)
    stack = thin(rng.random((6, 32, 32)) < 0.3)
    config = FeatureConfig(cell_px=8)
    assert np.array_equal(local_zone_features(stack, config), [zones(img, config) for img in stack])
    assert skeleton_topology(stack).tolist() == [list(topology(img)) for img in stack]
    with pytest.raises(WrongDimensionsError):
        local_zone_features(stack[0], config)
    with pytest.raises(WrongDimensionsError):
        skeleton_topology(stack[0])


def test_feature_vector_validates_length():
    with pytest.raises(ValueError):
        FeatureVector(values=np.zeros(10), config=FeatureConfig(cell_px=4))


# --- CSV ------------------------------------------------------------------------

def test_csv_header_shape():
    header = csv_header(FeatureConfig(cell_px=8))
    cols = header.split(",")
    assert cols[0] == "label"
    assert cols[1] == "v1" and cols[16] == "v16"
    assert cols[-4:] == ["whr", "ep", "cp", "bp"]


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    cfg = FeatureConfig(cell_px=4)
    vectors = [rng.uniform(0, 16, cfg.total_count) for _ in range(5)]
    labels = ["3", "1", "4", "1", "5"]
    path = tmp_path / "feats.csv"
    write_features_csv(path, labels, vectors, cfg)
    got_labels, matrix, got_cfg = read_features_csv(path)
    assert got_labels == labels
    assert got_cfg.cell_px == 4
    np.testing.assert_array_equal(matrix, np.array(vectors))


def test_csv_writer_rejects_a_row_of_the_wrong_length(tmp_path):
    # a 10-value row under a 68-feature header used to write a file that
    # read_features_csv then refused
    cfg = FeatureConfig(cell_px=4)
    path = tmp_path / "feats.csv"
    with pytest.raises(DimensionMismatchError):
        write_features_csv(path, ["1", "2"], [np.zeros(cfg.total_count), np.zeros(10)], cfg)
    assert not path.exists()


@pytest.mark.parametrize("bad", ["a,b", " a", "a ", "", "a\nb", "a\rb", "\t"])
def test_csv_writer_rejects_a_label_that_would_not_read_back(tmp_path, bad):
    # "a,b" used to write a row that read_features_csv refused as ragged, and
    # " a" one that read back as "a"
    cfg = FeatureConfig(cell_px=4)
    path = tmp_path / "feats.csv"
    with pytest.raises(InvalidConfigError):
        write_features_csv(path, ["1", bad], [np.zeros(cfg.total_count)] * 2, cfg)
    assert not path.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_csv_writer_rejects_a_value_that_would_not_read_back(tmp_path, bad):
    # a NaN used to be written as "nan", which read_features_csv refuses
    cfg = FeatureConfig(cell_px=4)
    path = tmp_path / "feats.csv"
    write_features_csv(path, ["1"], [np.zeros(cfg.total_count)], cfg)
    before = path.read_bytes()
    row = np.zeros(cfg.total_count)
    row[5] = bad
    with pytest.raises(NonFiniteInputError):
        write_features_csv(path, ["1", "2"], [np.zeros(cfg.total_count), row], cfg)
    assert path.read_bytes() == before


def test_csv_roundtrip_keeps_labels_with_inner_spaces_and_symbols(tmp_path):
    cfg = FeatureConfig(cell_px=4)
    labels = ["a b", "é", "x;y", "01", 7]
    path = tmp_path / "feats.csv"
    write_features_csv(path, labels, [np.zeros(cfg.total_count)] * len(labels), cfg)
    assert read_features_csv(path)[0] == [str(label) for label in labels]


def test_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    cfg = FeatureConfig(cell_px=16)
    header = csv_header(cfg)
    path.write_text(header + "\n1," + ",".join(["0"] * cfg.total_count) + "\n2,0,0\n")
    with pytest.raises(MixedDimensionsError):
        read_features_csv(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_csv_rejects_non_finite_values(tmp_path, bad):
    path = tmp_path / "bad.csv"
    cfg = FeatureConfig(cell_px=16)
    values = ["0"] * cfg.total_count
    values[2] = bad
    path.write_text(csv_header(cfg) + "\n1," + ",".join(values) + "\n")
    with pytest.raises(UnreadableFileError):
        read_features_csv(path)
