import numpy as np
import pytest

from glyphsvm.errors import MixedDimensionsError, UnreadableFileError, WrongDimensionsError
from glyphsvm.features import (
    FeatureConfig,
    FeatureVector,
    aspect_ratio,
    crossing_number,
    csv_header,
    extract_features,
    local_zone_features,
    read_features_csv,
    skeleton_topology,
    write_features_csv,
)
from glyphsvm.preprocess import BoundingBox, CharacterRecord, thin, zhang_suen

from oracles import neighborhood_images, reference_crossing_number


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
    return zhang_suen(img)


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
    out = local_zone_features(blank(), FeatureConfig(cell_px=4))
    assert out.shape == (64,)
    assert not out.any()


def test_zones_full():
    out = local_zone_features(np.ones((32, 32), dtype=bool), FeatureConfig(cell_px=4))
    assert (out == 16).all()


def test_zones_single_pixel_first_cell():
    img = blank()
    img[0, 0] = True
    out = local_zone_features(img, FeatureConfig(cell_px=4))
    assert out[0] == 1
    assert out[1:].sum() == 0


def test_zones_row_major_order():
    img = blank()
    img[0, 31] = True  # top-right cell = index cells_per_side - 1
    out = local_zone_features(img, FeatureConfig(cell_px=4))
    assert out[7] == 1 and out.sum() == 1
    img2 = blank()
    img2[31, 0] = True  # bottom-left cell = first cell of last row
    out2 = local_zone_features(img2, FeatureConfig(cell_px=4))
    assert out2[56] == 1 and out2.sum() == 1


def test_zones_partition_property():
    rng = np.random.default_rng(2)
    for _ in range(100):
        img = rng.random((32, 32)) < rng.uniform(0.05, 0.5)
        total = img.sum()
        for cell in (16, 8, 4, 2):
            assert local_zone_features(img, FeatureConfig(cell_px=cell)).sum() == total


def test_zones_translation_covariance():
    rng = np.random.default_rng(3)
    cfg = FeatureConfig(cell_px=4)
    img = blank()
    img[4:12, 4:12] = rng.random((8, 8)) < 0.5
    shifted = np.roll(img, (4, 4), axis=(0, 1))
    base = local_zone_features(img, cfg).reshape(8, 8)
    moved = local_zone_features(shifted, cfg).reshape(8, 8)
    assert np.array_equal(np.roll(base, (1, 1), axis=(0, 1)), moved)


def test_zones_require_32():
    with pytest.raises(WrongDimensionsError):
        local_zone_features(np.zeros((16, 16), dtype=bool), FeatureConfig())


# --- aspect ratio -------------------------------------------------------------

def test_aspect_ratio_values():
    assert aspect_ratio(BoundingBox(0, 0, 10, 10)) == 1.0
    assert aspect_ratio(BoundingBox(0, 0, 20, 40)) == 0.5
    assert aspect_ratio(BoundingBox(0, 0, 40, 20)) == 2.0


# --- topology -------------------------------------------------------------------

def test_topology_line():
    img = blank()
    img[16, 5:15] = True
    assert skeleton_topology(img) == (2, 0, 0)


def test_topology_plus():
    img = blank()
    img[16, 13:20] = True
    img[13:20, 16] = True
    assert skeleton_topology(img) == (4, 0, 1)


def test_topology_tee():
    img = blank()
    img[10, 13:20] = True
    img[11:15, 16] = True
    assert skeleton_topology(img) == (3, 1, 0)


def test_topology_empty():
    assert skeleton_topology(blank()) == (0, 0, 0)


def test_topology_open_curve_has_two_ends():
    img = blank()
    rr = np.arange(6, 26)
    for i, r in enumerate(rr):  # a diagonal staircase open curve
        img[r, 6 + i // 2] = True
    img = zhang_suen(img)
    ep, bp, cp = skeleton_topology(img)
    assert (ep, bp, cp) == (2, 0, 0)


def test_topology_matches_oracle_on_random_curves():
    rng = np.random.default_rng(9)
    for _ in range(50):
        img = random_thin_curve(rng)
        assert skeleton_topology(img) == topology_oracle(img)


def test_crossing_number_table_matches_references():
    rng = np.random.default_rng(43)
    images = [img for _, img in neighborhood_images()]
    images += [rng.random((32, 32)) < density for density in np.linspace(0.05, 0.95, 10)]
    for img in images:
        t = crossing_number(img)
        assert t.dtype == np.int32
        assert np.array_equal(t, reference_crossing_number(img))
        rows, cols = img.shape
        expected = [
            [crossing_number_oracle(img, r, c) if img[r, c] else 0 for c in range(cols)]
            for r in range(rows)
        ]
        assert np.array_equal(t, expected)


# --- assembled vector ------------------------------------------------------------

def make_record(skeleton, bbox=None):
    return CharacterRecord(
        bbox=bbox or BoundingBox(0, 0, 12, 24),
        crop=np.ones((24, 12), dtype=bool),
        normalized=skeleton | True if skeleton.any() else np.ones((32, 32), bool),
        skeleton=skeleton,
    )


@pytest.mark.parametrize("cell,total", [(16, 8), (8, 20), (4, 68), (2, 260)])
def test_vector_lengths(cell, total):
    img = blank()
    img[16, 5:15] = True
    vec = extract_features(make_record(img), FeatureConfig(cell_px=cell))
    assert vec.values.shape == (total,)


def test_vector_tail_order_line():
    img = blank()
    img[16, 5:15] = True
    vec = extract_features(make_record(img), FeatureConfig(cell_px=4))
    np.testing.assert_allclose(vec.values[-4:], [12 / 24, 2, 0, 0])


def test_vector_tail_cross_before_branch():
    img = blank()
    img[10, 13:20] = True  # tee: 3 endpoints, 1 branch, 0 cross
    img[11:15, 16] = True
    vec = extract_features(make_record(img), FeatureConfig(cell_px=4))
    whr, ep, cp, bp = vec.values[-4:]
    assert (ep, cp, bp) == (3, 0, 1)


def test_vector_locals_match_zones():
    rng = np.random.default_rng(12)
    img = zhang_suen(rng.random((32, 32)) < 0.3)
    cfg = FeatureConfig(cell_px=8)
    vec = extract_features(make_record(img), cfg)
    np.testing.assert_array_equal(vec.values[:16], local_zone_features(img, cfg))


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
