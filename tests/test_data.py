import os
import re

import numpy as np
import pytest

from glyphsvm.data import load_dataset
from glyphsvm.errors import EmptyClassError, UnreadableFileError
from glyphsvm.features import FeatureConfig
from glyphsvm.pgm import write_pgm
from glyphsvm.preprocess import _THIN_BATCH
from glyphsvm.synth import SynthConfig, generate_synthetic_dataset, render_sample

from oracles import reference_load_image_dataset


@pytest.fixture(scope="module")
def image_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("imgds")
    generate_synthetic_dataset(SynthConfig(classes=2, per_class=3, seed=2), root)
    return root


def test_image_dir_counts(image_root):
    data = load_dataset(image_root)
    assert len(data) == 6
    assert data.dimension == 68
    assert data.class_ids == ["0", "1"]
    assert sorted(set(data.labels)) == ["0", "1"]


def test_image_dir_respects_grid_cell(image_root):
    data = load_dataset(image_root, config=FeatureConfig(cell_px=8))
    assert data.dimension == 20


def test_image_dir_deterministic(image_root):
    a = load_dataset(image_root)
    b = load_dataset(image_root)
    assert np.array_equal(a.vectors, b.vectors)
    assert a.labels == b.labels


def test_empty_class_dir(tmp_path):
    os.makedirs(tmp_path / "0")
    os.makedirs(tmp_path / "1")
    write_pgm(np.full((20, 20), 255, np.uint8) * 0, tmp_path / "1" / "x.pgm")
    with pytest.raises(EmptyClassError):
        load_dataset(tmp_path)


def test_no_class_dirs(tmp_path):
    with pytest.raises(EmptyClassError):
        load_dataset(tmp_path)


def test_uniform_image_is_unreadable(tmp_path):
    for cls in ("0", "1"):
        os.makedirs(tmp_path / cls)
        write_pgm(np.full((20, 20), 255, np.uint8), tmp_path / cls / "a.pgm")
    with pytest.raises(UnreadableFileError):
        load_dataset(tmp_path)


def write_dataset_with_late_bad_file(root):
    """Two classes of good glyphs, then a uniform `1/b.pgm` read last."""
    generate_synthetic_dataset(SynthConfig(classes=2, per_class=3, seed=2), root)
    bad = root / "1" / "b.pgm"
    write_pgm(np.full((20, 20), 255, np.uint8), bad)
    return bad


def test_later_bad_file_is_named(tmp_path):
    bad = write_dataset_with_late_bad_file(tmp_path)
    assert sorted(os.listdir(tmp_path / "1"))[-1] == "b.pgm"
    with pytest.raises(UnreadableFileError, match=re.escape(str(bad))):
        load_dataset(tmp_path)


def test_csv_mode_inferred(tmp_path, image_root):
    from glyphsvm.features import write_features_csv

    data = load_dataset(image_root)
    csv_path = tmp_path / "feats.csv"
    cfg = FeatureConfig(cell_px=4)
    write_features_csv(csv_path, data.labels, [v for v in data.vectors], cfg)
    reloaded = load_dataset(csv_path)
    assert np.array_equal(reloaded.vectors, data.vectors)
    assert reloaded.labels == data.labels



def uniform_image():
    return np.full((20, 20), 255, np.uint8)


def speck_image():
    """Ink that survives the median filter as a 4-pixel component, under
    MIN_COMPONENT_AREA."""
    img = uniform_image()
    img[5:8, 5:7] = 0
    img[6, 7] = 0
    return img


@pytest.mark.parametrize("first", [uniform_image, speck_image], ids=["uniform", "speck"])
def test_bad_file_is_named_ahead_of_a_later_truncated_one(tmp_path, first):
    # a batch is read before it is cleaned; the error still names the first
    # failing file in load order, as when each file was cleaned once read
    generate_synthetic_dataset(SynthConfig(classes=2, per_class=2, seed=2), tmp_path)
    write_pgm(first(), tmp_path / "1" / "a.pgm")
    (tmp_path / "1" / "b.pgm").write_bytes(b"P5\n20 20\n255\n" + bytes(7))
    with pytest.raises(UnreadableFileError, match=re.escape(str(tmp_path / "1" / "a.pgm"))):
        load_dataset(tmp_path)
    with pytest.raises(UnreadableFileError, match=re.escape(str(tmp_path / "1" / "a.pgm"))):
        reference_load_image_dataset(tmp_path, FeatureConfig())


def test_truncated_file_is_named_ahead_of_a_later_bad_one(tmp_path):
    generate_synthetic_dataset(SynthConfig(classes=2, per_class=2, seed=2), tmp_path)
    (tmp_path / "1" / "a.pgm").write_bytes(b"P5\n20 20\n255\n" + bytes(7))
    write_pgm(uniform_image(), tmp_path / "1" / "b.pgm")
    with pytest.raises(UnreadableFileError, match=re.escape(str(tmp_path / "1" / "a.pgm"))):
        load_dataset(tmp_path)


def test_bad_file_after_a_full_batch_is_named(tmp_path):
    config = SynthConfig(classes=2, per_class=_THIN_BATCH + 3, seed=4)
    generate_synthetic_dataset(config, tmp_path)
    names = sorted(os.listdir(tmp_path / "0"))
    bad = tmp_path / "0" / names[_THIN_BATCH + 1]
    write_pgm(speck_image(), bad)
    write_pgm(uniform_image(), tmp_path / "0" / names[_THIN_BATCH + 2])
    with pytest.raises(UnreadableFileError, match=re.escape(str(bad))):
        load_dataset(tmp_path)


def test_mixed_shapes_equal_the_per_file_loader(tmp_path):
    """One class directory mixes 64x64 glyphs with other shapes, over more
    than one batch: the dataset is the per-file loader's, bit for bit and in
    order."""
    config = SynthConfig(classes=2, per_class=70, seed=6)
    generate_synthetic_dataset(config, tmp_path)
    for i in range(0, 70, 4):
        gray = render_sample(config, 1, i)
        write_pgm(gray[:, 10:50], tmp_path / "1" / f"1_{i:04d}n.pgm")
        tall = np.pad(gray, ((3, 9), (0, 0)), constant_values=255)
        write_pgm(tall, tmp_path / "1" / f"1_{i:04d}t.pgm")
    framed = np.pad(render_sample(config, 0, 3), 1, constant_values=255)
    write_pgm(framed, tmp_path / "0" / "0_x.pgm")
    data = load_dataset(tmp_path)
    want = reference_load_image_dataset(tmp_path, FeatureConfig())
    assert len(data) == 70 + 70 + 2 * 18 + 1 > _THIN_BATCH
    assert data.vectors.dtype == want.vectors.dtype
    assert np.array_equal(data.vectors, want.vectors)
    assert data.labels == want.labels
