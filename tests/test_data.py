import os
import re

import numpy as np
import pytest

from glyphsvm.data import load_dataset
from glyphsvm.errors import EmptyClassError, UnreadableFileError
from glyphsvm.features import FeatureConfig
from glyphsvm.pgm import write_pgm
from glyphsvm.synth import SynthConfig, generate_synthetic_dataset


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

