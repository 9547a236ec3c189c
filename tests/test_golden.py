"""Golden fixture: seeded runs whose outputs are pinned by sha256.

Pinned: a saved model, a grid CSV and the cross-validation details of each
multiclass strategy, the SMO work of each strategy's grid, the records of a
small noisy page and of the benchmark's two page scans, the feature rows of
single glyphs and the dataset loaded from a glyph directory.

A change that alters training or prediction arithmetic changes one of these
digests. If that is intended, say so in CHANGES.md and update the digests.
"""

import hashlib
import numpy as np
import pytest

from glyphsvm.data import load_dataset
from glyphsvm.features import FeatureConfig, extract_features, feature_rows
from glyphsvm.model_io import save_model
from glyphsvm.modelsel import Dataset, _cross_validate, cross_validate, grid_search, kfold_split
from glyphsvm.multiclass import train_one_vs_all, train_one_vs_one
from glyphsvm.preprocess import deskew, preprocess_character, preprocess_page
from glyphsvm.svm import KernelSpec
from glyphsvm.pgm import write_pgm
from glyphsvm.synth import SynthConfig, generate_synthetic_dataset, render_sample

from oracles import fold_scalings
from test_api import perfbench_module

MODEL_SHA256 = "5834e4acac8839ff5212aa74b2ee8189da0910fc0c4cf1357af218b64f3d603c"
GRID_CSV_SHA256 = "666d15f06315c888201568ec8c958ab0e6cad5fe88ad8a3f7ed50f3fbf01e52e"
PAGE_RECORDS_SHA256 = "2765912598c0ab8e6b2ed6419c364d0feecfb2e4412fae99233095d9769c9631"
# both scans of the `page_ocr` benchmark page at seed 1, one after the other
BENCHMARK_PAGE_RECORDS_SHA256 = "7715cd98525d9e68d037ad9965e4b03b614a6925429fe7ec9d729517e5341f36"
GLYPH_FEATURES_SHA256 = "d7fb642f446531231a2fb04e051e90aea8980a95938675e11a12597fd2e9ce7a"
# the vectors, then the labels, of `golden_glyph_directory`
LOADER_SHA256 = "6109ffc6b7eb2df6cda72ec5a2530212448184ed99e36ed14d14efa8ca846b10"
OVO_MODEL_SHA256 = "d4fc20f81f0d515a1293a8f11f6fd9573c63452bc34e5871b581bd420ffc3dd4"
OVO_GRID_CSV_SHA256 = "a7868ec24927dfc375aba7032d0212f66da66735d984dc1f86fec267ce27fada"
# SMO pair updates summed over each cell's folds and problems, in entry order
OVA_GRID_ITERATIONS = [202, 157, 562, 263]
OVO_GRID_ITERATIONS = [125, 113, 308, 184]
# mean and fold accuracies, then each fold's scaling mins and maxs
CV_DETAILS_SHA256 = {
    "ova": "a58372d3407d2011be43062c3fcae089fd9893e108410d1906b41816881e12b2",
    "ovo": "2584dfa5ce8b667136218c5a61fa9ab1e2a6e02d762c7b1c0ac652d4f4fc1971",
}


def golden_dataset() -> Dataset:
    """Three overlapping 4-D Gaussian clusters, 20 samples each."""
    rng = np.random.default_rng(2021)
    centers = rng.normal(size=(3, 4)) * 1.5
    vectors = np.vstack([c + rng.normal(size=(20, 4)) for c in centers])
    return Dataset(vectors, [k for k in range(3) for _ in range(20)])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_grid_csv():
    report = grid_search(
        golden_dataset(), "rbf", c_grid=[1.0, 16.0], param_grid=[0.5, 0.125],
        strategy="ova", k=3, seed=7,
    )
    csv = "\n".join(report.csv_lines()) + "\n"
    assert sha256(csv.encode()) == GRID_CSV_SHA256, csv
    assert [e.iterations for e in report.entries] == OVA_GRID_ITERATIONS


def test_golden_model_bytes(tmp_path):
    data = golden_dataset()
    model = train_one_vs_all(data.vectors, data.labels, KernelSpec(kind="rbf", gamma=0.5), 16.0)
    path = tmp_path / "golden.gsvm"
    save_model(model, path)
    assert sha256(path.read_bytes()) == MODEL_SHA256


def test_golden_ovo_grid_csv():
    report = grid_search(
        golden_dataset(), "rbf", c_grid=[1.0, 16.0], param_grid=[0.5, 0.125],
        strategy="ovo", k=3, seed=7,
    )
    csv = "\n".join(report.csv_lines()) + "\n"
    assert sha256(csv.encode()) == OVO_GRID_CSV_SHA256, csv
    assert [e.iterations for e in report.entries] == OVO_GRID_ITERATIONS


@pytest.mark.parametrize("strategy", ["ova", "ovo"])
def test_golden_cross_validation_details(strategy):
    data, spec = golden_dataset(), KernelSpec("rbf", gamma=0.5)
    mean, scalings = fold_scalings(
        cross_validate, data, spec, 16.0, strategy=strategy, k=3, seed=7
    )
    ((cv,),) = _cross_validate(data, kfold_split(len(data), 3, 7), [spec], [16.0], strategy)
    accuracies = cv.accuracies
    digest = hashlib.sha256(np.array([mean] + accuracies).tobytes())
    for scaling in scalings:
        digest.update(scaling.mins.tobytes())
        digest.update(scaling.maxs.tobytes())
    assert digest.hexdigest() == CV_DETAILS_SHA256[strategy], accuracies


def test_golden_ovo_model_bytes(tmp_path):
    data = golden_dataset()
    model = train_one_vs_one(data.vectors, data.labels, KernelSpec(kind="rbf", gamma=0.5), 16.0)
    path = tmp_path / "golden.gsvm"
    save_model(model, path)
    assert sha256(path.read_bytes()) == OVO_MODEL_SHA256


def golden_page() -> np.ndarray:
    """Two lines of four synthetic glyphs, skewed 2 degrees, 1% salt and pepper."""
    config = SynthConfig(classes=8, per_class=1, seed=11, noise_rate=0.0)
    ink = np.zeros((2 * 80 + 32, 4 * 68 + 32), dtype=bool)
    for k in range(8):
        top, left = 16 + (k // 4) * 80, 16 + (k % 4) * 68
        ink[top : top + 64, left : left + 64] = render_sample(config, k, k) == 0
    gray = np.where(deskew(ink, -2.0), 0, 255).astype(np.uint8)
    rng = np.random.default_rng(11)
    noisy = rng.random(gray.shape) < 0.01
    gray[noisy] = rng.integers(0, 2, size=int(noisy.sum())).astype(np.uint8) * 255
    return gray


def page_records_digest(grays) -> str:
    """The box, crop and skeleton of each glyph of each page, in order."""
    digest = hashlib.sha256()
    for gray in grays:
        glyphs = preprocess_page(gray)
        for box, crop, skeleton in zip(glyphs.boxes, glyphs.crops, glyphs.skeletons, strict=True):
            digest.update(box.tobytes())
            digest.update(np.packbits(crop).tobytes())
            digest.update(np.packbits(skeleton).tobytes())
    return digest.hexdigest()


def test_golden_page_records():
    assert page_records_digest([golden_page()]) == PAGE_RECORDS_SHA256


def test_golden_page_gives_one_record_per_glyph():
    # two lines of four glyphs, each glyph one component
    boxes = preprocess_page(golden_page()).boxes
    assert len(boxes) == 8
    first, second = boxes[:4], boxes[4:]
    assert first[:, 1].max() < second[:, 1].min()
    for line in (first, second):
        assert (np.diff(line[:, 0]) > 0).all()


def benchmark_scans():
    """The scans `page_ocr` sets up at seed 1: 128 glyphs each."""
    workloads = perfbench_module("workloads")
    *scan_seeds, _ = workloads.derived_seeds(1, workloads.PAGE_SCANS + 1)
    ink, _ = workloads.render_document()
    return [workloads.scan(ink, seed) for seed in scan_seeds]


def test_golden_benchmark_page_records():
    assert page_records_digest(benchmark_scans()) == BENCHMARK_PAGE_RECORDS_SHA256


def test_benchmark_scans_give_one_record_per_glyph():
    assert [len(preprocess_page(gray)) for gray in benchmark_scans()] == [128, 128]


def test_per_glyph_features_equal_the_batch_rows():
    # the benchmark's page body takes one glyph at a time
    config = FeatureConfig()
    for gray in [golden_page()] + benchmark_scans():
        glyphs = preprocess_page(gray)
        one_by_one = np.array([extract_features(g, config).values for g in glyphs])
        assert one_by_one.tobytes() == feature_rows(glyphs, config).tobytes()


def test_golden_glyph_features():
    config = SynthConfig(classes=10, per_class=2, seed=5)
    rows = [
        extract_features(preprocess_character(render_sample(config, c, i)), FeatureConfig()).values
        for c in range(10)
        for i in range(2)
    ]
    assert sha256(np.array(rows).tobytes()) == GLYPH_FEATURES_SHA256


def golden_glyph_directory(root):
    """3 classes x 45 seeded 64x64 glyphs, more than one loader batch. Every
    ninth glyph is also written framed wider (64x80) and cropped (52x52)
    under a name that sorts right after it, so batches mix shapes."""
    config = SynthConfig(classes=3, per_class=45, seed=29)
    generate_synthetic_dataset(config, root)
    for c in range(3):
        for i in range(0, 45, 9):
            gray = render_sample(config, c, i)
            wide = np.pad(gray, ((0, 0), (8, 8)), constant_values=255)
            write_pgm(wide, root / f"{c}" / f"{c}_{i:04d}w.pgm")
            write_pgm(gray[6:58, 6:58], root / f"{c}" / f"{c}_{i:04d}c.pgm")
    return root


def test_golden_loaded_dataset(tmp_path):
    data = load_dataset(golden_glyph_directory(tmp_path))
    assert len(data) == 165
    digest = hashlib.sha256(data.vectors.tobytes())
    digest.update("\n".join(data.labels).encode())
    assert digest.hexdigest() == LOADER_SHA256
