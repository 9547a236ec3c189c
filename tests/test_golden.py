"""Golden fixture: a seeded run whose saved model and grid CSV are pinned by sha256.

A change that alters training or prediction arithmetic changes one of these
digests. If that is intended, say so in CHANGES.md and update the digests.
"""

import hashlib

import numpy as np

from glyphsvm.model_io import save_model
from glyphsvm.modelsel import Dataset, grid_search
from glyphsvm.multiclass import train_one_vs_all
from glyphsvm.svm import KernelSpec

MODEL_SHA256 = "00bc3f31f7a5ed6d8ec1ac9f747cd0cd60c4f8c713784541673f63a9f3e1e0ef"
GRID_CSV_SHA256 = "666d15f06315c888201568ec8c958ab0e6cad5fe88ad8a3f7ed50f3fbf01e52e"


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


def test_golden_model_bytes(tmp_path):
    data = golden_dataset()
    model = train_one_vs_all(data.vectors, data.labels, KernelSpec(kind="rbf", gamma=0.5), 16.0)
    path = tmp_path / "golden.gsvm"
    save_model(model, path)
    assert sha256(path.read_bytes()) == MODEL_SHA256
