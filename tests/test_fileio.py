import os

import numpy as np
import pytest

from glyphsvm.cli import main
from glyphsvm.errors import IoFailureError
from glyphsvm.features import FeatureConfig, write_features_csv
from glyphsvm.model_io import save_model
from glyphsvm.multiclass import train_one_vs_all
from glyphsvm.pgm import write_pgm
from glyphsvm.svm import KernelSpec

CONFIG = FeatureConfig(cell_px=8)


def feature_rows():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(size=(6, CONFIG.total_count)) + 4.0 * c for c in range(2)])
    return [str(c) for c in range(2) for _ in range(6)], X


def small_model():
    labels, X = feature_rows()
    return train_one_vs_all(X, labels, KernelSpec(kind="linear"), 1.0)


WRITERS = {
    "pgm": lambda path: write_pgm(np.zeros((2, 3), np.uint8), path),
    "model": lambda path: save_model(small_model(), path),
    "features": lambda path: write_features_csv(path, *feature_rows(), CONFIG),
}


def failing_replace(src, dst):
    raise OSError("disk full")


@pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS.keys())
def test_failed_replace_keeps_the_old_file(writer, tmp_path, monkeypatch):
    path = tmp_path / "out"
    path.write_text("old")
    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(IoFailureError):
        writer(path)
    assert path.read_text() == "old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


@pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS.keys())
def test_writer_replaces_the_old_file(writer, tmp_path):
    path = tmp_path / "out"
    path.write_text("old")
    writer(path)
    assert path.read_bytes() != b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


@pytest.fixture
def saved(tmp_path):
    labels, X = feature_rows()
    write_features_csv(tmp_path / "data.csv", labels, X, CONFIG)
    save_model(small_model(), tmp_path / "model.gsvm")
    return tmp_path


@pytest.mark.parametrize(
    "command",
    [
        ["evaluate", "--model", "{dir}/model.gsvm", "--report", "{dir}/out"],
        ["repeat-eval", "--kernel", "linear", "--repeats", "1", "--report", "{dir}/out"],
        ["gridsearch", "--kernel", "linear", "--c-grid", "1", "--folds", "2",
         "--csv-out", "{dir}/out"],
        ["gridsearch", "--kernel", "linear", "--c-grid", "1", "--folds", "2",
         "--text-out", "{dir}/out"],
    ],
    ids=["evaluate-report", "repeat-eval-report", "gridsearch-csv-out", "gridsearch-text-out"],
)
def test_cli_failed_write_is_one_line_error(command, saved, monkeypatch, capsys):
    (saved / "out").write_text("old")
    argv = [arg.format(dir=saved) for arg in command] + ["--data", str(saved / "data.csv")]
    monkeypatch.setattr(os, "replace", failing_replace)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: IoFailure:") and len(err.strip().splitlines()) == 1
    assert (saved / "out").read_text() == "old"
    assert sorted(p.name for p in saved.iterdir()) == ["data.csv", "model.gsvm", "out"]


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


@pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS.keys())
def test_a_new_file_gets_the_umask_mode(writer, tmp_path, umask_022):
    # every file used to be written 0600, the mode of a `mkstemp` file
    path = tmp_path / "out"
    writer(path)
    assert os.stat(path).st_mode & 0o777 == 0o644


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o666])
def test_a_replaced_file_keeps_its_mode(mode, tmp_path, umask_022):
    path = tmp_path / "out"
    path.write_text("old")
    os.chmod(path, mode)
    write_pgm(np.zeros((2, 3), np.uint8), path)
    assert os.stat(path).st_mode & 0o777 == mode
    assert path.read_bytes() != b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
