import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from glyphsvm import cli, preprocess
from glyphsvm.cli import main
from glyphsvm.features import read_features_csv
from glyphsvm.model_io import load_model, save_model
from glyphsvm.multiclass import train_one_vs_all
from glyphsvm.pgm import read_pgm, write_pgm
from glyphsvm.svm import KernelSpec

from test_data import write_dataset_with_late_bad_file


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_ds")
    rc = main(
        [
            "datagen",
            "--out-dir", str(root),
            "--classes", "3",
            "--per-class", "8",
            "--seed", "5",
        ]
    )
    assert rc == 0
    return root


def test_datagen_deterministic(tmp_path):
    args = ["datagen", "--classes", "2", "--per-class", "3", "--seed", "9"]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    for cls in ("0", "1"):
        for i in range(3):
            name = f"{cls}/{cls}_{i:04d}.pgm"
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_datagen_invalid_classes(tmp_path, capsys):
    rc = main(["datagen", "--out-dir", str(tmp_path), "--classes", "1"])
    assert rc == 1
    assert "InvalidConfig" in capsys.readouterr().err


def test_train_then_evaluate(dataset_dir, tmp_path, capsys):
    model_path = tmp_path / "m.gsvm"
    rc = main(
        [
            "train",
            "--data", str(dataset_dir),
            "--model", str(model_path),
            "--kernel", "rbf",
            "--gamma", "0.125",
            "--c", "64",
        ]
    )
    assert rc == 0
    model = load_model(model_path)
    assert model.strategy == "ova"
    assert len(model.classifiers) == 3
    # the solver's work is printed and saved
    assert (
        f"{len(model.support_vectors)} support-vector rows, "
        f"{int(model.iterations.sum())} SMO iterations; saved to"
    ) in capsys.readouterr().out
    assert model.iterations.min() > 0

    report_path = tmp_path / "report.txt"
    rc = main(
        [
            "evaluate",
            "--model", str(model_path),
            "--data", str(dataset_dir),
            "--report", str(report_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Average" in out and "Error rate" in out
    assert report_path.exists()


def test_evaluate_dimension_mismatch(dataset_dir, tmp_path, capsys):
    model_path = tmp_path / "m8.gsvm"
    assert main(
        [
            "train",
            "--data", str(dataset_dir),
            "--model", str(model_path),
            "--grid-cell", "8",
            "--kernel", "linear",
            "--c", "4",
        ]
    ) == 0
    # hand the evaluator a 68-dim CSV against the 20-dim model
    csv_path = tmp_path / "f68.csv"
    assert main(
        ["features", "--data", str(dataset_dir), "--grid-cell", "4", "--output", str(csv_path)]
    ) == 0
    rc = main(["evaluate", "--model", str(model_path), "--data", str(csv_path)])
    assert rc == 1
    assert "DimensionMismatch" in capsys.readouterr().err


def test_features_command_csv(dataset_dir, tmp_path):
    csv_path = tmp_path / "out.csv"
    rc = main(
        ["features", "--data", str(dataset_dir), "--grid-cell", "4", "--output", str(csv_path)]
    )
    assert rc == 0
    labels, matrix, cfg = read_features_csv(csv_path)
    assert len(labels) == 24
    assert matrix.shape == (24, 68)
    assert cfg.cell_px == 4


def test_gridsearch_single_cell_matches_cv(dataset_dir, tmp_path, capsys):
    args_common = [
        "--data", str(dataset_dir),
        "--grid-cell", "4",
        "--folds", "4",
        "--seed", "2",
    ]
    rc = main(
        [
            "gridsearch",
            "--kernel", "rbf",
            "--c-grid", "16",
            "--gamma-grid", "0.125",
            "--csv-out", str(tmp_path / "grid.csv"),
            "--text-out", str(tmp_path / "grid.txt"),
        ]
        + args_common
    )
    assert rc == 0
    grid_out = capsys.readouterr().out
    rc = main(
        ["cv", "--kernel", "rbf", "--gamma", "0.125", "--c", "16"] + args_common
    )
    assert rc == 0
    cv_out = capsys.readouterr().out
    grid_acc = float(grid_out.rsplit("accuracy=", 1)[1].strip())
    cv_acc = float(cv_out.rsplit(":", 1)[1].strip())
    assert grid_acc == pytest.approx(cv_acc, abs=5e-5)  # grid prints 4 decimals
    csv_lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert csv_lines[0] == "C,param,accuracy"
    assert len(csv_lines) == 2


def test_repeat_eval_report(dataset_dir, tmp_path, capsys):
    rc = main(
        [
            "repeat-eval",
            "--data", str(dataset_dir),
            "--kernel", "rbf",
            "--gamma", "0.125",
            "--c", "16",
            "--repeats", "3",
            "--train-frac", "0.75",
            "--seed", "4",
            "--report", str(tmp_path / "rep.txt"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Iteration 3" in out
    assert (tmp_path / "rep.txt").exists()


def test_preprocess_command(tmp_path, capsys):
    # two hollow blocks on one line
    page = np.full((120, 160), 255, np.uint8)
    for left in (30, 90):
        page[40:80, left : left + 30] = 0
        page[50:70, left + 8 : left + 22] = 255
    page_path = tmp_path / "page.pgm"
    write_pgm(page, page_path)
    out_dir = tmp_path / "chars"
    rc = main(
        ["preprocess", "--input", str(page_path), "--out-dir", str(out_dir), "--emit", "crop"]
    )
    assert rc == 0
    dumped = sorted(out_dir.iterdir())
    assert len(dumped) == 2
    crop = read_pgm(dumped[0])
    assert (crop == 0).any() and (crop == 255).any()


def test_preprocess_debug_dumps(tmp_path):
    page = np.full((80, 120), 255, np.uint8)
    page[30:50, 20:100] = 0
    page_path = tmp_path / "page.pgm"
    write_pgm(page, page_path)
    rc = main(
        [
            "preprocess",
            "--input", str(page_path),
            "--out-dir", str(tmp_path / "out"),
            "--dump-binarized", str(tmp_path / "bin.pgm"),
            "--dump-deskewed", str(tmp_path / "desk.pgm"),
        ]
    )
    assert rc == 0
    assert read_pgm(tmp_path / "bin.pgm").shape == (80, 120)
    assert (tmp_path / "desk.pgm").exists()


def test_preprocess_dumps_clean_the_page_once(tmp_path, monkeypatch):
    page = np.full((80, 120), 255, np.uint8)
    page[30:50, 20:40] = 0
    page[30:50, 60:100] = 0
    page_path = tmp_path / "page.pgm"
    write_pgm(page, page_path)
    base = ["preprocess", "--input", str(page_path)]
    assert main(base + ["--out-dir", str(tmp_path / "plain")]) == 0

    calls = {"detect_skew": 0, "median_filter": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(preprocess, name)):
            calls[_name] += 1
            return _real(*args)
        # count calls made through a name imported into the CLI as well
        for module in (preprocess, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    dumps = ["--dump-binarized", str(tmp_path / "bin.pgm"),
             "--dump-deskewed", str(tmp_path / "desk.pgm")]
    assert main(base + ["--out-dir", str(tmp_path / "dumped")] + dumps) == 0
    assert calls == {"detect_skew": 1, "median_filter": 1}
    plain = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert plain == sorted(p.name for p in (tmp_path / "dumped").iterdir()) and plain
    for name in plain:
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "dumped" / name).read_bytes()


def test_sigmoid_requires_slope_and_offset(dataset_dir, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "train",
                "--data", str(dataset_dir),
                "--model", str(tmp_path / "s.gsvm"),
                "--kernel", "sigmoid",
            ]
        )
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "args",
    [["--kernel", "rbf", "--degree-grid", "2,3"], ["--kernel", "linear", "--gamma-grid", "1,2"]],
    ids=["degree-grid-rbf", "gamma-grid-linear"],
)
def test_grid_of_another_kernel_is_usage_error(dataset_dir, capsys, args):
    # the grid used to be dropped: rbf swept its 15 default gammas and exited 0
    with pytest.raises(SystemExit) as excinfo:
        main(["gridsearch", "--data", str(dataset_dir), "--c-grid", "1", "--folds", "2", *args])
    assert excinfo.value.code == 2
    assert f"{args[2]} needs --kernel" in capsys.readouterr().err


def test_bad_kernel_parameter_is_one_line_error(dataset_dir, tmp_path, capsys):
    rc = main(
        [
            "train",
            "--data", str(dataset_dir),
            "--model", str(tmp_path / "g.gsvm"),
            "--gamma", "-1",
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidConfig:")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "g.gsvm").exists()


@pytest.mark.parametrize(
    "args, category",
    [
        (["gridsearch", "--c-grid", "abc"], "InvalidConfig"),
        (["gridsearch", "--kernel", "poly", "--degree-grid", "2.5"], "InvalidConfig"),
        (["gridsearch", "--c-grid", ","], "InvalidConfig"),
        (["gridsearch", "--c-grid=-1,4"], "InvalidConfig"),
        (["gridsearch", "--c-grid", "-1,4"], "InvalidConfig"),
        (["gridsearch", "--gamma-grid", "-0.5,1"], "InvalidConfig"),
        (["gridsearch", "--c-grid", "1", "--gamma-grid", "0.5", "--folds", "1"], "BadK"),
        (["repeat-eval", "--train-frac", "1.5"], "InvalidConfig"),
        (["repeat-eval", "--repeats", "0"], "InvalidConfig"),
    ],
    ids=["c-grid-abc", "degree-grid-2.5", "c-grid-comma", "c-grid-negative",
         "c-grid-negative-spaced", "gamma-grid-negative-spaced", "folds-1",
         "train-frac-1.5", "repeats-0"],
)
def test_bad_sweep_argument_is_one_line_error(dataset_dir, capsys, args, category):
    rc = main(args + ["--data", str(dataset_dir)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {category}:")
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err + captured.out


def test_unreadable_input_reports_category(tmp_path, capsys):
    missing = tmp_path / "missing.pgm"
    rc = main(["preprocess", "--input", str(missing), "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: UnreadableFile:")


def test_p5_sample_above_maxval_is_one_line_error(tmp_path, capsys):
    page_path = tmp_path / "over.pgm"
    page_path.write_bytes(b"P5\n2 1\n100\n" + bytes([50, 200]))
    rc = main(["preprocess", "--input", str(page_path), "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert_one_line_error(capsys, "UnreadableFile")


def assert_one_line_error(capsys, category):
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {category}:")
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("command", ["datagen", "cv", "gridsearch", "repeat-eval"])
def test_negative_seed_is_one_line_error(dataset_dir, tmp_path, capsys, command):
    # each used to end in numpy's "expected non-negative integer" traceback,
    # datagen after writing its first class directory
    out = tmp_path / "out"
    args = {
        "datagen": ["--out-dir", str(out), "--classes", "2", "--per-class", "2"],
        "cv": ["--data", str(dataset_dir), "--folds", "2"],
        "gridsearch": ["--data", str(dataset_dir), "--c-grid", "1", "--gamma-grid", "0.5",
                       "--folds", "2", "--csv-out", str(out)],
        "repeat-eval": ["--data", str(dataset_dir), "--repeats", "2", "--report", str(out)],
    }[command]
    assert main([command, "--seed", "-1"] + args) == 1
    assert_one_line_error(capsys, "InvalidConfig")
    assert not out.exists()


def test_features_names_a_later_bad_file(tmp_path, capsys):
    bad = write_dataset_with_late_bad_file(tmp_path / "data")
    rc = main(["features", "--data", str(tmp_path / "data"), "--output", str(tmp_path / "f.csv")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: UnreadableFile:")
    assert str(bad) in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err + captured.out
    assert not (tmp_path / "f.csv").exists()


def test_features_refuses_a_class_directory_that_is_no_csv_label(tmp_path, capsys):
    # a class directory "a,b" used to write a CSV that `train` then refused
    data = tmp_path / "data"
    assert main(["datagen", "--out-dir", str(data), "--classes", "2", "--per-class", "2"]) == 0
    (data / "1").rename(data / "a,b")
    rc = main(["features", "--data", str(data), "--output", str(tmp_path / "f.csv")])
    assert rc == 1
    assert_one_line_error(capsys, "InvalidConfig")
    assert not (tmp_path / "f.csv").exists()


def test_preprocess_page_of_specks(tmp_path, capsys):
    # each 2x3 block survives the median filter as 2 pixels, under
    # MIN_COMPONENT_AREA, so the page has ink but no character
    page = np.full((60, 90), 255, np.uint8)
    for top, left in ((10, 10), (30, 40), (45, 70), (20, 75)):
        page[top : top + 2, left : left + 3] = 0
    assert preprocess.clean_page(page)[3].any()
    page_path = tmp_path / "specks.pgm"
    write_pgm(page, page_path)
    out_dir = tmp_path / "chars"
    assert main(["preprocess", "--input", str(page_path), "--out-dir", str(out_dir)]) == 0
    assert "segmented 0 characters" in capsys.readouterr().out
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize(
    "old, new, category",
    [
        (b"strategy ova", b"strategy", "CorruptBlock"),
        (b"\nclass 1\n", b"\nclass \xff\n", "BadMagic"),
        (b"\nclass 1\n", b"\nclass zz\n", "CorruptBlock"),
        (b"label_kind int", b"label_kind float", "CorruptBlock"),
        (b"\nclass 1\n", b"\nclass \n", "CorruptBlock"),
        (b"\nclass 1\n", b"\nclass 0\n", "CorruptBlock"),
        (b"version 2", b"version 1", "VersionMismatch"),
    ],
    ids=["header-without-value", "not-utf8", "int-label-zz", "label-kind-float",
         "empty-class-id", "repeated-class-id", "version-1"],
)
def test_bad_model_file_is_one_line_error(dataset_dir, tmp_path, capsys, old, new, category):
    X = np.array([[0.0, 0.0], [0.1, 0.2], [1.0, 1.0], [0.9, 1.1]])
    model_path = tmp_path / "m.gsvm"
    save_model(train_one_vs_all(X, [0, 0, 1, 1], KernelSpec(kind="linear"), 1.0), model_path)
    text = model_path.read_bytes()
    assert old in text
    model_path.write_bytes(text.replace(old, new))
    rc = main(["evaluate", "--model", str(model_path), "--data", str(dataset_dir)])
    assert rc == 1
    assert_one_line_error(capsys, category)


@pytest.mark.parametrize(
    "field, value",
    [("sv", "nan"), ("coeffs", "nan"), ("bias", "nan"), ("scaling_max", "nan"),
     ("scaling_min", "-inf"), ("C", "inf")],
)
def test_non_finite_model_value_is_one_line_error(dataset_dir, tmp_path, capsys, field, value):
    # a NaN coefficient used to load and make every decision value NaN
    model_path = tmp_path / "m.gsvm"
    args = ["--data", str(dataset_dir), "--model", str(model_path)]
    assert main(["train", "--kernel", "linear", "--c", "4"] + args) == 0
    lines = model_path.read_text(encoding="utf-8").splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith(field + " "))
    tokens = lines[row].split()
    lines[row] = " ".join([field, value] + tokens[2:])
    model_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["evaluate"] + args) == 1
    assert_one_line_error(capsys, "CorruptBlock")


def test_scaling_max_below_min_is_one_line_error(dataset_dir, tmp_path, capsys):
    # such a record used to scale every sample to 0, so every prediction was
    # the first class
    model_path = tmp_path / "m.gsvm"
    args = ["--data", str(dataset_dir), "--model", str(model_path)]
    assert main(["train", "--kernel", "linear", "--c", "4"] + args) == 0
    lines = model_path.read_text(encoding="utf-8").splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("scaling_max "))
    mins = next(line for line in lines if line.startswith("scaling_min ")).split()[1:]
    maxs = lines[row].split()[1:]
    maxs[-1] = repr(float(mins[-1]) - 1.0)  # one dimension is enough
    lines[row] = " ".join(["scaling_max"] + maxs)
    model_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["evaluate"] + args) == 1
    assert_one_line_error(capsys, "CorruptBlock")


@pytest.mark.parametrize("header", ["label", "label,v1"], ids=["no-feature", "one-feature"])
def test_header_only_csv_names_its_column_count(tmp_path, capsys, header):
    # the message used to count local features, negative for these headers
    csv_path = tmp_path / "feats.csv"
    csv_path.write_text(header + "\n")
    assert main(["train", "--data", str(csv_path), "--model", str(tmp_path / "m.gsvm")]) == 1
    err = capsys.readouterr().err
    columns = header.count(",")
    assert err == (
        f"error: UnreadableFile: {csv_path}: {columns} feature columns match no supported "
        "grid, which takes 8, 20, 68, 260\n"
    )


def test_non_utf8_feature_csv_is_one_line_error(tmp_path, capsys):
    csv_path = tmp_path / "feats.csv"
    csv_path.write_bytes(b"label,v1,v2,v3,v4,whr,ep,cp,bp\n\xff,1,2,3,4,1,0,0,0\n")
    rc = main(["cv", "--data", str(csv_path), "--folds", "2"])
    assert rc == 1
    assert_one_line_error(capsys, "UnreadableFile")


def test_console_script_installed():
    import shutil
    import subprocess

    exe = shutil.which("glyphsvm")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "datagen" in proc.stdout


def run_module(cwd, *args):
    """`python -m glyphsvm.cli` in a fresh process over this tree's `src`,
    with Python's default warning filters."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "glyphsvm.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_module_entry_point_runs_as_a_process(tmp_path):
    proc = run_module(tmp_path, "--help")
    assert proc.returncode == 0
    assert "datagen" in proc.stdout
    args = ["datagen", "--out-dir", "d", "--classes", "3", "--per-class", "4", "--seed", "1"]
    assert run_module(tmp_path, *args).returncode == 0
    # a degree-400 poly kernel overflows; it used to make a million NaN pair
    # updates in a minute and end in NoConvergence after three RuntimeWarnings
    args = ["train", "--data", "d", "--model", "m.gsvm", "--kernel", "poly", "--degree", "400"]
    proc = run_module(tmp_path, *args)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: NonFiniteInput: ")
    assert "Warning" not in proc.stderr
    assert not (tmp_path / "m.gsvm").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["train", "--c", "inf"],
        ["train", "--c", "nan"],
        ["train", "--kernel", "rbf", "--gamma", "inf"],
        ["train", "--kernel", "sigmoid", "--slope", "inf", "--offset", "0"],
        ["cv", "--c", "inf", "--folds", "2"],
        ["gridsearch", "--c-grid", "1,inf", "--gamma-grid", "0.5", "--folds", "2"],
        ["train", "--c", "-inf"],
        ["train", "--kernel", "rbf", "--gamma", "-inf"],
        ["train", "--kernel", "sigmoid", "--slope", "-inf", "--offset", "0"],
        ["train", "--kernel", "sigmoid", "--slope", "1", "--offset", "-inf"],
    ],
    ids=["train-c-inf", "train-c-nan", "train-gamma-inf", "train-slope-inf", "cv-c-inf",
         "gridsearch-c-grid-inf", "train-c-minus-inf-spaced", "train-gamma-minus-inf-spaced",
         "train-slope-minus-inf-spaced", "train-offset-minus-inf-spaced"],
)
def test_non_finite_hyperparameter_is_one_line_error(dataset_dir, tmp_path, capsys, args):
    # C = inf used to end in "no support vectors survived" after a RuntimeWarning,
    # gamma = inf in a training run that did not finish
    model_path = tmp_path / "m.gsvm"
    extra = ["--model", str(model_path)] if args[0] == "train" else []
    assert main(args + ["--data", str(dataset_dir)] + extra) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: InvalidConfig:")
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err + captured.out
    assert "Warning" not in captured.err
    assert not model_path.exists()


def test_negative_offset_written_apart_still_trains(dataset_dir, tmp_path):
    model_path = tmp_path / "m.gsvm"
    args = ["train", "--data", str(dataset_dir), "--model", str(model_path),
            "--kernel", "sigmoid", "--slope", "0.5", "--offset", "-2"]
    assert main(args) == 0
    assert load_model(model_path).classifiers[0].kernel.offset == -2.0


def test_values_attach_only_to_options_that_take_one():
    parser = cli.build_parser()
    argv = ["repeat-eval", "-h", "-x", "--c", "-inf", "--seed", "--report", "r"]
    assert cli._attach_values(parser, argv) == [
        "repeat-eval", "-h", "-x", "--c=-inf", "--seed", "--report=r"]
    assert cli._attach_values(parser, ["--help"]) == ["--help"]


def test_empty_label_in_feature_csv_is_one_line_error(tmp_path, capsys):
    # such a row used to train a model that `evaluate` then refused
    csv_path = tmp_path / "feats.csv"
    csv_path.write_text(
        "label,v1,v2,v3,v4,whr,ep,cp,bp\n"
        "a,1,2,3,4,1,0,0,0\n"
        "b,2,1,3,4,1,0,0,0\n"
        ",1,2,3,4,1,0,0,0\n"
    )
    rc = main(["train", "--data", str(csv_path), "--model", str(tmp_path / "m.gsvm")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: UnreadableFile:") and "data row 3" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "m.gsvm").exists()
