import numpy as np
import pytest

from glyphsvm.errors import (
    BadMagicError,
    CorruptBlockError,
    InvalidConfigError,
    VersionMismatchError,
)
from glyphsvm.model_io import load_model, save_model
from glyphsvm.modelsel import Dataset, evaluate
from glyphsvm.multiclass import (
    decision_matrix,
    predict,
    train_one_vs_all,
    train_one_vs_one,
)
from glyphsvm.svm import KernelSpec


def small_model(strategy="ova", kernel=None, labels=None):
    rng = np.random.default_rng(0)
    vectors, labs = [], []
    for c in range(3):
        vectors.append(np.array([3.0 * c, -c]) + 0.3 * rng.normal(size=(8, 2)))
        labs.extend([labels[c] if labels else c] * 8)
    X = np.vstack(vectors)
    kernel = kernel or KernelSpec(kind="rbf", gamma=0.5)
    trainer = train_one_vs_all if strategy == "ova" else train_one_vs_one
    return trainer(X, labs, kernel, 10.0), X


@pytest.mark.parametrize("strategy", ["ova", "ovo"])
def test_roundtrip_decisions_exact(strategy, tmp_path):
    model, X = small_model(strategy)
    path = tmp_path / "model.gsvm"
    save_model(model, path)
    loaded = load_model(path)
    rng = np.random.default_rng(1)
    probes = rng.normal(size=(100, 2)) * 3
    assert loaded.strategy == model.strategy
    assert loaded.class_ids == model.class_ids
    for p in probes:
        assert predict(loaded, p) == predict(model, p)
    np.testing.assert_array_equal(decision_matrix(loaded, probes), decision_matrix(model, probes))


@pytest.mark.parametrize(
    "kernel",
    [
        KernelSpec(kind="linear"),
        KernelSpec(kind="poly", degree=4),
        KernelSpec(kind="sigmoid", slope=0.01, offset=-0.25),
    ],
)
def test_roundtrip_all_kernels(kernel, tmp_path):
    model, _ = small_model("ova", kernel=kernel)
    path = tmp_path / "model.gsvm"
    save_model(model, path)
    assert load_model(path).classifiers[0].kernel == kernel


def test_roundtrip_string_labels(tmp_path):
    # an id's surrounding spaces are part of it
    for labels in (["alpha", "beta", "gamma"], [" a", "b ", "c d"]):
        model, _ = small_model("ova", labels=labels)
        path = tmp_path / "model.gsvm"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.class_ids == labels
        assert all(isinstance(c, str) for c in loaded.class_ids)


def test_roundtrip_int_labels_stay_int(tmp_path):
    model, _ = small_model("ova")
    path = tmp_path / "model.gsvm"
    save_model(model, path)
    assert load_model(path).class_ids == [0, 1, 2]


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.gsvm"
    path.write_text("XXXX\nversion 1\n")
    with pytest.raises(BadMagicError):
        load_model(path)


def test_version_mismatch(tmp_path):
    model, _ = small_model()
    path = tmp_path / "model.gsvm"
    save_model(model, path)
    saved = path.read_text()
    for version in (1, 99):
        path.write_text(saved.replace("version 2", f"version {version}", 1))
        with pytest.raises(VersionMismatchError):
            load_model(path)


def test_truncated_file(tmp_path):
    model, _ = small_model()
    path = tmp_path / "model.gsvm"
    save_model(model, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[: len(lines) // 2]))
    with pytest.raises(CorruptBlockError):
        load_model(path)


def test_sv_count_mismatch(tmp_path):
    model, _ = small_model()
    path = tmp_path / "model.gsvm"
    save_model(model, path)
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("sv_count "):
            lines[i] = "sv_count 9999"
            break
    path.write_text("\n".join(lines))
    with pytest.raises(CorruptBlockError):
        load_model(path)


def test_coeff_length_mismatch(tmp_path):
    model, _ = small_model()
    path = tmp_path / "model.gsvm"
    save_model(model, path)
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("coeffs "):
            lines[i] = "coeffs 1.0"
            break
    path.write_text("\n".join(lines))
    with pytest.raises(CorruptBlockError):
        load_model(path)


def test_classifier_count_mismatch(tmp_path):
    model, _ = small_model()
    path = tmp_path / "model.gsvm"
    save_model(model, path)
    text = path.read_text().replace("classifiers 3", "classifiers 2", 1)
    path.write_text(text)
    with pytest.raises(CorruptBlockError):
        load_model(path)


def test_box_constraint_checked_on_load(tmp_path):
    model, _ = small_model()
    path = tmp_path / "model.gsvm"
    save_model(model, path)
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("coeffs "):
            parts = line.split()
            parts[1] = "1e9"  # exceeds C
            lines[i] = " ".join(parts)
            break
    path.write_text("\n".join(lines))
    with pytest.raises(CorruptBlockError):
        load_model(path)


@pytest.mark.parametrize(
    "line",
    [
        "kernel rbf gamma=0.5 bogus=1",
        "kernel rbf gamma=9 gamma=0.5",
        "kernel rbf gamma=0.5 degree=3",
        "kernel rbf",
        "kernel rbf degree=3",
        "kernel rbf gamma",
        "kernel linear gamma=0.5",
        "kernel laplace gamma=0.5",
        "kernel",
    ],
)
def test_kernel_line_names_exactly_its_parameters(line, tmp_path):
    model, _ = small_model()
    path = tmp_path / "model.gsvm"
    save_model(model, path)
    text = path.read_text()
    assert "\nkernel rbf gamma=0.5\n" in text
    path.write_text(text.replace("\nkernel rbf gamma=0.5\n", f"\n{line}\n", 1))
    with pytest.raises(CorruptBlockError):
        load_model(path)


def test_kernel_line_parameters_load_in_any_order(tmp_path):
    kernel = KernelSpec(kind="sigmoid", slope=0.01, offset=-0.25)
    model, _ = small_model(kernel=kernel)
    path = tmp_path / "model.gsvm"
    save_model(model, path)
    text = path.read_text()
    path.write_text(text.replace("slope=0.01 offset=-0.25", "offset=-0.25 slope=0.01", 1))
    assert load_model(path).classifiers[0].kernel == kernel


@pytest.mark.parametrize(
    "line",
    ["kernel rbf gamma=inf", "kernel rbf gamma=nan", "kernel sigmoid slope=inf offset=0",
     "kernel sigmoid slope=0.01 offset=-inf"],
)
def test_kernel_line_with_a_non_finite_parameter_is_corrupt(line, tmp_path):
    # gamma=inf used to load, and every decision value was then the bias
    model, _ = small_model()
    path = tmp_path / "model.gsvm"
    save_model(model, path)
    path.write_text(path.read_text().replace("\nkernel rbf gamma=0.5\n", f"\n{line}\n", 1))
    with pytest.raises(CorruptBlockError):
        load_model(path)


@pytest.mark.parametrize(
    "labels",
    [["a", "", "c"], ["a", " ", "c"], ["a", "b\nc", "d"], ["a", "b\rc", "d"], [1, "a", "b"],
     [0.5, 1.5, 2.5], [False, True, 2]],
    ids=["empty", "blank", "newline", "carriage-return", "int-and-text", "float", "bool"],
)
def test_class_ids_that_would_not_reload_as_themselves_are_refused(labels, tmp_path):
    # "" and ids with a line break used to save, then fail to load with
    # CorruptBlock; [1, "a", "b"] reloaded as ["1", "a", "b"]
    model, _ = small_model("ova", labels=labels)
    path = tmp_path / "model.gsvm"
    path.write_text("kept\n")
    with pytest.raises(InvalidConfigError):
        save_model(model, path)
    assert path.read_text() == "kept\n"


@pytest.mark.parametrize("strategy", ["ova", "ovo"])
def test_numpy_integer_class_ids_survive_save_and_load(strategy, tmp_path):
    # they used to be saved as label_kind str and reload as '0', '1', '2'
    model, X = small_model(strategy, labels=list(np.arange(3)))
    assert all(isinstance(c, np.int64) for c in model.class_ids)
    path = tmp_path / "model.gsvm"
    save_model(model, path)
    assert "\nlabel_kind int\n" in path.read_text()
    loaded = load_model(path)
    assert loaded.class_ids == [0, 1, 2]
    assert all(type(c) is int for c in loaded.class_ids)
    data = Dataset(X, np.repeat(np.arange(3), 8))
    accuracy = evaluate(model, data).overall_accuracy
    assert evaluate(loaded, data).overall_accuracy == accuracy > 0.9


@pytest.mark.parametrize("strategy", ["ova", "ovo"])
def test_solver_metadata_survives_a_reload(strategy, tmp_path):
    model, _ = small_model(strategy)
    path = tmp_path / "model.gsvm"
    save_model(model, path)
    loaded = load_model(path)
    assert model.iterations.min() > 0 and model.kkt_violations.max() > 0
    assert np.array_equal(loaded.iterations, model.iterations)
    assert np.array_equal(loaded.kkt_violations, model.kkt_violations)


def test_version_2_stores_each_support_vector_once(tmp_path):
    model, _ = small_model("ovo")
    path = tmp_path / "model.gsvm"
    save_model(model, path)
    text = path.read_text()
    assert "\nversion 2\n" in text
    assert text.count("\nsv ") == len(model.support_vectors)
    assert len(model.support_vectors) < sum(len(c.dual_coeffs) for c in model.classifiers)


def corrupt_line(path, key, edit, occurrence=0):
    """Replace the `occurrence`-th line that starts with `key` by `edit(line)`."""
    lines = path.read_text().splitlines()
    hits = [i for i, line in enumerate(lines) if line.startswith(key + " ")]
    lines[hits[occurrence]] = edit(lines[hits[occurrence]])
    path.write_text("\n".join(lines) + "\n")


def with_index(edit):
    """An edit of an `sv_index` line's integers."""
    return lambda line: "sv_index " + " ".join(map(str, edit([int(v) for v in line.split()[1:]])))


@pytest.mark.parametrize(
    "edit",
    [
        with_index(lambda idx: idx[:-1] + [10_000]),  # out of range
        with_index(lambda idx: idx[:-1] + [-1]),
        with_index(lambda idx: [idx[0]] + idx[:-1]),  # repeated
        with_index(lambda idx: [idx[1], idx[0]] + idx[2:]),  # unsorted
        lambda line: line + " 1",  # one index too many
        lambda line: line + ".5",
        with_index(lambda idx: idx[:-1] + [10**30]),
    ],
    ids=["beyond-table", "negative", "repeated", "unsorted", "count", "non-integer", "huge"],
)
def test_sv_index_must_list_ascending_rows_of_the_table(edit, tmp_path):
    model, _ = small_model("ova")
    path = tmp_path / "model.gsvm"
    save_model(model, path)
    corrupt_line(path, "sv_index", edit, occurrence=1)
    with pytest.raises(CorruptBlockError):
        load_model(path)


def test_a_table_row_that_no_classifier_uses_is_corrupt(tmp_path):
    model, _ = small_model("ova")
    path = tmp_path / "model.gsvm"
    save_model(model, path)
    n = len(model.support_vectors)
    corrupt_line(path, "support_vectors", lambda line: f"support_vectors {n + 1}")
    corrupt_line(path, "sv", lambda line: line + "\n" + line, occurrence=n - 1)
    with pytest.raises(CorruptBlockError, match="belongs to no classifier"):
        load_model(path)


def test_a_zero_coefficient_is_corrupt(tmp_path):
    model, _ = small_model("ova")
    path = tmp_path / "model.gsvm"
    save_model(model, path)
    corrupt_line(path, "coeffs", lambda line: "coeffs 0" + line[line.index(" ", 7):])
    with pytest.raises(CorruptBlockError, match="coefficient 0"):
        load_model(path)


@pytest.mark.parametrize(
    "key, value",
    [("iterations", "-1"), ("iterations", str(2**64)), ("iterations", "1.5"),
     ("kkt_violation", "-0.5"), ("kkt_violation", "nan")],
)
def test_bad_solver_metadata_is_corrupt(key, value, tmp_path):
    model, _ = small_model("ova")
    path = tmp_path / "model.gsvm"
    save_model(model, path)
    corrupt_line(path, key, lambda line: f"{key} {value}")
    with pytest.raises(CorruptBlockError):
        load_model(path)


# one-vs-one's classifier p must carry the p-th class pair in combinations order
PAIR_EDITS = {
    "repeated": {2: "classifier 2 pair=0,1"},
    "swapped": {0: "classifier 0 pair=0,2", 1: "classifier 1 pair=0,1"},
}


@pytest.mark.parametrize("edit", sorted(PAIR_EDITS))
def test_pair_lines_out_of_class_pair_order_are_corrupt(edit, tmp_path):
    path = tmp_path / "model.gsvm"
    save_model(small_model("ovo")[0], path)
    assert [line for line in path.read_text().splitlines() if line.startswith("classifier ")] == [
        "classifier 0 pair=0,1", "classifier 1 pair=0,2", "classifier 2 pair=1,2"
    ]
    for occurrence, line in PAIR_EDITS[edit].items():
        corrupt_line(path, "classifier", lambda _, line=line: line, occurrence)
    with pytest.raises(CorruptBlockError, match="expected 'classifier"):
        load_model(path)
