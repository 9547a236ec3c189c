import gc
import weakref

import numpy as np
import pytest

from glyphsvm import modelsel, svm
from glyphsvm.errors import (
    BadKError,
    DegenerateSplitError,
    DimensionMismatchError,
    FoldDegenerateError,
    GlyphSvmError,
    InvalidConfigError,
    NoConvergenceError,
    NonFiniteInputError,
)
from glyphsvm.features import FeatureConfig
from glyphsvm.modelsel import (
    Dataset,
    EvalReport,
    cross_validate,
    evaluate,
    grid_search,
    kfold_split,
    repeat_evaluate,
    split_train_test,
)
from glyphsvm.multiclass import train_multiclass_c_grid, train_one_vs_all
from glyphsvm.svm import KernelSpec

from oracles import fold_scalings

LINEAR = KernelSpec(kind="linear")


def separable_dataset(rng, n_per_class=20, classes=2, dim=2, distance=6.0):
    vectors, labels = [], []
    for c in range(classes):
        center = np.zeros(dim)
        center[0] = c * distance
        vectors.append(center + 0.4 * rng.normal(size=(n_per_class, dim)))
        labels.extend([c] * n_per_class)
    return Dataset(np.vstack(vectors), labels)


# --- splitting -----------------------------------------------------------------

def test_split_sizes_and_partition():
    data = separable_dataset(np.random.default_rng(0), n_per_class=5)
    train, test = split_train_test(data, 0.8, seed=3)
    assert (len(train), len(test)) == (8, 2)
    all_rows = np.vstack([train.vectors, test.vectors])
    assert sorted(map(tuple, all_rows)) == sorted(map(tuple, data.vectors))


def test_split_deterministic():
    data = separable_dataset(np.random.default_rng(1), n_per_class=10)
    a = split_train_test(data, 0.7, seed=9)
    b = split_train_test(data, 0.7, seed=9)
    assert np.array_equal(a[0].vectors, b[0].vectors)
    assert a[0].labels == b[0].labels


def test_split_floor_rule():
    data = separable_dataset(np.random.default_rng(2), n_per_class=5)
    train, test = split_train_test(data, 0.999, seed=0)
    assert (len(train), len(test)) == (9, 1)


def test_split_degenerate():
    data = separable_dataset(np.random.default_rng(3), n_per_class=2)
    with pytest.raises(DegenerateSplitError):
        split_train_test(data, 0.05, seed=0)  # floor(0.2) = 0 on the train side


def test_split_fraction_bounds():
    data = separable_dataset(np.random.default_rng(4), n_per_class=2)
    with pytest.raises(ValueError):
        split_train_test(data, 1.0, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_vectors(bad):
    vectors = np.zeros((4, 3))
    vectors[2, 1] = bad
    with pytest.raises(NonFiniteInputError):
        Dataset(vectors, [0, 0, 1, 1])


@pytest.mark.parametrize(
    "build",
    [
        lambda: FeatureConfig(cell_px=5),
        lambda: Dataset(np.zeros(4), [0, 0, 1, 1]),
        lambda: Dataset(np.zeros((4, 2)), [0, 1]),
        lambda: Dataset(np.zeros((0, 2)), []),
    ],
    ids=["cell-px", "not-2-D", "label-count", "no-sample"],
)
def test_bad_config_and_dataset_are_the_packages_invalid_config(build):
    # each used to be a bare ValueError, which callers could not tell apart
    with pytest.raises(GlyphSvmError) as excinfo:
        build()
    assert isinstance(excinfo.value, ValueError)
    assert excinfo.value.category == "InvalidConfig"


# --- k-fold ---------------------------------------------------------------------

def test_kfold_equal_sizes():
    folds = kfold_split(100, 10, seed=0)
    assert [len(f) for f in folds] == [10] * 10


def test_kfold_uneven_sizes():
    folds = kfold_split(95, 10, seed=0)
    assert sorted(len(f) for f in folds) == [9] * 5 + [10] * 5


def test_kfold_partition():
    folds = kfold_split(37, 5, seed=11)
    joined = np.concatenate(folds)
    assert len(joined) == 37
    assert set(joined.tolist()) == set(range(37))
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1


def test_kfold_bad_k():
    with pytest.raises(BadKError):
        kfold_split(10, 1, seed=0)
    with pytest.raises(BadKError):
        kfold_split(5, 6, seed=0)


# --- cross-validation --------------------------------------------------------------

def test_cv_separable_is_perfect():
    data = separable_dataset(np.random.default_rng(6), n_per_class=20)
    assert cross_validate(data, LINEAR, 10.0, k=5, seed=0) == 1.0


def test_cv_constant_features_near_chance():
    rng = np.random.default_rng(7)
    vectors = np.ones((200, 3))
    labels = [0] * 100 + [1] * 100
    labels = [labels[i] for i in rng.permutation(200)]
    acc = cross_validate(Dataset(vectors, labels), LINEAR, 1.0, k=10, seed=0)
    assert 0.35 <= acc <= 0.65


def test_cv_deterministic():
    data = separable_dataset(np.random.default_rng(8), n_per_class=15)
    first = cross_validate(data, LINEAR, 5.0, k=5, seed=4)
    second = cross_validate(data, LINEAR, 5.0, k=5, seed=4)
    assert first == second


def test_cv_fold_degenerate():
    rng = np.random.default_rng(9)
    vectors = rng.normal(size=(10, 2))
    labels = [0] * 9 + [1]  # the singleton class vanishes from one training side
    with pytest.raises(FoldDegenerateError):
        cross_validate(Dataset(vectors, labels), LINEAR, 1.0, k=10, seed=0)


def test_cv_no_leakage_from_held_out_samples():
    """Perturbing a held-out sample never changes that fold's scaling record."""
    rng = np.random.default_rng(10)
    data = separable_dataset(rng, n_per_class=15)
    _, scalings = fold_scalings(cross_validate, data, LINEAR, 10.0, k=5, seed=2)
    folds = kfold_split(len(data), 5, seed=2)
    for fold_idx, fold in enumerate(folds):
        perturbed = Dataset(data.vectors.copy(), list(data.labels))
        perturbed.vectors[fold[0]] += 1e6  # held-out sample of this fold
        _, scalings_p = fold_scalings(cross_validate, perturbed, LINEAR, 10.0, k=5, seed=2)
        np.testing.assert_array_equal(
            scalings[fold_idx].mins, scalings_p[fold_idx].mins
        )
        np.testing.assert_array_equal(
            scalings[fold_idx].maxs, scalings_p[fold_idx].maxs
        )


# --- grid search --------------------------------------------------------------------

def test_grid_single_cell():
    data = separable_dataset(np.random.default_rng(11), n_per_class=12)
    report = grid_search(data, "rbf", c_grid=[4.0], param_grid=[0.5], k=4, seed=1)
    assert len(report.entries) == 1
    assert report.best is report.entries[0]
    assert report.best.accuracy == cross_validate(
        data, KernelSpec(kind="rbf", gamma=0.5), 4.0, k=4, seed=1
    )


def test_grid_best_is_scan_order_argmax():
    data = separable_dataset(np.random.default_rng(12), n_per_class=12)
    report = grid_search(
        data, "rbf", c_grid=[0.25, 4.0], param_grid=[1e4, 0.5], k=4, seed=0
    )
    accs = [e.accuracy for e in report.entries]
    first_best = accs.index(max(accs))
    assert report.best is report.entries[first_best]
    # scan order: C ascending, gamma descending
    assert [(e.C, e.param) for e in report.entries] == [
        (0.25, 1e4), (0.25, 0.5), (4.0, 1e4), (4.0, 0.5)
    ]


def test_grid_error_cells_recorded_not_fatal():
    rng = np.random.default_rng(13)
    vectors = rng.normal(size=(10, 2))
    labels = [0] * 9 + [1]  # every cell hits FoldDegenerate
    report = grid_search(
        Dataset(vectors, labels), "linear", c_grid=[1.0, 2.0], k=10, seed=0
    )
    assert len(report.entries) == 2
    for entry in report.entries:
        assert entry.accuracy == 0.0
        assert entry.error == "FoldDegenerate"


def test_grid_no_convergence_tags_only_its_own_cells(monkeypatch):
    # overlapping classes: C = 0.25 converges within 100 pair updates per
    # problem, C = 1024 does not; both share each (fold, gamma) matrix
    data = separable_dataset(np.random.default_rng(40), n_per_class=12, classes=3, distance=1.0)
    unlimited = grid_search(data, "rbf", c_grid=[0.25], param_grid=[0.5, 4.0], k=3, seed=0)
    monkeypatch.setattr(svm, "DEFAULT_MAX_ITER", 100)
    report = grid_search(data, "rbf", c_grid=[0.25, 1024.0], param_grid=[0.5, 4.0], k=3, seed=0)
    for entry in report.entries:
        if entry.C == 1024.0:
            assert (entry.error, entry.accuracy, entry.iterations) == ("NoConvergence", 0.0, 0)
            continue
        assert entry.error is None
        spec = KernelSpec(kind="rbf", gamma=entry.param)
        assert entry.accuracy == cross_validate(data, spec, entry.C, k=3, seed=0)
    assert report.entries[:2] == unlimited.entries


def test_grid_iterations_sum_the_cell_models():
    data = separable_dataset(np.random.default_rng(41), n_per_class=6, classes=3)
    report = grid_search(data, "linear", c_grid=[1.0, 8.0], k=3, seed=2)
    for entry in report.entries:
        expected = 0
        for fold in kfold_split(len(data), 3, 2):
            train = data.subset(np.setdiff1d(np.arange(len(data)), fold))
            model = train_one_vs_all(train.vectors, train.labels, LINEAR, entry.C)
            expected += int(model.iterations.sum())
        assert entry.iterations == expected > 0
    assert report.csv_lines()[1].count(",") == 2  # the CSV does not carry iterations


def test_grid_bad_k_raises_before_any_cell():
    data = separable_dataset(np.random.default_rng(25), n_per_class=4)
    with pytest.raises(BadKError):
        grid_search(data, "linear", c_grid=[1.0, 2.0], k=1, seed=0)
    with pytest.raises(BadKError):
        grid_search(data, "linear", c_grid=[1.0], k=9, seed=0)


def test_grid_unknown_strategy_raises_before_any_cell():
    data = separable_dataset(np.random.default_rng(25), n_per_class=4)
    with pytest.raises(InvalidConfigError):
        grid_search(data, "linear", c_grid=[1.0, 2.0], strategy="ovr", k=2, seed=0)


def test_grid_loose_tol_recorded_not_fatal(monkeypatch):
    data = separable_dataset(np.random.default_rng(24), n_per_class=8)
    monkeypatch.setattr(svm, "DEFAULT_TOL", 10.0)
    report = grid_search(data, "rbf", c_grid=[1.0], param_grid=[0.5, 2.0], k=4, seed=0)
    assert [e.error for e in report.entries] == ["InvalidConfig", "InvalidConfig"]
    assert all(e.accuracy == 0.0 for e in report.entries)


def test_grid_deterministic():
    data = separable_dataset(np.random.default_rng(14), n_per_class=10)
    a = grid_search(data, "poly", c_grid=[1.0], param_grid=[2, 3], k=3, seed=5)
    b = grid_search(data, "poly", c_grid=[1.0], param_grid=[2, 3], k=3, seed=5)
    assert [e.accuracy for e in a.entries] == [e.accuracy for e in b.entries]
    assert a.seed == b.seed == 5


def test_grid_csv_shape():
    data = separable_dataset(np.random.default_rng(15), n_per_class=8)
    report = grid_search(data, "linear", c_grid=[1.0, 2.0], k=4, seed=0)
    lines = report.csv_lines()
    assert lines[0] == "C,param,accuracy"
    assert len(lines) == 3


def test_default_grids_are_the_stated_power_ladders():
    from glyphsvm.modelsel import (
        DEFAULT_C_GRID,
        DEFAULT_DEGREE_GRID,
        DEFAULT_GAMMA_GRID,
    )

    assert list(DEFAULT_GAMMA_GRID) == [2.0 ** p for p in range(4, -11, -1)]
    assert list(DEFAULT_C_GRID) == [2.0 ** p for p in range(-2, 13)]
    assert len(DEFAULT_GAMMA_GRID) == 15 and len(DEFAULT_C_GRID) == 15
    assert DEFAULT_DEGREE_GRID == (2, 3, 4, 5, 6)


def test_grid_sigmoid_needs_explicit_pairs():
    data = separable_dataset(np.random.default_rng(23), n_per_class=8)
    with pytest.raises(ValueError):
        grid_search(data, "sigmoid", c_grid=[1.0], k=4, seed=0)
    report = grid_search(
        data, "sigmoid", c_grid=[1.0], param_grid=[(0.01, -0.5)], k=4, seed=0
    )
    assert len(report.entries) == 1
    assert report.entries[0].param == (0.01, -0.5)


@pytest.mark.parametrize(
    "kind, params",
    [
        ("rbg", None),
        ("rbg", [0.5]),
        ("sigmoid", None),
        ("rbf", ["abc"]),
        ("rbf", [0.5, None]),
        ("poly", [2.5]),
        ("poly", [3, "two"]),
    ],
)
def test_grid_bad_kernel_raises_before_any_cell(kind, params, monkeypatch):
    data = separable_dataset(np.random.default_rng(26), n_per_class=4)
    cells = []
    monkeypatch.setattr(modelsel, "_fold_results", lambda *args, **kw: cells.append(args))
    with pytest.raises(InvalidConfigError):
        grid_search(data, kind, c_grid=[1.0], param_grid=params, k=2, seed=0)
    assert cells == []


@pytest.mark.parametrize("c_grid", [[-1.0, 1.0], [1.0, 0.0], [float("nan")], [float("inf")]])
def test_grid_non_positive_c_raises_before_any_cell(c_grid, monkeypatch):
    data = separable_dataset(np.random.default_rng(27), n_per_class=4)
    cells = []
    monkeypatch.setattr(modelsel, "_fold_results", lambda *args, **kw: cells.append(args))
    with pytest.raises(InvalidConfigError):
        grid_search(data, "linear", c_grid=c_grid, k=2, seed=0)
    assert cells == []


def count_live_folds(monkeypatch) -> list:
    """Have each fold's training first note how many earlier folds' trained
    packages are still alive."""
    packages, alive_at_start = [], []

    def tracked(*args):
        gc.collect()
        alive_at_start.append(sum(ref() is not None for ref in packages))
        package = train_multiclass_c_grid(*args)
        packages.append(weakref.ref(package))
        return package

    monkeypatch.setattr(modelsel, "train_multiclass_c_grid", tracked)
    return alive_at_start


@pytest.mark.parametrize("strategy", ["ova", "ovo"])
def test_each_fold_releases_its_models_before_the_next_fold_trains(strategy, monkeypatch):
    data = separable_dataset(np.random.default_rng(42), n_per_class=8, classes=3, distance=2.0)
    alive_at_start = count_live_folds(monkeypatch)
    grid_search(
        data, "rbf", c_grid=[0.5, 4.0], param_grid=[1.0, 0.25], strategy=strategy, k=3, seed=0
    )
    cross_validate(data, KernelSpec(kind="rbf", gamma=0.5), 2.0, strategy=strategy, k=4, seed=1)
    assert alive_at_start == [0] * (2 * 3 + 4)


def test_a_failing_c_releases_its_fold_before_the_next_fold_trains(monkeypatch):
    # the kept error of a C that stops early used to hold its fold's models
    data = separable_dataset(np.random.default_rng(40), n_per_class=12, classes=3, distance=1.0)
    alive_at_start = count_live_folds(monkeypatch)
    monkeypatch.setattr(svm, "DEFAULT_MAX_ITER", 100)
    report = grid_search(data, "rbf", c_grid=[0.25, 1024.0], param_grid=[0.5, 4.0], k=3, seed=0)
    assert [e.error for e in report.entries] == [None, None, "NoConvergence", "NoConvergence"]
    assert alive_at_start == [0] * 6


def test_cv_raises_the_error_of_its_first_failing_fold(monkeypatch):
    data = separable_dataset(np.random.default_rng(40), n_per_class=12, classes=3, distance=1.0)
    monkeypatch.setattr(svm, "DEFAULT_MAX_ITER", 100)
    with pytest.raises(NoConvergenceError) as excinfo:
        cross_validate(data, KernelSpec(kind="rbf", gamma=0.5), 1024.0, k=3, seed=0)
    assert excinfo.value.iterations == 100
    assert isinstance(excinfo.value.__cause__, NoConvergenceError)


# --- evaluation -----------------------------------------------------------------------

def trained_model(data):
    return train_one_vs_all(data.vectors, data.labels, LINEAR, 10.0)


def test_evaluate_perfect():
    data = separable_dataset(np.random.default_rng(16), n_per_class=10)
    report = evaluate(trained_model(data), data)
    assert report.overall_accuracy == 1.0
    assert all(row.error_rate == 0.0 for row in report.per_class)
    assert np.trace(report.confusion) == len(data)


def test_evaluate_constant_model_balanced():
    rng = np.random.default_rng(17)
    train = separable_dataset(rng, n_per_class=10, classes=3)
    model = trained_model(train)
    # constant test set drawn at class 0's center: every prediction is class 0
    vectors = np.zeros((30, 2))
    labels = [0] * 10 + [1] * 10 + [2] * 10
    report = evaluate(model, Dataset(vectors, labels))
    assert report.overall_accuracy == pytest.approx(1 / 3)


def test_evaluate_hand_confusion_arithmetic():
    confusion = np.array([[9, 1, 0], [0, 8, 2], [0, 0, 10]])
    report = EvalReport([1, 2, 3], confusion)
    assert report.overall_accuracy == pytest.approx(0.9)
    rates = [row.error_rate for row in report.per_class]
    assert rates == pytest.approx([0.1, 0.2, 0.0])
    assert [row.test_count for row in report.per_class] == [10, 10, 10]


def test_evaluate_dimension_mismatch():
    data = separable_dataset(np.random.default_rng(18), n_per_class=8)
    model = trained_model(data)
    bad = Dataset(np.zeros((4, 5)), [0, 0, 1, 1])
    with pytest.raises(DimensionMismatchError):
        evaluate(model, bad)


# --- repeated evaluation -----------------------------------------------------------------

def test_repeat_single_run():
    data = separable_dataset(np.random.default_rng(19), n_per_class=10)
    report = repeat_evaluate(data, LINEAR, 10.0, repetitions=1, seed=0)
    assert report.iterations is not None and len(report.iterations) == 1
    assert report.mean_iteration_accuracy == report.iterations[0]


def test_repeat_deterministic_with_seeds():
    data = separable_dataset(np.random.default_rng(20), n_per_class=10)
    a = repeat_evaluate(data, LINEAR, 10.0, repetitions=3, seed=5)
    b = repeat_evaluate(data, LINEAR, 10.0, repetitions=3, seed=5)
    assert a.iterations == b.iterations
    assert np.array_equal(a.confusion, b.confusion)


def test_repeat_mean_is_arithmetic_mean():
    data = separable_dataset(np.random.default_rng(21), n_per_class=10)
    report = repeat_evaluate(data, LINEAR, 10.0, repetitions=5, seed=3)
    assert len(report.iterations) == 5
    assert report.mean_iteration_accuracy == float(np.mean(report.iterations))
    assert report.confusion.sum() == 5 * 4  # each repetition's 4 held-out samples, pooled


def test_repeat_table_shape():
    data = separable_dataset(np.random.default_rng(22), n_per_class=10)
    report = repeat_evaluate(data, LINEAR, 10.0, repetitions=5, seed=1)
    table = report.iteration_table("linear C=10")
    assert "Iteration 5" in table and "Average" in table
    assert "linear C=10" in table
    error_table = report.error_table()
    assert error_table.splitlines()[0].startswith("Class")


def test_repeat_bad_repetitions_or_seeds():
    data = separable_dataset(np.random.default_rng(26), n_per_class=10)
    with pytest.raises(InvalidConfigError):
        repeat_evaluate(data, LINEAR, 10.0, repetitions=0)
    with pytest.raises(InvalidConfigError, match="seed must be >= 0"):
        repeat_evaluate(data, LINEAR, 10.0, seed=-1)


def test_negative_seed_is_invalid_config_at_every_entry_point():
    # numpy's bare "expected non-negative integer" ValueError used to escape
    data = separable_dataset(np.random.default_rng(26), n_per_class=10)
    calls = [
        lambda: kfold_split(10, 2, seed=-1),
        lambda: split_train_test(data, 0.5, seed=-1),
        lambda: cross_validate(data, LINEAR, 1.0, k=2, seed=-1),
        lambda: grid_search(data, "linear", c_grid=[1.0], k=2, seed=-1),
    ]
    for call in calls:
        with pytest.raises(InvalidConfigError, match="seed must be >= 0, got -1"):
            call()


@pytest.mark.parametrize("seed", [1.5, 2.0, "3", None])
def test_a_seed_that_is_no_integer_is_invalid_config(seed):
    # numpy's "SeedSequence expects int" TypeError used to escape
    data = separable_dataset(np.random.default_rng(26), n_per_class=10)
    calls = [
        lambda: kfold_split(10, 2, seed=seed),
        lambda: split_train_test(data, 0.5, seed=seed),
        lambda: cross_validate(data, LINEAR, 1.0, k=2, seed=seed),
    ]
    for call in calls:
        with pytest.raises(InvalidConfigError, match="seed must be an integer"):
            call()


def test_repeat_pooled_confusion_sums_repetitions_by_class_id():
    rng = np.random.default_rng(27)
    base = separable_dataset(rng, n_per_class=10, classes=3)
    data = Dataset(  # class 3 has two samples, so some test split misses it
        np.vstack([base.vectors, [[18.0, 0.0], [18.5, 0.3]]]), base.labels + [3, 3]
    )
    pooled = repeat_evaluate(data, LINEAR, 10.0, repetitions=6, seed=0)
    summed = {}
    missing = 0
    for rep_seed in np.random.SeedSequence(0).generate_state(6).tolist():
        train_part, test_part = split_train_test(data, 0.8, rep_seed)
        missing += 3 not in test_part.labels
        report = evaluate(trained_model(train_part), test_part)
        for a, true_cls in enumerate(report.class_ids):
            for b, pred_cls in enumerate(report.class_ids):
                key = (true_cls, pred_cls)
                summed[key] = summed.get(key, 0) + int(report.confusion[a, b])
    assert missing >= 1
    assert pooled.class_ids == [0, 1, 2, 3]
    for a, true_cls in enumerate(pooled.class_ids):
        for b, pred_cls in enumerate(pooled.class_ids):
            assert pooled.confusion[a, b] == summed.get((true_cls, pred_cls), 0)


def test_repeat_raises_the_error_of_its_failing_repetition(monkeypatch):
    # under a cap of 40 pair updates, C = 32 trains the first split and
    # fails on the second and every later one (the slowest classes of the
    # four splits need 25, 120, 51 and 71)
    data = separable_dataset(np.random.default_rng(40), n_per_class=12, classes=3, distance=1.0)
    rbf = KernelSpec(kind="rbf", gamma=0.5)
    monkeypatch.setattr(svm, "DEFAULT_MAX_ITER", 40)
    failed = []
    for rep, rep_seed in enumerate(np.random.SeedSequence(3).generate_state(4).tolist()):
        train_part, _ = split_train_test(data, 0.8, rep_seed)
        try:
            train_one_vs_all(train_part.vectors, train_part.labels, rbf, 32.0)
        except NoConvergenceError as exc:
            failed.append((rep, exc))
    assert [rep for rep, _ in failed] == [1, 2, 3]
    first = failed[0][1]
    with pytest.raises(NoConvergenceError) as excinfo:
        repeat_evaluate(data, rbf, 32.0, repetitions=4, seed=3)
    assert str(excinfo.value) == str(first)
    assert (excinfo.value.context, excinfo.value.iterations) == (first.context, 40)
