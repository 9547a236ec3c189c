import numpy as np
import pytest
from oracles import reference_decision_matrix, reference_label

from glyphsvm.errors import (
    InvalidConfigError,
    NoConvergenceError,
    NonFiniteInputError,
    SingleClassError,
)
from glyphsvm import multiclass
from glyphsvm.model_io import load_model, save_model
from glyphsvm.multiclass import (
    MinMaxScaling,
    MulticlassModel,
    decision_matrix,
    ordered_classes,
    predict,
    predict_batch,
    train_multiclass,
    train_multiclass_c_grid,
    train_one_vs_all,
    train_one_vs_one,
)
from glyphsvm.svm import (
    KernelSpec,
    decision_values,
    gram_matrix,
    solve_smo,
    train_binary,
)

LINEAR = KernelSpec(kind="linear")
RBF = KernelSpec(kind="rbf", gamma=0.5)


def clustered_data(rng, n_classes, per_class=12, spread=0.35):
    """Well-separated 2-D Gaussian clusters on a circle."""
    vectors, labels = [], []
    for c in range(n_classes):
        angle = 2 * np.pi * c / n_classes
        center = np.array([3 * np.cos(angle), 3 * np.sin(angle)])
        vectors.append(center + spread * rng.normal(size=(per_class, 2)))
        labels.extend([c] * per_class)
    return np.vstack(vectors), labels


def identity_scaling(dim):
    return MinMaxScaling(mins=np.zeros(dim), maxs=np.ones(dim))


# --- ordering ------------------------------------------------------------------

def test_class_ordering_numeric_strings():
    assert ordered_classes(["10", "2", "1"]) == ["1", "2", "10"]


def test_class_ordering_lexicographic():
    assert ordered_classes(["beta", "alpha"]) == ["alpha", "beta"]
    # integer-like labels sort numerically ahead of word labels
    assert ordered_classes(["beta", "alpha", "10"]) == ["10", "alpha", "beta"]


def test_class_ordering_ints():
    assert ordered_classes([3, 1, 2]) == [1, 2, 3]


# --- classifier counts ------------------------------------------------------------

@pytest.mark.parametrize("n_classes", range(2, 11))
def test_classifier_counts(n_classes):
    rng = np.random.default_rng(n_classes)
    X, labels = clustered_data(rng, n_classes, per_class=5)
    ova = train_one_vs_all(X, labels, LINEAR, C=10.0)
    ovo = train_one_vs_one(X, labels, LINEAR, C=10.0)
    assert len(ova.classifiers) == n_classes
    assert len(ovo.classifiers) == n_classes * (n_classes - 1) // 2
    ova.validate()
    ovo.validate()


def test_44_class_counts():
    # the headline configuration: 44 ova classifiers, 44*43/2 pairwise ones
    rng = np.random.default_rng(44)
    X, labels = clustered_data(rng, 44, per_class=3, spread=0.1)
    ova = train_one_vs_all(X, labels, LINEAR, C=1.0)
    assert len(ova.classifiers) == 44
    ovo = train_one_vs_one(X, labels, LINEAR, C=1.0)
    assert len(ovo.classifiers) == 946


def test_single_class_rejected():
    X = np.random.default_rng(0).normal(size=(6, 2))
    with pytest.raises(SingleClassError):
        train_one_vs_all(X, ["a"] * 6, LINEAR, C=1.0)
    with pytest.raises(SingleClassError):
        train_one_vs_one(X, ["a"] * 6, LINEAR, C=1.0)


# --- N=2 equivalence ----------------------------------------------------------------

def test_two_class_paths_coincide():
    rng = np.random.default_rng(42)
    X, labels = clustered_data(rng, 2, per_class=10)
    ova = train_one_vs_all(X, labels, RBF, C=10.0)
    ovo = train_one_vs_one(X, labels, RBF, C=10.0)
    # direct binary model on the same scaled features
    scaled = ova.scaling.transform(X)
    y = np.array([1.0 if lb == 0 else -1.0 for lb in labels])
    direct = train_binary(scaled, y, RBF, C=10.0)
    probes = rng.normal(size=(200, 2)) * 2
    d = np.where(decision_values(direct, ova.scaling.transform(probes)) >= 0.0, 0, 1).tolist()
    assert predict_batch(ova, probes) == predict_batch(ovo, probes) == d


# --- prediction rules ----------------------------------------------------------------

def pinned_columns(weights):
    """Hand-built classifiers over the one support vector [1]: under the
    linear kernel, classifier p has f(x) = weights[p] * x[0]."""
    return [([0], [w], 0.0, 1.0, 0, 0.0) for w in weights]


def ova_from_values(values):
    """OVA model whose decision values at probe x=[1] equal `values`."""
    return MulticlassModel.from_columns(
        "ova", list(range(1, len(values) + 1)), LINEAR, np.ones((1, 1)),
        pinned_columns(values), identity_scaling(1),
    )


def test_ova_argmax():
    model = ova_from_values([0.5, -0.2, 0.1])
    assert predict(model, [1.0]) == 1


def test_ova_tie_lowest_class():
    model = ova_from_values([0.3, 0.3, -1.0])
    assert predict(model, [1.0]) == 1


def test_ova_all_negative_still_argmax():
    model = ova_from_values([-0.9, -0.4, -0.7])
    assert predict(model, [1.0]) == 2


def test_ova_decision_values_exposed():
    model = ova_from_values([0.25, -0.5, 1.5])
    np.testing.assert_allclose(decision_matrix(model, [[1.0]]), [[0.25, -0.5, 1.5]])


def test_ova_rescaling_invariance():
    values = [0.2, -0.8, 0.9, 0.15]
    base = ova_from_values(values)
    scaled = ova_from_values([4.0 * v for v in values])
    assert predict(base, [1.0]) == predict(scaled, [1.0])


def ovo_from_values(pair_values, n_classes=3):
    return MulticlassModel.from_columns(
        "ovo", ["A", "B", "C"][:n_classes], LINEAR, np.ones((1, 1)),
        pinned_columns(pair_values), identity_scaling(1),
    )


def test_ovo_plurality():
    # pairs (A,B), (A,C), (B,C): A beats both, B beats C -> votes A:2 B:1 C:0
    model = ovo_from_values([0.9, 0.8, 0.7])
    assert predict(model, [1.0]) == "A"


def test_ovo_cycle_resolved_by_score_sums():
    # cycle: A>B (0.9), C>A (-0.7 on (A,C)), B>C (0.8): one vote each.
    # sums: A: +0.9-0.7=0.2, B: -0.9+0.8=-0.1, C: -0.8+0.7=-0.1 -> A wins.
    model = ovo_from_values([0.9, -0.7, 0.8])
    assert predict(model, [1.0]) == "A"


def test_ovo_cycle_score_tie_prefers_lowest_class():
    # symmetric cycle: every class one vote, all sums zero -> lowest id "A"
    model = ovo_from_values([0.5, -0.5, 0.5])
    assert predict(model, [1.0]) == "A"


def test_ovo_zero_decision_votes_first_class():
    model = ovo_from_values([0.0], n_classes=2)
    assert predict(model, [1.0]) == "A"


# --- invariances ------------------------------------------------------------------------

def test_ova_reordering_invariance():
    rng = np.random.default_rng(11)
    X, labels = clustered_data(rng, 4, per_class=8)
    model_a = train_one_vs_all(X, labels, RBF, C=10.0)
    perm = rng.permutation(len(labels))
    model_b = train_one_vs_all(X[perm], [labels[i] for i in perm], RBF, C=10.0)
    assert model_a.class_ids == model_b.class_ids
    probes = rng.normal(size=(40, 2)) * 2
    assert predict_batch(model_a, probes) == predict_batch(model_b, probes)


def test_scaling_record_matches_dimension():
    rng = np.random.default_rng(13)
    X, labels = clustered_data(rng, 3, per_class=6)
    X = np.hstack([X, rng.normal(size=(len(labels), 3))])
    model = train_one_vs_all(X, labels, LINEAR, C=1.0)
    assert model.scaling.dimension == 5


def test_scaling_constant_dimension_maps_to_zero():
    scaling = MinMaxScaling(mins=np.array([0.0, 2.0]), maxs=np.array([1.0, 2.0]))
    out = scaling.transform(np.array([[0.5, 2.0], [1.0, 2.0]]))
    np.testing.assert_allclose(out[:, 1], [0.0, 0.0])
    np.testing.assert_allclose(out[:, 0], [0.5, 1.0])


@pytest.mark.parametrize("train", [train_one_vs_all, train_one_vs_one])
def test_training_rejects_non_finite_input(train):
    X, labels = clustered_data(np.random.default_rng(31), 3)
    X[4, 0] = np.nan
    with pytest.raises(NonFiniteInputError):
        train(X, labels, LINEAR, 1.0)


def test_prediction_rejects_non_finite_input():
    X, labels = clustered_data(np.random.default_rng(32), 3)
    model = train_one_vs_all(X, labels, LINEAR, 1.0)
    for bad in ([[np.nan, 0.0]], [[0.0, np.inf]], [[np.nan, 0.0], [np.inf, 0.0]]):
        with pytest.raises(NonFiniteInputError):
            predict_batch(model, bad)
    with pytest.raises(NonFiniteInputError):
        predict(model, [0.0, -np.inf])


def test_no_convergence_tagged_with_class(monkeypatch):
    rng = np.random.default_rng(14)
    X, labels = clustered_data(rng, 3, per_class=8, spread=2.5)
    monkeypatch.setattr(multiclass, "DEFAULT_MAX_ITER", 1)
    with pytest.raises(NoConvergenceError) as excinfo:
        train_one_vs_all(X, labels, RBF, C=10.0)
    assert excinfo.value.context == 0
    assert "class 0" in str(excinfo.value)


def test_no_convergence_tagged_with_the_first_failing_later_class(monkeypatch):
    # class 0 converges, so the error must come from a class solved beside it
    X, labels = clustered_data(np.random.default_rng(1), 4, per_class=8, spread=2.5)
    full = [clf.meta.iterations for clf in train_one_vs_all(X, labels, RBF, C=100.0).classifiers]
    max_iter = full[0]
    failing = next(c for c, count in enumerate(full) if count > max_iter)
    assert failing > 0
    monkeypatch.setattr(multiclass, "DEFAULT_MAX_ITER", max_iter)
    with pytest.raises(NoConvergenceError) as excinfo:
        train_one_vs_all(X, labels, RBF, C=100.0)
    assert excinfo.value.context == failing
    assert excinfo.value.iterations == max_iter
    assert str(excinfo.value).startswith(f"class {failing!r} vs rest: no convergence")


def test_no_convergence_tagged_with_the_first_failing_class_pair(monkeypatch):
    # the first pair converges, so the error must come from a pair solved beside it
    X, labels = clustered_data(np.random.default_rng(1), 4, per_class=8, spread=2.5)
    model = train_one_vs_one(X, labels, RBF, C=100.0)
    full = [clf.meta.iterations for clf in model.classifiers]
    max_iter = full[0]
    failing = next(p for p, count in enumerate(full) if count > max_iter)
    assert failing > 0
    monkeypatch.setattr(multiclass, "DEFAULT_MAX_ITER", max_iter)
    with pytest.raises(NoConvergenceError) as excinfo:
        train_one_vs_one(X, labels, RBF, C=100.0)
    i, j = model.pairs[failing]
    context = (model.class_ids[i], model.class_ids[j])
    assert excinfo.value.context == context
    assert excinfo.value.iterations == max_iter
    assert str(excinfo.value).startswith(f"class pair {context!r}: no convergence")


@pytest.mark.parametrize("strategy", ["ova", "ovo"])
def test_c_grid_is_one_solver_block(monkeypatch, strategy):
    X, labels = clustered_data(np.random.default_rng(25), 4, per_class=6)
    blocks = []

    def counting(gram, Y, *args, **kwargs):
        blocks.append(len(Y))
        return solve_smo(gram, Y, *args, **kwargs)

    monkeypatch.setattr(multiclass, "solve_smo", counting)
    model = train_multiclass_c_grid(X, labels, strategy, RBF, [1.0, 4.0, 16.0])(2)
    assert blocks == [len(model.classifiers) * 3]


def test_c_grid_rejects_non_positive_c_before_the_kernel_matrix(monkeypatch):
    X, labels = clustered_data(np.random.default_rng(24), 3, per_class=4)
    built = []
    monkeypatch.setattr(multiclass, "gram_matrix", lambda *args: built.append(args))
    for c_values in ([1.0, 0.0], [-1.0], [float("nan")]):
        with pytest.raises(InvalidConfigError):
            train_multiclass_c_grid(X, labels, "ova", LINEAR, c_values)
    assert built == []


@pytest.mark.parametrize("strategy", ["ova", "ovo"])
def test_c_grid_packages_a_model_or_raises_per_c(strategy, monkeypatch):
    X, labels = clustered_data(np.random.default_rng(1), 3, per_class=8, spread=2.5)
    full = train_multiclass_c_grid(X, labels, strategy, RBF, [0.25, 1024.0])
    small, large = (max(clf.meta.iterations for clf in full(k).classifiers) for k in (0, 1))
    assert small < large
    monkeypatch.setattr(multiclass, "DEFAULT_MAX_ITER", small)
    package = train_multiclass_c_grid(X, labels, strategy, RBF, [1024.0, 0.25])
    with pytest.raises(NoConvergenceError):
        package(0)
    for got, want in zip(package(1).classifiers, full(0).classifiers):
        assert np.array_equal(got.dual_coeffs, want.dual_coeffs)
        assert got.bias == want.bias
    with pytest.raises(NoConvergenceError):
        package(0)


def test_predict_dispatch():
    rng = np.random.default_rng(15)
    X, labels = clustered_data(rng, 3, per_class=6)
    ova = train_one_vs_all(X, labels, LINEAR, C=10.0)
    ovo = train_one_vs_one(X, labels, LINEAR, C=10.0)
    for model in (ova, ovo):
        for probe in X[:3]:
            values = reference_decision_matrix(model, [probe])[0]
            assert predict(model, probe) == reference_label(model, values)


# --- batched prediction against the per-sample oracle ------------------------------------

ALL_KERNELS = [
    LINEAR,
    KernelSpec(kind="poly", degree=3),
    RBF,
    KernelSpec(kind="sigmoid", slope=0.01, offset=-0.25),
]


@pytest.mark.parametrize("strategy", ["ova", "ovo"])
@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.kind)
def test_decision_matrix_matches_per_sample_oracle(kernel, strategy):
    rng = np.random.default_rng(21)
    X, labels = clustered_data(rng, 4, per_class=8)
    trainer = train_one_vs_all if strategy == "ova" else train_one_vs_one
    model = trainer(X, labels, kernel, C=10.0)
    probes = rng.normal(size=(30, 2)) * 3
    values = decision_matrix(model, probes)
    assert values.shape == (30, len(model.classifiers))
    np.testing.assert_allclose(
        values, reference_decision_matrix(model, probes), rtol=1e-10, atol=1e-10
    )
    assert predict_batch(model, probes) == [reference_label(model, v) for v in values]


def test_predict_batch_tie_probes_match_per_row_predict():
    # pinned models give f = weight * x: x = 0 ties every classifier at zero,
    # x = -1 flips every sign
    probes = np.array([[1.0], [0.0], [-1.0], [2.0]])
    models = [
        ova_from_values([0.3, 0.3, -1.0]),
        ova_from_values([-0.9, -0.4, -0.7]),
        ovo_from_values([0.9, 0.8, 0.7]),
        ovo_from_values([0.1, 0.1, 5.0]),  # A wins on votes, B has the larger sum
        ovo_from_values([0.9, -0.7, 0.8]),
        ovo_from_values([0.5, -0.5, 0.5]),
        ovo_from_values([0.0], n_classes=2),
    ]
    for model in models:
        batch = predict_batch(model, probes)
        assert batch == [predict(model, p) for p in probes]
        reference = reference_decision_matrix(model, probes)
        assert batch == [reference_label(model, v) for v in reference]


# --- one kernel matrix against per-problem training ------------------------------------------

def reference_classifiers(X, labels, strategy, kernel, C):
    """Every binary problem trained alone by `train_binary` on its own rows'
    block of the training set's kernel matrix."""
    Xs = MinMaxScaling.fit(X).transform(X)
    gram = gram_matrix(kernel, Xs)
    classes = ordered_classes(labels)
    labels = np.array(labels)
    if strategy == "ova":
        problems = [(labels == c, np.ones(len(labels), bool)) for c in classes]
    else:
        problems = [
            (labels == classes[i], (labels == classes[i]) | (labels == classes[j]))
            for i in range(len(classes))
            for j in range(i + 1, len(classes))
        ]
    out = []
    for positive, rows in problems:
        sub_x = Xs[rows]
        y = np.where(positive[rows], 1.0, -1.0)
        out.append(train_binary(sub_x, y, kernel, C, gram=gram[np.ix_(rows, rows)]))
    return out


@pytest.mark.parametrize("strategy", ["ova", "ovo"])
@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.kind)
def test_training_matches_per_problem_kernel_rows(kernel, strategy, tmp_path):
    rng = np.random.default_rng(22)
    X = np.vstack([rng.normal(size=(10, 6)) + 1.5 * c for c in range(4)])
    labels = [c for c in range(4) for _ in range(10)]
    model = train_multiclass(X, labels, strategy, kernel, 10.0)
    save_model(model, tmp_path / "model.gsvm")
    reference = reference_classifiers(X, labels, strategy, kernel, 10.0)
    for derived in (model, load_model(tmp_path / "model.gsvm")):
        assert len(derived.classifiers) == len(reference)
        for got, want in zip(derived.classifiers, reference):
            assert got.kernel == want.kernel
            assert np.array_equal(got.support_vectors, want.support_vectors)
            assert np.array_equal(got.dual_coeffs, want.dual_coeffs)
            assert (got.bias, got.C) == (want.bias, want.C)
            assert got.meta == want.meta


@pytest.mark.parametrize("strategy", ["ova", "ovo"])
def test_support_vector_table_is_the_union_of_support_rows(strategy):
    # every problem's support vectors are rows of the one scaled training set:
    # the table holds each such row once, in training-row order, and exact
    # duplicate training rows stay apart
    rng = np.random.default_rng(26)
    X = np.vstack([rng.normal(size=(10, 3)) + 1.2 * c for c in range(3)])
    labels = np.array([c for c in range(3) for _ in range(10)])
    X, labels = np.vstack([X, X[::3]]), np.concatenate([labels, labels[::3]])
    model = train_multiclass(X, list(labels), strategy, RBF, 10.0)
    Xs = model.scaling.transform(X)
    gram = gram_matrix(RBF, Xs)
    problems = (
        [(labels == c, np.arange(len(X))) for c in range(3)]
        if strategy == "ova"
        else [(labels == i, np.flatnonzero((labels == i) | (labels == j))) for i, j in model.pairs]
    )
    support = {}  # (training row, problem) -> alpha_i y_i
    for p, (positive, rows) in enumerate(problems):
        y = np.where(positive[rows], 1.0, -1.0)
        (s,) = solve_smo(gram[np.ix_(rows, rows)], y[None], [10.0])
        support.update(((r, p), a * yy) for r, a, yy in zip(rows, s.alpha, y) if a > 0)
    union = sorted({r for r, _ in support})
    assert np.array_equal(model.support_vectors, Xs[union])
    expected = np.zeros((len(union), len(problems)))
    for (r, p), coeff in support.items():
        expected[union.index(r), p] = coeff
    assert np.array_equal(model.coeffs, expected)
    assert len(union) < len(support)  # rows shared between problems are stored once
    duplicated = [r for r in union if r >= 30 and 3 * (r - 30) in union]
    assert duplicated  # a row and its exact copy both kept


@pytest.mark.parametrize("strategy", ["ova", "ovo"])
@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.kind)
def test_decision_matrix_stacks_per_classifier_decision_values(kernel, strategy):
    rng = np.random.default_rng(27)
    X, labels = clustered_data(rng, 4, per_class=8)
    model = train_multiclass(X, labels, strategy, kernel, 10.0)
    probes = rng.normal(size=(40, 2)) * 3
    xs = model.scaling.transform(probes)
    columns = np.column_stack([decision_values(clf, xs) for clf in model.classifiers])
    values = decision_matrix(model, probes)
    np.testing.assert_allclose(values, columns, rtol=1e-12, atol=1e-12)
    assert predict_batch(model, probes) == [reference_label(model, v) for v in columns]


def test_unknown_strategy_is_invalid_config():
    rng = np.random.default_rng(23)
    X, labels = clustered_data(rng, 3, per_class=4)
    with pytest.raises(InvalidConfigError):
        train_multiclass(X, labels, "ovr", LINEAR, 1.0)


def test_c_grid_rejects_infinite_c_before_the_kernel_matrix(monkeypatch):
    X, labels = clustered_data(np.random.default_rng(24), 3, per_class=4)
    built = []
    monkeypatch.setattr(multiclass, "gram_matrix", lambda *args: built.append(args))
    with pytest.raises(InvalidConfigError, match="positive finite"):
        train_multiclass_c_grid(X, labels, "ova", LINEAR, [1.0, float("inf")])
    assert built == []
