import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis.strategies import booleans, integers, lists, sampled_from

from oracles import (
    dual_objective,
    kernel_matrix,
    max_kkt_violation,
    oracle_best_dual,
    recover_alpha,
    reference_train_binary,
)

from glyphsvm.errors import (
    DimensionMismatchError,
    InvalidConfigError,
    NoConvergenceError,
    SingleClassError,
)
from glyphsvm.multiclass import MinMaxScaling, MulticlassModel, predict_batch
from glyphsvm.svm import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    KernelSpec,
    binary_model,
    decision_value,
    decision_values,
    gram_matrix,
    kernel_against,
    solve_smo,
    train_binary,
    validate_c,
)

LINEAR = KernelSpec(kind="linear")


def random_problem(rng, n, gap=0.0):
    X = rng.normal(size=(n, 2))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    X[y > 0, 0] += gap
    return X, y


# --- kernels ------------------------------------------------------------------

def test_kernel_linear():
    assert kernel_against(LINEAR, [[1.0, 2.0]], [[1.0, 2.0]])[0, 0] == 5.0


def test_kernel_rbf_self_is_one():
    spec = KernelSpec(kind="rbf", gamma=3.7)
    for x in ([0.0, 0.0], [2.5, -1.0], [100.0]):
        assert kernel_against(spec, [x], [x])[0, 0] == 1.0


def test_kernel_poly():
    spec = KernelSpec(kind="poly", degree=2)
    assert kernel_against(spec, [[1.0, 0.0]], [[1.0, 0.0]])[0, 0] == 4.0


def test_kernel_sigmoid_orthogonal():
    spec = KernelSpec(kind="sigmoid", slope=1.0, offset=0.0)
    assert kernel_against(spec, [[1.0, 0.0]], [[0.0, 1.0]])[0, 0] == 0.0


def test_kernel_symmetry():
    rng = np.random.default_rng(0)
    specs = [
        LINEAR,
        KernelSpec(kind="poly", degree=3),
        KernelSpec(kind="rbf", gamma=0.7),
        KernelSpec(kind="sigmoid", slope=0.5, offset=-0.2),
    ]
    for _ in range(25):
        x, y = rng.normal(size=(2, 4))
        for spec in specs:
            xy = kernel_against(spec, [x], [y])[0, 0]
            assert xy == pytest.approx(kernel_against(spec, [y], [x])[0, 0], rel=1e-15)


def test_kernel_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        kernel_against(LINEAR, [[1.0, 2.0]], [[1.0, 2.0, 3.0]])


@pytest.mark.parametrize("probes", [[1.0, 2.0], [[[1.0, 2.0]]]], ids=["1d", "3d"])
def test_kernel_probes_must_be_a_2d_block(probes):
    with pytest.raises(DimensionMismatchError):
        kernel_against(LINEAR, [[1.0, 2.0]], probes)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(kind="rbf", gamma=0.0)
    with pytest.raises(ValueError):
        KernelSpec(kind="rbf")
    with pytest.raises(ValueError):
        KernelSpec(kind="poly", degree=0)
    with pytest.raises(ValueError):
        KernelSpec(kind="sigmoid", slope=1.0)  # offset must be explicit
    with pytest.raises(ValueError):
        KernelSpec(kind="laplace")


@pytest.mark.parametrize(
    "kind, params",
    [
        ("rbf", {"gamma": float("inf")}),
        ("rbf", {"gamma": float("nan")}),
        ("sigmoid", {"slope": float("inf"), "offset": 0.0}),
        ("sigmoid", {"slope": 0.01, "offset": float("-inf")}),
        ("sigmoid", {"slope": float("nan"), "offset": 0.0}),
    ],
)
def test_kernel_spec_refuses_non_finite_parameters(kind, params):
    # gamma = inf used to put NaN on the Gram matrix diagonal
    with pytest.raises(InvalidConfigError):
        KernelSpec(kind=kind, **params)


@pytest.mark.parametrize("degree", [float("inf"), float("nan")])
def test_kernel_spec_refuses_a_degree_that_is_no_number(degree):
    # inf used to raise a bare OverflowError
    with pytest.raises(InvalidConfigError):
        KernelSpec.from_param("poly", degree)
    with pytest.raises(InvalidConfigError):
        KernelSpec(kind="poly", degree=degree)


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.0, -2.0])
def test_c_must_be_a_positive_finite_number(bad):
    assert validate_c([1, 2.5]) == [1.0, 2.5]
    with pytest.raises(InvalidConfigError, match="positive finite"):
        validate_c([1.0, bad])
    X, Y, gram = block_problem(4, 6, False, LINEAR, 2)
    with pytest.raises(InvalidConfigError, match="positive finite"):
        solve_smo(gram, Y, [1.0, bad])


# --- analytic two-point problem -------------------------------------------------

def two_point_model():
    X = np.array([[0.0, 0.0], [2.0, 0.0]])
    y = np.array([-1.0, 1.0])
    return train_binary(X, y, LINEAR, C=100.0), X, y


def test_two_point_bias_and_margin():
    model, _, _ = two_point_model()
    assert model.bias == pytest.approx(-1.0, abs=1e-3)
    w = model.dual_coeffs @ model.support_vectors
    assert 2.0 / np.linalg.norm(w) == pytest.approx(2.0, abs=1e-3)


def test_two_point_midpoint_is_boundary():
    model, _, _ = two_point_model()
    assert abs(decision_value(model, [1.0, 0.0])) <= 1e-6


def test_unbounded_sv_sits_on_margin():
    model, X, y = two_point_model()
    alpha = recover_alpha(model, X, y)
    for idx in range(2):
        if 0 < alpha[idx] < model.C:
            assert abs(decision_value(model, X[idx])) == pytest.approx(1.0, abs=1e-3)


def test_label_flip_negates_decisions():
    rng = np.random.default_rng(1)
    X, y = random_problem(rng, 12)
    m_pos = train_binary(X, y, LINEAR, C=5.0)
    m_neg = train_binary(X, -y, LINEAR, C=5.0)
    probes = rng.normal(size=(20, 2))
    for p in probes:
        assert decision_value(m_pos, p) == pytest.approx(-decision_value(m_neg, p), abs=1e-9)


# --- XOR ------------------------------------------------------------------------

XOR_X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
XOR_Y = np.array([1.0, 1.0, -1.0, -1.0])


def test_xor_linear_not_separable():
    model = train_binary(XOR_X, XOR_Y, LINEAR, C=10.0)
    acc = np.mean(np.where(decision_values(model, XOR_X) >= 0.0, 1.0, -1.0) == XOR_Y)
    assert acc <= 0.75


def test_xor_rbf_separates():
    model = train_binary(XOR_X, XOR_Y, KernelSpec(kind="rbf", gamma=1.0), C=10.0)
    assert np.array_equal(np.where(decision_values(model, XOR_X) >= 0.0, 1.0, -1.0), XOR_Y)


# --- error paths -------------------------------------------------------------------

def test_single_class_raises():
    with pytest.raises(SingleClassError):
        train_binary(np.eye(3), np.ones(3), LINEAR, C=1.0)


def test_no_convergence_carries_diagnostics():
    rng = np.random.default_rng(2)
    X, y = random_problem(rng, 30)
    with pytest.raises(NoConvergenceError) as excinfo:
        train_binary(X, y, KernelSpec(kind="rbf", gamma=0.5), C=10.0, max_iter=2)
    err = excinfo.value
    assert err.iterations == 2
    assert err.violation is not None and err.violation > 1e-3
    assert err.category == "NoConvergence"


def test_bad_hyperparameters():
    with pytest.raises(ValueError):
        train_binary(XOR_X, XOR_Y, LINEAR, C=0.0)
    with pytest.raises(ValueError):
        train_binary(XOR_X, XOR_Y, LINEAR, C=1.0, tol=0.0)


def test_decision_dimension_mismatch():
    model, _, _ = two_point_model()
    with pytest.raises(DimensionMismatchError):
        decision_value(model, [1.0, 2.0, 3.0])


# --- solver invariants ----------------------------------------------------------------

ALL_KERNELS = [
    LINEAR,
    KernelSpec(kind="poly", degree=3),
    KernelSpec(kind="rbf", gamma=0.8),
    KernelSpec(kind="sigmoid", slope=0.5, offset=-0.2),
]


def smo_problem(seed, n, sliced, spec):
    """A random problem and the kernel matrix to train it with: built from its
    own samples, or sliced from a larger set's matrix as one-vs-one does."""
    rng = np.random.default_rng(seed)
    if not sliced:
        X, y = random_problem(rng, n)
        return X, y, gram_matrix(spec, X)
    X_all, _ = random_problem(rng, 2 * n)
    rows = np.sort(rng.choice(2 * n, size=n, replace=False))
    _, y = random_problem(rng, n)
    return X_all[rows], y, gram_matrix(spec, X_all)[np.ix_(rows, rows)]


SMO_CASES = dict(
    seed=integers(0, 2**32 - 1),
    n=integers(4, 24),
    sliced=booleans(),
    spec=sampled_from(ALL_KERNELS),
    C=sampled_from([0.5, 1.0, 10.0, 100.0]),
)


@settings(max_examples=60, deadline=None)
@given(**SMO_CASES)
def test_box_and_equality_constraints(seed, n, sliced, spec, C):
    X, y, gram = smo_problem(seed, n, sliced, spec)
    model = train_binary(X, y, spec, C=C, gram=gram)
    alpha = np.abs(model.dual_coeffs)
    assert np.all(alpha > 0.0) and np.all(alpha <= C)  # exact box
    assert abs(model.dual_coeffs.sum()) <= 1e-9 * C * n
    assert len(model.dual_coeffs) >= 1


@settings(max_examples=60, deadline=None)
@given(**SMO_CASES)
def test_kkt_within_tolerance(seed, n, sliced, spec, C):
    X, y, gram = smo_problem(seed, n, sliced, spec)
    model = train_binary(X, y, spec, C=C, tol=1e-3, gram=gram)
    assert max_kkt_violation(model, X, y, C) <= 1e-3 + 1e-9


# --- lockstep solver against the scalar loop ------------------------------------------

def block_problem(seed, n, sliced, spec, problems):
    """`problems` label vectors over one sample set and the kernel matrix they
    share: built from the samples, or sliced from a larger set's matrix."""
    X, _, gram = smo_problem(seed, n, sliced, spec)
    rng = np.random.default_rng(seed + 1)
    Y = np.where(rng.random((problems, n)) < 0.5, 1.0, -1.0)
    Y[:, 0], Y[:, 1] = 1.0, -1.0  # both classes in every problem
    return X, Y, gram


def assert_same_model(got, want):
    assert np.array_equal(got.support_vectors, want.support_vectors)
    assert np.array_equal(got.dual_coeffs, want.dual_coeffs)
    assert got.bias == want.bias
    assert got.C == want.C
    assert got.meta == want.meta


def assert_same_as_scalar_loop(solution, X, y, spec, C, gram, max_iter=DEFAULT_MAX_ITER):
    """A lockstep solution comes out as the scalar loop's: the same model when
    it converged, else the same NoConvergenceError after `max_iter` updates,
    with the same violation and message. Without an explicit cap this covers
    draws that neither solver finishes within the default budget."""
    if solution.converged:
        want = reference_train_binary(X, y, spec, C, max_iter=max_iter, gram=gram)
        assert_same_model(binary_model(solution, X, spec, DEFAULT_TOL), want)
        return
    with pytest.raises(NoConvergenceError) as expected:
        reference_train_binary(X, y, spec, C, max_iter=max_iter, gram=gram)
    with pytest.raises(NoConvergenceError) as got:
        binary_model(solution, X, spec, DEFAULT_TOL)
    assert solution.iterations == got.value.iterations == expected.value.iterations == max_iter
    assert got.value.violation == expected.value.violation
    assert str(got.value) == str(expected.value)


@settings(max_examples=40, deadline=None)
@given(
    seed=integers(0, 2**32 - 2),
    n=integers(4, 24),
    sliced=booleans(),
    spec=sampled_from(ALL_KERNELS),
    c_values=lists(sampled_from([0.5, 1.0, 10.0, 100.0]), min_size=1, max_size=12),
)
# draws where rounding leaves a multiplier just off its box, so the snap acts
@example(seed=2116130274, n=14, sliced=False, spec=ALL_KERNELS[0], c_values=[1.0, 10.0])
@example(
    seed=1338252685, n=16, sliced=True, spec=ALL_KERNELS[3], c_values=[100.0, 10.0, 100.0, 0.5]
)
@example(
    seed=1208033237, n=6, sliced=False, spec=ALL_KERNELS[3],
    c_values=[0.5, 10.0, 100.0, 0.5, 10.0, 1.0, 100.0, 100.0, 10.0],
)
def test_lockstep_solver_equals_scalar_loop(seed, n, sliced, spec, c_values):
    # problems with their own C finish on different trips; each must come out
    # as if solved alone
    X, Y, gram = block_problem(seed, n, sliced, spec, len(c_values))
    solutions = solve_smo(gram, Y, c_values)
    for y, C, solution in zip(Y, c_values, solutions):
        assert_same_as_scalar_loop(solution, X, y, spec, C, gram)


def test_lockstep_max_iter_fails_only_the_slow_problems():
    spec = KernelSpec(kind="rbf", gamma=0.8)
    X, Y, gram = block_problem(3, 24, False, spec, 8)
    c_values = [0.5, 100.0, 1.0, 10.0, 100.0, 0.5, 10.0, 1.0]
    full = [s.iterations for s in solve_smo(gram, Y, c_values)]
    max_iter = sorted(full)[len(full) // 2]
    solutions = solve_smo(gram, Y, c_values, max_iter=max_iter)
    failed = [not s.converged for s in solutions]
    assert any(failed) and not all(failed)
    for y, C, solution in zip(Y, c_values, solutions):
        assert_same_as_scalar_loop(solution, X, y, spec, C, gram, max_iter)


# --- member blocks: problems over their own rows of one matrix ----------------------------

def member_block(seed, n, sliced, spec, cuts):
    """`len(cuts)` problems over one n-row kernel matrix, in `solve_smo`'s
    members form. Problem p trains on a sorted subset of the rows that keeps
    rows 0 and 1 (one of each class) and drops `cuts[p] % (n - 3)` others;
    problem 0 keeps every row. Labels past a problem's rows are 0 (padding)."""
    X, Y, gram = block_problem(seed, n, sliced, spec, len(cuts))
    rng = np.random.default_rng(seed + 2)
    members = np.zeros(Y.shape, dtype=np.intp)
    labels = np.zeros(Y.shape)
    subsets = []
    for p, cut in enumerate(cuts):
        kept = n - 2 - (0 if p == 0 else cut % (n - 3))
        rows = np.sort(np.concatenate(([0, 1], rng.choice(np.arange(2, n), kept, replace=False))))
        members[p, : len(rows)] = rows
        labels[p, : len(rows)] = Y[p, rows]
        subsets.append(rows)
    return X, gram, members, labels, subsets


@settings(max_examples=40, deadline=None)
@given(
    seed=integers(0, 2**32 - 3),
    n=integers(4, 24),
    sliced=booleans(),
    spec=sampled_from(ALL_KERNELS),
    c_values=lists(sampled_from([0.5, 1.0, 10.0, 100.0]), min_size=1, max_size=12),
    cuts=lists(integers(0, 20), min_size=12, max_size=12),
)
# the snap draws of the lockstep test: the problems whose multiplier snaps onto
# its box keep every row, the others train on fewer
@example(
    seed=2116130274, n=14, sliced=False, spec=ALL_KERNELS[0], c_values=[1.0, 10.0],
    cuts=[0, 5] + [0] * 10,
)
@example(
    seed=1338252685, n=16, sliced=True, spec=ALL_KERNELS[3], c_values=[100.0, 10.0, 100.0, 0.5],
    cuts=[0, 0, 7, 3] + [0] * 8,
)
@example(
    seed=1208033237, n=6, sliced=False, spec=ALL_KERNELS[3],
    c_values=[0.5, 10.0, 100.0, 0.5, 10.0, 1.0, 100.0, 100.0, 10.0],
    cuts=[0, 1, 0, 2, 1, 2, 0, 1, 2, 0, 0, 0],
)
def test_member_block_equals_scalar_loop_on_each_subset(seed, n, sliced, spec, c_values, cuts):
    X, gram, members, Y, subsets = member_block(seed, n, sliced, spec, cuts[: len(c_values)])
    solutions = solve_smo(gram, Y, c_values, members=members)
    for rows, y, C, solution in zip(subsets, Y, c_values, solutions):
        assert len(solution.alpha) == len(rows)
        sub_gram = gram[np.ix_(rows, rows)]
        assert_same_as_scalar_loop(solution, X[rows], y[: len(rows)], spec, C, sub_gram)


def one_vs_one_block(spec, c_values):
    """Every class pair of four overlapping 2-D clusters x `c_values` as one
    members block over the kernel matrix of all 40 samples."""
    rng = np.random.default_rng(11)
    X = np.vstack([rng.normal(size=(10, 2)) + 0.8 * c for c in range(4)])
    classes = np.repeat(np.arange(4), 10)
    gram = gram_matrix(spec, X)
    members = np.zeros((6 * len(c_values), 20), dtype=np.intp)
    Y = np.zeros(members.shape)
    subsets = []
    for p, (a, b) in enumerate((a, b) for a in range(4) for b in range(a + 1, 4)):
        rows = np.flatnonzero((classes == a) | (classes == b))
        for k in range(len(c_values)):
            members[p * len(c_values) + k] = rows
            Y[p * len(c_values) + k] = np.where(classes[rows] == a, 1.0, -1.0)
            subsets.append(rows)
    return X, gram, members, Y, subsets, c_values * 6


def test_member_block_max_iter_fails_only_the_slow_pairs():
    spec = KernelSpec(kind="rbf", gamma=0.8)
    X, gram, members, Y, subsets, C_all = one_vs_one_block(spec, [0.5, 100.0])
    full = [s.iterations for s in solve_smo(gram, Y, C_all, members=members)]
    max_iter = sorted(full)[len(full) // 2]
    solutions = solve_smo(gram, Y, C_all, max_iter=max_iter, members=members)
    failed = [not s.converged for s in solutions]
    assert any(failed) and not all(failed)
    for rows, y, C, solution in zip(subsets, Y, C_all, solutions):
        assert_same_as_scalar_loop(
            solution, X[rows], y, spec, C, gram[np.ix_(rows, rows)], max_iter
        )


@pytest.mark.parametrize(
    "case", ["members-not-labels-shape", "member-past-last-row", "negative-member",
             "fractional-members", "gram-not-square", "gram-not-square-without-members"],
)
def test_solver_checks_members_and_matrix_shape(case):
    _, gram, members, Y, _ = member_block(4, 8, False, LINEAR, [0, 3])
    bad = {
        "members-not-labels-shape": (gram, Y, members[:, :-1]),
        "member-past-last-row": (gram, Y, np.where(members == 7, 8, members)),
        "negative-member": (gram, Y, members - 1),
        "fractional-members": (gram, Y, members + 0.5),
        "gram-not-square": (gram[:, :-1], Y, members),
        "gram-not-square-without-members": (gram[:, :-1], np.where(Y == 0, 1.0, Y), None),
    }[case]
    with pytest.raises(DimensionMismatchError):
        solve_smo(*bad[:2], [1.0, 1.0], members=bad[2])


def test_solver_rejects_bad_c_and_tol():
    X, Y, gram = block_problem(4, 6, False, LINEAR, 2)
    with pytest.raises(InvalidConfigError):
        solve_smo(gram, Y, [1.0, 0.0])
    with pytest.raises(InvalidConfigError):
        solve_smo(gram, Y, [1.0, 1.0], tol=0.0)


def test_separable_margin_matches_analytic():
    # two parallel point clusters at distance 4 -> margin 4, w = (0.5, 0)
    X = np.array([[0.0, 0.0], [0.0, 1.0], [4.0, 0.0], [4.0, 1.0]])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    model = train_binary(X, y, LINEAR, C=1e3, tol=1e-6)
    w = model.dual_coeffs @ model.support_vectors
    assert 2.0 / np.linalg.norm(w) == pytest.approx(4.0, abs=1e-3)


def test_dual_objective_meets_oracle_small_instances():
    rng = np.random.default_rng(5)
    for trial in range(8):
        n = int(rng.integers(4, 7))
        X, y = random_problem(rng, n)
        spec = LINEAR if trial % 2 == 0 else KernelSpec(kind="rbf", gamma=1.0)
        C = 1.0 if trial % 4 < 2 else 10.0
        model = train_binary(X, y, spec, C=C, tol=1e-4)
        alpha = recover_alpha(model, X, y)
        ours = dual_objective(alpha, y, kernel_matrix(spec, X))
        assert ours >= oracle_best_dual(X, y, spec, C) - 1e-4


def test_prediction_invariant_under_permutation():
    rng = np.random.default_rng(6)
    X, y = random_problem(rng, 20, gap=1.0)
    model_a = train_binary(X, y, KernelSpec(kind="rbf", gamma=0.5), C=10.0)
    perm = rng.permutation(len(y))
    model_b = train_binary(X[perm], y[perm], KernelSpec(kind="rbf", gamma=0.5), C=10.0)
    probes = rng.normal(size=(50, 2))
    assert np.array_equal(
        decision_values(model_a, probes) >= 0.0, decision_values(model_b, probes) >= 0.0
    )


def test_training_deterministic():
    rng = np.random.default_rng(7)
    X, y = random_problem(rng, 18)
    m1 = train_binary(X, y, KernelSpec(kind="rbf", gamma=0.4), C=3.0)
    m2 = train_binary(X, y, KernelSpec(kind="rbf", gamma=0.4), C=3.0)
    assert np.array_equal(m1.dual_coeffs, m2.dual_coeffs)
    assert m1.bias == m2.bias


# --- kernel matrix ------------------------------------------------------------------------

@pytest.mark.parametrize("spec", ALL_KERNELS, ids=lambda k: k.kind)
def test_gram_matrix_is_symmetric_and_matches_rows(spec):
    for n in (17, 64, 150):  # below, at and not a multiple of the 64-row band
        X = np.random.default_rng(8).normal(size=(n, 3))
        gram = gram_matrix(spec, X)
        assert np.array_equal(gram, gram.T)
        if spec.kind == "rbf":
            assert np.all(np.diagonal(gram) == 1.0)
        np.testing.assert_allclose(gram, kernel_matrix(spec, X), rtol=1e-12)


def test_gram_matrix_temporaries_scale_with_a_band():
    """The `tracemalloc` peak of a 2,000-row RBF matrix stays within the
    matrix itself (32 MB) plus 8 MB.

    Each band holds at most three (64, n) float64 temporaries at once (the
    dot products, the squared distances and twice the dot products being
    subtracted): 3 x 64 x 2,000 x 8 bytes, about 3.1 MB. A whole-matrix
    `kernel_against` call would hold about three n x n temporaries, 96 MB
    more.
    """
    X = np.random.default_rng(9).normal(size=(2000, 68))
    tracemalloc.start()
    try:
        gram = gram_matrix(KernelSpec(kind="rbf", gamma=0.01), X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < gram.nbytes + (8 << 20)


def test_gram_budget_refuses_before_allocating():
    X = np.zeros((11_586, 1))  # 11,586^2 * 8 bytes is just over 1 GiB
    tracemalloc.start()
    try:
        with pytest.raises(InvalidConfigError):
            gram_matrix(LINEAR, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_train_rejects_gram_of_wrong_shape():
    with pytest.raises(DimensionMismatchError):
        train_binary(XOR_X, XOR_Y, LINEAR, C=1.0, gram=np.eye(3))


def test_predict_sign_rule():
    # as one class pair, f = 0 votes for the first class, the +1 side
    model, _, _ = two_point_model()
    column = (np.arange(len(model.dual_coeffs)), model.dual_coeffs, model.bias, model.C, 0, 0.0)
    pair = MulticlassModel.from_columns(
        "ovo", ["+1", "-1"], model.kernel, model.support_vectors, [column],
        MinMaxScaling(np.zeros(2), np.ones(2)),
    )
    probes = [[2.0, 0.0], [0.0, 0.0], [1.0, 0.0]]  # f = +1, -1, 0
    assert predict_batch(pair, probes) == ["+1", "-1", "+1"]
