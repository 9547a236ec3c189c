"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

from oracles import (
    dual_objective,
    fold_scalings,
    kernel_matrix,
    max_kkt_violation,
    oracle_best_dual,
    random_blob,
    recover_alpha,
    reference_otsu_threshold,
)

from glyphsvm import svm
from glyphsvm.data import load_dataset
from glyphsvm.errors import BadMagicError, CorruptBlockError
from glyphsvm.features import FeatureConfig, local_zone_features, skeleton_topology
from glyphsvm.model_io import load_model, save_model
from glyphsvm.modelsel import (
    Dataset,
    cross_validate,
    grid_search,
    kfold_split,
    repeat_evaluate,
    split_train_test,
)
from glyphsvm.multiclass import (
    predict,
    predict_batch,
    train_one_vs_all,
    train_one_vs_one,
)
from glyphsvm.preprocess import (
    deskew,
    detect_skew,
    label_components,
    otsu_binarize,
    thin,
)
from glyphsvm.svm import KernelSpec, decision_value, train_binary
from glyphsvm.synth import SynthConfig, generate_synthetic_dataset

LINEAR = KernelSpec(kind="linear")


def report(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:>2}: {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# --- 1. dual-solver oracle equivalence ----------------------------------------

def test_criterion_01_dual_oracle(monkeypatch):
    rng = np.random.default_rng(101)
    monkeypatch.setattr(svm, "DEFAULT_TOL", 1e-3)
    solve_s = 0.0  # only the solver is timed: the oracle's grid search is most of the test
    worst_gap = -np.inf
    worst_kkt = 0.0
    for trial in range(20):
        n = 4 + trial % 5  # dataset sizes 4..8
        X = rng.normal(size=(n, 2))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if np.all(y == y[0]):
            y[0] = -y[0]
        spec = LINEAR if trial % 2 == 0 else KernelSpec(kind="rbf", gamma=1.0)
        C = 1.0 if trial % 4 < 2 else 10.0
        started = time.monotonic()
        model = train_binary(X, y, spec, C=C)
        solve_s += time.monotonic() - started
        alpha = recover_alpha(model, X, y)
        ours = dual_objective(alpha, y, kernel_matrix(spec, X))
        worst_gap = max(worst_gap, oracle_best_dual(X, y, spec, C) - ours)
        worst_kkt = max(worst_kkt, max_kkt_violation(model, X, y, C))
    ok = worst_gap <= 1e-4 and worst_kkt <= 1e-3 and solve_s < 10.0
    report(
        1,
        "dual objective within 1e-4 of grid+polish oracle, KKT within 1e-3",
        ok,
        f"gap {worst_gap:.2e}, kkt {worst_kkt:.2e}, solver {solve_s:.2f}s",
    )


# --- 2. analytic margin ---------------------------------------------------------

def test_criterion_02_analytic_margin():
    X = np.array([[0.0, 0.0], [2.0, 0.0]])
    y = np.array([-1.0, 1.0])
    model = train_binary(X, y, LINEAR, C=100.0)
    w = model.dual_coeffs @ model.support_vectors
    margin = 2.0 / np.linalg.norm(w)
    ok = abs(model.bias + 1.0) <= 1e-3 and abs(margin - 2.0) <= 1e-3
    report(2, "two-point problem recovers b = -1 and margin 2/||w|| = 2",
           ok, f"b {model.bias:.6f}, margin {margin:.6f}")


# --- 3. Otsu exhaustive oracle -----------------------------------------------------

def test_criterion_03_otsu_oracle():
    rng = np.random.default_rng(103)
    checked = mismatches = 0
    while checked < 100:
        img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        if len(np.unique(img)) < 2:
            continue
        checked += 1
        t, _ = otsu_binarize(img)
        if t != reference_otsu_threshold(img):
            mismatches += 1
    report(3, "Otsu threshold equals exhaustive argmax on 100 random images",
           mismatches == 0, f"{checked} images, {mismatches} mismatches")


# --- 4. thinning properties --------------------------------------------------------

def test_criterion_04_thinning_properties():
    rng = np.random.default_rng(104)
    failures = []
    for i in range(50):
        img = random_blob(rng, 140)
        skel = thin(img[None])[0]
        if np.any(skel & ~img):
            failures.append((i, "escapes foreground"))
        if not np.array_equal(thin(skel[None])[0], skel):
            failures.append((i, "not idempotent"))
        if label_components(img)[1] != label_components(skel)[1]:
            failures.append((i, "component count changed"))
    report(4, "thin is idempotent, subset, component-preserving on 50 blobs",
           not failures, f"failures: {failures!r}" if failures else "50/50 clean")


# --- 5. feature arithmetic -----------------------------------------------------------

def test_criterion_05_feature_arithmetic():
    lengths_ok = all(
        FeatureConfig(cell_px=cell).total_count == total
        for cell, total in [(16, 8), (8, 20), (4, 68), (2, 260)]
    )
    rng = np.random.default_rng(105)
    partition_ok = True
    for _ in range(100):
        skel = thin((rng.random((32, 32)) < rng.uniform(0.1, 0.5))[None])
        for cell in (16, 8, 4, 2):
            if local_zone_features(skel, FeatureConfig(cell_px=cell)).sum() != skel.sum():
                partition_ok = False
    report(5, "vector lengths 8/20/68/260 and zone sums equal pixel counts",
           lengths_ok and partition_ok)


# --- 6. topology counts -----------------------------------------------------------------

def crossing_oracle(img):
    order = [(-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1)]
    ep = bp = cp = 0
    for r, c in zip(*np.nonzero(img)):
        vals = []
        for dr, dc in order:
            rr, cc = r + dr, c + dc
            inside = 0 <= rr < img.shape[0] and 0 <= cc < img.shape[1]
            vals.append(1 if inside and img[rr, cc] else 0)
        t = sum(1 for i in range(8) if vals[i] == 0 and vals[(i + 1) % 8] == 1)
        if t == 1:
            ep += 1
        elif t == 3:
            bp += 1
        elif t >= 4:
            cp += 1
    return ep, bp, cp


def test_criterion_06_topology_counts():
    canvas = lambda: np.zeros((32, 32), dtype=bool)
    line = canvas(); line[16, 5:15] = True
    plus = canvas(); plus[16, 13:20] = True; plus[13:20, 16] = True
    tee = canvas(); tee[10, 13:20] = True; tee[11:15, 16] = True
    shapes_ok = skeleton_topology(np.stack([line, plus, tee])).tolist() == [
        [2, 0, 0], [4, 0, 1], [3, 1, 0]
    ]
    rng = np.random.default_rng(106)
    oracle_ok = True
    for _ in range(50):
        img = canvas()
        r, c = rng.integers(8, 24, 2)
        img[r, c] = True
        for _ in range(60):
            dr, dc = rng.integers(-1, 2, 2)
            r = int(np.clip(r + dr, 1, 30))
            c = int(np.clip(c + dc, 1, 30))
            img[r, c] = True
        curve = thin(img[None])
        if tuple(skeleton_topology(curve)[0]) != crossing_oracle(curve[0]):
            oracle_ok = False
    report(6, "line/plus/T triples and 50 random curves match the crossing oracle",
           shapes_ok and oracle_ok)


# --- 7. multiclass counts and N=2 equivalence ----------------------------------------------

def clusters(rng, n_classes, per_class):
    vectors, labels = [], []
    for c in range(n_classes):
        angle = 2 * np.pi * c / n_classes
        center = np.array([3 * np.cos(angle), 3 * np.sin(angle)])
        vectors.append(center + 0.3 * rng.normal(size=(per_class, 2)))
        labels.extend([c] * per_class)
    return np.vstack(vectors), labels


def test_criterion_07_multiclass_counts_and_equivalence():
    rng = np.random.default_rng(107)
    counts_ok = True
    for n in range(2, 11):
        X, labels = clusters(rng, n, 5)
        if len(train_one_vs_all(X, labels, LINEAR, 10.0).classifiers) != n:
            counts_ok = False
        if len(train_one_vs_one(X, labels, LINEAR, 10.0).classifiers) != n * (n - 1) // 2:
            counts_ok = False

    X, labels = clusters(rng, 2, 10)
    spec = KernelSpec(kind="rbf", gamma=0.5)
    ova = train_one_vs_all(X, labels, spec, 10.0)
    ovo = train_one_vs_one(X, labels, spec, 10.0)
    scaled = ova.scaling.transform(X)
    y = np.array([1.0 if lb == 0 else -1.0 for lb in labels])
    direct = train_binary(scaled, y, spec, 10.0)
    probes = rng.normal(size=(200, 2)) * 2
    direct_labels = [
        0 if decision_value(direct, x) >= 0.0 else 1 for x in ova.scaling.transform(probes)
    ]
    equiv_ok = predict_batch(ova, probes) == predict_batch(ovo, probes) == direct_labels
    report(7, "ova N / ovo N(N-1)/2 classifier counts; N=2 paths agree on 200 probes",
           counts_ok and equiv_ok)


# --- 8. skew roundtrip -----------------------------------------------------------------------

def test_criterion_08_skew_roundtrip():
    page = np.zeros((180, 260), dtype=bool)
    for top in (25, 60, 95, 130):
        page[top : top + 10, 30:230] = True
    page[25:35, 170:230] = False
    page[95:105, 30:80] = False
    errors = {}
    for theta in (-12.0, -5.0, 0.0, 5.0, 12.0):
        rotated = deskew(page, -theta) if theta else page
        errors[theta] = abs(detect_skew(rotated) - theta)
    ok = all(err <= 0.5 for err in errors.values())
    report(8, "skew detected within 0.5 degrees for -12/-5/0/5/12",
           ok, ", ".join(f"{t:+.0f}: {e:.2f}" for t, e in errors.items()))


# --- 9. CV hygiene ------------------------------------------------------------------------------

def test_criterion_09_cv_hygiene():
    rng = np.random.default_rng(109)
    vectors, labels = clusters(rng, 2, 15)
    data = Dataset(vectors, labels)
    _, scalings = fold_scalings(cross_validate, data, LINEAR, 10.0, k=5, seed=2)
    folds = kfold_split(len(data), 5, seed=2)
    leakage_ok = True
    for fold_idx, fold in enumerate(folds):
        perturbed = Dataset(data.vectors.copy(), list(data.labels))
        perturbed.vectors[fold[0]] += 1e6
        _, scalings_p = fold_scalings(cross_validate, perturbed, LINEAR, 10.0, k=5, seed=2)
        if not (
            np.array_equal(scalings[fold_idx].mins, scalings_p[fold_idx].mins)
            and np.array_equal(scalings[fold_idx].maxs, scalings_p[fold_idx].maxs)
        ):
            leakage_ok = False

    grid = grid_search(data, "rbf", c_grid=[0.5, 2.0, 8.0],
                       param_grid=[4.0, 0.25], k=5, seed=1)
    accs = [e.accuracy for e in grid.entries]
    argmax_ok = grid.best is grid.entries[accs.index(max(accs))]
    report(9, "held-out perturbations never touch fold scaling; best = scan-order argmax",
           leakage_ok and argmax_ok)


# --- 10. end-to-end synthetic benchmark ------------------------------------------------------------

def test_criterion_10_end_to_end_benchmark(tmp_path):
    started = time.monotonic()
    config = SynthConfig(classes=10, per_class=100, seed=29)
    generate_synthetic_dataset(config, tmp_path)
    data = load_dataset(tmp_path, config=FeatureConfig(cell_px=4))
    assert data.dimension == 68

    train_part, _ = split_train_test(data, 0.8, seed=1)
    grid = grid_search(
        train_part,
        "rbf",
        c_grid=[2.0 ** p for p in (0, 2, 4, 6, 8)],
        param_grid=[2.0 ** p for p in (1, -1, -3, -5, -7)],
        strategy="ova",
        k=5,
        seed=3,
    )
    best_spec = KernelSpec(kind="rbf", gamma=grid.best.param)
    rep = repeat_evaluate(
        data, best_spec, grid.best.C,
        strategy="ova", train_fraction=0.8, repetitions=5, seed=11,
    )
    elapsed = time.monotonic() - started
    mean_acc = rep.mean_iteration_accuracy
    ok = mean_acc >= 0.90 and elapsed < 300.0
    report(10, "10-class synthetic benchmark: mean accuracy >= 0.90 in < 5 min",
           ok, f"mean {mean_acc:.4f}, best cell C={grid.best.C:g} gamma={grid.best.param:g}, "
               f"{elapsed:.0f}s")


# --- 11. persistence ----------------------------------------------------------------------------------

def test_criterion_11_persistence(tmp_path):
    rng = np.random.default_rng(111)
    X, labels = clusters(rng, 3, 10)
    model = train_one_vs_all(X, labels, KernelSpec(kind="rbf", gamma=0.5), 10.0)
    path = tmp_path / "model.gsvm"
    save_model(model, path)
    loaded = load_model(path)
    probes = rng.normal(size=(100, 2)) * 2
    exact_ok = all(
        decision_value(lc, loaded.scaling.transform(p))
        == decision_value(mc, model.scaling.transform(p))
        for p in probes
        for lc, mc in zip(loaded.classifiers, model.classifiers)
    ) and all(predict(loaded, p) == predict(model, p) for p in probes)

    bad_magic = tmp_path / "bad.gsvm"
    bad_magic.write_text("XXXX\nversion 1\n")
    with pytest.raises(BadMagicError):
        load_model(bad_magic)
    truncated = tmp_path / "trunc.gsvm"
    lines = path.read_text().splitlines()
    truncated.write_text("\n".join(lines[: len(lines) // 2]))
    with pytest.raises(CorruptBlockError):
        load_model(truncated)
    report(11, "save/load reproduces decisions exactly; corrupt files rejected",
           exact_ok, "100 probes bit-identical")
