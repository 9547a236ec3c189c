import dataclasses
import pickle

import numpy as np
import pytest

from glyphsvm import errors
from glyphsvm.errors import GlyphSvmError, NoConvergenceError
from glyphsvm.features import FeatureVector
from glyphsvm.multiclass import train_multiclass
from glyphsvm.pgm import check_gray
from glyphsvm.preprocess import Glyphs
from glyphsvm.svm import KernelSpec, train_binary

CATEGORIES = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, GlyphSvmError)
]


def round_trip(error):
    return pickle.loads(pickle.dumps(error, pickle.HIGHEST_PROTOCOL))


@pytest.mark.parametrize("cls", CATEGORIES, ids=lambda cls: cls.__name__)
def test_every_category_pickles_whole(cls):
    error = cls("what went wrong")
    error.detail = 7
    back = round_trip(error)
    assert type(back) is cls
    assert (back.args, str(back), back.category) == (error.args, str(error), cls.category)
    assert back.__dict__ == error.__dict__
    assert back.__cause__ is None


def test_a_chained_no_convergence_pickles_with_its_cause():
    try:
        try:
            raise NoConvergenceError("pair 0 vs 1", iterations=100, violation=0.5, context="0/1")
        except NoConvergenceError as inner:
            raise NoConvergenceError("fold 2", iterations=100, context="fold") from inner
    except NoConvergenceError as outer:
        error = outer
    back = round_trip(error)
    assert (str(back), back.iterations, back.violation, back.context) == (
        "fold 2", 100, None, "fold"
    )
    cause = back.__cause__
    assert type(cause) is NoConvergenceError
    assert (str(cause), cause.iterations, cause.violation, cause.context) == (
        "pair 0 vs 1", 100, 0.5, "0/1"
    )
    assert back.__suppress_context__


def bad_classifier_count():
    rng = np.random.default_rng(3)
    model = train_multiclass(
        rng.normal(size=(9, 2)) + np.repeat([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]], 3, axis=0),
        [0, 0, 0, 1, 1, 1, 2, 2, 2], "ova", KernelSpec(kind="linear"), 1.0,
    )
    dataclasses.replace(model, coeffs=model.coeffs[:, :2]).validate()


def one_glyph(box):
    """The one-glyph batch of `box` over a 1x1 crop and blank stacks."""
    stack = np.zeros((1, 32, 32), dtype=bool)
    return Glyphs(np.array([box], dtype=np.int64), [np.ones((1, 1), bool)], stack, stack)


@pytest.mark.parametrize(
    "call",
    [
        lambda: train_binary(np.zeros(4), [1, -1, 1, -1], KernelSpec(kind="linear"), 1.0),
        lambda: train_binary(np.eye(2), [1, 2], KernelSpec(kind="linear"), 1.0),
        lambda: FeatureVector(np.zeros(3)),
        lambda: one_glyph([0, 0, 0, 3]),
        lambda: one_glyph([0, 0, 3, 0]),
        bad_classifier_count,
        lambda: check_gray(np.array([[0.0, 300.0]])),
    ],
    ids=["samples-1d", "labels-not-pm1", "feature-length", "box-width", "box-height",
         "classifier-count", "gray-range"],
)
def test_bad_values_are_the_packages_invalid_config(call):
    with pytest.raises(GlyphSvmError) as excinfo:
        call()
    assert excinfo.value.category == "InvalidConfig"
    assert isinstance(excinfo.value, ValueError)
