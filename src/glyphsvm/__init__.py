"""Handwritten character recognition: preprocessing, zoning + topology
features, and a from-scratch kernel SVM with multiclass strategies and
cross-validated model selection."""

from .errors import GlyphSvmError
from .features import FeatureConfig, FeatureVector, extract_features
from .model_io import load_model, save_model
from .modelsel import (
    Dataset,
    EvalReport,
    GridSearchReport,
    cross_validate,
    evaluate,
    grid_search,
    kfold_split,
    repeat_evaluate,
    split_train_test,
)
from .multiclass import (
    MinMaxScaling,
    MulticlassModel,
    predict,
    train_multiclass,
    train_one_vs_all,
    train_one_vs_one,
)
from .preprocess import (
    BoundingBox,
    CharacterRecord,
    deskew,
    detect_skew,
    median_filter,
    normalize_size,
    otsu_binarize,
    preprocess_character,
    preprocess_page,
    segment_characters,
    segment_lines,
    thin,
)
from .svm import (
    BinaryModel,
    KernelSpec,
    decision_value,
    train_binary,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryModel",
    "BoundingBox",
    "CharacterRecord",
    "Dataset",
    "EvalReport",
    "FeatureConfig",
    "FeatureVector",
    "GlyphSvmError",
    "GridSearchReport",
    "KernelSpec",
    "MinMaxScaling",
    "MulticlassModel",
    "cross_validate",
    "decision_value",
    "deskew",
    "detect_skew",
    "evaluate",
    "extract_features",
    "grid_search",
    "kfold_split",
    "load_model",
    "median_filter",
    "normalize_size",
    "otsu_binarize",
    "predict",
    "preprocess_character",
    "preprocess_page",
    "repeat_evaluate",
    "save_model",
    "segment_characters",
    "segment_lines",
    "split_train_test",
    "thin",
    "train_binary",
    "train_multiclass",
    "train_one_vs_all",
    "train_one_vs_one",
]
