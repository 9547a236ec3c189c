"""Handwritten character recognition: preprocessing, zoning + topology
features, and a from-scratch kernel SVM with multiclass strategies and
cross-validated model selection."""

from .data import load_dataset
from .errors import GlyphSvmError
from .features import FeatureConfig, FeatureVector, extract_features, feature_rows
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
    predict_batch,
    train_multiclass,
    train_one_vs_all,
    train_one_vs_one,
)
from .preprocess import (
    Glyphs,
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
    "Dataset",
    "EvalReport",
    "FeatureConfig",
    "FeatureVector",
    "GlyphSvmError",
    "Glyphs",
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
    "feature_rows",
    "grid_search",
    "kfold_split",
    "load_dataset",
    "load_model",
    "median_filter",
    "normalize_size",
    "otsu_binarize",
    "predict",
    "predict_batch",
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
