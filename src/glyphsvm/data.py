"""Dataset ingestion: labeled image directories or feature CSV files."""

from __future__ import annotations

import os

import numpy as np

from .errors import (
    EmptyClassError,
    EmptyCropError,
    UniformImageError,
    UnreadableFileError,
)
from .features import FeatureConfig, extract_features, read_features_csv
from .modelsel import Dataset
from .multiclass import class_sort_key
from .pgm import read_pgm
from .preprocess import preprocess_character


def load_image_dataset(root, config: FeatureConfig | None = None) -> Dataset:
    """Build a Dataset from `<root>/<class_label>/*.pgm`.

    Each file holds one pre-segmented character and runs through the full
    single-glyph pipeline (median filter, Otsu, speck removal, normalize,
    thin, features). Class labels are the directory names.
    """
    config = config or FeatureConfig()
    root = str(root)
    try:
        entries = sorted(
            (e for e in os.listdir(root) if os.path.isdir(os.path.join(root, e))),
            key=class_sort_key,
        )
    except OSError as exc:
        raise UnreadableFileError(f"{root}: {exc}") from exc
    if not entries:
        raise EmptyClassError(f"{root}: no class directories")

    vectors = []
    labels = []
    for label in entries:
        class_dir = os.path.join(root, label)
        files = sorted(f for f in os.listdir(class_dir) if f.lower().endswith(".pgm"))
        if not files:
            raise EmptyClassError(f"{class_dir}: no .pgm files")
        for name in files:
            path = os.path.join(class_dir, name)
            gray = read_pgm(path)
            try:
                record = preprocess_character(gray)
            except (EmptyCropError, UniformImageError) as exc:
                raise UnreadableFileError(f"{path}: {exc}") from exc
            vectors.append(extract_features(record, config).values)
            labels.append(label)
    return Dataset(np.array(vectors), labels)


def load_csv_dataset(path) -> Dataset:
    labels, matrix, _config = read_features_csv(path)
    return Dataset(matrix, labels)


def load_dataset(path, config: FeatureConfig | None = None) -> Dataset:
    """Load an image directory (`load_image_dataset`) or, when `path` is not
    a directory, a feature CSV (`load_csv_dataset`)."""
    if os.path.isdir(str(path)):
        return load_image_dataset(path, config)
    return load_csv_dataset(path)
