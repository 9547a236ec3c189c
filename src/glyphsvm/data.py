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
from .preprocess import _THIN_BATCH, CharacterRecord, crop_character, finish_records


def load_image_dataset(root, config: FeatureConfig | None = None) -> Dataset:
    """Build a Dataset from `<root>/<class_label>/*.pgm`.

    Each file holds one pre-segmented character. Every class directory is
    listed before any file is read. Files are cleaned and cropped one at a
    time (median filter, Otsu, speck removal, tight box), so an error names
    its file; each batch of `_THIN_BATCH` glyphs is then normalized with one
    call, thinned as one stack and reduced to features. Class labels are the
    directory names.
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

    files = []
    for label in entries:
        class_dir = os.path.join(root, label)
        names = sorted(f for f in os.listdir(class_dir) if f.lower().endswith(".pgm"))
        if not names:
            raise EmptyClassError(f"{class_dir}: no .pgm files")
        files += [(label, os.path.join(class_dir, name)) for name in names]
    vectors = []
    for start in range(0, len(files), _THIN_BATCH):
        records = [_cropped_glyph(path) for _, path in files[start : start + _THIN_BATCH]]
        vectors += [extract_features(record, config).values for record in finish_records(records)]
    return Dataset(np.array(vectors), [label for label, _ in files])


def _cropped_glyph(path) -> CharacterRecord:
    gray = read_pgm(path)
    try:
        return crop_character(gray)
    except (EmptyCropError, UniformImageError) as exc:
        raise UnreadableFileError(f"{path}: {exc}") from exc


def load_csv_dataset(path) -> Dataset:
    labels, matrix, _config = read_features_csv(path)
    return Dataset(matrix, labels)


def load_dataset(path, config: FeatureConfig | None = None) -> Dataset:
    """Load an image directory (`load_image_dataset`) or, when `path` is not
    a directory, a feature CSV (`load_csv_dataset`)."""
    if os.path.isdir(str(path)):
        return load_image_dataset(path, config)
    return load_csv_dataset(path)
