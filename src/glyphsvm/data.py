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
from .features import FeatureConfig, feature_rows, read_features_csv
from .modelsel import Dataset
from .multiclass import class_sort_key
from .pgm import read_pgm
from .preprocess import (
    _THIN_BATCH,
    CharacterRecord,
    crop_characters,
    finish_records,
)


def load_image_dataset(root, config: FeatureConfig | None = None) -> Dataset:
    """Build a Dataset from `<root>/<class_label>/*.pgm`.

    Each file holds one pre-segmented character. Every class directory is
    listed before any file is read. Files are then taken `_THIN_BATCH` at a
    time: a batch is read in order, its same-shaped images are cleaned and
    cropped as one stack each (median filter, Otsu, speck removal, tight
    box), and its glyphs are normalized with one call, thinned as one stack
    and reduced to feature rows with one call. The first file in load order
    that cannot be read or cropped is UnreadableFileError naming it. Class
    labels are the directory names.
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
        paths = [path for _, path in files[start : start + _THIN_BATCH]]
        vectors.append(feature_rows(finish_records(_cropped_glyphs(paths)), config))
    return Dataset(np.concatenate(vectors), [label for label, _ in files])


def _cropped_glyphs(paths) -> list[CharacterRecord]:
    """The cropped glyph of each file of `paths`, in order, with one
    `crop_characters` call per image shape. The files are read up to the
    first that cannot be; if an image read before it fails to crop, the
    first such file is named instead, as if the files were taken one at a
    time."""
    grays, unread = [], None
    for path in paths:
        try:
            grays.append(read_pgm(path))
        except UnreadableFileError as exc:
            unread = exc
            break
    by_shape: dict[tuple[int, int], list[int]] = {}
    for index, gray in enumerate(grays):
        by_shape.setdefault(gray.shape, []).append(index)
    records = [None] * len(grays)
    try:
        for indices in by_shape.values():
            cropped = crop_characters(np.stack([grays[index] for index in indices]))
            for index, record in zip(indices, cropped):
                records[index] = record
    except (EmptyCropError, UniformImageError):
        for path, gray in zip(paths, grays):  # the first failing image names its file
            try:
                crop_characters(gray[None])
            except (EmptyCropError, UniformImageError) as exc:
                raise UnreadableFileError(f"{path}: {exc}") from exc
        raise
    if unread is not None:
        raise unread
    return records


def load_csv_dataset(path) -> Dataset:
    labels, matrix, _config = read_features_csv(path)
    return Dataset(matrix, labels)


def load_dataset(path, config: FeatureConfig | None = None) -> Dataset:
    """Load an image directory (`load_image_dataset`) or, when `path` is not
    a directory, a feature CSV (`load_csv_dataset`)."""
    if os.path.isdir(str(path)):
        return load_image_dataset(path, config)
    return load_csv_dataset(path)
