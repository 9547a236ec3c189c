"""Zoning and topological feature extraction from thinned 32x32 characters."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError, MixedDimensionsError, UnreadableFileError, WrongDimensionsError
)
from .fileio import format_float, write_atomic
from .preprocess import (
    NORMALIZED_SIZE, TRANSITIONS, BoundingBox, CharacterRecord, window_codes
)

VALID_CELL_SIZES = (16, 8, 4, 2)
GLOBAL_FEATURE_COUNT = 4


@dataclass(frozen=True)
class FeatureConfig:
    """Zoning grid: square cells of `cell_px` pixels tiling the 32x32 image.

    Cell sizes 16/8/4/2 give 4/16/64/256 local features.
    """

    cell_px: int = 4

    def __post_init__(self):
        if self.cell_px not in VALID_CELL_SIZES:
            raise ValueError(f"cell_px must be one of {VALID_CELL_SIZES}")

    @property
    def cells_per_side(self) -> int:
        return NORMALIZED_SIZE // self.cell_px

    @property
    def local_count(self) -> int:
        return self.cells_per_side ** 2

    @property
    def total_count(self) -> int:
        return self.local_count + GLOBAL_FEATURE_COUNT


@dataclass
class FeatureVector:
    """Ordered features: zone counts row-major, then w/h ratio, endpoints,
    cross points, branch points."""

    values: np.ndarray
    config: FeatureConfig = field(default_factory=FeatureConfig)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.config.total_count,):
            raise ValueError(
                f"expected {self.config.total_count} features, got {self.values.shape}"
            )


def _check_skeleton(skeleton: np.ndarray) -> np.ndarray:
    skeleton = np.asarray(skeleton, dtype=bool)
    n = NORMALIZED_SIZE
    if skeleton.shape != (n, n):
        raise WrongDimensionsError(f"expected {n}x{n} skeleton, got {skeleton.shape}")
    return skeleton


def local_zone_features(skeleton: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """Foreground pixel count per grid cell, cells ordered row-major."""
    skeleton = _check_skeleton(skeleton)
    g = config.cells_per_side
    c = config.cell_px
    grid = skeleton.reshape(g, c, g, c).sum(axis=(1, 3))
    return grid.ravel().astype(np.int64)


def aspect_ratio(bbox: BoundingBox) -> float:
    """Width over height of the original segmented box."""
    return bbox.width / bbox.height


def crossing_number(skeleton: np.ndarray) -> np.ndarray:
    """Rutovitz crossing number per pixel: 0-to-1 transitions around the
    circular 8-neighborhood. Background pixels get 0."""
    skeleton = np.asarray(skeleton, dtype=bool)
    return TRANSITIONS.take(window_codes(skeleton))


def skeleton_topology(skeleton: np.ndarray) -> tuple[int, int, int]:
    """Counts of (endpoints, branch points, cross points) of a thin image.

    A foreground pixel is an endpoint at crossing number 1, a branch point
    at 3, and a cross point at 4 or more.
    """
    counts = np.bincount(crossing_number(_check_skeleton(skeleton)).ravel(), minlength=5)
    return int(counts[1]), int(counts[3]), int(counts[4:].sum())


def extract_features(record: CharacterRecord, config: FeatureConfig) -> FeatureVector:
    """Assemble the full vector: zones, then w/h, endpoints, crosses, branches."""
    local = local_zone_features(record.skeleton, config)
    endpoints, branch_points, cross_points = skeleton_topology(record.skeleton)
    values = np.concatenate(
        [
            local.astype(np.float64),
            [aspect_ratio(record.bbox), endpoints, cross_points, branch_points],
        ]
    )
    return FeatureVector(values=values, config=config)


# --- CSV interchange --------------------------------------------------------

def csv_header(config: FeatureConfig) -> str:
    names = [f"v{k}" for k in range(1, config.local_count + 1)]
    return ",".join(["label"] + names + ["whr", "ep", "cp", "bp"])


def write_features_csv(path, labels, vectors, config: FeatureConfig) -> None:
    """One row per character: label, then the feature values in vector order.
    A vector whose length is not `config.total_count` is
    DimensionMismatchError; the file is replaced atomically."""
    lines = [csv_header(config)]
    for label, vec in zip(labels, vectors):
        if len(vec) != config.total_count:
            raise DimensionMismatchError(
                f"{path}: a row has {len(vec)} features, the header {config.total_count}"
            )
        lines.append(",".join([str(label)] + [format_float(v) for v in vec]))
    write_atomic(path, "\n".join(lines) + "\n")


def read_features_csv(path):
    """Parse a feature CSV into (labels, matrix, config)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise UnreadableFileError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UnreadableFileError(f"{path}: not UTF-8 text: {exc}") from None
    if not lines:
        raise UnreadableFileError(f"{path}: empty CSV")
    header = lines[0].split(",")
    if not header or header[0] != "label":
        raise UnreadableFileError(f"{path}: missing 'label' header column")
    width = len(header)
    config = config_for_dimension(width - 1, path)
    labels = []
    rows = []
    for row, ln in enumerate(lines[1:], start=1):
        parts = ln.split(",")
        if len(parts) != width:
            raise MixedDimensionsError(
                f"{path}: row has {len(parts)} columns, header has {width}"
            )
        if not parts[0].strip():
            raise UnreadableFileError(f"{path}: data row {row} has an empty label")
        labels.append(parts[0])
        try:
            rows.append([float(p) for p in parts[1:]])
        except ValueError:
            raise UnreadableFileError(f"{path}: non-numeric feature value") from None
    if not rows:
        raise UnreadableFileError(f"{path}: no data rows")
    matrix = np.array(rows, dtype=np.float64)
    if not np.isfinite(matrix).all():
        raise UnreadableFileError(f"{path}: non-finite feature value")
    return labels, matrix, config


def config_for_dimension(dimension: int, path) -> FeatureConfig:
    """The zoning grid whose feature vectors have `dimension` values; `path`
    names the source in the error raised when no grid matches."""
    for cell in VALID_CELL_SIZES:
        cfg = FeatureConfig(cell_px=cell)
        if cfg.total_count == dimension:
            return cfg
    raise UnreadableFileError(
        f"{path}: {dimension - GLOBAL_FEATURE_COUNT} local features match no supported grid"
    )
