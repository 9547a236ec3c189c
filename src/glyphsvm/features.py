"""Zoning and topological feature extraction from thinned 32x32 characters."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError, InvalidConfigError, MixedDimensionsError, NonFiniteInputError,
    UnreadableFileError,
)
from .fileio import format_float, write_atomic
from .preprocess import (
    NORMALIZED_SIZE, BoundingBox, CharacterRecord, check_glyphs, topology_words
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
            raise InvalidConfigError(f"cell_px must be one of {VALID_CELL_SIZES}")

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
            raise InvalidConfigError(
                f"expected {self.config.total_count} features, got {self.values.shape}"
            )


def local_zone_features(skeleton: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """Foreground pixel count per grid cell of each image of a (k, 32, 32)
    stack: one row of counts per image, cells ordered row-major."""
    skeleton = check_glyphs(skeleton)
    g = config.cells_per_side
    c = config.cell_px
    grid = skeleton.reshape(-1, g, c, g, c).sum(axis=(2, 4), dtype=np.int64)
    return grid.reshape(len(skeleton), -1)


def aspect_ratio(bbox: BoundingBox) -> float:
    """Width over height of the original segmented box."""
    return bbox.width / bbox.height


def skeleton_topology(skeleton) -> np.ndarray:
    """Counts of (endpoints, branch points, cross points) of each thin image
    of a (k, 32, 32) stack, as a (k, 3) array.

    A foreground pixel is an endpoint at Rutovitz crossing number 1, a
    branch point at 3, and a cross point at 4, the most there can be; the
    pixels are counted on packed rows (`topology_words`).
    """
    return np.bitwise_count(topology_words(skeleton)).sum(axis=1, dtype=np.int64).T


def feature_rows(records: list[CharacterRecord], config: FeatureConfig) -> np.ndarray:
    """The feature values of thinned records, one row each in `FeatureVector`
    order, from one pass over their stacked skeletons."""
    skeletons = np.array([record.skeleton for record in records])
    local = config.local_count
    rows = np.empty((len(records), config.total_count))
    rows[:, :local] = local_zone_features(skeletons, config)
    rows[:, local] = [aspect_ratio(record.bbox) for record in records]
    # endpoints, cross points, branch points
    rows[:, local + 1 :] = skeleton_topology(skeletons)[:, [0, 2, 1]]
    return rows


def extract_features(record: CharacterRecord, config: FeatureConfig) -> FeatureVector:
    """Assemble the full vector: zones, then w/h, endpoints, crosses, branches
    (the one-record case of `feature_rows`)."""
    return FeatureVector(values=feature_rows([record], config)[0], config=config)


# --- CSV interchange --------------------------------------------------------

def csv_header(config: FeatureConfig) -> str:
    names = [f"v{k}" for k in range(1, config.local_count + 1)]
    return ",".join(["label"] + names + ["whr", "ep", "cp", "bp"])


def write_features_csv(path, labels, vectors, config: FeatureConfig) -> None:
    """One row per character: label, then the feature values in vector order.
    A vector whose length is not `config.total_count` is
    DimensionMismatchError, a NaN or infinite value NonFiniteInputError, and
    a label that would not read back as itself (empty, holding a comma or a
    line break, or with surrounding whitespace) InvalidConfigError, each
    before anything is written; the file is replaced atomically."""
    lines = [csv_header(config)]
    for label, vec in zip(labels, vectors):
        text = str(label)
        if "," in text or text.strip() != text or text.splitlines() != [text]:
            raise InvalidConfigError(f"{path}: label {text!r} cannot be a CSV label")
        if len(vec) != config.total_count:
            raise DimensionMismatchError(
                f"{path}: a row has {len(vec)} features, the header {config.total_count}"
            )
        if not np.isfinite(vec).all():
            raise NonFiniteInputError(f"{path}: a row labelled {text!r} is not finite")
        lines.append(",".join([text] + [format_float(v) for v in vec]))
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
    widths = ", ".join(str(FeatureConfig(cell_px=c).total_count) for c in VALID_CELL_SIZES)
    raise UnreadableFileError(
        f"{path}: {dimension} feature columns match no supported grid, which takes {widths}"
    )
