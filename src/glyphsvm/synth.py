"""Synthetic glyph dataset generator.

Stands in for a real handwriting corpus at desk scale: a fixed library of
stroke-pattern glyphs whose classes differ in shape and in skeleton topology
(endpoint / branch / cross signatures), each sample perturbed by seeded
rotation, scale, translation, and salt-pepper noise.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError
from .modelsel import check_seed
from .pgm import write_pgm

# Strokes live in unit coordinates centered on (0.5, 0.5); every control
# point stays within radius 0.34 of the center so the worst-case jitter
# (scale 1.2, translation 3 px, stroke radius) still fits a 64 px canvas.
# Glyphs whose skeleton topology stays put under the full jitter range come
# first, so small class counts get the most robust shapes.
GLYPH_LIBRARY = (
    ("ring", (("arc", 0.5, 0.5, 0.30, 0.0, 360.0),)),
    ("cee", (("arc", 0.5, 0.5, 0.30, 45.0, 315.0),)),
    (
        "tee",
        (
            ("poly", ((0.27, 0.26), (0.73, 0.26))),
            ("poly", ((0.5, 0.26), (0.5, 0.8))),
        ),
    ),
    (
        "aitch",
        (
            ("poly", ((0.32, 0.26), (0.32, 0.74))),
            ("poly", ((0.68, 0.26), (0.68, 0.74))),
            ("poly", ((0.32, 0.5), (0.68, 0.5))),
        ),
    ),
    (
        "theta",
        (
            ("arc", 0.5, 0.5, 0.30, 0.0, 360.0),
            ("poly", ((0.2, 0.5), (0.8, 0.5))),
        ),
    ),
    (
        "pee",
        (
            ("poly", ((0.36, 0.22), (0.36, 0.8))),
            ("poly", ((0.36, 0.22), (0.64, 0.22), (0.64, 0.5), (0.36, 0.5))),
        ),
    ),
    (
        "ell",
        (
            ("poly", ((0.36, 0.26), (0.36, 0.74))),
            ("poly", ((0.36, 0.74), (0.72, 0.74))),
        ),
    ),
    ("bar", (("poly", ((0.17, 0.5), (0.83, 0.5))),)),
    (
        "plus",
        (
            ("poly", ((0.5, 0.17), (0.5, 0.83))),
            ("poly", ((0.17, 0.5), (0.83, 0.5))),
        ),
    ),
    (
        "ex",
        (
            ("poly", ((0.28, 0.28), (0.72, 0.72))),
            ("poly", ((0.28, 0.72), (0.72, 0.28))),
        ),
    ),
)

MAX_CLASSES = len(GLYPH_LIBRARY)
MAX_NOISE_RATE = 0.05
# every sample's jitter is drawn uniformly from these fixed ranges
MAX_ROTATION_DEG = 10.0
SCALE_BOUNDS = (0.8, 1.2)
MAX_TRANSLATION_PX = 3.0  # on each axis
CANVAS_PX = 64
STROKE_PX = 3.0


@dataclass(frozen=True)
class SynthConfig:
    classes: int
    per_class: int
    noise_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for name in ("classes", "per_class"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise InvalidConfigError(f"{name} must be an integer, got {value!r}")
        if not 2 <= self.classes <= MAX_CLASSES:
            raise InvalidConfigError(
                f"classes must be in [2, {MAX_CLASSES}], got {self.classes}"
            )
        if self.per_class < 1:
            raise InvalidConfigError("per_class must be >= 1")
        if not 0.0 <= self.noise_rate <= MAX_NOISE_RATE:
            raise InvalidConfigError(
                f"noise_rate must be in [0, {MAX_NOISE_RATE}], got {self.noise_rate}"
            )
        check_seed(self.seed)


def _transform_point(pt, rotation_deg, scale, translate):
    rad = math.radians(rotation_deg)
    cos, sin = math.cos(rad), math.sin(rad)
    x = pt[0] - 0.5
    y = pt[1] - 0.5
    xr = cos * x - sin * y
    yr = sin * x + cos * y
    center = (CANVAS_PX - 1) / 2.0
    return (
        xr * scale * CANVAS_PX + center + translate[0],
        yr * scale * CANVAS_PX + center + translate[1],
    )


def _segment_distance(px, py, a, b):
    """Distance of every canvas point to the segment a-b."""
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    length_sq = dx * dx + dy * dy
    if length_sq == 0.0:
        return np.hypot(px - ax, py - ay)
    t = np.clip(((px - ax) * dx + (py - ay) * dy) / length_sq, 0.0, 1.0)
    return np.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _arc_distance(px, py, center, radius, start_deg, end_deg):
    """Distance of every canvas point to a circular arc (degrees, start < end)."""
    cx, cy = center
    vx = px - cx
    vy = py - cy
    d = np.hypot(vx, vy)
    ring = np.abs(d - radius)
    if end_deg - start_deg >= 360.0:
        return ring
    ang = np.degrees(np.arctan2(vy, vx)) % 360.0
    rel = (ang - start_deg % 360.0) % 360.0
    on_arc = rel <= end_deg - start_deg
    caps = np.full_like(d, np.inf)
    for theta in (start_deg, end_deg):
        ex = cx + radius * math.cos(math.radians(theta))
        ey = cy + radius * math.sin(math.radians(theta))
        caps = np.minimum(caps, np.hypot(px - ex, py - ey))
    return np.where(on_arc, ring, caps)


def render_glyph_mask(
    class_idx: int,
    rotation_deg: float = 0.0,
    scale: float = 1.0,
    translate=(0.0, 0.0),
) -> np.ndarray:
    """Rasterize one glyph as a boolean ink mask on the CANVAS_PX square;
    strokes are STROKE_PX wide with rounded caps."""
    _, strokes = GLYPH_LIBRARY[class_idx]
    ys, xs = np.mgrid[0:CANVAS_PX, 0:CANVAS_PX].astype(np.float64)
    best = np.full((CANVAS_PX, CANVAS_PX), np.inf)
    for stroke in strokes:
        if stroke[0] == "poly":
            pts = [_transform_point(p, rotation_deg, scale, translate) for p in stroke[1]]
            for a, b in zip(pts, pts[1:]):
                best = np.minimum(best, _segment_distance(xs, ys, a, b))
        else:
            _, cx, cy, r, a0, a1 = stroke
            center = _transform_point((cx, cy), rotation_deg, scale, translate)
            best = np.minimum(
                best,
                _arc_distance(
                    xs, ys, center, r * scale * CANVAS_PX, a0 + rotation_deg, a1 + rotation_deg
                ),
            )
    return best <= STROKE_PX / 2.0


def render_sample(config: SynthConfig, class_idx: int, sample_idx: int) -> np.ndarray:
    """One jittered grayscale sample (uint8, ink dark), deterministic in
    (seed, class, sample)."""
    rng = np.random.default_rng([config.seed, class_idx, sample_idx])
    rotation = rng.uniform(-MAX_ROTATION_DEG, MAX_ROTATION_DEG)
    scale = rng.uniform(*SCALE_BOUNDS)
    translate = rng.uniform(-MAX_TRANSLATION_PX, MAX_TRANSLATION_PX, 2)
    mask = render_glyph_mask(
        class_idx,
        rotation_deg=rotation,
        scale=scale,
        translate=(float(translate[0]), float(translate[1])),
    )
    gray = np.where(mask, 0, 255).astype(np.uint8)
    if config.noise_rate > 0.0:
        noisy = rng.random(gray.shape) < config.noise_rate
        values = rng.integers(0, 2, size=gray.shape).astype(np.uint8) * 255
        gray = np.where(noisy, values, gray)
    return gray


def generate_synthetic_dataset(config: SynthConfig, out_dir) -> int:
    """Write `classes` directories of `per_class` PGM samples; returns file count.

    Re-running with the same config produces byte-identical files.
    """
    written = 0
    for class_idx in range(config.classes):
        class_dir = os.path.join(str(out_dir), str(class_idx))
        os.makedirs(class_dir, exist_ok=True)
        for sample_idx in range(config.per_class):
            gray = render_sample(config, class_idx, sample_idx)
            path = os.path.join(class_dir, f"{class_idx}_{sample_idx:04d}.pgm")
            write_pgm(gray, path)
            written += 1
    return written
