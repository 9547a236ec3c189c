"""Minimal PGM (P2 ASCII / P5 binary) reader and P5 writer, 8-bit single channel."""

from __future__ import annotations

import numpy as np

from .errors import (
    InvalidConfigError, NonFiniteInputError, UnreadableFileError, WrongDimensionsError
)
from .fileio import write_atomic


def _tokens(data: bytes):
    """Yield whitespace-separated header tokens, skipping # comments."""
    i = 0
    n = len(data)
    while i < n:
        c = data[i : i + 1]
        if c in b" \t\r\n":
            i += 1
            continue
        if c == b"#":
            j = data.find(b"\n", i)
            i = n if j < 0 else j + 1
            continue
        j = i
        while j < n and data[j : j + 1] not in b" \t\r\n":
            j += 1
        yield i, data[i:j]
        i = j


def read_pgm(path) -> np.ndarray:
    """Decode a PGM file into a 2-D uint8 intensity array (row-major).

    Accepts P2 (ASCII) and P5 (binary) with maxval <= 255.
    Raises UnreadableFileError on any malformed input.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise UnreadableFileError(f"{path}: {exc}") from exc

    tok = _tokens(data)
    try:
        _, magic = next(tok)
    except StopIteration:
        raise UnreadableFileError(f"{path}: empty file") from None
    if magic not in (b"P2", b"P5"):
        raise UnreadableFileError(f"{path}: not a PGM file (magic {magic!r})")

    header = []
    header_end = 0
    for pos, t in tok:
        header.append(t)
        header_end = pos + len(t)
        if len(header) == 3:
            break
    if len(header) < 3:
        raise UnreadableFileError(f"{path}: truncated PGM header")
    try:
        width, height, maxval = (int(t) for t in header)
    except ValueError:
        raise UnreadableFileError(f"{path}: non-numeric PGM header") from None
    if width < 1 or height < 1:
        raise UnreadableFileError(f"{path}: bad dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise UnreadableFileError(f"{path}: unsupported maxval {maxval} (8-bit only)")

    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates maxval from raster data
        raster = data[header_end + 1 :]
        if len(raster) < count:
            raise UnreadableFileError(f"{path}: raster truncated ({len(raster)} < {count})")
        pixels = np.frombuffer(raster[:count], dtype=np.uint8)
        if maxval < 255 and pixels.max() > maxval:
            raise UnreadableFileError(f"{path}: sample outside [0, {maxval}]")
    else:
        values = []
        for _, t in _tokens(data[header_end:]):
            values.append(t)
            if len(values) == count:
                break
        if len(values) < count:
            raise UnreadableFileError(f"{path}: raster truncated ({len(values)} < {count})")
        try:
            samples = [int(v) for v in values]
        except ValueError:
            raise UnreadableFileError(f"{path}: non-numeric P2 sample") from None
        # compared as Python ints: a sample past int64 must not overflow
        if not all(0 <= v <= maxval for v in samples):
            raise UnreadableFileError(f"{path}: sample outside [0, {maxval}]")
        pixels = np.array(samples, dtype=np.uint8)
    return pixels.reshape(height, width)


def check_gray(img) -> np.ndarray:
    """`img` as a 2-D uint8 grayscale image. An image that is not 2-D or is
    empty is WrongDimensionsError, a NaN or infinite intensity
    NonFiniteInputError and one outside [0, 255] InvalidConfigError; other
    intensities are truncated to integers."""
    img = np.asarray(img)
    if img.ndim != 2 or img.shape[0] < 1 or img.shape[1] < 1:
        raise WrongDimensionsError("expected a 2-D grayscale image")
    if img.dtype != np.uint8:
        if not np.isfinite(img).all():
            raise NonFiniteInputError("intensities must be finite")
        if img.min() < 0 or img.max() > 255:
            raise InvalidConfigError("intensities must lie in [0, 255]")
        img = img.astype(np.uint8)
    return img


def write_pgm(gray: np.ndarray, path) -> None:
    """Write a grayscale image as binary PGM (P5), atomically. `check_gray`
    refuses what `read_pgm` could not give back before anything is written,
    so a refused image leaves an existing file as it was."""
    img = check_gray(gray)
    height, width = img.shape
    write_atomic(path, b"P5\n%d %d\n255\n" % (width, height) + img.tobytes())


def binary_to_gray(binary: np.ndarray) -> np.ndarray:
    """Render a foreground bitmap for debug dumps: ink 0 (black), background 255."""
    return np.where(np.asarray(binary, dtype=bool), 0, 255).astype(np.uint8)


def write_binary_pgm(binary: np.ndarray, path) -> None:
    write_pgm(binary_to_gray(binary), path)
