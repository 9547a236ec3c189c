"""Atomic file replacement and the float format of the package's text files."""

from __future__ import annotations

import os
import tempfile

from .errors import IoFailureError


def format_float(x) -> str:
    """17 significant digits, so a float reads back bit for bit."""
    return format(float(x), ".17g")


def write_atomic(path, payload: str | bytes) -> None:
    """Replace `path` with `payload` (text is written as UTF-8) through a
    temporary file in the same directory, so the file is either the old one
    or the new one, never a part. A failure is IoFailureError and leaves no
    temporary file behind."""
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailureError(f"{path}: {exc}") from exc
