"""Atomic file replacement and the float format of the package's text files."""

from __future__ import annotations

import os
import secrets

from .errors import IoFailureError

# O_EXCL: the name of a file that exists already is drawn again, never reused
_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


def format_float(x) -> str:
    """17 significant digits, so a float reads back bit for bit."""
    return format(float(x), ".17g")


def _open_temp(directory: str) -> tuple[int, str]:
    """A new file of a random name in `directory`, opened for writing, and
    its path. Its mode is 0o666 less the umask, as `open` gives a new file."""
    while True:
        tmp = os.path.join(directory, f"tmp{secrets.token_hex(6)}.tmp")
        try:
            return os.open(tmp, _TEMP_FLAGS, 0o666), tmp
        except FileExistsError:
            continue


def write_atomic(path, payload: str | bytes) -> None:
    """Replace `path` with `payload` (text is written as UTF-8) through a
    temporary file in the same directory, so the file is either the old one
    or the new one, never a part. The file gets the mode a plain
    `open(path, "wb")` would leave: a replaced file keeps its permission
    bits, and a new one gets 0o666 less the umask. A failure is
    IoFailureError and leaves no temporary file behind."""
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    try:
        try:
            mode = os.stat(path).st_mode & 0o777
        except FileNotFoundError:
            mode = None
        fd, tmp = _open_temp(os.path.dirname(os.path.abspath(path)))
        try:
            with os.fdopen(fd, "wb") as fh:
                if mode is not None:
                    os.fchmod(fh.fileno(), mode)
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailureError(f"{path}: {exc}") from exc
