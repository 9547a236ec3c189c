"""Versioned text persistence for multiclass models (magic "GSVM1").

Floats are written with 17 significant digits so a load reproduces every
decision value bit for bit. The format is line-oriented and diff-able:

    GSVM1
    version 1
    strategy ova|ovo
    label_kind int|str
    classes <N>
    class <id>              (N lines)
    kernel <kind> [key=value ...]
    dims <d>
    scaling_min <d floats>
    scaling_max <d floats>
    classifiers <M>
    classifier <idx> target=<i> | pair=<i>,<j>
    C <float>
    bias <float>
    sv_count <m>
    coeffs <m floats>
    sv <d floats>           (m lines)
    end
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .errors import (
    BadMagicError,
    CorruptBlockError,
    IoFailureError,
    VersionMismatchError,
)
from .multiclass import MinMaxScaling, MulticlassModel
from .svm import KERNEL_PARAMS, BinaryModel, KernelSpec, TrainingMeta

MAGIC = "GSVM1"
VERSION = 1


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_vec(values) -> str:
    return " ".join(_fmt(v) for v in np.asarray(values, dtype=np.float64))


def _kernel_line(spec: KernelSpec) -> str:
    params = [f"{n}={_fmt(getattr(spec, n))}" for n in KERNEL_PARAMS[spec.kind]]
    return " ".join(["kernel", spec.kind] + params)


def save_model(model: MulticlassModel, path) -> None:
    """Validate, serialize and atomically replace `path`."""
    model.validate()
    label_kind = "int" if all(isinstance(c, int) for c in model.class_ids) else "str"
    lines = [
        MAGIC,
        f"version {VERSION}",
        f"strategy {model.strategy}",
        f"label_kind {label_kind}",
        f"classes {len(model.class_ids)}",
    ]
    lines.extend(f"class {c}" for c in model.class_ids)
    lines.append(_kernel_line(model.classifiers[0].kernel))
    dims = model.scaling.dimension
    lines.append(f"dims {dims}")
    lines.append("scaling_min " + _fmt_vec(model.scaling.mins))
    lines.append("scaling_max " + _fmt_vec(model.scaling.maxs))
    lines.append(f"classifiers {len(model.classifiers)}")
    for idx, clf in enumerate(model.classifiers):
        if model.strategy == "ova":
            lines.append(f"classifier {idx} target={idx}")
        else:
            i, j = model.pairs[idx]
            lines.append(f"classifier {idx} pair={i},{j}")
        lines.append(f"C {_fmt(clf.C)}")
        lines.append(f"bias {_fmt(clf.bias)}")
        lines.append(f"sv_count {len(clf.dual_coeffs)}")
        lines.append("coeffs " + _fmt_vec(clf.dual_coeffs))
        for sv in clf.support_vectors:
            lines.append("sv " + _fmt_vec(sv))
    lines.append("end")
    payload = "\n".join(lines) + "\n"

    directory = os.path.dirname(os.path.abspath(str(path)))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp, str(path))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailureError(f"{path}: {exc}") from exc


class _Reader:
    def __init__(self, lines, path):
        self.lines = lines
        self.path = path
        self.pos = 0

    def next(self, expect: str | None = None) -> str:
        if self.pos >= len(self.lines):
            raise CorruptBlockError(f"{self.path}: truncated (expected {expect or 'more'})")
        line = self.lines[self.pos]
        self.pos += 1
        if expect is not None and not line.startswith(expect + " ") and line != expect:
            raise CorruptBlockError(
                f"{self.path}: expected '{expect} ...', found {line!r}"
            )
        return line

    def next_value(self, expect: str) -> str:
        value = self.next(expect)[len(expect) + 1 :]
        if not value.strip():
            raise CorruptBlockError(f"{self.path}: '{expect}' has no value")
        return value

    def next_floats(self, expect: str, count: int) -> np.ndarray:
        raw = self.next_value(expect).split()
        if len(raw) != count:
            raise CorruptBlockError(
                f"{self.path}: '{expect}' holds {len(raw)} values, expected {count}"
            )
        try:
            values = np.array([float(v) for v in raw], dtype=np.float64)
        except ValueError:
            raise CorruptBlockError(f"{self.path}: non-numeric value in '{expect}'") from None
        if not np.isfinite(values).all():
            raise CorruptBlockError(f"{self.path}: non-finite value in '{expect}'")
        return values


def _parse_int(reader: _Reader, expect: str) -> int:
    raw = reader.next_value(expect)
    try:
        return int(raw)
    except ValueError:
        raise CorruptBlockError(f"{reader.path}: bad integer in '{expect}'") from None


def _parse_kernel(line: str, path) -> KernelSpec:
    parts = line.split()
    if len(parts) < 2 or parts[0] != "kernel":
        raise CorruptBlockError(f"{path}: malformed kernel line {line!r}")
    kind = parts[1]
    kv = {}
    for item in parts[2:]:
        if "=" not in item:
            raise CorruptBlockError(f"{path}: malformed kernel parameter {item!r}")
        key, value = item.split("=", 1)
        kv[key] = value
    try:
        if kind == "sigmoid":
            param = (kv["slope"], kv["offset"])
        elif kind in ("rbf", "poly"):
            param = kv["gamma" if kind == "rbf" else "degree"]
        else:
            param = None
        return KernelSpec.from_param(kind, param)
    except (KeyError, ValueError) as exc:
        raise CorruptBlockError(f"{path}: bad kernel parameters: {exc}") from exc


def load_model(path) -> MulticlassModel:
    """Parse, validate invariants, and return the stored model."""
    try:
        with open(str(path), "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except OSError as exc:
        raise IoFailureError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise BadMagicError(f"{path}: not a UTF-8 text model: {exc}") from None
    lines = [ln for ln in lines if ln.strip()]
    if not lines or lines[0] != MAGIC:
        raise BadMagicError(f"{path}: missing magic {MAGIC!r}")
    reader = _Reader(lines, path)
    reader.next()  # magic
    version = _parse_int(reader, "version")
    if version != VERSION:
        raise VersionMismatchError(f"{path}: version {version}, supported {VERSION}")
    strategy = reader.next_value("strategy")
    if strategy not in ("ova", "ovo"):
        raise CorruptBlockError(f"{path}: unknown strategy {strategy!r}")
    label_kind = reader.next_value("label_kind")
    if label_kind not in ("int", "str"):
        raise CorruptBlockError(f"{path}: unknown label_kind {label_kind!r}")
    n_classes = _parse_int(reader, "classes")
    if n_classes < 2:
        raise CorruptBlockError(f"{path}: needs >= 2 classes, found {n_classes}")
    class_ids = []
    for _ in range(n_classes):
        class_ids.append(
            _parse_int(reader, "class") if label_kind == "int" else reader.next_value("class")
        )
    if len(set(class_ids)) != n_classes:
        raise CorruptBlockError(f"{path}: class ids repeat: {class_ids!r}")
    kernel = _parse_kernel(reader.next("kernel"), path)
    dims = _parse_int(reader, "dims")
    if dims < 1:
        raise CorruptBlockError(f"{path}: bad dims {dims}")
    mins = reader.next_floats("scaling_min", dims)
    maxs = reader.next_floats("scaling_max", dims)
    n_classifiers = _parse_int(reader, "classifiers")
    expected = n_classes if strategy == "ova" else n_classes * (n_classes - 1) // 2
    if n_classifiers != expected:
        raise CorruptBlockError(
            f"{path}: {strategy} with {n_classes} classes needs {expected} "
            f"classifiers, header says {n_classifiers}"
        )

    classifiers = []
    pairs = [] if strategy == "ovo" else None
    for idx in range(n_classifiers):
        head = reader.next("classifier").split()
        if len(head) != 3 or head[1] != str(idx):
            raise CorruptBlockError(f"{path}: classifier block {idx} out of order")
        if strategy == "ova":
            if head[2] != f"target={idx}":
                raise CorruptBlockError(f"{path}: classifier {idx} has bad target")
        else:
            try:
                key, value = head[2].split("=")
                i, j = (int(v) for v in value.split(","))
            except ValueError:
                raise CorruptBlockError(f"{path}: classifier {idx} has bad pair") from None
            if key != "pair" or not 0 <= i < j < n_classes:
                raise CorruptBlockError(f"{path}: classifier {idx} has bad pair")
            pairs.append((i, j))
        c_value = reader.next_floats("C", 1)[0]
        bias = reader.next_floats("bias", 1)[0]
        sv_count = _parse_int(reader, "sv_count")
        if sv_count < 1:
            raise CorruptBlockError(f"{path}: classifier {idx} has no support vectors")
        coeffs = reader.next_floats("coeffs", sv_count)
        svs = np.empty((sv_count, dims), dtype=np.float64)
        for row in range(sv_count):
            svs[row] = reader.next_floats("sv", dims)
        _check_dual(coeffs, c_value, path, idx)
        classifiers.append(
            BinaryModel(
                kernel=kernel,
                support_vectors=svs,
                dual_coeffs=coeffs,
                bias=float(bias),
                C=float(c_value),
                meta=TrainingMeta(iterations=0, kkt_violation=0.0),
            )
        )
    reader.next("end")
    model = MulticlassModel(
        strategy=strategy,
        class_ids=class_ids,
        classifiers=classifiers,
        scaling=MinMaxScaling(mins=mins, maxs=maxs),
        pairs=pairs,
    )
    model.validate()
    return model


def _check_dual(coeffs: np.ndarray, c_value: float, path, idx: int) -> None:
    alphas = np.abs(coeffs)
    if np.any(alphas > c_value * (1 + 1e-12)):
        raise CorruptBlockError(f"{path}: classifier {idx} violates the box constraint")
    if abs(coeffs.sum()) > 1e-6:
        raise CorruptBlockError(f"{path}: classifier {idx} violates the equality constraint")
