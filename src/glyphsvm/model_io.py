"""Versioned text persistence for multiclass models (magic "GSVM1").

Floats are written with 17 significant digits so a load reproduces every
decision value bit for bit. The format is line-oriented and diff-able.
`save_model` writes version 2, the one version `load_model` reads, which
stores each support vector once:

    GSVM1
    version 2
    strategy ova|ovo
    label_kind int|str
    classes <N>
    class <id>              (N lines)
    kernel <kind> [key=value ...]
    dims <d>
    scaling_min <d floats>
    scaling_max <d floats>
    support_vectors <n>
    sv <d floats>           (n lines: the table)
    classifiers <M>
    classifier <idx> target=<idx> | pair=<i>,<j>   (the idx-th class pair)
    C <float>
    bias <float>
    iterations <int>        (SMO pair updates)
    kkt_violation <float>
    sv_count <m>
    sv_index <m ints>       (ascending rows of the table)
    coeffs <m floats>
    end

Every row of the table is a support vector of at least one classifier.
One-vs-one's classifiers follow `multiclass.class_pairs` order: (0, 1),
(0, 2), ..., (N-2, N-1).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BadMagicError,
    CorruptBlockError,
    InvalidConfigError,
    IoFailureError,
    VersionMismatchError,
)
from .fileio import format_float, write_atomic
from .multiclass import STRATEGIES, MinMaxScaling, MulticlassModel, class_pairs
from .svm import KERNEL_PARAMS, KernelSpec

MAGIC = "GSVM1"
VERSION = 2


def _fmt_vec(values) -> str:
    return " ".join(format_float(v) for v in np.asarray(values, dtype=np.float64))


def _kernel_line(spec: KernelSpec) -> str:
    params = [f"{n}={format_float(getattr(spec, n))}" for n in KERNEL_PARAMS[spec.kind]]
    return " ".join(["kernel", spec.kind] + params)


def save_model(model: MulticlassModel, path) -> None:
    """Validate, serialize as version 2 and atomically replace `path`.

    Class ids must reload as themselves: all integers, or all text that is
    not blank and holds no line break. Any other ids are InvalidConfigError,
    and `path` is left as it was."""
    model.validate()
    label_kind = _label_kind(model.class_ids)
    integer = label_kind == "int"
    lines = [
        MAGIC,
        f"version {VERSION}",
        f"strategy {model.strategy}",
        f"label_kind {label_kind}",
        f"classes {len(model.class_ids)}",
    ]
    lines.extend(f"class {int(c) if integer else c}" for c in model.class_ids)
    lines.append(_kernel_line(model.kernel))
    lines.append(f"dims {model.scaling.dimension}")
    lines.append("scaling_min " + _fmt_vec(model.scaling.mins))
    lines.append("scaling_max " + _fmt_vec(model.scaling.maxs))
    lines.append(f"support_vectors {len(model.support_vectors)}")
    lines.extend("sv " + _fmt_vec(sv) for sv in model.support_vectors)
    lines.append(f"classifiers {model.coeffs.shape[1]}")
    pairs = model.pairs
    for idx, col in enumerate(model.coeffs.T):
        lines.append(_classifier_line(idx, pairs))
        index = np.flatnonzero(col)
        lines.append(f"C {format_float(model.C[idx])}")
        lines.append(f"bias {format_float(model.biases[idx])}")
        lines.append(f"iterations {int(model.iterations[idx])}")
        lines.append(f"kkt_violation {format_float(model.kkt_violations[idx])}")
        lines.append(f"sv_count {len(index)}")
        lines.append("sv_index " + " ".join(map(str, index.tolist())))
        lines.append("coeffs " + _fmt_vec(col[index]))
    lines.append("end")
    write_atomic(path, "\n".join(lines) + "\n")


def _label_kind(class_ids) -> str:
    """'int' or 'str', the `label_kind` under which every id reloads as itself."""
    if all(isinstance(c, (int, np.integer)) and not isinstance(c, bool) for c in class_ids):
        return "int"
    if not all(isinstance(c, str) for c in class_ids):
        raise InvalidConfigError(f"class ids must be all integers or all text, got {class_ids!r}")
    for c in class_ids:
        if not c.strip() or "\n" in c or "\r" in c:
            raise InvalidConfigError(f"class id {c!r} is blank or holds a line break")
    return "str"


def _classifier_line(idx: int, pairs) -> str:
    """The head line of classifier `idx`: its target class for one-vs-all
    (`pairs` None), else `pairs[idx]`, its class pair."""
    target = f"target={idx}" if pairs is None else "pair={},{}".format(*pairs[idx])
    return f"classifier {idx} {target}"


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
    """The spec of a kernel line, whose parameter names must be exactly those
    of its kind in KERNEL_PARAMS, each once."""
    parts = line.split()  # "kernel", the kind, then name=value items
    kind, items = parts[1] if len(parts) > 1 else None, parts[2:]
    if kind not in KERNEL_PARAMS or not all("=" in item for item in items):
        raise CorruptBlockError(f"{path}: malformed kernel line {line!r}")
    names = KERNEL_PARAMS[kind]
    values = dict(item.split("=", 1) for item in items)
    if len(items) != len(names) or set(values) != set(names):
        raise CorruptBlockError(
            f"{path}: {kind} kernel takes parameters ({', '.join(names)}), found {line!r}"
        )
    params = [values[name] for name in names]
    try:
        return KernelSpec.from_param(kind, params[0] if len(params) == 1 else params)
    except ValueError as exc:
        raise CorruptBlockError(f"{path}: bad kernel parameters: {exc}") from exc


def load_model(path) -> MulticlassModel:
    """Parse a version 2 file, validate invariants, and return the stored
    model."""
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
    if strategy not in STRATEGIES:
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
    scaling = MinMaxScaling(
        mins=reader.next_floats("scaling_min", dims), maxs=reader.next_floats("scaling_max", dims)
    )
    if np.any(scaling.maxs < scaling.mins):
        raise CorruptBlockError(f"{path}: scaling_max is below scaling_min")
    n_sv = _parse_int(reader, "support_vectors")
    if n_sv < 1:
        raise CorruptBlockError(f"{path}: bad support_vectors {n_sv}")
    table = [reader.next_floats("sv", dims) for _ in range(n_sv)]
    n_classifiers = _parse_int(reader, "classifiers")
    expected = n_classes if strategy == "ova" else n_classes * (n_classes - 1) // 2
    if n_classifiers != expected:
        raise CorruptBlockError(
            f"{path}: {strategy} with {n_classes} classes needs {expected} "
            f"classifiers, header says {n_classifiers}"
        )

    pairs = None if strategy == "ova" else class_pairs(n_classes)
    biases, C, violations = np.zeros((3, n_classifiers))
    iterations = np.zeros(n_classifiers, dtype=np.int64)
    indexes, coefficients = [], []
    for idx in range(n_classifiers):
        head, expected = reader.next("classifier"), _classifier_line(idx, pairs)
        if head.split() != expected.split():
            raise CorruptBlockError(f"{path}: expected {expected!r}, found {head!r}")
        C[idx] = reader.next_floats("C", 1)[0]
        biases[idx] = reader.next_floats("bias", 1)[0]
        count = _parse_int(reader, "iterations")
        violations[idx] = reader.next_floats("kkt_violation", 1)[0]
        if not 0 <= count <= np.iinfo(np.int64).max or violations[idx] < 0:
            raise CorruptBlockError(f"{path}: classifier {idx} has bad solver metadata")
        iterations[idx] = count
        sv_count = _parse_int(reader, "sv_count")
        if sv_count < 1:
            raise CorruptBlockError(f"{path}: classifier {idx} has no support vectors")
        indexes.append(_parse_index(reader, sv_count, n_sv, idx))
        coefficients.append(reader.next_floats("coeffs", sv_count))
        _check_dual(coefficients[-1], C[idx], path, idx)
    reader.next("end")
    classifier = np.repeat(np.arange(n_classifiers), [len(values) for values in coefficients])
    entries = (np.concatenate(indexes), classifier, np.concatenate(coefficients))
    model = MulticlassModel.from_entries(
        strategy, class_ids, kernel, np.array(table), entries, biases, C, iterations, violations,
        scaling,
    )
    if len(model.support_vectors) < len(table):
        raise CorruptBlockError(f"{path}: a support-vector table row belongs to no classifier")
    return model


def _parse_index(reader: _Reader, count: int, n_sv: int, idx: int) -> np.ndarray:
    """The `sv_index` line of classifier `idx`: `count` strictly ascending
    rows of an `n_sv`-row table."""
    raw = reader.next_value("sv_index").split()
    try:
        index = np.array([int(v) for v in raw], dtype=np.intp)
    except (ValueError, OverflowError):
        raise CorruptBlockError(f"{reader.path}: bad integer in 'sv_index'") from None
    if len(index) != count:
        raise CorruptBlockError(
            f"{reader.path}: 'sv_index' holds {len(index)} values, expected {count}"
        )
    if index[0] < 0 or index[-1] >= n_sv or np.any(np.diff(index) <= 0):
        raise CorruptBlockError(
            f"{reader.path}: classifier {idx} needs strictly ascending sv_index "
            f"rows in 0..{n_sv - 1}"
        )
    return index


def _check_dual(coeffs: np.ndarray, c_value: float, path, idx: int) -> None:
    alphas = np.abs(coeffs)
    if np.any(alphas == 0):
        raise CorruptBlockError(f"{path}: classifier {idx} has a support vector of coefficient 0")
    if np.any(alphas > c_value * (1 + 1e-12)):
        raise CorruptBlockError(f"{path}: classifier {idx} violates the box constraint")
    if abs(coeffs.sum()) > 1e-6:
        raise CorruptBlockError(f"{path}: classifier {idx} violates the equality constraint")
