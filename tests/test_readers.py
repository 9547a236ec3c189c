"""The readers on mutated files: `read_pgm`, `read_features_csv` and
`load_model` take a valid file with bytes flipped, cut, spliced or replaced
by hostile tokens. Each file either loads or raises one package error, and a
file that loads gives the same value after its writer and reader."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glyphsvm.errors import GlyphSvmError
from glyphsvm.features import FeatureConfig, read_features_csv, write_features_csv
from glyphsvm.model_io import load_model, save_model
from glyphsvm.multiclass import train_one_vs_all, train_one_vs_one
from glyphsvm.pgm import read_pgm, write_pgm
from glyphsvm.svm import KernelSpec

TOKENS = [
    b"nan",
    b"1e309",
    b"\x00",
    b"\r\n",
    # 17-digit edges: the largest double and the first decimal past it, the
    # smallest subnormal and the decimal just under half of it, 2**53 + 1
    # and the largest 17-digit integer
    b"1.7976931348623157e308",
    b"1.7976931348623159e308",
    b"4.9406564584124654e-324",
    b"2.4703282292062327e-324",
    b"9007199254740993",
    b"99999999999999999",
    # whitespace that only some line and strip rules see
    b" ",
    b"\x0c",
    "\x85".encode(),
]
SEPARATORS = b" ,\n"


def fields(data: bytes) -> list[tuple[int, int]]:
    """(start, end) of every run of bytes between separators."""
    spans, start = [], 0
    for end, byte in enumerate(data + b"\n"):
        if byte in SEPARATORS:
            if end > start:
                spans.append((start, end))
            start = end + 1
    return spans


def mutate(data: bytes, ops) -> bytes:
    """Apply each (kind, a, b, c) of `ops` in turn; positions wrap.

    flip: xor byte a with b (1-255); cut: drop b + 1 bytes from a; splice:
    insert c + 1 bytes from b at a; token: put TOKENS[b] in place of field
    a; insert: put TOKENS[b] in at byte a.
    """
    data = bytearray(data)
    for kind, a, b, c in ops:
        n = len(data) + 1
        if kind == "flip" and data:
            data[a % len(data)] ^= b % 255 + 1
        elif kind == "cut":
            del data[a % n : a % n + b % 64 + 1]
        elif kind == "splice":
            data[a % n : a % n] = data[b % n : b % n + c % 64 + 1]
        elif kind == "token":
            spans = fields(bytes(data)) or [(0, 0)]
            start, end = spans[a % len(spans)]
            data[start:end] = TOKENS[b % len(TOKENS)]
        elif kind == "insert":
            data[a % n : a % n] = TOKENS[b % len(TOKENS)]
    return bytes(data)


OPS = st.lists(
    st.tuples(
        st.sampled_from(["flip", "cut", "splice", "token", "insert"]),
        st.integers(0, 1 << 16), st.integers(0, 1 << 16), st.integers(0, 1 << 16),
    ),
    min_size=1, max_size=3,
)


def base_files(tmp_root) -> dict:
    """The valid files the mutations start from, by reader, written with
    the package's writers where it has one."""
    rng = np.random.default_rng(12)
    gray = np.where(rng.random((9, 7)) < 0.3, 0, 255).astype(np.uint8)
    gray[2:5, 1:6] = rng.integers(0, 256, (3, 5))
    write_pgm(gray, tmp_root / "glyph.pgm")
    p2 = b"P2\n# a comment\n7 9 255\n" + b"\n".join(
        b" ".join(b"%d" % v for v in row) for row in gray
    ) + b"\n"
    config = FeatureConfig(cell_px=16)
    vectors = rng.normal(size=(4, config.total_count)) * 10.0 ** rng.integers(-5, 5, (4, 1))
    write_features_csv(tmp_root / "rows.csv", ["alpha", "b", "alpha", "7"], vectors, config)
    X = np.vstack([np.array([3.0 * c, -c]) + 0.3 * rng.normal(size=(6, 2)) for c in range(3)])
    labels = [c for c in range(3) for _ in range(6)]
    save_model(train_one_vs_all(X, labels, KernelSpec("rbf", gamma=0.5), 10.0), tmp_root / "ova")
    save_model(
        train_one_vs_one(X, [str(c) for c in labels], KernelSpec("poly", degree=2), 1.0),
        tmp_root / "ovo",
    )
    return {
        "p5": (tmp_root / "glyph.pgm").read_bytes(),
        "p2": p2,
        "csv": (tmp_root / "rows.csv").read_bytes(),
        "ova": (tmp_root / "ova").read_bytes(),
        "ovo": (tmp_root / "ovo").read_bytes(),
    }


def pgm_roundtrip(gray, path):
    write_pgm(gray, path)
    again = read_pgm(path)
    assert again.dtype == gray.dtype == np.uint8 and np.array_equal(again, gray)


def csv_roundtrip(loaded, path):
    labels, matrix, config = loaded
    write_features_csv(path, labels, matrix, config)
    again_labels, again, again_config = read_features_csv(path)
    assert again_labels == labels and again_config == config
    assert np.array_equal(again, matrix)


def model_roundtrip(model, path):
    save_model(model, path)
    again = load_model(path)
    assert (again.strategy, again.class_ids, again.kernel) == (
        model.strategy, model.class_ids, model.kernel
    )
    for name in ("support_vectors", "coeffs", "biases", "C", "iterations", "kkt_violations"):
        assert np.array_equal(getattr(again, name), getattr(model, name)), name
    assert np.array_equal(again.scaling.mins, model.scaling.mins)
    assert np.array_equal(again.scaling.maxs, model.scaling.maxs)


READERS = {
    "p5": (read_pgm, pgm_roundtrip),
    "p2": (read_pgm, pgm_roundtrip),
    "csv": (read_features_csv, csv_roundtrip),
    "ova": (load_model, model_roundtrip),
    "ovo": (load_model, model_roundtrip),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


@pytest.fixture(scope="module")
def bases(workdir):
    return base_files(workdir)


@pytest.mark.parametrize("kind", READERS)
@settings(max_examples=120, deadline=None)
@given(ops=OPS)
# one per token kind, each put in place of a field in the file's body
@example(ops=[("token", 9, TOKENS.index(b"nan"), 0)])
@example(ops=[("token", 12, TOKENS.index(b"1e309"), 0)])
@example(ops=[("token", 10, TOKENS.index(b"\x00"), 0)])
@example(ops=[("token", 11, TOKENS.index(b"\r\n"), 0)])
@example(ops=[("token", 13, TOKENS.index(b"1.7976931348623157e308"), 0)])
@example(ops=[("token", 13, TOKENS.index(b"1.7976931348623159e308"), 0)])
@example(ops=[("token", 14, TOKENS.index(b"4.9406564584124654e-324"), 0)])
@example(ops=[("token", 14, TOKENS.index(b"2.4703282292062327e-324"), 0)])
@example(ops=[("token", 4, TOKENS.index(b"9007199254740993"), 0)])
@example(ops=[("token", 5, TOKENS.index(b"99999999999999999"), 0)])
# the header's first field, a byte flipped in the body, the tail cut
# and a block of the file spliced into itself
@example(ops=[("token", 0, TOKENS.index(b"nan"), 0)])
@example(ops=[("flip", 40, 31, 0)])
@example(ops=[("cut", 60, 1000, 0)])
@example(ops=[("splice", 20, 3, 30)])
# after and inside the CSV's first label: readers once took labels that
# their writer refuses, "alpha " and "al\fpha"
@example(ops=[("insert", 37, TOKENS.index(b" "), 0)])
@example(ops=[("insert", 34, TOKENS.index(b"\x0c"), 0)])
@example(ops=[("insert", 34, TOKENS.index("\x85".encode()), 0)])
# a C of the largest double overflowed the model reader's box test, and
# a P2 sample past int64 the PGM reader's array
@example(ops=[("insert", 45, TOKENS.index(b"99999999999999999"), 0)])
@example(ops=[("token", 1114, TOKENS.index(b"1.7976931348623157e308"), 0)])
def test_a_mutated_file_loads_as_itself_or_raises_one_package_error(kind, ops, workdir, bases):
    reader, roundtrip = READERS[kind]
    path = workdir / f"mutated-{kind}"
    path.write_bytes(mutate(bases[kind], ops))
    try:
        loaded = reader(path)
    except GlyphSvmError:
        return
    roundtrip(loaded, workdir / f"again-{kind}")


@pytest.mark.parametrize("kind", READERS)
def test_every_unmutated_file_loads_as_itself(kind, workdir, bases):
    reader, roundtrip = READERS[kind]
    path = workdir / f"valid-{kind}"
    path.write_bytes(bases[kind])
    roundtrip(reader(path), workdir / f"again-{kind}")
