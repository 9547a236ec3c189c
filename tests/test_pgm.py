import numpy as np
import pytest

from glyphsvm.errors import NonFiniteInputError, UnreadableFileError, WrongDimensionsError
from glyphsvm.pgm import binary_to_gray, read_pgm, write_binary_pgm, write_pgm


def test_p5_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(17, 23), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(img, path)
    assert np.array_equal(read_pgm(path), img)


def test_p2_ascii_with_comments(tmp_path):
    path = tmp_path / "ascii.pgm"
    path.write_text("P2\n# a comment\n3 2\n# another\n255\n0 10 20\n30 40 255\n")
    img = read_pgm(path)
    assert img.shape == (2, 3)
    assert img.tolist() == [[0, 10, 20], [30, 40, 255]]


def test_p2_small_maxval(tmp_path):
    path = tmp_path / "small.pgm"
    path.write_text("P2\n2 2\n100\n0 50 100 25\n")
    assert read_pgm(path).tolist() == [[0, 50], [100, 25]]


@pytest.mark.parametrize("magic, raster", [(b"P2", b"50 200\n"), (b"P5", bytes([50, 200]))])
def test_sample_above_small_maxval_is_refused(tmp_path, magic, raster):
    path = tmp_path / "over.pgm"
    path.write_bytes(magic + b"\n2 1\n100\n" + raster)
    with pytest.raises(UnreadableFileError, match=r"sample outside \[0, 100\]"):
        read_pgm(path)


def test_p5_small_maxval(tmp_path):
    path = tmp_path / "small.pgm"
    path.write_bytes(b"P5\n2 2\n100\n" + bytes([0, 50, 100, 25]))
    assert read_pgm(path).tolist() == [[0, 50], [100, 25]]


def test_rejects_16bit(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_text("P2\n2 2\n65535\n0 1 2 3\n")
    with pytest.raises(UnreadableFileError):
        read_pgm(path)


def test_rejects_truncated_raster(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(UnreadableFileError):
        read_pgm(path)


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(UnreadableFileError):
        read_pgm(path)


def test_rejects_missing_file(tmp_path):
    with pytest.raises(UnreadableFileError):
        read_pgm(tmp_path / "nope.pgm")


def test_binary_dump_polarity(tmp_path):
    binary = np.array([[True, False], [False, True]])
    gray = binary_to_gray(binary)
    assert gray.tolist() == [[0, 255], [255, 0]]
    path = tmp_path / "dump.pgm"
    write_binary_pgm(binary, path)
    assert np.array_equal(read_pgm(path), gray)


@pytest.mark.parametrize(
    "gray, error",
    [
        ([[300, -1], [2.7, 255]], ValueError),
        ([[np.nan, 0.0]], NonFiniteInputError),
        ([[np.inf, 0.0]], NonFiniteInputError),
        (np.zeros((0, 3)), WrongDimensionsError),
        (np.zeros((2, 2, 2)), WrongDimensionsError),
    ],
    ids=["out-of-range", "nan", "inf", "empty", "3d"],
)
def test_write_refuses_what_read_could_not_give_back(tmp_path, gray, error):
    # 300 and -1 used to wrap to 44 and 255, and NaN to be written as 0
    path = tmp_path / "img.pgm"
    write_pgm(np.full((2, 2), 7, np.uint8), path)
    before = path.read_bytes()
    with pytest.raises(error):
        write_pgm(np.asarray(gray), path)
    assert path.read_bytes() == before


def test_write_truncates_fractional_intensities(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(np.array([[0.0, 2.7], [254.9, 255.0]]), path)
    assert read_pgm(path).tolist() == [[0, 2], [254, 255]]
