"""Matrix file format round-trips."""

import re

import numpy as np
import pytest

import urv


@pytest.fixture
def sample():
    return urv.gaussian_matrix(7, 5, urv.RngSeed(55))


def test_csv_roundtrip(tmp_path, sample):
    path = tmp_path / "a.csv"
    urv.save_matrix_csv(path, sample)
    assert np.array_equal(urv.load_matrix_csv(path), sample)


def test_csv_digits(tmp_path):
    path = tmp_path / "pi.csv"
    urv.save_matrix_csv(path, np.array([[np.pi]]))
    text = path.read_text().strip()
    assert len(text.replace(".", "").replace("-", "")) >= 17
    assert float(text) == np.pi


def test_binary_roundtrip(tmp_path, sample):
    path = tmp_path / "a.bin"
    urv.save_matrix_binary(path, sample)
    assert np.array_equal(urv.load_matrix_binary(path), sample)


def test_binary_layout(tmp_path):
    a = np.array([[1.0, 3.0], [2.0, 4.0]])
    path = tmp_path / "a.bin"
    urv.save_matrix_binary(path, a)
    raw = path.read_bytes()
    assert raw[:5] == b"URVK1"
    assert np.frombuffer(raw[5:21], dtype="<u8").tolist() == [2, 2]
    # column-major payload
    assert np.frombuffer(raw[21:], dtype="<f8").tolist() == [1.0, 2.0, 3.0, 4.0]


def test_sniffing_loader(tmp_path, sample):
    csv_path = tmp_path / "a.csv"
    bin_path = tmp_path / "a.bin"
    urv.save_matrix_csv(csv_path, sample)
    urv.save_matrix_binary(bin_path, sample)
    assert np.array_equal(urv.load_matrix(csv_path), sample)
    assert np.array_equal(urv.load_matrix(bin_path), sample)


def test_bad_files(tmp_path):
    # a header cut anywhere short of its 16 bytes is refused with the path
    bad = tmp_path / "bad.bin"
    for header in (b"\x01", bytes(8), bytes(15)):
        bad.write_bytes(b"URVK1" + header)
        with pytest.raises(ValueError, match=re.escape(f"{bad}: truncated header")):
            urv.load_matrix_binary(bad)
    bad.write_bytes(b"URVK2" + bytes(16))
    with pytest.raises(ValueError, match=re.escape(f"{bad}: bad magic")):
        urv.load_matrix_binary(bad)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    with pytest.raises(ValueError):
        urv.load_matrix_csv(ragged)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        urv.load_matrix_csv(empty)


def test_binary_header_checked_against_size(tmp_path):
    # a 37-byte file whose header claims 2**40 x 2**40 entries
    path = tmp_path / "huge.bin"
    path.write_bytes(b"URVK1" + np.array([2**40, 2**40], dtype="<u8").tobytes() + bytes(16))
    with pytest.raises(ValueError, match="header claims"):
        urv.load_matrix_binary(path)
    short = tmp_path / "short.bin"
    urv.save_matrix_binary(short, np.ones((3, 2)))
    short.write_bytes(short.read_bytes()[:-8])
    with pytest.raises(ValueError, match="header claims"):
        urv.load_matrix(short)
