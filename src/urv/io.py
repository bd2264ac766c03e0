"""Matrix file formats.

Two interchange formats for dense float64 matrices:

* textual CSV, one matrix row per line, 17 significant digits
* binary: magic ``URVK1``, two little-endian uint64 dims (rows, cols),
  then the entries as little-endian float64 in column-major order

``load_matrix`` sniffs the magic bytes, so callers need not know which
format a file uses.
"""

from __future__ import annotations

import os

import numpy as np

MAGIC = b"URVK1"


def save_matrix_csv(path, a) -> None:
    with open(path, "w", newline="\n") as fh:
        np.savetxt(fh, a, fmt="%.17g", delimiter=",")


def load_matrix_csv(path) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(x) for x in line.split(",")])
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: ragged rows (widths {sorted(widths)})")
    return np.array(rows, dtype=np.float64)


def save_matrix_binary(path, a) -> None:
    a = np.asarray(a, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.array(a.shape, dtype="<u8").tobytes())
        fh.write(a.tobytes(order="F"))


def load_matrix_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        dims = np.frombuffer(fh.read(16), dtype="<u8")
        if dims.size != 2:
            raise ValueError(f"{path}: truncated header")
        m, n = int(dims[0]), int(dims[1])
        expected = len(MAGIC) + 16 + 8 * m * n
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ValueError(
                f"{path}: header claims {m}x{n} ({expected} bytes), file has {size} bytes"
            )
        data = np.frombuffer(fh.read(8 * m * n), dtype="<f8")
    return data.reshape((m, n), order="F").copy()


def load_matrix(path) -> np.ndarray:
    """Load a matrix from either supported format (sniffed by magic)."""
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC))
    if head == MAGIC:
        return load_matrix_binary(path)
    return load_matrix_csv(path)
