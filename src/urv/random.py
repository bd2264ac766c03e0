"""Reproducible random matrix generation.

The generator is Philox-4x64-10 keyed by ``(seed, stream)`` with numpy's
ziggurat normal transform, so identical seeds give bit-identical output
on every platform.  Gaussian matrices are filled in column-major order:
the first ``l`` columns of an ``m x n`` draw equal an independent
``m x l`` draw with the same seed.  The shared-sketch contract between
``power_urv`` and ``rsvd`` relies on exactly this prefix property.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import _haar_q, int_param
from .core import householder_qr  # noqa: F401  perfbench traces random.householder_qr

_MASK64 = (1 << 64) - 1


class RngSeed(NamedTuple):
    """Key of one reproducible random stream.

    ``stream`` distinguishes independent draws made within a single
    experiment (e.g. the two Haar factors of a synthetic test matrix).
    """

    seed: int
    stream: int = 0

    def spawn(self, tag: int) -> "RngSeed":
        """Derive an independent child stream for draw number ``tag``."""
        return RngSeed(self.seed, ((self.stream << 16) ^ tag) & _MASK64)


def as_seed(seed) -> RngSeed:
    """Coerce an int, pair, or RngSeed into an RngSeed."""
    if isinstance(seed, RngSeed):
        return seed
    if isinstance(seed, (int, np.integer)):
        return RngSeed(int(seed) & _MASK64, 0)
    s, stream = seed
    return RngSeed(int(s) & _MASK64, int(stream) & _MASK64)


def _generator(seed: RngSeed) -> np.random.Generator:
    key = np.array([seed.seed, seed.stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def gaussian_matrix(m: int, n: int, seed) -> np.ndarray:
    """An ``m x n`` matrix of i.i.d. standard normal entries.

    Deterministic per ``(seed, stream)``; entries are drawn in
    column-major order (see module docstring).
    """
    m, n = int_param(m, "m"), int_param(n, "n")
    if m < 1 or n < 1:
        raise ValueError(f"matrix dimensions must be positive, got {m}x{n}")
    gen = _generator(as_seed(seed))
    return gen.standard_normal(m * n).reshape((m, n), order="F")


def haar_orthogonal(n: int, seed) -> np.ndarray:
    """An ``n x n`` orthogonal matrix drawn from the Haar distribution.

    Computed as the Q factor of an unpivoted QR of a Gaussian matrix;
    the QR's nonnegative-diagonal normalization makes the distribution
    exactly Haar rather than merely approximately so.
    """
    n = int_param(n, "n")
    return _haar_q(gaussian_matrix(n, n, seed)).q
