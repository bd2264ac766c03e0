"""Deterministic dense factorization kernels.

LAPACK Householder QR normalized to diag(R) >= 0, column-pivoted QR
with norm downdating, a dense SVD, and spectral norms.  These are the
building blocks for every randomized factorization in the package.  All
routines are pure functions of float64 arrays and never mutate their
inputs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

EPS = float(np.finfo(np.float64).eps)

# Recompute a downdated column norm from scratch once it has shrunk below
# this fraction of its reference value (guards catastrophic cancellation).
_NORM_RECOMPUTE_FRACTION = 1e-2


class QrResult(NamedTuple):
    """Thin unpivoted QR: ``a = q @ r`` with ``diag(r) >= 0``."""

    q: np.ndarray  # (m, n), orthonormal columns
    r: np.ndarray  # (n, n), upper-triangular


class CpqrResult(NamedTuple):
    """Column-pivoted QR: ``a[:, perm] = q @ r``."""

    q: np.ndarray     # (m, k), k = min(m, n)
    r: np.ndarray     # (k, n), upper-trapezoidal
    perm: np.ndarray  # (n,), pivot order


class SvdResult(NamedTuple):
    """Thin SVD: ``a = u @ diag(sigma) @ v.T`` with sigma nonincreasing."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def validated_matrix(a, name: str = "a") -> np.ndarray:
    """Return ``a`` as a float64 2-d array, rejecting non-finite entries."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def max_exponent(a) -> int:
    """Binary exponent e with max|a| in [2**(e-1), 2**e) (0 for a zero matrix).

    Scaling by ``2**-e`` is exact and brings the largest entry into
    [1/2, 1), where squares can neither overflow nor underflow.  Used by
    ``cpqr``, ``factorizations._rescaled`` and ``diagnostics.error_profile``.
    """
    return int(np.frexp(np.abs(a).max(initial=0.0))[1])


def _householder(x):
    """Reflector (v, tau) with v[0] = 1 and (I - tau*v*v^T) x = +||x|| e_1.

    The sign is fixed so the produced diagonal entry is always
    nonnegative; both branches avoid cancellation.
    """
    v = x.copy()
    v[0] = 1.0
    sigma = x[1:] @ x[1:]
    if sigma == 0.0:
        # Already collinear with e_1; reflect only to fix a negative sign.
        return v, (0.0 if x[0] >= 0.0 else 2.0)
    mu = np.sqrt(x[0] * x[0] + sigma)
    if x[0] <= 0.0:
        v0 = x[0] - mu
    else:
        v0 = -sigma / (x[0] + mu)
    tau = 2.0 * v0 * v0 / (sigma + v0 * v0)
    v[1:] = x[1:] / v0
    return v, tau


def householder_qr(a) -> QrResult:
    """Householder QR of a tall matrix, normalized to ``diag(r) >= 0``.

    LAPACK ``geqrf``/``orgqr`` (through ``numpy.linalg.qr``) followed by
    an exact sign flip of the columns of ``q`` and rows of ``r`` whose
    diagonal entry is negative.  The normalization makes the result
    unique and lets the Q of a Gaussian matrix be exactly Haar
    distributed.

    Parameters
    ----------
    a : array_like, shape (m, n)
        Matrix to factor, m >= n, finite entries.

    Returns
    -------
    QrResult
        ``q`` (m, n) with orthonormal columns and upper-triangular
        ``r`` (n, n) with nonnegative diagonal such that ``q @ r == a``
        up to roundoff.
    """
    a = validated_matrix(a)
    m, n = a.shape
    if m < n:
        raise ValueError(f"householder_qr requires rows >= cols, got {m}x{n}")
    q, r = np.linalg.qr(a)
    neg = np.diagonal(r) < 0.0
    q[:, neg] *= -1.0
    r[neg, :] *= -1.0
    return QrResult(q, r)


def cpqr(a) -> CpqrResult:
    """QR factorization with greedy column pivoting.

    At step j the remaining column of largest trailing norm is moved to
    position j (ties broken by lowest column index).  Trailing squared
    norms are downdated after each reflector and recomputed from scratch
    when the downdated value falls below 1e-2 of its reference value.
    The working copy is prescaled by an exact power of two so that its
    largest entry lies in [1/2, 1): squared norms cannot overflow, and
    since the scaling is exact the factors are bitwise those of the
    unscaled recurrence wherever that stays in range.

    Returns
    -------
    CpqrResult
        ``q`` (m, k), ``r`` (k, n) upper-trapezoidal with nonincreasing
        diagonal magnitudes, and ``perm`` such that
        ``a[:, perm] == q @ r`` up to roundoff, k = min(m, n).
    """
    a = validated_matrix(a)
    m, n = a.shape
    k = min(m, n)
    scale = max_exponent(a)
    r = np.ldexp(a, -scale, order="C")
    perm = np.arange(n)
    vs = np.zeros((m, k))
    taus = np.zeros(k)
    norms2 = np.einsum("ij,ij->j", r, r)
    ref2 = norms2.copy()

    for j in range(k):
        p = j + int(np.argmax(norms2[j:]))
        if p != j:
            r[:, [j, p]] = r[:, [p, j]]
            perm[[j, p]] = perm[[p, j]]
            norms2[[j, p]] = norms2[[p, j]]
            ref2[[j, p]] = ref2[[p, j]]
        v, tau = _householder(r[j:, j])
        if tau != 0.0:
            w = tau * (v @ r[j:, j:])
            r[j:, j:] -= np.outer(v, w)
        vs[j:, j] = v
        taus[j] = tau
        r[j + 1 :, j] = 0.0
        if j + 1 < n:
            upd = norms2[j + 1 :] - r[j, j + 1 :] ** 2
            np.clip(upd, 0.0, None, out=upd)
            stale = upd < _NORM_RECOMPUTE_FRACTION * ref2[j + 1 :]
            if stale.any():
                cols = j + 1 + np.nonzero(stale)[0]
                fresh = np.einsum("ij,ij->j", r[j + 1 :, cols], r[j + 1 :, cols])
                upd[stale] = fresh
                ref2[cols] = fresh
            norms2[j + 1 :] = upd

    q = np.eye(m, k)
    for j in range(k - 1, -1, -1):
        if taus[j] != 0.0:
            v = vs[j:, j]
            w = taus[j] * (v @ q[j:, :])
            q[j:, :] -= np.outer(v, w)
    return CpqrResult(q, np.ldexp(r[:k, :], scale), perm)


def svd(a) -> SvdResult:
    """Thin singular value decomposition.

    Delegates to LAPACK through numpy; non-convergence raises
    ``numpy.linalg.LinAlgError`` rather than silently truncating.
    """
    a = validated_matrix(a)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return SvdResult(u, s, vt.T)


def singular_values(a) -> np.ndarray:
    """Singular values only, nonincreasing."""
    a = validated_matrix(a)
    if min(a.shape) == 0:
        return np.zeros(0)
    return np.linalg.svd(a, compute_uv=False)


def spectral_norm(a) -> float:
    """Largest singular value of ``a`` (0.0 for an empty matrix)."""
    s = singular_values(a)
    return float(s[0]) if s.size else 0.0
