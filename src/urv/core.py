"""Deterministic dense factorization kernels.

LAPACK Householder QR normalized to diag(R) >= 0, LAPACK column-pivoted
QR (``geqp3``, the BLAS-3 algorithm of Quintana-Orti, Sun & Bischof
1998), a hand-written column-pivoted QR with norm downdating, a dense
SVD, and spectral norms.  These are the building blocks for every
factorization in the package.  All routines are pure functions of
float64 arrays and never mutate their inputs.

The two LAPACK QRs call the LAPACK inside numpy's own OpenBLAS through
``ctypes``, so the package runs on one BLAS runtime and loads no second
library.  numpy wheels built against scipy-openblas64 (tested: the 2.4.6
wheel) export it as ILP64 ``scipy_<name>_64_``; on any other numpy build
``import urv`` raises ``ImportError``.
"""

from __future__ import annotations

import ctypes
from typing import NamedTuple

import numpy as np

EPS = float(np.finfo(np.float64).eps)

_INT = ctypes.POINTER(ctypes.c_int64)
_F64 = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS,WRITEABLE")
_I64 = np.ctypeslib.ndpointer(np.int64, flags="F_CONTIGUOUS,WRITEABLE")
# argument types of each routine up to its trailing WORK, LWORK, INFO
_SIGNATURES = {
    "dgeqrf": (_INT, _INT, _F64, _INT, _F64),        # M, N, A, LDA, TAU
    "dorgqr": (_INT, _INT, _INT, _F64, _INT, _F64),  # M, N, K, A, LDA, TAU
    "dgeqp3": (_INT, _INT, _F64, _INT, _I64, _F64),  # M, N, A, LDA, JPVT, TAU
}
try:
    _lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    _LAPACK = {name: getattr(_lib, f"scipy_{name}_64_") for name in _SIGNATURES}
except (AttributeError, OSError) as exc:
    raise ImportError(
        f"urv needs numpy's bundled ILP64 scipy-openblas LAPACK (symbols scipy_<name>_64_ "
        f"for {', '.join(_SIGNATURES)}); numpy {np.__version__} does not export it: {exc}"
    ) from exc
for _name, _fn in _LAPACK.items():
    _fn.argtypes = [*_SIGNATURES[_name], _F64, _INT, _INT]
    _fn.restype = None

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
    ``cpqr``, ``pivoted_qr``, ``factorizations._rescaled`` and
    ``diagnostics.error_profile``.
    """
    return int(np.frexp(np.abs(a).max(initial=0.0))[1])


def _lapack(name: str, *args) -> None:
    """Call the LAPACK routine ``name`` with ``args`` then WORK, LWORK, INFO.

    Ints pass by reference as int64 (ILP64); arrays must be writeable and
    Fortran-contiguous, with the dtype of ``_SIGNATURES``.  A workspace
    query picks the optimal LWORK, so blocked code runs.  A nonzero INFO
    raises ``numpy.linalg.LinAlgError``.
    """
    refs = [ctypes.byref(ctypes.c_int64(arg)) if isinstance(arg, int) else arg for arg in args]
    info = ctypes.c_int64(0)

    def call(work, lwork):
        _LAPACK[name](*refs, work, ctypes.byref(ctypes.c_int64(lwork)), ctypes.byref(info))
        if info.value:
            raise np.linalg.LinAlgError(f"LAPACK {name} failed with info = {info.value}")

    query = np.zeros(1)
    call(query, -1)
    lwork = max(1, int(query[0]))
    call(np.empty(lwork), lwork)


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

    LAPACK ``dgeqrf``/``dorgqr`` on one Fortran-order copy, followed by
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
        up to roundoff.  Both are C-contiguous, as ``numpy.linalg.qr``
        returns them, so products with them round as they did there.
    """
    a = validated_matrix(a)
    m, n = a.shape
    if m < n:
        raise ValueError(f"householder_qr requires rows >= cols, got {m}x{n}")
    f = np.array(a, order="F")
    tau = np.empty(n)
    _lapack("dgeqrf", m, n, f, max(1, m), tau)
    r = np.triu(f[:n, :])
    _lapack("dorgqr", m, n, n, f, max(1, m), tau)
    return _positive_diagonal(f, r)


def _positive_diagonal(q, r) -> QrResult:
    """C-contiguous ``(q, r)`` with the sign of every negative diagonal entry of r flipped."""
    q, r = np.ascontiguousarray(q), np.ascontiguousarray(r)
    neg = np.diagonal(r) < 0.0
    q[:, neg] *= -1.0
    r[neg, :] *= -1.0
    return QrResult(q, r)


def pivoted_qr(a) -> CpqrResult:
    """Column-pivoted QR by LAPACK ``dgeqp3``/``dorgqr``, normalized to ``diag(r) >= 0``.

    The BLAS-3 pivoted QR that Stewart's QLP is meant to run on.  Same
    contract as ``cpqr``, including its exact power-of-two prescale, but
    LAPACK downdates the column norms differently, so nearly tied columns
    may pivot otherwise: on Kahan's matrix (n = 96) ``geqp3`` keeps the
    identity order, while roundoff in ``cpqr`` moves 46 columns.
    """
    a = validated_matrix(a)
    m, n = a.shape
    k = min(m, n)
    scale = max_exponent(a)
    f = np.ldexp(a, -scale, order="F")
    perm = np.zeros(n, dtype=np.int64)  # zero: every column is free to pivot
    tau = np.empty(k)
    _lapack("dgeqp3", m, n, f, max(1, m), perm, tau)
    r = np.triu(f[:k, :])
    _lapack("dorgqr", m, k, k, f, max(1, m), tau)
    q, r = _positive_diagonal(f[:, :k], r)
    perm -= 1
    return CpqrResult(q, np.ldexp(r, scale), perm)


def cpqr(a) -> CpqrResult:
    """QR factorization with greedy column pivoting, hand-written.

    Kept for ``urv bench --alg cpqr`` and the Kahan demonstration, whose
    pinned ratio depends on this exact recurrence; ``qlp`` runs on
    ``pivoted_qr``.  At step j the remaining column of largest trailing
    norm is moved to position j (ties broken by lowest column index).
    Trailing squared norms are downdated after each reflector and
    recomputed from scratch when the downdated value falls below 1e-2 of
    its reference value.  The working copy is prescaled by an exact power
    of two so that its largest entry lies in [1/2, 1): squared norms
    cannot overflow, and since the scaling is exact the factors are
    bitwise those of the unscaled recurrence wherever that stays in range.

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
