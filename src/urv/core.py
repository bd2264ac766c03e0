"""Deterministic dense factorization kernels.

LAPACK Householder QR normalized to diag(R) >= 0, LAPACK column-pivoted
QR (``geqp3``, the BLAS-3 algorithm of Quintana-Orti, Sun & Bischof
1998), a column-pivoted QR whose pivoting and norm downdating are
hand-written, the P L D basis of a LAPACK partial-pivoted LU (``getrf``
and ``laswp``, the renormalization of the intermediate power steps), a
dense SVD, and spectral norms.  These are the building blocks for every
factorization in the package.  All routines are pure functions of
float64 arrays and never mutate their inputs.

The LAPACK kernels return Fortran-order arrays, the layout LAPACK writes,
and ``product`` writes ``x @ y`` in that order too, so a power iteration
whose samples are formed by ``product`` makes no transposing copy: a
kernel copies its Fortran-order input once, plainly, and returns that
copy.  The layout moves no value of a kernel: ``householder_qr`` and
``lu_basis`` give bitwise the same factors for an input in any layout.

This module is the package's one seam to dense linear algebra: every SVD,
QR and LU, and every product that is factored next, is a call here, so a
tracer or flop counter wraps each kernel in one place.  Other modules take
from ``numpy.linalg`` only ``LinAlgError`` and ``norm`` without ``ord``.

The QRs and the LU call the LAPACK inside numpy's own OpenBLAS
through ``ctypes``, so the package runs on one BLAS runtime and
loads no second library.  numpy wheels built against scipy-openblas64
(tested: the 2.4.6 wheel) export it as ILP64 ``scipy_<name>_64_``; on
any other numpy build ``import urv`` raises ``ImportError``.  The same
handle reads and sets that OpenBLAS's thread pool (``blas_threads``).
"""

from __future__ import annotations

import contextlib
import ctypes
from typing import NamedTuple

import numpy as np

EPS = float(np.finfo(np.float64).eps)

_INT = ctypes.POINTER(ctypes.c_int64)
_F64 = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS,WRITEABLE")
_I64 = np.ctypeslib.ndpointer(np.int64, flags="F_CONTIGUOUS,WRITEABLE")
# argument types of each routine, and what follows them: a workspace
# (WORK, LWORK) and INFO, INFO alone, or nothing
_SIGNATURES = {
    "dgeqrf": ((_INT, _INT, _F64, _INT, _F64), "work"),        # M, N, A, LDA, TAU
    "dorgqr": ((_INT, _INT, _INT, _F64, _INT, _F64), "work"),  # M, N, K, A, LDA, TAU
    "dgeqp3": ((_INT, _INT, _F64, _INT, _I64, _F64), "work"),  # M, N, A, LDA, JPVT, TAU
    "dgetrf": ((_INT, _INT, _F64, _INT, _I64), "info"),        # M, N, A, LDA, IPIV
    "dlaswp": ((_INT, _F64, _INT, _INT, _INT, _I64, _INT), None),  # N, A, LDA, K1, K2, IPIV, INCX
}
try:
    _lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    _LAPACK = {name: getattr(_lib, f"scipy_{name}_64_") for name in _SIGNATURES}
    # the size of the same OpenBLAS's thread pool (C int), read and set
    _GET_THREADS = _lib.scipy_openblas_get_num_threads64_
    _SET_THREADS = _lib.scipy_openblas_set_num_threads64_
except (AttributeError, OSError) as exc:
    raise ImportError(
        f"urv needs numpy's bundled ILP64 scipy-openblas LAPACK (symbols scipy_<name>_64_ "
        f"for {', '.join(_SIGNATURES)}); numpy {np.__version__} does not export it: {exc}"
    ) from exc
_TAILS = {"work": (_F64, _INT, _INT), "info": (_INT,), None: ()}
for _name, _fn in _LAPACK.items():
    _types, _tail = _SIGNATURES[_name]
    _fn.argtypes = [*_types, *_TAILS[_tail]]
    _fn.restype = None
_GET_THREADS.argtypes, _GET_THREADS.restype = [], ctypes.c_int
_SET_THREADS.argtypes, _SET_THREADS.restype = [ctypes.c_int], None

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


class LuBasis(NamedTuple):
    """Partial-pivoted LU ``y = (P L D)(D U)`` reduced to a basis: see ``lu_basis``."""

    pld: np.ndarray    # (m, n), P L D
    udiag: np.ndarray  # (n,), |diag U|


class SvdResult(NamedTuple):
    """Thin SVD: ``a = u @ diag(sigma) @ v.T`` with sigma nonincreasing."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def validated_matrix(a) -> np.ndarray:
    """Return ``a`` as a float64 2-d array, rejecting non-finite entries."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"a must be 2-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("a contains non-finite entries")
    return arr


def max_exponent(a) -> int:
    """Binary exponent e with max|a| in [2**(e-1), 2**e) (0 for a zero matrix).

    Scaling by ``2**-e`` is exact and brings the largest entry into
    [1/2, 1), where squares can neither overflow nor underflow.
    """
    return int(np.frexp(np.abs(a).max(initial=0.0))[1])


@contextlib.contextmanager
def blas_threads(n: int | None = None):
    """Run a block with numpy's OpenBLAS pool at ``n`` threads, then restore its size.

    ``n=None`` leaves the size as it is.  Yields the size in effect in the
    block.  The pool is process-wide state, so only code that owns its
    process (the ``urv`` command line) sets it; every library function
    leaves the pool as it finds it.
    """
    before = _GET_THREADS()
    if n is not None:
        _SET_THREADS(n)
    try:
        yield _GET_THREADS()
    finally:
        _SET_THREADS(before)


def _lapack(name: str, *args) -> int:
    """Call the LAPACK routine ``name`` with ``args``, then the tail of ``_SIGNATURES``.

    Ints pass by reference as int64 (ILP64); arrays must be writeable and
    Fortran-contiguous, with the dtype of ``_SIGNATURES``.  A workspace
    query picks the optimal LWORK, so blocked code runs.  A negative INFO
    (an illegal argument) raises ``numpy.linalg.LinAlgError``; INFO is
    returned otherwise (0 for a routine without one), since a positive one
    is a result (``dgetrf``: an exact zero pivot), not a failure.
    """
    refs = [ctypes.byref(ctypes.c_int64(arg)) if isinstance(arg, int) else arg for arg in args]
    tail = _SIGNATURES[name][1]
    info = ctypes.c_int64(0)

    def call(*work):
        _LAPACK[name](*refs, *work, *((ctypes.byref(info),) if tail else ()))
        if info.value < 0:
            raise np.linalg.LinAlgError(f"LAPACK {name} failed with info = {info.value}")
        return info.value

    if tail != "work":
        return call()
    query = np.zeros(1)
    call(query, ctypes.byref(ctypes.c_int64(-1)))
    lwork = max(1, int(query[0]))
    return call(np.empty(lwork), ctypes.byref(ctypes.c_int64(lwork)))


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


def product(x, y) -> np.ndarray:
    """``x @ y`` written in Fortran order, the layout the LAPACK kernels take.

    BLAS forms ``(y^T x^T)^T`` straight into a Fortran-order result, so a
    product that is factored next costs no transposing copy.
    """
    return np.matmul(y.T, x.T).T


def householder_qr(a) -> QrResult:
    """Householder QR of a tall matrix, normalized to ``diag(r) >= 0``.

    LAPACK ``dgeqrf``/``dorgqr`` on one Fortran-order copy of ``a`` (a
    plain copy when ``a`` is in Fortran order), followed by an exact sign
    flip of the columns of ``q`` and rows of ``r`` whose diagonal entry is
    negative.  The normalization makes the result unique and lets the Q
    of a Gaussian matrix be exactly Haar distributed.

    Parameters
    ----------
    a : array_like, shape (m, n)
        Matrix to factor, m >= n, finite entries.

    Returns
    -------
    QrResult
        ``q`` (m, n) with orthonormal columns and upper-triangular
        ``r`` (n, n) with nonnegative diagonal such that ``q @ r == a``
        up to roundoff.  Both are Fortran-contiguous, as LAPACK writes
        them, and bitwise equal to the sign-normalized ``numpy.linalg.qr``
        factors of ``a`` in any layout.
    """
    a = validated_matrix(a)
    m, n = a.shape
    if m < n:
        raise ValueError(f"householder_qr requires rows >= cols, got {m}x{n}")
    f = np.array(a, order="F")
    tau = np.empty(n)
    _lapack("dgeqrf", m, n, f, max(1, m), tau)
    r = _upper(f, n)
    _lapack("dorgqr", m, n, n, f, max(1, m), tau)
    return _positive_diagonal(f, r)


def _upper(f, k):
    """The upper trapezoid of the first ``k`` rows of ``f``, in Fortran order."""
    return np.tril(f[:k].T).T


def _positive_diagonal(q, r) -> QrResult:
    """``(q, r)`` themselves, with the sign of every negative diagonal entry of r flipped.

    Both are flipped in place and keep their layout: the Fortran order of
    the LAPACK output they come from.
    """
    neg = np.diagonal(r) < 0.0
    q[:, neg] *= -1.0
    r[neg, :] *= -1.0
    return QrResult(q, r)


def lu_basis(y) -> LuBasis:
    """Basis of the nested column spaces of ``y`` from a partial-pivoted LU.

    LAPACK ``dgetrf`` gives ``y = P L U``; with ``D = sign(diag U)`` (+1
    at a zero pivot) this returns ``P L D`` and ``|diag U|``, so that
    ``y = (P L D)(D U)`` with ``diag(D U) >= 0``.  Since ``D U`` is upper
    triangular, the first k columns of ``P L D`` span those of ``y`` for
    every k, and wherever ``y`` has full rank the Q of a QR of ``P L D``
    is exactly the Q of ``y``: the cheap renormalization of subspace
    iteration (Halko, Martinsson & Tropp 2011, sec. 4.5), at a quarter
    of the flops of ``householder_qr``.  An exact zero pivot (LAPACK
    ``info > 0``) is a rank-deficient ``y``, not an error: its column of L
    is zero below the diagonal and its entry of ``|diag U|`` is 0.

    L D is formed in place on one Fortran-order copy of ``y`` and LAPACK
    ``dlaswp`` applies P to it there, so the only copy is that of ``y``.

    Parameters
    ----------
    y : array_like, shape (m, n)
        Matrix to factor, m >= n, finite entries.

    Returns
    -------
    LuBasis
        ``pld`` (m, n), Fortran-contiguous, with entries of magnitude at
        most 1 and a unit-magnitude entry in each column, and ``udiag`` (n,).
        Both are bitwise the same for ``y`` in any layout.
    """
    y = validated_matrix(y)
    m, n = y.shape
    if m < n:
        raise ValueError(f"lu_basis requires rows >= cols, got {m}x{n}")
    f = np.array(y, order="F")
    ipiv = np.empty(n, dtype=np.int64)
    _lapack("dgetrf", m, n, f, max(1, m), ipiv)
    udiag = np.diagonal(f).copy()
    # overwrite U with the unit diagonal of L, then scale column j by D_j
    np.copyto(f[:n], 0.0, where=~np.tri(n, dtype=bool))
    np.fill_diagonal(f, 1.0)
    f *= np.where(udiag < 0.0, -1.0, 1.0)
    # dgetrf swapped rows i and ipiv[i] of y for i = 1..n in turn, so
    # P L D undoes those swaps in reverse order (INCX = -1)
    _lapack("dlaswp", n, f, max(1, m), 1, n, ipiv, -1)
    return LuBasis(f, np.abs(udiag))


def pivoted_qr(a) -> CpqrResult:
    """Column-pivoted QR by LAPACK ``dgeqp3``/``dorgqr``, normalized to ``diag(r) >= 0``.

    The BLAS-3 pivoted QR that Stewart's QLP is meant to run on.  Same
    contract as ``cpqr``, including its exact power-of-two prescale, but
    LAPACK downdates the column norms differently, so nearly tied columns
    may pivot otherwise: on Kahan's matrix (n = 96) ``geqp3`` keeps the
    identity order, while roundoff in ``cpqr`` moves 46 columns.  ``q``
    and ``r`` are Fortran-contiguous; on a wide input ``q`` is a compact
    copy, not a view of the k x n LAPACK buffer.
    """
    a = validated_matrix(a)
    m, n = a.shape
    k = min(m, n)
    scale = max_exponent(a)
    f = np.ldexp(a, -scale, order="F")
    perm = np.zeros(n, dtype=np.int64)  # zero: every column is free to pivot
    tau = np.empty(k)
    _lapack("dgeqp3", m, n, f, max(1, m), perm, tau)
    r = _upper(f, k)
    _lapack("dorgqr", m, k, k, f, max(1, m), tau)
    q, r = _positive_diagonal(f if k == n else f[:, :k].copy(order="F"), r)
    perm -= 1
    return CpqrResult(q, np.ldexp(r, scale, out=r), perm)


def cpqr(a) -> CpqrResult:
    """QR factorization with greedy column pivoting by a hand-written recurrence.

    Kept for ``urv bench --alg cpqr`` and the Kahan demonstration; ``qlp``
    runs on ``pivoted_qr``.  Only the pivoting recurrence is hand-written,
    because the pinned Kahan ratio (acceptance criterion 9) depends on it;
    Q is formed from its reflectors, stored in LAPACK's form (v[0] = 1,
    H = I - tau v v^T), by LAPACK ``dorgqr``.

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
        ``q`` (m, k), Fortran-contiguous, ``r`` (k, n) upper-trapezoidal
        with nonincreasing diagonal magnitudes, and ``perm`` such that
        ``a[:, perm] == q @ r`` up to roundoff, k = min(m, n).
    """
    a = validated_matrix(a)
    m, n = a.shape
    k = min(m, n)
    scale = max_exponent(a)
    r = np.ldexp(a, -scale, order="C")
    perm = np.arange(n)
    vs = np.zeros((m, k), order="F")
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

    _lapack("dorgqr", m, k, k, vs, max(1, m), taus)
    return CpqrResult(vs, np.ldexp(r[:k, :], scale), perm)


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
