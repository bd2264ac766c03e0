"""Deterministic dense factorization kernels.

LAPACK Householder QR (``geqrt``, whose panels are factored recursively
at level 3), LAPACK column-pivoted QR (``geqp3``, the BLAS-3
algorithm of Quintana-Orti, Sun & Bischof 1998) and a column-pivoted QR
whose pivoting and norm downdating are hand-written around LAPACK's
reflectors (``larfgp`` forms each, ``larf`` applies it).  Each cuts R with
diag(R) >= 0 from LAPACK's compact form (``_normalized_r``, one ``lacpy``
of its upper trapezoid) and then forms Q in place over its reflectors by
one loop (``_form_q``), one ``gemqrt`` per panel of reflectors, blocked
by its triangular T: ``geqrt``'s own T blocks for the unpivoted QR, and
for the two pivoted ones (``_q_and_r``) a T that ``larft`` builds from
tau.  ``orgqr`` forms only the Q of the generators' Haar draw
(``_haar_q``), whose bits the benchmark matrices keep.  The Q of a
``geqrt`` QR is also applied to a matrix without forming it
(``gemqrt``, the tall path of ``power_urv``).  Beside the QRs:
the P L D basis of a LAPACK partial-pivoted LU (``getrf``, ``laset`` for
L's unit diagonal and ``laswp``, the renormalization of the intermediate
power steps), a dense SVD, singular values and spectral norms, and the
eigenvalues of a symmetric matrix.
These are the building blocks for every factorization in the package.
All routines are pure functions of float64 arrays and never mutate
their inputs.

The LAPACK kernels return Fortran-order arrays, the layout LAPACK writes,
and ``product`` writes ``x @ y`` in that order too, so a power iteration
whose samples are formed by ``product`` makes no transposing copy: a
kernel copies its Fortran-order input once, plainly, and returns that
copy.  Any other input is copied to Fortran order 64 rows at a time
(``_fortran_copy``).  The layout moves no value of a kernel:
``householder_qr`` and ``lu_basis`` give bitwise the same factors for an
input in any layout.

This module is the package's one seam to dense linear algebra: every SVD,
QR, LU and eigenvalue call, and every product that is factored next, is a
call here, so a
tracer or flop counter wraps each kernel in one place.  Other modules take
from ``numpy.linalg`` only ``LinAlgError`` and ``norm`` without ``ord``.

An input is checked once, where it enters: each function that ``urv``
exports checks its arrays with ``validated_matrix`` or ``finite_array``,
and its integer parameters with ``int_param``, whose error names the
argument, and the kernels it does not export
(``lu_basis``, ``pivoted_qr``, ``svdvals``, ``eigvalsh``) check nothing.

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
_CHAR = ctypes.c_char_p  # a CHARACTER*1 argument, passed as b"L", b"N", ...


def _array_arg(dtype):
    """A ctypes argument type for a writeable, Fortran-contiguous ``dtype`` ndarray.

    The checks of ``np.ctypeslib.ndpointer(dtype, flags="F_CONTIGUOUS,WRITEABLE")``,
    but the array passes as a bare ``c_void_p``: about half the ~15 us
    of a ``_lapack`` call was ctypes converting each ``ndpointer`` argument.
    Anything else is a ``ctypes.ArgumentError`` at the call.
    """
    dtype = np.dtype(dtype)

    class ArrayArg:
        @staticmethod
        def from_param(a):
            if not (isinstance(a, np.ndarray) and a.dtype == dtype
                    and a.flags.f_contiguous and a.flags.writeable):
                raise TypeError(f"expected a writeable Fortran-contiguous {dtype} array")
            return ctypes.c_void_p(a.ctypes.data)

    return ArrayArg


_F64 = _array_arg(np.float64)
_I64 = _array_arg(np.int64)
# argument types of each routine, and what follows them: a workspace
# (WORK, LWORK) and INFO, INFO alone, or nothing
_SIGNATURES = {
    # M, N, NB, A, LDA, T, LDT, WORK
    "dgeqrt": ((_INT, _INT, _INT, _F64, _INT, _F64, _INT, _F64), "info"),
    # SIDE, TRANS, M, N, K, NB, V, LDV, T, LDT, C, LDC, WORK
    "dgemqrt": ((_CHAR, _CHAR, *(_INT,) * 4, _F64, _INT, _F64, _INT, _F64, _INT, _F64), "info"),
    "dorgqr": ((_INT, _INT, _INT, _F64, _INT, _F64), "work"),  # M, N, K, A, LDA, TAU
    # DIRECT, STOREV, N, K, V, LDV, TAU, T, LDT
    "dlarft": ((_CHAR, _CHAR, _INT, _INT, _F64, _INT, _F64, _F64, _INT), None),
    "dgeqp3": ((_INT, _INT, _F64, _INT, _I64, _F64), "work"),  # M, N, A, LDA, JPVT, TAU
    "dgetrf": ((_INT, _INT, _F64, _INT, _I64), "info"),        # M, N, A, LDA, IPIV
    "dlaswp": ((_INT, _F64, _INT, _INT, _INT, _I64, _INT), None),  # N, A, LDA, K1, K2, IPIV, INCX
    "dlarfgp": ((_INT, _F64, _F64, _INT, _F64), None),  # N, ALPHA, X, INCX, TAU
    # SIDE, M, N, V, INCV, TAU, C, LDC, WORK
    "dlarf": ((_CHAR, _INT, _INT, _F64, _INT, _F64, _F64, _INT, _F64), None),
    "dlacpy": ((_CHAR, _INT, _INT, _F64, _INT, _F64, _INT), None),  # UPLO, M, N, A, LDA, B, LDB
    # UPLO, M, N, ALPHA, BETA, A, LDA
    "dlaset": ((_CHAR, _INT, _INT, _F64, _F64, _F64, _INT), None),
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
# gfortran passes the length of each CHARACTER argument by value after all
# the others; f2c builds ignore these trailing arguments
_CHAR_LENGTHS = {name: (1,) * types.count(_CHAR) for name, (types, _) in _SIGNATURES.items()}
for _name, _fn in _LAPACK.items():
    _types, _tail = _SIGNATURES[_name]
    _fn.argtypes = [*_types, *_TAILS[_tail], *(ctypes.c_size_t for _ in _CHAR_LENGTHS[_name])]
    _fn.restype = None
_GET_THREADS.argtypes, _GET_THREADS.restype = [], ctypes.c_int
_SET_THREADS.argtypes, _SET_THREADS.restype = [ctypes.c_int], None

# Block size of householder_qr's dgeqrt: 32 and 64 ran within noise of each
# other at 1024^2, 2048^2 and 4096x512 (2 cores, OpenBLAS 0.3.31 Haswell),
# where 16 was 10-16% slower
_QR_BLOCK = 32

# Recompute a downdated column norm from scratch once it has shrunk below
# this fraction of its reference value (guards catastrophic cancellation).
_NORM_RECOMPUTE_FRACTION = 1e-2


class RankCollapseError(Exception):
    """A sample of a zero input, or an overflow: sigma_1 beyond the double range."""


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
    return finite_array(arr, "a")


def finite_array(x, name: str) -> np.ndarray:
    """Return ``x`` as a float64 array; a non-finite entry is a ``ValueError`` naming ``name``."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def int_param(x, name: str) -> int:
    """``x`` as an int; anything else, a bool included, is a ``ValueError`` naming ``name``.

    numpy integers are accepted.
    """
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"{name} must be an int, got {x!r}")
    return int(x)


def finite_result(x, stage: str):
    """``x`` itself; a non-finite entry is an overflow during ``stage``.

    For results computed from finite inputs: the ``RankCollapseError`` of
    sigma_1 beyond the double range, not the ``ValueError`` of a bad input.
    """
    if not np.isfinite(x).all():
        raise RankCollapseError(f"{stage} overflowed")
    return x


def max_exponent(a) -> int:
    """Binary exponent e with max|a| in [2**(e-1), 2**e) (0 for a zero matrix).

    Scaling by ``2**-e`` is exact and brings the largest entry into
    [1/2, 1), where squares can neither overflow nor underflow.
    """
    # max|a| without the input-sized temporary of np.abs(a)
    return int(np.frexp(max(a.max(initial=0.0), -a.min(initial=0.0)))[1])


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

    Ints pass by reference as int64 (ILP64), CHARACTER arguments as
    one-byte ``bytes``, a scalar double (of ``dlarfgp`` or ``dlaset``) as
    an array that starts with it; arrays must be writeable and
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
        _LAPACK[name](*refs, *work, *((ctypes.byref(info),) if tail else ()),
                      *_CHAR_LENGTHS[name])
        if info.value < 0:
            raise np.linalg.LinAlgError(f"LAPACK {name} failed with info = {info.value}")
        return info.value

    if tail != "work":
        return call()
    query = np.zeros(1)
    call(query, ctypes.byref(ctypes.c_int64(-1)))
    lwork = max(1, int(query[0]))
    return call(np.empty(lwork), ctypes.byref(ctypes.c_int64(lwork)))


def product(x, y) -> np.ndarray:
    """``x @ y`` written in Fortran order, the layout the LAPACK kernels take.

    BLAS forms ``(y^T x^T)^T`` straight into a Fortran-order result, so a
    product that is factored next costs no transposing copy.
    """
    return np.matmul(y.T, x.T).T


def householder_qr(a) -> QrResult:
    """Householder QR of a tall matrix, normalized to ``diag(r) >= 0``.

    LAPACK ``dgeqrt`` on one Fortran-order copy of ``a`` (``_compact_qr``),
    then Q is formed in place over it (``_form_q``) from ``dgeqrt``'s own
    T blocks, one ``dgemqrt`` per block.  ``dgeqrt`` factors each panel
    of ``_QR_BLOCK`` columns recursively, in level-3 BLAS (Elmroth &
    Gustavson 2000), where ``dgeqrf``'s panels are level 2.  The
    normalization makes the result unique (``dgeqrt``'s diagonal signs
    are arbitrary).  The generators' Haar draw takes its Q from
    ``_haar_q`` instead, which agrees with this one to roundoff.

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
        them, and bitwise the same for ``a`` in any layout.  They agree
        with the sign-normalized ``numpy.linalg.qr`` factors (``dgeqrf``)
        to roundoff, not bitwise.

    Raises
    ------
    RankCollapseError
        If R overflows: a finite ``a`` whose sigma_1 is beyond the double range.
    """
    a = validated_matrix(a)
    m, n = a.shape
    if m < n:
        raise ValueError(f"householder_qr requires rows >= cols, got {m}x{n}")
    (f, tw, d), r = _compact_qr(a)
    _form_q(f, d, tw)
    return QrResult(f, finite_result(r, "R of householder_qr"))


def _haar_q(g) -> QrResult:
    """``householder_qr`` of the finite tall ``g``, unchecked, with Q formed by ``dorgqr``.

    The generators' Haar draw (``matrices._haar_columns`` and
    ``random.haar_orthogonal``) keeps the bits it had before Q was formed
    by ``_form_q``: every paper-size fixture and acceptance criterion
    rides on them, and criterion 2 can fail at its noise floor when they
    move at roundoff (the 0.16.0 FOUND in CHANGES.md).  ``dorgqr`` takes
    tau from the diagonals of ``dgeqrt``'s T blocks, and Q gets the signs
    ``d`` afterwards.  R is bitwise ``householder_qr``'s; Q agrees with
    its Q to roundoff.
    """
    m, n = g.shape
    (f, tw, d), r = _compact_qr(g)
    # block j // nb of T is upper triangular with tau on its diagonal; tau
    # goes into the workspace half of tw, which dgeqrt no longer needs, so
    # that no small array is made after the input-sized f
    nb = tw.shape[0]
    j = np.arange(n)
    tau = tw[:, n:].ravel(order="F")[:n]
    tau[:] = tw[j % nb, j]
    _lapack("dorgqr", m, n, n, f, max(1, m), tau)
    f *= d
    return QrResult(f, r)


class _CompactQ(NamedTuple):
    """The Q of LAPACK's compact-WY QR of an m x n matrix: see ``_compact_qr``."""

    f: np.ndarray   # (m, n), reflector j below the diagonal of column j
    tw: np.ndarray  # (nb, 2n), the T blocks, then a free workspace of n * nb
    d: np.ndarray   # (n,), +-1: Q = (H_1 ... H_n)[:, :n] diag(d)


def _compact_qr(a) -> tuple[_CompactQ, np.ndarray]:
    """``(q, r)`` of the finite m x n ``a`` (m >= n), unchecked, with Q left compact.

    ``dgeqrt`` on one Fortran-order copy of ``a``; r is normalized to
    ``diag(r) >= 0`` and bitwise ``householder_qr``'s.  Q stays as its
    reflectors and T blocks, for ``householder_qr`` and ``_haar_q``, which
    form it, or for ``_apply_q``, which applies it without forming it.
    """
    m, n = a.shape
    nb = max(1, min(_QR_BLOCK, n))
    # T and dgeqrt's workspace side by side, allocated before the
    # input-sized copy: a small array made after it and kept through the
    # epilogue raised factor_large's peak RSS by 8 MB (glibc heap placement)
    tw = np.empty((nb, 2 * n), order="F")
    f = _fortran_copy(a)
    _lapack("dgeqrt", m, n, nb, f, max(1, m), tw[:, :n], nb, tw[:, n:])
    r, d = _normalized_r(f, n)
    return _CompactQ(f, tw, d), r


def _apply_q(q: _CompactQ, u) -> np.ndarray:
    """``Q u`` in Fortran order, for the m x n compact ``Q`` and an n x n ``u``.

    One LAPACK ``dgemqrt`` applies the reflectors, blocked by their T, to
    ``[diag(d) u; 0]``: level 3 throughout, about 4mn^2 flops against
    6mn^2 for forming Q and multiplying, with nothing Q's size made.  Its
    workspace is the free half of ``q.tw``.
    """
    f, tw, d = q
    m, n = f.shape
    c = np.zeros((m, n), order="F")
    np.multiply(u, d[:, None], out=c[:n])
    _reflect(f, tw[:, :n], n, c, m, n, max(1, m), tw[:, n:])
    return c


def _reflect(v, t, k, c, m, n, ldc, work):
    """``C := (H_1 ... H_k) C`` in place, for the m x n C at ``c``, by one LAPACK ``dgemqrt``.

    Reflector j is column j of ``v`` below its unit diagonal (LDV = rows
    of ``v``), blocked by the triangular T blocks in ``t`` (NB = LDT = rows
    of ``t``, or k if fewer).  ``c`` is a Fortran-order array or a 1-d
    view of one, starting at C's first entry, with leading dimension
    ``ldc``; ``work`` holds n * NB entries.
    """
    nb = min(t.shape[0], k)
    _lapack("dgemqrt", b"L", b"N", m, n, k, nb, v, max(1, v.shape[0]), t, t.shape[0], c, ldc,
            work)


def _fortran_copy(a, rows=None) -> np.ndarray:
    """A Fortran-order copy of ``a``, or of ``a[rows]`` for an index array ``rows``.

    A source that is not Fortran-contiguous, or a row gather, is copied 64
    rows at a time: each block goes down the columns while it is in cache,
    where one transposing copy strides through all of ``a`` for each
    column (C-order 4096x512: 13.3 against 3.1 ms, medians of 15).  The
    values are copied exactly, so the layout moves no result.
    """
    if rows is None and a.flags.f_contiguous:
        return np.array(a, order="F")
    f = np.empty((a.shape[0] if rows is None else rows.size, a.shape[1]), order="F")
    for i in range(0, f.shape[0], 64):
        f[i:i + 64] = a[i:i + 64] if rows is None else a[rows[i:i + 64]]
    return f


def _normalized_r(f, k):
    """``(r, d)``: the first k rows of LAPACK's compact QR in ``f``, as R with diag(r) >= 0.

    One LAPACK ``dlacpy`` copies R's upper trapezoid out of the Fortran-order
    ``f`` into zeros, so no mask is made.  ``r = diag(d) R`` for the +-1
    signs ``d``; the multiply is exact and leaves -0.0 alone.
    """
    r = np.zeros((k, f.shape[1]), order="F")
    _lapack("dlacpy", b"U", k, f.shape[1], f, max(1, f.shape[0]), r, max(1, k))
    d = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    r *= d[:, None]
    return r, d


def _q_and_r(f, tau):
    """Fortran-order ``(q, r)``, ``diag(r) >= 0``, of LAPACK's compact QR in ``f``, Q formed in place.

    For the pivoted QRs, whose LAPACK routines leave tau but no T.  R is
    cut from ``f`` first.  Then one ``dlarft`` per panel of ``_QR_BLOCK``
    reflectors, read straight from ``f``, builds the T blocks that
    ``dgeqrt`` would have left, and ``_form_q`` forms
    ``Q = (H_1 ... H_k)[:, :k] diag(d)``, k = ``tau.size``, over them.  On
    a wide ``f`` Q is a compact copy of its first k columns.
    """
    m, n = f.shape
    k = tau.size
    r, d = _normalized_r(f, k)
    nb = max(1, min(_QR_BLOCK, k))
    tw = np.empty((nb, 2 * k), order="F")  # the T blocks, then _form_q's workspace
    # the panels go to LAPACK as 1-d views of f from their first entry, LDV = m
    flat = np.reshape(f, -1, order="F", copy=False)
    for j0 in range(0, k, nb):
        j1 = min(j0 + nb, k)
        _lapack("dlarft", b"F", b"C", m - j0, j1 - j0, flat[j0 + j0 * m:], max(1, m),
                tau[j0:j1], tw[:, j0:j1], nb)
    _form_q(f, d, tw)
    return (f if k == n else f[:, :k].copy(order="F")), r


def _form_q(f, d, tw):
    """Form ``Q = (H_1 ... H_k)[:, :k] diag(d)`` in place over the compact QR in ``f``.

    k = ``d.size``; reflector j is column j of ``f`` below its diagonal,
    and ``tw`` (nb x 2k, Fortran order) holds their triangular T blocks,
    one per panel of nb reflectors, then a free workspace of k * nb.  A
    backward loop over the panels is LAPACK's blocked ``dorgqr`` without
    its unblocked last 128 columns (Schreiber & Van Loan 1989; Joffrain
    et al. 2006): each panel's reflectors are copied to an m x nb scratch,
    its columns are set to diag(d) over zeros, and one ``dgemqrt`` applies
    it to them and to the columns already formed.  R, above those columns,
    must have been cut from ``f`` already.
    """
    m, k = f.shape[0], d.size
    nb = tw.shape[0]
    v = np.empty((m, nb), order="F")
    # sub-blocks of f go to LAPACK as 1-d views from their first entry, LDA = m
    flat = np.reshape(f, -1, order="F", copy=False)
    for j0 in range((k - 1) // nb * nb, -1, -nb):
        j1 = min(j0 + nb, k)
        v[:m - j0, :j1 - j0] = f[j0:, j0:j1]
        f[j0:j1, j1:k] = 0.0  # R above the columns already formed
        f[j0:, j0:j1] = 0.0
        c = flat[j0 + j0 * m:]
        c[:(j1 - j0) * (m + 1):m + 1] = d[j0:j1]  # the panel's diagonal
        _reflect(v, tw[:, j0:j1], j1 - j0, c, m - j0, k - j0, m, tw[:, k:])


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

    L D is formed in place on one copy of ``y`` (LAPACK ``dlaset`` writes L's
    unit diagonal over U) and ``dlaswp`` applies P there: the only copy is ``y``'s.

    Parameters
    ----------
    y : ndarray, shape (m, n)
        float64 matrix to factor, m >= n, with finite entries: a sample
        that the caller (``factorizations._orth``) has already checked, so
        it is not checked again here.

    Returns
    -------
    LuBasis
        ``pld`` (m, n), Fortran-contiguous, with entries of magnitude at
        most 1 and a unit-magnitude entry in each column, and ``udiag`` (n,).
        Both are bitwise the same for ``y`` in any layout.
    """
    m, n = y.shape
    if m < n:
        raise ValueError(f"lu_basis requires rows >= cols, got {m}x{n}")
    f = _fortran_copy(y)
    ipiv = np.empty(n, dtype=np.int64)
    _lapack("dgetrf", m, n, f, max(1, m), ipiv)
    udiag = np.diagonal(f).copy()
    # one dlaset overwrites U with the unit diagonal of L; then column j is scaled by D_j
    _lapack("dlaset", b"U", n, n, np.zeros(1), np.ones(1), f, max(1, m))
    f *= np.where(udiag < 0.0, -1.0, 1.0)
    # dgetrf swapped rows i and ipiv[i] of y for i = 1..n in turn, so
    # P L D undoes those swaps in reverse order (INCX = -1)
    _lapack("dlaswp", n, f, max(1, m), 1, n, ipiv, -1)
    return LuBasis(f, np.abs(udiag))


def pivoted_qr(a) -> CpqrResult:
    """Column-pivoted QR by LAPACK ``dgeqp3``, normalized to ``diag(r) >= 0``.

    The BLAS-3 pivoted QR that Stewart's QLP is meant to run on.  Q is
    formed in place over ``dgeqp3``'s reflectors by ``_q_and_r``: one
    ``dgemqrt`` per panel of ``_QR_BLOCK`` reflectors, whose T ``dlarft``
    builds from tau, and no ``dorgqr``.  Same
    contract as ``cpqr``, including its exact power-of-two prescale, but
    LAPACK downdates the column norms differently, so nearly tied columns
    may pivot otherwise: on Kahan's matrix (n = 96) ``geqp3`` keeps the
    identity order, while roundoff in ``cpqr`` moves 61 columns.  ``q``
    and ``r`` are Fortran-contiguous; on a wide input ``q`` is a compact
    copy, not a view of the k x n LAPACK buffer.

    ``a`` is a finite float64 2-d array, not checked here: ``qlp`` passes
    its checked input's transpose and a matrix built from an R it checked.
    """
    m, n = a.shape
    k = min(m, n)
    scale = max_exponent(a)
    if a.flags.f_contiguous:
        f = np.ldexp(a, -scale, order="F")
    else:
        # qlp passes a.T, C-contiguous for a Fortran-order input: a blocked
        # copy and an exact in-place scaling make no transposing copy
        f = _fortran_copy(a)
        np.ldexp(f, -scale, out=f)
    perm = np.zeros(n, dtype=np.int64)  # zero: every column is free to pivot
    tau = np.empty(k)
    _lapack("dgeqp3", m, n, f, max(1, m), perm, tau)
    q, r = _q_and_r(f, tau)
    perm -= 1
    return CpqrResult(q, np.ldexp(r, scale, out=r), perm)


def cpqr(a) -> CpqrResult:
    """QR factorization with greedy column pivoting by a hand-written recurrence.

    Kept for ``urv bench --alg cpqr`` and the Kahan demonstration; ``qlp``
    runs on ``pivoted_qr``.  Only the pivoting recurrence is hand-written,
    because the pinned Kahan ratio (acceptance criterion 9) depends on it.
    Each column's reflector (v[0] = 1, H = I - tau v v^T) comes from LAPACK
    ``dlarfgp``, which makes the diagonal entry +||x|| >= 0 and rescales a
    column whose norm is near the subnormal range, and one ``dlarf``
    applies it to the columns to its right.  It is stored below the
    diagonal, LAPACK's compact form, and Q is formed from it as
    ``pivoted_qr``'s is (``_q_and_r``: ``dlarft`` and one ``dgemqrt`` per
    panel), after R has been cut from it.

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
        ``q`` (m, k) and ``r`` (k, n) upper-trapezoidal with nonincreasing
        diagonal magnitudes, both Fortran-contiguous, and ``perm`` such that
        ``a[:, perm] == q @ r`` up to roundoff, k = min(m, n).

    Raises
    ------
    RankCollapseError
        If R overflows: a finite ``a`` whose sigma_1 is beyond the double range.
    """
    a = validated_matrix(a)
    m, n = a.shape
    k = min(m, n)
    scale = max_exponent(a)
    # C order, not Fortran: the summation order of these einsum norms
    # decides how the exact ties of Kahan's matrix break, and in Fortran
    # order (with dlarf applied from the left) criterion 9's ratio read 23.8
    r = np.ldexp(a, -scale, order="C")
    perm = np.arange(n)
    taus = np.zeros(k)
    norms2 = np.einsum("ij,ij->j", r, r)
    ref2 = norms2.copy()
    # r[j:, j + 1:] goes to dlarf as its transpose: the Fortran-order
    # (n - j - 1) x (m - j) matrix at flat[j * n + j + 1], LDC = n
    flat = np.reshape(r, -1, copy=False)
    work = np.empty(n)

    for j in range(k):
        p = j + int(np.argmax(norms2[j:]))
        if p != j:
            r[:, [j, p]] = r[:, [p, j]]
            perm[[j, p]] = perm[[p, j]]
            norms2[[j, p]] = norms2[[p, j]]
            ref2[[j, p]] = ref2[[p, j]]
        # x[0] becomes beta = +||r[j:, j]||, x[1:] the reflector below its unit head
        x = r[j:, j].copy()
        _lapack("dlarfgp", m - j, x, x[1:], 1, taus[j:])
        r[j:, j] = x
        if j + 1 < n:
            x[0] = 1.0
            _lapack("dlarf", b"R", n - j - 1, m - j, x, 1, taus[j:], flat[j * n + j + 1:], n,
                    work)
            upd = norms2[j + 1 :] - r[j, j + 1 :] ** 2
            np.clip(upd, 0.0, None, out=upd)
            stale = upd < _NORM_RECOMPUTE_FRACTION * ref2[j + 1 :]
            if stale.any():
                cols = j + 1 + np.nonzero(stale)[0]
                fresh = np.einsum("ij,ij->j", r[j + 1 :, cols], r[j + 1 :, cols])
                upd[stale] = fresh
                ref2[cols] = fresh
            norms2[j + 1 :] = upd

    q, r = _q_and_r(_fortran_copy(r), taus)
    return CpqrResult(q, finite_result(np.ldexp(r, scale, out=r), "R of cpqr"), perm)


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
    return svdvals(validated_matrix(a))


def svdvals(a) -> np.ndarray:
    """``singular_values`` of a finite 2-d float64 array, without checking it.

    For blocks of a matrix the caller has already checked, so that a pass
    over many blocks checks the matrix once.
    """
    if min(a.shape) == 0:
        return np.zeros(0)
    return np.linalg.svd(a, compute_uv=False)


def eigvalsh(a) -> np.ndarray:
    """Eigenvalues of a finite symmetric float64 matrix, nondecreasing; values only.

    Reads the lower triangle, and, like ``svdvals``, does not check ``a``:
    it takes Gram matrices formed from data the caller has checked.
    """
    return np.linalg.eigvalsh(a)


def spectral_norm(a) -> float:
    """Largest singular value of ``a`` (0.0 for an empty matrix)."""
    s = singular_values(a)
    return float(s[0]) if s.size else 0.0
