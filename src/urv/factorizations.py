"""Randomized and deterministic rank-revealing factorizations.

Four algorithms that factor a tall matrix ``a`` (m >= n) so that
low-rank approximations can be read off by truncation:

ddh_urv
    one multiply by a random Haar matrix followed by one unpivoted QR;
    extremely cheap, data-oblivious right factor
power_urv
    ddh_urv preceded by q power-iteration steps on the random matrix; the
    Q of the last step is the right factor, aligned with the dominant row space
qlp
    two column-pivoted QR factorizations (LAPACK ``geqp3``, applied
    through the transpose), fully deterministic
rsvd
    randomized truncated SVD with the same power iteration and, at equal
    seed, the same Gaussian draw as power_urv restricted to its first
    ``ell`` columns

``truncate`` turns any URV factorization into its rank-k approximant
factors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    EPS,
    RankCollapseError,
    _apply_q,
    _compact_qr,
    _fortran_copy,
    finite_array,
    finite_result,
    householder_qr,
    int_param,
    lu_basis,
    max_exponent,
    pivoted_qr,
    product,
    svd,
    validated_matrix,
)
from .core import cpqr  # noqa: F401  unused here; perfbench traces factorizations.cpqr
from .random import as_seed, gaussian_matrix


# power_urv with q >= 1 runs on the R factor of inputs with at least this
# many rows per column.  Measured with Q0 applied by dgemqrt (n = 512-1024,
# 2 cores, medians of 7-9 interleaved pairs), forced-tall / direct time is
# 0.95-1.04 for q = 1 and 0.89-0.92 for q = 2 at m = 2n, and 0.87-0.96 and
# 0.80-0.86 at m = 2.5n.  So one switch at 2n, for every q: there this path
# is even for q = 1 and faster for q = 2
_TALL_RATIO = 2


@dataclass(frozen=True)
class Provenance:
    """How a factorization was produced."""

    algorithm: str
    q: int = 0
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class UrvFactorization:
    """``a = u @ r @ v.T`` with orthonormal u, orthogonal v, triangular r."""

    u: np.ndarray  # (m, n), orthonormal columns
    r: np.ndarray  # (n, n), upper-triangular
    v: np.ndarray  # (n, n), orthogonal
    provenance: Provenance


@dataclass(frozen=True)
class RsvdFactorization:
    """Approximate truncated SVD ``a ~= u @ diag(sigma) @ v.T``."""

    u: np.ndarray      # (m, ell)
    sigma: np.ndarray  # (ell,), nonincreasing
    v: np.ndarray      # (n, ell)
    provenance: Provenance


def _rescaled(y):
    """``y`` scaled in place by ``2**-max_exponent(y)``: exact, so its QR's Q is unchanged."""
    return np.ldexp(y, -max_exponent(y), out=y)


def _orth(y, warnings: list[str], stage: str, lu: bool = False):
    """Basis of the columns of y: the Q of an unpivoted QR, or with ``lu`` an LU's P L D.

    The P L D factor of a partial-pivoted LU (``core.lu_basis``) and the Q
    span the same nested column spaces, so the LU suits an intermediate
    power step, whose basis only feeds the next product; it costs a
    quarter of the QR's flops.  y is rescaled in place, since a copy
    raises peak memory: every caller passes a fresh product or the
    Gaussian draw and never reads it again.  Its QR still copies it:
    factored in place here as well as in ``power_urv``'s QR of ``A V``,
    it raised the peak RSS of the factor_large benchmark (1024^2) from
    114.2 to 122.0 MB in 9 runs of 9 (glibc heap placement; either one
    alone read 114.0-114.3 MB).  A numerically rank-deficient sample is
    kept (with a recorded warning); a zero or non-finite one is an error.
    """
    y = _rescaled(y)
    # max|y| is now in [1/2, 1), so the norm is finite exactly when y is
    norm = finite_result(np.linalg.norm(y), f"sample matrix during {stage}")
    if norm == 0.0:
        raise RankCollapseError(f"sample matrix collapsed to zero during {stage}")
    if lu:
        basis, diag = lu_basis(y)
    else:
        basis, r = householder_qr(y)
        diag = np.diagonal(r)
    # a deficient diagonal entry is roundoff of order EPS * norm; the factor
    # n keeps the threshold above that noise, so the count is stable
    # under roundoff-level changes (e.g. the tall path against the direct one)
    deficient = int(np.sum(diag < y.shape[1] * EPS * norm))
    if deficient:
        warnings.append(f"{stage}: {deficient} numerically rank-deficient sample columns")
    return basis


def _sample_basis(a, y, steps: int, reorth: bool, warnings: list[str], stage: str):
    """Q of the sample ``y`` after ``steps`` alternating products A, A^T, A, ...

    Randomized subspace iteration (Halko, Martinsson & Tropp 2011, Alg. 4.4).
    With ``reorth`` every intermediate sample is renormalized by the P L D
    factor of its partial-pivoted LU (HMT sec. 4.5; Li et al., Algorithm
    971, 2017), else rescaled by an exact power of two.  Only the last one
    is orthonormalized, by QR, and reports a zero or overflow under
    ``stage``.  Since the LU factor spans the sample's nested column spaces,
    that Q is the one QR renormalization at every step gives, in exact
    arithmetic.  Each sample is dropped once the next is formed, so a
    caller that passes the draw without keeping it holds one sample at a
    time.
    """
    for i in range(steps):
        y = product(a.T if i % 2 else a, y)
        if reorth and i < steps - 1:
            step = f"power step {i // 2 + 1} (after {'A^T' if i % 2 else 'A'})"
            y = _orth(y, warnings, step, lu=True)
        elif i < steps - 1:
            y = _rescaled(y)
    return _orth(y, warnings, stage)


def power_urv(a, q: int = 1, reorth: bool = True, seed=0) -> UrvFactorization:
    """Randomized URV factorization with power iteration.

    Draws an n x n Gaussian matrix G, applies q steps of power iteration
    ``Y = (A^T A)^q G``, takes V as the Q factor of an unpivoted QR of
    Y, and factors ``A V = U R`` with a second unpivoted QR.  With
    ``reorth`` the sample is renormalized after every application of A
    and of A^T but the last by the P L D factor of its partial-pivoted
    LU, which spans the same nested column spaces as its Q (subspace
    iteration with LU renormalization), so V is the Q of the last step
    and, in exact arithmetic, that of QR renormalization; without it
    each product is only rescaled by an exact power of two.  Either
    way a call makes two QRs (three on the tall path) and, with
    ``reorth`` and q >= 1, 2q - 1 LUs.

    ``q = 0`` is exactly ``ddh_urv`` (same Gaussian draw, same code
    path, bit-identical factors).

    A tall input (``q >= 1`` and ``m >= _TALL_RATIO * n``) is first
    reduced to its n x n triangular factor, ``A = Q0 R0``, as LAPACK's
    SVD routines do (Chan's R-SVD).  The power iteration and
    ``R0 V = U' R`` then run on R0, and ``U = Q0 U'``, where Q0 is never
    formed: one LAPACK ``dgemqrt`` applies its compact-WY reflectors to
    ``U'`` padded with zero rows (Schreiber & Van Loan 1989).  Since
    ``R0^T R0 = A^T A`` the factors are the same as on the direct path
    up to roundoff, but the 2q + 1 products with A and the QRs of m x n
    samples shrink to n x n ones.  With ``q = 0`` the one product with
    A is cheaper than the extra QR, so the direct path is kept.

    Parameters
    ----------
    a : array_like, shape (m, n)
        Matrix to factor, m >= n.
    q : int
        Number of power-iteration steps, >= 0.
    reorth : bool
        Renormalize between applications of A and A^T.
    seed : int or RngSeed
        Key of the Gaussian draw.

    Returns
    -------
    UrvFactorization
    """
    a = validated_matrix(a)
    m, n = a.shape
    if m < n:
        raise ValueError(f"power_urv requires rows >= cols, got {m}x{n}")
    q = int_param(q, "q")
    if q < 0:
        raise ValueError("q must be nonnegative")
    if n == 0:  # no column to sample: the empty factors, as qlp returns them
        return UrvFactorization(np.zeros((m, 0)), np.zeros((0, 0)), np.zeros((0, 0)),
                                Provenance("powerurv", q=q))
    seed = as_seed(seed)
    warnings: list[str] = []
    tall = q >= 1 and m >= _TALL_RATIO * n
    # Q0 stays in LAPACK's compact form until it lifts U; _orth reports a
    # non-finite R0 as an overflow of the sample
    q0, b = _compact_qr(a) if tall else (None, a)
    v = _sample_basis(b, gaussian_matrix(n, n, seed), 2 * q, reorth, warnings, "right-factor QR")
    # householder_qr reports a non-finite R as an overflow; A V is a fresh
    # product that nothing reads again, so it is factored in place
    u, r = householder_qr(finite_result(product(b, v), "product A V"), overwrite_a=True)
    del b  # R0 is not read again: drop it before the lift, the call's peak
    if tall:
        u = _apply_q(q0, u)
    prov = Provenance("powerurv", q=q, warnings=tuple(warnings))
    return UrvFactorization(u, r, v, prov)


def ddh_urv(a, seed=0) -> UrvFactorization:
    """URV factorization by QR against a random Haar matrix.

    Equivalent to ``power_urv`` with ``q = 0``; kept as its own entry
    point because it needs no parameters beyond the seed.
    """
    f = power_urv(a, q=0, reorth=True, seed=seed)
    return replace(f, provenance=replace(f.provenance, algorithm="ddh"))


def qlp(a) -> UrvFactorization:
    """Stewart's QLP factorization, deterministic.

    A column-pivoted QR of ``a.T`` gives ``a.T = Q1 R1 P1^T``; a second
    column-pivoted QR of ``(R1 P1^T)^T`` gives ``Q2 R2 P2^T``.  Then
    ``u = Q2``, ``r = R2`` and ``v = Q1 P2`` form a URV factorization
    whose diagonal of ``r`` tracks the singular values far better than
    a single pivoted QR.  Both pivoted QRs are LAPACK ``geqp3``
    (``core.pivoted_qr``), the BLAS-3 algorithm QLP was designed to run on
    (Stewart 1999; Quintana-Orti, Sun & Bischof 1998).
    """
    a = validated_matrix(a)
    m, n = a.shape
    if m < n:
        raise ValueError(f"qlp requires rows >= cols, got {m}x{n}")
    q1, r1, perm1 = pivoted_qr(a.T)
    # b = P1 R1^T, row j of b being row argsort(perm1)[j] of R1^T
    b = _fortran_copy(finite_result(r1, "first pivoted QR").T, np.argsort(perm1))
    del r1  # b holds its values: drop it before the second QR, the call's peak
    second = pivoted_qr(b)
    finite_result(second.r, "second pivoted QR")
    v = q1[:, second.perm]
    return UrvFactorization(second.q, second.r, v, Provenance("qlp"))


def rsvd(a, ell: int, q: int = 1, reorth: bool = True, seed=0) -> RsvdFactorization:
    """Randomized SVD of rank ``ell`` with power iteration.

    The sample ``Y = A (A^T A)^q G`` is built by the same sampler and
    renormalization policy as ``power_urv`` (with ``reorth``, an LU
    after each of the first 2q products) and, at equal seed,
    with the same Gaussian draw restricted to its first ``ell`` columns
    (the column-major fill of ``gaussian_matrix`` guarantees the prefix
    matches bit for bit).  An unpivoted QR of Y gives the range basis Q;
    a deterministic SVD of ``Q^T A`` (computed on its tall transpose)
    yields the singular values and right vectors, and ``u = Q W`` lifts
    the left vectors back.
    """
    a = validated_matrix(a)
    m, n = a.shape
    ell, q = int_param(ell, "ell"), int_param(q, "q")
    if not 1 <= ell < min(m, n):
        raise ValueError(f"ell must satisfy 1 <= ell < min(m, n) = {min(m, n)}, got {ell}")
    if q < 0:
        raise ValueError("q must be nonnegative")
    seed = as_seed(seed)
    warnings: list[str] = []
    qq = _sample_basis(a, gaussian_matrix(n, ell, seed), 2 * q + 1, reorth, warnings,
                       "range-finder QR")
    tall = finite_result(product(a.T, qq), "product Q^T A")
    w_t = svd(tall)  # tall = v_r diag(sigma) w^T
    u = qq @ w_t.v
    prov = Provenance("rsvd", q=q, warnings=tuple(warnings))
    return RsvdFactorization(u, w_t.sigma, w_t.u, prov)


def truncate(f: UrvFactorization, k: int):
    """Rank-k approximant factors of a URV factorization.

    Returns ``(u_k, m_k)`` with ``u_k = u[:, :k]`` (m x k) and
    ``m_k = r[:k, :] @ v.T`` (k x n), so the approximant is their
    product.  ``k = 0`` yields empty factors (the zero approximant).
    A non-finite entry of u, r or v is a ``ValueError`` naming the factor.
    """
    u, r, v = (finite_array(getattr(f, name), f"f.{name}") for name in ("u", "r", "v"))
    n = r.shape[0]
    k = int_param(k, "k")
    if not 0 <= k <= n:
        raise ValueError(f"truncation rank must be in [0, {n}], got {k}")
    return u[:, :k], r[:k, :] @ v.T
