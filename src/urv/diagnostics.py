"""Rank-revealing quality metrics and cost models.

Per-rank approximation error curves in spectral and Frobenius norms,
block singular-value (reveal) profiles, orthogonal-projection errors,
the numerical check of the PowerURV/RSVD range-equivalence, and
leading-order flop models for each algorithm.

Spectral errors of a URV factorization come from one per-rank pass.
Because r is exactly upper triangular, the rank-k residual is

    a - u[:, :k] r[:k, :] v^T  =  D + u[:, k:] r[k:, k:] v[:, k:]^T,

with D = a - u r v^T, so its spectral norm equals ||r[k:, k:]||_2 (the
``smax_r22`` column of the reveal profile) to within the slack

    eta_k = ||D||_F + (||u^T u - I||_F + ||v^T v - I||_F) ||r[k:, k:]||_2,

a first-order bound that accounts for the backward error of the
factorization and the loss of orthonormality in u and v.

A rank whose trailing-block norm exceeds ``CERTIFY_FACTOR * eta_k``
takes that norm as its spectral error; every other rank, the
roundoff-level tail, gets an exact SVD of its residual matrix.  Frobenius
errors are exact at every rank, also where squares of entries underflow.

Two Gram-matrix passes replace an SVD per rank, each exact to roundoff.
Because r is upper triangular, (r r^T)[k:, k:] = r22 r22^T exactly, so
``smax_r22`` reads sqrt(lambda_max) of the blocks of one product r r^T,
formed after scaling r by ``2**-max_exponent(r)``.  The rank-k residual
of an RSVD of rank ell is E + u[:, k:ell] diag(sigma[k:ell]) v[:, k:ell]^T
with u^T E = 0 (Halko, Martinsson & Tropp 2011), so its Gram matrix is
E^T E plus the terms sigma_j^2 v_j v_j^T, j = k..ell-1: walking k from
ell down to 0 adds one positive semidefinite term per rank, nothing
cancels, and each lambda_max is accurate relative to the norm of its
Gram matrix.  A rank whose Gram eigenvalue lies below ``GRAM_FLOOR``,
where squares of the entries may have underflowed, takes the exact SVD
instead.  ``smin_r11`` stays on the SVDs of the leading blocks.
``error_profile`` measures ``a * 2**-max_exponent(a)`` and scales the
norms back: exact, and free of overflow and underflow.

Every SVD here is a ``core.svdvals`` call and every eigenvalue a
``core.eigvalsh`` call.  Each public function checks every array it reads
(``a``, the factors, a basis ``u``, a cached ``sigma_ref`` or
``smax_r22``) and every integer parameter once, before any arithmetic,
with a ``ValueError`` that names it; the private passes check nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .core import eigvalsh, finite_array, int_param, max_exponent, svdvals, validated_matrix
from .factorizations import RsvdFactorization, UrvFactorization, power_urv, rsvd

CSV_HEADER = "k,abs_sp,abs_fro,rel_sp,rel_fro,sigma_ref,smin_r11,smax_r22"

GEMM_QR = "gemm_qr"
CPQR_CLASS = "cpqr"
LEVEL2 = "level2"

# A URV rank takes ||r[k:, k:]||_2 as its spectral error when that norm
# exceeds this multiple of its slack eta_k (see the module docstring).
CERTIFY_FACTOR = 1e3

# A Gram matrix whose largest eigenvalue is below this floor gives way to
# an SVD.  Its matrix is scaled to entries of at most 1, so the floor sits
# far above 2**-1022, where squares of entries start to underflow: above
# it, what underflowed is below 2**-120 of the eigenvalue.
GRAM_FLOOR = 2.0**-900


@dataclass(frozen=True)
class ErrorProfile:
    """Per-rank truncation errors of one factorization.

    Row k holds the errors of the rank-k approximant, k = 0..n;
    ``sigma_ref[k]`` is the optimal spectral error sigma_{k+1}(a)
    (0 at k = n).
    """

    k: np.ndarray
    abs_spectral: np.ndarray
    abs_frobenius: np.ndarray
    rel_spectral: np.ndarray
    rel_frobenius: np.ndarray
    sigma_ref: np.ndarray


@dataclass(frozen=True)
class RevealProfile:
    """Per-rank block singular values of a triangular factor.

    ``smin_r11[k]`` is the smallest singular value of the leading k x k
    block of r (0 at k = 0) and ``smax_r22[k]`` the largest singular
    value of the trailing block (0 at k = n), for k = 0..n.
    """

    smin_r11: np.ndarray
    smax_r22: np.ndarray


@dataclass(frozen=True)
class FlopModel:
    """Leading-order flop count of one algorithm, split by kernel class."""

    algorithm: str
    m: int
    n: int
    q: int
    by_class: dict

    @property
    def total(self) -> float:
        return float(sum(self.by_class.values()))


def reference_singular_values(a) -> np.ndarray:
    """sigma_{k+1}(a) for k = 0..n: the singular values padded with 0."""
    a = validated_matrix(a)
    s = svdvals(a)
    return np.concatenate([s, np.zeros(a.shape[1] + 1 - s.size)])


def _factor_names(f) -> tuple[str, str, str]:
    """The fields of the three arrays of a URV or RSVD factorization."""
    return ("u", "sigma", "v") if isinstance(f, RsvdFactorization) else ("u", "r", "v")


def _gram_norm(gram) -> float:
    """sqrt(lambda_max(gram)), or NaN below ``GRAM_FLOOR``, where an SVD must decide."""
    lam = eigvalsh(gram)[-1]
    return float(np.sqrt(lam)) if lam >= GRAM_FLOOR else np.nan


def _trailing_spectral_norms(r) -> np.ndarray:
    """||r[k:, k:]||_2 for k = 0..n (0 at k = n) of a finite upper-triangular r."""
    n = r.shape[0]
    scale = max_exponent(r)
    r = np.ldexp(r, -scale)
    gram = r @ r.T
    norms = np.array([_gram_norm(gram[k:, k:]) for k in range(n)] + [0.0])
    for k in np.flatnonzero(np.isnan(norms)):
        norms[k] = svdvals(r[k:, k:])[0]
    return np.ldexp(norms, scale)


def _spectral(x) -> float:
    """||x||_2 of a finite array the caller has checked (0.0 for an empty one)."""
    s = svdvals(x)
    return float(s[0]) if s.size else 0.0


def _frobenius(x) -> float:
    """||x||_F; below ``sqrt(GRAM_FLOOR)`` retaken of x scaled by ``2**-max_exponent(x)``."""
    fro = float(np.linalg.norm(x))
    if fro * fro < GRAM_FLOOR:
        scale = max_exponent(x)
        fro = float(np.ldexp(np.linalg.norm(np.ldexp(x, -scale)), scale))
    return fro


def _low_rank_errors(a, u, rows, sp):
    """Residual norms of a - u[:, :k] @ rows[:k, :] for k = 0..u.shape[1].

    Returns ``(sp, fro)``: the Frobenius norms for every k, and ``sp``
    itself with each NaN entry replaced in place by the spectral norm.
    """
    resid = a.copy()
    kmax = u.shape[1]
    fro = np.empty(kmax + 1)
    for k in range(kmax + 1):
        if np.isnan(sp[k]):
            sp[k] = _spectral(resid)
        fro[k] = _frobenius(resid)
        if k < kmax:
            resid -= np.outer(u[:, k], rows[k, :])
    return sp, fro


def _urv_errors(a, f: UrvFactorization, smax):
    """Per-rank errors of a URV factorization, certified where possible."""
    rows = f.r @ f.v.T
    eye = np.eye(f.r.shape[0])
    orth = np.linalg.norm(f.u.T @ f.u - eye) + np.linalg.norm(f.v.T @ f.v - eye)
    eta = _frobenius(a - f.u @ rows) + orth * smax
    return _low_rank_errors(a, f.u, rows, np.where(smax > CERTIFY_FACTOR * eta, smax, np.nan))


def _rsvd_errors(a, f: RsvdFactorization):
    """Per-rank errors of an RSVD; ranks past ell repeat the rank-ell ones.

    ``a`` has entries of at most 1, so the Gram matrices cannot overflow.
    """
    rows = f.sigma[:, None] * f.v.T
    ell = f.sigma.size
    resid = a - f.u @ rows  # E
    gram = resid.T @ resid
    gram_sp = np.empty(ell + 1)
    for k in range(ell, -1, -1):
        gram_sp[k] = _gram_norm(gram)
        if k:
            gram += np.outer(rows[k - 1], rows[k - 1])
    sp, fro = _low_rank_errors(a, f.u, rows, gram_sp)
    rank = np.minimum(np.arange(a.shape[1] + 1), ell)
    return sp[rank], fro[rank]


def error_profile(a, f, sigma_ref=None, reveal=None) -> ErrorProfile:
    """Truncation error curves of a URV or RSVD factorization.

    Parameters
    ----------
    a : array_like
        The factored matrix.
    f : UrvFactorization or RsvdFactorization
        Factorization to evaluate.
    sigma_ref : array, optional
        Cached ``reference_singular_values(a)``; recomputed if absent.
    reveal : RevealProfile, optional
        Cached ``reveal_profile(f)``; for a URV factorization its
        trailing-block norms are used instead of being recomputed.  The
        result is the same either way.

    A non-finite entry of ``a``, of a factor, of ``sigma_ref`` or of the
    ``smax_r22`` that is used, a cached array without n + 1 entries, or an
    ``a`` whose shape is not the one ``f`` factors, is a ``ValueError``
    naming that array.

    Returns
    -------
    ErrorProfile
        Absolute and relative errors for every k = 0..n.  Relative
        errors are scaled by the matching norm of ``a``; they are 0 when
        ``a`` is zero, since every approximant of it is then exact.
    """
    a = validated_matrix(a)
    n = a.shape[1]
    factored = (f.u.shape[0], f.v.shape[0])
    if a.shape != factored:
        raise ValueError(f"a has shape {a.shape}, but f factors a "
                         f"{factored[0]}x{factored[1]} matrix")
    for name in _factor_names(f):
        finite_array(getattr(f, name), f"f.{name}")
    cached = {} if sigma_ref is None else {"sigma_ref": sigma_ref}
    if reveal is not None and not isinstance(f, RsvdFactorization):
        cached["reveal.smax_r22"] = reveal.smax_r22
    for name, x in cached.items():
        if finite_array(x, name).shape != (n + 1,):
            raise ValueError(f"{name} must have n + 1 = {n + 1} entries, got shape {np.shape(x)}")
    if sigma_ref is None:
        sigma_ref = reference_singular_values(a)
    scale = max_exponent(a)
    a = np.ldexp(a, -scale)
    if isinstance(f, RsvdFactorization):
        sp, fro = _rsvd_errors(a, replace(f, sigma=np.ldexp(f.sigma, -scale)))
    else:
        smax = _trailing_spectral_norms(f.r) if reveal is None else reveal.smax_r22
        sp, fro = _urv_errors(a, replace(f, r=np.ldexp(f.r, -scale)), np.ldexp(smax, -scale))
    sp, fro = np.ldexp(sp, scale), np.ldexp(fro, scale)
    return ErrorProfile(
        k=np.arange(n + 1),
        abs_spectral=sp,
        abs_frobenius=fro,
        rel_spectral=np.divide(sp, sp[0], out=np.zeros_like(sp), where=sp[0] > 0),
        rel_frobenius=np.divide(fro, fro[0], out=np.zeros_like(fro), where=fro[0] > 0),
        sigma_ref=sigma_ref,
    )


def reveal_profile(f) -> RevealProfile:
    """Block singular-value profile of the triangular factor of ``f``.

    For an RSVD factorization the factor is the n x n diagonal of its
    singular values padded with zeros, n = ``f.v.shape[0]``.  A non-finite
    entry of any array of ``f`` is a ``ValueError`` naming it.
    """
    for name in _factor_names(f):
        finite_array(getattr(f, name), f"f.{name}")
    if isinstance(f, RsvdFactorization):
        n, ell = f.v.shape
        smin = np.zeros(n + 1)
        smax = np.zeros(n + 1)
        smin[1 : ell + 1] = f.sigma
        smax[:ell] = f.sigma
        return RevealProfile(smin, smax)
    r = f.r
    n = r.shape[0]
    smin = np.array([0.0] + [svdvals(r[:k, :k])[-1] for k in range(1, n + 1)])
    return RevealProfile(smin, _trailing_spectral_norms(r))


def _check_basis(a, u, k: int, name: str):
    """Refuse a ``u`` that is not m x l for the m x n ``a``, or a ``k`` outside [0, l]."""
    if u.ndim != 2 or u.shape[0] != a.shape[0]:
        raise ValueError(f"u must be 2-dimensional with the {a.shape[0]} rows of a, "
                         f"got shape {u.shape}")
    if not 0 <= k <= u.shape[1]:
        raise ValueError(f"{name} must be in [0, {u.shape[1]}], got {k}")


def _projection_error(a, u, k: int) -> float:
    """``projection_error`` of arrays its caller has checked."""
    uk = u[:, :k]
    return _spectral(a - uk @ (uk.T @ a))


def projection_error(a, u, k: int) -> float:
    """Spectral norm of ``a - u[:, :k] @ u[:, :k].T @ a``.

    A non-finite entry of ``a`` or ``u``, a ``u`` that is not 2-d with the
    rows of ``a``, and a ``k`` that is not an int in [0, u.shape[1]] are a
    ``ValueError`` naming it.
    """
    a, u, k = validated_matrix(a), finite_array(u, "u"), int_param(k, "k")
    _check_basis(a, u, k, "k")
    return _projection_error(a, u, k)


def projection_error_curve(a, u, kmax: int) -> np.ndarray:
    """``projection_error(a, u, k)`` for every k = 0..kmax, with its checks made once."""
    a, u, kmax = validated_matrix(a), finite_array(u, "u"), int_param(kmax, "kmax")
    _check_basis(a, u, kmax, "kmax")
    return np.array([_projection_error(a, u, k) for k in range(kmax + 1)])


def lemma_check(a, ell: int, q: int = 1, seed=0, reorth: bool = True) -> float:
    """Discrepancy between the PowerURV and RSVD rank-ell projectors.

    Runs both algorithms on the shared Gaussian draw and returns

        || U(:,1:ell) U(:,1:ell)^T A  -  U_rsvd U_rsvd^T A ||_F / ||A||_F

    which is zero in exact arithmetic whenever the powered sample has
    full rank.  A numerically rank-deficient sample is recorded in the
    factorization provenances; the value is still returned but is not
    meaningful in that case.  Both norms are taken of arrays scaled by
    ``2**-max_exponent(a)``, so they neither overflow nor underflow.
    """
    a = validated_matrix(a)
    # checked here too, so that a bad ell is refused before power_urv runs
    ell, q = int_param(ell, "ell"), int_param(q, "q")
    purv = power_urv(a, q=q, reorth=reorth, seed=seed)
    rs = rsvd(a, ell, q=q, reorth=reorth, seed=seed)
    up = purv.u[:, :ell]
    scale = max_exponent(a)
    diff = up @ (up.T @ a) - rs.u @ (rs.u.T @ a)
    np.ldexp(diff, -scale, out=diff)
    return float(np.linalg.norm(diff) / np.linalg.norm(np.ldexp(a, -scale)))


def _flop_terms(algorithm: str, m: int, n: int, q: int):
    m2n, mn2, n3 = m * m * n, m * n * n, n**3
    if algorithm in ("powerurv", "ddh"):
        return {
            GEMM_QR: 2 * (2 * q + 1) * m2n
            + (4 * q + 2) * mn2
            - Fraction(2, 3) * (2 * q + 1) * n3
        }
    if algorithm == "qlp":
        return {CPQR_CLASS: 2 * mn2 + Fraction(2, 3) * n3}
    if algorithm == "randutv":
        return {GEMM_QR: (5 + 2 * q) * mn2 - Fraction(1, 3) * (3 + 2 * q) * n3}
    if algorithm == "golub_reinsch":
        return {LEVEL2: 4 * m2n + 8 * mn2 + 9 * n3}
    raise ValueError(f"unknown algorithm tag {algorithm!r}")


def flop_estimate(algorithm: str, m: int, n: int, q: int = 0) -> FlopModel:
    """Leading-order flop model of one algorithm.

    Counts are exact polynomial evaluations (internally rational) with a
    breakdown by kernel class: matrix-multiply/unpivoted-QR work, CPQR
    work, and other level-2-bound work.

    Tags: ``powerurv``, ``ddh``, ``qlp``, ``randutv``, ``golub_reinsch``.
    """
    m, n, q = int_param(m, "m"), int_param(n, "n"), int_param(q, "q")
    if not (m >= n >= 1):
        raise ValueError(f"need m >= n >= 1, got m={m} n={n}")
    if q < 0:
        raise ValueError("q must be nonnegative")
    if algorithm == "ddh":
        q = 0
    terms = _flop_terms(algorithm, m, n, q)
    by_class = {GEMM_QR: 0.0, CPQR_CLASS: 0.0, LEVEL2: 0.0}
    for cls, val in terms.items():
        by_class[cls] = float(val)
    return FlopModel(algorithm, m, n, q, by_class)


def write_profile_csv(path, err: ErrorProfile, rev: RevealProfile) -> None:
    """Write the combined per-rank profile in the library CSV schema.

    One row per k with 17 significant digits per value; the header is
    fixed so downstream plotting scripts can rely on it.
    """
    cols = (
        err.k,
        err.abs_spectral,
        err.abs_frobenius,
        err.rel_spectral,
        err.rel_frobenius,
        err.sigma_ref,
        rev.smin_r11,
        rev.smax_r22,
    )
    with open(path, "w", newline="\n") as fh:
        np.savetxt(fh, np.column_stack(cols), fmt=["%d"] + ["%.17g"] * 7, delimiter=",",
                   header=CSV_HEADER, comments="")
