"""Correctness gate of the benchmark.

Every output of a timed call is checked here, outside the timed region.
A failed check raises ``CheckFailed``; the runner counts it as a failed
operation and goes on.  The tolerances are those of the acceptance suite:

* reconstruction ``||A - U R V^T||_F`` and orthonormality
  ``||Q^T Q - I||_F`` at most ``100 max(m, n) eps`` (times ``||A||_F`` for
  the reconstruction), as in criterion 1;
* R exactly upper-triangular;
* Eckart-Young: a rank-k error is at least ``(1 - 1e-10) sigma_{k+1}``, as
  in criterion 2, less the roundoff of computing either side,
  ``100 max(m, n) eps sigma_1`` (without it, a tiny trailing singular value
  computed to full absolute accuracy fails the relative test);
* the PowerURV/RSVD projector discrepancy at most 1e-10, as in criterion 5;
* a profile CSV has the header ``urv.CSV_HEADER`` and n + 1 rows.

The reference singular values and residual norms are computed here with
numpy directly, independently of the library.
"""

from __future__ import annotations

import csv
import json

import numpy as np

EPS = float(np.finfo(np.float64).eps)
LEMMA_TOL = 1e-10
EY_SLACK = 1 - 1e-10
# Ranks below this share of sigma_1 are not resolvable in double precision;
# the error ratio is taken over the others (as demos/accuracy_benchmark.py does).
RESOLVABLE = 1e-13


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def reference_sigma(a) -> np.ndarray:
    """sigma_{k+1}(a) for k = 0..n, padded with a trailing 0."""
    s = np.linalg.svd(a, compute_uv=False)
    return np.concatenate([s, np.zeros(a.shape[1] + 1 - s.size)])


def _orthonormal(q, tol, what):
    k = q.shape[1]
    err = np.linalg.norm(q.T @ q - np.eye(k))
    require(err <= tol, f"{what} not orthonormal: ||Q^T Q - I||_F = {err:.3e} > {tol:.3e}")


def check_urv(a, f):
    """A URV factorization of ``a``: shapes, triangularity, reconstruction, orthonormality."""
    m, n = a.shape
    require(f.u.shape == (m, n) and f.r.shape == (n, n) and f.v.shape == (n, n),
            f"bad shapes u{f.u.shape} r{f.r.shape} v{f.v.shape}")
    require(all(np.isfinite(x).all() for x in (f.u, f.r, f.v)), "non-finite factor")
    require(not np.tril(f.r, -1).any(), "R is not exactly upper-triangular")
    tol = 100 * max(m, n) * EPS
    resid = np.linalg.norm((f.u @ f.r) @ f.v.T - a)
    bound = tol * np.linalg.norm(a)
    require(resid <= bound, f"reconstruction {resid:.3e} > {bound:.3e}")
    _orthonormal(f.u, tol, "U")
    _orthonormal(f.v, tol, "V")


def check_rsvd(a, f, ell):
    m, n = a.shape
    require(f.u.shape == (m, ell) and f.v.shape == (n, ell) and f.sigma.shape == (ell,),
            f"bad shapes u{f.u.shape} sigma{f.sigma.shape} v{f.v.shape}")
    require(all(np.isfinite(x).all() for x in (f.u, f.sigma, f.v)), "non-finite factor")
    require((f.sigma >= 0).all() and (np.diff(f.sigma) <= 0).all(),
            "singular values not nonnegative and nonincreasing")
    tol = 100 * max(m, n) * EPS
    _orthonormal(f.u, tol, "U")
    _orthonormal(f.v, tol, "V")


def check_svd(a, res, sigma_ref):
    m, n = a.shape
    tol = 100 * max(m, n) * EPS
    resid = np.linalg.norm((res.u * res.sigma) @ res.v.T - a)
    bound = tol * np.linalg.norm(a)
    require(resid <= bound, f"svd reconstruction {resid:.3e} > {bound:.3e}")
    _orthonormal(res.u, tol, "U")
    _orthonormal(res.v, tol, "V")
    gap = np.max(np.abs(res.sigma - sigma_ref[:n]))
    require(gap <= tol * sigma_ref[0], f"singular values off by {gap:.3e}")


def check_lemma(d):
    require(np.isfinite(d) and 0 <= d <= LEMMA_TOL, f"lemma discrepancy {d!r} > {LEMMA_TOL}")


def truncation_errors(a, u, rows, ks):
    """Exact spectral norms of ``a - u[:, :k] @ rows[:k]`` for each k in ks."""
    return np.array([np.linalg.norm(a - u[:, :k] @ rows[:k], 2) for k in ks])


def check_eckart_young(errors, sigma_ref, ks, shape):
    """Rank-k errors (k in ks) are no smaller than the optimal sigma_{k+1}."""
    low = np.asarray(errors) < EY_SLACK * sigma_ref[ks] - 100 * max(shape) * EPS * sigma_ref[0]
    require(not low.any(), f"Eckart-Young violated at k = {np.asarray(ks)[low].tolist()}")


def error_ratio(errors, sigma_ref, ks):
    """Median over ks of the rank-k error over the optimal one."""
    return float(np.median(np.asarray(errors) / sigma_ref[ks]))


def resolvable_ranks(sigma_ref, limit=None):
    """Ranks 1 <= k < n whose optimal error is resolvable (and k < limit)."""
    n = sigma_ref.size - 1
    ks = np.arange(1, n)
    ks = ks[sigma_ref[ks] > RESOLVABLE * sigma_ref[0]]
    if limit is not None:
        ks = ks[ks < limit]
    return ks


def read_profile(path, header, n):
    """Rows of a profile CSV as a float array, after the header and row checks."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    require(lines and lines[0] == header, f"{path}: header {lines[:1]!r} != {header!r}")
    rows = list(csv.reader(lines[1:]))
    require(len(rows) == n + 1, f"{path}: {len(rows)} rows, expected {n + 1}")
    data = np.array(rows, dtype=float)
    require(np.isfinite(data).all(), f"{path}: non-finite entries")
    require((data[:, 0] == np.arange(n + 1)).all(), f"{path}: k column is not 0..n")
    return data


def check_profile(path, header, a, sigma_ref, version, alg, ell=None):
    """A ``urv bench`` CSV and its manifest; returns the error ratio.

    Checks the schema, the reference column against numpy's singular
    values, the k = 0 error against ||a||_2, Eckart-Young at every rank
    and, for URV algorithms, the full-rank reconstruction error.
    """
    m, n = a.shape
    data = read_profile(path, header, n)
    columns = header.split(",")
    abs_sp = data[:, columns.index("abs_sp")]
    abs_fro = data[:, columns.index("abs_fro")]
    ref = data[:, columns.index("sigma_ref")]
    tol = 100 * max(m, n) * EPS
    require(np.max(np.abs(ref - sigma_ref)) <= tol * sigma_ref[0],
            f"{path}: sigma_ref column disagrees with numpy")
    require(abs(abs_sp[0] - sigma_ref[0]) <= tol * sigma_ref[0],
            f"{path}: k = 0 error is not ||A||_2")
    ks = np.nonzero(sigma_ref > 0)[0]
    check_eckart_young(abs_sp[ks], sigma_ref, ks, a.shape)
    if ell is None:
        bound = tol * np.linalg.norm(a)
        require(abs_fro[n] <= bound, f"{path}: reconstruction {abs_fro[n]:.3e} > {bound:.3e}")
    with open(path.rsplit(".", 1)[0] + ".json") as fh:
        manifest = json.load(fh)
    require(manifest.get("library_version") == version, f"{path}: manifest version")
    require(manifest.get("algorithm", {}).get("name") == alg, f"{path}: manifest algorithm")
    ks = resolvable_ranks(sigma_ref, ell)
    return error_ratio(abs_sp[ks], sigma_ref, ks)
