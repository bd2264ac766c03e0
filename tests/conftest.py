"""Shared fixtures and independent numerical oracles."""

import numpy as np
import pytest

import urv
from urv.core import _WIDE_QR_BLOCK, _WIDE_QR_FROM

# the first multiple of householder_qr's wide dgeqrt block at or past the
# column count where it switches to it: n = WIDE_EDGE - 1, WIDE_EDGE and
# WIDE_EDGE + 1 end on a panel one short of, exactly at and one past a
# block edge of the wide block
WIDE_EDGE = -(-_WIDE_QR_FROM // _WIDE_QR_BLOCK) * _WIDE_QR_BLOCK


def jacobi_eigenvalues(s, max_sweeps=30):
    """Eigenvalues of a symmetric matrix by cyclic two-sided Jacobi.

    Deliberately independent of any LAPACK path; used to cross-check
    the production SVD at small sizes.
    """
    a = np.array(s, dtype=np.float64, copy=True)
    n = a.shape[0]
    tol = 1e-15 * np.linalg.norm(a)
    for _ in range(max_sweeps):
        off = np.sqrt(2.0 * np.sum(np.tril(a, -1) ** 2))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(1.0, t)
                sn = t * c
                rot_p = c * a[:, p] - sn * a[:, q]
                rot_q = sn * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - sn * a[q, :]
                rot_q = sn * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
    return np.sort(np.diag(a))[::-1]


def reconstruction_error(f, a):
    return np.linalg.norm(f.u @ f.r @ f.v.T - a) / np.linalg.norm(a)


@pytest.fixture(scope="session")
def matrix_fast():
    return urv.gen_fast_decay(seed=0)


@pytest.fixture(scope="session")
def matrix_slow():
    return urv.gen_slow_decay(seed=0)


@pytest.fixture(scope="session")
def matrix_sshape():
    return urv.gen_s_shaped(seed=0)


@pytest.fixture(scope="session")
def matrix_bie():
    return urv.gen_bie(200)


@pytest.fixture(scope="session")
def sigma_slow(matrix_slow):
    return urv.reference_singular_values(matrix_slow[0])


@pytest.fixture(scope="session")
def sigma_fast(matrix_fast):
    return urv.reference_singular_values(matrix_fast[0])
