"""Deterministic kernel tests: QR, CPQR, SVD, spectral norm."""

import numpy as np
import pytest

import urv
from urv.core import EPS

from conftest import jacobi_eigenvalues


class TestHouseholderQr:
    def test_identity(self):
        res = urv.householder_qr(np.eye(3))
        assert np.array_equal(res.q, np.eye(3))
        assert np.array_equal(res.r, np.eye(3))

    def test_zero_matrix(self):
        res = urv.householder_qr(np.zeros((3, 2)))
        assert np.array_equal(res.r, np.zeros((2, 2)))
        assert np.allclose(res.q.T @ res.q, np.eye(2), atol=1e-15)
        assert np.array_equal(res.q @ res.r, np.zeros((3, 2)))

    @pytest.mark.parametrize("seed", [1, 8])
    def test_seeded_gaussian_recon(self, seed):
        a = urv.gaussian_matrix(50, 30, urv.RngSeed(seed))
        res = urv.householder_qr(a)
        assert np.linalg.norm(res.q @ res.r - a) <= 1e-13 * np.linalg.norm(a)

    def test_matches_cholesky_oracle(self):
        # a QR with positive diagonal is unique: r = cholesky(a^T a)^T
        a = urv.gaussian_matrix(50, 30, urv.RngSeed(42))
        res = urv.householder_qr(a)
        r = np.linalg.cholesky(a.T @ a).T
        assert np.linalg.norm(res.r - r) <= 100 * 50 * EPS * np.linalg.norm(a)
        q = np.linalg.solve(r.T, a.T).T
        assert np.linalg.norm(res.q - q) <= 100 * 50 * EPS * np.sqrt(30)

    @pytest.mark.parametrize("shape", [(40, 40), (200, 160), (33, 1)])
    def test_invariants(self, shape):
        m, n = shape
        a = urv.gaussian_matrix(m, n, urv.RngSeed(9))
        res = urv.householder_qr(a)
        bound = 10 * max(m, n) * EPS
        assert np.linalg.norm(res.q.T @ res.q - np.eye(n)) <= bound
        assert np.linalg.norm(res.q @ res.r - a) <= bound * np.linalg.norm(a)
        assert np.array_equal(res.r, np.triu(res.r))
        assert (np.diag(res.r) >= 0).all()

    def test_deterministic(self):
        a = urv.gaussian_matrix(60, 40, urv.RngSeed(3))
        r1 = urv.householder_qr(a)
        r2 = urv.householder_qr(a)
        assert np.array_equal(r1.q, r2.q)
        assert np.array_equal(r1.r, r2.r)

    def test_rejects_wide(self):
        with pytest.raises(ValueError):
            urv.householder_qr(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        a = np.ones((3, 2))
        a[1, 1] = np.nan
        with pytest.raises(ValueError):
            urv.householder_qr(a)

    @pytest.mark.parametrize("c", [1e-200, 1e155])
    def test_extreme_scale(self, c):
        # factors of c*a are those of a, rescaled, to roundoff: no overflow or underflow
        a = urv.gaussian_matrix(60, 40, urv.RngSeed(4))
        ref = urv.householder_qr(a)
        res = urv.householder_qr(c * a)
        assert np.isfinite(res.q).all() and np.isfinite(res.r).all()
        bound = 100 * 60 * EPS
        assert np.linalg.norm(res.q @ (res.r / c) - a) <= bound * np.linalg.norm(a)
        assert np.linalg.norm(res.q - ref.q) <= bound * np.sqrt(40)
        assert np.allclose(res.r / c, ref.r, rtol=0, atol=bound * np.linalg.norm(a))


class TestCpqr:
    def test_sorted_diagonal_kept(self):
        res = urv.cpqr(np.diag([3.0, 2.0, 1.0]))
        assert res.perm.tolist() == [0, 1, 2]
        assert np.allclose(np.abs(np.diag(res.r)), [3, 2, 1])

    def test_reversed_diagonal_pivoted(self):
        res = urv.cpqr(np.diag([1.0, 2.0, 3.0]))
        assert res.perm.tolist() == [2, 1, 0]
        assert np.allclose(np.abs(np.diag(res.r)), [3, 2, 1])

    def test_kahan_unrevealing(self):
        # pivoting stays put on Kahan's matrix and the last diagonal
        # entry overestimates sigma_min by the frozen factor
        a = urv.gen_kahan(8, 1.2)
        res = urv.cpqr(a)
        assert res.perm.tolist() == list(range(8))
        smin = urv.singular_values(a)[-1]
        ratio = abs(res.r[-1, -1]) / smin
        assert ratio == pytest.approx(4.8391436786357582, rel=1e-10)

    @pytest.mark.parametrize("shape", [(30, 20), (20, 30), (25, 25)])
    def test_invariants(self, shape):
        a = urv.gaussian_matrix(*shape, urv.RngSeed(11))
        res = urv.cpqr(a)
        m, n = shape
        k = min(m, n)
        assert res.q.shape == (m, k) and res.r.shape == (k, n)
        diag = np.abs(np.diag(res.r))
        assert (np.diff(diag) <= 1e-14 * diag[0]).all()
        bound = 10 * max(m, n) * EPS
        assert np.linalg.norm(res.q @ res.r - a[:, res.perm]) <= bound * np.linalg.norm(a)
        assert np.linalg.norm(res.q.T @ res.q - np.eye(k)) <= bound
        assert sorted(res.perm.tolist()) == list(range(n))

    def test_matches_lapack_pivots(self):
        # graded columns give unambiguous pivots; sequences must agree
        import scipy.linalg as sla

        rng = np.random.default_rng(1)
        for _ in range(5):
            a = rng.standard_normal((40, 25)) * np.geomspace(1, 1e-6, 25)
            res = urv.cpqr(a)
            _, _, perm = sla.qr(a, pivoting=True)
            assert np.array_equal(res.perm, perm)


class TestSvd:
    def test_diag(self):
        res = urv.svd(np.diag([2.0, 1.0]))
        assert np.allclose(res.sigma, [2, 1])
        assert np.allclose(np.abs(res.u), np.eye(2), atol=1e-15)
        assert np.allclose(np.abs(res.v), np.eye(2), atol=1e-15)

    def test_rank_one(self):
        u = np.array([3.0, 4.0]) / 5.0
        v = np.array([1.0, 2.0, 2.0]) / 3.0
        res = urv.svd(np.outer(v, u))
        assert res.sigma[0] == pytest.approx(1.0, rel=1e-14)
        assert res.sigma[1] == pytest.approx(0.0, abs=1e-14)

    def test_against_jacobi_oracle(self):
        a = urv.gaussian_matrix(20, 15, urv.RngSeed(5))
        res = urv.svd(a)
        lam = jacobi_eigenvalues(a.T @ a)
        assert np.allclose(res.sigma, np.sqrt(np.clip(lam, 0, None)), rtol=1e-10)

    def test_reconstruction_invariants(self):
        a = urv.gaussian_matrix(40, 25, urv.RngSeed(6))
        res = urv.svd(a)
        bound = 100 * 40 * EPS
        assert np.linalg.norm((res.u * res.sigma) @ res.v.T - a) <= bound * np.linalg.norm(a)
        assert (np.diff(res.sigma) <= 0).all()
        assert (res.sigma >= 0).all()

    def test_haar_invariance(self):
        # singular values are invariant under orthogonal multiplication
        a = urv.gaussian_matrix(15, 12, urv.RngSeed(8))
        s0 = urv.singular_values(a)
        w1 = urv.haar_orthogonal(15, urv.RngSeed(100))
        w2 = urv.haar_orthogonal(12, urv.RngSeed(101))
        s1 = urv.singular_values(w1 @ a @ w2)
        assert np.allclose(s0, s1, rtol=1e-10, atol=1e-12 * s0[0])


class TestSpectralNorm:
    def test_zero(self):
        assert urv.spectral_norm(np.zeros((4, 3))) == 0.0

    def test_orthogonal(self):
        q = urv.haar_orthogonal(10, urv.RngSeed(1))
        assert urv.spectral_norm(q) == pytest.approx(1.0, rel=1e-10)

    def test_diag(self):
        assert urv.spectral_norm(np.diag([5.0, 1.0])) == pytest.approx(5.0, rel=1e-14)
