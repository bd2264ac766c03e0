"""Deterministic kernel tests: QR, CPQR, LU basis, SVD, spectral norm."""

import ast
import ctypes
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import urv
from urv.core import (EPS, _QR_BLOCK, _SIGNATURES, _WIDE_QR_BLOCK, _WIDE_QR_FROM, _compact_qr,
                      _haar_q, _lapack, _normalized_r, _qr_block, eigvalsh, lu_basis,
                      max_exponent, pivoted_qr, product)
from urv.factorizations import _orth

from conftest import WIDE_EDGE, jacobi_eigenvalues

# column counts around the switch to the wide dgeqrt block and at its edges
_WIDE_NS = (_WIDE_QR_FROM - 1, _WIDE_QR_FROM, _WIDE_QR_FROM + 1,
            WIDE_EDGE - 1, WIDE_EDGE, WIDE_EDGE + 1)

def _signed_numpy_qr(a):
    """numpy's LAPACK QR with the signs flipped to diag(r) >= 0."""
    q, r = np.linalg.qr(a)
    neg = np.diagonal(r) < 0.0
    q[:, neg] *= -1.0
    r[neg, :] *= -1.0
    return q, r


class TestLapackBinding:
    def test_illegal_argument_is_linalg_error(self, capfd):
        # lda = 1 < m = 3: LAPACK reports the LDA parameter through info (and prints it)
        t = np.zeros((2, 2), order="F")
        with pytest.raises(np.linalg.LinAlgError, match="dgeqrt failed with info = -5"):
            _lapack("dgeqrt", 3, 2, 2, np.zeros((3, 2), order="F"), 1, t, 2, t.copy(order="F"))
        assert "DGEQRT" in "".join(capfd.readouterr())
        with pytest.raises(np.linalg.LinAlgError, match="dgetrf failed with info = -4"):
            _lapack("dgetrf", 3, 2, np.zeros((3, 2), order="F"), 1, np.zeros(2, dtype=np.int64))
        assert "DGETRF" in "".join(capfd.readouterr())

    @pytest.mark.parametrize("bad", ["C", "readonly", "int32", "list"])
    def test_refuses_other_arrays(self, bad):
        # an array argument must be a writeable Fortran-contiguous float64
        # ndarray, as LAPACK reads it in place; anything else is refused
        # before LAPACK runs
        a = np.zeros((3, 2), order="F")
        if bad == "C":
            src = np.zeros((3, 2))
        elif bad == "readonly":
            src = np.zeros((3, 2), order="F")
            src.flags.writeable = False
        elif bad == "int32":
            src = np.zeros((3, 2), dtype=np.int32, order="F")
        else:
            src = [[0.0, 0.0]] * 3
        with pytest.raises(ctypes.ArgumentError):
            _lapack("dlacpy", b"A", 3, 2, src, 3, a, 3)
        with pytest.raises(ctypes.ArgumentError):
            _lapack("dgetrf", 3, 2, a, 3, np.zeros(2, dtype=np.int32))
        _lapack("dlacpy", b"A", 3, 2, np.ones((3, 2), order="F"), 3, a, 3)
        assert np.array_equal(a, np.ones((3, 2)))


class TestHouseholderQr:
    # 131 rows: the row-block copy of a C-order input ends in a partial block
    @pytest.mark.parametrize("shape", [(0, 0), (3, 0), (1, 1), (5, 3), (200, 160), (700, 64),
                                       (131, 37)])
    @pytest.mark.parametrize("layout", ["C", "F", "slice"])
    def test_bitwise_numpy_oracle(self, shape, layout):
        # bitwise the same factors in every layout, the input untouched; numpy's
        # QR (dgeqrf, not dgeqrt) agrees after sign normalization to roundoff
        m, n = shape
        big = np.random.default_rng(2).standard_normal((2 * m, 2 * n))
        # every other row and column of a larger matrix is not contiguous
        a = big[::2, ::2] if layout == "slice" else np.array(big[:m, :n], order=layout)
        before = a.copy()
        res = urv.householder_qr(a)
        ref = urv.householder_qr(np.ascontiguousarray(a))
        assert np.array_equal(a, before)
        assert np.array_equal(res.q, ref.q) and np.array_equal(res.r, ref.r)
        assert res.q.flags.f_contiguous and res.r.flags.f_contiguous
        # two Householder QRs of a well-conditioned matrix agree to a few eps
        # (worst seen: 1.1e-15 relative)
        q, r = _signed_numpy_qr(a)
        assert np.linalg.norm(res.q - q) <= 1e-14 * np.linalg.norm(q)
        assert np.linalg.norm(res.r - r) <= 1e-14 * np.linalg.norm(r)

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

    @pytest.mark.parametrize("shape", [
        (5, 3), (33, 1),                           # n < nb
        (2 * _QR_BLOCK, _QR_BLOCK),                # n = nb
        (2 * _QR_BLOCK + 1, _QR_BLOCK + 1),        # one column past a block
        (3 * _QR_BLOCK + 4, 3 * _QR_BLOCK + 1),
        *((n + 7, n) for n in _WIDE_NS),  # the switch, the wide block's edges
        (3, 0), (0, 0),
    ])
    def test_block_edges(self, shape):
        # Q is formed from dgeqrt's own T blocks, one dgemqrt per block of
        # _QR_BLOCK reflectors below _WIDE_QR_FROM columns and of
        # _WIDE_QR_BLOCK from there on; a wrong block or a partial last
        # block applied as a whole one makes a Q that is not orthonormal
        m, n = shape
        a = np.random.default_rng(5).standard_normal(shape)
        nb = _QR_BLOCK if n < _WIDE_QR_FROM else _WIDE_QR_BLOCK
        assert _qr_block(n) == nb
        assert _compact_qr(a)[0].tw.shape == (max(1, min(nb, n)), 2 * n)
        res = urv.householder_qr(a)
        assert res.q.shape == (m, n) and res.r.shape == (n, n)
        bound = 10 * max(m, n, 1) * EPS
        assert np.linalg.norm(res.q.T @ res.q - np.eye(n)) <= bound
        assert np.linalg.norm(res.q @ res.r - a) <= bound * np.linalg.norm(a)
        assert np.array_equal(res.r, np.triu(res.r))
        assert (np.diag(res.r) >= 0).all()

    @pytest.mark.parametrize("shape", [
        (4096, 512), (200, 160), (33, 1), (2 * _QR_BLOCK, _QR_BLOCK),
        (2 * _QR_BLOCK + 1, _QR_BLOCK + 1), (3 * _QR_BLOCK + 4, 3 * _QR_BLOCK + 1),
        *((2 * n + 1, n) for n in _WIDE_NS),
    ])
    def test_haar_q_agrees(self, shape):
        # the generators' Haar draw forms Q by dorgqr over the compact QR
        # of _QR_BLOCK panels at every n, so that its bits stay put: R is
        # bitwise that QR's, and so householder_qr's below _WIDE_QR_FROM
        # columns; from there on householder_qr factors in wider panels,
        # and the two agree to roundoff, R and Q alike.  R's change grows
        # with the condition of g, so the wide shapes are tall (cond ~ 6):
        # at m = n + 7 (cond ~ 200) it reads up to 4.7 eps max|R|
        m, n = shape
        g = urv.gaussian_matrix(m, n, urv.RngSeed(12))
        res, haar = urv.householder_qr(g), _haar_q(g)
        assert np.array_equal(haar.r, _compact_qr(g, _QR_BLOCK)[1])
        if n < _WIDE_QR_FROM:
            assert np.array_equal(res.r, haar.r)
        else:
            assert np.abs(res.r - haar.r).max() <= 4 * EPS * np.abs(haar.r).max()
        assert np.abs(res.q - haar.q).max() <= 10 * m * EPS
        assert haar.q.flags.f_contiguous

    @pytest.mark.parametrize("n", [40, _WIDE_QR_FROM])
    def test_overwrite_a(self, n):
        # scipy's convention: a writeable Fortran-order float64 input is
        # factored in place and Q is returned in its buffer, with the bits
        # of the default call, which copies and never writes its input;
        # any other input is copied, overwrite_a or not
        a = urv.gaussian_matrix(n + 20, n, urv.RngSeed(3))
        assert a.flags.f_contiguous and a.dtype == np.float64
        before = a.copy(order="F")
        ref = urv.householder_qr(a)
        assert np.array_equal(a, before)
        res = urv.householder_qr(a, overwrite_a=True)
        assert res.q.ctypes.data == a.ctypes.data
        assert np.array_equal(res.q, ref.q) and np.array_equal(res.r, ref.r)
        strided = np.asfortranarray(np.repeat(before, 2, axis=0))[::2]
        for other in (np.ascontiguousarray(before), before.astype(np.float32), strided):
            kept = other.copy(order="K")
            res = urv.householder_qr(other, overwrite_a=True)
            assert np.array_equal(other, kept) and not np.shares_memory(res.q, other)
        frozen = before.copy(order="F")
        frozen.flags.writeable = False
        res = urv.householder_qr(frozen, overwrite_a=True)
        assert np.array_equal(frozen, before) and np.array_equal(res.q, ref.q)

    def test_deterministic(self):
        a = urv.gaussian_matrix(60, 40, urv.RngSeed(3))
        r1 = urv.householder_qr(a)
        r2 = urv.householder_qr(a)
        assert np.array_equal(r1.q, r2.q)
        assert np.array_equal(r1.r, r2.r)

    def test_rejects_wide(self):
        with pytest.raises(ValueError):
            urv.householder_qr(np.ones((2, 3)))
        for shape in [(3,), (3, 2, 2)]:
            with pytest.raises(ValueError, match="a must be 2-dimensional"):
                urv.householder_qr(np.ones(shape))

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


@pytest.mark.parametrize("qr", [urv.householder_qr, urv.cpqr], ids=["householder_qr", "cpqr"])
def test_overflowing_r_is_rank_collapse(qr):
    # a finite matrix of +-1.797e308, whose column norms exceed the double
    # range: the public QRs check R once, and raise the class that qlp and
    # power_urv raise for sigma_1 beyond the double range
    a = np.where(urv.gaussian_matrix(20, 10, urv.RngSeed(0)) < 0.0, -1.797e308, 1.797e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(urv.RankCollapseError, match="R of .* overflowed"):
            qr(a)
    assert urv.RankCollapseError is urv.core.RankCollapseError
    assert urv.RankCollapseError is urv.factorizations.RankCollapseError


class _PivotedQrContract:
    """Contract shared by both column-pivoted kernels, run as ``kernel``."""

    kernel = None

    def test_sorted_diagonal_kept(self):
        res = self.kernel(np.diag([3.0, 2.0, 1.0]))
        assert res.perm.tolist() == [0, 1, 2]
        assert np.allclose(np.abs(np.diag(res.r)), [3, 2, 1])

    def test_reversed_diagonal_pivoted(self):
        res = self.kernel(np.diag([1.0, 2.0, 3.0]))
        assert res.perm.tolist() == [2, 1, 0]
        assert np.allclose(np.abs(np.diag(res.r)), [3, 2, 1])

    def test_ties_keep_lowest_index(self):
        # equal norms pivot on the lowest index; the repeated column drops to zero
        res = self.kernel(np.eye(4)[:, [0, 0, 1, 2]])
        assert res.perm.tolist() == [0, 2, 3, 1]
        assert np.array_equal(np.diag(res.r), [1.0, 1.0, 1.0, 0.0])
        assert self.kernel(np.eye(5)).perm.tolist() == list(range(5))

    def test_negative_head_zero_tail(self):
        # each column is a negative multiple of e_j: its reflector (tau = 2)
        # only flips that sign, so R's diagonal is positive and Q is exactly -I
        res = self.kernel(np.diag([-3.0, -2.0, -1.0]))
        assert res.perm.tolist() == [0, 1, 2]
        assert np.array_equal(res.r, np.diag([3.0, 2.0, 1.0]))
        assert np.array_equal(res.q, -np.eye(3))

    @pytest.mark.parametrize("shape", [(30, 20), (20, 30), (25, 25), (10, 60), (1, 4)])
    def test_invariants(self, shape):
        # wide shapes are how qlp calls the kernel, on the transpose
        a = urv.gaussian_matrix(*shape, urv.RngSeed(11))
        res = self.kernel(a)
        m, n = shape
        k = min(m, n)
        assert res.q.shape == (m, k) and res.r.shape == (k, n)
        diag = np.diag(res.r)
        assert (diag >= 0).all()
        assert (np.diff(diag) <= 1e-14 * diag[0]).all()
        assert np.array_equal(res.r, np.triu(res.r))
        assert res.q.flags.f_contiguous and res.r.flags.f_contiguous
        bound = 10 * max(m, n) * EPS
        assert np.linalg.norm(res.q @ res.r - a[:, res.perm]) <= bound * np.linalg.norm(a)
        assert np.linalg.norm(res.q.T @ res.q - np.eye(k)) <= bound
        assert sorted(res.perm.tolist()) == list(range(n))

    def test_matches_lapack_pivots(self):
        # graded columns give unambiguous pivots; sequences must agree
        import scipy.linalg as sla

        rng = np.random.default_rng(1)
        for shape in [(40, 25)] * 5 + [(25, 40)]:
            a = rng.standard_normal(shape) * np.geomspace(1, 1e-6, shape[1])
            res = self.kernel(a)
            _, _, perm = sla.qr(a, pivoting=True)
            assert np.array_equal(res.perm, perm)

    @pytest.mark.parametrize("shape", [
        (8, 1), (_QR_BLOCK + 6, _QR_BLOCK - 1), (_QR_BLOCK + 6, _QR_BLOCK),
        (_QR_BLOCK + 6, _QR_BLOCK + 1), (2 * _QR_BLOCK + 9, 2 * _QR_BLOCK + 3),  # n around nb
        (2 * _QR_BLOCK + 3, 2 * _QR_BLOCK + 3), (40, 200),  # m = n, wide
        (_WIDE_QR_FROM + 6, _WIDE_QR_FROM - 1), (_WIDE_QR_FROM + 6, _WIDE_QR_FROM + 1),
        (0, 0), (4, 0), (0, 4),
    ])
    def test_block_edges(self, shape, monkeypatch):
        # Q is formed in place, one panel of _QR_BLOCK reflectors at a time
        # at every n (householder_qr's wider block past _WIDE_QR_FROM
        # columns is not theirs), after R is cut from the compact factor: R
        # is bitwise the one cut from the factor as it stood before Q was formed
        seen = []
        q_and_r = urv.core._q_and_r
        monkeypatch.setattr(urv.core, "_q_and_r",
                            lambda f, tau: (seen.append(f.copy(order="F")), q_and_r(f, tau))[1])
        m, n = shape
        k = min(m, n)
        a = np.random.default_rng(5).standard_normal(shape)
        res = self.kernel(a)
        assert res.q.shape == (m, k) and res.r.shape == (k, n)
        assert res.q.flags.f_contiguous and res.r.flags.f_contiguous
        assert np.array_equal(res.r, np.ldexp(_normalized_r(seen[0], k)[0], max_exponent(a)))
        assert np.linalg.norm(res.q.T @ res.q - np.eye(k)) <= 10 * max(n, 1) * EPS
        bound = 10 * max(m, n, 1) * EPS
        assert np.linalg.norm(res.q @ res.r - a[:, res.perm]) <= bound * np.linalg.norm(a)
        assert (np.diag(res.r) >= 0).all()


class TestCpqr(_PivotedQrContract):
    kernel = staticmethod(urv.cpqr)

    def test_kahan_unrevealing(self):
        # pivoting stays put on Kahan's matrix and the last diagonal
        # entry overestimates sigma_min by the frozen factor
        a = urv.gen_kahan(8, 1.2)
        res = urv.cpqr(a)
        assert res.perm.tolist() == list(range(8))
        smin = urv.singular_values(a)[-1]
        ratio = abs(res.r[-1, -1]) / smin
        assert ratio == pytest.approx(4.8391436786357582, rel=1e-10)

    @pytest.mark.parametrize("lo", [-540, -1000])
    def test_mixed_scale_columns(self, lo):
        # columns scaled from 2**lo up to 1: the trailing squares of the
        # small ones fall near or into the subnormal range, where dlarfgp's
        # scaled norm and its rescaling keep their reflectors accurate
        a = np.random.default_rng(0).standard_normal((200, 160)) * np.exp2(np.linspace(lo, 0, 160))
        res = urv.cpqr(a)
        assert np.abs(res.q.T @ res.q - np.eye(160)).max() <= 1e-14
        assert np.abs(res.q @ res.r - a[:, res.perm]).max() <= 1e-14 * np.abs(a).max()

    @pytest.mark.parametrize("e", [-257, -262, -266, -270, -300])
    def test_tiny_trailing_entries(self, e):
        # below a first row of order 1, the rest of the first column is
        # 2**e of it: x[0] - ||x|| is then of order 2**(2e), whose square is
        # subnormal from e = -262 on; dlarfgp forms tau without that square
        a = urv.gaussian_matrix(50, 10, urv.RngSeed(5)) * 2.0**e
        a[0] = np.linspace(1.0, 0.5, 10)
        res = urv.cpqr(a)
        assert np.abs(res.q.T @ res.q - np.eye(10)).max() <= 1e-14
        assert np.abs(res.q @ res.r - a[:, res.perm]).max() <= 1e-14 * np.abs(a).max()

    @pytest.mark.parametrize("a", [urv.gen_kahan(96, 1.2),
                                   urv.gaussian_matrix(300, 120, urv.RngSeed(2))],
                             ids=["kahan", "gaussian"])
    def test_norm_summation_order(self, a):
        # cpqr's initial column norms are an einsum over its prescaled C-order
        # copy, and the exact ties of Kahan's matrix (criterion 9) break by
        # their summation order: pin it to the sequential row sum, so that a
        # numpy release that reorders the sum fails here, by name
        r = np.ldexp(a, -max_exponent(a), order="C")
        acc = np.zeros(r.shape[1])
        for row in r:
            acc += row * row
        assert np.array_equal(np.einsum("ij,ij->j", r, r), acc)


class TestPivotedQr(_PivotedQrContract):
    kernel = staticmethod(pivoted_qr)

    def test_wide_q_is_compact(self):
        # qlp factors a.T: q must not be a view that keeps the k x n LAPACK buffer alive
        res = pivoted_qr(urv.gaussian_matrix(10, 60, urv.RngSeed(11)))
        assert res.q.shape == (10, 10) and res.q.flags.owndata and res.q.flags.f_contiguous

    @pytest.mark.parametrize("c", [1e-300, 1e300])
    def test_extreme_scale(self, c):
        # factors of c*a are those of a, r rescaled, to roundoff: no overflow or underflow
        a = urv.gaussian_matrix(60, 40, urv.RngSeed(4)) * np.geomspace(1, 1e-3, 40)
        ref = pivoted_qr(a)
        res = pivoted_qr(c * a)
        assert np.array_equal(res.perm, ref.perm)
        assert np.isfinite(res.q).all() and np.isfinite(res.r).all()
        bound = 100 * 60 * EPS
        assert np.linalg.norm(res.q @ (res.r / c) - a[:, res.perm]) <= bound * np.linalg.norm(a)
        assert np.linalg.norm(res.q - ref.q) <= bound * np.sqrt(40)
        assert np.allclose(res.r / c, ref.r, rtol=0, atol=bound * np.linalg.norm(a))


class TestLuBasis:
    SHAPES = [(1, 1), (30, 20), (200, 160), (512, 64), (4096, 64)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_scipy_lu(self, shape):
        import scipy.linalg as sla

        y = urv.gaussian_matrix(*shape, urv.RngSeed(7))
        before = y.copy()
        pld, udiag = lu_basis(y)
        assert np.array_equal(y, before)
        assert pld.shape == shape and udiag.shape == (shape[1],)
        assert pld.flags.f_contiguous
        pl, u = sla.lu(y, permute_l=True)
        d = np.where(np.diagonal(u) < 0.0, -1.0, 1.0)
        bound = 10 * max(shape) * EPS
        assert np.allclose(pld, pl * d, rtol=0, atol=bound)
        # y = (P L D)(D U) with diag(D U) = |diag U| >= 0
        du = d[:, None] * u
        assert np.allclose(udiag, np.diagonal(du), rtol=bound, atol=0)
        assert np.linalg.norm(pld @ du - y) <= bound * np.linalg.norm(y)
        # partial pivoting: |L| <= 1, with the pivot's +-1 in every column
        assert np.array_equal(np.abs(pld).max(axis=0), np.ones(shape[1]))

    # 131 rows: the row-block copy of a C-order input ends in a partial block
    @pytest.mark.parametrize("shape", SHAPES + [(131, 37)])
    @pytest.mark.parametrize("layout", ["C", "F", "slice"])
    def test_layout_independent(self, shape, layout):
        # the same pld and udiag, bitwise, for any layout, and y is left as it was
        m, n = shape
        a = urv.gaussian_matrix(2 * m, 2 * n, urv.RngSeed(7))
        # every other row and column of a larger matrix is not contiguous
        y = a[::2, ::2] if layout == "slice" else np.array(a[:m, :n], order=layout)
        ref = lu_basis(np.array(y, order="C"))
        before = y.copy()
        res = lu_basis(y)
        assert np.array_equal(y, before)
        assert np.array_equal(res.pld, ref.pld) and np.array_equal(res.udiag, ref.udiag)
        assert res.pld.flags.f_contiguous

    @pytest.mark.parametrize("shape", SHAPES[1:])
    def test_q_is_the_samples_q(self, shape):
        # D U is upper triangular with a positive diagonal, so the QR of
        # P L D has the Q of y: same nested spans, same signs
        y = urv.gaussian_matrix(*shape, urv.RngSeed(8))
        q = urv.householder_qr(lu_basis(y).pld).q
        bound = 100 * max(shape) * EPS * np.linalg.cond(y)
        assert np.abs(q - urv.householder_qr(y).q).max() <= bound

    def test_one_by_one(self):
        pld, udiag = lu_basis(np.array([[-3.0]]))
        assert pld.tolist() == [[-1.0]] and udiag.tolist() == [3.0]

    def test_exact_zero_pivot_is_deficient(self):
        # a coordinate null space: dgetrf meets an exact zero pivot (info = 4)
        y = np.zeros((6, 4))
        y[:3, :3] = urv.gaussian_matrix(3, 3, urv.RngSeed(12))
        info = _lapack("dgetrf", 6, 4, np.array(y, order="F"), 6, np.zeros(4, dtype=np.int64))
        assert info == 4
        pld, udiag = lu_basis(y)
        assert udiag[3] == 0.0 and (udiag[:3] > 0).all()
        assert np.isfinite(pld).all()
        warnings = []
        _orth(y, warnings, "stage", lu=True)
        assert warnings == ["stage: 1 numerically rank-deficient sample columns"]

    @pytest.mark.parametrize("shape", [(5, 0), (0, 0)])
    def test_empty(self, shape):
        pld, udiag = lu_basis(np.zeros(shape))
        assert pld.shape == shape and udiag.shape == (0,)

    def test_rejects_wide(self):
        with pytest.raises(ValueError):
            lu_basis(np.ones((2, 3)))


class TestProduct:
    @pytest.mark.parametrize("m,k,n", [(64, 64, 64), (300, 40, 40), (40, 300, 40), (1, 7, 1)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_fortran_order_x_at_y(self, m, k, n, order):
        x = np.array(urv.gaussian_matrix(m, k, urv.RngSeed(1)), order=order)
        y = np.array(urv.gaussian_matrix(k, n, urv.RngSeed(2)), order=order)
        # y^T x^T is how the power iteration applies A^T: transposed operands
        for left, right in ((x, y), (y.T, x.T)):
            res = product(left, right)
            assert res.flags.f_contiguous and res.shape == (left.shape[0], right.shape[1])
            bound = 10 * k * EPS * np.linalg.norm(x) * np.linalg.norm(y)
            assert np.linalg.norm(res - left @ right) <= bound


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


class TestEigvalsh:
    def test_against_jacobi_oracle(self):
        a = urv.gaussian_matrix(20, 15, urv.RngSeed(5))
        gram = a.T @ a
        lam = eigvalsh(gram)
        assert (np.diff(lam) >= 0).all()
        assert np.allclose(lam[::-1], jacobi_eigenvalues(gram), rtol=1e-12,
                           atol=1e-13 * lam[-1])


@pytest.mark.parametrize("a", [
    np.zeros((3, 2)), np.zeros((0, 4)), np.full((2, 2), -0.0), -np.arange(1.0, 7.0).reshape(3, 2),
    np.array([[5e-324, -2e-310], [1e-315, 0.0]]), np.array([[1.7e308, -1.7e308]]),
    np.array([[-1.7e308, 1.0]]), np.array([[0.5, -1.0], [0.75, 0.25]]),
], ids=["zeros", "empty", "negative-zero", "all-negative", "subnormal", "max-both",
        "max-negative", "power-of-two"])
def test_max_exponent_is_frexp_of_max_abs(a):
    # the form of max|a| that needs no np.abs temporary gives the same exponent
    assert max_exponent(a) == int(np.frexp(np.abs(a).max(initial=0.0))[1])


class TestSpectralNorm:
    def test_zero(self):
        assert urv.spectral_norm(np.zeros((4, 3))) == 0.0

    def test_orthogonal(self):
        q = urv.haar_orthogonal(10, urv.RngSeed(1))
        assert urv.spectral_norm(q) == pytest.approx(1.0, rel=1e-10)

    def test_diag(self):
        assert urv.spectral_norm(np.diag([5.0, 1.0])) == pytest.approx(5.0, rel=1e-14)


def _linalg_uses(tree):
    """``(line, use)`` of every ``numpy.linalg`` use the kernel seam forbids outside ``core``.

    Allowed: ``LinAlgError`` and ``norm`` called without ``ord`` (a
    Frobenius or vector norm); ``ord=2`` of a matrix is an SVD.
    """
    numpy_names = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import)
                   for alias in node.names if alias.name == "numpy"}

    def is_linalg(node):
        return (isinstance(node, ast.Attribute) and node.attr == "linalg"
                and isinstance(node.value, ast.Name) and node.value.id in numpy_names)

    frobenius = {id(node.func) for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and len(node.args) <= 1
                 and not any(kw.arg in ("ord", None) for kw in node.keywords)}
    bases = set()
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_linalg(node.value):
            bases.add(id(node.value))
            if node.attr != "LinAlgError" and not (node.attr == "norm" and id(node) in frobenius):
                uses.append((node.lineno, f"np.linalg.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = [a.name for a in node.names]
            if node.module.startswith("numpy.linalg") or "linalg" in names:
                uses.append((node.lineno, f"from {node.module} import {', '.join(names)}"))
        elif isinstance(node, ast.Import):
            uses += [(node.lineno, f"import {a.name}") for a in node.names
                     if a.name.startswith("numpy.linalg")]
    uses += [(node.lineno, "np.linalg") for node in ast.walk(tree)
             if is_linalg(node) and id(node) not in bases]
    return sorted(uses)


def test_linalg_only_in_core():
    # every SVD, QR and LU is a call into urv.core, so a tracer or flop
    # counter that wraps the core kernels sees each of them
    found = []
    for path in sorted(Path(urv.__file__).parent.glob("*.py")):
        if path.name != "core.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{line}: {use}" for line, use in _linalg_uses(tree)]
    assert not found, "numpy.linalg outside urv.core:\n" + "\n".join(found)


def _lapack_calls(routine):
    """Lines of core.py that call ``_lapack(routine, ...)``."""
    tree = ast.parse((Path(urv.__file__).parent / "core.py").read_text())
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_lapack"
            and node.args and getattr(node.args[0], "value", None) == routine]


@pytest.mark.parametrize("routine", sorted(_SIGNATURES))
def test_one_call_per_binding(routine):
    # each bound LAPACK routine is called from one place in core.py (every
    # unpivoted QR is _compact_qr's one dgeqrt, every Q but the generators'
    # Haar draw is formed or applied by _reflect's one dgemqrt, that draw is
    # the one dorgqr, the pivoted QRs' T blocks are one dlarft, cpqr's
    # reflectors are one dlarfgp and one dlarf, every R is _normalized_r's
    # one dlacpy, the LU's unit triangle one dlaset, ...), so an unused
    # binding fails too; dgeqrf, whose panels are level 2, is not bound
    calls = _lapack_calls(routine)
    assert len(calls) == 1, f"_lapack({routine!r}, ...) at core.py lines {calls}"
    assert not _lapack_calls("dgeqrf") and "dgeqrf" not in _SIGNATURES


@pytest.mark.parametrize("cut", ["_normalized_r", "lu_basis"])
def test_triangle_cut_makes_no_full_mask(cut):
    # the R cut (one dlacpy into zeros) and the LU's unit-lower cut (one
    # dlaset) make no boolean mask of the factor's size (n^2 bytes)
    n = 512
    f = np.asfortranarray(urv.gaussian_matrix(n, n, urv.RngSeed(3)))
    tracemalloc.start()
    try:
        if cut == "lu_basis":
            lu_basis(f)
        else:
            _normalized_r(f, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < f.nbytes + n * n


def test_blas_pool_only_in_core_and_cli():
    # numpy's OpenBLAS pool is process-wide: core binds its setter and only
    # the command line, which owns its process, sets it
    sources = {path.name: path.read_text()
               for path in sorted(Path(urv.__file__).parent.glob("*.py"))}
    assert "set_num_threads" in sources["core.py"]
    assert {name for name, text in sources.items()
            if "set_num_threads" in text or "blas_threads" in text} <= {"core.py", "cli.py"}


@pytest.mark.parametrize("source,expected", [
    ("import numpy as np\nnp.linalg.svd(a)", ["np.linalg.svd"]),
    ("import numpy\nnumpy.linalg.qr(a)", ["np.linalg.qr"]),
    ("import numpy as np\nnp.linalg.norm(a, ord=2)", ["np.linalg.norm"]),
    ("import numpy as np\nnp.linalg.norm(a, 2)", ["np.linalg.norm"]),
    ("import numpy as np\nnp.linalg.norm(a, **kw)", ["np.linalg.norm"]),
    ("import numpy as np\nf = np.linalg.norm", ["np.linalg.norm"]),
    ("import numpy as np\nla = np.linalg", ["np.linalg"]),
    ("from numpy.linalg import svd", ["from numpy.linalg import svd"]),
    ("from numpy import linalg", ["from numpy import linalg"]),
    ("import numpy.linalg", ["import numpy.linalg"]),
    ("import numpy as np\nnp.linalg.norm(a)\nnp.linalg.norm(a - b, axis=0)", []),
    ("import numpy as np\ntry:\n    pass\nexcept np.linalg.LinAlgError:\n    pass", []),
])
def test_linalg_guard_flags(source, expected):
    assert [use for _, use in _linalg_uses(ast.parse(source))] == expected


# spectral_norm and singular_values check their argument with validated_matrix
_INPUT_CHECKS = {"validated_matrix", "finite_array", "int_param", "singular_values",
                 "spectral_norm"}


def _input_check_calls(tree):
    """``(line, caller, check)`` of each call of an input check, by its enclosing def.

    A method is named ``Class.method``; a call outside any def, ``<module>``.
    """
    calls = []

    def visit(node, caller, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, caller, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name, None)
            else:
                if isinstance(child, ast.Call):
                    func = child.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in _INPUT_CHECKS:
                        calls.append((child.lineno, caller, name))
                visit(child, caller, owner)

    visit(tree, "<module>", None)
    return calls


def test_inputs_checked_only_at_public_calls():
    # an input is checked once, where it enters: a function that urv does
    # not export takes arrays its caller has checked or made, and checks
    # nothing; the spec's own check and validated_matrix's use of
    # finite_array are the exceptions
    allowed = set(urv.__all__) | {"MatrixSpec.__post_init__", "validated_matrix"}
    found = []
    for path in sorted(Path(urv.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}: {caller} calls {check}"
                  for line, caller, check in _input_check_calls(tree) if caller not in allowed]
    assert not found, "input check below a public call:\n" + "\n".join(found)


@pytest.mark.parametrize("source,expected", [
    ("def f(a):\n    return validated_matrix(a)", [("f", "validated_matrix")]),
    ("def f(a):\n    return core.finite_array(a, 'a')", [("f", "finite_array")]),
    ("class C:\n    def g(self):\n        finite_array(self.x, 'x')", [("C.g", "finite_array")]),
    ("def f(a):\n    def g():\n        validated_matrix(a)", [("g", "validated_matrix")]),
    ("x = validated_matrix(a)", [("<module>", "validated_matrix")]),
    ("def f(a):\n    return np.isfinite(a).all()", []),
])
def test_input_check_guard_flags(source, expected):
    assert [call[1:] for call in _input_check_calls(ast.parse(source))] == expected
