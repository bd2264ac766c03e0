"""Factorization algorithms: DDH-URV, PowerURV, QLP, RSVD, truncation."""

import tracemalloc

import numpy as np
import pytest

import urv
from urv.core import _QR_BLOCK, EPS
from urv.factorizations import _TALL_RATIO, _sample_basis

from conftest import reconstruction_error


def _rank_r_matrix(m, n, r, seed):
    u = urv.householder_qr(urv.gaussian_matrix(m, r, urv.as_seed(seed).spawn(1))).q
    v = urv.householder_qr(urv.gaussian_matrix(n, r, urv.as_seed(seed).spawn(2))).q
    d = np.geomspace(1.0, 0.2, r)
    return (u * d) @ v.T


def _urv_invariants(f, a):
    m, n = a.shape
    assert np.linalg.norm(f.u.T @ f.u - np.eye(n)) <= 10 * max(m, n) * EPS
    assert np.linalg.norm(f.v.T @ f.v - np.eye(n)) <= 10 * n * EPS
    assert np.array_equal(f.r, np.triu(f.r))
    assert reconstruction_error(f, a) <= 100 * max(m, n) * EPS


class TestDdhUrv:
    def test_zero_matrix(self):
        f = urv.ddh_urv(np.zeros((6, 4)), seed=1)
        assert np.array_equal(f.r, np.zeros((4, 4)))
        assert np.linalg.norm(f.u @ f.r @ f.v.T) == 0.0

    def test_orthogonal_input(self):
        a = urv.haar_orthogonal(30, urv.RngSeed(4))
        f = urv.ddh_urv(a, seed=9)
        s = urv.singular_values(f.r)
        assert np.allclose(s, 1.0, atol=1e-12)

    def test_invariants(self, matrix_slow):
        a, _ = matrix_slow
        f = urv.ddh_urv(a, seed=3)
        _urv_invariants(f, a)
        assert f.provenance.algorithm == "ddh"

    def test_rejects_wide(self):
        with pytest.raises(ValueError):
            urv.ddh_urv(np.ones((2, 3)), seed=0)
        with pytest.raises(ValueError, match="qlp requires rows >= cols, got 2x3"):
            urv.qlp(np.ones((2, 3)))


class TestPowerUrv:
    def test_q0_is_ddh_bitwise(self, matrix_slow):
        a, _ = matrix_slow
        f0 = urv.power_urv(a, q=0, reorth=True, seed=17)
        fd = urv.ddh_urv(a, seed=17)
        assert np.array_equal(f0.u, fd.u)
        assert np.array_equal(f0.r, fd.r)
        assert np.array_equal(f0.v, fd.v)

    def test_converged_diagonal_case(self):
        # eigengaps of 2x converge well within ten iterations
        a = np.zeros((5, 3))
        a[0, 0], a[1, 1], a[2, 2] = 4.0, 2.0, 1.0
        f = urv.power_urv(a, q=10, reorth=True, seed=2)
        p = urv.error_profile(a, f)
        assert np.allclose(p.abs_spectral[1:4], [2.0, 1.0, 0.0], atol=1e-8 * 4.0)

    def test_hugs_optimal_with_one_step(self, matrix_fast, sigma_fast):
        a, _ = matrix_fast
        f = urv.power_urv(a, q=1, reorth=True, seed=5)
        p = urv.error_profile(a, f, sigma_fast)
        cutoff = np.searchsorted(-sigma_fast, -1e-12 * sigma_fast[0])
        ks = np.arange(1, cutoff)
        assert (p.abs_spectral[ks] <= 10.0 * sigma_fast[ks]).all()

    @pytest.mark.parametrize("q,reorth", [(1, True), (2, True), (1, False)])
    def test_invariants(self, matrix_slow, q, reorth):
        a, _ = matrix_slow
        f = urv.power_urv(a, q=q, reorth=reorth, seed=8)
        _urv_invariants(f, a)

    def test_rank_collapse_without_reorth(self):
        # the products of a tiny input are rescaled, so they do not underflow
        c = 1e-250
        a = np.zeros((3, 2))
        a[0, 0] = a[1, 1] = c
        f = urv.power_urv(a, q=1, reorth=False, seed=0)
        # measured in units of c, where the squares do not underflow
        err = np.linalg.norm(f.u @ (f.r / c) @ f.v.T - a / c) / np.linalg.norm(a / c)
        assert err <= 100 * 3 * EPS
        s = urv.rsvd(a, 1, q=1, reorth=False, seed=0)
        assert np.isfinite(s.u).all() and np.isfinite(s.v).all()
        assert np.allclose(s.sigma / c, [1.0], rtol=100 * 3 * EPS, atol=0)
        # only an exactly zero sample collapses
        for run in (urv.power_urv, lambda z, **kw: urv.rsvd(z, 1, **kw)):
            with pytest.raises(urv.RankCollapseError, match="zero"):
                run(np.zeros((3, 2)), q=1, reorth=False, seed=0)

    def test_rank_collapse_zero_matrix(self):
        with pytest.raises(urv.RankCollapseError):
            urv.power_urv(np.zeros((4, 3)), q=1, reorth=True, seed=0)

    def test_rank_deficiency_warned_not_fatal(self):
        a = _rank_r_matrix(30, 20, 3, 12)
        f = urv.power_urv(a, q=2, reorth=True, seed=4)
        assert f.provenance.warnings
        _urv_invariants(f, a)

    def test_rejects_negative_q(self):
        with pytest.raises(ValueError):
            urv.power_urv(np.eye(3), q=-1, seed=0)


def _direct_power_urv(a, q, reorth, seed):
    """power_urv's body run on ``a`` itself, never on its R factor."""
    warnings = []
    g = urv.gaussian_matrix(a.shape[1], a.shape[1], urv.as_seed(seed))
    v = _sample_basis(a, g, 2 * q, reorth, warnings, "right-factor QR")
    u, r = urv.householder_qr(a @ v)
    return u, r, v, tuple(warnings)


@pytest.mark.parametrize("q", [0, 1, 2])
@pytest.mark.parametrize("reorth", [True, False])
def test_qr_count(monkeypatch, q, reorth):
    # with reorth the Q of the last power step is V: no QR re-factors it
    calls = []

    def counted(kernel):
        def call(y):
            calls.append(kernel)
            return getattr(urv.core, kernel)(y)
        return call

    for kernel in ("householder_qr", "_compact_qr", "lu_basis"):
        monkeypatch.setattr(urv.factorizations, kernel, counted(kernel))
    # one LU per product with A or A^T but the last, whose QR gives the basis
    power_lus = max(2 * q - 1, 0) if reorth else 0
    for m, tall in ((30, 0), (80, int(q >= 1))):
        a, _ = urv.gen_slow_decay(m, 20, seed=1)
        calls.clear()
        urv.power_urv(a, q=q, reorth=reorth, seed=3)
        # the tall path's R0, whose Q0 is never formed, + the QR of the
        # sample + the QR of A V
        assert calls.count("_compact_qr") == tall
        assert calls.count("_compact_qr") + calls.count("householder_qr") == tall + 1 + 1
        assert calls.count("lu_basis") == power_lus
        calls.clear()
        urv.rsvd(a, 5, q=q, reorth=reorth, seed=3)
        assert calls == ["lu_basis"] * (2 * q if reorth else 0) + ["householder_qr"]


@pytest.mark.parametrize("factor,m,bound", [
    (lambda a: urv.ddh_urv(a, seed=2), 256, 6),
    (lambda a: urv.power_urv(a, q=1, seed=2), 256, 6),
    (lambda a: urv.power_urv(a, q=2, seed=2), 256, 6),
    (urv.qlp, 256, 6),
    (lambda a: urv.power_urv(a, q=1, seed=2), 768, 3.34),
], ids=["0", "1", "2", "qlp", "1-tall"])
def test_peak_memory(factor, m, bound):
    # the samples stay in the Fortran order of the kernels, so no QR or LU
    # holds a transposed copy next to its input, the Gaussian draw is
    # dropped once the first product replaces it, and qlp drops its first
    # R before the second pivoted QR: at most 6 matrices of the input's
    # size are live at once, the three returned factors included.  On the
    # tall path (768 x 256) Q0 is never formed and R0 is dropped before
    # the lift: 3.18 input sizes, below the 3.34 of forming Q0
    a, _ = urv.gen_slow_decay(m, 256, seed=1)
    tracemalloc.start()
    try:
        factor(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * a.nbytes


@pytest.mark.parametrize("shape", [(0, 0), (5, 0)])
@pytest.mark.parametrize("factor", [
    lambda a: urv.ddh_urv(a, seed=2),
    lambda a: urv.power_urv(a, q=0, seed=2),
    lambda a: urv.power_urv(a, q=1, seed=2),
    lambda a: urv.power_urv(a, q=2, seed=2),
    urv.qlp,
], ids=["ddh", "0", "1", "2", "qlp"])
def test_empty_input(factor, shape):
    # an input without columns has nothing to sample: every algorithm
    # returns empty factors, and both profiles read the one rank k = 0
    a = np.zeros(shape)
    f = factor(a)
    assert (f.u.shape, f.r.shape, f.v.shape) == ((shape[0], 0), (0, 0), (0, 0))
    err, rev = urv.error_profile(a, f), urv.reveal_profile(f)
    for col in (err.abs_spectral, err.abs_frobenius, err.rel_spectral, err.rel_frobenius,
                err.sigma_ref, rev.smin_r11, rev.smax_r22):
        assert np.array_equal(col, [0.0])


class TestPowerUrvTallPath:
    N = 20

    @pytest.mark.parametrize("q,reorth", [(1, True), (2, True), (1, False), (2, False)])
    def test_below_switch_is_direct_bitwise(self, q, reorth):
        a, _ = urv.gen_slow_decay(_TALL_RATIO * self.N - 1, self.N, seed=1)
        f = urv.power_urv(a, q=q, reorth=reorth, seed=3)
        u, r, v, warnings = _direct_power_urv(a, q, reorth, 3)
        assert np.array_equal(f.u, u) and np.array_equal(f.r, r) and np.array_equal(f.v, v)
        assert f.provenance.warnings == warnings

    @pytest.mark.parametrize("rows_per_col", [_TALL_RATIO, 3, 8])
    @pytest.mark.parametrize("q,reorth", [(1, True), (2, True), (1, False), (2, False)])
    def test_matches_direct_to_roundoff(self, rows_per_col, q, reorth):
        n = self.N
        a, _ = urv.gen_slow_decay(rows_per_col * n, n, seed=1)
        f = urv.power_urv(a, q=q, reorth=reorth, seed=3)
        u, r, v, _ = _direct_power_urv(a, q, reorth, 3)
        # V is the Q factor of a sample whose condition number grows like
        # cond(A)**(2q) without reorthonormalization
        kappa = np.linalg.cond(a) ** (1 if reorth else 2 * q)
        tol = n * EPS * kappa
        assert np.abs(f.u - u).max() <= tol
        assert np.abs(f.v - v).max() <= tol
        assert np.abs(f.r - r).max() <= tol * np.linalg.norm(r)
        _urv_invariants(f, a)

    @pytest.mark.parametrize("shape", [
        (3 * _QR_BLOCK + 1, _QR_BLOCK - 1),  # n < nb
        (3 * _QR_BLOCK, _QR_BLOCK),          # n = nb
        (3 * _QR_BLOCK + 3, _QR_BLOCK + 1),  # n = nb + 1
        (_TALL_RATIO * 40, 40),              # m at the switch
    ])
    @pytest.mark.parametrize("q,reorth", [(1, True), (2, True), (1, False), (2, False)])
    def test_is_direct_path_on_r0(self, shape, q, reorth):
        # the tall path runs the direct one on householder_qr's R0, bit for
        # bit, and lifts its U' by Q0 applied in compact form, not formed
        a, _ = urv.gen_slow_decay(*shape, seed=1)
        q0, r0 = urv.householder_qr(a)
        u, r, v, warnings = _direct_power_urv(r0, q, reorth, 3)
        f = urv.power_urv(a, q=q, reorth=reorth, seed=3)
        assert np.array_equal(f.r, r) and np.array_equal(f.v, v)
        assert f.provenance.warnings == warnings
        assert f.u.flags.f_contiguous
        assert np.linalg.norm(f.u - q0 @ u) <= 1e-14 * np.linalg.norm(u)

    @pytest.mark.parametrize("q,reorth", [(1, True), (2, True), (2, False)])
    def test_rank_deficiency_warnings_unchanged(self, q, reorth):
        # the null space is spanned by coordinate vectors, so the deficient
        # diagonal entries are exact zeros on both paths
        a = np.zeros((4 * self.N, self.N))
        a[:3, :3] = urv.gaussian_matrix(3, 3, urv.RngSeed(12))
        f = urv.power_urv(a, q=q, reorth=reorth, seed=4)
        assert f.provenance.warnings
        assert f.provenance.warnings == _direct_power_urv(a, q, reorth, 4)[3]

    @pytest.mark.parametrize("ratio", [_TALL_RATIO, 3, 8])
    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("reorth", [True, False])
    def test_rank_deficiency_count_stable(self, ratio, q, reorth):
        # rank 3 with Haar factors: the deficient diagonal entries are roundoff
        # noise, which the threshold must clear on both paths
        for s in range(16):
            a = _rank_r_matrix(ratio * self.N, self.N, 3, 100 + s)
            f = urv.power_urv(a, q=q, reorth=reorth, seed=s)
            assert f.provenance.warnings == _direct_power_urv(a, q, reorth, s)[3]

    @pytest.mark.parametrize("q", [1, 2])
    def test_lemma_on_tall_input(self, q):
        a, _ = urv.gen_slow_decay(8 * 40, 40, seed=2)
        assert urv.lemma_check(a, 10, q=q, seed=5) <= 1e-12


class TestQlp:
    def test_diagonal(self):
        a = np.diag([3.0, 2.0, 1.0])
        f = urv.qlp(a)
        assert np.allclose(np.abs(np.diag(f.r)), [3, 2, 1], rtol=1e-14)
        assert reconstruction_error(f, a) <= 10 * 3 * EPS

    def test_kahan_reveals_where_cpqr_fails(self):
        a = urv.gen_kahan(96, 1.2)
        s = urv.singular_values(a)
        f = urv.qlp(a)
        r11min = urv.singular_values(f.r[:95, :95])[-1]
        assert 0.2 <= r11min / s[94] <= 5.0
        c = urv.cpqr(a)
        assert abs(c.r[-1, -1]) / s[-1] >= 100.0

    def test_beats_raw_cpqr_on_sshape(self, matrix_sshape):
        a, _ = matrix_sshape
        sref = urv.reference_singular_values(a)
        fq = urv.qlp(a)
        c = urv.cpqr(a)
        fc = urv.UrvFactorization(
            c.q, c.r, np.eye(a.shape[1])[:, c.perm], urv.Provenance("cpqr")
        )
        ks = np.arange(1, a.shape[1])
        med_q = np.median(urv.error_profile(a, fq, sref).abs_spectral[ks] / sref[ks])
        med_c = np.median(urv.error_profile(a, fc, sref).abs_spectral[ks] / sref[ks])
        assert med_q < med_c

    def test_invariants(self, matrix_bie):
        f = urv.qlp(matrix_bie)
        _urv_invariants(f, matrix_bie)
        assert not f.provenance.warnings

    def test_deterministic(self, matrix_slow):
        a, _ = matrix_slow
        f1, f2 = urv.qlp(a), urv.qlp(a)
        assert np.array_equal(f1.r, f2.r)


class TestRsvd:
    def test_exact_rank_capture(self):
        a = _rank_r_matrix(40, 30, 3, 21)
        f = urv.rsvd(a, 3, q=0, seed=5)
        approx = (f.u * f.sigma) @ f.v.T
        assert np.linalg.norm(a - approx) <= 1e-12 * np.linalg.norm(a)

    def test_sigma_accuracy_slow_decay(self, matrix_slow):
        a, d = matrix_slow
        f = urv.rsvd(a, 60, q=1, seed=0)
        assert np.allclose(f.sigma[:10], d[:10], rtol=0.05)

    def test_shares_gaussian_draw_with_power_urv(self):
        # the rsvd sample is the columnwise prefix of the power_urv draw
        g_full = urv.gaussian_matrix(50, 50, urv.RngSeed(33))
        g_rsvd = urv.gaussian_matrix(50, 20, urv.RngSeed(33))
        assert np.array_equal(g_full[:, :20], g_rsvd)

    def test_orthonormal_factors(self, matrix_slow):
        a, _ = matrix_slow
        f = urv.rsvd(a, 60, q=1, seed=1)
        m, n = a.shape
        assert np.linalg.norm(f.u.T @ f.u - np.eye(60)) <= 10 * max(m, n) * EPS
        assert np.linalg.norm(f.v.T @ f.v - np.eye(60)) <= 10 * max(m, n) * EPS
        assert (np.diff(f.sigma) <= 0).all()

    def test_rejects_out_of_range_ell(self, matrix_slow):
        a, _ = matrix_slow
        with pytest.raises(ValueError):
            urv.rsvd(a, 160, seed=0)
        with pytest.raises(ValueError):
            urv.rsvd(a, 0, seed=0)
        with pytest.raises(ValueError, match="q must be nonnegative"):
            urv.rsvd(a, 10, q=-1, seed=0)


class TestTruncate:
    def test_full_rank(self, matrix_slow):
        a, _ = matrix_slow
        f = urv.power_urv(a, q=1, seed=2)
        u_k, m_k = urv.truncate(f, a.shape[1])
        bound = 100 * max(a.shape) * EPS * np.linalg.norm(a)
        assert np.linalg.norm(a - u_k @ m_k) <= bound

    def test_rank_zero(self, matrix_slow):
        a, _ = matrix_slow
        f = urv.power_urv(a, q=1, seed=2)
        u_k, m_k = urv.truncate(f, 0)
        assert u_k.shape == (a.shape[0], 0) and m_k.shape == (0, a.shape[1])
        assert np.linalg.norm(a - u_k @ m_k) == np.linalg.norm(a)

    def test_rank_one_input(self):
        a = np.outer(np.arange(1.0, 7.0), np.arange(1.0, 5.0))
        f = urv.power_urv(a, q=1, seed=3)
        u_k, m_k = urv.truncate(f, 1)
        assert np.linalg.norm(a - u_k @ m_k) <= 1e-10 * np.linalg.norm(a)

    def test_rejects_excess_rank(self, matrix_slow):
        a, _ = matrix_slow
        f = urv.power_urv(a, q=0, seed=2)
        with pytest.raises(ValueError):
            urv.truncate(f, a.shape[1] + 1)


_SCALED_RUNS = {
    "ddh": lambda a: urv.ddh_urv(a, seed=5),
    "powerurv_q1": lambda a: urv.power_urv(a, q=1, seed=5),
    "powerurv_q2": lambda a: urv.power_urv(a, q=2, seed=5),
    "qlp": urv.qlp,
    "rsvd": lambda a: urv.rsvd(a, ell=40, seed=5),
}


class TestCrossAlgorithmProperties:
    @pytest.mark.parametrize("alg", sorted(_SCALED_RUNS))
    @pytest.mark.parametrize("c", [1e-300, 1e-150, 1e150, 1e300])
    def test_scale_equivariance(self, matrix_slow, alg, c):
        # factoring c*a gives the factors of a with r (or sigma) times c
        a, _ = matrix_slow
        run = _SCALED_RUNS[alg]
        ref, f = run(a), run(c * a)
        if alg == "rsvd":
            assert np.isfinite(f.u).all() and np.isfinite(f.v).all()
            assert np.allclose(f.sigma / c, ref.sigma, rtol=1e-8, atol=0)
            return
        assert all(np.isfinite(x).all() for x in (f.u, f.r, f.v))
        err = np.linalg.norm(f.u @ (f.r / c) @ f.v.T - a) / np.linalg.norm(a)
        assert err <= 100 * max(a.shape) * EPS
        diag, diag_ref = np.abs(np.diag(f.r)) / c, np.abs(np.diag(ref.r))
        assert np.allclose(diag, diag_ref, rtol=1e-8, atol=0)

    def test_no_false_deficiency_near_overflow(self):
        # max|a| = 1e307: neither the samples nor the rank-deficiency
        # threshold may overflow, whatever the seed
        a, _ = urv.gen_slow_decay(60, 40, seed=0)
        c = 1e307 / np.abs(a).max()
        for seed in range(8):
            ref, f = urv.power_urv(a, q=1, seed=seed), urv.power_urv(c * a, q=1, seed=seed)
            assert f.provenance.warnings == ()
            assert all(np.isfinite(x).all() for x in (f.u, f.r, f.v))
            err = np.linalg.norm(f.u @ (f.r / c) @ f.v.T - a) / np.linalg.norm(a)
            assert err <= 100 * max(a.shape) * EPS
            diag, diag_ref = np.abs(np.diag(f.r)) / c, np.abs(np.diag(ref.r))
            assert np.allclose(diag, diag_ref, rtol=1e-8, atol=0)
        ref, f = urv.rsvd(a, 20, seed=0), urv.rsvd(c * a, 20, seed=0)
        assert f.provenance.warnings == ()
        assert np.allclose(f.sigma / c, ref.sigma, rtol=1e-8, atol=0)

    @pytest.mark.parametrize("reorth", [True, False])
    def test_sample_overflow_is_numerical_error(self, matrix_slow, reorth):
        # max|a| = 1.5e308: sigma_1 exceeds the double range
        a, _ = matrix_slow
        b = (a / np.abs(a).max()) * 1.5e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(urv.RankCollapseError, match="overflow"):
                urv.power_urv(b, q=1, reorth=reorth)
            with pytest.raises(urv.RankCollapseError, match="overflow"):
                urv.rsvd(b, 40, q=1, reorth=reorth)
        # max|a| = 1e306 factors: the rescaled samples stay in range
        c = 1e306 / np.abs(a).max()
        f = urv.power_urv(c * a, q=1, reorth=reorth)
        err = np.linalg.norm(f.u @ (f.r / c) @ f.v.T - a) / np.linalg.norm(a)
        assert err <= 100 * max(a.shape) * EPS
        ref, s = urv.rsvd(a, 40, q=1, reorth=reorth), urv.rsvd(c * a, 40, q=1, reorth=reorth)
        assert np.isfinite(s.u).all() and np.isfinite(s.v).all()
        assert np.allclose(s.sigma / c, ref.sigma, rtol=1e-8, atol=0)

    @pytest.mark.parametrize("alg", ["ddh", "powerurv_q1", "qlp"])
    @pytest.mark.parametrize("case", ["entries", "column_norm"])
    def test_factor_overflow_is_numerical_error(self, alg, case):
        # both inputs are tall, so powerurv_q1 overflows in its R0 factor
        if case == "entries":
            # max|a| = 1.5e308: A V (ddh) or the first pivoted R (qlp) overflows
            a, _ = urv.gen_slow_decay(120, 40, seed=0)
            b = (a / np.abs(a).max()) * 1.5e308
        else:
            # A V and the first pivoted R are finite; the column norm 2e308
            # on the diagonal of the final R is not
            b = np.full((4, 1), 1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(urv.RankCollapseError, match="overflow"):
                _SCALED_RUNS[alg](b)

    def test_rsvd_range_product_overflow_is_numerical_error(self):
        # a first column of 1.2e308: with q = 0 the sample and its Q are
        # finite, but Q^T A holds sqrt(200) * 1.2e308
        b = np.zeros((200, 160))
        b[:, 0] = 1.2e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(urv.RankCollapseError, match="overflow"):
                urv.rsvd(b, 1, q=0, seed=0)

    def test_eckart_young_bound(self, matrix_sshape):
        a, _ = matrix_sshape
        sref = urv.reference_singular_values(a)
        for f in (urv.ddh_urv(a, 6), urv.power_urv(a, 1, True, 6), urv.qlp(a)):
            p = urv.error_profile(a, f, sref)
            assert (p.abs_spectral >= sref * (1 - 1e-10)).all()

    def test_power_iteration_median_gain(self, matrix_slow, sigma_slow):
        # q=1 at least matches q=0 in median across a small seed batch
        a, _ = matrix_slow
        ratios = []
        for seed in range(5):
            e0 = urv.error_profile(a, urv.power_urv(a, 0, True, seed), sigma_slow)
            e1 = urv.error_profile(a, urv.power_urv(a, 1, True, seed), sigma_slow)
            ratios.append(e0.abs_spectral / e1.abs_spectral)
        assert np.median(np.concatenate(ratios)) >= 1.5

    def test_concurrent_calls_match_serial(self, matrix_slow):
        from concurrent.futures import ThreadPoolExecutor

        a, _ = matrix_slow
        ref = urv.power_urv(a, q=1, reorth=True, seed=44)
        with ThreadPoolExecutor(max_workers=4) as pool:
            futs = [pool.submit(urv.power_urv, a, 1, True, 44) for _ in range(4)]
            for fut in futs:
                f = fut.result()
                assert np.array_equal(f.u, ref.u)
                assert np.array_equal(f.r, ref.r)
                assert np.array_equal(f.v, ref.v)
