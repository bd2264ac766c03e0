"""Diagnostics: error/reveal profiles, projection errors, lemma, flops."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

import urv
from urv.diagnostics import CERTIFY_FACTOR, CPQR_CLASS, GEMM_QR, LEVEL2

PAPER_MATRICES = ["fast", "slow", "sshape", "bie"]

_URV_RUNS = {
    "ddh": lambda a: urv.ddh_urv(a, 0),
    "powerurv_q1": lambda a: urv.power_urv(a, 1, True, 0),
    "powerurv_q1_noreorth": lambda a: urv.power_urv(a, 1, False, 0),
    "powerurv_q2": lambda a: urv.power_urv(a, 2, True, 0),
    "qlp": urv.qlp,
}


def _rank_r_matrix(m, n, r, seed):
    u = urv.householder_qr(urv.gaussian_matrix(m, r, urv.as_seed(seed).spawn(1))).q
    v = urv.householder_qr(urv.gaussian_matrix(n, r, urv.as_seed(seed).spawn(2))).q
    d = np.geomspace(1.0, 0.5, r)
    return (u * d) @ v.T


def _paper_matrix(request, name):
    m = request.getfixturevalue(f"matrix_{name}")
    return m if name == "bie" else m[0]


def _exact_errors(a, u, rows):
    """Reference: spectral and Frobenius norms of every incrementally updated residual."""
    resid = a.copy()
    sp, fro = [], []
    for k in range(u.shape[1] + 1):
        sp.append(np.linalg.svd(resid, compute_uv=False)[0])
        fro.append(np.linalg.norm(resid))
        if k < u.shape[1]:
            resid -= np.outer(u[:, k], rows[k, :])
    return np.array(sp), np.array(fro)


class TestErrorProfile:
    def test_k0_row(self, matrix_slow, sigma_slow):
        a, _ = matrix_slow
        p = urv.error_profile(a, urv.power_urv(a, 1, True, 0), sigma_slow)
        assert p.abs_spectral[0] == pytest.approx(urv.spectral_norm(a), rel=1e-12)
        assert p.rel_spectral[0] == 1.0
        assert p.rel_frobenius[0] == 1.0
        assert p.k.size == a.shape[1] + 1

    def test_exact_rank_capture(self):
        a = _rank_r_matrix(40, 30, 4, 9)
        p = urv.error_profile(a, urv.power_urv(a, 1, True, 2))
        assert p.abs_spectral[4] <= 1e-10 * p.abs_spectral[0]

    def test_eckart_young_and_monotone(self, matrix_bie):
        a = matrix_bie
        sref = urv.reference_singular_values(a)
        p = urv.error_profile(a, urv.qlp(a), sref)
        assert (p.abs_spectral >= sref * (1 - 1e-10)).all()
        slack = 1e-12 * p.abs_spectral[0]
        assert (np.diff(p.abs_spectral) <= slack).all()
        assert (np.diff(p.abs_frobenius) <= slack).all()

    def test_rsvd_profile(self, matrix_slow, sigma_slow):
        a, _ = matrix_slow
        f = urv.rsvd(a, 60, q=1, seed=3)
        p = urv.error_profile(a, f, sigma_slow)
        assert p.k.size == a.shape[1] + 1
        # ranks past ell keep the rank-ell residual
        assert p.abs_spectral[61] == p.abs_spectral[160]
        assert (p.abs_spectral >= sigma_slow * (1 - 1e-10)).all()

    @pytest.mark.parametrize("alg", sorted(_URV_RUNS))
    @pytest.mark.parametrize("name", PAPER_MATRICES)
    def test_certified_spectral_matches_exact(self, request, name, alg):
        a = _paper_matrix(request, name)
        f = _URV_RUNS[alg](a)
        sref = urv.reference_singular_values(a)
        rev = urv.reveal_profile(f)
        p = urv.error_profile(a, f, sref, reveal=rev)
        # the cached reveal profile never changes the output
        plain = urv.error_profile(a, f, sref)
        for col in ("abs_spectral", "abs_frobenius", "rel_spectral", "rel_frobenius"):
            assert np.array_equal(getattr(p, col), getattr(plain, col))

        rows = f.r @ f.v.T
        sp, fro = _exact_errors(a, f.u, rows)
        smax = rev.smax_r22
        eye = np.eye(a.shape[1])
        orth = np.linalg.norm(f.u.T @ f.u - eye) + np.linalg.norm(f.v.T @ f.v - eye)
        eta = np.linalg.norm(a - f.u @ rows) + orth * smax
        certified = smax > CERTIFY_FACTOR * eta
        assert certified[0] and not certified[-1]
        assert np.array_equal(p.abs_spectral[certified], smax[certified])
        assert np.array_equal(p.abs_spectral[~certified], sp[~certified])
        assert (np.abs(p.abs_spectral - sp) <= eta).all()
        assert np.array_equal(p.abs_frobenius, fro)

    @pytest.mark.parametrize("name", PAPER_MATRICES)
    def test_rsvd_tail_repeats_rank_ell(self, request, name):
        a = _paper_matrix(request, name)
        ell = 60
        f = urv.rsvd(a, ell, q=1, seed=0)
        p = urv.error_profile(a, f)
        sp, fro = _exact_errors(a, f.u, f.sigma[:, None] * f.v.T)
        # spectral errors come from Gram eigenvalues: exact to roundoff in sigma_1
        assert (np.abs(p.abs_spectral[: ell + 1] - sp) <= 8 * urv.EPS * sp[0]).all()
        assert np.array_equal(p.abs_frobenius[: ell + 1], fro)
        assert (p.abs_spectral[ell:] == p.abs_spectral[ell]).all()
        assert (p.abs_frobenius[ell:] == fro[ell]).all()

    def test_rsvd_residual_below_gram_floor(self):
        # the rank-1 residual 2**-600 e_1 e_1^T has squares that underflow
        # (its Gram matrix reads 0), so that rank takes the exact SVD
        a = np.zeros((8, 6))
        a[0, 0], a[1, 1] = 1.0, 2.0**-600
        f = urv.rsvd(a, 1, q=1, seed=0)
        p = urv.error_profile(a, f)
        sp, _ = _exact_errors(a, f.u, f.sigma[:, None] * f.v.T)
        assert sp[1] > 0.0
        assert p.abs_spectral[1] == sp[1]
        assert p.abs_spectral[0] == pytest.approx(sp[0], rel=1e-15)

    @pytest.mark.parametrize("factor", [
        lambda a: urv.rsvd(a, 1, q=1, seed=0), lambda a: urv.power_urv(a, 1), urv.qlp,
    ], ids=["rsvd", "powerurv", "qlp"])
    def test_frobenius_below_gram_floor(self, factor):
        # the rank-1 residual is 2**-600 e_2 e_2^T, whose square underflows:
        # its Frobenius norm is retaken of the residual scaled by its own max
        a = np.zeros((8, 6))
        a[0, 0], a[1, 1] = 1.0, 2.0**-600
        p = urv.error_profile(a, factor(a))
        assert p.abs_frobenius[1] == pytest.approx(2.0**-600, rel=1e-15)
        assert (p.abs_frobenius >= p.abs_spectral).all()


def _block_norms(r):
    """Reference: ||r[k:, k:]||_2 by an SVD of each trailing block, 0 at k = n."""
    n = r.shape[0]
    return np.array([np.linalg.svd(r[k:, k:], compute_uv=False)[0] for k in range(n)] + [0.0])


class TestRevealProfile:
    @pytest.mark.parametrize("alg", sorted(_URV_RUNS))
    @pytest.mark.parametrize("name, scale", [(name, 1.0) for name in PAPER_MATRICES]
                             + [("slow", 1e300), ("slow", 1e-300)])
    def test_trailing_norms_match_block_svds(self, request, name, scale, alg):
        # smax_r22 comes from one Gram matrix r r^T: exact to roundoff in
        # each block's own norm, and prescaled so that 1e300 cannot overflow
        f = _URV_RUNS[alg](scale * _paper_matrix(request, name))
        ref = _block_norms(f.r)
        smax = urv.reveal_profile(f).smax_r22
        assert smax[-1] == 0.0
        assert (np.abs(smax[:-1] - ref[:-1]) <= 1e-14 * ref[:-1]).all()

    def test_graded_diagonal_below_gram_floor(self):
        # the squares of r's entries past the first underflow, so the Gram
        # matrix of every trailing block but the whole reads 0: those take SVDs
        d = 2.0 ** -np.array([0, 600, 700, 750, 800, 850])
        a = np.vstack([np.diag(d), np.zeros((2, 6))])
        f = urv.qlp(a)
        ref = _block_norms(f.r)
        smax = urv.reveal_profile(f).smax_r22
        assert (ref[:-1] > 0.0).all()
        assert np.array_equal(smax, ref)

    def test_exact_diagonal_case(self):
        a = np.diag([3.0, 2.0, 1.0])
        f = urv.qlp(a)
        rev = urv.reveal_profile(f)
        assert np.allclose(rev.smin_r11[1:], [3, 2, 1], rtol=1e-12)
        assert np.allclose(rev.smax_r22[:3], [3, 2, 1], rtol=1e-12)
        assert rev.smax_r22[3] == 0.0
        assert rev.smin_r11[0] == 0.0

    def test_r22_bounds_optimum(self, matrix_slow, sigma_slow):
        a, _ = matrix_slow
        rev = urv.reveal_profile(urv.power_urv(a, 1, True, 4))
        guard = 20 * urv.EPS * sigma_slow[0]
        assert (rev.smax_r22 >= sigma_slow * (1 - 1e-10) - guard).all()

    def test_power_iteration_tightens_ratios(self, matrix_fast, sigma_fast):
        a, _ = matrix_fast
        ks = np.arange(1, 100)  # before the decay floor
        meds = {}
        for q in (0, 1):
            rev = urv.reveal_profile(urv.power_urv(a, q, True, 7))
            ratio = rev.smax_r22[ks] / sigma_fast[ks]
            if q == 1:
                assert (ratio >= 1.0 - 1e-10).all()
                assert (ratio <= 10.0).all()
            meds[q] = np.median(ratio)
        assert meds[0] >= 2.0 * meds[1]

    def test_rsvd_pads_sigma(self, matrix_slow):
        a, _ = matrix_slow
        f = urv.rsvd(a, 60, q=1, seed=3)
        rev = urv.reveal_profile(f)
        n = a.shape[1]
        assert rev.smin_r11.size == rev.smax_r22.size == n + 1
        assert np.array_equal(rev.smin_r11[1:61], f.sigma)
        assert (rev.smin_r11[61:] == 0.0).all() and rev.smin_r11[0] == 0.0
        assert np.array_equal(rev.smax_r22[:60], f.sigma)
        assert (rev.smax_r22[60:] == 0.0).all()


class TestProjectionError:
    def test_k0_is_norm(self, matrix_slow):
        a, _ = matrix_slow
        f = urv.power_urv(a, 1, True, 2)
        assert urv.projection_error(a, f.u, 0) == pytest.approx(urv.spectral_norm(a), rel=1e-12)

    def test_optimal_projector(self, matrix_slow, sigma_slow):
        a, _ = matrix_slow
        res = urv.svd(a)
        for k in (5, 20, 60):
            assert urv.projection_error(a, res.u, k) == pytest.approx(sigma_slow[k], rel=1e-10)

    def test_nonincreasing(self, matrix_slow):
        a, _ = matrix_slow
        f = urv.power_urv(a, 1, True, 6)
        curve = urv.projection_error_curve(a, f.u, 40)
        assert (np.diff(curve) <= 1e-12 * curve[0]).all()

    def test_curve_matches_pointwise(self, matrix_slow):
        a, _ = matrix_slow
        f = urv.power_urv(a, 0, True, 8)
        curve = urv.projection_error_curve(a, f.u, 10)
        for k in (0, 3, 10):
            assert curve[k] == pytest.approx(urv.projection_error(a, f.u, k), rel=1e-10)

    def test_rejects_bad_k(self, matrix_slow):
        a, _ = matrix_slow
        f = urv.power_urv(a, 0, True, 8)
        for fn in (urv.projection_error, urv.projection_error_curve):
            for k in (a.shape[1] + 1, -1):
                with pytest.raises(ValueError):
                    fn(a, f.u, k)


def _with_nan(f, name):
    """``f`` with the first entry of its array ``name`` replaced by NaN."""
    x = getattr(f, name).copy()
    x.flat[0] = np.nan
    return dataclasses.replace(f, **{name: x})


class TestInputChecks:
    """A public function refuses a bad array or integer parameter by name, before any arithmetic."""

    @pytest.fixture(scope="class")
    def small(self):
        a, _ = urv.gen_slow_decay(30, 20, seed=0)
        return a, {"powerurv": urv.power_urv(a, q=1, seed=0), "rsvd": urv.rsvd(a, 5, seed=0)}

    @pytest.mark.parametrize("alg, name", [
        ("powerurv", "u"), ("powerurv", "r"), ("powerurv", "v"),
        ("rsvd", "u"), ("rsvd", "sigma"), ("rsvd", "v"),
    ])
    @pytest.mark.parametrize("call", ["error_profile", "error_profile_reveal", "reveal_profile"])
    def test_nonfinite_factor(self, small, alg, name, call):
        a, factors = small
        f = factors[alg]
        bad = _with_nan(f, name)
        calls = {"error_profile": lambda: urv.error_profile(a, bad),
                 "error_profile_reveal": lambda: urv.error_profile(a, bad,
                                                                   reveal=urv.reveal_profile(f)),
                 "reveal_profile": lambda: urv.reveal_profile(bad)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^f\\.{name} contains non-finite entries$"):
                calls[call]()

    @pytest.mark.parametrize("name", ["sigma_ref", "reveal.smax_r22"])
    @pytest.mark.parametrize("bad", [np.full(21, np.nan), np.ones(20)], ids=["nan", "n-entries"])
    def test_cached_array(self, small, name, bad):
        a, factors = small
        f = factors["powerurv"]
        cached = {"sigma_ref": urv.reference_singular_values(a), "reveal": urv.reveal_profile(f)}
        if name == "sigma_ref":
            cached["sigma_ref"] = bad
        else:
            cached["reveal"] = dataclasses.replace(cached["reveal"], smax_r22=bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^" + re.escape(name)):
                urv.error_profile(a, f, **cached)

    @pytest.mark.parametrize("alg", ["powerurv", "rsvd"])
    @pytest.mark.parametrize("rows, cols", [(slice(None), slice(10)), (slice(10), slice(None))])
    def test_shape_mismatch(self, small, alg, rows, cols):
        a, factors = small
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^a has shape \(\d+, \d+\), but f factors "
                                                 r"a 30x20 matrix$"):
                urv.error_profile(a[rows, cols], factors[alg])

    @pytest.mark.parametrize("call, name", [
        ("truncate", "r"), ("truncate", "u"), ("truncate", "v"), ("projection_error", "u"),
    ])
    def test_nan_argument(self, small, call, name):
        a, factors = small
        bad = _with_nan(factors["powerurv"], name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if call == "truncate":
                with pytest.raises(ValueError, match=f"^f\\.{name} contains non-finite entries$"):
                    urv.truncate(bad, 3)
            else:
                with pytest.raises(ValueError, match="^u contains non-finite entries$"):
                    urv.projection_error(a, bad.u, 3)

    # the parameter that each call must name, and the call on small's a and f
    _NON_INT = {
        "flop_estimate-m": ("m", lambda a, f: urv.flop_estimate("powerurv", 10.5, 5, 1)),
        "flop_estimate-n": ("n", lambda a, f: urv.flop_estimate("powerurv", 10, True, 1)),
        "flop_estimate-q": ("q", lambda a, f: urv.flop_estimate("powerurv", 10, 5, 1.5)),
        "power_urv-q": ("q", lambda a, f: urv.power_urv(a, q=1.5)),
        "power_urv-q-bool": ("q", lambda a, f: urv.power_urv(a, q=True)),
        "rsvd-ell": ("ell", lambda a, f: urv.rsvd(a, 5.0)),
        "rsvd-ell-bool": ("ell", lambda a, f: urv.rsvd(a, True)),
        "rsvd-q": ("q", lambda a, f: urv.rsvd(a, 5, q=1.0)),
        "lemma_check-ell": ("ell", lambda a, f: urv.lemma_check(a, 5.0)),
        "lemma_check-q": ("q", lambda a, f: urv.lemma_check(a, 5, q=1.5)),
        "gaussian_matrix-m": ("m", lambda a, f: urv.gaussian_matrix(3.0, 2, 0)),
        "gaussian_matrix-n-bool": ("n", lambda a, f: urv.gaussian_matrix(3, True, 0)),
        "haar_orthogonal-n": ("n", lambda a, f: urv.haar_orthogonal(3.0, 0)),
        "gen_kahan-n": ("n", lambda a, f: urv.gen_kahan(8.0)),
        "gen_bie-n_points": ("n_points", lambda a, f: urv.gen_bie(200.0)),
        "truncate-k": ("k", lambda a, f: urv.truncate(f, 2.0)),
        "truncate-k-bool": ("k", lambda a, f: urv.truncate(f, True)),
        "projection_error-k": ("k", lambda a, f: urv.projection_error(a, f.u, 2.0)),
        "projection_error_curve-kmax": ("kmax",
                                        lambda a, f: urv.projection_error_curve(a, f.u, 2.0)),
    }

    @pytest.mark.parametrize("case", sorted(_NON_INT))
    def test_non_int_parameter(self, small, case):
        # refused by name before any arithmetic: not truncated, accepted as 1,
        # or left to fail in range, the Gaussian draw or slicing
        a, factors = small
        name, call = self._NON_INT[case]
        with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
            call(a, factors["powerurv"])

    def test_numpy_int_parameter(self, small):
        a, factors = small
        f = urv.power_urv(a, q=np.int64(1), seed=0)
        assert np.array_equal(f.u, factors["powerurv"].u) and type(f.provenance.q) is int
        assert urv.flop_estimate("qlp", np.int32(30), np.int64(20)).total == \
            urv.flop_estimate("qlp", 30, 20).total
        assert urv.projection_error(a, f.u, np.int64(3)) == urv.projection_error(a, f.u, 3)

    @pytest.mark.parametrize("call", [urv.projection_error, urv.projection_error_curve])
    @pytest.mark.parametrize("u", [lambda u: u[:-1], lambda u: np.vstack([u, u[:1]]),
                                   lambda u: u[:, 0]], ids=["fewer-rows", "more-rows", "1-d"])
    def test_basis_shape(self, small, call, u):
        # refused by name before any arithmetic, not inside matmul or indexing
        a, factors = small
        with pytest.raises(ValueError, match=r"^u must be 2-dimensional with the 30 rows of a, "
                                             r"got shape \("):
            call(a, u(factors["powerurv"].u), 1)

    def test_curve_takes_a_list(self, small):
        # u is array_like, as for projection_error
        a, factors = small
        u = factors["powerurv"].u.tolist()
        assert np.array_equal(urv.projection_error_curve(a, u, 3),
                              urv.projection_error_curve(a, np.array(u), 3))


class TestLemmaCheck:
    @pytest.mark.parametrize("q", [0, 1])
    def test_slow_decay(self, matrix_slow, q):
        a, _ = matrix_slow
        assert urv.lemma_check(a, 60, q=q, seed=12) <= 1e-10

    def test_rank_deficient_sample(self):
        # with ell above the exact rank both projectors reproduce a
        a = _rank_r_matrix(30, 20, 3, 15)
        assert urv.lemma_check(a, 5, q=1, seed=2) <= 1e-10

    @pytest.mark.parametrize("amax", [1e307, 1e-160, 1e-250])
    def test_extreme_scale(self, amax):
        # unscaled, ||A||_F overflows at 1e307 and underflows at 1e-250, and
        # the roundoff-level ||diff||_F underflows to 0 at 1e-160
        a, _ = urv.gen_slow_decay(60, 40, seed=0)
        d = urv.lemma_check(a * (amax / np.abs(a).max()), 10)
        assert 0.0 < d <= 1e-12


class TestFlopEstimate:
    def test_powerurv_square_q1(self):
        assert urv.flop_estimate("powerurv", 300, 300, 1).total == 10 * 300**3

    def test_qlp_square(self):
        m = urv.flop_estimate("qlp", 300, 300)
        assert m.total == 8 * 300**3 / 3
        assert m.by_class[CPQR_CLASS] == m.total
        assert m.by_class[GEMM_QR] == 0.0

    def test_golub_reinsch_square(self):
        m = urv.flop_estimate("golub_reinsch", 300, 300)
        assert m.total == 21 * 300**3
        assert m.by_class[LEVEL2] == m.total

    def test_powerurv_qlp_ratio(self):
        p = urv.flop_estimate("powerurv", 300, 300, 1).total
        q = urv.flop_estimate("qlp", 300, 300).total
        assert p / q == pytest.approx(3.75, rel=1e-15)

    def test_randutv_and_ddh(self):
        m, n, q = 200, 160, 1
        r = urv.flop_estimate("randutv", m, n, q)
        assert r.total == pytest.approx((5 + 2 * q) * m * n * n - (3 + 2 * q) * n**3 / 3)
        d = urv.flop_estimate("ddh", m, n)
        p0 = urv.flop_estimate("powerurv", m, n, 0)
        assert d.total == p0.total

    def test_rectangular_positive(self):
        for tag in ("powerurv", "qlp", "randutv", "golub_reinsch", "ddh"):
            assert urv.flop_estimate(tag, 500, 100, 2).total > 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            urv.flop_estimate("mystery", 10, 10)
        with pytest.raises(ValueError):
            urv.flop_estimate("qlp", 5, 10)
        with pytest.raises(ValueError, match="q must be nonnegative"):
            urv.flop_estimate("powerurv", 10, 10, q=-1)


class TestCsvWriter:
    def test_schema_and_roundtrip(self, tmp_path, matrix_slow, sigma_slow):
        a, _ = matrix_slow
        f = urv.power_urv(a, 1, True, 9)
        err = urv.error_profile(a, f, sigma_slow)
        rev = urv.reveal_profile(f)
        path = tmp_path / "profile.csv"
        urv.write_profile_csv(path, err, rev)
        lines = path.read_text().splitlines()
        assert lines[0] == urv.CSV_HEADER
        assert len(lines) == 1 + a.shape[1] + 1
        back = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(back[:, 1], err.abs_spectral)
        assert np.array_equal(back[:, 7], rev.smax_r22)
