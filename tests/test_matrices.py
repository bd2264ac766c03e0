"""Benchmark matrix generators."""

import ast
import dataclasses
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import urv


class TestFastDecay:
    def test_first_value_is_one(self):
        _, d_lit = urv.gen_fast_decay(20, 10, seed=0, literal=True)
        _, d_cal = urv.gen_fast_decay(20, 10, seed=0, literal=False)
        assert d_lit[0] == 1.0 and d_cal[0] == 1.0
        a, d_one = urv.gen_fast_decay(20, 1, seed=0)
        assert d_one.tolist() == [1.0] and a.shape == (20, 1)

    def test_literal_second_value(self):
        _, d = urv.gen_fast_decay(20, 10, seed=0, literal=True)
        assert d[1] == 1e-20

    def test_literal_underflows_to_zero(self):
        _, d = urv.gen_fast_decay(200, 160, seed=0, literal=True)
        assert d[17] == 0.0

    def test_calibrated_endpoint(self):
        _, d = urv.gen_fast_decay(seed=0)
        assert d[-1] == pytest.approx(1e-20, rel=1e-12)

    def test_spectrum_matches_prescription(self, matrix_fast):
        a, d = matrix_fast
        s = urv.singular_values(a)
        floor = 1e-14 * d[0]
        big = d >= floor
        assert np.allclose(s[big], d[big], rtol=1e-12)
        assert np.allclose(s[~big], d[~big], atol=floor)


class TestSlowDecay:
    def test_values(self):
        _, d = urv.gen_slow_decay(seed=0)
        assert d[0] == 1.0
        with pytest.raises(ValueError, match="rows >= cols, got 20x30"):
            urv.gen_slow_decay(20, 30, seed=0)
        assert d[159] == pytest.approx(0.00625, rel=1e-15)
        assert d[0] / d[-1] == pytest.approx(160.0, rel=1e-14)

    def test_spectrum_matches_prescription(self, matrix_slow):
        a, d = matrix_slow
        assert np.allclose(urv.singular_values(a), d, rtol=1e-12)


class TestSShaped:
    def test_midpoint(self):
        _, d = urv.gen_s_shaped(seed=0)
        assert d[79] == pytest.approx(0.1, rel=1e-14)

    def test_plateau(self):
        _, d = urv.gen_s_shaped(seed=0)
        assert (d[80:] == 1e-2).all()

    def test_first_value(self):
        _, d = urv.gen_s_shaped(seed=0)
        expected = 10.0 ** (-(1 + np.tanh(-4.9375)))
        assert d[0] == pytest.approx(expected, rel=1e-15)
        a, _ = urv.gen_s_shaped(seed=0)
        assert urv.singular_values(a)[0] == pytest.approx(expected, rel=1e-12)


class TestBie:
    def test_shape_and_finiteness(self, matrix_bie):
        assert matrix_bie.shape == (200, 200)
        assert np.isfinite(matrix_bie).all()

    def test_spectral_norm_anchor(self, matrix_bie):
        # frozen regression anchor for this deterministic discretization
        s1 = urv.spectral_norm(matrix_bie)
        assert 0.1 <= s1 <= 10.0
        assert s1 == pytest.approx(0.83744510295043839, rel=1e-8)

    def test_deterministic(self):
        assert np.array_equal(urv.gen_bie(200), urv.gen_bie(200))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            urv.gen_bie(48)
        with pytest.raises(ValueError):
            urv.gen_bie(201)


class TestKahan:
    def test_small_instance(self):
        a = urv.gen_kahan(2, np.pi / 3)
        assert a[0, 0] == 1.0
        assert a[0, 1] == pytest.approx(-0.5, rel=1e-15)
        assert a[1, 0] == 0.0
        assert a[1, 1] == pytest.approx(np.sqrt(3) / 2, rel=1e-15)

    def test_diagonal_powers(self):
        a = urv.gen_kahan(8, 1.2)
        assert np.allclose(np.diag(a), np.sin(1.2) ** np.arange(8), rtol=1e-15)

    def test_cpqr_failure_signature(self):
        res = urv.cpqr(urv.gen_kahan(8, 1.2))
        assert res.perm.tolist() == list(range(8))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            urv.gen_kahan(1, 1.2)
        with pytest.raises(ValueError):
            urv.gen_kahan(8, 2.0)


class TestSpecRoundTrip:
    def test_from_spec_dispatch(self):
        for kind in ("fast", "slow", "sshape"):
            a, d = urv.from_spec(urv.MatrixSpec(kind, 60, 40, urv.RngSeed(3)))
            assert a.shape == (60, 40) and d.shape == (40,)
        a, d = urv.from_spec(urv.MatrixSpec("bie", 100, 100))
        assert a.shape == (100, 100) and d is None
        a, d = urv.from_spec(urv.MatrixSpec("kahan", 8, 8, params={"theta": 1.2}))
        assert a.shape == (8, 8) and d is None
        with pytest.raises(ValueError):
            urv.from_spec(urv.MatrixSpec("nope", 4, 4))

    @pytest.mark.parametrize("spec, message", [
        (("bie", 300, 200), "matrix kind 'bie' is square, got m=300 n=200"),
        (("kahan", 50, 40), "matrix kind 'kahan' is square, got m=50 n=40"),
        (("slow", 30, 20, 0, {"theta": 1.0}),
         "params ['theta'] do not apply to matrix kind 'slow'"),
        (("slow", 30, 20, 0, {"n": 5}), "params ['n'] do not apply to matrix kind 'slow'"),
        (("slow", 20.0, 10), "m must be an int, got 20.0"),
        (("slow", 20, True), "n must be an int, got True"),
        (("fast", 20, 10, 0, {"literal": "false"}),
         "param 'literal' must be a bool like its default False, got 'false'"),
        (("kahan", 8, 8, 0, {"theta": 1}),
         "param 'theta' must be a float like its default 1.2, got 1"),
    ], ids=["bie-wide", "kahan-wide", "slow-theta", "slow-n-param", "float-m", "bool-n",
            "str-literal", "int-theta"])
    def test_spec_refuses_what_from_spec_would_not_build(self, spec, message):
        # a spec builds the matrix it names, or is refused when it is made
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                urv.MatrixSpec(*spec)
        assert str(info.value) == message

    def test_seed_coerced(self):
        # an int or a [seed, stream] pair, as a manifest stores it
        spec = urv.MatrixSpec("slow", 4, 3, urv.RngSeed(7))
        assert urv.MatrixSpec("slow", 4, 3, 7) == spec
        assert urv.MatrixSpec("slow", 4, 3, [7, 0]) == spec
        assert urv.MatrixSpec("slow", 4, 3, [7, 0]).seed == urv.RngSeed(7, 0)

    def test_numpy_int_sizes(self):
        # numpy integers are taken, as by every other entry, and stored as
        # Python ints, so that a manifest of the spec still serializes
        spec = urv.MatrixSpec("slow", np.int64(20), np.int32(10))
        assert spec == urv.MatrixSpec("slow", 20, 10)
        assert type(spec.m) is int and type(spec.n) is int
        assert json.loads(json.dumps(dataclasses.asdict(spec)))["m"] == 20
        assert urv.from_spec(spec)[0].shape == (20, 10)

    def test_haar_factors_independent_across_streams(self):
        a1, _ = urv.gen_slow_decay(40, 30, seed=urv.RngSeed(5, 0))
        a2, _ = urv.gen_slow_decay(40, 30, seed=urv.RngSeed(5, 1))
        assert not np.allclose(a1, a2)


# SHA-256 of the default generators' matrices (200x160, seed 0) on one BLAS
# thread, with numpy 2.4.6 and its OpenBLAS 0.3.31 (Haswell kernels)
_GENERATOR_DIGESTS = {
    "gen_fast_decay": "940ec520e02d28e1a62f165ee458244079cb1f47bf0963ce06ef4dddfc800447",
    "gen_slow_decay": "fd578a5746408545e439d493221c329e69f099da0dd61f8b386435e4204989c4",
    "gen_s_shaped": "6b740c671d0703fd743330875838e5c65e16c021b14be7df330726a8beff84bb",
}


@pytest.mark.parametrize("gen", sorted(_GENERATOR_DIGESTS))
def test_generator_bits(gen):
    # a tripwire on the generators' Haar draw (core._haar_q): the paper-size
    # fixtures and the acceptance criteria are computed on these bits
    with urv.core.blas_threads(1):
        a, _ = getattr(urv, gen)()
    digest = hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
    assert digest == _GENERATOR_DIGESTS[gen], (
        f"{gen}() moved: criterion 2's margin at its noise floor rides on these bits (the "
        f"0.16.0 FOUND in CHANGES.md), so rerun the acceptance criteria before updating the "
        f"digest; a BLAS or numpy upgrade also moves them")


def _kind_literals(tree):
    """(line, value) of each string constant equal to a matrix kind, docstrings aside."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in urv.matrices.KINDS and id(node) not in docstrings]


def test_kinds_only_in_matrices():
    # each matrix kind is declared once, in urv.matrices.KINDS: another
    # module that names one restates a per-kind fact
    found = []
    for path in sorted(Path(urv.__file__).parent.glob("*.py")):
        if path.name != "matrices.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{line}: {value!r}" for line, value in _kind_literals(tree)]
    assert not found, "matrix kind named outside urv.matrices:\n" + "\n".join(found)


@pytest.mark.parametrize("source,expected", [
    ('x = "bie"', ["bie"]),
    ('f(kind="kahan")', ["kahan"]),
    ('x = ("fast", "slow")', ["fast", "slow"]),
    ('"""bie"""', []),
    ('def f():\n    """kahan"""', []),
    ('x = "kahan matrix angle"', []),
    ('x = f"{kind} sshape"', []),
])
def test_kind_guard_flags(source, expected):
    assert [value for _, value in _kind_literals(ast.parse(source))] == expected
