"""Benchmark matrix generators."""

import ast
from pathlib import Path

import numpy as np
import pytest

import urv


class TestFastDecay:
    def test_first_value_is_one(self):
        _, d_lit = urv.gen_fast_decay(20, 10, seed=0, literal=True)
        _, d_cal = urv.gen_fast_decay(20, 10, seed=0, literal=False)
        assert d_lit[0] == 1.0 and d_cal[0] == 1.0

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

    def test_seed_coerced(self):
        # an int or a [seed, stream] pair, as a manifest stores it
        spec = urv.MatrixSpec("slow", 4, 3, urv.RngSeed(7))
        assert urv.MatrixSpec("slow", 4, 3, 7) == spec
        assert urv.MatrixSpec("slow", 4, 3, [7, 0]) == spec
        assert urv.MatrixSpec("slow", 4, 3, [7, 0]).seed == urv.RngSeed(7, 0)

    def test_haar_factors_independent_across_streams(self):
        a1, _ = urv.gen_slow_decay(40, 30, seed=urv.RngSeed(5, 0))
        a2, _ = urv.gen_slow_decay(40, 30, seed=urv.RngSeed(5, 1))
        assert not np.allclose(a1, a2)


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
