"""Power-of-two scalings of one matrix factor with every algorithm.

For ``b = 2**k * a`` with the scaling exact, every algorithm must return
finite factors of ``b``, URV factors within the reconstruction bound, and
|diag(r)| or sigma must be ``2**k`` times that of ``a``: no false
``RankCollapseError`` and no ``ValueError`` after validation.  ``cpqr``
prescales its input by an exact power of two, so it must pivot alike and
return bitwise the same q, and r scaled by ``2**k`` to roundoff.
"""

from functools import lru_cache

import numpy as np
import pytest

import urv
from urv.core import EPS

hypothesis = pytest.importorskip("hypothesis")

_RUNS = {
    "ddh": lambda a: urv.ddh_urv(a, seed=3),
    "powerurv_q1": lambda a: urv.power_urv(a, q=1, seed=3),
    "powerurv_q2": lambda a: urv.power_urv(a, q=2, seed=3),
    "powerurv_q1_noreorth": lambda a: urv.power_urv(a, q=1, reorth=False, seed=3),
    "qlp": urv.qlp,
    "rsvd": lambda a: urv.rsvd(a, 20, seed=3),
    "rsvd_noreorth": lambda a: urv.rsvd(a, 20, reorth=False, seed=3),
}


@lru_cache(maxsize=None)
def _matrix():
    return urv.gen_slow_decay(60, 40, seed=0)[0]


@lru_cache(maxsize=None)
def _reference(alg):
    return _RUNS[alg](_matrix())


@hypothesis.settings(max_examples=100, derandomize=True, deadline=None, database=None)
@hypothesis.given(k=hypothesis.strategies.integers(min_value=-1074, max_value=1000))
def test_power_of_two_scaling_factors(k):
    a = _matrix()
    b = np.ldexp(a, k)
    hypothesis.assume(np.array_equal(np.ldexp(b, -k), a))
    bound = 100 * max(a.shape) * EPS
    for alg in _RUNS:
        f, ref = _RUNS[alg](b), _reference(alg)
        assert np.isfinite(f.u).all() and np.isfinite(f.v).all(), alg
        if isinstance(f, urv.RsvdFactorization):
            assert np.allclose(np.ldexp(f.sigma, -k), ref.sigma, rtol=1e-8, atol=0), alg
            continue
        r = np.ldexp(f.r, -k)
        assert np.isfinite(f.r).all(), alg
        err = np.linalg.norm(f.u @ r @ f.v.T - a) / np.linalg.norm(a)
        assert err <= bound, (alg, err)
        assert np.allclose(np.abs(np.diag(r)), np.abs(np.diag(ref.r)), rtol=1e-8, atol=0), alg


@lru_cache(maxsize=None)
def _cpqr_reference():
    return urv.cpqr(_matrix())


@hypothesis.settings(max_examples=100, derandomize=True, deadline=None, database=None)
@hypothesis.given(k=hypothesis.strategies.integers(min_value=-1074, max_value=1000))
def test_power_of_two_scaling_cpqr(k):
    a = _matrix()
    b = np.ldexp(a, k)
    hypothesis.assume(np.array_equal(np.ldexp(b, -k), a))
    res, ref = urv.cpqr(b), _cpqr_reference()
    assert np.array_equal(res.perm, ref.perm)
    assert np.array_equal(res.q, ref.q)
    # R is formed at the prescaled size and scaled back exactly, unless its
    # smallest entries fall into the subnormal range
    r = np.ldexp(res.r, -k)
    assert np.abs(r - ref.r).max() <= EPS * np.abs(ref.r).max()
