"""Benchmark matrix generators.

Four standard test problems for rank-revealing factorizations, plus
Kahan's classical counterexample for pivoted QR:

fast decay
    geometric singular values falling from 1 to 1e-20
slow decay
    singular values 1/k
S-shaped decay
    a tanh ramp from ~1 down to a 1e-2 plateau
boundary integral
    a Nystrom discretization of a second-kind integral equation on a
    five-petaled star (the only non-synthetic spectrum)
kahan
    the triangular matrix on which column pivoting fails to reveal the
    near rank deficiency

The synthetic generators return their exact singular values alongside
the matrix; the orthogonal factors are Haar with independent streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import _haar_q, int_param
from .core import householder_qr  # noqa: F401  perfbench traces matrices.householder_qr
from .random import RngSeed, as_seed, gaussian_matrix

DEFAULT_M = 200
DEFAULT_N = 160
DEFAULT_BIE_N = 200
DEFAULT_KAHAN_N = 96
DEFAULT_KAHAN_THETA = 1.2

# stream tags for the two independent Haar draws of U and V
_U_STREAM = 1
_V_STREAM = 2


@dataclass(frozen=True)
class MatrixSpec:
    """Description of one benchmark matrix instance.

    A ``urv bench`` manifest stores it as ``dataclasses.asdict(spec)``, so
    ``from_spec(MatrixSpec(**manifest["spec"]))`` rebuilds the matrix.
    A spec names only what ``from_spec`` builds: an unknown ``kind``, an
    ``m`` or ``n`` that is not an int (a bool included), a param that its
    ``KINDS`` entry does not list (``m`` and ``n`` are fields, not params)
    or whose type differs from its default there, and ``m != n`` for a
    square kind (bie, kahan) are a ``ValueError``.  A numpy integer ``m``
    or ``n`` is stored as a Python int.
    """

    kind: str
    m: int
    n: int
    seed: RngSeed = RngSeed(0)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # a manifest stores the seed as a [seed, stream] list
        object.__setattr__(self, "seed", as_seed(self.seed))
        if self.kind not in KINDS:
            raise ValueError(f"unknown matrix kind {self.kind!r}")
        for name in ("m", "n"):
            # stored as a Python int, so that a manifest serializes
            object.__setattr__(self, name, int_param(getattr(self, name), name))
        settable = KINDS[self.kind][1]
        unread = sorted(set(self.params) - (set(settable) - {"m", "n"}))
        if unread:
            raise ValueError(f"params {unread} do not apply to matrix kind {self.kind!r}")
        for name, value in self.params.items():
            default = settable[name]
            if not isinstance(value, type(default)):
                raise ValueError(f"param {name!r} must be a {type(default).__name__} like its "
                                 f"default {default!r}, got {value!r}")
        if "m" not in settable and self.m != self.n:
            raise ValueError(f"matrix kind {self.kind!r} is square, got m={self.m} n={self.n}")


def _haar_columns(m, n, seed):
    """m x n matrix with Haar-distributed orthonormal columns."""
    return _haar_q(gaussian_matrix(m, n, seed)).q


def _from_singular_values(m, n, seed, d):
    """Assemble A = U diag(d) V^T with independent Haar factors."""
    if m < n:
        raise ValueError(f"generators require rows >= cols, got {m}x{n}")
    seed = as_seed(seed)
    u = _haar_columns(m, n, seed.spawn(_U_STREAM))
    v = _haar_columns(n, n, seed.spawn(_V_STREAM))
    u *= d
    return u @ v.T, d


def gen_fast_decay(m: int = DEFAULT_M, n: int = DEFAULT_N, seed=0, literal: bool = False):
    """Matrix with fast geometric singular value decay.

    In the calibrated mode (default) the diagonal is
    ``10**(-20*(k-1)/(n-1))``, reaching 1e-20 at k = n.  The literal
    mode uses ``(1e-20)**(k-1)``, which underflows to exact zero from
    k = 18 on; it is kept for fidelity to the geometric-per-step
    reading of the decay.

    Returns ``(a, sigma)`` where sigma holds the exact diagonal.
    """
    k = np.arange(n, dtype=float)
    if literal:
        d = np.float_power(1e-20, k)
    elif n == 1:
        d = np.ones(1)
    else:
        d = 10.0 ** (-20.0 * k / (n - 1))
    return _from_singular_values(m, n, seed, d)


def gen_slow_decay(m: int = DEFAULT_M, n: int = DEFAULT_N, seed=0):
    """Matrix with singular values 1/k.  Returns ``(a, sigma)``."""
    d = 1.0 / np.arange(1, n + 1, dtype=float)
    return _from_singular_values(m, n, seed, d)


def gen_s_shaped(m: int = DEFAULT_M, n: int = DEFAULT_N, seed=0):
    """Matrix with S-shaped singular value decay.

    Diagonal ``10**(-(1 + tanh(5*(2k/n - 1))))`` for k <= n/2, then a
    constant 1e-2 plateau through k = n.  Returns ``(a, sigma)``.
    """
    k = np.arange(1, n + 1, dtype=float)
    ramp = 10.0 ** (-(1.0 + np.tanh(5.0 * (2.0 * k / n - 1.0))))
    d = np.where(k <= n // 2, ramp, 1e-2)
    return _from_singular_values(m, n, seed, d)


def gen_bie(n_points: int = DEFAULT_BIE_N) -> np.ndarray:
    """Nystrom matrix of a boundary integral equation on a 5-petal star.

    Discretizes the second-kind equation (I/2 + D) for the interior
    Laplace Dirichlet problem on the curve r(t) = 1 + 0.3 cos(5t) with
    the trapezoidal rule on ``n_points`` equispaced nodes.  The
    double-layer kernel is smooth on this curve; its diagonal limit is
    -kappa(t) |x'(t)| / (4 pi) with kappa the signed curvature.
    Deterministic, no randomness.
    """
    n_points = int_param(n_points, "n_points")
    if n_points < 50 or n_points % 2:
        raise ValueError("n_points must be even and >= 50")
    n = n_points
    h = 2.0 * np.pi / n
    t = h * np.arange(n)

    r = 1.0 + 0.3 * np.cos(5.0 * t)
    r1 = -1.5 * np.sin(5.0 * t)
    r2 = -7.5 * np.cos(5.0 * t)
    ct, st = np.cos(t), np.sin(t)
    x = r * ct
    y = r * st
    x1 = r1 * ct - r * st
    y1 = r1 * st + r * ct
    x2 = r2 * ct - 2.0 * r1 * st - r * ct
    y2 = r2 * st + 2.0 * r1 * ct - r * st

    speed = np.hypot(x1, y1)
    nux = y1 / speed
    nuy = -x1 / speed
    kappa = (x1 * y2 - y1 * x2) / speed**3

    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    dist2 = dx * dx + dy * dy
    np.fill_diagonal(dist2, 1.0)
    kern = (dx * nux[None, :] + dy * nuy[None, :]) / (2.0 * np.pi * dist2) * speed[None, :]
    np.fill_diagonal(kern, -kappa * speed / (4.0 * np.pi))

    return 0.5 * np.eye(n) + h * kern


def gen_kahan(n: int = DEFAULT_KAHAN_N, theta: float = DEFAULT_KAHAN_THETA) -> np.ndarray:
    """Kahan's upper-triangular matrix.

    ``diag(1, s, s**2, ...) @ T`` with s = sin(theta) and T unit
    upper-triangular with every strict upper entry -cos(theta).  Column
    norms are exactly 1, so greedy pivoting never permutes, yet the
    smallest singular value is far below the last diagonal entry.
    """
    n = int_param(n, "n")
    if n < 2:
        raise ValueError("kahan matrix needs n >= 2")
    if not 0.0 < theta < np.pi / 2:
        raise ValueError("theta must lie in (0, pi/2)")
    s, c = np.sin(theta), np.cos(theta)
    t = np.triu(np.full((n, n), -c), 1) + np.eye(n)
    return (s ** np.arange(n))[:, None] * t


# Each kind: its generator, called on the spec and on the spec's params with
# the kind's defaults filled in, and the spec fields and params a caller may
# set, with their defaults.  A kind without ``m`` is square and draws no Haar
# streams.  Each call looks ``gen_*`` up when it runs, so patching reaches it.
KINDS = {
    "fast": (lambda s, p: gen_fast_decay(s.m, s.n, s.seed, p["literal"]),
             {"m": DEFAULT_M, "n": DEFAULT_N, "literal": False}),
    "slow": (lambda s, p: gen_slow_decay(s.m, s.n, s.seed), {"m": DEFAULT_M, "n": DEFAULT_N}),
    "sshape": (lambda s, p: gen_s_shaped(s.m, s.n, s.seed), {"m": DEFAULT_M, "n": DEFAULT_N}),
    "bie": (lambda s, p: (gen_bie(s.n), None), {"n": DEFAULT_BIE_N}),
    "kahan": (lambda s, p: (gen_kahan(s.n, p["theta"]), None),
              {"n": DEFAULT_KAHAN_N, "theta": DEFAULT_KAHAN_THETA}),
}


def matrix_streams(spec: MatrixSpec) -> dict:
    """The named Philox streams ``from_spec`` draws (none for the square kinds)."""
    if "m" not in KINDS[spec.kind][1]:
        return {}
    return {"matrix_u": spec.seed.spawn(_U_STREAM), "matrix_v": spec.seed.spawn(_V_STREAM)}


def from_spec(spec: MatrixSpec):
    """Instantiate a benchmark matrix from its spec.

    Returns ``(a, sigma)``; sigma is None for the kinds whose spectrum
    is not prescribed (bie, kahan).
    """
    generate, settable = KINDS[spec.kind]
    return generate(spec, {**settable, **spec.params})
