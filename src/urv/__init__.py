"""Randomized rank-revealing URV factorizations and benchmarks.

A small dense linear algebra library built around four rank-revealing
factorization algorithms (PowerURV, DDH-URV, Stewart's QLP, and the
randomized SVD), the deterministic kernels they need, reproducible
random and benchmark matrix generators, and per-rank quality
diagnostics.
"""

from .core import (
    EPS,
    CpqrResult,
    QrResult,
    RankCollapseError,
    SvdResult,
    cpqr,
    householder_qr,
    singular_values,
    spectral_norm,
    svd,
)
from .diagnostics import (
    CSV_HEADER,
    ErrorProfile,
    FlopModel,
    RevealProfile,
    error_profile,
    flop_estimate,
    lemma_check,
    projection_error,
    projection_error_curve,
    reference_singular_values,
    reveal_profile,
    write_profile_csv,
)
from .factorizations import (
    Provenance,
    RsvdFactorization,
    UrvFactorization,
    ddh_urv,
    power_urv,
    qlp,
    rsvd,
    truncate,
)
from .io import (
    load_matrix,
    load_matrix_binary,
    load_matrix_csv,
    save_matrix_binary,
    save_matrix_csv,
)
from .matrices import (
    MatrixSpec,
    from_spec,
    gen_bie,
    gen_fast_decay,
    gen_kahan,
    gen_s_shaped,
    gen_slow_decay,
)
from .random import RngSeed, as_seed, gaussian_matrix, haar_orthogonal

__version__ = "0.20.0"

__all__ = [
    "CSV_HEADER",
    "EPS",
    "CpqrResult",
    "ErrorProfile",
    "FlopModel",
    "MatrixSpec",
    "Provenance",
    "QrResult",
    "RankCollapseError",
    "RevealProfile",
    "RngSeed",
    "RsvdFactorization",
    "SvdResult",
    "UrvFactorization",
    "as_seed",
    "cpqr",
    "ddh_urv",
    "error_profile",
    "flop_estimate",
    "from_spec",
    "gaussian_matrix",
    "gen_bie",
    "gen_fast_decay",
    "gen_kahan",
    "gen_s_shaped",
    "gen_slow_decay",
    "haar_orthogonal",
    "householder_qr",
    "lemma_check",
    "load_matrix",
    "load_matrix_binary",
    "load_matrix_csv",
    "power_urv",
    "projection_error",
    "projection_error_curve",
    "qlp",
    "reference_singular_values",
    "reveal_profile",
    "rsvd",
    "save_matrix_binary",
    "save_matrix_csv",
    "singular_values",
    "spectral_norm",
    "svd",
    "truncate",
]
