"""Benchmark command line.

Three subcommands drive the library end to end:

``urv bench``
    generate (or load) a matrix, factor it, and write the per-rank
    error/reveal profile as CSV plus a JSON run manifest
``urv lemma``
    print the PowerURV/RSVD projector discrepancy for one configuration
``urv timing``
    median wall-clock times of the factorization kernels over a size
    sweep, the algorithms interleaved rep by rep (informational; never
    part of acceptance gating)

Two tables drive the commands.  ``_ALGORITHMS`` maps each algorithm to the
call made on the parsed flags and to the flags it reads, which decide what
the manifest records; ``bench`` and ``timing`` run through it.  Its bare
kernels (``_KERNELS``: ``qr``, ``svd`` and ``geqp3``, the pivoted QR that
``qlp`` makes twice) are ``timing`` entries only.
``urv.matrices.KINDS`` gives the fields and defaults the matrix flags read.
``bench`` refuses, with exit code 1, a matrix or algorithm flag that the
chosen ``--matrix`` or ``--alg`` does not read.

Exit codes: 0 success, 1 invalid arguments or file errors, 2 numerical
failure, reported in place of numpy's overflow warnings, which are off.

``bench`` and ``lemma`` own their process: on an input with fewer than
``_ONE_THREAD_BELOW`` columns (``min(a.shape)``, read from the spec before
a generated input is made) they generate, factor and profile it on one
thread of numpy's OpenBLAS pool, where a second thread costs more than it
saves, and restore the pool's size when they return or fail.  ``timing`` and the
library functions leave the pool as they find it.

Every CSV is accompanied by a manifest carrying the matrix spec, the
algorithm parameters, the seed, and the library version: with the same
BLAS library, that tuple is enough to reproduce the CSV bit for bit
(timing files excepted).  Below ``_ONE_THREAD_BELOW`` columns the pool
size is always 1, so the bytes do not depend on ``OPENBLAS_NUM_THREADS``;
above it, a different thread count can change the last bits, because the
BLAS sums in a different order.  The manifest records numpy's BLAS, the
pool size in effect (``blas_threads``), the numpy and Python versions and
every ``*_NUM_THREADS`` environment variable, so that condition can be
checked.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .core import blas_threads, cpqr, householder_qr, pivoted_qr, svd
from .diagnostics import (
    error_profile,
    lemma_check,
    reference_singular_values,
    reveal_profile,
    write_profile_csv,
)
from .factorizations import (
    Provenance,
    RankCollapseError,
    UrvFactorization,
    ddh_urv,
    power_urv,
    qlp,
    rsvd,
)
from .io import load_matrix
from .matrices import KINDS, MatrixSpec, from_spec, matrix_streams
from .random import RngSeed, gaussian_matrix

# ``bench`` and ``lemma`` run on one BLAS thread below this many columns.
# In-process ``main()`` on slow decay, 1 thread against 2, interleaved
# (2 cores, OpenBLAS 0.3.31 Haswell), 1-thread time / 2-thread time:
# lemma 0.68 at 200x160, 0.82 at 320^2, 0.85 at 2000x200, then 1.08 at
# 512^2, 1.16 at 768^2, 1.22 at 1024^2; bench 0.77-0.92 from 320^2 to
# 4096x256, 0.88-0.95 at 512^2, 1.00 at 768^2.  At ~400 neither command
# gets slower.
_ONE_THREAD_BELOW = 400


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the CLI contract reserves
    # 2 for numerical failures, so reroute to exit code 1.
    def error(self, message):
        raise UsageError(message)


def _matrix_help() -> str:
    """The ``--matrix`` help: the kinds, then the defaults of each."""
    return "|".join(KINDS) + " or file:<path>; defaults: " + "; ".join(
        " ".join([kind, *(f"{k}={v}" for k, v in settable.items())])
        for kind, (_, settable) in KINDS.items())


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="urv", description="Rank-revealing URV factorization benchmarks")
    sub = p.add_subparsers(dest="command", required=True)

    def add_matrix_flags(sp):
        sp.add_argument("--matrix", required=True, help=_matrix_help())
        sp.add_argument("--m", type=int, default=None, help="row count override")
        sp.add_argument("--n", type=int, default=None, help="column count override")
        sp.add_argument("--seed", type=int, default=0, help="base seed (u64)")
        sp.add_argument("--literal-decay", action="store_true", default=None,
                        help="use the literal fast-decay diagonal (underflows past k=17)")
        sp.add_argument("--theta", type=float, default=None, help="kahan matrix angle")

    b = sub.add_parser("bench", help="factor a matrix and write profile CSV + manifest")
    add_matrix_flags(b)
    # every entry but the bare kernels returns a factorization to profile
    b.add_argument("--alg", required=True, choices=[a for a in _ALGORITHMS if a not in _KERNELS])
    b.add_argument("--q", type=int, default=None, help="power iteration steps (default 1)")
    b.add_argument("--no-reorth", action="store_true", default=None,
                   help="skip renormalization between power steps")
    b.add_argument("--ell", type=int, default=None, help="rsvd sample size")
    b.add_argument("--out", default=None, help="output CSV path")

    l = sub.add_parser("lemma", help="PowerURV/RSVD projector discrepancy")
    add_matrix_flags(l)
    l.add_argument("--ell", type=int, required=True)
    l.add_argument("--q", type=int, default=1)
    l.add_argument("--no-reorth", action="store_true")

    t = sub.add_parser("timing", help="wall-clock sweep of the kernels")
    t.add_argument("--sizes", default="256,512",
                   help="comma-separated n (square) or MxN (tall) values")
    t.add_argument("--reps", type=int, default=3)
    t.add_argument("--algs", default="powerurv,qlp,geqp3,svd",
                   help=f"comma-separated from {','.join(_TIMING_ALGS)}")
    t.add_argument("--q", type=int, default=1)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", default="timing.csv")
    t.set_defaults(no_reorth=False)
    return p


def _resolve_matrix(args):
    """``(spec, None)`` for a generated input, ``(None, matrix)`` for file input.

    A file is loaded here, which takes no BLAS; a spec is generated by the
    caller, on the pool it is factored on.  A matrix flag that the chosen
    ``--matrix`` does not read is an error.
    """
    name = args.matrix
    is_file = name.startswith("file:")
    if not (is_file or name in KINDS):
        raise UsageError(f"unknown matrix {name!r}")
    values = {} if is_file else dict(KINDS[name][1])
    # each matrix flag, with the spec field or param it sets
    for key, flag, value in (("m", "--m", args.m), ("n", "--n", args.n),
                             ("theta", "--theta", args.theta),
                             ("literal", "--literal-decay", args.literal_decay)):
        if value is not None:
            if key not in values:
                raise UsageError(f"{flag} does not apply to --matrix {name}")
            values[key] = value
    if is_file:
        return None, load_matrix(name[len("file:"):])
    n = values.pop("n")
    m = values.pop("m", n)
    # a switch left off is not recorded: a plain fast spec has no params
    return MatrixSpec(name, m, n, RngSeed(args.seed),
                      {key: value for key, value in values.items() if value is not False}), None


def _resolve_algorithm(args):
    """Refuse an algorithm flag that ``--alg`` does not read; set ``--q``'s default.

    ``--ell`` has no default, so an algorithm that reads it requires it.
    """
    reads = _ALGORITHMS[args.alg][1]
    for key, flag, value in (("q", "--q", args.q), ("reorth", "--no-reorth", args.no_reorth),
                             ("ell", "--ell", args.ell)):
        if value is not None and key not in reads:
            raise UsageError(f"{flag} does not apply to --alg {args.alg}")
    if "ell" in reads and args.ell is None:
        raise UsageError(f"--alg {args.alg} requires --ell")
    if args.q is None:
        args.q = 1


def _cpqr_as_urv(a) -> UrvFactorization:
    res = cpqr(a)
    n = a.shape[1]
    v = np.eye(n)[:, res.perm]
    return UrvFactorization(res.q, res.r, v, Provenance("cpqr"))


# Each call looks its function up in this module when it runs, so that
# patching ``urv.cli.<name>`` reaches it.
_ALGORITHMS = {
    "qr": (lambda a, args: householder_qr(a), ()),
    "ddh": (lambda a, args: ddh_urv(a, RngSeed(args.seed)), ("seed",)),
    "powerurv": (lambda a, args: power_urv(a, q=args.q, reorth=not args.no_reorth,
                                            seed=RngSeed(args.seed)),
                 ("seed", "q", "reorth")),
    "qlp": (lambda a, args: qlp(a), ()),
    "rsvd": (lambda a, args: rsvd(a, args.ell, q=args.q, reorth=not args.no_reorth,
                                  seed=RngSeed(args.seed)),
             ("seed", "q", "reorth", "ell")),
    "cpqr": (lambda a, args: _cpqr_as_urv(a), ()),
    # the kernels that qlp and the paper's baseline run on, for timing
    "svd": (lambda a, args: svd(a), ()),
    "geqp3": (lambda a, args: pivoted_qr(a), ()),
}
_KERNELS = ("qr", "svd", "geqp3")
_TIMING_ALGS = tuple(name for name, (_, reads) in _ALGORITHMS.items() if "ell" not in reads)


def _blas() -> dict:
    """Name, version and configuration of numpy's BLAS, the one runtime every kernel uses."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration")}


def _run_bench(args, spec, a, threads: int) -> int:
    call, reads = _ALGORITHMS[args.alg]
    t0 = time.perf_counter()
    fac = call(a, args)
    wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    sigma_ref = reference_singular_values(a)
    rev = reveal_profile(fac)
    err = error_profile(a, fac, sigma_ref, reveal=rev)
    diagnostics_wall = time.perf_counter() - t0
    source = args.matrix if spec else "file:" + os.path.basename(args.matrix[len("file:"):])
    out = args.out or f"{source.replace(':', '_')}_{args.alg}.csv"
    write_profile_csv(out, err, rev)

    seed = RngSeed(args.seed)
    streams = matrix_streams(spec) if spec else {}
    if "seed" in reads:
        streams["sketch"] = seed
    manifest = {
        "spec": dataclasses.asdict(spec) if spec else {"file": args.matrix},
        "algorithm": {
            "name": args.alg,
            "q": args.q if "q" in reads else None,
            "reorth": not args.no_reorth if "reorth" in reads else None,
            "ell": args.ell if "ell" in reads else None,
        },
        "seed": seed._asdict(),
        "streams": streams,
        "wall_time_s": wall,
        "diagnostics_wall_s": diagnostics_wall,
        "library_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "blas": _blas(),
        "blas_threads": threads,
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "outputs": [str(out)],
    }
    warnings = fac.provenance.warnings
    if warnings:
        manifest["warnings"] = list(warnings)
        print("\n".join(warnings), file=sys.stderr)
    manifest_path = os.path.splitext(out)[0] + ".json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out} and {manifest_path} ({wall:.3f}s)")
    return 0


def _run_lemma(args, a) -> int:
    d = lemma_check(a, args.ell, q=args.q, seed=RngSeed(args.seed),
                    reorth=not args.no_reorth)
    print(f"lemma discrepancy: {d:.17g}")
    return 0


def _parse_size(entry: str):
    """``(m, n, label)`` from an ``n`` or ``MxN`` entry of ``--sizes``."""
    try:
        dims = [int(d) for d in entry.split("x")]
    except ValueError as exc:
        raise UsageError(f"bad --sizes: {exc}") from exc
    if len(dims) > 2 or not dims[0] >= dims[-1] >= 1:
        raise UsageError(f"bad --sizes entry {entry!r}: expected n or MxN with M >= N >= 1")
    return dims[0], dims[-1], "x".join(map(str, dims))


def _run_timing(args) -> int:
    if args.reps < 1:
        raise UsageError(f"--reps must be >= 1, got {args.reps}")
    sizes = [_parse_size(s) for s in args.sizes.split(",") if s]
    algs = [s.strip() for s in args.algs.split(",") if s.strip()]
    for alg in algs:
        if alg not in _TIMING_ALGS:
            raise UsageError(f"unknown timing algorithm {alg!r}")
    rows = []
    for m, n, label in sizes:
        a = gaussian_matrix(m, n, RngSeed(args.seed))
        # rep by rep, one call of each algorithm in turn, so that a drift
        # in the machine's load falls on every algorithm alike
        times = {alg: [] for alg in algs}
        for _ in range(args.reps):
            for alg in algs:
                t0 = time.perf_counter()
                _ALGORITHMS[alg][0](a, args)
                times[alg].append(time.perf_counter() - t0)
        for alg in algs:
            med = float(np.median(times[alg]))
            rows.append((alg, label, med))
            print(f"{alg:10s} n={label:>6s} median {med:.4f}s over {args.reps} reps")
    with open(args.out, "w", newline="\n") as fh:
        fh.write("alg,n,median_seconds,reps\n")
        for alg, label, med in rows:
            fh.write(f"{alg},{label},{med:.17g},{args.reps}\n")
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not 0 <= args.seed < 1 << 64:
            raise UsageError(f"--seed must be in [0, 2**64), got {args.seed}")
        if args.command == "timing":
            return _run_timing(args)
        if args.command == "bench":
            _resolve_algorithm(args)
        spec, a = _resolve_matrix(args)
        cols = min(spec.m, spec.n) if spec else min(a.shape)
        with (np.errstate(over="ignore", invalid="ignore"),
              blas_threads(1 if cols < _ONE_THREAD_BELOW else None) as threads):
            if spec:
                a, _ = from_spec(spec)
            if args.command == "bench":
                return _run_bench(args, spec, a, threads)
            return _run_lemma(args, a)
    # LinAlgError subclasses ValueError, so it is caught first
    except (RankCollapseError, np.linalg.LinAlgError) as exc:
        print(f"urv: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, OSError) as exc:
        print(f"urv: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
