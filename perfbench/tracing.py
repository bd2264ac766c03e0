"""Span tracing for the benchmark's traced passes.

The tracer wraps the library's public functions at the module attributes
through which they are called (``urv.cli.power_urv``,
``urv.factorizations.householder_qr``, ...), records one span per call
(name, parent, start, end, computed flops, numpy SVD calls made inside it,
bytes of the file it wrote or read) and restores every attribute after the
traced call.  Nothing under ``src/`` changes: the wrappers exist only inside
the benchmark process, only while a traced call runs.

``layer_metrics`` turns the spans of one traced pass into the per-layer
metrics.  ``LAYER_METRICS`` names each of them with its unit, the
end-to-end metric it should move and the workload where it should not.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

# (name, unit, better, moves, does not move)
LAYER_METRICS = [
    ("random.gaussian_matrix.calls", "count", "lower",
     "powerurv_q*_s, rsvd_s, lemma_s on factor_large and sketch_tall",
     "err_ratio.* anywhere"),
    ("random.gaussian_matrix.s", "s", "lower",
     "powerurv_q*_s (~2%) on factor_large", "anything on paper_profile"),
    ("matrices.gen.s", "s", "lower",
     "every *_s on paper_profile (~1% of each bench call)",
     "factor_large and sketch_tall, which generate only at set-up"),
    ("matrices.gen.setup_s", "s", "lower",
     "setup_s on factor_large and sketch_tall (two Haar QRs)",
     "any per-call *_s"),
    ("core.householder_qr.calls", "count", "lower",
     "powerurv_q*_s, ddh_s, rsvd_s, lemma_s on factor_large and sketch_tall",
     "qlp_s"),
    ("core.householder_qr.s", "s", "lower",
     "powerurv_q*_s and ddh_s on factor_large; rsvd_s and lemma_s on sketch_tall",
     "*_s on paper_profile (~2% of a bench call)"),
    ("core.householder_qr.gflops", "GFLOP/s", "higher",
     "powerurv_q*_s, ddh_s, rsvd_s, lemma_s on factor_large and sketch_tall",
     "qlp_s"),
    ("core.cpqr.calls", "count", "lower", "qlp_s", "every other *_s"),
    ("core.cpqr.s", "s", "lower",
     "qlp_s on factor_large and sketch_tall",
     "qlp_s on paper_profile (~3% of a qlp bench call)"),
    ("core.cpqr.gflops", "GFLOP/s", "higher",
     "qlp_s on factor_large and sketch_tall", "every other *_s"),
    ("core.svd.calls", "count", "lower",
     "nothing: the urv.svd reference plus the small SVD inside rsvd",
     "every end-to-end metric"),
    ("core.svd.s", "s", "lower",
     "nothing: the reference powerurv_q1_s is compared against, and a "
     "sentinel for machine drift", "every end-to-end metric"),
    ("factorizations.power_urv.s", "s", "lower",
     "powerurv_q*_s and lemma_s on factor_large and sketch_tall",
     "*_s on paper_profile"),
    ("factorizations.power_urv.self_s", "s", "lower",
     "powerurv_q*_s on factor_large and sketch_tall (products with A and A^T)",
     "ddh_s, qlp_s"),
    ("factorizations.power_urv.qr_calls", "count", "lower",
     "powerurv_q*_s and lemma_s (today 2q+2 per call)", "rsvd_s"),
    ("factorizations.power_urv.gflops", "GFLOP/s", "higher",
     "powerurv_q*_s on factor_large and sketch_tall", "paper_profile"),
    ("factorizations.ddh_urv.s", "s", "lower",
     "ddh_s on factor_large and sketch_tall", "ddh_s on paper_profile"),
    ("factorizations.ddh_urv.self_s", "s", "lower",
     "ddh_s on factor_large and sketch_tall", "every other *_s"),
    ("factorizations.qlp.s", "s", "lower",
     "qlp_s on factor_large and sketch_tall", "qlp_s on paper_profile"),
    ("factorizations.qlp.self_s", "s", "lower",
     "qlp_s (the permutation and transpose work)", "every other *_s"),
    ("factorizations.qlp.gflops", "GFLOP/s", "higher",
     "qlp_s on factor_large and sketch_tall", "every other *_s"),
    ("factorizations.rsvd.s", "s", "lower",
     "rsvd_s and lemma_s on factor_large and sketch_tall",
     "rsvd_s on paper_profile"),
    ("factorizations.rsvd.self_s", "s", "lower",
     "rsvd_s and lemma_s (products with A and A^T)", "powerurv_q*_s"),
    ("diagnostics.error_profile.s", "s", "lower",
     "every *_s on paper_profile (~60% of a bench call)",
     "factor_large and sketch_tall, where it does not run"),
    ("diagnostics.error_profile.svd_calls", "count", "lower",
     "every *_s on paper_profile (today n+1 per call)",
     "factor_large and sketch_tall"),
    ("diagnostics.reveal_profile.s", "s", "lower",
     "ddh_s, powerurv_q*_s, qlp_s on paper_profile",
     "rsvd_s on paper_profile; factor_large and sketch_tall"),
    ("diagnostics.reveal_profile.svd_calls", "count", "lower",
     "ddh_s, powerurv_q*_s, qlp_s on paper_profile (today 2n per URV call)",
     "factor_large and sketch_tall"),
    ("diagnostics.reference_singular_values.s", "s", "lower",
     "every *_s on paper_profile", "factor_large and sketch_tall"),
    ("diagnostics.lemma_check.s", "s", "lower", "lemma_s", "every other *_s"),
    ("diagnostics.lemma_check.self_s", "s", "lower",
     "lemma_s (the two projector products)", "every other *_s"),
    ("diagnostics.lemma_check.discrepancy_max", "ratio", "lower",
     "nothing (roundoff-level; the gate is 1e-10)", "every end-to-end metric"),
    ("diagnostics.write_profile_csv.s", "s", "lower",
     "every *_s on paper_profile (<1%)", "factor_large and sketch_tall"),
    ("diagnostics.write_profile_csv.bytes", "bytes", "lower",
     "every *_s on paper_profile (<1%)", "factor_large and sketch_tall"),
    ("io.load_matrix.s", "s", "lower",
     "every *_s on paper_profile (bie calls, <1%)",
     "factor_large and sketch_tall"),
    ("io.load_matrix.bytes", "bytes", "lower",
     "every *_s on paper_profile (bie calls, <1%)",
     "factor_large and sketch_tall"),
    ("cli.bench.self_s", "s", "lower",
     "every *_s except lemma_s on paper_profile (<1%)",
     "factor_large and sketch_tall"),
    ("trace.overhead_frac", "frac", "lower",
     "nothing: time of the traced calls minus that of their untraced "
     "copies, over the latter", "-"),
    ("trace.coverage", "frac", "higher",
     "nothing: time in top-level spans over the time of the untraced "
     "copies; 1 within trace.overhead_frac", "-"),
]


def householder_flops(shape) -> float:
    """Thin Householder QR of an m x n matrix, m >= n, Q formed: 4mn^2 - 4n^3/3."""
    m, n = shape
    return 4.0 * m * n * n - 4.0 * n**3 / 3.0


def cpqr_flops(shape) -> float:
    """Householder QR of an m x n matrix (k = min(m, n) reflectors) plus its m x k Q.

    LAPACK's counts: geqrf 2mnk - (m+n)k^2 + 2k^3/3, orgqr 2mk^2 - 2k^3/3.
    Pivoting and norm downdating are not counted.
    """
    m, n = shape
    k = min(m, n)
    return (2.0 * m * n * k - (m + n) * k * k + 2.0 * k**3 / 3.0) + (
        2.0 * m * k * k - 2.0 * k**3 / 3.0)


class Span:
    __slots__ = ("name", "parent", "start", "end", "flops", "svd_calls", "bytes")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.flops = 0.0
        self.svd_calls = 0
        self.bytes = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of the traced calls of one pass, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.svd_count = 0

    def call(self, name, fn, *args, flops=0.0, path_arg=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        span = Span(name, self._open[-1] if self._open else None)
        span.flops = flops
        self.spans.append(span)
        self._open.append(span)
        svd0 = self.svd_count
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            span.svd_calls = self.svd_count - svd0
            if path_arg is not None:
                path = args[path_arg] if len(args) > path_arg else None
                if path is not None and os.path.exists(path):
                    span.bytes = os.path.getsize(path)


def _sites(urv):
    """(span name, [modules holding the name], attribute, flops fn, path arg).

    Each module listed is an import site through which the library or the
    benchmark calls the function; the internal ``power_urv`` call inside
    ``ddh_urv`` is deliberately not a site, so a ``ddh_urv`` span is not
    also counted as ``power_urv``.
    """
    cli, fac, diag, mat, rnd = (urv.cli, urv.factorizations, urv.diagnostics,
                                urv.matrices, urv.random)

    def shape_of(a):
        return getattr(a, "shape", (0, 0))

    def power_flops(args, kwargs):
        m, n = shape_of(args[0])
        q = args[1] if len(args) > 1 else kwargs.get("q", 1)
        return urv.flop_estimate("powerurv", m, n, q).total

    def qlp_flops(args, kwargs):
        m, n = shape_of(args[0])
        return urv.flop_estimate("qlp", m, n).total

    sites = [
        ("random.gaussian_matrix", [fac, mat], "gaussian_matrix", None, None),
        ("core.householder_qr", [fac, rnd, mat], "householder_qr",
         lambda args, kwargs: householder_flops(shape_of(args[0])), None),
        ("core.cpqr", [fac], "cpqr",
         lambda args, kwargs: cpqr_flops(shape_of(args[0])), None),
        ("core.svd", [fac, urv], "svd", None, None),
        ("factorizations.power_urv", [urv, cli, diag], "power_urv", power_flops, None),
        ("factorizations.ddh_urv", [urv, cli], "ddh_urv", None, None),
        ("factorizations.qlp", [urv, cli], "qlp", qlp_flops, None),
        ("factorizations.rsvd", [urv, cli, diag], "rsvd", None, None),
        ("diagnostics.error_profile", [cli], "error_profile", None, None),
        ("diagnostics.reveal_profile", [cli], "reveal_profile", None, None),
        ("diagnostics.reference_singular_values", [cli],
         "reference_singular_values", None, None),
        ("diagnostics.write_profile_csv", [cli], "write_profile_csv", None, 0),
        ("diagnostics.lemma_check", [urv, cli], "lemma_check", None, None),
        ("io.load_matrix", [cli], "load_matrix", None, 0),
    ]
    for gen in ("gen_fast_decay", "gen_slow_decay", "gen_s_shaped", "gen_bie", "gen_kahan"):
        sites.append(("matrices.gen", [mat, urv], gen, None, None))
    return sites


@contextmanager
def tracing(urv, tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    import numpy as np   # here, so that importing this module does not import numpy

    saved = []

    def wrap(name, fn, flops_fn, path_arg):
        def traced(*args, **kwargs):
            flops = flops_fn(args, kwargs) if flops_fn else 0.0
            return tracer.call(name, fn, *args, flops=flops, path_arg=path_arg, **kwargs)
        return traced

    def patch(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    try:
        for name, modules, attr, flops_fn, path_arg in _sites(urv):
            for module in modules:
                patch(module, attr, wrap(name, getattr(module, attr), flops_fn, path_arg))
        np_svd = np.linalg.svd

        def counted_svd(*args, **kwargs):
            tracer.svd_count += 1
            return np_svd(*args, **kwargs)

        patch(np.linalg, "svd", counted_svd)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass (the trace.* ones excepted)."""
    by_name = defaultdict(list)
    child_s = defaultdict(float)
    qr_in_power = 0
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            child_s[id(span.parent)] += span.seconds
            if span.name == "core.householder_qr" and span.parent.name == "factorizations.power_urv":
                qr_in_power += 1

    def total(name, attr="seconds"):
        return float(sum(getattr(s, attr) for s in by_name[name]))

    def self_s(name):
        return float(sum(s.seconds - child_s[id(s)] for s in by_name[name]))

    def per_call(name, value):
        calls = len(by_name[name])
        return value / calls if calls else 0.0

    def gflops(name):
        secs = total(name)
        return total(name, "flops") / secs / 1e9 if secs > 0 else 0.0

    out = {}
    for name, unit, _better, _moves, _still in LAYER_METRICS:
        span_name, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = float(len(by_name[span_name]))
        elif kind == "s":
            out[name] = total(span_name)
        elif kind == "self_s":
            out[name] = self_s(span_name)
        elif kind == "gflops":
            out[name] = gflops(span_name)
        elif kind == "svd_calls":
            out[name] = per_call(span_name, total(span_name, "svd_calls"))
        elif kind == "bytes":
            out[name] = per_call(span_name, total(span_name, "bytes"))
    out["factorizations.power_urv.qr_calls"] = per_call("factorizations.power_urv", qr_in_power)
    return out
