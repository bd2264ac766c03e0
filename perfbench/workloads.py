"""The benchmark's workloads.

Each workload is one caller making back-to-back calls into the library
(a closed loop with one client, no concurrency) in a single process, with
BLAS at its default thread count.  Every workload times the same six
operations, so every end-to-end metric exists on every workload; the
workloads differ in the path the calls take and in the input:

paper_profile
    ``urv bench`` and ``urv lemma`` called in-process through
    ``urv.cli.main`` on the paper-size inputs: fast, slow and S-shaped
    decay at 200 x 160 from the seed, and the 200 x 200 boundary-integral
    matrix read through ``--matrix file:`` from a URVK1 file written at
    set-up.  Almost all of a bench call is the per-rank diagnostics (dense
    SVDs), so diagnostics work shows here and kernel work should not.
    The 250 KiB input fits in L2.
factor_large
    the library functions called directly on one slow-decay 1024 x 1024
    matrix (8 MiB, larger than L2): the size where the paper's speed claim
    matters.  Unpivoted QR dominates PowerURV and CPQR dominates QLP;
    the diagnostics do not run.
sketch_tall
    the same calls on one slow-decay 4096 x 512 matrix.  Its QRs are
    tall and skinny (4096 x 64, 512 x 64, 4096 x 512), where the panel
    factorization dominates rather than the trailing update, so a QR or
    power-step change that helps square inputs but hurts thin ones shows.

A pass (``calls(p)``) is a fixed list of calls, each carrying a check run
on its output after the clock stops.  The cheap operations are repeated
between the expensive ones, so that every operation has samples spread
over the whole run rather than bunched in one stretch of it: the speed of
a shared machine wanders on a scale of seconds.  Matrix and sketch seeds
all derive from the workload seed; on factor_large and sketch_tall the
sketch seed cycles over four values.
"""

from __future__ import annotations

import io
import zlib
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import checks

# Timed operations: (label, end-to-end timing metric, error-ratio metric or None).
OPERATIONS = [
    ("ddh", "ddh_s", "err_ratio.ddh"),
    ("powerurv_q1", "powerurv_q1_s", "err_ratio.powerurv_q1"),
    ("powerurv_q2", "powerurv_q2_s", "err_ratio.powerurv_q2"),
    ("qlp", "qlp_s", "err_ratio.qlp"),
    ("rsvd", "rsvd_s", "err_ratio.rsvd"),
    ("lemma", "lemma_s", None),
]

# (name, unit, better); bounds live in BENCHMARK.json.
END_TO_END = (
    [("setup_s", "s", "lower"), ("peak_rss_mb", "MB", "lower")]
    + [(timing, "s", "lower") for _, timing, _ in OPERATIONS]
    + [(ratio, "ratio", "lower") for _, _, ratio in OPERATIONS if ratio]
)

RATIO_OF = {op: ratio for op, _, ratio in OPERATIONS}
SKETCH_CYCLE = 4


def derive(seed: int, *tags) -> int:
    """A 63-bit seed derived from the workload seed and string or int tags."""
    words = [seed] + [zlib.crc32(t.encode()) if isinstance(t, str) else t for t in tags]
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0] >> np.uint64(1))


class Call(NamedTuple):
    op: str                       # label from OPERATIONS
    run: Callable[[], object]     # the timed call
    check: Callable[[object, bool], None]   # check(output, first_pass)
    span: str | None = None       # span the runner opens in traced passes


class Workload:
    """Shared state of a workload: the library, seeds, outputs of the checks."""

    name = ""

    def __init__(self, urv, seed: int, workdir: Path):
        self.urv = urv
        self.seed = seed
        self.workdir = workdir
        self.err_ratio: dict[str, float] = {}
        self.lemma_discrepancies: list[float] = []
        self.working_set_bytes = 0

    def record_ratio(self, op, value):
        """Keep the largest error ratio seen for ``op`` in the first pass."""
        metric = RATIO_OF[op]
        self.err_ratio[metric] = max(self.err_ratio.get(metric, 0.0), value)

    def check_lemma(self, d):
        checks.check_lemma(d)
        self.lemma_discrepancies.append(float(d))

    def setup(self):
        """Generate the inputs and make the untimed warm-up call (timed as set-up)."""
        raise NotImplementedError

    def prepare(self):
        """Checker references, computed once after set-up and never timed."""
        raise NotImplementedError

    def calls(self, p: int) -> list[Call]:
        """The calls of pass ``p``, in order."""
        raise NotImplementedError


class PaperProfile(Workload):
    name = "paper_profile"
    kinds = ("fast", "slow", "sshape", "bie")
    # Per input: every bench call once, a lemma call (~1/20 of the time of
    # a bench call) after each.
    plan = ("ddh", "lemma", "powerurv_q1", "lemma", "powerurv_q2", "lemma",
            "qlp", "lemma", "rsvd", "lemma")

    def __init__(self, urv, seed, workdir, m=200, n=160, bie_n=200, ell=60):
        super().__init__(urv, seed, workdir)
        self.m, self.n, self.bie_n, self.ell = m, n, bie_n, ell
        self.bie_path = str(workdir / "bie.urvk1")
        self.seeds = {kind: derive(seed, "matrix", kind) for kind in ("fast", "slow", "sshape")}
        self.seeds["bie"] = derive(seed, "sketch", "bie")
        self.algs = {
            "ddh": ["--alg", "ddh"],
            "powerurv_q1": ["--alg", "powerurv", "--q", "1"],
            "powerurv_q2": ["--alg", "powerurv", "--q", "2"],
            "qlp": ["--alg", "qlp"],
            "rsvd": ["--alg", "rsvd", "--ell", str(ell), "--q", "1"],
        }

    def _matrix_args(self, kind):
        if kind == "bie":
            return ["--matrix", f"file:{self.bie_path}", "--seed", str(self.seeds[kind])]
        return ["--matrix", kind, "--m", str(self.m), "--n", str(self.n),
                "--seed", str(self.seeds[kind])]

    def cli(self, argv) -> str:
        """``urv <argv>`` in-process; its stdout, or CheckFailed on a nonzero exit."""
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = self.urv.cli.main(argv)
        if rc != 0:
            raise checks.CheckFailed(f"urv {' '.join(argv)} exited with {rc}")
        return out.getvalue()

    def setup(self):
        urv = self.urv
        urv.save_matrix_binary(self.bie_path, urv.gen_bie(self.bie_n))
        warm = str(self.workdir / "warmup.csv")
        self.cli(["bench", *self._matrix_args("slow"), *self.algs["powerurv_q1"], "--out", warm])

    def prepare(self):
        urv = self.urv
        gens = {"fast": urv.gen_fast_decay, "slow": urv.gen_slow_decay,
                "sshape": urv.gen_s_shaped}
        self.inputs = {kind: gen(self.m, self.n, seed=self.seeds[kind])[0]
                       for kind, gen in gens.items()}
        self.inputs["bie"] = urv.load_matrix(self.bie_path)
        self.sigma_ref = {kind: checks.reference_sigma(a) for kind, a in self.inputs.items()}
        self.working_set_bytes = max(a.nbytes for a in self.inputs.values())

    def _bench_call(self, kind, op):
        out = str(self.workdir / f"{kind}_{op}.csv")
        argv = ["bench", *self._matrix_args(kind), *self.algs[op], "--out", out]
        alg = self.algs[op][1]
        ell = self.ell if op == "rsvd" else None

        def check(_stdout, first):
            ratio = checks.check_profile(out, self.urv.CSV_HEADER, self.inputs[kind],
                                         self.sigma_ref[kind], self.urv.__version__, alg, ell)
            if first:
                self.record_ratio(op, ratio)

        return Call(op, lambda: self.cli(argv), check, "cli.bench")

    def _lemma_call(self, kind):
        argv = ["lemma", *self._matrix_args(kind), "--ell", str(self.ell), "--q", "1"]

        def check(stdout, _first):
            prefix = "lemma discrepancy:"
            lines = [ln for ln in stdout.splitlines() if ln.startswith(prefix)]
            checks.require(len(lines) == 1, f"unexpected lemma output {stdout!r}")
            self.check_lemma(float(lines[0][len(prefix):]))

        return Call("lemma", lambda: self.cli(argv), check, "cli.lemma")

    def calls(self, p):
        return [self._lemma_call(kind) if op == "lemma" else self._bench_call(kind, op)
                for kind in self.kinds for op in self.plan]


class Factor(Workload):
    """Direct library calls on one slow-decay matrix (factor_large, sketch_tall)."""

    # Every operation once, ddh twice, and rsvd (~1/10 of a ddh call) after
    # each of them.  urv.svd is the reference the paper's speed claim is
    # measured against; its time is a per-layer metric (core.svd.s).
    plan = ("ddh", "rsvd", "powerurv_q1", "rsvd", "powerurv_q2", "rsvd", "qlp", "rsvd",
            "lemma", "rsvd", "svd", "rsvd", "ddh", "rsvd")

    def __init__(self, urv, seed, workdir, name, m, n, ell=64):
        super().__init__(urv, seed, workdir)
        self.name = name
        self.m, self.n, self.ell = m, n, ell

    def setup(self):
        urv = self.urv
        self.a, _ = urv.gen_slow_decay(self.m, self.n, seed=derive(self.seed, "matrix"))
        urv.ddh_urv(self.a, derive(self.seed, "warmup"))

    def prepare(self):
        self.sigma_ref = checks.reference_sigma(self.a)
        self.working_set_bytes = self.a.nbytes

    def _urv_check(self, op):
        n = self.n
        ks = [n // 16, n // 8, n // 4]

        def check(f, first):
            checks.check_urv(self.a, f)
            if first and RATIO_OF[op] not in self.err_ratio:
                errs = checks.truncation_errors(self.a, f.u, f.r[: max(ks)] @ f.v.T, ks)
                checks.check_eckart_young(errs, self.sigma_ref, ks, self.a.shape)
                self.record_ratio(op, checks.error_ratio(errs, self.sigma_ref, ks))
        return check

    def _rsvd_check(self, f, first):
        checks.check_rsvd(self.a, f, self.ell)
        if first and RATIO_OF["rsvd"] not in self.err_ratio:
            ks = [self.ell // 4, self.ell // 2, 3 * self.ell // 4]
            errs = checks.truncation_errors(self.a, f.u, f.sigma[:, None] * f.v.T, ks)
            checks.check_eckart_young(errs, self.sigma_ref, ks, self.a.shape)
            self.record_ratio("rsvd", checks.error_ratio(errs, self.sigma_ref, ks))

    def calls(self, p):
        made = Counter()
        out = []
        for op in self.plan:
            i = p * self.plan.count(op) + made[op]
            made[op] += 1
            out.append(self._call(op, derive(self.seed, "sketch", i % SKETCH_CYCLE)))
        return out

    def _call(self, op, s):
        urv, a, ell = self.urv, self.a, self.ell
        if op == "ddh":
            return Call(op, lambda: urv.ddh_urv(a, s), self._urv_check(op))
        if op in ("powerurv_q1", "powerurv_q2"):
            q = int(op[-1])
            return Call(op, lambda: urv.power_urv(a, q=q, seed=s), self._urv_check(op))
        if op == "qlp":
            return Call(op, lambda: urv.qlp(a), self._urv_check(op))
        if op == "rsvd":
            return Call(op, lambda: urv.rsvd(a, ell, q=1, seed=s), self._rsvd_check)
        if op == "lemma":
            return Call(op, lambda: urv.lemma_check(a, ell, q=1, seed=s),
                        lambda d, first: self.check_lemma(d))
        return Call(op, lambda: urv.svd(a),
                    lambda res, first: checks.check_svd(a, res, self.sigma_ref))


WORKLOADS = {
    "paper_profile": lambda urv, seed, wd: PaperProfile(urv, seed, wd),
    "factor_large": lambda urv, seed, wd: Factor(urv, seed, wd, "factor_large", 1024, 1024),
    "sketch_tall": lambda urv, seed, wd: Factor(urv, seed, wd, "sketch_tall", 4096, 512),
}

# Sizes at which the self-test runs every workload in well under a second.
TINY = {
    "paper_profile": lambda urv, seed, wd: PaperProfile(urv, seed, wd, 40, 30, 50, 10),
    "factor_large": lambda urv, seed, wd: Factor(urv, seed, wd, "factor_large", 64, 64, 16),
    "sketch_tall": lambda urv, seed, wd: Factor(urv, seed, wd, "sketch_tall", 256, 32, 8),
}
