#!/usr/bin/env python3
"""Operation counts and a small wall-clock sweep.

Prints the leading-order flop models for each algorithm, split by
kernel class.  PowerURV does noticeably more arithmetic than QLP; the
paper's trade is that all of it lives in matrix-matrix multiplies and
unpivoted QR, which run closer to peak than pivoted QR.  That holds
against the level-2 hand-written ``urv.cpqr``, but QLP runs on LAPACK
``geqp3``, which does half its flops in BLAS-3: on 2 cores at n = 1024
QLP (0.32 s) is slower than PowerURV with q = 1 (0.23 s) and faster than
with q = 2 (0.36 s; ``urv timing``, version 0.21.0).  The timing sweep at
the end shows the three QRs side by side; it is informational (hardware
dependent) and kept small so the demo stays fast.
"""

import time

import numpy as np

import urv

ALGS = ("ddh", "powerurv", "qlp", "randutv", "golub_reinsch")


def main():
    n = 1000
    print(f"leading-order flops at m = n = {n} (units of n^3):")
    print(f"{'algorithm':>14s} {'gemm/qr':>9s} {'cpqr':>9s} {'level2':>9s} {'total':>9s}")
    for alg in ALGS:
        fm = urv.flop_estimate(alg, n, n, q=1)
        row = [fm.by_class["gemm_qr"], fm.by_class["cpqr"], fm.by_class["level2"]]
        cells = " ".join(f"{v / n**3:9.3f}" for v in row)
        print(f"{alg:>14s} {cells} {fm.total / n**3:9.3f}")

    print("\nwall-clock medians (3 reps, informational only):")
    for size in (128, 256):
        a = urv.gaussian_matrix(size, size, urv.RngSeed(0))
        for name, fn in (
            ("qr", lambda: urv.householder_qr(a)),
            ("geqp3", lambda: urv.core.pivoted_qr(a)),
            ("cpqr", lambda: urv.cpqr(a)),
            ("powerurv", lambda: urv.power_urv(a, q=1, seed=1)),
            ("qlp", lambda: urv.qlp(a)),
        ):
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            print(f"  n={size:4d} {name:10s} {np.median(times) * 1e3:8.1f} ms")


if __name__ == "__main__":
    main()
