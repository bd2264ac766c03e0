#!/usr/bin/env python3
"""Operation counts by kernel class.

Prints the leading-order flop models for each algorithm, split by
kernel class.  PowerURV does noticeably more arithmetic than QLP; the
paper's trade is that all of it lives in matrix-matrix multiplies and
unpivoted QR, which run closer to peak than pivoted QR.  That holds
against the level-2 hand-written ``urv.cpqr``, but QLP runs on LAPACK
``geqp3``, which does half its flops in BLAS-3.  Wall-clock times are
hardware dependent: ``urv timing`` measures them, and with no ``--algs``
it times PowerURV, QLP, its ``geqp3`` kernel and the SVD side by side.
"""

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


if __name__ == "__main__":
    main()
