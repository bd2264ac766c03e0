#!/usr/bin/env python3
"""Why a second pivoted QR matters: Kahan's matrix.

Kahan's triangular matrix has columns of exactly unit norm, so greedy
column pivoting never permutes anything and the final diagonal entry of
its R factor overestimates the smallest singular value by many orders
of magnitude.  QLP runs a second pivoted QR on the transposed factor
and recovers the singular value almost exactly.
"""

import numpy as np

import urv


def main():
    n, theta = 96, 1.2
    a = urv.gen_kahan(n, theta)
    sigma = urv.singular_values(a)
    print(f"kahan matrix n={n}, theta={theta}")
    print(f"  sigma_1   = {sigma[0]:.6e}")
    print(f"  sigma_n   = {sigma[-1]:.6e}")

    c = urv.cpqr(a)
    print(f"\ncpqr:  |R(n,n)| = {abs(c.r[-1, -1]):.6e}  "
          f"-> overestimates sigma_n by {abs(c.r[-1, -1]) / sigma[-1]:9.3g}x")

    f = urv.qlp(a)
    print(f"qlp:   |R(n,n)| = {abs(f.r[-1, -1]):.6e}  "
          f"-> ratio to sigma_n {abs(f.r[-1, -1]) / sigma[-1]:9.3g}x")

    rev = urv.reveal_profile(f)
    k = n - 1
    print(f"\nqlp reveal profile at k = {k}:")
    print(f"  smin(R11) = {rev.smin_r11[k]:.6e}   sigma_k  = {sigma[k - 1]:.6e}")
    print(f"  smax(R22) = {rev.smax_r22[k]:.6e}   sigma_k+1 = {sigma[k]:.6e}")


if __name__ == "__main__":
    main()
