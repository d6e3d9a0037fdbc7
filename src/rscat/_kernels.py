"""Hot numeric kernel: the outgoing-kernel tabulation of the resolvent build."""

import numpy as np

# read by the environment record of perfbench/run.py; the kernel is numpy only
JIT_ENABLED = False


def kernel_block(half, h, k, self_value):
    """Kernel weights w(s) at the offsets 0..m of each axis, self cell corrected.

    The resolvent's convolution block on a lattice padded to 2m along an
    axis holds w(min(j, 2m - j)) at index j, so this (m0 + 1, m1 + 1, m2 + 1)
    octant determines it. The weight depends on the offset only through the
    integer n = i^2 + j^2 + l^2, so it is evaluated once per n and gathered.
    """
    sq = [np.arange(m + 1) ** 2 for m in half]
    n = sq[0][:, None, None] + sq[1][None, :, None] + sq[2][None, None, :]
    r = h * np.sqrt(np.arange(int(n[-1, -1, -1]) + 1, dtype=np.float64))
    r[0] = 1.0  # placeholder, fixed below
    table = (h ** 3) * np.exp(1j * k * r) / (4.0 * np.pi * r)
    table[0] = self_value
    return table[n]
