"""Hot numeric kernels: outgoing-kernel tabulation and the direct sums of the oracles."""

import numpy as np

# read by the environment record of perfbench/run.py; the kernels are numpy only
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


def farfield_sum(g, xs, ys, zs, kd):
    """Direct summation of exp(-i kd.y) g(y) over all cells (no FFT)."""
    g = np.asarray(g, dtype=np.complex128)
    phase = kd[0] * xs[:, None, None] + kd[1] * ys[None, :, None] + kd[2] * zs[None, None, :]
    return complex(np.sum(g * np.exp(-1j * phase)))


def green_point_sum(g, xs, ys, zs, k, point):
    """Direct summation of g against the outgoing kernel at one point."""
    g = np.asarray(g, dtype=np.complex128)
    r = np.sqrt(
        (xs[:, None, None] - point[0]) ** 2
        + (ys[None, :, None] - point[1]) ** 2
        + (zs[None, None, :] - point[2]) ** 2
    )
    mask = r > 0
    out = np.zeros_like(r, dtype=np.complex128)
    out[mask] = np.exp(1j * k * r[mask]) / (4.0 * np.pi * r[mask])
    return complex(np.sum(g * out))


def newtonian_sum(mu, xs, ys, zs, point):
    """Direct summation of mu(z)/|x-z| over all cells; raises on a support cell centre."""
    mu = np.asarray(mu, dtype=np.float64)
    r = np.sqrt(
        (xs[:, None, None] - point[0]) ** 2
        + (ys[None, :, None] - point[1]) ** 2
        + (zs[None, None, :] - point[2]) ** 2
    )
    support = mu != 0.0
    if np.any(support & (r <= 0)):
        raise ValueError(
            f"newtonian sum needs r > 0 on the support; {tuple(point)} is a support cell centre"
        )
    return float(np.sum(np.divide(mu, r, out=np.zeros_like(r), where=support)))
