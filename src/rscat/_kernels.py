"""Hot numeric kernels: outgoing-kernel tabulation and the direct sums of the oracles."""

import numpy as np

# read by the environment record of perfbench/run.py; the kernels are numpy only
JIT_ENABLED = False


def kernel_block(padded_dims, h, k, self_value):
    """Kernel weights w(s) on the 2x-padded offset block, self cell corrected."""
    p0, p1, p2 = padded_dims
    ax = [np.minimum(np.arange(p), p - np.arange(p)).astype(np.float64) for p in (p0, p1, p2)]
    r = h * np.sqrt(
        ax[0][:, None, None] ** 2 + ax[1][None, :, None] ** 2 + ax[2][None, None, :] ** 2
    )
    r[0, 0, 0] = 1.0  # placeholder, fixed below
    out = (h ** 3) * np.exp(1j * k * r) / (4.0 * np.pi * r)
    out[0, 0, 0] = self_value
    return out


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
