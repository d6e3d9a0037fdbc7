"""Independent brute-force ground truths.

Every routine here is deliberately implemented on a different algorithmic
route than the code it checks: direct summation instead of FFT convolution,
dense per-axis DFT matrices instead of library FFTs, damped quadrature
instead of lattice sums. Oracles raise instead of returning a value they
cannot certify.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import ConfigurationError, OracleError
from .fields import ComplexField, GridSpec, ScalarField


# riesz_kernel's quadrature: the relative tolerance it certifies, the
# evaluation budget per damping value, and the decreasing Gaussian damping
# schedule that is extrapolated to zero
REL_TOL = 1e-6
MAX_EVALS = 4_000_000
DAMPING_SCHEDULE = (1e-3, 2.5e-4, 6.25e-5, 1.5625e-5, 3.90625e-6, 9.765625e-7, 2.44140625e-7)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _damped_sine_integral(r, m, eps, max_evals):
    """int_0^inf sin(r rho) rho^(1-m) exp(-eps rho^2) drho.

    The integrand behaves like r rho^(2-m) at the origin (an endpoint
    singularity for m > 2), so [0, w0] is integrated by the exact series of
    sin and the first damping correction; beyond w0 the integrand is
    analytic and composite Gauss panels converge at machine precision.
    """
    import math

    w0 = 0.01
    head = 0.0
    for j in range(9):
        c = (-1.0) ** j * r ** (2 * j + 1) / math.factorial(2 * j + 1)
        head += c * (
            w0 ** (2 * j + 3 - m) / (2 * j + 3 - m)
            - eps * w0 ** (2 * j + 5 - m) / (2 * j + 5 - m)
        )
    rho_max = np.sqrt(42.0 / eps)
    width = min(np.pi / (2.0 * r), 4.0)
    geo = []
    edge = w0
    while edge < width:
        geo.append(edge)
        edge *= 2.0
    n_uniform = int(np.ceil((rho_max - geo[-1]) / width)) + 1
    edges = np.concatenate((geo, geo[-1] + width * np.arange(1, n_uniform + 1)))
    if (len(edges) - 1) * len(_GL_NODES) > max_evals:
        raise OracleError(
            f"quadrature budget exceeded: {len(edges) - 1} panels for eps={eps:g}"
        )
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    x = 0.5 * (hi - lo) * _GL_NODES[None, :] + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * _GL_WEIGHTS[None, :]
    f = np.sin(r * x) * x ** (1.0 - m) * np.exp(-eps * x * x)
    return head + float(np.sum(f * w))


def _extrapolate_to_zero(values, rel_tol):
    """Iterated Aitken extrapolation of a geometric-schedule sequence to its limit."""
    seq = np.asarray(values, dtype=np.float64)
    scale = max(abs(seq[-1]), 1e-300)
    for _ in range(3):
        d = np.diff(seq)
        if np.max(np.abs(d)) <= 0.1 * rel_tol * scale:
            return float(seq[-1]), float(np.max(np.abs(d)))
        if len(seq) < 3:
            break
        # differences of a convergent damping sweep must keep shrinking
        mags = np.abs(d)
        if np.any(mags[1:] > mags[:-1] + 0.1 * rel_tol * scale):
            raise OracleError("extrapolation non-monotone beyond tolerance")
        lam = d[1:] / np.where(d[:-1] == 0.0, 1.0, d[:-1])
        good = np.abs(lam) < 0.95
        if not np.all(good):
            return float(seq[-1]), float(abs(d[-1]))
        seq = seq[2:] + d[1:] * lam / (1.0 - lam)
    err = abs(seq[-1] - seq[-2]) if len(seq) >= 2 else 0.0
    return float(seq[-1]), float(err)


def riesz_kernel(m, r):
    """Continuum power-law covariance kernel (2 pi)^(-3) int e^{i r.xi} |xi|^-m dxi.

    Evaluated as (2 pi^2 r)^(-1) int_0^inf sin(r rho) rho^(1-m) drho with
    Gaussian damping on the decreasing schedule ``DAMPING_SCHEDULE``, at most
    ``MAX_EVALS`` integrand evaluations per damping value, and extrapolation
    of the damping to zero, certified to ``REL_TOL``. Valid for 2 <= m < 3
    (m = 2 is the closed-form anchor 1/(4 pi r)); at m = 3 the radial
    integral ceases to converge and the extrapolation fails loudly.
    """
    if not (2.0 <= m <= 3.0):
        raise ConfigurationError(f"riesz kernel order must lie in [2, 3], got {m}")
    if r <= 0:
        raise ConfigurationError(f"riesz kernel separation must be positive, got {r}")
    if m == 3.0:
        raise OracleError(
            "the radial integral diverges logarithmically at m = 3; "
            "no value can be certified at the upper endpoint"
        )
    vals = [_damped_sine_integral(float(r), float(m), eps, MAX_EVALS) for eps in DAMPING_SCHEDULE]
    limit, err = _extrapolate_to_zero(vals, REL_TOL)
    if err > REL_TOL * max(abs(limit), 1e-300):
        raise OracleError(
            f"cannot certify rel_tol={REL_TOL:g} at m={m}, r={r}: "
            f"residual {err:.3e} on limit {limit:.6e}"
        )
    return limit / (2.0 * np.pi ** 2 * r)


def direct_farfield(g, k, direction):
    """Far-field coefficient (1/4 pi) sum_cells e^{-i k dir.y} g(y) h^3 by direct summation.

    Accepts real or complex fields; arbitrary off-lattice k*dir is allowed.
    Exactly linear in g.
    """
    if not isinstance(g, (ScalarField, ComplexField)):
        raise ConfigurationError("direct_farfield expects a grid field")
    grid = g.grid
    xs, ys, zs = grid.coords()
    kd = float(k) * np.asarray(direction, dtype=np.float64)
    s = _kernels.farfield_sum(g.data, xs, ys, zs, kd)
    return s * grid.cell_volume / (4.0 * np.pi)


def potential_kernel_integral(mu: ScalarField, x, min_clearance=2.0):
    """Newtonian potential sum_cells mu(z) |x-z|^(-1) h^3 by direct summation."""
    grid = mu.grid
    pt = np.asarray(x, dtype=np.float64)
    mask = mu.support_mask()
    if mask.any():
        idx = np.argwhere(mask)
        centers = grid.origin + grid.spacing * idx
        d = np.min(np.linalg.norm(centers - pt[None, :], axis=1))
        if d < min_clearance * grid.spacing:
            raise ConfigurationError(
                f"evaluation point {tuple(pt)} is {d:.3g} from the support; "
                f"need at least {min_clearance} cells ({min_clearance * grid.spacing:.3g})"
            )
    xs, ys, zs = grid.coords()
    return _kernels.newtonian_sum(mu.data, xs, ys, zs, pt) * grid.cell_volume


def resolvent_point_values(phi, k, points):
    """Outgoing-kernel integral of a field at arbitrary points, by direct summation.

    The independent route for checking far-field asymptotics and the
    outgoing phase of the FFT-convolution solver.
    """
    grid = phi.grid
    xs, ys, zs = grid.coords()
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    out = np.array(
        [_kernels.green_point_sum(phi.data, xs, ys, zs, float(k), p) for p in pts],
        dtype=np.complex128,
    )
    return out * grid.cell_volume


# ---------------------------------------------------------------------------
# dense-DFT covariance oracle on a coarse sub-grid
# ---------------------------------------------------------------------------

def _dense_dft_matrix(n):
    a = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(a, a) / n) / np.sqrt(n)


def _subsample(field: ScalarField, strides):
    return field.data[:: strides[0], :: strides[1], :: strides[2]]


def brute_covariance(spec, x, y, n, seed0):
    """Monte-Carlo covariance estimate via dense per-axis DFT synthesis on a 16^3 sub-grid.

    Re-implements the rough-field construction with explicit DFT matrix
    products (no FFT library), on a strided restriction of the grid, so it is
    algorithmically independent of the spectral synthesis it cross-checks.
    Returns (mean, standard_error).
    """
    if n < 100:
        raise ConfigurationError(f"brute covariance needs n >= 100 samples, got {n}")
    grid = spec.strength.grid
    if any(d < 16 for d in grid.dims):
        raise ConfigurationError("brute covariance needs at least 16 cells per axis")
    strides = tuple(d // 16 for d in grid.dims)
    sub = GridSpec(dims=(16, 16, 16), origin=grid.origin, spacing=grid.spacing * strides[0])
    if strides[1] != strides[0] or strides[2] != strides[0]:
        raise ConfigurationError("brute covariance requires cubic grids")
    # the centered fluctuation is sqrt(mu) * g, so the mean field drops out
    mu = _subsample(spec.strength, strides)
    sqrt_mu = np.sqrt(mu)
    h = sub.spacing
    D = _dense_dft_matrix(16)
    Dinv = np.conj(D)
    if spec.order > 0:
        from .migr import _origin_cell_average

        mag = sub.frequency_magnitude()
        mult = np.zeros_like(mag)
        nz = mag > 0
        mult[nz] = mag[nz] ** (-spec.order / 2.0)
        mult[0, 0, 0] = np.sqrt(_origin_cell_average(sub, spec.order))
    else:
        mult = np.ones(sub.dims)
    ix = sub.nearest_cell(x)
    iy = sub.nearest_cell(y)
    prods = np.empty(n)
    for i in range(n):
        rng = np.random.default_rng(seed0 + i)
        w = rng.standard_normal(sub.dims) * h ** -1.5
        what = np.einsum("ai,bj,cl,ijl->abc", D, D, D, w, optimize=True)
        g = np.einsum("ai,bj,cl,ijl->abc", Dinv, Dinv, Dinv, mult * what, optimize=True)
        g = g.real
        fluct = sqrt_mu * g
        prods[i] = fluct[ix] * fluct[iy]
    mean_est = float(np.mean(prods))
    stderr = float(np.std(prods, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return mean_est, stderr
