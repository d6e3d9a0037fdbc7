"""Synthesis and statistics of rough Gaussian random fields.

A realization is built as ``mean + sqrt(mu) * invFFT[ |xi|^(-m/2) FFT[W] ]``
with W unit-variance white noise per cell scaled by h^(-3/2). The masking by
sqrt(mu) pins the spatially varying strength, the power-law multiplier pins
the rough order, and the h^(-3/2) scaling makes the discrete white noise a
consistent approximation of the identity covariance so continuum kernels are
matched without grid-dependent constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .fields import GridSpec, ScalarField, _fftn, _ifftn, require_collar

_IMAG_RESIDUE_TOL = 1e-10
_SYMBOL_DECAY_TOL = 1e-3


def gaussian_bump_field(grid, center, amplitude, width, cutoff_radii=4.0):
    """Truncated Gaussian bump A exp(-|x-c|^2 / 2 w^2), zero beyond cutoff_radii * w."""
    if width <= 0 or amplitude < 0:
        raise ConfigurationError("gaussian bump needs width > 0 and amplitude >= 0")
    xs, ys, zs = grid.coords()
    r2 = (
        (xs[:, None, None] - center[0]) ** 2
        + (ys[None, :, None] - center[1]) ** 2
        + (zs[None, None, :] - center[2]) ** 2
    )
    data = amplitude * np.exp(-r2 / (2.0 * width ** 2))
    data[r2 > (cutoff_radii * width) ** 2] = 0.0
    return ScalarField(grid, data)


def ball_indicator_field(grid, center, radius, amplitude):
    """Indicator of a ball scaled by amplitude."""
    if radius <= 0 or amplitude < 0:
        raise ConfigurationError("ball indicator needs radius > 0 and amplitude >= 0")
    xs, ys, zs = grid.coords()
    r2 = (
        (xs[:, None, None] - center[0]) ** 2
        + (ys[None, :, None] - center[1]) ** 2
        + (zs[None, None, :] - center[2]) ** 2
    )
    return ScalarField(grid, np.where(r2 <= radius * radius, amplitude, 0.0))


@dataclass(frozen=True)
class MigrSpec:
    """Order, strength, and mean of a rough Gaussian random field.

    order : rough-order exponent m, admissible in {0} union [2, 4). The
        covariance spectral density carries the factor |xi|^(-m); m = 0 is
        the white-noise case where the strength plays the local variance,
        and m = 2 is admitted as the closed-form covariance anchor 1/(4 pi r).
    strength : nonnegative compactly supported ScalarField mu with at least
        ``fields.COLLAR`` empty cells against every box face.
    mean : optional ScalarField supported inside the bounding box of supp mu.
    """

    order: float
    strength: ScalarField
    mean: Optional[ScalarField] = None

    def __post_init__(self):
        m = float(self.order)
        if not (m == 0.0 or 2.0 <= m < 4.0):
            raise ConfigurationError(
                f"rough order must be 0 or in [2, 4), got {m}"
            )
        mu = self.strength
        if np.any(mu.data < 0):
            raise ConfigurationError("strength field must be nonnegative")
        require_collar(mu, "strength")
        if self.mean is not None:
            if self.mean.grid != mu.grid:
                raise ConfigurationError("mean and strength must share a grid")
            mbox, box = self.mean.support_box, mu.support_box
            if mbox is not None:
                if box is None:
                    raise ConfigurationError("mean must vanish when the strength is zero")
                if any(mlo < lo or mhi > hi for (mlo, mhi), (lo, hi) in zip(mbox, box)):
                    raise ConfigurationError(
                        "mean support must lie inside the bounding box of the strength support"
                    )
        object.__setattr__(self, "order", m)

    @property
    def grid(self) -> GridSpec:
        return self.strength.grid


@dataclass(frozen=True)
class Realization:
    """One sample of the random field; identical (spec, seed) give identical bytes."""

    field: ScalarField
    seed: int
    spec: MigrSpec


def _check_resolution(spec: MigrSpec):
    """Reject grids whose dual lattice cannot resolve the covariance decay.

    The check is on the covariance spectral density |xi|^(-m): it must fall
    below 1e-3 of its value at |xi| = 1 before the lattice corner frequency.
    """
    if spec.order == 0.0:
        return
    corner = np.sqrt(3.0) * spec.grid.nyquist
    if corner ** (-spec.order) > _SYMBOL_DECAY_TOL:
        raise ConfigurationError(
            f"grid cannot resolve rough order m={spec.order} at spacing "
            f"h={spec.grid.spacing}: spectral density retains "
            f"{corner ** -spec.order:.2e} (> {_SYMBOL_DECAY_TOL}) of its |xi|=1 "
            "value at the lattice corner"
        )


def _origin_cell_average(grid: GridSpec, m: float, nsub: int = 48) -> float:
    """Average of |xi|^(-m) over the dual-lattice cell containing xi = 0.

    The integral is finite for m < 3; it is split into an exact ball part and
    a midpoint sum over the cell corners. Discarding this mass entirely would
    subtract an O(1/box) constant from every covariance, which is far from
    negligible for long-range kernels. For m >= 3 the cell integral diverges
    and the origin bin must stay empty.
    """
    if m >= 3.0:
        return 0.0
    dxi = np.array([2.0 * np.pi / (d * grid.spacing) for d in grid.dims])
    rho0 = dxi.min() / 2.0
    ball = 4.0 * np.pi * rho0 ** (3.0 - m) / (3.0 - m)
    axes = [((np.arange(nsub) + 0.5) / nsub - 0.5) * w for w in dxi]
    mag = np.sqrt(
        axes[0][:, None, None] ** 2 + axes[1][None, :, None] ** 2 + axes[2][None, None, :] ** 2
    )
    vol = np.prod(dxi) / nsub ** 3
    corners = float(np.sum(np.where(mag > rho0, mag ** -m, 0.0))) * vol
    return (ball + corners) / float(np.prod(dxi))


def _rough_multiplier(grid: GridSpec, m: float) -> np.ndarray:
    if m == 0.0:
        return np.ones(grid.dims)
    mag = grid.frequency_magnitude()
    mult = np.zeros_like(mag)
    nz = mag > 0
    mult[nz] = mag[nz] ** (-m / 2.0)
    # the origin bin carries the cell-averaged spectral mass; zeroing it would
    # bias every covariance low by the box-scale infrared content
    mult[0, 0, 0] = np.sqrt(_origin_cell_average(grid, m))
    return mult


def synthesize_migr(spec: MigrSpec, seed: int) -> Realization:
    """Draw one realization of the rough field for the given seed."""
    _check_resolution(spec)
    grid = spec.grid
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(grid.dims) * grid.spacing ** -1.5
    if spec.order == 0.0:
        rough = w  # identity multiplier, transforms cancel exactly
    else:
        g = _ifftn(_rough_multiplier(grid, spec.order) * _fftn(w))
        residue = float(np.max(np.abs(g.imag)))
        limit = _IMAG_RESIDUE_TOL * max(float(np.max(np.abs(g.real))), 1.0)
        if residue >= limit:
            raise RuntimeError(
                f"imaginary residue {residue:.3e} exceeds {limit:.3e}; "
                "the spectral multiplier lost Hermitian symmetry"
            )
        rough = g.real
    data = np.sqrt(spec.strength.data) * rough
    if spec.mean is not None:
        data = data + spec.mean.data
    return Realization(field=ScalarField(grid, data), seed=int(seed), spec=spec)


@dataclass(frozen=True)
class CovarianceEstimate:
    value: float
    std_error: float


def empirical_covariance(spec: MigrSpec, pairs, n_samples: int, seed0: int):
    """Monte-Carlo averages of centered products over fresh realizations.

    For each point pair (x, y) the estimate is the sample mean of
    (f(x) - mean(x)) (f(y) - mean(y)) over seeds seed0 .. seed0 + n - 1,
    returned with its standard error.
    """
    if n_samples < 2:
        raise ConfigurationError("covariance estimation needs n_samples >= 2")
    grid = spec.grid
    cells = [(grid.nearest_cell(x), grid.nearest_cell(y)) for x, y in pairs]
    mean = spec.mean.data if spec.mean is not None else 0.0
    prods = np.empty((len(cells), n_samples))
    for i in range(n_samples):
        f = synthesize_migr(spec, seed0 + i).field.data
        fluct = f - mean
        for p, (cx, cy) in enumerate(cells):
            prods[p, i] = fluct[cx] * fluct[cy]
    return [
        CovarianceEstimate(
            value=float(np.mean(row)),
            std_error=float(np.std(row, ddof=1) / np.sqrt(n_samples)),
        )
        for row in prods
    ]


def spectral_slope(spec: MigrSpec, n_samples: int, seed0: int, n_bins: int = 12):
    """Least-squares slope of the log radially binned ensemble power spectrum.

    Fitted over |xi| in [nyquist/40, nyquist/4]; for a rough order m the
    expected slope is -m (flat for the white-noise case m = 0). Returns
    (slope, half_width) where half_width is the 95% confidence half-interval
    of the fit.
    """
    grid = spec.grid
    mean = spec.mean.data if spec.mean is not None else 0.0
    power = np.zeros(grid.dims)
    for i in range(n_samples):
        f = synthesize_migr(spec, seed0 + i).field.data
        power += np.abs(_fftn(f - mean)) ** 2
    power /= n_samples
    mag = grid.frequency_magnitude()
    lo, hi = grid.nyquist / 40.0, grid.nyquist / 4.0
    sel = (mag >= lo) & (mag <= hi)
    edges = np.geomspace(lo, hi, n_bins + 1)
    which = np.digitize(mag[sel], edges) - 1
    pw = power[sel]
    mg = mag[sel]
    xs, ys = [], []
    for b in range(n_bins):
        inb = which == b
        if np.count_nonzero(inb) == 0:
            continue
        xs.append(np.log(np.mean(mg[inb])))
        ys.append(np.log(np.mean(pw[inb])))
    if len(xs) < 5:
        raise ConfigurationError(
            f"fewer than 5 radial bins in [{lo:.3g}, {hi:.3g}]; refine the grid"
        )
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    A = np.stack([xs, np.ones_like(xs)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    resid = ys - A @ coef
    dof = max(len(xs) - 2, 1)
    s2 = float(resid @ resid) / dof
    sxx = float(np.sum((xs - xs.mean()) ** 2))
    half = 1.96 * np.sqrt(s2 / sxx)
    return float(coef[0]), float(half)
