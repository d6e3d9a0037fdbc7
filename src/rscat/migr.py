"""Synthesis and statistics of rough Gaussian random fields.

A realization is built as ``mean + sqrt(mu) * invFFT[ |xi|^(-m/2) FFT[W] ]``
with W unit-variance white noise per cell scaled by h^(-3/2). The masking by
sqrt(mu) pins the spatially varying strength, the power-law multiplier pins
the rough order, and the h^(-3/2) scaling makes the discrete white noise a
consistent approximation of the identity covariance so continuum kernels are
matched without grid-dependent constants.

sqrt(mu) vanishes outside the strength's support box, so the inverse
transform lands on that box only (``fields._irfftn`` kept on the box's
slices) and the fluctuation ``sqrt(mu) * rough`` is formed there.
``synthesize_migr`` places it in a zero grid and ``spectral_slope`` reads it
on the box. ``empirical_covariance`` inverts onto a narrower set still: the
distinct rows, columns and planes of its in-box pair cells, kept as index
arrays. Neither estimator builds a whole-grid realization, and each draws
its white noise into one buffer reused across its samples.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .fields import GridSpec, ScalarField, _crop, _irfftn, _rfftn, _select, require_collar

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

    @cached_property
    def _half_filter(self) -> Optional[np.ndarray]:
        """The synthesis multiplier times h^(-3/2), on the half lattice of :func:`fields._rfftn`.

        Built once per spec, after the resolution check; the white-noise
        scaling rides on it, so the noise itself is never scaled. None for
        m = 0, whose multiplier is the identity.
        """
        _check_resolution(self)
        if self.order == 0.0:
            return None
        n2 = self.grid.dims[2]
        mult = _rough_multiplier(self.grid, self.order)[..., : n2 // 2 + 1]
        return mult * self.grid.spacing ** -1.5

    @cached_property
    def _root_strength(self) -> np.ndarray:
        """sqrt(mu) on the strength's support box."""
        return np.sqrt(self.strength.box_data)


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


def _origin_cell_average(grid: GridSpec, m: float) -> float:
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
    nsub = 48  # midpoints per axis
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


def _fluctuation(spec: MigrSpec, seed: int, keep=None, noise=None):
    """sqrt(mu) * rough of the draw from ``seed``, on the strength's support box or on ``keep``.

    None when the strength is zero. ``keep`` is a per-axis selection of
    whole-grid indices as :func:`fields._irfftn` takes it, by default the
    box's slices; the rough field is inverted onto it only. For m = 0 the
    multiplier is the identity and the transforms would cancel, so the
    selected noise is scaled elementwise instead. ``noise``, a float64
    array shaped like the grid, receives the white noise (the same stream a
    fresh array would get); by default a fresh array is drawn, and it is
    never named, so it is freed as soon as it is used.
    """
    half_filter = spec._half_filter
    box = spec.strength.support_box
    if box is None:
        return None
    if keep is None:
        keep, root = _crop(box), spec._root_strength
    else:
        root = np.sqrt(_select(spec.strength.data, keep))
    grid = spec.grid
    rng = np.random.default_rng(seed)
    if half_filter is None:
        rough = _select(rng.standard_normal(grid.dims, out=noise), keep) * grid.spacing ** -1.5
    else:
        # real noise and a real even filter: the half-lattice transform pair keeps the field real
        spectrum = _rfftn(rng.standard_normal(grid.dims, out=noise))
        spectrum *= half_filter
        rough = _irfftn(spectrum, grid.dims, keep)
    return root * rough


def synthesize_migr(spec: MigrSpec, seed: int) -> Realization:
    """Draw one realization of the rough field for the given seed."""
    fluct = _fluctuation(spec, seed)
    # allocated only now, when the transforms' temporaries are gone
    data = np.zeros(spec.grid.dims)
    if fluct is not None:
        data[_crop(spec.strength.support_box)] = fluct
    if spec.mean is not None:
        data += spec.mean.data
    return Realization(field=ScalarField(spec.grid, data), seed=int(seed), spec=spec)


@dataclass(frozen=True)
class CovarianceEstimate:
    value: float
    std_error: float


def _check_sample_count(n_samples, least):
    """Raise unless the sample count ``n_samples`` is an integer of at least ``least``."""
    if isinstance(n_samples, bool) or not isinstance(n_samples, numbers.Integral):
        raise ConfigurationError(f"n_samples must be an integer, got {n_samples!r}")
    if n_samples < least:
        raise ConfigurationError(f"n_samples must be at least {least}, got {n_samples}")


def empirical_covariance(spec: MigrSpec, pairs, n_samples: int, seed0: int):
    """Monte-Carlo averages of centered products over fresh realizations.

    For each point pair (x, y) the estimate is the sample mean of
    (f(x) - mean(x)) (f(y) - mean(y)) over seeds seed0 .. seed0 + n - 1,
    returned with its standard error. A pair with a cell outside the
    strength's support box has product 0. Each draw is inverted onto the
    distinct x rows, y columns and z planes of the in-box pair cells only
    (``_fluctuation`` with index arrays), and each pair's two cells are
    gathered from that block; the kept values are those of the box's
    fluctuation, byte for byte.
    """
    _check_sample_count(n_samples, 2)
    grid = spec.grid
    cells = np.array([(grid.nearest_cell(x), grid.nearest_cell(y)) for x, y in pairs],
                     dtype=int).reshape(-1, 2, 3)
    prods = np.zeros((len(cells), n_samples))
    _check_resolution(spec)
    box = spec.strength.support_box
    if box is not None:
        lo, hi = np.array(box).T
        inside = np.all((cells >= lo) & (cells <= hi), axis=(1, 2))
        at = cells[inside]
        # per axis, the sorted distinct indices the pairs use and each cell's place among them
        keep, place = zip(*(np.unique(at[..., a], return_inverse=True) for a in range(3)))
        place = np.stack([p.reshape(at.shape[:2]) for p in place], axis=-1)
        cx, cy = tuple(place[:, 0].T), tuple(place[:, 1].T)
        noise = np.empty(grid.dims)
        for i in range(n_samples):
            fluct = _fluctuation(spec, seed0 + i, keep, noise)
            prods[inside, i] = fluct[cx] * fluct[cy]
    values = np.mean(prods, axis=1)
    errors = np.std(prods, axis=1, ddof=1) / np.sqrt(n_samples)
    return [CovarianceEstimate(value=float(v), std_error=float(e)) for v, e in zip(values, errors)]


def spectral_slope(spec: MigrSpec, n_samples: int, seed0: int):
    """Least-squares slope of the log radially binned ensemble power spectrum.

    Fitted over 12 geometric bins of |xi| in [nyquist/40, nyquist/4]; for a
    rough order m the expected slope is -m (flat for the white-noise case
    m = 0). Returns (slope, half_width) where half_width is the 95%
    confidence half-interval of the fit.
    """
    _check_sample_count(n_samples, 1)
    grid = spec.grid
    n_half = grid.dims[2] // 2 + 1
    power = np.zeros(grid.dims[:2] + (n_half,))
    data = np.zeros(grid.dims)
    noise = np.empty(grid.dims)
    for i in range(n_samples):
        fluct = _fluctuation(spec, seed0 + i, noise=noise)
        if fluct is not None:
            data[_crop(spec.strength.support_box)] = fluct
            power += np.abs(_rfftn(data)) ** 2
    power /= n_samples
    # the samples are real: an interior plane of the half lattice's last axis
    # also stands for the mirrored plane at -xi, with the same |xi| and power
    mag = grid.frequency_magnitude()[..., :n_half]
    weight = np.full(n_half, 2.0)
    weight[[0, -1]] = 1.0
    weight = np.broadcast_to(weight, mag.shape)
    lo, hi = grid.nyquist / 40.0, grid.nyquist / 4.0
    sel = (mag >= lo) & (mag <= hi)
    n_bins = 12
    edges = np.geomspace(lo, hi, n_bins + 1)
    which = np.digitize(mag[sel], edges) - 1
    pw = power[sel]
    mg = mag[sel]
    wt = weight[sel]
    xs, ys = [], []
    for b in range(n_bins):
        inb = which == b
        if np.count_nonzero(inb) == 0:
            continue
        xs.append(np.log(np.average(mg[inb], weights=wt[inb])))
        ys.append(np.log(np.average(pw[inb], weights=wt[inb])))
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
