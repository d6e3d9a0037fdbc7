"""Uniform 3-D grids, immutable field containers, and the Fourier-transform contract.

All spectral work in the package runs through the unitary transform pair
defined here, so Parseval holds without constants; physical-convention
factors such as (2 pi)^(-3/2) are applied explicitly at call sites.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft as _sfft

from .errors import ConfigurationError

_FFT_WORKERS = max(1, int(os.environ.get("RSCAT_FFT_WORKERS", os.cpu_count() or 1)))

COLLAR = 4  # empty cells every support keeps against each box face


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Cell-centered uniform sampling of a 3-D box.

    Parameters
    ----------
    dims : (int, int, int)
        Cells per axis. Each must be a power of two and at least 8 so FFT
        convolutions and Nyquist bookkeeping stay simple.
    origin : (float, float, float)
        Coordinate of the first cell center.
    spacing : float
        Isotropic cell width h. The box side along axis i is dims[i] * h.
    """

    dims: tuple
    origin: tuple
    spacing: float

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        origin = tuple(float(o) for o in self.origin)
        if len(dims) != 3 or len(origin) != 3:
            raise ConfigurationError("grid requires 3 dims and a 3-vector origin")
        for d in dims:
            if d < 8 or not _is_pow2(d):
                raise ConfigurationError(f"grid dims must be powers of two >= 8, got {dims}")
        h = float(self.spacing)
        if not np.isfinite(h) or h <= 0:
            raise ConfigurationError(f"grid spacing must be positive, got {self.spacing}")
        if not all(np.isfinite(origin)):
            raise ConfigurationError("grid origin must be finite")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", h)

    @classmethod
    def centered(cls, dims, spacing):
        """Grid whose cell centers are symmetric about the coordinate origin."""
        if isinstance(dims, int):
            dims = (dims, dims, dims)
        origin = tuple(-(d / 2 - 0.5) * spacing for d in dims)
        return cls(dims=tuple(dims), origin=origin, spacing=spacing)

    @property
    def n_cells(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    @property
    def cell_volume(self) -> float:
        return self.spacing ** 3

    @property
    def nyquist(self) -> float:
        """Largest axis frequency magnitude on the dual lattice, pi/h."""
        return np.pi / self.spacing

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + self.spacing * np.arange(self.dims[axis])

    def coords(self):
        """The three 1-D cell-center coordinate arrays."""
        return tuple(self.axis_coords(a) for a in range(3))

    def axis_frequencies(self, axis: int) -> np.ndarray:
        """Dual-lattice frequencies 2 pi n / (N h) in standard DFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.dims[axis], d=self.spacing)

    def frequency_magnitude(self) -> np.ndarray:
        """|xi| on the full dual lattice, shaped like field data."""
        fx, fy, fz = (self.axis_frequencies(a) for a in range(3))
        return np.sqrt(
            fx[:, None, None] ** 2 + fy[None, :, None] ** 2 + fz[None, None, :] ** 2
        )

    def nearest_cell(self, point) -> tuple:
        """Index of the cell center closest to a point strictly inside the box."""
        idx = []
        for a in range(3):
            t = (float(point[a]) - self.origin[a]) / self.spacing
            i = int(round(t))
            if t < -0.5 or t > self.dims[a] - 0.5:
                raise ConfigurationError(
                    f"point {tuple(point)} lies outside the grid box along axis {a}"
                )
            idx.append(min(max(i, 0), self.dims[a] - 1))
        return tuple(idx)


def _freeze(arr):
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _check_payload(grid, data, dtype, what):
    arr = np.asarray(data, dtype=dtype)
    if arr.size != grid.n_cells:
        raise ConfigurationError(
            f"{what} data length {arr.size} does not match grid cells {grid.n_cells}"
        )
    arr = arr.reshape(grid.dims)
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ConfigurationError(f"{what} data contains non-finite entries")
    return _freeze(arr.copy())


def _support_box(data):
    """Per-axis (first, last) index of the nonzero cells of a 3-D array, or None if all are zero."""
    mask = data != 0
    rows = mask.any(axis=2)
    hits = (rows.any(axis=1), rows.any(axis=0), mask.any(axis=(0, 1)))
    if not hits[0].any():
        return None
    return tuple((int(np.argmax(h)), len(h) - 1 - int(np.argmax(h[::-1]))) for h in hits)


class _SupportedField:
    """Support facts shared by the immutable field containers, computed once per field."""

    @cached_property
    def support_box(self):
        """Per-axis (first, last) index of the nonzero cells, or None for an all-zero field."""
        return _support_box(self.data)


def require_collar(field, what):
    """Raise ConfigurationError unless the support of ``field`` keeps COLLAR empty cells at every face."""
    box = field.support_box
    if box is not None and any(lo < COLLAR or hi >= n - COLLAR
                               for (lo, hi), n in zip(box, field.grid.dims)):
        raise ConfigurationError(f"{what} support violates the {COLLAR}-cell boundary collar")


@dataclass(frozen=True)
class ScalarField(_SupportedField):
    """Real-valued samples on a grid. Immutable after construction."""

    grid: GridSpec
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _check_payload(self.grid, self.data, np.float64, "scalar field"))

    def as_complex(self) -> "ComplexField":
        return ComplexField(self.grid, self.data.astype(np.complex128))

    def support_mask(self) -> np.ndarray:
        return self.data != 0.0


@dataclass(frozen=True)
class ComplexField(_SupportedField):
    """Complex-valued samples on a grid. Immutable after construction."""

    grid: GridSpec
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _check_payload(self.grid, self.data, np.complex128, "complex field"))


def frequency_lattice(grid: GridSpec) -> np.ndarray:
    """All dual-lattice frequency vectors, row-major, matching spectral data order."""
    fx, fy, fz = (grid.axis_frequencies(a) for a in range(3))
    out = np.empty(grid.dims + (3,))
    out[..., 0] = fx[:, None, None]
    out[..., 1] = fy[None, :, None]
    out[..., 2] = fz[None, None, :]
    return out.reshape(-1, 3)


def _fftn(arr: np.ndarray) -> np.ndarray:
    """Unitary forward DFT (Parseval holds with no extra constants)."""
    return _sfft.fftn(arr, norm="ortho", workers=_FFT_WORKERS)


def _ifftn(arr: np.ndarray) -> np.ndarray:
    """Unitary inverse DFT, exact inverse of :func:`_fftn`."""
    return _sfft.ifftn(arr, norm="ortho", workers=_FFT_WORKERS)


def _fftn_raw(arr: np.ndarray) -> np.ndarray:
    """Standard-normalization DFT used for kernel spectra in convolutions."""
    return _sfft.fftn(arr, workers=_FFT_WORKERS)


def _ifftn_raw(arr: np.ndarray) -> np.ndarray:
    return _sfft.ifftn(arr, workers=_FFT_WORKERS)


def fft_forward(field: ComplexField) -> ComplexField:
    """Unitary spectral transform of a field."""
    return ComplexField(field.grid, _fftn(field.data))


def fft_inverse(field: ComplexField) -> ComplexField:
    """Inverse of :func:`fft_forward` to within roundoff."""
    return ComplexField(field.grid, _ifftn(field.data))


def fractional_laplacian(field, order: float):
    """Apply the spectral multiplier |xi|^order (zero at the xi=0 bin).

    For order in (0, 2) this realizes the fractional Laplacian to that
    power of |xi|; negative orders give the corresponding smoothing
    multiplier used in rough-field synthesis.
    """
    if isinstance(field, ScalarField):
        field = field.as_complex()
    grid = field.grid
    mag = grid.frequency_magnitude()
    mult = np.zeros_like(mag)
    nz = mag > 0
    mult[nz] = mag[nz] ** order
    return ComplexField(grid, _ifftn(mult * _fftn(field.data)))
