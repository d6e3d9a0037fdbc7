"""Uniform 3-D grids, immutable field containers, and the Fourier transforms the pipeline runs.

Three transforms are defined here. Rough-field synthesis and
``spectral_slope`` use the unitary real pair ``_rfftn`` / ``_irfftn`` on the
half lattice; synthesis inverts onto the strength's support box only, or
onto the rows, columns and planes a covariance estimate reads, each axis
cut to its slice or index array right after its pass. The resolvent's
padded convolution (``_padded_fftn``, ``_cropped_ifftn``), its kernel
spectrum (a DCT-I in ``_even_spectrum``, half stored along axis 0 and
multiplied in by ``_even_product`` inside ``_cropped_ifftn``) and the
strength reconstruction (``_rows_ifftn``, which inverts a spectrum given on
a block of per-axis rows and skips the lines that are zero) use the
standard normalization.
Physical-convention factors such as (2 pi)^(-3/2) are applied explicitly at
call sites.
"""

from __future__ import annotations

import itertools
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

    def frequency_magnitude(self, rows=None) -> np.ndarray:
        """|xi| on the full dual lattice, shaped like field data, or on ``rows``, one index array per axis."""
        picked = (slice(None),) * 3 if rows is None else rows
        fx, fy, fz = (self.axis_frequencies(a)[picked[a]] for a in range(3))
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


def _crop(box, outer=None):
    """Slices that cut ``box`` out of whole-grid data, or out of data on a box ``outer`` holding it."""
    corner = (0, 0, 0) if outer is None else tuple(lo for lo, _ in outer)
    return tuple(slice(lo - c, hi - c + 1) for (lo, hi), c in zip(box, corner))


def _select(arr, keep):
    """``arr`` cut to ``keep``, a per-axis slice or sorted index array, one axis at a time."""
    s0, s1, s2 = keep
    return arr[s0][:, s1][:, :, s2]


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

    @cached_property
    def box_data(self):
        """The data on ``support_box``, C-contiguous and read-only, or None for an all-zero field."""
        box = self.support_box
        return None if box is None else _freeze(self.data[_crop(box)])


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


def _rfftn(arr: np.ndarray) -> np.ndarray:
    """Unitary forward DFT of real data, on the half lattice (last axis 0 .. n/2)."""
    return _sfft.rfftn(arr, norm="ortho", workers=_FFT_WORKERS)


def _irfftn(arr: np.ndarray, dims, keep=None) -> np.ndarray:
    """Real inverse of :func:`_rfftn` onto a lattice of shape ``dims``, kept on ``keep``.

    ``keep`` holds one selection per axis, a slice (``_crop`` of a box) or a
    sorted index array, and defaults to the whole lattice; the result is
    :func:`_select` of the whole inverse. One axis at a time, as in
    :func:`_cropped_ifftn`: a complex inverse on axis 0, then on axis 1,
    then the real inverse of length ``dims[2]`` on axis 2, each cut to its
    selection right after its pass so later passes skip the lines that are
    dropped. Each line that is kept is transformed as in the whole inverse.
    ``arr`` is overwritten: the axis-0 pass runs in place, so a draw
    allocates one array of its size, not two. At 64^3 that took a 60-draw
    covariance estimate from 92k minor page faults to none, in a process
    that had not yet freed a larger array (``BENCH_pr26.json``).
    """
    s0, s1, s2 = (slice(None),) * 3 if keep is None else keep
    out = _sfft.ifft(arr, n=dims[0], axis=0, norm="ortho", overwrite_x=True,
                     workers=_FFT_WORKERS)[s0]
    out = _sfft.ifft(out, n=dims[1], axis=1, norm="ortho", overwrite_x=True,
                     workers=_FFT_WORKERS)[:, s1]
    out = _sfft.irfft(out, n=dims[2], axis=2, norm="ortho", overwrite_x=True,
                      workers=_FFT_WORKERS)[:, :, s2]
    return np.ascontiguousarray(out)


def _even_spectrum(octant: np.ndarray) -> np.ndarray:
    """Standard-normalization DFT of the even (2 m_i) extension of an (m_i + 1) octant, half stored.

    Index j of an axis of the extension holds octant entry min(j, 2m - j);
    the DFT of such a block is even too, and its octant is the DCT-I of the
    input octant. Axes 1 and 2 are mirrored to their full length 2 m_i;
    axis 0 keeps rows 0 .. m_0 only, since lattice row j > m_0 equals row
    2 m_0 - j. :func:`_even_lattice` gives the full lattice and
    :func:`_even_product` multiplies by the spectrum on it.
    """
    spec = _sfft.dctn(octant, type=1, workers=_FFT_WORKERS)
    _, m1, m2 = (s - 1 for s in octant.shape)
    out = np.empty((spec.shape[0], 2 * m1, 2 * m2), dtype=spec.dtype)
    # per axis, [0, m] is copied as is and [m + 1, 2m) is [m - 1 .. 1] reversed
    halves = [((slice(0, m + 1), slice(0, m + 1)), (slice(m + 1, None), slice(m - 1, 0, -1)))
              for m in (m1, m2)]
    for blocks in itertools.product(*halves):
        dst, src = zip(*blocks)
        out[(slice(None),) + dst] = spec[(slice(None),) + src]
    return out


def _even_lattice(half: np.ndarray) -> tuple:
    """Shape of the full lattice of a spectrum half stored by :func:`_even_spectrum`."""
    return (2 * (half.shape[0] - 1),) + half.shape[1:]


def _even_product(spec: np.ndarray, half: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``spec``, given on the full lattice, times the half-stored even spectrum ``half``, into ``out``.

    Lattice rows 0 .. m of axis 0 meet ``half`` as stored and rows m + 1 ..
    meet its rows m - 1 .. 1 reversed, so the innermost axis is read forward.
    ``out`` may be ``spec``.
    """
    m = half.shape[0] - 1
    np.multiply(spec[: m + 1], half, out=out[: m + 1])
    np.multiply(spec[m + 1:], half[m - 1:0:-1], out=out[m + 1:])
    return out


def _padded_fftn(block: np.ndarray, padded, offset) -> np.ndarray:
    """Standard-normalization DFT of ``block`` placed at ``offset`` in a zero lattice of shape ``padded``.

    Axis i of the block starts at index ``offset[i]`` and wraps past the end
    of the lattice, so the placement is periodic. One axis at a time from
    the last: the axis-2 pass transforms only the block rows and the axis-1
    pass only the block slabs, each result placed before the next pass. The
    arithmetic is complex, so a real block takes the transform of its
    complex copy; ``block`` is not written to.
    """
    out = block
    for axis in (2, 1, 0):
        size, start, length = padded[axis], offset[axis], out.shape[axis]
        emb = np.zeros(out.shape[:axis] + (size,) + out.shape[axis + 1:], dtype=np.complex128)
        head = min(length, size - start)
        at = (slice(None),) * axis
        emb[at + (slice(start, start + head),)] = out[at + (slice(0, head),)]
        emb[at + (slice(0, length - head),)] = out[at + (slice(head, length),)]
        out = _sfft.fft(emb, axis=axis, overwrite_x=True, workers=_FFT_WORKERS)
    return out


# byte budget of one slab of a read-only spectrum's product and its axis-0 inverse
_SLAB_BYTES = 2 ** 20


def _cropped_ifftn(spec: np.ndarray, dims, half: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_padded_fftn` of ``spec`` times the half-stored ``half``, on the leading ``dims`` block.

    A writable ``spec`` takes the product (:func:`_even_product`) in place.
    A read-only one is not written to: the product and the axis-0 pass run
    on a slab of axis-1 columns at a time, in one buffer of ``_SLAB_BYTES``
    (of one column when a column is larger), each slab cropped to
    ``dims[0]`` rows right after its pass, so no product on the whole
    lattice is held beside the kept spectrum. Each path is the cheaper one
    for its input (``BENCH_pr24.json``): slabs on the writable 42^3 lattices
    of backscatter_born raised its wall_ref by 11%, and a whole-lattice
    product buffer for the kept source spectrum of nearfield_moments raised
    its peak RSS by 9.7% where slabs add 4.5%. Each axis is cropped right
    after its inverse pass, so later passes skip the rows that are dropped.
    """
    if spec.flags.writeable:
        out = _sfft.ifft(_even_product(spec, half, out=spec), axis=0, overwrite_x=True,
                         workers=_FFT_WORKERS)[: dims[0]]
    else:
        p0, p1, p2 = spec.shape
        step = max(1, min(p1, _SLAB_BYTES // (16 * p0 * p2)))
        buf = np.empty((p0, step, p2), dtype=np.complex128)
        out = np.empty((dims[0], p1, p2), dtype=np.complex128)
        for j in range(0, p1, step):
            cols = slice(j, j + step)
            slab = _even_product(spec[:, cols], half[:, cols], out=buf[:, : min(step, p1 - j)])
            out[:, cols] = _sfft.ifft(slab, axis=0, overwrite_x=True, workers=_FFT_WORKERS)[: dims[0]]
    out = _sfft.ifft(out, axis=1, overwrite_x=True, workers=_FFT_WORKERS)[:, : dims[1]]
    out = _sfft.ifft(out, axis=2, overwrite_x=True, workers=_FFT_WORKERS)[:, :, : dims[2]]
    return np.ascontiguousarray(out)


def _rows_ifftn(spec: np.ndarray, rows, dims) -> np.ndarray:
    """Standard-normalization inverse DFT on a lattice of shape ``dims`` of a spectrum given on ``rows``.

    ``rows`` holds one sorted index array per axis, and ``spec`` the spectrum
    at ``np.ix_(*rows)``; the spectrum is zero elsewhere. One axis at a time
    from axis 0, the mirror of :func:`_padded_fftn`: each pass places its
    input at its rows in a zero array of full length along its axis, so the
    axis-0 pass transforms only the (n1, n2) columns of the rows and the
    axis-1 pass only their n2 planes; the axis-2 pass covers the lattice.
    Each line that is computed is transformed as in the whole-lattice
    inverse, and with every index as its rows this is that inverse.
    """
    out = spec
    for axis, picked in enumerate(rows):
        emb = np.zeros(out.shape[:axis] + (dims[axis],) + out.shape[axis + 1:], dtype=np.complex128)
        emb[(slice(None),) * axis + (picked,)] = out
        out = _sfft.ifft(emb, axis=axis, overwrite_x=True, workers=_FFT_WORKERS)
    return out
