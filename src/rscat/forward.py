"""Forward solver: outgoing kernel, FFT resolvent, Born iteration, far fields.

Sign convention: the field equation is (-Laplacian - k^2 - q) u = f with
u = alpha * u_in + u_sc, which makes the fixed-point form
u_sc = R_k f + alpha R_k[q u_in] + R_k[q u_sc]. Strength recoveries are
covariance-based and therefore invariant under f -> -f, so no recovery
formula depends on this choice.
"""

from __future__ import annotations

import numbers
import weakref
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.fft import next_fast_len

from . import _kernels
from .errors import (
    ConfigurationError,
    DataCoverageError,
    FieldFormatError,
    SolverConvergenceError,
    SolverDivergenceError,
)
from .fields import (ComplexField, GridSpec, ScalarField, _crop, _cropped_ifftn, _even_lattice,
                     _even_spectrum, _padded_fftn, _support_box, require_collar)
from .migr import MigrSpec, Realization, synthesize_migr


def fundamental_solution(k: float, r: float) -> complex:
    """Outgoing point response e^{ikr} / (4 pi r)."""
    if r <= 0:
        raise ValueError(f"fundamental solution needs r > 0, got {r}")
    return complex(np.exp(1j * k * r) / (4.0 * np.pi * r))


def _self_cell_integral(k: float, h: float) -> complex:
    """Exact integral of the outgoing kernel over the equal-volume ball of one cell."""
    rho = h * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)
    if abs(k) * rho < 1e-6:
        return complex(rho * rho / 2.0, k * rho ** 3 / 3.0)
    return complex((np.exp(1j * k * rho) * (1.0 - 1j * k * rho) - 1.0) / (k * k))


def _unit_rows(vectors, what: str) -> np.ndarray:
    """``vectors`` as rows of float64, once each row is unit length to 1e-12."""
    rows = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if np.any(np.abs(np.linalg.norm(rows, axis=1) - 1.0) > 1e-12):
        raise ConfigurationError(f"{what} must be unit length")
    return rows


def _whole(grid: GridSpec):
    """The box (per-axis inclusive index ranges) of every cell of ``grid``."""
    return tuple((0, n - 1) for n in grid.dims)


def _box_shape(box):
    return tuple(hi - lo + 1 for lo, hi in box)


class ResolventOperator:
    """Convolution with the singularity-corrected outgoing kernel, via a zero-padded FFT.

    Off-center cells carry the kernel at cell centers times h^3; the self
    cell carries the exact ball integral. An apply maps data on an input box
    [li, hi] to the result on an output box [lo, ho] (per-axis inclusive
    index ranges). Axis i pads to P_i = 2 m_i with
    m_i = next_fast_len(max(ho - li, hi - lo, ceil(L_out / 2), ceil(L_in / 2))):
    every offset between an output cell and an input cell is then at most
    m_i, where the period-P_i even extension of the kernel holds the kernel
    itself, and neither box wraps onto itself, so the circular convolution
    is exactly the aperiodic one. The input goes in at (li - lo) mod P_i and
    the inverse keeps the leading L_out. P_i is even and at most 2 n_i.

    The kernel spectrum is built by the first apply, or by a Born solve for
    every box pair it will meet, and rebuilt at the elementwise maximum when
    a later pair of boxes needs a larger m, so it only grows; pairs it
    covers reuse it. It is even, so it is kept on rows 0 .. m_0 of axis 0
    (:func:`~rscat.fields._even_spectrum`, four block copies of the DCT-I),
    half the lattice, and ``lattice`` gives the full padded shape.
    """

    def __init__(self, grid: GridSpec, k: float):
        if not 0 <= k < np.inf:
            raise ConfigurationError(f"frequency must be finite and nonnegative, got {k}")
        self.grid = grid
        self.k = float(k)
        self._kernel_hat = None

    @property
    def lattice(self) -> Optional[tuple]:
        """The padded lattice (P_0, P_1, P_2) of the kernel spectrum, or None before it is built."""
        return None if self._kernel_hat is None else _even_lattice(self._kernel_hat)

    def _spectrum(self, half) -> np.ndarray:
        """Half-stored kernel spectrum on a lattice of at least 2 * ``half`` per axis."""
        if self._kernel_hat is not None:
            have = tuple(p // 2 for p in self.lattice)
            if all(m <= c for m, c in zip(half, have)):
                return self._kernel_hat
            half = tuple(map(max, half, have))
        h = self.grid.spacing
        octant = _kernels.kernel_block(half, h, self.k, _self_cell_integral(self.k, h))
        self._kernel_hat = _even_spectrum(octant)
        return self._kernel_hat

    @staticmethod
    def _half(in_box, out_box):
        """Per-axis m of the lattice that maps ``in_box`` to ``out_box`` exactly."""
        return tuple(next_fast_len(max(ho - li, hi - lo, (ho - lo + 2) // 2, (hi - li + 2) // 2))
                     for (li, hi), (lo, ho) in zip(in_box, out_box))

    def apply(self, arr, in_box=None, out_box=None) -> np.ndarray:
        """R applied to ``arr``, on ``out_box`` (the whole grid when None).

        With ``in_box`` None, ``arr`` is whole-grid data, read on its support
        box; otherwise ``arr`` holds exactly the cells of ``in_box``. Given
        with its box, a frozen ``arr`` (any field's ``box_data``, not only
        the source of a solve) has its padded transform read from, or put
        in, the one-slot memo of :func:`_source_spectrum`: it takes the slot
        from the array held there, and keeps its padded spectrum, as large
        as the lattice, alive until the array dies or another frozen array
        takes the slot.
        """
        arr = np.asarray(arr)
        if out_box is None:
            out_box = _whole(self.grid)
        transform = _source_spectrum
        if in_box is None:
            in_box = _support_box(arr)
            if in_box is None:
                return np.zeros(_box_shape(out_box), dtype=np.complex128)
            arr, transform = arr[_crop(in_box)], _padded_fftn
        kernel_hat = self._spectrum(self._half(in_box, out_box))
        lattice = self.lattice
        offset = tuple((li - lo) % p for (li, _), (lo, _), p in zip(in_box, out_box, lattice))
        return _cropped_ifftn(transform(arr, lattice, offset), _box_shape(out_box), kernel_hat)


# the one memo slot of _source_spectrum: (weak reference to the source, lattice, offset, spectrum)
_SOURCE_MEMO = []


def _frozen(arr) -> bool:
    """True when no array in the view chain of ``arr`` can be written to."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return True


def _source_spectrum(data: np.ndarray, lattice, offset) -> np.ndarray:
    """``_padded_fftn(data, lattice, offset)``, kept in one slot while ``data`` lives and is frozen.

    A band of frequencies under one realization applies the resolvent to
    one frozen source at each frequency, and the padded lattice depends on
    the boxes only, so the source is transformed once per lattice. The slot
    holds the latest frozen array given with its box, whatever the caller,
    through a weak reference whose callback empties it, keyed by that
    array's identity and (lattice, offset), and its spectrum, read-only. A
    writable ``data`` (a Born update, q v) is transformed and neither read
    from nor kept in the slot.
    """
    if not _frozen(data):
        return _padded_fftn(data, lattice, offset)
    if _SOURCE_MEMO:
        ref, *key, spec = _SOURCE_MEMO
        if ref() is data and key == [lattice, offset]:
            return spec
        # the stale spectrum goes before the new one is formed
        del spec
        _SOURCE_MEMO.clear()
    spec = _padded_fftn(data, lattice, offset)
    spec.setflags(write=False)
    _SOURCE_MEMO[:] = [weakref.ref(data, _forget_source), lattice, offset, spec]
    return spec


def _forget_source(dead):
    """Weak-reference callback: empty the memo slot when the source it holds dies."""
    if _SOURCE_MEMO and _SOURCE_MEMO[0] is dead:
        _SOURCE_MEMO.clear()


def _axis_phases(k: float, d, grid: GridSpec, box) -> list:
    """e^{i k d_a x_a} on the cell centers x_a of ``box``: one row per axis a, written by a cos and a sin."""
    rows = []
    for x0, kd, (lo, hi) in zip(grid.origin, k * np.asarray(d), box):
        theta = (x0 + grid.spacing * np.arange(lo, hi + 1)) * kd
        row = np.empty(theta.shape, dtype=np.complex128)
        row.real, row.imag = np.cos(theta), np.sin(theta)
        rows.append(row)
    return rows


def _plane_wave(k: float, d, grid: GridSpec, box) -> np.ndarray:
    """e^{i k d . x} at the cell centers of ``box`` (per-axis inclusive index ranges)."""
    px, py, pz = _axis_phases(k, d, grid, box)
    return px[:, None, None] * py[None, :, None] * pz[None, None, :]


def incident_plane_wave(k: float, direction, grid: GridSpec) -> ComplexField:
    """Unit-amplitude plane wave e^{i k d . x} sampled at cell centers."""
    d = _unit_rows(direction, "incident direction")[0]
    return ComplexField(grid, _plane_wave(k, d, grid, _whole(grid)))


def _as_field_or_none(obj):
    if obj is None:
        return None
    if isinstance(obj, Realization):
        return obj.field
    if isinstance(obj, (ScalarField, ComplexField)):
        return obj
    raise ConfigurationError(f"expected a field or realization, got {type(obj).__name__}")


def _box_normal(bf, bq) -> np.ndarray:
    """Axis-aligned unit normal separating two support boxes, pointing source to potential.

    ``bf`` and ``bq`` are ``support_box`` values of the source and the potential.
    """
    if bf is None or bq is None:
        raise ConfigurationError("separating normal needs two nonempty supports")
    best = None
    for axis in range(3):
        if bq[axis][0] - bf[axis][1] >= 1:
            gap = bq[axis][0] - bf[axis][1]
            cand = (gap, axis, +1.0)
        elif bf[axis][0] - bq[axis][1] >= 1:
            gap = bf[axis][0] - bq[axis][1]
            cand = (gap, axis, -1.0)
        else:
            continue
        if best is None or cand[0] > best[0]:
            best = cand
    if best is None:
        raise ConfigurationError(
            "source and potential support boxes overlap: the positive-distance "
            "separation requirement fails"
        )
    n = np.zeros(3)
    n[best[1]] = best[2]
    return n


def _check_tol(tol):
    """Raise unless the solver tolerance ``tol`` is finite and positive."""
    if not 0 < tol < np.inf:
        raise ConfigurationError(f"solver tolerance must be finite and positive, got {tol}")


def _check_born_order(order):
    """Raise unless the Born order budget ``order`` is an integer of at least 1."""
    if isinstance(order, bool) or not isinstance(order, numbers.Integral):
        raise ConfigurationError(f"max_born_order must be an integer, got {order!r}")
    if order < 1:
        raise ConfigurationError(f"max_born_order must be at least 1, got {order}")


@dataclass(frozen=True)
class ScatteringConfig:
    """One forward solve: frequency, incident wave, and the material fields.

    Keeps each ingredient's support box and its data on that box (the
    field's cached ``box_data``, so building a config copies nothing), both
    None when the ingredient is absent or all zero.
    """

    grid: GridSpec
    k: float
    alpha: int = 0
    incident_dir: Optional[tuple] = None
    potential: object = None
    source: object = None
    max_born_order: int = 20
    tol: float = 1e-10

    def __post_init__(self):
        if not 0 < self.k < np.inf:
            raise ConfigurationError(f"frequency must be finite and positive, got {self.k}")
        _check_tol(self.tol)
        _check_born_order(self.max_born_order)
        if self.alpha not in (0, 1):
            raise ConfigurationError(f"alpha must be 0 or 1, got {self.alpha}")
        if self.alpha == 1:
            if self.incident_dir is None:
                raise ConfigurationError("alpha=1 requires an incident direction")
            d = _unit_rows(self.incident_dir, "incident direction")[0]
            object.__setattr__(self, "incident_dir", tuple(float(c) for c in d))
        for name in ("potential", "source"):
            fld = _as_field_or_none(getattr(self, name))
            data = box = None
            if fld is not None:
                if fld.grid != self.grid:
                    raise ConfigurationError(f"{name} lives on a different grid")
                require_collar(fld, name)
                box, data = fld.support_box, fld.box_data
            object.__setattr__(self, f"_{name}_data", data)
            object.__setattr__(self, f"_{name}_box", box)

    @cached_property
    def _incident_on_q(self) -> np.ndarray:
        """u_in on the potential's support box, formed once for the Born solve and the far field."""
        return _plane_wave(self.k, self.incident_dir, self.grid, self._potential_box)


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of one Born iteration that met its stop rule; every other outcome raises.

    A solve (:func:`lippmann_schwinger_solve`) takes every norm over its
    output box: the whole grid by default, the potential's support box for
    a solve inside :func:`band_sweep`.

    iterations : Born orders applied (1 when the series truncates for q = 0).
    update_norms : |u_{n+1} - u_n| of every iteration, in order.
    contraction : ratio of the last two update norms, or None before two
        nonzero updates exist.
    residual : the last relative update |u_{n+1} - u_n| / |u_{n+1}|, not
        the fixed-point residual |u - R_k f - R_k[q u]| / |u|.

    A backscatter shot's incident part (:func:`_backscatter_far_field`) pairs
    the Born updates v_a = (R q)^a w instead of summing them; its report reads:

    iterations : resolvent applies a, which give the far-field terms up to
        order 2a.
    update_norms : |v_1| .. |v_a|, over the potential's support box.
    contraction : |v_a| / |v_{a-1}|, or None after one apply.
    residual : |t_{2a}| / |sum_n t_n|, the newest far-field term relative
        to their sum.
    """

    iterations: int
    update_norms: tuple
    contraction: Optional[float]
    residual: float


def _contraction(norms) -> Optional[float]:
    """Ratio of the last two update norms, or None before two nonzero ones exist."""
    return norms[-1] / norms[-2] if len(norms) >= 2 and norms[-2] > 0 else None


def _born_series(cfg: ScatteringConfig, op: ResolventOperator, box, v, budget: int, norms: list):
    """The Born loop: yields (v_a, q v_a) for a = 1 .. ``budget``, where v_a = R(q v_{a-1}).

    ``v`` is v_0 on ``box``, which holds the potential's support box; each
    v_a is kept on ``box`` and q v_a on q's box, the only cells the next
    apply reads. |v_a| over ``box`` is appended to ``norms``. A caller that
    asks for the next update after three raises SolverDivergenceError once
    the contraction estimate, the ratio of the last two norms, has reached 1.
    """
    q, q_box = cfg._potential_data, cfg._potential_box
    on_q = _crop(q_box, box)
    qv = q * v[on_q]
    for _ in range(budget):
        v = op.apply(qv, q_box, box)
        qv = q * v[on_q]
        norms.append(float(np.linalg.norm(v)))
        yield v, qv
        contraction = _contraction(norms)
        if len(norms) >= 3 and contraction is not None and contraction >= 1.0:
            raise SolverDivergenceError(
                f"Born iteration diverges at k={cfg.k}: contraction estimate "
                f"{contraction:.3f} >= 1 after {len(norms)} iterations",
                contraction=contraction,
            )


def lippmann_schwinger_solve(cfg: ScatteringConfig, operator: Optional[ResolventOperator] = None,
                             out_box=None):
    """Solve (I - R_k M_q) u_sc = R_k f + alpha R_k[q u_in] by Born iteration.

    Returns (u_sc, report): u_sc as a field on the whole grid when
    ``out_box`` is None, else as the array of exactly the cells of
    ``out_box`` (per-axis inclusive index ranges), which must lie in the
    grid and hold the potential's support box. q u vanishes outside q's
    box, so each update reads u there only. u_sc is the right-hand side plus
    the sum of its Born updates (R_k M_q)^n RHS. R_k f applies the resolvent
    to the source's frozen ``box_data``, so a band of solves under one
    realization, whose lattice depends on the boxes only, transforms the
    source once while it lives (:func:`_source_spectrum`); the Born updates
    are writable and transformed afresh. Every norm, the stop rule's
    relative update |u_{n+1} - u_n| / |u_{n+1}| included, is taken over the
    output box. Raises SolverDivergenceError once the estimated contraction
    factor reaches 1 after three iterations, and SolverConvergenceError if
    the order budget runs out above tolerance.
    """
    if operator is not None and (operator.grid != cfg.grid or operator.k != cfg.k):
        raise ConfigurationError(
            f"resolvent operator built for k={operator.k} on {operator.grid.dims} does not "
            f"match the config's k={cfg.k} on {cfg.grid.dims}"
        )
    op = operator if operator is not None else ResolventOperator(cfg.grid, cfg.k)
    q, q_box, f_box = cfg._potential_data, cfg._potential_box, cfg._source_box
    box = _whole(cfg.grid) if out_box is None else _checked_box(cfg.grid, out_box, q_box)
    shaped = (lambda u: ComplexField(cfg.grid, u)) if out_box is None else (lambda u: u)
    # one spectrum for every apply below: the source box and q's box to the output box
    halves = [op._half(b, box) for b in (f_box, q_box) if b is not None]
    if halves:
        op._spectrum(tuple(map(max, zip(*halves))))
    rhs = (op.apply(cfg._source_data, f_box, box) if f_box is not None
           else np.zeros(_box_shape(box), dtype=np.complex128))
    if q is None:
        # the series truncates: u_sc = RHS exactly, first update is zero
        return shaped(rhs), ConvergenceReport(1, (0.0,), None, 0.0)
    if cfg.alpha == 1:
        rhs += op.apply(q * cfg._incident_on_q, q_box, box)
    u = rhs
    updates = []
    for v, _ in _born_series(cfg, op, box, rhs, cfg.max_born_order, updates):
        u += v
        norm = float(np.linalg.norm(u))
        rel = updates[-1] / norm if norm > 0 else updates[-1]
        if rel < cfg.tol:
            return shaped(u), ConvergenceReport(len(updates), tuple(updates), _contraction(updates), rel)
    raise SolverConvergenceError(
        f"Born order budget {cfg.max_born_order} exhausted at k={cfg.k} with "
        f"relative update {rel:.3e} above tol {cfg.tol:g}",
        residual=rel,
    )


def _backscatter_far_field(cfg: ScatteringConfig, op: ResolventOperator):
    """Far field of a backscatter shot's incident part, observed at -incident_dir: (value, report).

    The incident wave w = e^{-i k xhat . y} on q's box is also the far-field
    phase at xhat, and R is symmetric (sum a R b = sum (R a) b), so the n-th
    Born term t_n = sum w q (R q)^n w equals sum v_a q v_b for any a + b = n,
    with v_a = (R q)^a w. After a applies the terms up to order 2a are
    known: t_{2a-1} = sum v_{a-1} q v_a and t_{2a} = sum v_a q v_a, and the
    value is (h^3 / 4 pi) sum_n t_n. The shot stops once
    |t_{2a}| <= tol |sum_n t_n|. max_born_order N lets a solve reach order
    N + 1, so it allows ceil((N + 1) / 2) applies here; running out raises
    SolverConvergenceError. See :class:`ConvergenceReport` for the report's
    fields in this mode. cfg's source is not read.
    """
    q, w = cfg._potential_data, cfg._incident_on_q
    prev = w.ravel()
    total = np.dot(prev, (q * w).ravel())
    norms = []
    for v, qv in _born_series(cfg, op, cfg._potential_box, w, (cfg.max_born_order + 2) // 2, norms):
        v, qv = v.ravel(), qv.ravel()
        newest = np.dot(v, qv)
        total += np.dot(prev, qv) + newest
        rel = abs(newest) / abs(total) if total != 0 else abs(newest)
        if rel <= cfg.tol:
            report = ConvergenceReport(len(norms), tuple(norms), _contraction(norms), rel)
            return total * cfg.grid.cell_volume / (4.0 * np.pi), report
        prev = v
    raise SolverConvergenceError(
        f"Born order budget {cfg.max_born_order} exhausted at k={cfg.k} with "
        f"relative far-field term {rel:.3e} above tol {cfg.tol:g}",
        residual=rel,
    )


def _checked_box(grid: GridSpec, box, q_box):
    """``box`` as int pairs, once it lies in ``grid`` and holds ``q_box``."""
    box = tuple((int(lo), int(hi)) for lo, hi in box)
    if len(box) != 3 or not all(0 <= lo <= hi < n for (lo, hi), n in zip(box, grid.dims)):
        raise ConfigurationError(f"output box {box} leaves the grid of dims {grid.dims}")
    if q_box is not None and not all(lo <= ql and qh <= hi for (lo, hi), (ql, qh) in zip(box, q_box)):
        raise ConfigurationError(f"output box {box} does not hold the potential's support box {q_box}")
    return box


# byte budget of a (L1 L2, Kc D) complex table for one chunk of frequencies; the
# folded real tables of _farfield_batch fill half of it
_FARFIELD_TABLE_BYTES = 4 * 2 ** 20


def _chunk_length(box, n_dirs: int) -> int:
    """Frequencies per chunk of a far-field sum over ``box``: as many as fit the budget, at least one.

    A table of max(L0, L1 L2) rows is held to the budget, so the x table and
    the GEMM output stay within it too when L0 is the longer.
    """
    n0, n1, n2 = _box_shape(box)
    return max(1, _FARFIELD_TABLE_BYTES // (16 * max(n0, n1 * n2) * n_dirs))


def _fold(a: np.ndarray, axis: int):
    """Even and odd parts of ``a`` about the middle of ``axis``, on its upper ceil(L/2) cells.

    Cell t of the L along ``axis`` pairs with cell L-1-t, its mirror image
    about the middle: even = a_t + a_{L-1-t} and odd = a_t - a_{L-1-t} for
    t = L - ceil(L/2) .. L-1, in that order. An odd axis's middle cell pairs
    with itself, so its even part is a_t and its odd part is 0.
    """
    n = a.shape[axis]
    m = (n + 1) // 2
    cells = np.moveaxis(a, axis, 0)
    up, down = cells[n - m:], cells[m - 1::-1]
    even, odd = up + down, up - down
    if n % 2:
        even[0] = up[0]
    return np.moveaxis(even, 0, axis), np.moveaxis(odd, 0, axis)


def _farfield_batch(g: np.ndarray, grid: GridSpec, ks, dirs: np.ndarray, box) -> np.ndarray:
    """(1/4 pi) sum_cells e^{-i k d . y} g(y) h^3 for every direction and frequency: a (D, K) array.

    ``g`` holds the cells of ``box`` (per-axis inclusive index ranges), the
    only cells the sum visits; it may be real or complex. With y = c + s
    about the box centre c, e^{-i k d . y} = e^{-i k d . c} prod_a e^{-i
    theta_a s_a}, theta_a = k d_a, and cells s and -s of an axis share cos
    and flip sin. So g is folded (:func:`_fold`) along each axis once per
    call, and its even and odd parts meet real cos and sin tables on the
    upper half axes, of M_a = ceil(L_a / 2) cells.

    ``ks`` is a 1-D array of K frequencies, taken a chunk of Kc at a time
    (:func:`_chunk_length`). Per chunk, the half-axis y and z tables
    multiply into two real (2 M1 M2, Kc D) blocks, [cy cz ; -sy sz] and
    [cy sz ; sy cz], and two real GEMMs against [ee | oo] and [eo | oe] (the
    y, z parities of g, with its x-even rows above its x-odd rows) give the
    real part and minus the imaginary part of the y, z sum. A complex g
    sends its real and imaginary parts through the same GEMMs as a stack of
    two, each at the shape a real g takes, so a real g is never cast and
    gives the same bits as its complex copy. The x cos and sin tables
    finish the sum, and the centre phase e^{-i k d . c} and h^3 / 4 pi
    scale it.
    """
    ks = np.asarray(ks, dtype=np.float64)
    n_dirs = dirs.shape[0]
    h = grid.spacing
    centre = np.array([o + h * (lo + (n - 1) / 2) for o, (lo, _), n in zip(grid.origin, box, g.shape)])
    # offsets s >= 0 from the centre of each axis's upper half, matching _fold's order
    half = [h * (np.arange(n - (n + 1) // 2, n) - (n - 1) / 2) for n in g.shape]
    m0, m1, m2 = (len(s) for s in half)
    # x parities stacked as rows, then the four y, z parities: (2 M0, M1, M2) each
    even, odd = _fold(g, 0)
    rows = np.concatenate((even, odd))
    (ee, eo), (oe, oo) = (_fold(p, 2) for p in _fold(rows, 1))
    cos_rows = np.concatenate((ee, oo), axis=1).reshape(2 * m0, -1)
    sin_rows = np.concatenate((eo, oe), axis=1).reshape(2 * m0, -1)
    if np.iscomplexobj(g):
        cos_rows = np.stack((cos_rows.real, cos_rows.imag))
        sin_rows = np.stack((sin_rows.real, sin_rows.imag))
    chunk = _chunk_length(box, n_dirs)
    vals = np.empty((n_dirs, len(ks)), dtype=np.complex128)
    for start in range(0, len(ks), chunk):
        part = ks[start:start + chunk]
        kd = (part[:, None, None] * dirs[None]).reshape(-1, 3)
        (cx, sx), (cy, sy), (cz, sz) = ((np.cos(t), np.sin(t))
                                        for t in (s[:, None] * kd[:, a] for a, s in enumerate(half)))
        n_cols = kd.shape[0]
        cos_table = np.empty((2, m1, m2, n_cols))
        sin_table = np.empty((2, m1, m2, n_cols))
        np.multiply(cy[:, None], cz[None], out=cos_table[0])
        np.multiply(-sy[:, None], sz[None], out=cos_table[1])
        np.multiply(cy[:, None], sz[None], out=sin_table[0])
        np.multiply(sy[:, None], cz[None], out=sin_table[1])
        re = cos_rows @ cos_table.reshape(-1, n_cols)
        im = sin_rows @ sin_table.reshape(-1, n_cols)
        # the y, z sum p + i q on each x row; a real g takes 0 - im, the complex
        # path's re[1] - im[0] at re[1] = 0, so both give the same signed zeros
        if re.ndim == 3:
            p, q = re[0] + im[1], re[1] - im[0]
        else:
            p, q = re, 0.0 - im
        # the x sum: the x-even rows of p + i q meet cx, the x-odd rows -i sx
        out = np.empty(n_cols, dtype=np.complex128)
        out.real = np.einsum("ic,ic->c", p[:m0], cx) + np.einsum("ic,ic->c", q[m0:], sx)
        out.imag = np.einsum("ic,ic->c", q[:m0], cx) - np.einsum("ic,ic->c", p[m0:], sx)
        phi = kd @ centre
        out *= np.cos(phi) - 1j * np.sin(phi)
        vals[:, start:start + chunk] = out.reshape(len(part), n_dirs).T
    return vals * grid.cell_volume / (4.0 * np.pi)


def _box_hull(a, b):
    """Smallest box holding two support boxes, either of which may be None."""
    if a is None or b is None:
        return b if a is None else a
    return tuple((min(pa[0], pb[0]), max(pa[1], pb[1])) for pa, pb in zip(a, b))


def far_field(cfg: ScatteringConfig, u_sc, dirs, freqs=None) -> np.ndarray:
    """Far-field coefficients of the outgoing expansion, one per direction.

    u_sc is read only when cfg has a potential, and then only on the
    potential's support box: it is a field or whole-grid data, or data
    holding exactly the cells of that box (as :func:`band_sweep` keeps it).
    Without a potential it may be None; with one None raises
    ConfigurationError. The density vanishes outside the hull of the source
    and potential support boxes, so only that hull is summed.

    ``freqs``, a 1-D array of positive frequencies, asks for all of them in
    one call, summed a chunk at a time, and returns a (D, len(freqs)) array;
    cfg.k is then not read. Only a config without a potential accepts it:
    only then is the density the same at every frequency.
    """
    dirs = _unit_rows(dirs, "far-field directions")
    f, q = cfg._source_data, cfg._potential_data
    if freqs is not None and q is not None:
        raise ConfigurationError("a far field over a frequency mesh needs a config without a potential")
    ks = np.atleast_1d(np.asarray(cfg.k if freqs is None else freqs, dtype=np.float64))
    if ks.ndim != 1 or len(ks) < 1 or not np.all(ks > 0):
        raise ConfigurationError("far-field frequencies must be a 1-D list of positive values")
    if q is not None and u_sc is None:
        raise ConfigurationError("the far field of a config with a potential needs u_sc")
    f_box, q_box = cfg._source_box, cfg._potential_box
    box = _box_hull(f_box, q_box)
    if box is None:
        vals = np.zeros((dirs.shape[0], len(ks)), dtype=np.complex128)
        return vals if freqs is not None else vals[:, 0]
    g = f
    if q is not None:
        total = np.asarray(u_sc.data if isinstance(u_sc, ComplexField) else u_sc)
        if total.shape == cfg.grid.dims:
            total = total[_crop(q_box)]
        elif total.shape != _box_shape(q_box):
            raise ConfigurationError(
                f"u_sc of shape {total.shape} is neither whole-grid data nor the potential's box"
            )
        if cfg.alpha == 1:
            total = total + cfg._incident_on_q
        on_q = q * total
        if f is None:
            g = on_q
        else:
            g = np.zeros(_box_shape(box), dtype=np.complex128)
            g[_crop(f_box, box)] = f
            g[_crop(q_box, box)] += on_q
    vals = _farfield_batch(g, cfg.grid, ks, dirs, box)
    return vals if freqs is not None else vals[:, 0]


# ---------------------------------------------------------------------------
# band sweeps and the far-field data container
# ---------------------------------------------------------------------------

# the data kinds, each with its weight scale c and shift factor a: the band
# estimate weights by w(k) = (c k)^m and shifts by s = a tau. Backscatter data
# samples the medium spectrum at 2 k xhat, so a data shift of tau/2 moves the
# sampled spatial frequency by tau, and the weight must use the sampled
# frequency 2k for the band average to settle on mu_hat rather than
# 2^(-m) mu_hat.
_KIND_FORM = {"passive": (1.0, 1.0), "active-backscatter": (2.0, 0.5)}
_KINDS = tuple(_KIND_FORM)


def _mesh_spacing(freqs) -> Optional[float]:
    """Spacing of a strictly increasing mesh uniform to 1e-9 of it; None for one frequency."""
    d = np.diff(freqs)
    if np.any(d <= 0) or (len(d) and np.max(np.abs(d - d[0])) > 1e-9 * d[0]):
        raise ConfigurationError("frequency mesh must be strictly increasing and uniform")
    return float(d[0]) if len(d) else None


@dataclass(frozen=True)
class FarFieldSet:
    """Single-realization far-field samples on a direction set and uniform frequency mesh.

    The mesh spacing, the band edges and every frequency lookup follow from
    ``freqs``; ``meta`` holds only the rough order ``m`` and the ``seed``.
    """

    dirs: np.ndarray          # (D, 3) unit vectors
    freqs: np.ndarray         # (nk,) strictly increasing and uniform
    values: np.ndarray        # (D, nk) complex
    kind: str
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"far-field kind must be one of {_KINDS}")
        dirs = np.ascontiguousarray(np.atleast_2d(self.dirs), dtype=np.float64)
        freqs = np.ascontiguousarray(np.atleast_1d(self.freqs), dtype=np.float64)
        values = np.ascontiguousarray(self.values, dtype=np.complex128)
        for what, arr in (("directions", dirs), ("frequencies", freqs), ("values", values)):
            if not np.all(np.isfinite(arr)):
                raise ConfigurationError(f"far-field {what} hold non-finite entries")
        dirs = _unit_rows(dirs, "far-field directions")
        object.__setattr__(self, "_delta", _mesh_spacing(freqs))
        if values.shape != (dirs.shape[0], freqs.shape[0]):
            raise ConfigurationError(
                f"values shape {values.shape} does not match (dirs, freqs) "
                f"({dirs.shape[0]}, {freqs.shape[0]})"
            )
        for arr in (dirs, freqs, values):
            arr.setflags(write=False)
        object.__setattr__(self, "dirs", dirs)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "values", values)

    @property
    def n_dirs(self) -> int:
        return self.dirs.shape[0]

    @property
    def delta(self) -> float:
        if self._delta is None:
            raise ConfigurationError("mesh spacing undefined for a single frequency")
        return self._delta

    def dir_index(self, direction) -> int:
        d = np.asarray(direction, dtype=np.float64)
        hits = np.nonzero(np.max(np.abs(self.dirs - d[None, :]), axis=1) <= 1e-12)[0]
        if len(hits) == 0:
            raise ConfigurationError(f"direction {tuple(d.tolist())} is not in the data set")
        return int(hits[0])

    def freq_indices(self, ks, what="frequency"):
        """Mesh indices for the requested frequencies, shaped like ks; reports gaps loudly."""
        ks = np.atleast_1d(np.asarray(ks, dtype=np.float64))
        delta = self.delta
        idx = np.clip(np.rint((ks - self.freqs[0]) / delta), 0, len(self.freqs) - 1).astype(int)
        miss = np.abs(self.freqs[idx] - ks) > 1e-9 * max(delta, 1.0)
        gaps = [float(k) for k in ks[miss]]
        if gaps:
            raise DataCoverageError(
                f"data set is missing {len(gaps)} {what} mesh points: "
                f"{[round(g, 6) for g in gaps[:8]]}{'...' if len(gaps) > 8 else ''}",
                gaps=gaps,
            )
        return idx

    def save(self, prefix):
        """Write manifest (key=value) and CSV with 17-significant-digit floats."""
        prefix = str(prefix)
        meta = self.meta
        fmt = lambda x: "" if x is None else f"{float(x):.17g}"
        lines = [
            f"kind={self.kind}",
            f"m={fmt(meta.get('m'))}",
            f"seed={meta['seed'] if meta.get('seed') is not None else ''}",
            f"dirs_count={self.n_dirs}",
            f"n_freq={len(self.freqs)}",
        ]
        with open(prefix + ".manifest.txt", "w") as fh:
            fh.write("\n".join(lines) + "\n")
        # the k column is formatted once for every direction's block
        ks = ["%.17g" % k for k in self.freqs.tolist()]
        with open(prefix + ".csv", "w") as fh:
            fh.write("dir_x,dir_y,dir_z,k,re,im\n")
            # one block per direction, whose coordinates are formatted once
            for d, row in zip(self.dirs, self.values):
                line = ",".join(fmt(c) for c in d) + ",%s,%.17g,%.17g\n"
                fh.writelines(line % r for r in zip(ks, row.real.tolist(), row.imag.tolist()))

    @classmethod
    def load(cls, prefix):
        prefix = str(prefix)
        meta = {}
        with open(prefix + ".manifest.txt") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                key, _, val = line.partition("=")
                meta[key] = val
        try:
            kind = meta.pop("kind")
            n_dirs = int(meta.pop("dirs_count"))
            n_freq = int(meta.pop("n_freq"))
            m_raw, seed_raw = meta.pop("m", ""), meta.pop("seed", "")
            parsed = {"m": float(m_raw) if m_raw else None, "seed": int(seed_raw) if seed_raw else None}
        except KeyError as e:
            raise FieldFormatError(f"manifest missing key {e}") from None
        except ValueError as e:
            raise FieldFormatError(f"manifest holds an unparsable number: {e}") from None
        with open(prefix + ".csv") as fh:
            header = fh.readline().strip()
            if header != "dir_x,dir_y,dir_z,k,re,im":
                raise FieldFormatError(f"unexpected CSV header {header!r}")
            try:
                arr = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as e:
                raise FieldFormatError(f"CSV holds a malformed row: {e}") from None
        if arr.shape != (n_dirs * n_freq, 6):
            raise FieldFormatError(
                f"CSV shape {arr.shape} does not match (dirs x freqs, 6) = ({n_dirs * n_freq}, 6)"
            )
        bad = np.flatnonzero(~np.all(np.isfinite(arr), axis=1))
        if len(bad):
            raise FieldFormatError(
                f"CSV data row {bad[0] + 1} holds a non-finite number: {arr[bad[0]].tolist()}"
            )
        # rows run direction by direction, each over the same frequency list
        layout = arr[:, :4].reshape(n_dirs, n_freq, 4)
        dirs = layout[:, 0, :3]
        freqs = layout[0, :, 3]
        if not (np.all(layout[..., :3] == dirs[:, None]) and np.all(layout[..., 3] == freqs)):
            raise FieldFormatError(
                "CSV rows break the layout: each direction must list the same frequencies in order"
            )
        # set part by part: re + 1j * im would turn a -0.0 real part into +0.0
        values = np.empty(n_dirs * n_freq, dtype=np.complex128)
        values.real, values.imag = arr[:, 4], arr[:, 5]
        values = values.reshape(n_dirs, n_freq)
        return cls(dirs=dirs, freqs=freqs, values=values, kind=kind, meta=parsed)


def draw_realization(source, potential, seed):
    """Draw a run's realization once: returns (source, potential, m_f, m_q).

    A MigrSpec source draws from the first child of ``seed`` and a MigrSpec
    potential from the second, so every run with one seed sees one
    realization. Two random ingredients must have separated supports. A real
    source stays real: the resolvent casts it where it meets complex data,
    and the far-field sum takes it as it is. m_f and m_q are the rough
    orders of random ingredients, None for the others.
    """
    seeds = np.random.SeedSequence(int(seed)).generate_state(2, np.uint64)
    drawn = [synthesize_migr(x, int(s)) if isinstance(x, MigrSpec) else x
             for x, s in zip((source, potential), seeds)]
    f, q = (_as_field_or_none(x) for x in drawn)
    m_f, m_q = (x.spec.order if isinstance(x, Realization) else None for x in drawn)
    if m_f is not None and m_q is not None:
        _box_normal(f.support_box, q.support_box)
    return f, q, m_f, m_q


def band_sweep(grid, source, potential, frequencies, dirs, mode, seed, *,
               tol=ScatteringConfig.tol, max_born_order=ScatteringConfig.max_born_order) -> FarFieldSet:
    """Sweep a frequency band under one realization of the randomness.

    Random ingredients (MigrSpec) are drawn exactly once by
    :func:`draw_realization` and reused at every frequency; per-frequency solves
    are then independent deterministic tasks. Without a potential the
    scattering density is the source at every frequency and no shot needs a
    solve, so the whole band is one :func:`far_field` call over the mesh,
    summed a chunk of frequencies at a time. With a potential the far field
    is linear in the pair (source, incident wave), so one operator per
    frequency serves two parts. The source's part, when the source has
    support, is one Born solve without an incident wave, observed in every
    direction; it runs first and sizes the operator for every later apply.
    In active-backscatter mode each direction xhat then adds the incident
    part of its shot lit from -xhat, by the 2n+1 rule
    (:func:`_backscatter_far_field`). Passive data with a potential but no
    source is zero and applies no resolvent.
    """
    if mode not in _KINDS:
        raise ConfigurationError(f"sweep mode must be one of {_KINDS}")
    freqs = np.asarray(frequencies, dtype=np.float64)
    if freqs.ndim != 1 or len(freqs) < 1:
        raise ConfigurationError("sweep needs a 1-D list of frequencies")
    _mesh_spacing(freqs)
    dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    f_obj, q_obj, m_f, m_q = draw_realization(source, potential, seed)
    meta = {"m": m_q if mode == "active-backscatter" and m_q is not None else m_f,
            "seed": int(seed)}
    if q_obj is None or q_obj.support_box is None:
        cfg = ScatteringConfig(grid=grid, k=float(freqs[0]), potential=q_obj, source=f_obj,
                               max_born_order=max_born_order, tol=tol)
        values = far_field(cfg, None, dirs, freqs)
        return FarFieldSet(dirs=dirs, freqs=freqs, values=values, kind=mode, meta=meta)
    values = np.zeros((dirs.shape[0], len(freqs)), dtype=np.complex128)
    # (incident direction, error context) of every shot, formed once per sweep
    shots = [] if mode == "passive" else [
        (tuple(-xhat), f", dir={tuple(np.round(xhat, 6).tolist())}") for xhat in dirs]
    for j, k in enumerate(freqs):
        op = ResolventOperator(grid, float(k))
        where = ""
        try:
            if f_obj is not None and f_obj.support_box is not None:
                cfg = ScatteringConfig(grid=grid, k=float(k), potential=q_obj, source=f_obj,
                                       max_born_order=max_born_order, tol=tol)
                # far_field reads u_sc on q's box only, so the solve stays there
                u = lippmann_schwinger_solve(cfg, op, cfg._potential_box)[0]
                values[:, j] = far_field(cfg, u, dirs)
            for di, (d_inc, where) in enumerate(shots):
                cfg = ScatteringConfig(grid=grid, k=float(k), alpha=1, incident_dir=d_inc,
                                       potential=q_obj, max_born_order=max_born_order, tol=tol)
                values[di, j] += _backscatter_far_field(cfg, op)[0]
        except (SolverDivergenceError, SolverConvergenceError) as e:
            # the same error, its payload kept, with the shot named in its message
            e.args = (f"{e} ({mode.removeprefix('active-')} sweep, k={k}{where})",)
            raise
    return FarFieldSet(dirs=dirs, freqs=freqs, values=values, kind=mode, meta=meta)


def probe_traces(grid, source, potential, ks, cells, *, tol=ScatteringConfig.tol,
                 max_born_order=ScatteringConfig.max_born_order) -> np.ndarray:
    """u_sc at the probe ``cells`` (grid index triples) for each frequency: an (n_cells, n_k) array.

    Each solve keeps u_sc on the hull of the probe cells and q's box, so its
    lattice follows the probes rather than the grid.
    """
    cells = np.asarray(cells)
    q = _as_field_or_none(potential)
    probe_box = tuple(zip(cells.min(axis=0).tolist(), cells.max(axis=0).tolist()))
    out_box = _box_hull(probe_box, None if q is None else q.support_box)
    at = tuple((cells - [lo for lo, _ in out_box]).T)
    traces = np.empty((len(cells), len(ks)), dtype=np.complex128)
    for j, k in enumerate(ks):
        cfg = ScatteringConfig(grid=grid, k=float(k), potential=potential, source=source,
                               max_born_order=max_born_order, tol=tol)
        traces[:, j] = lippmann_schwinger_solve(cfg, None, out_box)[0][at]
    return traces
