"""Forward solver: outgoing kernel, FFT resolvent, Born iteration, far fields.

Sign convention: the field equation is (-Laplacian - k^2 - q) u = f with
u = alpha * u_in + u_sc, which makes the fixed-point form
u_sc = R_k f + alpha R_k[q u_in] + R_k[q u_sc]. Strength recoveries are
covariance-based and therefore invariant under f -> -f, so no recovery
formula depends on this choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
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
from .fields import COLLAR as _COLLAR  # noqa: F401  (re-exported)
from .fields import (ComplexField, GridSpec, ScalarField, _cropped_ifftn, _even_spectrum,
                     _padded_fftn, _support_box, require_collar)
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


class ResolventOperator:
    """Convolution with the singularity-corrected outgoing kernel, via a zero-padded FFT.

    Off-center cells carry the kernel at cell centers times h^3; the self
    cell carries the exact ball integral. Each apply pads axis i to
    P_i = 2 m_i, where m_i = next_fast_len(max(hi, n_i - 1 - lo)) over the
    input's support box [lo, hi]: every offset between an output cell and an
    input cell is then at most m_i, where the period-P_i even extension of
    the kernel holds the kernel itself, so the circular convolution is
    exactly the aperiodic one. P_i <= 2 n_i for any input.

    The kernel spectrum is built by the first apply and rebuilt at the
    elementwise maximum when a later input needs a larger m, so it only
    grows; inputs it covers reuse it.
    """

    def __init__(self, grid: GridSpec, k: float):
        if k < 0:
            raise ConfigurationError(f"frequency must be nonnegative, got {k}")
        self.grid = grid
        self.k = float(k)
        self._kernel_hat = None

    def _spectrum(self, half) -> np.ndarray:
        """Kernel spectrum on a lattice of at least 2 * ``half`` per axis."""
        if self._kernel_hat is not None:
            have = tuple(s // 2 for s in self._kernel_hat.shape)
            if all(m <= c for m, c in zip(half, have)):
                return self._kernel_hat
            half = tuple(map(max, half, have))
        h = self.grid.spacing
        octant = _kernels.kernel_block(half, h, self.k, _self_cell_integral(self.k, h))
        self._kernel_hat = _even_spectrum(octant)
        return self._kernel_hat

    def apply(self, arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr)
        box = _support_box(arr)
        if box is None:
            return np.zeros(self.grid.dims, dtype=np.complex128)
        kernel_hat = self._spectrum(tuple(
            next_fast_len(max(hi, n - 1 - lo)) for (lo, hi), n in zip(box, self.grid.dims)))
        spec = _padded_fftn(arr, kernel_hat.shape, box)
        spec *= kernel_hat
        return _cropped_ifftn(spec, self.grid.dims)


def resolvent_apply(k: float, phi) -> ComplexField:
    """Apply the outgoing volume operator to a compactly supported field."""
    require_collar(phi, "resolvent input")
    op = ResolventOperator(phi.grid, k)
    return ComplexField(phi.grid, op.apply(phi.data))


def _plane_wave(k: float, d, grid: GridSpec, box) -> np.ndarray:
    """e^{i k d . x} at the cell centers of ``box`` (per-axis inclusive index ranges)."""
    xs, ys, zs = (c[lo:hi + 1] for c, (lo, hi) in zip(grid.coords(), box))
    px = np.exp(1j * k * d[0] * xs)
    py = np.exp(1j * k * d[1] * ys)
    pz = np.exp(1j * k * d[2] * zs)
    return px[:, None, None] * py[None, :, None] * pz[None, None, :]


def incident_plane_wave(k: float, direction, grid: GridSpec) -> ComplexField:
    """Unit-amplitude plane wave e^{i k d . x} sampled at cell centers."""
    d = np.asarray(direction, dtype=np.float64)
    if abs(np.linalg.norm(d) - 1.0) > 1e-12:
        raise ConfigurationError(f"incident direction must be unit length, got |d|={np.linalg.norm(d)}")
    return ComplexField(grid, _plane_wave(k, d, grid, tuple((0, n - 1) for n in grid.dims)))


def _as_field_or_none(obj):
    if obj is None:
        return None
    if isinstance(obj, Realization):
        return obj.field
    if isinstance(obj, (ScalarField, ComplexField)):
        return obj
    raise ConfigurationError(f"expected a field or realization, got {type(obj).__name__}")


def separating_normal(f_mask, q_mask) -> np.ndarray:
    """Axis-aligned unit normal separating two support boxes, pointing source to potential."""
    return _box_normal(_support_box(f_mask), _support_box(q_mask))


def _box_normal(bf, bq) -> np.ndarray:
    """:func:`separating_normal` of two support boxes (``support_box`` values)."""
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


@dataclass(frozen=True)
class ScatteringConfig:
    """One forward solve: frequency, incident wave, and the material fields.

    Keeps a reference to each ingredient's data and its support box, both
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
        if self.k <= 0:
            raise ConfigurationError(f"frequency must be positive, got {self.k}")
        if self.tol <= 0:
            raise ConfigurationError("solver tolerance must be positive")
        if self.max_born_order < 1:
            raise ConfigurationError("max_born_order must be at least 1")
        if self.alpha not in (0, 1):
            raise ConfigurationError(f"alpha must be 0 or 1, got {self.alpha}")
        if self.alpha == 1:
            if self.incident_dir is None:
                raise ConfigurationError("alpha=1 requires an incident direction")
            d = np.asarray(self.incident_dir, dtype=np.float64)
            if abs(np.linalg.norm(d) - 1.0) > 1e-12:
                raise ConfigurationError("incident direction must be unit length")
            object.__setattr__(self, "incident_dir", tuple(float(c) for c in d))
        for name in ("potential", "source"):
            fld = _as_field_or_none(getattr(self, name))
            data = box = None
            if fld is not None:
                if fld.grid != self.grid:
                    raise ConfigurationError(f"{name} lives on a different grid")
                require_collar(fld, name)
                box = fld.support_box
                if box is not None:
                    data = fld.data
            object.__setattr__(self, f"_{name}_data", data)
            object.__setattr__(self, f"_{name}_box", box)


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of one Born iteration.

    converged : whether the last relative update fell below the tolerance.
    iterations : Born orders applied (1 when the series truncates for q = 0).
    update_norms : |u_{n+1} - u_n| of every iteration, in order.
    contraction : ratio of the last two update norms, or None before two
        nonzero updates exist.
    residual : the last relative update |u_{n+1} - u_n| / |u_{n+1}|, not
        the fixed-point residual |u - R_k f - R_k[q u]| / |u|.
    """

    converged: bool
    iterations: int
    update_norms: tuple
    contraction: Optional[float]
    residual: float


def lippmann_schwinger_solve(cfg: ScatteringConfig, operator: Optional[ResolventOperator] = None):
    """Solve (I - R_k M_q) u_sc = R_k f + alpha R_k[q u_in] by Born iteration.

    Returns (u_sc, report). Raises SolverDivergenceError once the estimated
    contraction factor reaches 1 after three iterations, and
    SolverConvergenceError if the order budget runs out above tolerance.
    """
    if operator is not None and (operator.grid != cfg.grid or operator.k != cfg.k):
        raise ConfigurationError(
            f"resolvent operator built for k={operator.k} on {operator.grid.dims} does not "
            f"match the config's k={cfg.k} on {cfg.grid.dims}"
        )
    op = operator if operator is not None else ResolventOperator(cfg.grid, cfg.k)
    q = cfg._potential_data
    rhs = np.zeros(cfg.grid.dims, dtype=np.complex128)
    if cfg._source_data is not None:
        rhs += op.apply(cfg._source_data)
    if q is not None and cfg.alpha == 1:
        # q u_in vanishes outside q's box, so the wave is formed on that box only
        box = cfg._potential_box
        crop = tuple(slice(lo, hi + 1) for lo, hi in box)
        qu_in = np.zeros(cfg.grid.dims, dtype=np.complex128)
        qu_in[crop] = q[crop] * _plane_wave(cfg.k, cfg.incident_dir, cfg.grid, box)
        rhs += op.apply(qu_in)
    if q is None:
        # the series truncates: u_sc = RHS exactly, first update is zero
        report = ConvergenceReport(True, 1, (0.0,), None, 0.0)
        return ComplexField(cfg.grid, rhs), report
    u = rhs
    updates = []
    contraction = None
    for _ in range(cfg.max_born_order):
        u_next = rhs + op.apply(q * u)
        upd = float(np.linalg.norm(u_next - u))
        updates.append(upd)
        norm = float(np.linalg.norm(u_next))
        rel = upd / norm if norm > 0 else upd
        u = u_next
        if len(updates) >= 2 and updates[-2] > 0:
            contraction = updates[-1] / updates[-2]
        if rel < cfg.tol:
            return ComplexField(cfg.grid, u), ConvergenceReport(
                True, len(updates), tuple(updates), contraction, rel
            )
        if len(updates) >= 3 and contraction is not None and contraction >= 1.0:
            raise SolverDivergenceError(
                f"Born iteration diverges at k={cfg.k}: contraction estimate "
                f"{contraction:.3f} >= 1 after {len(updates)} iterations",
                contraction=contraction,
            )
    raise SolverConvergenceError(
        f"Born order budget {cfg.max_born_order} exhausted at k={cfg.k} with "
        f"relative update {rel:.3e} above tol {cfg.tol:g}",
        residual=rel,
    )


def _farfield_batch(g: np.ndarray, grid: GridSpec, k: float, dirs: np.ndarray, box) -> np.ndarray:
    """(1/4 pi) sum_cells e^{-i k d . y} g(y) h^3 for many directions, separably.

    ``g`` holds the cells of ``box`` (per-axis inclusive index ranges), the
    only cells the sum visits.
    """
    xs, ys, zs = (c[lo:hi + 1] for c, (lo, hi) in zip(grid.coords(), box))
    px = np.exp(-1j * k * xs[:, None] * dirs[None, :, 0])
    py = np.exp(-1j * k * ys[:, None] * dirs[None, :, 1])
    pz = np.exp(-1j * k * zs[:, None] * dirs[None, :, 2])
    t1 = np.tensordot(g, pz, axes=([2], [0]))      # (nx, ny, D)
    t2 = np.einsum("ijd,jd->id", t1, py)           # (nx, D)
    vals = np.einsum("id,id->d", t2, px)
    return vals * grid.cell_volume / (4.0 * np.pi)


def _box_hull(a, b):
    """Smallest box holding two support boxes, either of which may be None."""
    if a is None or b is None:
        return b if a is None else a
    return tuple((min(pa[0], pb[0]), max(pa[1], pb[1])) for pa, pb in zip(a, b))


def far_field(cfg: ScatteringConfig, u_sc, dirs) -> np.ndarray:
    """Far-field coefficients of the outgoing expansion, one per direction.

    u_sc (field or data) is read only when cfg has a potential; without one it
    may be None, with one None raises ConfigurationError. The density vanishes
    outside the hull of the source and potential support boxes, so only that
    hull is summed.
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-12):
        raise ConfigurationError("far-field directions must be unit length")
    f = cfg._source_data
    q = cfg._potential_data
    if q is not None and u_sc is None:
        raise ConfigurationError("the far field of a config with a potential needs u_sc")
    box = _box_hull(cfg._source_box, cfg._potential_box)
    if box is None:
        return np.zeros(dirs.shape[0], dtype=np.complex128)
    crop = tuple(slice(lo, hi + 1) for lo, hi in box)
    # one pass casts a real source and packs the crop; left to tensordot, the
    # crop would be copied and then cast
    g = None if f is None else np.asarray(f[crop], dtype=np.complex128)
    if q is not None:
        total = (u_sc.data if isinstance(u_sc, ComplexField) else u_sc)[crop]
        if cfg.alpha == 1:
            total = total + _plane_wave(cfg.k, cfg.incident_dir, cfg.grid, box)
        g = q[crop] * total if g is None else g + q[crop] * total
    return _farfield_batch(g, cfg.grid, cfg.k, dirs, box)


# ---------------------------------------------------------------------------
# band sweeps and the far-field data container
# ---------------------------------------------------------------------------

_KINDS = ("passive", "active-backscatter")


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
        dirs = np.ascontiguousarray(np.atleast_2d(self.dirs), dtype=np.float64)
        freqs = np.ascontiguousarray(np.atleast_1d(self.freqs), dtype=np.float64)
        values = np.ascontiguousarray(self.values, dtype=np.complex128)
        if self.kind not in _KINDS:
            raise ConfigurationError(f"far-field kind must be one of {_KINDS}")
        if np.any(np.abs(np.linalg.norm(dirs, axis=1) - 1.0) > 1e-12):
            raise ConfigurationError("far-field directions must be unit length")
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
            raise ConfigurationError(f"direction {tuple(d)} is not in the data set")
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
        """Write manifest (key=value) and CSV with 17-significant-digit floats.

        The band edges and the spacing are written from the frequencies, and
        left empty for a single frequency.
        """
        prefix = str(prefix)
        meta, freqs, delta = self.meta, self.freqs, self._delta
        fmt = lambda x: "" if x is None else f"{float(x):.17g}"
        lo, hi = (None, None) if delta is None else (freqs[0] - delta / 2, freqs[-1] + delta / 2)
        lines = [
            f"kind={self.kind}",
            f"m={fmt(meta.get('m'))}",
            f"seed={meta['seed'] if meta.get('seed') is not None else ''}",
            f"band_lo={fmt(lo)}",
            f"band_hi={fmt(hi)}",
            f"delta={fmt(delta)}",
            f"dirs_count={self.n_dirs}",
            f"n_freq={len(self.freqs)}",
        ]
        with open(prefix + ".manifest.txt", "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with open(prefix + ".csv", "w") as fh:
            fh.write("dir_x,dir_y,dir_z,k,re,im\n")
            # one block per direction, whose coordinates are formatted once
            for d, row in zip(self.dirs, self.values):
                line = ",".join(fmt(c) for c in d) + ",%.17g,%.17g,%.17g\n"
                fh.writelines(line % r for r in zip(self.freqs.tolist(), row.real.tolist(),
                                                     row.imag.tolist()))

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
            parsed = {}
            for key in ("m", "band_lo", "band_hi", "delta"):
                raw = meta.pop(key, "")
                parsed[key] = float(raw) if raw else None
            seed_raw = meta.pop("seed", "")
            parsed["seed"] = int(seed_raw) if seed_raw else None
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
        # rows run direction by direction, each over the same frequency list
        layout = arr[:, :4].reshape(n_dirs, n_freq, 4)
        dirs = layout[:, 0, :3]
        freqs = layout[0, :, 3]
        if not (np.all(layout[..., :3] == dirs[:, None]) and np.all(layout[..., 3] == freqs)):
            raise FieldFormatError(
                "CSV rows break the layout: each direction must list the same frequencies in order"
            )
        values = (arr[:, 4] + 1j * arr[:, 5]).reshape(n_dirs, n_freq)
        return cls(dirs=dirs, freqs=freqs, values=values, kind=kind, meta=parsed)


def draw_realization(source, potential, seed):
    """Draw a run's realization once: returns (source, potential, m_f, m_q).

    A MigrSpec source draws from the first child of ``seed`` and a MigrSpec
    potential from the second, so every run with one seed sees one
    realization. Two random ingredients must have separated supports. A real
    source stays real: the resolvent and the far-field sum cast it where they
    meet complex data. m_f and m_q are the rough orders of random
    ingredients, None for the others.
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
               tol=1e-10, max_born_order=20) -> FarFieldSet:
    """Sweep a frequency band under one realization of the randomness.

    Random ingredients (MigrSpec) are drawn exactly once by
    :func:`draw_realization` and reused at every frequency; per-frequency solves
    are then independent deterministic tasks. Each frequency is swept as a
    list of shots, one solve each: passive data is a single shot without an
    incident wave observed in every direction, and active-backscatter data is
    one shot per far-field direction xhat, lit from -xhat and observed at xhat.
    """
    if mode not in _KINDS:
        raise ConfigurationError(f"sweep mode must be one of {_KINDS}")
    freqs = np.asarray(frequencies, dtype=np.float64)
    if freqs.ndim != 1 or len(freqs) < 1:
        raise ConfigurationError("sweep needs a 1-D list of frequencies")
    _mesh_spacing(freqs)
    dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    f_obj, q_obj, m_f, m_q = draw_realization(source, potential, seed)
    solve_needed = q_obj is not None and q_obj.support_box is not None
    values = np.empty((dirs.shape[0], len(freqs)), dtype=np.complex128)
    # (value rows, incident direction, observed directions, error context)
    if mode == "passive":
        alpha, label = 0, "passive"
        shots = [(slice(None), None, dirs, "")]
    else:
        alpha, label = 1, "backscatter"
        shots = [(slice(di, di + 1), tuple(-xhat), xhat[None, :],
                  f", dir={tuple(np.round(xhat, 6))}") for di, xhat in enumerate(dirs)]

    for j, k in enumerate(freqs):
        op = ResolventOperator(grid, float(k)) if solve_needed else None
        for rows, d_inc, observed, where in shots:
            cfg = ScatteringConfig(
                grid=grid, k=float(k), alpha=alpha, incident_dir=d_inc,
                potential=q_obj, source=f_obj, max_born_order=max_born_order, tol=tol,
            )
            try:
                u = lippmann_schwinger_solve(cfg, op)[0] if solve_needed else None
            except (SolverDivergenceError, SolverConvergenceError) as e:
                raise type(e)(f"{e} ({label} sweep, k={k}{where})") from e
            values[rows, j] = far_field(cfg, u, observed)

    meta = {"m": m_q if mode == "active-backscatter" and m_q is not None else m_f,
            "seed": int(seed)}
    return FarFieldSet(dirs=dirs, freqs=freqs, values=values, kind=mode, meta=meta)
