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

from . import _kernels
from .errors import (
    ConfigurationError,
    DataCoverageError,
    FieldFormatError,
    SolverConvergenceError,
    SolverDivergenceError,
)
from .fields import ComplexField, GridSpec, ScalarField, _fftn_raw, _ifftn_raw
from .migr import MigrSpec, Realization, _collar_violation, synthesize_migr

_COLLAR = 4


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
    """Convolution with the singularity-corrected outgoing kernel, via 2x zero-padded FFT.

    Off-center cells carry the kernel at cell centers times h^3; the self
    cell carries the exact ball integral. Padding to twice the grid per axis
    makes the circular convolution exactly aperiodic for any supported input.
    """

    def __init__(self, grid: GridSpec, k: float):
        if k < 0:
            raise ConfigurationError(f"frequency must be nonnegative, got {k}")
        self.grid = grid
        self.k = float(k)
        padded = tuple(2 * d for d in grid.dims)
        block = _kernels.kernel_block(padded, grid.spacing, self.k,
                                      _self_cell_integral(self.k, grid.spacing))
        self._padded = padded
        self._kernel_hat = _fftn_raw(block)

    def apply(self, arr: np.ndarray) -> np.ndarray:
        pad = np.zeros(self._padded, dtype=np.complex128)
        n0, n1, n2 = self.grid.dims
        pad[:n0, :n1, :n2] = arr
        out = _ifftn_raw(_fftn_raw(pad) * self._kernel_hat)
        return np.ascontiguousarray(out[:n0, :n1, :n2])


def resolvent_apply(k: float, phi) -> ComplexField:
    """Apply the outgoing volume operator to a compactly supported field."""
    if isinstance(phi, ScalarField):
        phi = phi.as_complex()
    if _collar_violation(np.abs(phi.data) > 0, _COLLAR):
        raise ConfigurationError(
            f"resolvent input must keep a {_COLLAR}-cell empty collar against the box faces"
        )
    op = ResolventOperator(phi.grid, k)
    return ComplexField(phi.grid, op.apply(phi.data))


def incident_plane_wave(k: float, direction, grid: GridSpec) -> ComplexField:
    """Unit-amplitude plane wave e^{i k d . x} sampled at cell centers."""
    d = np.asarray(direction, dtype=np.float64)
    if abs(np.linalg.norm(d) - 1.0) > 1e-12:
        raise ConfigurationError(f"incident direction must be unit length, got |d|={np.linalg.norm(d)}")
    xs, ys, zs = grid.coords()
    px = np.exp(1j * k * d[0] * xs)
    py = np.exp(1j * k * d[1] * ys)
    pz = np.exp(1j * k * d[2] * zs)
    return ComplexField(grid, px[:, None, None] * py[None, :, None] * pz[None, None, :])


def _as_field_or_none(obj):
    if obj is None:
        return None
    if isinstance(obj, Realization):
        return obj.field
    if isinstance(obj, (ScalarField, ComplexField)):
        return obj
    raise ConfigurationError(f"expected a field or realization, got {type(obj).__name__}")


def _support_bbox(mask):
    if not mask.any():
        return None
    nz = np.nonzero(mask)
    return tuple((int(i.min()), int(i.max())) for i in nz)


def separating_normal(f_mask, q_mask) -> np.ndarray:
    """Axis-aligned unit normal separating two support boxes, pointing source to potential."""
    bf = _support_bbox(f_mask)
    bq = _support_bbox(q_mask)
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
    """One forward solve: frequency, incident wave, and the material fields."""

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
        q = _as_field_or_none(self.potential)
        f = _as_field_or_none(self.source)
        for name, fld in (("potential", q), ("source", f)):
            if fld is None:
                continue
            if fld.grid != self.grid:
                raise ConfigurationError(f"{name} lives on a different grid")
            if _collar_violation(np.abs(fld.data) > 0, _COLLAR):
                raise ConfigurationError(
                    f"{name} support violates the {_COLLAR}-cell boundary collar"
                )
        normal = None
        if isinstance(self.potential, Realization) and isinstance(self.source, Realization):
            normal = separating_normal(
                np.abs(f.data) > 0, np.abs(q.data) > 0
            )
        object.__setattr__(self, "_normal", normal)

    @property
    def separating_normal(self):
        return self._normal

    def potential_data(self) -> np.ndarray:
        q = _as_field_or_none(self.potential)
        return np.zeros(self.grid.dims) if q is None else q.data

    def source_data(self) -> np.ndarray:
        f = _as_field_or_none(self.source)
        return np.zeros(self.grid.dims) if f is None else f.data


@dataclass(frozen=True)
class ConvergenceReport:
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
    op = operator if operator is not None else ResolventOperator(cfg.grid, cfg.k)
    q = cfg.potential_data()
    rhs = np.zeros(cfg.grid.dims, dtype=np.complex128)
    f = cfg.source_data()
    if np.any(f != 0):
        rhs += op.apply(f.astype(np.complex128))
    if cfg.alpha == 1:
        u_in = incident_plane_wave(cfg.k, cfg.incident_dir, cfg.grid).data
        driven = q * u_in
        if np.any(driven != 0):
            rhs += op.apply(driven)
    if not np.any(q != 0):
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


def _farfield_batch(g: np.ndarray, grid: GridSpec, k: float, dirs: np.ndarray) -> np.ndarray:
    """(1/4 pi) sum_cells e^{-i k d . y} g(y) h^3 for many directions, separably."""
    xs, ys, zs = grid.coords()
    px = np.exp(-1j * k * xs[:, None] * dirs[None, :, 0])
    py = np.exp(-1j * k * ys[:, None] * dirs[None, :, 1])
    pz = np.exp(-1j * k * zs[:, None] * dirs[None, :, 2])
    t1 = np.tensordot(g, pz, axes=([2], [0]))      # (nx, ny, D)
    t2 = np.einsum("ijd,jd->id", t1, py)           # (nx, D)
    vals = np.einsum("id,id->d", t2, px)
    return vals * grid.cell_volume / (4.0 * np.pi)


def _scattering_density(cfg: ScatteringConfig, u_sc: np.ndarray) -> np.ndarray:
    g = cfg.source_data().astype(np.complex128)
    q = cfg.potential_data()
    if np.any(q != 0):
        total = u_sc
        if cfg.alpha == 1:
            total = total + incident_plane_wave(cfg.k, cfg.incident_dir, cfg.grid).data
        g = g + q * total
    return g


def far_field(cfg: ScatteringConfig, u_sc, dirs) -> np.ndarray:
    """Far-field coefficients of the outgoing expansion, one per direction."""
    if isinstance(u_sc, ComplexField):
        u_sc = u_sc.data
    dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-12):
        raise ConfigurationError("far-field directions must be unit length")
    g = _scattering_density(cfg, u_sc)
    return _farfield_batch(g, cfg.grid, cfg.k, dirs)


# ---------------------------------------------------------------------------
# band sweeps and the far-field data container
# ---------------------------------------------------------------------------

_KINDS = ("passive", "active-backscatter")


@dataclass(frozen=True)
class FarFieldSet:
    """Single-realization far-field samples on a direction set and frequency mesh."""

    dirs: np.ndarray          # (D, 3) unit vectors
    freqs: np.ndarray         # (nk,) strictly increasing
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
        if np.any(np.diff(freqs) <= 0):
            raise ConfigurationError("far-field frequencies must be strictly increasing")
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
        d = np.diff(self.freqs)
        if len(d) == 0:
            raise ConfigurationError("mesh spacing undefined for a single frequency")
        if np.max(np.abs(d - d[0])) > 1e-9 * d[0]:
            raise ConfigurationError("frequency mesh is not uniform")
        return float(d[0])

    def dir_index(self, direction) -> int:
        d = np.asarray(direction, dtype=np.float64)
        hits = np.nonzero(np.max(np.abs(self.dirs - d[None, :]), axis=1) <= 1e-12)[0]
        if len(hits) == 0:
            raise ConfigurationError(f"direction {tuple(d)} is not in the data set")
        return int(hits[0])

    def freq_indices(self, ks, what="frequency"):
        """Mesh indices for the requested frequencies, shaped like ks; reports gaps loudly."""
        ks = np.atleast_1d(np.asarray(ks, dtype=np.float64))
        tol = 1e-9 * max(self.delta, 1.0)
        pos = np.searchsorted(self.freqs, ks)
        idx = np.full(ks.shape, -1, dtype=int)
        last = len(self.freqs) - 1
        # the first of the neighbours p-1, p, p+1 within tolerance wins
        for c in (pos - 1, pos, pos + 1):
            hit = (idx < 0) & (c >= 0) & (c <= last)
            hit &= np.abs(self.freqs[np.clip(c, 0, last)] - ks) <= tol
            idx[hit] = c[hit]
        gaps = [float(k) for k in ks[idx < 0]]
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
        fmt = lambda x: f"{float(x):.17g}"
        lines = [
            f"kind={self.kind}",
            f"m={fmt(meta['m']) if meta.get('m') is not None else ''}",
            f"seed={meta.get('seed', '')}",
            f"band_lo={fmt(meta['band_lo']) if meta.get('band_lo') is not None else ''}",
            f"band_hi={fmt(meta['band_hi']) if meta.get('band_hi') is not None else ''}",
            f"delta={fmt(meta['delta']) if meta.get('delta') is not None else fmt(self.delta)}",
            f"dirs_count={self.n_dirs}",
            f"n_freq={len(self.freqs)}",
        ]
        with open(prefix + ".manifest.txt", "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with open(prefix + ".csv", "w") as fh:
            fh.write("dir_x,dir_y,dir_z,k,re,im\n")
            for d in range(self.n_dirs):
                dx, dy, dz = (fmt(c) for c in self.dirs[d])
                for j, k in enumerate(self.freqs):
                    v = self.values[d, j]
                    fh.write(f"{dx},{dy},{dz},{fmt(k)},{fmt(v.real)},{fmt(v.imag)}\n")

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
        except KeyError as e:
            raise FieldFormatError(f"manifest missing key {e}") from None
        parsed = {}
        for key in ("m", "band_lo", "band_hi", "delta"):
            raw = meta.pop(key, "")
            parsed[key] = float(raw) if raw else None
        seed_raw = meta.pop("seed", "")
        parsed["seed"] = int(seed_raw) if seed_raw else None
        rows = []
        with open(prefix + ".csv") as fh:
            header = fh.readline().strip()
            if header != "dir_x,dir_y,dir_z,k,re,im":
                raise FieldFormatError(f"unexpected CSV header {header!r}")
            for line in fh:
                line = line.strip()
                if line:
                    rows.append([float(t) for t in line.split(",")])
        if len(rows) != n_dirs * n_freq:
            raise FieldFormatError(
                f"CSV row count {len(rows)} does not match dirs x freqs = {n_dirs * n_freq}"
            )
        arr = np.asarray(rows)
        dirs = arr[::n_freq, :3]
        freqs = arr[:n_freq, 3]
        values = (arr[:, 4] + 1j * arr[:, 5]).reshape(n_dirs, n_freq)
        return cls(dirs=dirs, freqs=freqs, values=values, kind=kind, meta=parsed)


def _realize(ingredient, seed):
    """Turn None / deterministic field / rough-field spec into a concrete field."""
    if ingredient is None or isinstance(ingredient, (ScalarField, ComplexField)):
        return ingredient, None
    if isinstance(ingredient, Realization):
        return ingredient, ingredient.spec.order
    if isinstance(ingredient, MigrSpec):
        return synthesize_migr(ingredient, seed), ingredient.order
    raise ConfigurationError(
        f"sweep ingredient must be None, a field, a spec, or a realization; got {type(ingredient).__name__}"
    )


def realization_seeds(seed) -> tuple:
    """Seeds of the (source, potential) draws of the realization belonging to a run seed."""
    child = np.random.SeedSequence(int(seed)).generate_state(2, np.uint64)
    return int(child[0]), int(child[1])


def band_sweep(grid, source, potential, frequencies, dirs, mode, seed, *,
               tol=1e-10, max_born_order=20) -> FarFieldSet:
    """Sweep a frequency band under one realization of the randomness.

    Random ingredients (MigrSpec) are drawn exactly once from streams derived
    from the sweep seed and reused at every frequency; per-frequency solves
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
    if len(freqs) > 1:
        d = np.diff(freqs)
        if np.any(d <= 0) or np.max(np.abs(d - d[0])) > 1e-9 * d[0]:
            raise ConfigurationError("sweep frequencies must be strictly increasing and uniform")
        delta = float(d[0])
    else:
        delta = None
    dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    f_seed, q_seed = realization_seeds(seed)
    f_obj, m_f = _realize(source, f_seed)
    q_obj, m_q = _realize(potential, q_seed)
    q_field = _as_field_or_none(q_obj)
    solve_needed = q_field is not None and np.any(q_field.data != 0)
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
                if solve_needed:
                    u = lippmann_schwinger_solve(cfg, op)[0].data
                else:
                    u = np.zeros(grid.dims, dtype=np.complex128)
            except (SolverDivergenceError, SolverConvergenceError) as e:
                raise type(e)(f"{e} ({label} sweep, k={k}{where})") from e
            values[rows, j] = far_field(cfg, u, observed)

    primary_m = m_q if mode == "active-backscatter" and m_q is not None else m_f
    meta = {
        "m": primary_m, "m_f": m_f, "m_q": m_q, "seed": int(seed),
        "band_lo": float(freqs[0] - (delta / 2 if delta else 0.0)),
        "band_hi": float(freqs[-1] + (delta / 2 if delta else 0.0)),
        "delta": delta,
    }
    return FarFieldSet(dirs=dirs, freqs=freqs, values=values, kind=mode, meta=meta)
