"""Frequency-band ergodic estimators and strength reconstruction.

The central object is the band correlation

    4 sqrt(2 pi) (1/K) sum_j w(k_j) conj(u_inf(xhat, k_j)) u_inf(xhat, k_j + s) delta

over the midpoint mesh of [K, 2K), which estimates the transform mu_hat of
the rough strength at tau * xhat. For passive source data the weight is
w = k^m and the shift is s = tau. For active backscatter data the measured
spectrum lives at spatial frequency 2k, so the shift is s = tau/2 and the
weight uses the effective frequency, w = (2k)^m.

``band_correlation`` and its backscatter twin are the one public estimator:
each returns the (direction x tau) array, and both recoveries sample through
them. The ergodic diagnostic reads single bands through the same core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DataCoverageError
from .fields import GridSpec, ScalarField, _padded_ifftn
from .forward import _KIND_FORM, FarFieldSet, _mesh_spacing, _unit_rows

PREFACTOR = 4.0 * math.sqrt(2.0 * math.pi)

_EQUATOR_TOL = 1e-12


def _check_band_terms(n_terms: int, where: str):
    """Raise, naming ``where``, when a band [K, 2K) holds fewer than 16 mesh points."""
    if n_terms < 16:
        raise ConfigurationError(f"{where}: band [K, 2K) holds {n_terms} mesh points; at least 16 required")


def _band_estimates(ff: FarFieldSet, m: float, taus, dir_indices, K: float):
    """Band correlations of ff for every (direction, tau), weighted and shifted per ff.kind.

    Returns the (len(dir_indices), len(taus)) complex values and the number
    of mesh points in [K, 2K). Zero-shift values are formed in real
    arithmetic, so they are exactly real and nonnegative.
    """
    taus = np.asarray(taus, dtype=np.float64).reshape(-1)
    if np.any(taus < 0):
        raise ConfigurationError("tau must be nonnegative")
    scale, half = _KIND_FORM[ff.kind]
    delta = ff.delta
    n_terms = int(round(K / delta))
    if abs(n_terms * delta - K) > 1e-9 * K:
        raise ConfigurationError(
            f"band start K={K} is not an integer multiple of the mesh spacing {delta}"
        )
    _check_band_terms(n_terms, f"band start K={K}")
    shifts = half * taus
    steps = shifts / delta
    off = np.abs(steps - np.round(steps)) > 1e-6
    if np.any(off):
        raise ConfigurationError(
            f"frequency shift {shifts[off][0]} is not a multiple of the mesh spacing {delta}"
        )
    kj = K + (np.arange(n_terms) + 0.5) * delta
    base = ff.freq_indices(kj, what="band")
    shifted = ff.freq_indices(kj[None, :] + shifts[:, None], what="shifted band")
    weights = (scale * kj) ** m
    zero = shifts == 0.0
    out = np.empty((len(dir_indices), len(taus)), dtype=np.complex128)
    # one direction at a time bounds the temporaries to (tau, term)
    for i, d in enumerate(dir_indices):
        row = ff.values[d]
        out[i] = np.sum((np.conj(row[base])[None, :] * row[shifted]) * weights, axis=1)
        out[i, zero] = np.sum(np.abs(row[base]) ** 2 * weights)
    return PREFACTOR * (delta / K) * out, n_terms


def _require_kind(ff: FarFieldSet, kind: str, what: str):
    if ff.kind != kind:
        raise ConfigurationError(f"{what} needs {kind} data, got kind={ff.kind!r}")


def _dir_indices(ff: FarFieldSet, dirs):
    """Indices of the stored directions matching dirs (each within 1e-12); all for None."""
    if dirs is None:
        return list(range(ff.n_dirs))
    return [ff.dir_index(d) for d in np.atleast_2d(np.asarray(dirs, dtype=np.float64))]


def band_correlation(ff: FarFieldSet, m: float, taus, K: float, dirs=None):
    """Passive-data band correlations with weight k^m and shift tau.

    Returns the (directions x tau) complex array, one row per direction of
    ``dirs`` (every data direction for None), and the number of mesh terms
    in [K, 2K). Zero-tau values are real and nonnegative by construction.
    """
    _require_kind(ff, "passive", "band_correlation")
    return _band_estimates(ff, m, taus, _dir_indices(ff, dirs), K)


def backscatter_band_correlation(ff: FarFieldSet, m_q: float, taus, K: float, dirs=None):
    """``band_correlation`` for backscatter data: shift tau/2, weight (2k)^m."""
    _require_kind(ff, "active-backscatter", "backscatter_band_correlation")
    return _band_estimates(ff, m_q, taus, _dir_indices(ff, dirs), K)


def hermitian_complete(dirs, values, normal):
    """Extend hemisphere rows (dir . n >= 0) to the full sphere by conjugate reflection.

    ``values[d]`` holds the samples along ``dirs[d]`` at one shared tau list.
    A row at dir . n > 0 is followed by its mirror row conj(row) at -dir. An
    equatorial row is averaged with the conjugate of its mirror row, which
    must be present. Returns the completed (dirs, values).
    """
    n = _unit_rows(normal, "completion normal")[0]
    dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    values = np.atleast_2d(np.asarray(values, dtype=np.complex128))
    if values.shape[0] != dirs.shape[0]:
        raise ConfigurationError(f"{values.shape[0]} sample rows for {dirs.shape[0]} directions")
    dn = dirs @ n
    if np.any(dn < -_EQUATOR_TOL):
        raise ConfigurationError(
            f"sample direction {tuple(dirs[np.argmin(dn)])} lies in the open negative hemisphere"
        )
    out_dirs, out_values = [], []
    for d, row, h in zip(dirs, values, dn):
        if abs(h) <= _EQUATOR_TOL:
            mirror = np.nonzero(np.max(np.abs(dirs + d), axis=1) <= 1e-9)[0]
            if len(mirror) == 0:
                raise DataCoverageError(
                    f"equatorial direction {tuple(d)} is missing its mirror row"
                )
            out_dirs.append(d)
            out_values.append(0.5 * (row + np.conj(values[mirror[0]])))
        else:
            out_dirs += [d, -d]
            out_values += [row, np.conj(row)]
    return np.array(out_dirs), np.array(out_values)


# ---------------------------------------------------------------------------
# polar lattice -> Cartesian spectrum -> strength field
# ---------------------------------------------------------------------------

def _check_sample_radius(tau: float, grid: GridSpec, where: str):
    """Raise, naming ``where``, unless a polar sample at radius ``tau`` scatters without aliasing.

    The trilinear footprint of a sample reaches one dual cell past its
    radius along each axis, and must stay below the grid Nyquist.
    """
    cell = 2.0 * np.pi / (min(grid.dims) * grid.spacing)
    if not (0 <= tau and tau + cell < grid.nyquist):
        raise ConfigurationError(
            f"{where}: {tau:.4g} is not in [0, {grid.nyquist - cell:.4g}); the scatter reaches one "
            f"dual cell ({cell:.4g}) past a sample's radius, and past the grid Nyquist "
            f"{grid.nyquist:.4g} it would alias"
        )


def _scatter_polar_samples(taus, dirs, values, grid: GridSpec):
    """Trilinear scatter of values[d, t], sampled at taus[t] * dirs[d], onto a box of the dual lattice.

    Per axis, the box holds the lattice indices -a .. a whose frequency lies
    within one dual cell (the largest axis's) of the largest sampled radius:
    every trilinear corner that lands in the coverage ball, and the whole
    ball. A corner at lattice index i sits at box index i + a;
    ``_check_sample_radius`` keeps the box below the grid Nyquist. Corners
    off the box fall outside the ball, where the spectrum is zero, and are
    dropped. Returns the averaged spectrum on the box (zero where nothing
    lands and beyond the ball), its offset -a mod n per axis, the largest
    sampled radius and the fraction of in-ball cells touched.
    """
    dims = grid.dims
    dxi = tuple(2.0 * np.pi / (d * grid.spacing) for d in dims)
    pts = (dirs[:, None, :] * taus[None, :, None]).reshape(-1, 3)
    vals = values.ravel()
    tau_max = float(np.max(taus))
    _check_sample_radius(tau_max, grid, "largest sampled radius")
    reach = tau_max + max(dxi)
    # the frequencies within reach are those of the indices -a .. a
    half = np.array([np.count_nonzero(np.abs(grid.axis_frequencies(a)) <= reach) // 2
                     for a in range(3)])
    shape = tuple(2 * half + 1)
    frac = pts / np.asarray(dxi)[None, :]
    i0 = np.floor(frac).astype(int)
    w = frac - i0
    cells, wgts = [], []
    for corner in range(8):
        off = np.array([(corner >> b) & 1 for b in range(3)])
        wgts.append(np.prod(np.where(off[None, :], w, 1.0 - w), axis=1))
        cells.append(i0 + off[None, :] + half[None, :])
    # corner by corner, each point in order: the order of summation per cell
    cells, wgts = np.concatenate(cells), np.concatenate(wgts)
    kept = np.all((cells >= 0) & (cells < np.asarray(shape)[None, :]), axis=1)
    flat = np.ravel_multi_index(tuple(cells[kept].T), shape)
    wgts, wv = wgts[kept], (wgts * np.tile(vals, 8))[kept]
    size = int(np.prod(shape))
    num = np.empty(size, dtype=np.complex128)
    num.real = np.bincount(flat, wv.real, size)
    num.imag = np.bincount(flat, wv.imag, size)
    den = np.bincount(flat, wgts, size)
    filled = den > 1e-12
    spec = np.zeros(size, dtype=np.complex128)
    spec[filled] = num[filled] / den[filled]
    ball = grid.frequency_magnitude(half).ravel() <= reach
    spec[~ball] = 0.0
    coverage = float(np.count_nonzero(filled & ball)) / max(int(np.count_nonzero(ball)), 1)
    offset = tuple(int(-a % n) for a, n in zip(half, dims))
    return spec.reshape(shape), offset, tau_max, coverage


def _inverse_strength_transform(spec: np.ndarray, offset, grid: GridSpec) -> np.ndarray:
    """Real part of the inverse transform with the (2 pi)^(-3/2) convention, on the grid's x lattice.

    ``spec`` holds the spectrum on the box of the dual lattice that starts
    at ``offset`` and wraps past the end of each axis; it is zero elsewhere.
    """
    dims = grid.dims
    phases = []
    for a in range(3):
        row = np.exp(1j * grid.axis_frequencies(a) * grid.origin[a])
        phases.append(np.roll(row, -offset[a])[: spec.shape[a]])
    block = spec * phases[0][:, None, None] * phases[1][None, :, None] * phases[2][None, None, :]
    dxi3 = np.prod([2.0 * np.pi / (d * grid.spacing) for d in dims])
    mu = _padded_ifftn(block, dims, offset)
    # scaled in place: a second lattice-sized array would cost its page faults
    np.multiply(mu, (2.0 * np.pi) ** -1.5 * dxi3 * grid.n_cells, out=mu)
    # the real part inverts the Hermitian part (spec(xi) + conj spec(-xi)) / 2
    return np.ascontiguousarray(mu.real)


@dataclass(frozen=True)
class RecoveryReport:
    """Reconstructed strength plus error metrics against optional ground truth."""

    taus: np.ndarray                    # (T,)
    dirs: np.ndarray                    # (D, 3) unit vectors
    mu_hat: np.ndarray                  # (D, T): mu_hat[d, t] ~ mu_hat(taus[t] * dirs[d])
    mu_rec: ScalarField                 # nonnegative (clipped) reconstruction
    mu_rec_unclipped: ScalarField
    ground_truth: Optional[ScalarField] = None
    rel_l2_error: Optional[float] = None    # unclipped, over the true support
    metrics: dict = dc_field(default_factory=dict)

    def save(self, prefix):
        from .rsgf import write_field

        prefix = str(prefix)
        write_field(prefix + "_mu.rsgf", self.mu_rec)
        write_field(prefix + "_mu_raw.rsgf", self.mu_rec_unclipped)
        fmt = lambda x: f"{float(x):.17g}"
        # the tau column is formatted once for every direction's block
        taus = ["%.17g" % t for t in self.taus.tolist()]
        with open(prefix + "_samples.csv", "w") as fh:
            fh.write("tau,dir_x,dir_y,dir_z,re,im\n")
            # one block per direction, whose coordinates are formatted once
            for d, row in zip(self.dirs, self.mu_hat):
                line = "%s," + ",".join(fmt(c) for c in d) + ",%.17g,%.17g\n"
                fh.writelines(line % r for r in zip(taus, row.real.tolist(), row.imag.tolist()))
        with open(prefix + "_summary.txt", "w") as fh:
            if self.rel_l2_error is not None:
                fh.write(f"rel_l2_error={fmt(self.rel_l2_error)}\n")
            for key in sorted(self.metrics):
                fh.write(f"{key}={fmt(self.metrics[key])}\n")


def _assemble_report(taus, dirs, values, grid, ground_truth, extra_metrics):
    if ground_truth is not None and ground_truth.grid != grid:
        raise ConfigurationError(
            f"ground truth lies on {ground_truth.grid}, not on the reconstruction grid {grid}")
    spec, offset, tau_max, coverage = _scatter_polar_samples(taus, dirs, values, grid)
    rec = _inverse_strength_transform(spec, offset, grid)
    clipped = np.maximum(rec, 0.0)
    metrics = {
        "tau_max": tau_max,
        "cartesian_coverage": coverage,
        "n_samples": values.size,
    }
    rel = None
    if ground_truth is not None:
        supp = ground_truth.support_mask()
        denom = max(float(np.linalg.norm(ground_truth.data[supp])), 1e-300)
        rel = float(np.linalg.norm((rec - ground_truth.data)[supp])) / denom
        metrics["rel_l2_error_clipped"] = float(
            np.linalg.norm((clipped - ground_truth.data)[supp])
        ) / denom
    metrics.update(extra_metrics)
    return RecoveryReport(
        taus=taus,
        dirs=dirs,
        mu_hat=values,
        mu_rec=ScalarField(grid, clipped),
        mu_rec_unclipped=ScalarField(grid, rec),
        ground_truth=ground_truth,
        rel_l2_error=rel,
        metrics=metrics,
    )


def _select_dirs(ff, dirs, normal_n):
    """The stored data directions to estimate on, and the completion normal or None."""
    chosen = ff.dirs[_dir_indices(ff, dirs)]
    if normal_n is None:
        return chosen, None
    n = _unit_rows(normal_n, "hemisphere mode's separating normal")[0]
    kept = chosen[chosen @ n >= -_EQUATOR_TOL]
    if not len(kept):
        raise ConfigurationError("no data directions lie on the requested hemisphere")
    return kept, n


def _recover_strength(estimate, ff, m, tau_list, dirs, K, normal_n, grid, ground_truth):
    """Samples from ``estimate``, which checks the data kind, then completion and assembly."""
    dirs, n = _select_dirs(ff, dirs, normal_n)
    taus = np.asarray(tau_list, dtype=np.float64).reshape(-1)
    values, n_terms = estimate(ff, m, taus, K, dirs)
    if n is not None:
        dirs, values = hermitian_complete(dirs, values, n)
    return _assemble_report(taus, dirs, values, grid, ground_truth,
                            {"band_lo": K, "order": m, "n_terms": n_terms})


def recover_source_strength(ff: FarFieldSet, m: float, tau_list, dirs, K: float,
                            normal_n=None, *, grid: GridSpec,
                            ground_truth: Optional[ScalarField] = None) -> RecoveryReport:
    """Reconstruct the source rough strength from passive far-field data.

    ``band_correlation`` samples mu_hat on the polar lattice {tau * xhat};
    with a separating normal the estimates are formed on the hemisphere
    xhat . n >= 0 and completed by conjugate reflection, otherwise on the
    full sphere. The samples are scattered onto the Cartesian dual lattice
    and inverse transformed to the real part; negative values are clipped
    after the error metrics are taken on the unclipped field.
    """
    return _recover_strength(band_correlation, ff, m, tau_list, dirs, K, normal_n, grid,
                             ground_truth)


def recover_potential_strength(ff: FarFieldSet, m_q: float, tau_list, dirs, K: float,
                               normal_n=None, *, grid: GridSpec,
                               ground_truth: Optional[ScalarField] = None) -> RecoveryReport:
    """Reconstruct the potential rough strength from active backscatter data.

    Identical assembly to the source branch, with the samples from
    ``backscatter_band_correlation`` (k + tau/2 data shift, (2k)^m weight).
    """
    return _recover_strength(backscatter_band_correlation, ff, m_q, tau_list, dirs, K,
                             normal_n, grid, ground_truth)


# ---------------------------------------------------------------------------
# near-field second moment
# ---------------------------------------------------------------------------

def nearfield_second_moment(samples, m: float) -> float:
    """Band average (1/(K-1)) sum_j k_j^(1+m) |u_sc(x, k_j)|^2 delta over [1, K].

    ``samples`` is a sequence of (k, complex scattered value) on a uniform
    midpoint mesh of [1, K]. In 3-D, k^m E|u(x, k)|^2 tends to
    int mu(y) / (16 pi^2 |x - y|^2) dy, so the average grows like K/2 times
    that integral, and its ratio to the Newtonian potential depends on K and
    on the probe (0.27-0.40 per probe at K = 60): it is no universal constant.
    Criterion 5 compares the probe-averaged ratio of two configurations that
    share the band and the probe offsets from their strength's centre.
    """
    pts = sorted((float(k), complex(v)) for k, v in samples)
    if len(pts) < 2:
        raise DataCoverageError("near-field estimate needs at least 2 mesh points")
    ks = np.array([p[0] for p in pts])
    vals = np.array([p[1] for p in pts])
    try:
        delta = _mesh_spacing(ks)
    except ConfigurationError as e:
        # report the points that follow a step longer than the shortest one by half
        d = np.diff(ks)
        raise DataCoverageError(f"near-field {e}", gaps=[float(k) for k in ks[1:][d > 1.5 * d.min()]]) from None
    lo = ks[0] - delta / 2.0
    if abs(lo - 1.0) > 1e-6:
        raise DataCoverageError(f"near-field mesh must start at 1 (midpoints from 1 + delta/2), got {lo}")
    K = ks[-1] + delta / 2.0
    return float(np.sum(ks ** (1.0 + m) * np.abs(vals) ** 2) * delta / (K - 1.0))


# ---------------------------------------------------------------------------
# ergodic convergence diagnostics and synthetic band processes
# ---------------------------------------------------------------------------

MAX_MESH_POINTS = 2 ** 20


def _check_mesh_size(count: float, where: str):
    """Raise, naming ``where``, when a frequency mesh would hold more than MAX_MESH_POINTS points."""
    if not count <= MAX_MESH_POINTS:
        raise ConfigurationError(
            f"{where}: the frequency mesh would hold {count:.4g} points, above the cap of {MAX_MESH_POINTS}")


def midpoint_mesh(k_lo: float, k_hi: float, delta: float) -> np.ndarray:
    """Midpoint frequency mesh covering [k_lo, k_hi] with spacing delta, at most MAX_MESH_POINTS long."""
    where = f"spacing {delta} over [{k_lo}, {k_hi}]"
    if not (np.isfinite(delta) and delta > 0):
        raise ConfigurationError(f"{where}: the mesh spacing must be finite and positive")
    count = (k_hi - k_lo) / delta
    _check_mesh_size(count, where)
    n = int(round(count))
    if n < 1:
        raise ConfigurationError("empty frequency mesh")
    return k_lo + (np.arange(n) + 0.5) * delta


@dataclass(frozen=True)
class IndependentPowerLawProcess:
    """Synthetic far-field values, independent complex Gaussians per mesh point.

    E[conj(u(k)) u(k)] = c0 * k^(-m); distinct mesh points are independent.
    """

    c0: float
    m: float

    def draw(self, seed, freqs):
        rng = np.random.default_rng(seed)
        z = (rng.standard_normal(len(freqs)) + 1j * rng.standard_normal(len(freqs))) / np.sqrt(2.0)
        return np.sqrt(self.c0) * np.asarray(freqs, float) ** (-self.m / 2.0) * z


def make_farfield_set(dirs, freqs, values, kind="passive", **meta) -> FarFieldSet:
    """Assemble a FarFieldSet from raw arrays (synthetic data entry point)."""
    return FarFieldSet(dirs=np.atleast_2d(dirs), freqs=freqs, values=np.atleast_2d(values),
                       kind=kind, meta={"m": None, "seed": None, **meta})


@dataclass(frozen=True)
class BandDiagnostic:
    band_lo: float
    delta: float
    n_terms: int
    spread: float
    n_rep: int


_DIAG_DIR = (0.0, 0.0, 1.0)


def _check_repetitions(n_rep: int):
    """Raise unless the ergodic diagnostic has at least 2 repetitions per band."""
    if n_rep < 2:
        raise ConfigurationError(f"ergodic diagnostic needs n_rep >= 2 repetitions, got {n_rep}")


def ergodic_diagnostic(source, m: float, tau: float, bands, *, n_rep: int = 50,
                       seed0: int = 0, known_mean=None) -> list:
    """Convergence profile of the band estimator across bands.

    With a resampleable synthetic process (an object with ``draw(seed, freqs)``)
    the spread is the RMS deviation of the estimate from its known mean over
    n_rep fresh repetitions per band. With a FarFieldSet the bands are read
    from the single realization at its first direction with the weight and
    shift of the data's kind, each band's spacing must equal the data's, and
    every row carries the spread of the per-band estimates across the
    disjoint bands (diagnostic only, no pass/fail).
    """
    if len(bands) < 3:
        raise ConfigurationError("ergodic diagnostic needs at least 3 bands")
    if isinstance(source, FarFieldSet):
        estimates, terms = [], []
        for K, delta in bands:
            if abs(delta - source.delta) > 1e-9 * delta:
                raise ConfigurationError(
                    f"band starting at {K} has spacing {delta}, but the data spacing "
                    f"is {source.delta}; the band estimate uses the data mesh"
                )
            values, n_terms = _band_estimates(source, m, [tau], [0], K)
            estimates.append(values[0, 0])
            terms.append(n_terms)
        spread = float(np.std(np.asarray(estimates)))
        return [
            BandDiagnostic(float(K), float(delta), n_terms, spread, 1)
            for (K, delta), n_terms in zip(bands, terms)
        ]
    _check_repetitions(n_rep)
    out = []
    for K, delta in bands:
        freqs = midpoint_mesh(K, 2.0 * K + tau, delta)
        # one row per repetition, all along the same direction
        draws = np.array([source.draw(seed0 + r, freqs) for r in range(n_rep)])
        ff = make_farfield_set(np.tile(_DIAG_DIR, (n_rep, 1)), freqs, draws, kind="passive")
        values, n_terms = _band_estimates(ff, m, [tau], range(n_rep), K)
        ests = values[:, 0]
        center = known_mean if known_mean is not None else np.mean(ests)
        devs = np.abs(ests - center)
        out.append(
            BandDiagnostic(float(K), float(delta), n_terms,
                           float(np.sqrt(np.mean(devs ** 2))), n_rep)
        )
    return out
