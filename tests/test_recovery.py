from types import SimpleNamespace

import numpy as np
import pytest

from rscat import (ConfigurationError, DataCoverageError, GridSpec,
                   IndependentPowerLawProcess, backscatter_band_correlation,
                   band_correlation, direct_farfield, ergodic_diagnostic,
                   gaussian_bump_field, hermitian_complete, make_farfield_set,
                   midpoint_mesh, nearfield_second_moment,
                   recover_potential_strength, recover_source_strength)
from rscat.config import fibonacci_sphere
from rscat.recovery import PREFACTOR, _assemble_report, _scatter_polar_samples

UP = (0.0, 0.0, 1.0)


def _mesh_set(K, n_terms, tau_max, values_fn, kind="passive", dirs=(UP,)):
    delta = K / n_terms
    freqs = midpoint_mesh(K, 2 * K + tau_max, delta)
    vals = np.array([[values_fn(k) for k in freqs] for _ in dirs])
    return make_farfield_set(np.array(dirs), freqs, vals, kind=kind)


def _draws_set(proc, seeds, freqs):
    """One row per draw of proc, all along UP."""
    draws = [proc.draw(seed, freqs) for seed in seeds]
    return make_farfield_set(np.tile(UP, (len(draws), 1)), freqs, draws)


# ----------------------------------------------------------- band correlation

def test_constant_process_returns_prefactor():
    ff = _mesh_set(16.0, 256, 4.0, lambda k: 1.0)
    values, _ = band_correlation(ff, 0.0, [0.0, 0.5, 4.0], 16.0)
    assert np.max(np.abs(values - PREFACTOR)) < 1e-10


def test_powerlaw_process_returns_prefactor():
    m = 2.5
    ff = _mesh_set(16.0, 256, 0.0, lambda k: k ** (-m / 2.0))
    v = band_correlation(ff, m, [0.0], 16.0)[0][0, 0]
    assert abs(v - PREFACTOR) < 1e-6


def test_tau_zero_estimate_real_nonnegative(rng):
    freqs = 8.0 + (np.arange(32) + 0.5) * 0.25
    vals = rng.standard_normal(len(freqs)) + 1j * rng.standard_normal(len(freqs))
    ff = make_farfield_set([UP], freqs, vals[None, :])
    v = band_correlation(ff, 1.0 + rng.random(), [0.0], 8.0)[0][0, 0]
    assert v.imag == 0.0
    assert v.real >= 0.0


def test_power_scaling_exact(rng):
    freqs = 8.0 + (np.arange(35) + 0.5) * 0.25
    vals = rng.standard_normal(len(freqs)) + 1j * rng.standard_normal(len(freqs))
    ff1 = make_farfield_set([UP], freqs, vals[None, :])
    ff3 = make_farfield_set([UP], freqs, 3.0 * vals[None, :])
    tau = 0.5
    v1 = band_correlation(ff1, 0.5, [tau], 8.0)[0][0, 0]
    v3 = band_correlation(ff3, 0.5, [tau], 8.0)[0][0, 0]
    assert abs(v3 - 9.0 * v1) <= 1e-12 * abs(v3)


def test_monte_carlo_mean_matches_oracle():
    # independent complex Gaussian per mesh point, E[conj(u)u] = c0 k^-m
    c0, m, K, n_terms = 0.7, 2.5, 16.0, 512
    proc = IndependentPowerLawProcess(c0, m)
    freqs = midpoint_mesh(K, 2 * K, K / n_terms)
    n_draws = 200
    ff = _draws_set(proc, range(1000, 1000 + n_draws), freqs)
    ests = band_correlation(ff, m, [0.0], K)[0][:, 0].real
    mc_std = np.std(ests, ddof=1) / np.sqrt(n_draws)
    assert abs(np.mean(ests) - PREFACTOR * c0) <= 3.0 * mc_std


def test_band_correlation_validation(rng):
    freqs = 8.0 + (np.arange(32) + 0.5) * 0.25
    vals = np.ones((1, len(freqs)), complex)
    ff = make_farfield_set([UP], freqs, vals)
    with pytest.raises(ConfigurationError, match="multiple"):
        band_correlation(ff, 0.0, [0.37], 8.0)
    with pytest.raises(DataCoverageError) as info:
        band_correlation(ff, 0.0, [4.0], 8.0)  # shifted band leaves the mesh
    assert info.value.gaps == pytest.approx(list(freqs[16:] + 4.0), abs=1e-12)
    short = make_farfield_set([UP], freqs[:8], vals[:, :8])
    with pytest.raises(ConfigurationError, match="16"):
        band_correlation(short, 0.0, [0.0], 2.0)
    with pytest.raises(ConfigurationError, match="not in the data"):
        band_correlation(ff, 0.0, [0.0], 8.0, [(1.0, 0.0, 0.0)])


def test_correlation_reads_the_matched_stored_direction(rng):
    # dir_index matches within 1e-12 per component; the row is read at the stored direction
    stored = np.array([UP, np.full(3, 1.0) / np.sqrt(3.0)])
    freqs = 8.0 + (np.arange(34) + 0.5) * 0.25
    ff = make_farfield_set(stored, freqs, rng.standard_normal((2, len(freqs))) + 0j)
    near = ff.dirs[1] + 0.9e-12
    assert ff.dir_index(near) == 1
    every, _ = band_correlation(ff, 0.0, [0.0, 0.5], 8.0)
    values, _ = band_correlation(ff, 0.0, [0.0, 0.5], 8.0, [near])
    assert np.array_equal(values, every[1:])


@pytest.mark.parametrize("kind", ["passive", "active-backscatter"])
def test_dirs_subset_reads_the_matching_rows(kind, rng):
    twin = band_correlation if kind == "passive" else backscatter_band_correlation
    dirs = np.array([UP, [0.6, 0.0, 0.8], [0.0, -0.8, 0.6]])
    freqs = midpoint_mesh(8.0, 18.0, 0.25)
    vals = rng.standard_normal((3, len(freqs))) + 1j * rng.standard_normal((3, len(freqs)))
    ff = make_farfield_set(dirs, freqs, vals, kind=kind)
    taus = [0.0, 0.5, 1.0, 2.0]
    every, n_terms = twin(ff, 2.5, taus, 8.0)
    assert every.shape == (3, len(taus)) and n_terms == 32
    values, n_sub = twin(ff, 2.5, taus, 8.0, dirs[[2, 0]])
    assert n_sub == n_terms
    assert np.array_equal(values, every[[2, 0]])


@pytest.mark.parametrize("kind", ["passive", "active-backscatter"])
def test_each_twin_rejects_the_other_kind(kind):
    freqs = midpoint_mesh(8.0, 18.0, 0.25)
    ff = make_farfield_set([UP], freqs, np.ones((1, len(freqs)), complex), kind=kind)
    other = backscatter_band_correlation if kind == "passive" else band_correlation
    with pytest.raises(ConfigurationError, match=f"got kind={kind!r}"):
        other(ff, 0.0, [0.0], 8.0)


def test_mesh_refinement_stability():
    # halving delta changes the Monte-Carlo mean by less than its standard error
    c0, m, K = 1.0, 2.5, 16.0
    proc = IndependentPowerLawProcess(c0, m)
    means = []
    errs = []
    for n_terms in (64, 128):
        freqs = midpoint_mesh(K, 2 * K, K / n_terms)
        ff = _draws_set(proc, range(101, 341), freqs)
        ests = band_correlation(ff, m, [0.0], K)[0][:, 0].real
        means.append(np.mean(ests))
        errs.append(np.std(ests, ddof=1) / np.sqrt(len(ests)))
    assert abs(means[0] - means[1]) <= np.hypot(*errs)


@pytest.mark.parametrize("kind", ["passive", "active-backscatter"])
def test_recovery_samples_match_direct_band_sum(kind, grid16):
    # every (direction, tau) sample against 4 sqrt(2 pi) (delta/K) sum_j w(k_j) conj(u(k_j)) u(k_j + s)
    K, delta, m = 8.0, 0.25, 2.5
    taus = [0.0, 0.5, 1.0, 1.5, 2.0]
    dirs = np.array([UP, [0.6, 0.0, 0.8], [0.0, -0.8, 0.6]])
    amps = [(0.3, 1.0), (-0.7, 0.5), (1.1, -0.4)]

    def u(d, k):
        a, b = amps[d]
        return (1.0 + b * np.cos(3.0 * k)) * np.exp(1j * a * k) * k ** (-m / 2.0)

    freqs = midpoint_mesh(K, 2 * K + taus[-1], delta)
    vals = np.array([u(d, freqs) for d in range(3)])
    ff = make_farfield_set(dirs, freqs, vals, kind=kind)
    if kind == "passive":
        report = recover_source_strength(ff, m, taus, None, K, grid=grid16)
        scale, half = 1.0, 1.0
    else:
        report = recover_potential_strength(ff, m, taus, None, K, grid=grid16)
        scale, half = 2.0, 0.5
    assert np.array_equal(report.dirs, dirs) and np.array_equal(report.taus, taus)
    assert report.mu_hat.shape == (3, len(taus))
    twin = band_correlation if kind == "passive" else backscatter_band_correlation
    assert np.array_equal(report.mu_hat, twin(ff, m, taus, K)[0])
    for d in range(3):
        for t, tau in enumerate(taus):
            got = report.mu_hat[d, t]
            want = 0.0
            for j in range(int(K / delta)):
                k = K + (j + 0.5) * delta
                want += (scale * k) ** m * np.conj(u(d, k)) * u(d, k + half * tau)
            want *= PREFACTOR * delta / K
            assert abs(got - want) <= 1e-12 * abs(want)
            if tau == 0.0:
                assert got.imag == 0.0


# --------------------------------------------------------------- backscatter

def test_backscatter_uses_half_shift_and_effective_frequency():
    K, n_terms = 8.0, 64
    delta = K / n_terms
    m_q = 3.5
    # u(k) = (2k)^(-m/2): weights (2k)^m cancel it exactly
    ff = _mesh_set(K, n_terms, 2.0, lambda k: (2 * k) ** (-m_q / 2), kind="active-backscatter")
    v = backscatter_band_correlation(ff, m_q, [0.0], K)[0][0, 0]
    assert abs(v - PREFACTOR) < 1e-6
    with pytest.raises(ConfigurationError):
        backscatter_band_correlation(ff, m_q, [3 * delta], K)  # tau/2 off-mesh


def test_deterministic_born_backscatter_matches_quadrature(grid32):
    # Born-level correlation equals the product of direct-quadrature transforms
    q = gaussian_bump_field(grid32, (0, 0, 0), 0.02, 0.18, cutoff_radii=4.0)
    from rscat import band_sweep

    K, n_terms = 8.0, 32
    delta = K / n_terms
    tau = 8 * delta
    freqs = midpoint_mesh(K, 2 * K + tau / 2, delta)
    dirs = np.array([UP, [0.8, 0.0, 0.6]])
    ff = band_sweep(grid32, None, q, freqs, dirs, "active-backscatter", seed=3, tol=1e-12)
    kj = K + (np.arange(n_terms) + 0.5) * delta
    for i, d in enumerate(dirs):
        row = ff.values[i]
        base = ff.freq_indices(kj)
        shifted = ff.freq_indices(kj + tau / 2)
        corr = np.conj(row[base]) * row[shifted]
        oracle = np.array([
            np.conj(direct_farfield(q, 2 * k, d)) * direct_farfield(q, 2 * k + tau, d)
            for k in kj
        ])
        assert np.max(np.abs(corr - oracle)) <= 0.01 * np.max(np.abs(oracle))


# -------------------------------------------------------- hermitian completion

def test_hermitian_complete_basic():
    n = UP
    v = np.array([[0.3 + 0.7j, -0.2 + 0.1j]])
    dirs, done = hermitian_complete([(0.0, 0.6, 0.8)], v, n)
    assert dirs.tolist() == [[0.0, 0.6, 0.8], [-0.0, -0.6, -0.8]]
    assert np.array_equal(done[0], v[0])
    assert np.array_equal(done[1], np.conj(v[0]))
    # a real row reflects to an identical row
    _, done2 = hermitian_complete([(0.0, 0.6, 0.8)], [[0.5, 0.5]], n)
    assert np.all(done2 == 0.5)


def test_hermitian_complete_equator_averaging():
    n = UP
    a, b = 0.4 + 0.2j, 0.6 - 0.1j
    dirs, done = hermitian_complete([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)], [[a], [b]], n)
    avg = 0.5 * (a + np.conj(b))
    assert dirs.tolist() == [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]
    assert done[0, 0] == avg
    assert done[1, 0] == np.conj(avg)


def test_hermitian_complete_errors():
    n = UP
    with pytest.raises(ConfigurationError, match="hemisphere"):
        hermitian_complete([(0.0, 0.6, -0.8)], [[1.0]], n)
    with pytest.raises(DataCoverageError, match="mirror"):
        hermitian_complete([(1.0, 0.0, 0.0)], [[1.0]], n)
    with pytest.raises(ConfigurationError, match="unit"):
        hermitian_complete([UP], [[1.0]], (0.0, 0.0, 2.0))


def test_completed_samples_have_conjugate_partners(rng):
    dirs = np.array([(0.0, 0.0, 1.0), (0.6, 0.0, 0.8), (0.0, 0.8, 0.6)])
    values = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    out_dirs, completed = hermitian_complete(dirs, values, UP)
    assert completed.shape == (6, 3)
    for d in range(3):
        assert np.array_equal(out_dirs[2 * d], dirs[d])
        assert np.array_equal(out_dirs[2 * d + 1], -dirs[d])
        assert np.array_equal(completed[2 * d], values[d])
        assert np.array_equal(completed[2 * d + 1], np.conj(values[d]))


# ------------------------------------------------------------ hemisphere recovery

HEMI_TAUS = [0.0, 0.5, 1.0, 1.5, 2.0]


def _mirrored_set(rng):
    """Passive data closed under d -> -d, each row at -d the conjugate of the row at d.

    A real source gives such data: its far field at -d is the conjugate of the far
    field at d. Two of the five upper directions lie on the equator z = 0.
    """
    upper = np.array([(0.0, 0.0, 1.0), (0.6, 0.0, 0.8), (0.0, -0.8, 0.6),
                      (0.6, 0.8, 0.0), (0.8, -0.6, 0.0)])
    freqs = midpoint_mesh(8.0, 18.0, 0.25)
    vals = rng.standard_normal((5, len(freqs))) + 1j * rng.standard_normal((5, len(freqs)))
    return make_farfield_set(np.vstack([upper, -upper]), freqs, np.vstack([vals, np.conj(vals)]))


def test_hemisphere_recovery_equals_full_sphere(grid16, rng):
    ff = _mirrored_set(rng)
    full = recover_source_strength(ff, 2.5, HEMI_TAUS, None, 8.0, grid=grid16)
    half = recover_source_strength(ff, 2.5, HEMI_TAUS, None, 8.0, normal_n=(0.0, 0.0, 1.0),
                                   grid=grid16)
    assert half.mu_hat.shape == full.mu_hat.shape
    a, b = half.mu_rec_unclipped.data, full.mu_rec_unclipped.data
    assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


def test_recovery_dirs_subset_equals_subset_data(grid16, rng):
    ff = _mirrored_set(rng)
    rows = [1, 3, 6]
    sub = make_farfield_set(ff.dirs[rows], ff.freqs, ff.values[rows])
    picked = recover_source_strength(ff, 2.5, HEMI_TAUS, ff.dirs[rows], 8.0, grid=grid16)
    alone = recover_source_strength(sub, 2.5, HEMI_TAUS, None, 8.0, grid=grid16)
    assert np.array_equal(picked.dirs, alone.dirs)
    assert np.array_equal(picked.mu_hat, alone.mu_hat)
    assert np.array_equal(picked.mu_rec_unclipped.data, alone.mu_rec_unclipped.data)


def test_hemisphere_normal_errors(grid16, rng):
    ff = _mirrored_set(rng)
    with pytest.raises(ConfigurationError, match="unit"):
        recover_source_strength(ff, 2.5, HEMI_TAUS, None, 8.0, normal_n=(0.0, 0.0, 2.0),
                                grid=grid16)
    upper = make_farfield_set(ff.dirs[:3], ff.freqs, ff.values[:3])
    with pytest.raises(ConfigurationError, match="hemisphere"):
        recover_source_strength(upper, 2.5, HEMI_TAUS, None, 8.0, normal_n=(0.0, 0.0, -1.0),
                                grid=grid16)


# ---------------------------------------------------------------- reconstruction

def test_assembly_recovers_known_transform():
    # exact transform samples of a centered Gaussian strength reconstruct it
    grid = GridSpec.centered(32, 2.0 / 32)
    A, s = 1.0, 0.2
    mu = gaussian_bump_field(grid, (0, 0, 0), A, s, cutoff_radii=4.0)
    from rscat.config import fibonacci_sphere

    dirs = fibonacci_sphere(48)
    taus = np.arange(0, 33) * 0.5
    values = np.tile(A * s ** 3 * np.exp(-s ** 2 * taus ** 2 / 2), (len(dirs), 1))
    report = _assemble_report(taus, dirs, values, grid, mu, {})
    assert report.rel_l2_error <= 0.15


def _whole_lattice_scatter(taus, dirs, values, grid):
    """The trilinear scatter onto the whole dual lattice, the block scatter's reference."""
    dims = grid.dims
    num = np.zeros(dims, dtype=np.complex128)
    den = np.zeros(dims)
    dxi = tuple(2.0 * np.pi / (d * grid.spacing) for d in dims)
    pts = (dirs[:, None, :] * taus[None, :, None]).reshape(-1, 3)
    vals = values.ravel()
    tau_max = float(np.max(taus))
    frac = pts / np.asarray(dxi)[None, :]
    i0 = np.floor(frac).astype(int)
    w = frac - i0
    for corner in range(8):
        off = np.array([(corner >> b) & 1 for b in range(3)])
        wgt = np.prod(np.where(off[None, :], w, 1.0 - w), axis=1)
        ii = (i0 + off[None, :]) % np.asarray(dims)[None, :]
        np.add.at(num, (ii[:, 0], ii[:, 1], ii[:, 2]), wgt * vals)
        np.add.at(den, (ii[:, 0], ii[:, 1], ii[:, 2]), wgt)
    filled = den > 1e-12
    spec = np.zeros(dims, dtype=np.complex128)
    spec[filled] = num[filled] / den[filled]
    ball = grid.frequency_magnitude() <= tau_max + max(dxi)
    spec[~ball] = 0.0
    coverage = float(np.count_nonzero(filled & ball)) / max(int(np.count_nonzero(ball)), 1)
    return spec, tau_max, coverage


def _whole_lattice_inverse(spec, grid):
    """The inverse of a whole-lattice spectrum by one complex ifftn, the block inverse's reference."""
    import scipy.fft

    phases = [np.exp(1j * grid.axis_frequencies(a) * grid.origin[a]) for a in range(3)]
    full = spec * phases[0][:, None, None] * phases[1][None, :, None] * phases[2][None, None, :]
    dxi3 = np.prod([2.0 * np.pi / (d * grid.spacing) for d in grid.dims])
    mu = (2.0 * np.pi) ** -1.5 * dxi3 * grid.n_cells * scipy.fft.ifftn(full)
    return np.ascontiguousarray(mu.real)


def _offcentre_samples(taus, dirs, centre, rng):
    """Noisy transform samples of a Gaussian strength centred at ``centre``."""
    taus = np.asarray(taus, dtype=np.float64)
    exact = 0.008 * np.exp(-0.02 * taus[None, :] ** 2 - 1j * taus[None, :] * (dirs @ centre)[:, None])
    noise = rng.standard_normal(exact.shape) + 1j * rng.standard_normal(exact.shape)
    return exact * (1.0 + 0.3 * noise)


def _just_below_bound(grid):
    # the largest radius _check_sample_radius admits, less one part in 10^9
    return (grid.nyquist - 2.0 * np.pi / (min(grid.dims) * grid.spacing)) * (1.0 - 1e-9)


_NONCUBIC = GridSpec((16, 32, 64), (-0.45, -1.2, -1.9), 0.0625)

# (grid, directions, taus, strength centre); the block's rows span
# -reach..reach per axis, and the last two cases end at the bound
BLOCK_CASES = {
    "criterion-1": (GridSpec.centered(64, 2.0 / 64), fibonacci_sphere(64),
                    np.arange(90) * 2 * 20.0 / 256, (0.0, 0.0, 0.0), (5, 5, 5)),
    "backscatter-demo": (GridSpec.centered(32, 0.0625), fibonacci_sphere(12),
                         np.arange(13) * 0.5, (0.0, 0.0, 0.0), (2, 2, 2)),
    "non-cubic-off-centre": (_NONCUBIC, fibonacci_sphere(20), np.arange(12) * 2.5,
                             (0.15, -0.1, 0.2), (5, 10, 21)),
    "at-the-bound": (_NONCUBIC, fibonacci_sphere(20),
                     np.linspace(0.0, _just_below_bound(_NONCUBIC), 9),
                     (0.15, -0.1, 0.2), (7, 15, 31)),
    "at-the-bound-cubic": (GridSpec.centered(16, 0.125), fibonacci_sphere(16),
                           np.linspace(0.0, _just_below_bound(GridSpec.centered(16, 0.125)), 7),
                           (-0.1, 0.05, 0.1), (7, 7, 7)),
    "single-zero-tau": (_NONCUBIC, fibonacci_sphere(5), np.array([0.0]), (0.0, 0.0, 0.0),
                        (1, 2, 4)),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_block_reconstruction_matches_the_whole_lattice(case):
    grid, dirs, taus, centre, reach = BLOCK_CASES[case]
    values = _offcentre_samples(taus, dirs, np.asarray(centre), np.random.default_rng(27))
    spec, rows, _, _ = _scatter_polar_samples(taus, dirs, values, grid)
    want_rows = [np.sort(np.arange(-r, r + 1) % n) for r, n in zip(reach, grid.dims)]
    assert all(np.array_equal(got, want) for got, want in zip(rows, want_rows))
    assert spec.shape == tuple(len(r) for r in rows)
    whole, tau_max, coverage = _whole_lattice_scatter(taus, dirs, values, grid)
    assert np.all(np.delete(whole.ravel(), np.ravel_multi_index(np.ix_(*rows), grid.dims).ravel()) == 0)
    rec = _whole_lattice_inverse(whole, grid)
    report = _assemble_report(taus, dirs, values, grid, None, {})
    assert report.mu_rec_unclipped.data.tobytes() == rec.tobytes()
    assert report.mu_rec.data.tobytes() == np.maximum(rec, 0.0).tobytes()
    assert report.metrics["tau_max"] == tau_max
    assert report.metrics["cartesian_coverage"] == coverage


def test_recover_source_zero_data(grid16):
    freqs = midpoint_mesh(8.0, 18.0, 0.25)
    ff = make_farfield_set([UP, (0.0, 0.0, -1.0)], freqs,
                           np.zeros((2, len(freqs)), complex))
    report = recover_source_strength(ff, 2.5, [0.0, 0.5, 1.0], None, 8.0, grid=grid16)
    assert np.all(report.mu_rec.data == 0.0)


def test_recover_source_requires_passive(grid16):
    freqs = midpoint_mesh(8.0, 18.0, 0.25)
    ff = make_farfield_set([UP], freqs, np.zeros((1, len(freqs)), complex),
                           kind="active-backscatter")
    with pytest.raises(ConfigurationError, match="passive"):
        recover_source_strength(ff, 2.5, [0.0], None, 8.0, grid=grid16)


def test_recover_potential_requires_active(grid16):
    freqs = midpoint_mesh(8.0, 18.0, 0.25)
    ff = make_farfield_set([UP], freqs, np.zeros((1, len(freqs)), complex))
    with pytest.raises(ConfigurationError, match="active"):
        recover_potential_strength(ff, 3.5, [0.0], None, 8.0, grid=grid16)


def test_recovery_clips_after_metrics(grid16):
    # noisy data can go negative; clipped field must be nonnegative while the
    # reported error is computed on the unclipped reconstruction
    rng = np.random.default_rng(5)
    from rscat.config import fibonacci_sphere

    dirs = fibonacci_sphere(8)
    freqs = midpoint_mesh(8.0, 28.0, 0.25)
    vals = 0.01 * (rng.standard_normal((8, len(freqs)))
                   + 1j * rng.standard_normal((8, len(freqs))))
    ff = make_farfield_set(dirs, freqs, vals)
    mu = gaussian_bump_field(grid16, (0, 0, 0), 1.0, 0.14, cutoff_radii=3.0)
    report = recover_source_strength(ff, 2.5, list(np.arange(0, 25) * 0.5), None, 8.0,
                                     grid=grid16, ground_truth=mu)
    assert np.all(report.mu_rec.data >= 0.0)
    assert np.any(report.mu_rec_unclipped.data < 0.0)
    assert report.rel_l2_error is not None


def test_report_persistence(tmp_path, grid16, rng):
    freqs = midpoint_mesh(8.0, 18.0, 0.25)
    dirs = [UP, (0.6, 0.0, 0.8)]
    vals = rng.standard_normal((2, len(freqs))) + 1j * rng.standard_normal((2, len(freqs)))
    ff = make_farfield_set(dirs, freqs, vals)
    taus = [0.0, 0.5, 1.0]
    report = recover_source_strength(ff, 2.5, taus, None, 8.0, grid=grid16)
    prefix = str(tmp_path / "rec")
    report.save(prefix)
    from rscat import read_field

    mu = read_field(prefix + "_mu.rsgf")
    assert mu.data.tobytes() == report.mu_rec.data.tobytes()
    lines = (tmp_path / "rec_samples.csv").read_text().splitlines()
    assert lines[0] == "tau,dir_x,dir_y,dir_z,re,im"
    assert len(lines) == 1 + report.mu_hat.size
    # direction-major rows read back to the report's arrays exactly
    rows = np.loadtxt(prefix + "_samples.csv", delimiter=",", skiprows=1).reshape(2, 3, 6)
    assert np.array_equal(rows[0, :, 0], report.taus) and np.all(rows[:, :, 0] == rows[0, :, 0])
    assert np.array_equal(rows[:, 0, 1:4], report.dirs) and np.all(rows[:, :, 1:4] == rows[:, :1, 1:4])
    assert np.array_equal(rows[:, :, 4] + 1j * rows[:, :, 5], report.mu_hat)
    summary = (tmp_path / "rec_summary.txt").read_text().splitlines()
    assert "n_terms=32" in summary


def test_report_samples_csv_is_the_per_row_transcription(tmp_path, grid16, rng):
    dirs = np.array([UP, (0.6, 0.0, 0.8), (0.0, -0.8, 0.6)])
    taus = np.array([0.0, 0.5, 1.0, 1.5])
    values = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    values[1, 2] = complex(-0.0, 1e-300)
    report = _assemble_report(taus, dirs, values, grid16, None, {})
    prefix = str(tmp_path / "rec")
    report.save(prefix)
    fmt = lambda x: "%.17g" % x
    want = ["tau,dir_x,dir_y,dir_z,re,im"] + [
        ",".join(fmt(x) for x in (t, *dirs[d], v.real, v.imag))
        for d in range(3) for t, v in zip(taus, values[d])
    ]
    assert open(prefix + "_samples.csv").read().splitlines() == want


# ------------------------------------------------------------------ near field

def test_nearfield_zero_and_unit_cases():
    ks = midpoint_mesh(1.0, 9.0, 0.25)
    zero = [(k, 0.0) for k in ks]
    assert nearfield_second_moment(zero, 2.5) == 0.0
    m = 2.5
    unit = [(k, k ** (-(1.0 + m) / 2.0)) for k in ks]
    assert abs(nearfield_second_moment(unit, m) - 1.0) < 1e-12


def test_nearfield_mesh_validation():
    ks = list(midpoint_mesh(1.0, 9.0, 0.25))
    samples = [(k, 1.0) for k in ks]
    with pytest.raises(DataCoverageError):
        nearfield_second_moment(samples[:-3] + samples[-2:], 0.0)  # gap
    with pytest.raises(DataCoverageError):
        nearfield_second_moment([(k + 1.0, 1.0) for k in ks], 0.0)  # starts at 2


def test_nearfield_gap_is_reported():
    ks = list(midpoint_mesh(1.0, 9.0, 0.25))
    samples = [(k, 1.0) for k in ks]
    with pytest.raises(DataCoverageError, match="uniform") as info:
        nearfield_second_moment(samples[:10] + samples[11:], 0.0)
    assert info.value.gaps == pytest.approx([ks[11]], abs=1e-12)


# ---------------------------------------------------------------- diagnostics

def test_ergodic_zero_and_deterministic():
    bands = [(8.0, 0.25), (16.0, 0.25), (32.0, 0.25)]
    # seed-independent processes: zero ergodic spread by construction
    zero = SimpleNamespace(draw=lambda seed, freqs: np.zeros(len(freqs), dtype=np.complex128))
    rows = ergodic_diagnostic(zero, 0.0, 0.0, bands, n_rep=10, seed0=0, known_mean=0.0)
    assert all(r.spread == 0.0 for r in rows)
    det = SimpleNamespace(draw=lambda seed, freqs: (1.0 / np.asarray(freqs)).astype(np.complex128))
    rows = ergodic_diagnostic(det, 0.0, 0.0, bands, n_rep=10, seed0=0)
    assert all(r.spread <= 1e-12 for r in rows)
    # one repetition has no spread to measure
    for n_rep in (1, 0, -3):
        with pytest.raises(ConfigurationError, match="n_rep"):
            ergodic_diagnostic(zero, 0.0, 0.0, bands, n_rep=n_rep)


def test_midpoint_mesh_is_capped():
    assert len(midpoint_mesh(1.0, 2.0, 2.0 ** -20)) == 2 ** 20
    for delta in (2.0 ** -21, 1e-300, float("nan")):
        with pytest.raises(ConfigurationError, match="cap"):
            midpoint_mesh(1.0, 2.0, delta)


def test_ergodic_inverse_sqrt_law():
    # quadrupling the mesh count in a band halves the RMS deviation (+-30%)
    proc = IndependentPowerLawProcess(1.0, 0.0)
    K = 8.0
    bands = [(K, K / 32), (K, K / 128), (K, K / 512)]
    rows = ergodic_diagnostic(proc, 0.0, 0.0, bands, n_rep=50, seed0=11,
                              known_mean=PREFACTOR)
    for coarse, fine in zip(rows, rows[1:]):
        ratio = fine.spread / coarse.spread
        assert 0.5 * 0.7 <= ratio <= 0.5 * 1.3


def test_ergodic_data_mode_spread(rng):
    freqs = midpoint_mesh(4.0, 72.0, 0.25)
    vals = (rng.standard_normal(len(freqs)) + 1j * rng.standard_normal(len(freqs)))[None, :]
    ff = make_farfield_set([UP], freqs, vals)
    rows = ergodic_diagnostic(ff, 0.0, 0.0, [(4.0, 0.25), (8.0, 0.25), (16.0, 0.25)])
    assert len(rows) == 3
    assert rows[0].spread > 0.0
    with pytest.raises(ConfigurationError):
        ergodic_diagnostic(ff, 0.0, 0.0, [(4.0, 0.25), (8.0, 0.25)])


def test_ergodic_data_mode_uses_backscatter_form(rng):
    freqs = midpoint_mesh(4.0, 72.0, 0.25)
    vals = (rng.standard_normal(len(freqs)) + 1j * rng.standard_normal(len(freqs)))[None, :]
    ff = make_farfield_set([UP], freqs, vals, kind="active-backscatter")
    bands = [(4.0, 0.25), (8.0, 0.25), (16.0, 0.25)]
    m, tau = 2.5, 1.0
    rows = ergodic_diagnostic(ff, m, tau, bands)
    ests = [backscatter_band_correlation(ff, m, [tau], K)[0][0, 0] for K, _ in bands]
    assert [r.n_terms for r in rows] == [16, 32, 64]
    for r in rows:
        assert r.spread == pytest.approx(float(np.std(ests)), rel=1e-12)


def test_ergodic_data_mode_rejects_band_spacing_mismatch(rng):
    freqs = midpoint_mesh(4.0, 72.0, 0.25)
    ff = make_farfield_set([UP], freqs, np.ones((1, len(freqs)), complex))
    with pytest.raises(ConfigurationError, match="spacing"):
        ergodic_diagnostic(ff, 0.0, 0.0, [(8.0, 0.5), (16.0, 0.5), (32.0, 0.5)])


def test_scatter_rejects_aliasing_radii(grid16):
    freqs = midpoint_mesh(30.0, 92.0, 1.0)
    ff = make_farfield_set([UP], freqs, np.ones((1, len(freqs)), complex))
    # grid16 Nyquist is pi/h ~ 25.1 and one dual cell is ~3.1: tau = 30 would
    # wrap around the lattice, and the trilinear scatter of tau = 24 reaches
    # the Nyquist plane
    for tau in (30.0, 24.0):
        with pytest.raises(ConfigurationError, match="alias"):
            recover_source_strength(ff, 2.5, [0.0, tau], None, 30.0, grid=grid16)
