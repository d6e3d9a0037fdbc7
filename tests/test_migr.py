import numpy as np
import pytest

from rscat import migr
from rscat import (ConfigurationError, GridSpec, MigrSpec, ScalarField,
                   ball_indicator_field, empirical_covariance,
                   gaussian_bump_field, riesz_kernel, spectral_slope,
                   synthesize_migr)


def test_spec_validation(grid16):
    mu = gaussian_bump_field(grid16, (0, 0, 0), 1.0, 0.14, cutoff_radii=3.0)
    for bad_m in (1.0, -2.5, 4.0, 5.0):
        with pytest.raises(ConfigurationError):
            MigrSpec(order=bad_m, strength=mu)
    neg = ScalarField(grid16, -mu.data)
    with pytest.raises(ConfigurationError):
        MigrSpec(order=2.5, strength=neg)
    # collar violation
    wide = ball_indicator_field(grid16, (0, 0, 0), 0.95, 1.0)
    with pytest.raises(ConfigurationError, match="collar"):
        MigrSpec(order=2.5, strength=wide)
    # mean support must stay inside the strength bounding box, on every side
    mean = gaussian_bump_field(grid16, (0.5, 0.5, 0.5), 1.0, 0.1, cutoff_radii=3.0)
    with pytest.raises(ConfigurationError, match="mean"):
        MigrSpec(order=2.5, strength=mu, mean=mean)
    box = np.zeros(grid16.dims)
    box[5:11, 6:10, 4:12] = 1.0
    strength = ScalarField(grid16, box)
    MigrSpec(order=2.5, strength=strength, mean=strength)
    for axis, (lo, hi) in enumerate(((5, 10), (6, 9), (4, 11))):
        for side in (0, 1):
            past = box.copy()
            index = [slice(None)] * 3
            index[axis] = lo - 1 if side == 0 else hi + 1
            past[tuple(index)] = box.take(lo, axis=axis)
            with pytest.raises(ConfigurationError, match="mean support"):
                MigrSpec(order=2.5, strength=strength, mean=ScalarField(grid16, past))


def test_nyquist_resolution_precondition():
    g = GridSpec(dims=(8, 8, 8), origin=(0, 0, 0), spacing=1.0)
    mu = ScalarField(g, np.zeros(g.dims))
    spec = MigrSpec(order=2.5, strength=mu)
    with pytest.raises(ConfigurationError, match="m=2.5"):
        synthesize_migr(spec, 0)


def test_zero_strength_zero_mean_gives_zero_field(grid16):
    spec = MigrSpec(order=2.5, strength=ScalarField(grid16, np.zeros(grid16.dims)))
    r = synthesize_migr(spec, 12345)
    assert np.all(r.field.data == 0.0)


@pytest.mark.parametrize("m", [0.0, 2.5])
def test_all_zero_strength_gives_all_zero_field_and_covariance(grid16, m):
    spec = MigrSpec(order=m, strength=ScalarField(grid16, np.zeros(grid16.dims)))
    r = synthesize_migr(spec, 4)
    assert r.field.data.tobytes() == np.zeros(grid16.dims).tobytes()
    est = empirical_covariance(spec, [((0, 0, 0), (0.1, 0, 0))], 3, 4)[0]
    assert est.value == 0.0 and est.std_error == 0.0


def test_determinism_bit_identical(bump_spec):
    a = synthesize_migr(bump_spec, 99)
    b = synthesize_migr(bump_spec, 99)
    assert a.field.data.tobytes() == b.field.data.tobytes()
    c = synthesize_migr(bump_spec, 100)
    assert c.field.data.tobytes() != a.field.data.tobytes()


def test_support_containment_exact(bump_spec):
    r = synthesize_migr(bump_spec, 7)
    outside = ~bump_spec.strength.support_mask()
    assert np.all(r.field.data[outside] == 0.0)


def test_support_includes_mean(grid16):
    mu = gaussian_bump_field(grid16, (0, 0, 0), 1.0, 0.14, cutoff_radii=3.0)
    mean = gaussian_bump_field(grid16, (0, 0, 0), 0.5, 0.08, cutoff_radii=3.0)
    spec = MigrSpec(order=2.5, strength=mu, mean=mean)
    r = synthesize_migr(spec, 3)
    outside = ~(mu.support_mask() | mean.support_mask())
    assert np.all(r.field.data[outside] == 0.0)


def test_white_noise_case_is_scaled_noise(grid16):
    mu = ball_indicator_field(grid16, (0, 0, 0), 0.55, 1.0)
    spec = MigrSpec(order=0.0, strength=mu)
    r = synthesize_migr(spec, 5)
    inside = mu.support_mask()
    # unit-variance-per-cell noise scaled by h^(-3/2)
    std = np.std(r.field.data[inside])
    expected = grid16.spacing ** -1.5
    assert abs(std / expected - 1.0) < 0.1


def test_ensemble_mean_converges_to_spec_mean(grid16):
    mu = gaussian_bump_field(grid16, (0, 0, 0), 1.0, 0.14, cutoff_radii=3.0)
    mean = gaussian_bump_field(grid16, (0, 0, 0), 0.8, 0.1, cutoff_radii=3.0)
    spec = MigrSpec(order=2.5, strength=mu, mean=mean)
    n = 500
    acc = np.zeros(grid16.dims)
    acc2 = np.zeros(grid16.dims)
    for i in range(n):
        f = synthesize_migr(spec, 10_000 + i).field.data
        acc += f
        acc2 += (f - mean.data) ** 2
    est_mean = acc / n
    est_std = np.sqrt(acc2 / (n - 1))
    err_rms = np.sqrt(np.mean((est_mean - mean.data) ** 2))
    std_rms = np.sqrt(np.mean(est_std ** 2))
    assert err_rms <= 3.0 / np.sqrt(n) * std_rms


def test_covariance_estimates_symmetric_and_scaling(bump_spec, grid16):
    x, y = (0.05, 0.0, 0.0), (-0.05, 0.06, 0.0)
    exy, eyx = empirical_covariance(bump_spec, [(x, y), (y, x)], 300, 21)
    assert abs(exy.value - eyx.value) <= 3.0 * (exy.std_error + eyx.std_error) + 1e-12
    mu2 = ScalarField(grid16, 2.0 * bump_spec.strength.data)
    spec2 = MigrSpec(order=2.5, strength=mu2)
    c1 = empirical_covariance(bump_spec, [(x, y)], 300, 21)[0]
    c2 = empirical_covariance(spec2, [(x, y)], 300, 21)[0]
    assert 1.8 <= c2.value / c1.value <= 2.2


@pytest.mark.parametrize("with_mean", [False, True])
def test_covariance_matches_per_pair_products(grid16, with_mean):
    mu = gaussian_bump_field(grid16, (0, 0, 0), 1.0, 0.14, cutoff_radii=3.0)
    mean = gaussian_bump_field(grid16, (0, 0, 0), 0.5, 0.08, cutoff_radii=3.0) if with_mean else None
    spec = MigrSpec(order=2.5, strength=mu, mean=mean)
    pairs = [((0, 0, 0), (0, 0, 0)), ((0.05, 0, 0), (-0.05, 0.06, 0)),
             ((0.1, -0.1, 0.05), (0, 0.1, -0.1))]
    n, seed0 = 4, 7
    ests = empirical_covariance(spec, pairs, n, seed0)
    # per-pair transcription of the centered products
    prods = np.empty((len(pairs), n))
    for i in range(n):
        f = synthesize_migr(spec, seed0 + i).field.data
        fluct = f - (mean.data if with_mean else 0.0)
        for p, (x, y) in enumerate(pairs):
            prods[p, i] = fluct[grid16.nearest_cell(x)] * fluct[grid16.nearest_cell(y)]
    assert len(ests) == len(pairs)
    # synthesize_migr rounds f = fluct + mean, so with a mean f - mean matches fluct to roundoff
    rel = 1e-12 if with_mean else 0.0
    for est, row in zip(ests, prods):
        assert est.value == pytest.approx(float(np.mean(row)), rel=rel, abs=0.0)
        assert est.std_error == pytest.approx(float(np.std(row, ddof=1) / np.sqrt(n)), rel=rel, abs=0.0)


@pytest.mark.parametrize("n", [2, 3, 9, 130])
def test_covariance_moments_match_the_per_row_form_bytewise(bump_spec, n):
    # one mean and one std along the sample axis give the bytes of a call per pair
    grid = bump_spec.grid
    pairs = [((0, 0, 0), (0, 0, 0)), ((0.05, 0, 0), (-0.05, 0.06, 0)),
             ((0.1, -0.1, 0.05), (0, 0.1, -0.1))]
    ests = empirical_covariance(bump_spec, pairs, n, 11)
    lo = np.array(bump_spec.strength.support_box)[:, 0]
    prods = np.empty((len(pairs), n))
    for i in range(n):
        fluct = migr._fluctuation(bump_spec, 11 + i)
        for p, (x, y) in enumerate(pairs):
            prods[p, i] = (fluct[tuple(grid.nearest_cell(x) - lo)]
                           * fluct[tuple(grid.nearest_cell(y) - lo)])
    got = np.array([(e.value, e.std_error) for e in ests])
    want = np.array([(np.mean(row), np.std(row, ddof=1) / np.sqrt(n)) for row in prods])
    assert got.tobytes() == want.tobytes()


def test_covariance_zero_outside_support(bump_spec):
    pair = ((0.8, 0.8, 0.8), (-0.8, 0.8, 0.8))
    est = empirical_covariance(bump_spec, [pair], 50, 3)[0]
    assert est.value == 0.0 and est.std_error == 0.0


def test_covariance_zero_for_a_pair_with_one_cell_outside_the_box(bump_spec):
    lo, hi = bump_spec.strength.support_box[0]
    grid = bump_spec.grid
    x_in = (0.0, 0.0, 0.0)
    x_out = (grid.axis_coords(0)[hi + 1], 0.0, 0.0)
    near, straddling = empirical_covariance(bump_spec, [(x_in, x_in), (x_in, x_out)], 20, 5)
    assert near.value > 0.0
    assert straddling.value == 0.0 and straddling.std_error == 0.0


def test_covariance_point_validation(bump_spec):
    with pytest.raises(ConfigurationError):
        empirical_covariance(bump_spec, [((3.0, 0, 0), (0, 0, 0))], 10, 0)
    with pytest.raises(ConfigurationError):
        empirical_covariance(bump_spec, [((0, 0, 0), (0.1, 0, 0))], 1, 0)


@pytest.mark.parametrize("count", [0, -3, 60.0, 2.5, True])
def test_sample_count_is_an_integer_number_of_draws(bump_spec, count):
    with pytest.raises(ConfigurationError, match="n_samples"):
        empirical_covariance(bump_spec, [((0, 0, 0), (0.1, 0, 0))], count, 0)
    with pytest.raises(ConfigurationError, match="n_samples"):
        spectral_slope(bump_spec, count, 0)


def test_white_noise_covariance_matches_per_pair_products_bytewise(grid16):
    spec = MigrSpec(order=0.0, strength=ball_indicator_field(grid16, (0, 0, 0), 0.55, 1.0))
    pairs = [((0, 0, 0), (0, 0, 0)), ((0.05, 0, 0), (-0.05, 0.06, 0)),
             ((0.1, -0.1, 0.05), (0, 0.1, -0.1))]
    n, seed0 = 5, 13
    ests = empirical_covariance(spec, pairs, n, seed0)
    prods = np.empty((len(pairs), n))
    for i in range(n):
        f = synthesize_migr(spec, seed0 + i).field.data
        for p, (x, y) in enumerate(pairs):
            prods[p, i] = f[grid16.nearest_cell(x)] * f[grid16.nearest_cell(y)]
    got = np.array([(e.value, e.std_error) for e in ests])
    want = np.array([(np.mean(row), np.std(row, ddof=1) / np.sqrt(n)) for row in prods])
    assert got.tobytes() == want.tobytes()
    assert np.all(got != 0.0)


def test_covariance_of_pairs_sharing_rows_columns_and_planes(bump_spec):
    # cells at the support box's face centres and its centre share rows,
    # columns and planes; the straddling pairs reach one cell past a face
    grid = bump_spec.grid
    (x0, x1), (y0, y1), (z0, z1) = box = bump_spec.strength.support_box
    xm, ym, zm = ((lo + hi) // 2 for lo, hi in box)
    coords = grid.coords()

    def at(*cell):
        return tuple(c[i] for c, i in zip(coords, cell))

    cells = [(x0, ym, zm), (x1, ym, zm), (xm, y0, zm), (xm, y1, zm),
             (xm, ym, z0), (xm, ym, z1), (xm, ym, zm)]
    inside = [(at(*a), at(*b)) for a in cells for b in cells[::2]]
    straddling = [(at(xm, ym, zm), at(x1 + 1, ym, zm)), (at(xm, y0 - 1, zm), at(x0, ym, zm)),
                  (at(xm, ym, z0), at(xm, ym, z1 + 1))]
    n, seed0 = 4, 9
    ests = empirical_covariance(bump_spec, inside + straddling, n, seed0)
    fields = [synthesize_migr(bump_spec, seed0 + i).field.data for i in range(n)]
    prods = np.array([[f[grid.nearest_cell(x)] * f[grid.nearest_cell(y)] for f in fields]
                      for x, y in inside])
    got = np.array([(e.value, e.std_error) for e in ests[: len(inside)]])
    want = np.array([(np.mean(row), np.std(row, ddof=1) / np.sqrt(n)) for row in prods])
    assert got.tobytes() == want.tobytes()
    assert np.all(got != 0.0)
    # +0.0, not the -0.0 a product with a negative fluctuation would give
    zeros = np.array([(e.value, e.std_error) for e in ests[len(inside):]])
    assert zeros.tobytes() == np.zeros_like(zeros).tobytes()


def _orientation_pairs(r_sep):
    bases = [(0, 0, 0), (0.12, 0.06, -0.09), (-0.09, -0.12, 0.06), (0.06, -0.09, 0.12)]
    axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    pairs = []
    for b in bases:
        for d in axes:
            pairs.append((tuple(b[i] - d[i] * r_sep / 2 for i in range(3)),
                          tuple(b[i] + d[i] * r_sep / 2 for i in range(3))))
    return pairs


def test_covariance_matches_riesz_m25(ball_spec32):
    # quick version of the ground-truth comparison (full n=2000 in acceptance)
    h = ball_spec32.grid.spacing
    r = 8 * h  # 0.25
    ests = empirical_covariance(ball_spec32, _orientation_pairs(r), 800, 500)
    est = np.mean([e.value for e in ests])
    target = riesz_kernel(2.5, r)
    assert abs(est / target - 1.0) <= 0.12


def test_spectral_slope_white_noise_flat():
    g = GridSpec.centered(32, 2.0 / 32)
    mu = ball_indicator_field(g, (0, 0, 0), 0.68, 1.0)
    spec = MigrSpec(order=0.0, strength=mu)
    slope, half = spectral_slope(spec, 100, 77)
    assert abs(slope) <= 0.15


@pytest.mark.slow
@pytest.mark.parametrize("m", [2.5, 3.5])
def test_spectral_slope_rough_orders(m):
    g = GridSpec.centered(128, 2.0 / 128)
    mu = ball_indicator_field(g, (0, 0, 0), 0.75, 1.0)
    spec = MigrSpec(order=m, strength=mu)
    slope, half = spectral_slope(spec, 100, 42)
    assert -m - 0.15 <= slope <= -m + 0.15


def test_spectral_slope_needs_bins(grid16):
    # 16^3 leaves no usable radial bins in [nyq/40, nyq/4]
    mu = ball_indicator_field(grid16, (0, 0, 0), 0.55, 1.0)
    spec = MigrSpec(order=2.5, strength=mu)
    with pytest.raises(ConfigurationError, match="bins"):
        spectral_slope(spec, 5, 0)


def _noncubic_strength():
    grid = GridSpec.centered((16, 32, 64), 1.0 / 32)
    return gaussian_bump_field(grid, (0, 0, 0), 1.0, 0.04, cutoff_radii=3.0)


def test_synthesis_matches_full_lattice_reference():
    mu = _noncubic_strength()
    grid, seed = mu.grid, 17
    w = np.random.default_rng(seed).standard_normal(grid.dims) * grid.spacing ** -1.5
    mult = migr._rough_multiplier(grid, 2.5)
    ref = np.sqrt(mu.data) * np.real(np.fft.ifftn(mult * np.fft.fftn(w)))
    got = synthesize_migr(MigrSpec(order=2.5, strength=mu), seed).field.data
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    # m = 0 passes the scaled noise through untouched
    white = synthesize_migr(MigrSpec(order=0.0, strength=mu), seed).field.data
    assert np.array_equal(white, np.sqrt(mu.data) * w)


def _full_lattice_slope(spec, n_samples, seed0, n_bins=12):
    """spectral_slope computed on the full dual lattice with the unitary complex transform."""
    grid = spec.grid
    power = np.zeros(grid.dims)
    for i in range(n_samples):
        power += np.abs(np.fft.fftn(synthesize_migr(spec, seed0 + i).field.data, norm="ortho")) ** 2
    power /= n_samples
    mag = grid.frequency_magnitude()
    lo, hi = grid.nyquist / 40.0, grid.nyquist / 4.0
    sel = (mag >= lo) & (mag <= hi)
    which = np.digitize(mag[sel], np.geomspace(lo, hi, n_bins + 1)) - 1
    xs, ys = [], []
    for b in range(n_bins):
        inb = which == b
        if inb.any():
            xs.append(np.log(np.mean(mag[sel][inb])))
            ys.append(np.log(np.mean(power[sel][inb])))
    A = np.stack([xs, np.ones(len(xs))], axis=1)
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    resid = ys - A @ coef
    s2 = float(resid @ resid) / max(len(xs) - 2, 1)
    sxx = float(np.sum((np.asarray(xs) - np.mean(xs)) ** 2))
    return coef[0], 1.96 * np.sqrt(s2 / sxx)


def test_spectral_slope_matches_full_lattice_reference():
    spec = MigrSpec(order=2.5, strength=_noncubic_strength())
    slope, half = spectral_slope(spec, 6, 3)
    ref_slope, ref_half = _full_lattice_slope(spec, 6, 3)
    assert abs(slope - ref_slope) <= 1e-10 * abs(ref_slope)
    assert abs(half - ref_half) <= 1e-10 * abs(ref_half)


def test_synthesis_builds_filter_once(monkeypatch):
    calls = []
    build = migr._rough_multiplier

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(migr, "_rough_multiplier", counting)
    spec = MigrSpec(order=2.5, strength=_noncubic_strength())
    a = synthesize_migr(spec, 1)
    b = synthesize_migr(spec, 2)
    assert len(calls) == 1
    assert a.field.data.tobytes() != b.field.data.tobytes()


def test_covariance_matches_realization_products_on_noncubic_grid():
    mu = _noncubic_strength()
    grid = mu.grid
    mean = gaussian_bump_field(grid, (0.02, 0, 0), 0.5, 0.03, cutoff_radii=3.0)
    spec = MigrSpec(order=2.5, strength=mu, mean=mean)
    pairs = [((0, 0, 0), (0.03, -0.03, 0.05)), ((-0.05, 0.03, 0), (0.05, 0, -0.03)),
             ((0.02, 0, 0), (0.2, -0.3, 0.9))]
    n, seed0 = 5, 40
    ests = empirical_covariance(spec, pairs, n, seed0)
    fields = [synthesize_migr(spec, seed0 + i).field.data - mean.data for i in range(n)]
    for est, (x, y) in zip(ests, pairs):
        row = np.array([f[grid.nearest_cell(x)] * f[grid.nearest_cell(y)] for f in fields])
        assert abs(est.value - np.mean(row)) <= 1e-12 * np.mean(np.abs(row))
        assert abs(est.std_error - np.std(row, ddof=1) / np.sqrt(n)) <= 1e-12 * np.mean(np.abs(row))
    assert ests[0].value != 0.0 and ests[1].value != 0.0 and ests[2].value == 0.0
