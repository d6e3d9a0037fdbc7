import numpy as np
import pytest

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


def test_covariance_zero_outside_support(bump_spec):
    pair = ((0.8, 0.8, 0.8), (-0.8, 0.8, 0.8))
    est = empirical_covariance(bump_spec, [pair], 50, 3)[0]
    assert est.value == 0.0 and est.std_error == 0.0


def test_covariance_point_validation(bump_spec):
    with pytest.raises(ConfigurationError):
        empirical_covariance(bump_spec, [((3.0, 0, 0), (0, 0, 0))], 10, 0)
    with pytest.raises(ConfigurationError):
        empirical_covariance(bump_spec, [((0, 0, 0), (0.1, 0, 0))], 1, 0)


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


def test_imag_residue_guard(bump_spec):
    # the synthesis path must keep the imaginary residue far below threshold
    r = synthesize_migr(bump_spec, 17)
    assert np.all(np.isreal(r.field.data))
