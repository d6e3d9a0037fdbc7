import numpy as np
import pytest

from rscat import (ConfigurationError, GridSpec, OracleError,
                   QuadratureSpec, ScalarField, brute_covariance,
                   direct_farfield, empirical_covariance,
                   gaussian_bump_field, potential_kernel_integral,
                   riesz_kernel)

FOUR_PI = 4.0 * np.pi


def test_quadrature_spec_validation():
    with pytest.raises(ConfigurationError):
        QuadratureSpec(rel_tol=1e-13)
    with pytest.raises(ConfigurationError):
        QuadratureSpec(damping_schedule=(1e-3, 1e-4))
    with pytest.raises(ConfigurationError):
        QuadratureSpec(damping_schedule=(1e-3, 1e-4, 1e-5))  # does not reach 1e-6
    with pytest.raises(ConfigurationError):
        QuadratureSpec(damping_schedule=(1e-4, 1e-3, 1e-6))  # not decreasing


def test_riesz_matches_closed_form_anchor():
    # m = 2 collapses to 1/(4 pi r) via the Dirichlet integral
    for r in (0.15, 0.25, 0.4, 0.5):
        v = riesz_kernel(2.0, r)
        assert abs(v - 1.0 / (FOUR_PI * r)) <= 5e-3 * abs(v)
    assert abs(riesz_kernel(2.0, 0.5) - 1.0 / (2.0 * np.pi)) < 1e-6


def test_riesz_homogeneity():
    for m in (2.25, 2.5, 2.75):
        v1 = riesz_kernel(m, 0.3)
        v2 = riesz_kernel(m, 0.6)
        assert abs(v2 - 2.0 ** (m - 3.0) * v1) <= 2e-6 * abs(v1)


def test_riesz_frozen_reference():
    # regression anchor recorded from the quadrature itself
    assert abs(riesz_kernel(2.5, 1.0) - 0.1269872718684252) < 1e-9


def test_riesz_monotone_in_r():
    rgrid = np.linspace(0.1, 1.5, 20)
    vals = [riesz_kernel(2.5, r) for r in rgrid]
    assert np.all(np.diff(vals) < 0)


def test_riesz_domain_and_failure():
    with pytest.raises(ConfigurationError):
        riesz_kernel(1.5, 0.3)
    with pytest.raises(ConfigurationError):
        riesz_kernel(2.5, -0.1)
    with pytest.raises(OracleError):
        riesz_kernel(3.0, 0.3)  # divergent at the upper endpoint, fails loudly


def _delta_field(grid, cell):
    data = np.zeros(grid.dims)
    data[cell] = 1.0 / grid.cell_volume
    return ScalarField(grid, data)


def test_direct_farfield_delta_and_shift(grid16):
    c = (8, 8, 8)
    f = _delta_field(grid16, c)
    x0 = np.array([grid16.axis_coords(a)[c[a]] for a in range(3)])
    for k in (1.0, 3.7):
        for d in ([1.0, 0, 0], [0, 0.6, 0.8]):
            v = direct_farfield(f, k, d)
            expected = np.exp(-1j * k * np.dot(d, x0)) / FOUR_PI
            assert abs(v - expected) < 1e-13
    # lattice shift multiplies by the corresponding phase
    shifted = _delta_field(grid16, (10, 8, 8))
    a = np.array([2 * grid16.spacing, 0, 0])
    k, d = 2.0, np.array([0.6, 0.8, 0.0])
    assert abs(direct_farfield(shifted, k, d)
               - direct_farfield(f, k, d) * np.exp(-1j * k * d @ a)) < 1e-13


def test_direct_farfield_linearity(grid16, rng):
    f1 = ScalarField(grid16, rng.standard_normal(grid16.dims))
    f2 = ScalarField(grid16, rng.standard_normal(grid16.dims))
    combo = ScalarField(grid16, 2.0 * f1.data - 0.5 * f2.data)
    k, d = 2.5, np.array([0, 0, 1.0])
    v = direct_farfield(combo, k, d)
    assert abs(v - (2.0 * direct_farfield(f1, k, d) - 0.5 * direct_farfield(f2, k, d))) < 1e-12


def test_potential_kernel_examples(grid32):
    zero = ScalarField(grid32, np.zeros(grid32.dims))
    assert potential_kernel_integral(zero, (0.9, 0, 0)) == 0.0
    # unit-mass point source at a cell center: single term mu/|x-z| h^3 = 1/|x-z|
    c = (16, 16, 16)
    f = _delta_field(grid32, c)
    x0 = np.array([grid32.axis_coords(a)[c[a]] for a in range(3)])
    x = x0 + np.array([0.5, 0.0, 0.0])
    assert abs(potential_kernel_integral(f, x) - 1.0 / 0.5) < 1e-12


def test_potential_kernel_point_on_support_centre_raises(grid32):
    c = (16, 16, 16)
    f = _delta_field(grid32, c)
    x0 = np.array([grid32.axis_coords(a)[c[a]] for a in range(3)])
    with pytest.raises(ValueError, match="support cell centre"):
        potential_kernel_integral(f, x0, min_clearance=0.0)


def test_potential_kernel_monopole_limit():
    grid = GridSpec.centered(32, 8.0 / 32)
    s = 0.2
    mu = gaussian_bump_field(grid, (0, 0, 0), 1.0, s, cutoff_radii=4.0)
    mass = float(np.sum(mu.data)) * grid.cell_volume
    x = (2.5, 0.0, 0.0)
    v = potential_kernel_integral(mu, x)
    assert abs(v - mass / 2.5) <= 0.01 * v


def test_potential_kernel_proximity_error(grid32):
    mu = gaussian_bump_field(grid32, (0, 0, 0), 1.0, 0.15, cutoff_radii=3.0)
    with pytest.raises(ConfigurationError):
        potential_kernel_integral(mu, (0.45 + grid32.spacing, 0, 0))


def test_brute_covariance_zero_outside_support(ball_spec32):
    x = (0.8, 0.8, 0.8)
    mean, err = brute_covariance(ball_spec32, x, x, 100, 5)
    assert mean == 0.0 and err == 0.0


def test_brute_covariance_agrees_with_empirical(ball_spec32):
    pairs = [((-0.125, 0, 0), (0.125, 0, 0)),
             ((0, 0, -0.25), (0, 0, 0.25)),
             ((0.125, 0.125, 0), (0.125, -0.125, 0)),
             ((0, 0.25, 0.125), (0, -0.125, 0.125)),
             ((0.25, 0, 0), (-0.125, 0, 0))]
    emp = empirical_covariance(ball_spec32, pairs, 220, 4000)
    for pair, e in zip(pairs, emp):
        bm, bs = brute_covariance(ball_spec32, pair[0], pair[1], 220, 77)
        assert abs(bm - e.value) <= 3.0 * np.sqrt(bs ** 2 + e.std_error ** 2) + 1e-12


def test_brute_covariance_linear_in_strength(grid32):
    from rscat import MigrSpec, ball_indicator_field

    mu1 = ball_indicator_field(grid32, (0, 0, 0), 0.55, 1.0)
    mu2 = ball_indicator_field(grid32, (0, 0, 0), 0.55, 2.0)
    s1 = MigrSpec(order=2.5, strength=mu1)
    s2 = MigrSpec(order=2.5, strength=mu2)
    x, y = (-0.125, 0, 0), (0.125, 0, 0)
    m1, e1 = brute_covariance(s1, x, y, 150, 11)
    m2, e2 = brute_covariance(s2, x, y, 150, 11)
    # same seeds: doubling the strength doubles every product exactly
    assert abs(m2 - 2.0 * m1) <= 3.0 * np.sqrt(4 * e1 ** 2 + e2 ** 2) + 1e-12


def test_brute_covariance_needs_samples(ball_spec32):
    with pytest.raises(ConfigurationError):
        brute_covariance(ball_spec32, (0, 0, 0), (0.1, 0, 0), 50, 0)
