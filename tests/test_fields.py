import numpy as np
import pytest

from rscat import (ComplexField, ConfigurationError, GridSpec, ScalarField,
                   fft_forward, fft_inverse, fractional_laplacian,
                   frequency_lattice)
from rscat.fields import _support_box


def test_grid_rejects_bad_dims():
    with pytest.raises(ConfigurationError):
        GridSpec(dims=(12, 16, 16), origin=(0, 0, 0), spacing=0.1)
    with pytest.raises(ConfigurationError):
        GridSpec(dims=(4, 4, 4), origin=(0, 0, 0), spacing=0.1)
    with pytest.raises(ConfigurationError):
        GridSpec(dims=(16, 16, 16), origin=(0, 0, 0), spacing=-0.1)


def test_axis_frequencies_dft_convention():
    g = GridSpec(dims=(8, 8, 8), origin=(0, 0, 0), spacing=1.0)
    f = g.axis_frequencies(0)
    expected = 2 * np.pi * np.array([0, 1, 2, 3, -4, -3, -2, -1]) / 8.0
    assert np.allclose(f, expected, atol=0, rtol=1e-15)
    # halving the spacing doubles every frequency
    g2 = GridSpec(dims=(8, 8, 8), origin=(0, 0, 0), spacing=0.5)
    assert np.allclose(g2.axis_frequencies(0), 2 * expected, rtol=1e-15)


def test_nyquist_is_max_component():
    g = GridSpec(dims=(8, 8, 8), origin=(0, 0, 0), spacing=0.25)
    lattice = frequency_lattice(g)
    assert np.isclose(np.max(np.abs(lattice)), np.pi / 0.25, rtol=1e-15)
    assert lattice.shape == (8 ** 3, 3)


def test_frequency_lattice_row_major_order():
    g = GridSpec(dims=(8, 8, 8), origin=(0, 0, 0), spacing=1.0)
    lattice = frequency_lattice(g).reshape(8, 8, 8, 3)
    fx = g.axis_frequencies(0)
    assert np.all(lattice[3, 0, 0] == (fx[3], 0, 0))
    assert np.all(lattice[0, 5, 2] == (0, fx[5], fx[2]))


def test_fft_roundtrip_and_parseval(grid16, rng):
    data = rng.standard_normal(grid16.dims) + 1j * rng.standard_normal(grid16.dims)
    f = ComplexField(grid16, data)
    spec = fft_forward(f)
    back = fft_inverse(spec)
    assert np.linalg.norm(back.data - data) <= 1e-12 * np.linalg.norm(data)
    assert abs(np.linalg.norm(spec.data) - np.linalg.norm(data)) <= 1e-12 * np.linalg.norm(data)


def test_fft_constant_concentrates_at_dc():
    g = GridSpec(dims=(8, 8, 8), origin=(0, 0, 0), spacing=1.0)
    spec = fft_forward(ComplexField(g, np.ones(g.dims, dtype=complex)))
    assert abs(spec.data[0, 0, 0] - np.sqrt(8 ** 3)) < 1e-12
    rest = spec.data.copy()
    rest[0, 0, 0] = 0
    assert np.max(np.abs(rest)) < 1e-12


def test_fft_plane_wave_single_bin(grid16):
    xs, ys, zs = grid16.coords()
    n = (3, 14, 5)
    fx = [grid16.axis_frequencies(a) for a in range(3)]
    xi = (fx[0][n[0]], fx[1][n[1]], fx[2][n[2]])
    wave = np.exp(1j * (xi[0] * xs[:, None, None] + xi[1] * ys[None, :, None] + xi[2] * zs[None, None, :]))
    spec = fft_forward(ComplexField(grid16, wave)).data.copy()
    peak = abs(spec[n])
    spec[n] = 0
    assert np.max(np.abs(spec)) <= 1e-10 * peak


def test_spectral_shift_matches_cyclic_roll(grid16, rng):
    data = rng.standard_normal(grid16.dims) + 1j * rng.standard_normal(grid16.dims)
    shift = (2, 5, 11)
    a = np.asarray(shift) * grid16.spacing
    xi = frequency_lattice(grid16).reshape(grid16.dims + (3,))
    spec = fft_forward(ComplexField(grid16, data)).data
    rolled = fft_inverse(ComplexField(grid16, spec * np.exp(1j * (xi @ a)))).data
    expected = np.roll(data, tuple(-s for s in shift), axis=(0, 1, 2))
    assert np.max(np.abs(rolled - expected)) < 1e-12 * np.max(np.abs(data))


def test_fields_immutable_and_validated(grid16):
    f = ScalarField(grid16, np.zeros(grid16.dims))
    with pytest.raises(ValueError):
        f.data[0, 0, 0] = 1.0
    with pytest.raises(ConfigurationError):
        ScalarField(grid16, np.zeros((4, 4, 4)))
    bad = np.zeros(grid16.dims)
    bad[0, 0, 0] = np.nan
    with pytest.raises(ConfigurationError):
        ScalarField(grid16, bad)


def _brute_box(data):
    nz = np.nonzero(data)
    if len(nz[0]) == 0:
        return None
    return tuple((int(i.min()), int(i.max())) for i in nz)


def test_support_box_matches_brute_force(rng):
    g = GridSpec(dims=(8, 16, 32), origin=(0, 0, 0), spacing=0.1)
    cases = [np.zeros(g.dims), np.zeros(g.dims, dtype=complex)]
    for density in (1e-3, 1e-2, 0.2):
        keep = rng.random(g.dims) < density
        real = np.where(keep, rng.standard_normal(g.dims), 0.0)
        cases += [real, real + 1j * np.where(rng.random(g.dims) < density, 1.0, 0.0)]
    for corner in np.ndindex(2, 2, 2):
        data = np.zeros(g.dims)
        data[tuple(c * (n - 1) for c, n in zip(corner, g.dims))] = 1.0
        cases.append(data)
    # complex cells whose real part is zero still count as support
    imag = np.zeros(g.dims, dtype=complex)
    imag[1, 14, 3] = 2j
    imag[5, 2, 30] = -0.5j
    cases.append(imag)
    for data in cases:
        want = _brute_box(data)
        field = (ComplexField if np.iscomplexobj(data) else ScalarField)(g, data)
        assert field.support_box == want
        assert _support_box(data != 0) == want
    assert ComplexField(g, imag).support_box == ((1, 5), (2, 14), (3, 30))


def test_support_box_is_computed_once(grid16):
    data = np.zeros(grid16.dims)
    data[6, 7, 8] = 1.0
    f = ScalarField(grid16, data)
    assert f.support_box is f.support_box == ((6, 6), (7, 7), (8, 8))


def test_fractional_laplacian_plane_wave_eigenvalue(grid16):
    xs, ys, zs = grid16.coords()
    fx = [grid16.axis_frequencies(a) for a in range(3)]
    n = (2, 0, 15)
    xi = np.array([fx[0][n[0]], fx[1][n[1]], fx[2][n[2]]])
    wave = np.exp(1j * (xi[0] * xs[:, None, None] + xi[1] * ys[None, :, None] + xi[2] * zs[None, None, :]))
    for s in (0.5, 0.9):
        out = fractional_laplacian(ComplexField(grid16, wave), s)
        expected = np.linalg.norm(xi) ** s * wave
        assert np.max(np.abs(out.data - expected)) < 1e-10 * np.linalg.norm(xi) ** s


def test_fractional_laplacian_inverse_pair(grid16, rng):
    data = rng.standard_normal(grid16.dims)
    f = ScalarField(grid16, data)
    up = fractional_laplacian(f, 0.7)
    back = fractional_laplacian(up, -0.7)
    # the xi = 0 bin is annihilated in both directions; compare mean-free parts
    centered = data - data.mean()
    assert np.max(np.abs(back.data.real - centered)) < 1e-10
