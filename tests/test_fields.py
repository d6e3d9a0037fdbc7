import numpy as np
import pytest
import scipy.fft as sp_fft

from rscat import ComplexField, ConfigurationError, GridSpec, ScalarField
from rscat import fields
from rscat.fields import (_cropped_ifftn, _even_lattice, _even_product, _even_spectrum, _irfftn, _rfftn,
                         _support_box)


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
    g = GridSpec(dims=(8, 16, 32), origin=(0, 0, 0), spacing=0.25)
    for a in range(3):
        assert np.max(np.abs(g.axis_frequencies(a))) == g.nyquist == np.pi / 0.25


def test_fft_constant_concentrates_at_dc():
    g = GridSpec(dims=(8, 8, 8), origin=(0, 0, 0), spacing=1.0)
    spec = _rfftn(np.ones(g.dims))
    assert spec.shape == (8, 8, 5)
    assert abs(spec[0, 0, 0] - np.sqrt(8 ** 3)) < 1e-12
    rest = spec.copy()
    rest[0, 0, 0] = 0
    assert np.max(np.abs(rest)) < 1e-12


def test_fft_plane_wave_single_bin(grid16):
    # the cosine's mirror bin has last-axis index -5, outside the half lattice
    xs, ys, zs = grid16.coords()
    n = (3, 14, 5)
    fx = [grid16.axis_frequencies(a) for a in range(3)]
    xi = (fx[0][n[0]], fx[1][n[1]], fx[2][n[2]])
    wave = np.cos(xi[0] * xs[:, None, None] + xi[1] * ys[None, :, None] + xi[2] * zs[None, None, :])
    spec = _rfftn(wave)
    peak = abs(spec[n])
    assert np.isclose(peak, np.sqrt(grid16.n_cells) / 2, rtol=1e-12)
    spec[n] = 0
    assert np.max(np.abs(spec)) <= 1e-10 * peak


def test_fft_roundtrip_and_parseval(rng):
    g = GridSpec(dims=(8, 16, 32), origin=(0, 0, 0), spacing=0.1)
    data = rng.standard_normal(g.dims)
    spec = _rfftn(data)
    assert spec.shape == (8, 16, 17)
    # _irfftn overwrites its input; Parseval below reads the forward spectrum
    assert np.linalg.norm(_irfftn(spec.copy(), g.dims) - data) <= 1e-12 * np.linalg.norm(data)
    # interior planes of the half lattice's last axis stand for their mirrors too
    weight = np.full(17, 2.0)
    weight[[0, -1]] = 1.0
    assert abs(np.sum(weight * np.abs(spec) ** 2) - np.sum(data ** 2)) <= 1e-12 * np.sum(data ** 2)


def test_spectral_shift_matches_cyclic_roll(grid16, rng):
    # the half lattice is laid out in axis_frequencies order, last axis cut at n/2
    data = rng.standard_normal(grid16.dims)
    shift = (2, 5, 11)
    a = np.asarray(shift) * grid16.spacing
    fx, fy, fz = (grid16.axis_frequencies(i) for i in range(3))
    fz = fz[: grid16.dims[2] // 2 + 1]
    phase = np.exp(1j * (fx[:, None, None] * a[0] + fy[None, :, None] * a[1] + fz[None, None, :] * a[2]))
    rolled = _irfftn(_rfftn(data) * phase, grid16.dims)
    expected = np.roll(data, tuple(-s for s in shift), axis=(0, 1, 2))
    assert np.max(np.abs(rolled - expected)) < 1e-12 * np.max(np.abs(data))


@pytest.mark.parametrize("keep", [
    (slice(1, 5), slice(9, 15), slice(3, 28)),
    (np.array([0, 3, 4, 7]), np.array([6]), np.array([0, 1, 5, 17, 30, 31])),
    (slice(2, 7), np.array([0, 15]), np.array([9])),
], ids=["box", "index-arrays", "mixed"])
def test_inverse_onto_a_selection_is_the_gather_of_the_whole_inverse(rng, keep):
    dims = (8, 16, 32)
    half = _rfftn(rng.standard_normal(dims))
    whole = _irfftn(half.copy(), dims)
    picks = [np.arange(n)[k] for k, n in zip(keep, dims)]
    assert _irfftn(half, dims, keep).tobytes() == whole[np.ix_(*picks)].tobytes()


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


@pytest.mark.parametrize("kind", [ScalarField, ComplexField])
def test_box_data_is_the_support_crop(grid16, rng, kind):
    data = np.zeros(grid16.dims, dtype=complex if kind is ComplexField else float)
    data[3:9, 5, 7:12] = 1.0 + rng.random((6, 5))
    if kind is ComplexField:
        data[4, 10, 9] = 2j
    f = kind(grid16, data)
    got = f.box_data
    assert np.array_equal(got, data[tuple(slice(lo, hi + 1) for lo, hi in f.support_box)])
    assert got.dtype == f.data.dtype and got.flags.c_contiguous and not got.flags.writeable
    assert f.box_data is got
    assert kind(grid16, np.zeros(grid16.dims)).box_data is None


@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
def test_even_spectrum_mirrors_its_dct_octant(complex_data):
    # non-cubic octants with m = 1 on axis 0 and then on axis 1: the block
    # copies, read on the whole lattice through the product helper, give the
    # bytes of the index gather min(j, 2m - j), and the DFT of the even extension
    rng = np.random.default_rng(7)
    for ms in ((1, 4, 3), (4, 1, 3)):
        octant = rng.standard_normal(tuple(m + 1 for m in ms))
        if complex_data:
            octant = octant + 1j * rng.standard_normal(octant.shape)
        got = _even_spectrum(octant)
        lattice = tuple(2 * m for m in ms)
        assert got.dtype == octant.dtype and got.shape == (ms[0] + 1,) + lattice[1:]
        assert _even_lattice(got) == lattice
        full = np.ones(lattice, dtype=octant.dtype)
        _even_product(full, got, full)
        idx = [np.minimum(np.arange(2 * m), 2 * m - np.arange(2 * m)) for m in ms]
        assert np.array_equal(full, sp_fft.dctn(octant, type=1)[np.ix_(*idx)])
        even = octant[np.ix_(*idx)]
        assert np.allclose(full, np.fft.fftn(even), rtol=0, atol=1e-12 * np.max(np.abs(full)))


@pytest.mark.parametrize("slab_bytes", [1, 3 * 16 * 12 * 16, 2 ** 20], ids=["one", "three", "all"])
def test_read_only_spectrum_inverts_slab_by_slab_to_the_in_place_bytes(monkeypatch, slab_bytes):
    # slabs of one, of three (the last one short) and of all ten axis-1 columns
    rng = np.random.default_rng(9)
    half = _even_spectrum(rng.standard_normal((7, 6, 9)) + 1j * rng.standard_normal((7, 6, 9)))
    spec = rng.standard_normal((12, 10, 16)) + 1j * rng.standard_normal((12, 10, 16))
    dims = (6, 5, 7)
    want = _cropped_ifftn(spec.copy(), dims, half)
    monkeypatch.setattr(fields, "_SLAB_BYTES", slab_bytes)
    frozen = spec.copy()
    frozen.setflags(write=False)
    assert np.array_equal(_cropped_ifftn(frozen, dims, half), want)
    assert np.array_equal(frozen, spec)
