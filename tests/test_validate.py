import numpy as np
import pytest

from rscat import GridSpec, fields, forward, validate
from rscat.cli import run_command

# each certified transform, the far-field sum and the band estimator among
# them, and a mutant of it that each of its checks must reject
_PADDED = validate._padded_fftn
_INVERSE = validate._inverse_strength_transform
_IRFFTN = validate._irfftn
_PLACE = fields._wrap_place
_FARFIELD = forward._farfield_batch
_FOLD = forward._fold
_EVEN = forward._even_spectrum
_PRODUCT = fields._even_product
_BAND = validate.band_correlation


def _flipped_offset(block, padded, offset):
    return _PADDED(block, padded, tuple(-o % p for o, p in zip(offset, padded)))


def _no_origin_phase(spec, offset, grid):
    return _INVERSE(spec, offset, GridSpec(grid.dims, (0.0, 0.0, 0.0), grid.spacing))


def _axis1_rows_shifted(spec, offset, grid):
    # a box's axis-1 rows are placed one index after the ones given
    if spec.shape[1] < grid.dims[1]:
        offset = (offset[0], (offset[1] + 1) % grid.dims[1], offset[2])
    return _INVERSE(spec, offset, grid)


def _short_last_axis(arr, dims):
    return _IRFFTN(arr, tuple(dims[:2]) + (dims[2] - 1,))


def _box_shifted_one_cell(arr, dims, keep=None):
    if keep is not None:
        keep = tuple(slice(k.start + 1, k.stop + 1) for k in keep)
    return _IRFFTN(arr, dims, keep)


def _placement_one_cell_late(arr, axis, size, start):
    return _PLACE(arr, axis, size, (start + 1) % size)


def _no_imaginary_product(g, *args):
    return _FARFIELD(g.real, *args)


def _fold_middle_doubled(a, axis):
    # an odd axis's middle cell is paired with itself and counted twice
    even, odd = _FOLD(a, axis)
    if a.shape[axis] % 2:
        np.moveaxis(even, axis, 0)[0] *= 2
    return even, odd


def _mirror_off_by_one(spec, half, out):
    # axis 0's mirrored lattice rows meet the stored rows [m .. 2], not [m - 1 .. 1]
    m = half.shape[0] - 1
    mirrored = spec[m + 1:] * half[m:1:-1]
    out = _PRODUCT(spec, half, out)
    out[m + 1:] = mirrored
    return out


def _axis1_mirror_off_by_one(octant):
    # axis 1's mirrored half reads the DCT-I entries [m .. 2], not [m - 1 .. 1]
    spec = _EVEN(octant)
    m = octant.shape[1] - 1
    spec[:, m + 1:] = spec[:, m:1:-1].copy()
    return spec


def _kernel_off_centre(octant):
    # the spectrum of the kernel placed one cell along axis 1 from the origin
    spec = _EVEN(octant)
    p = spec.shape[1]
    return spec * np.exp(-2j * np.pi * np.arange(p) / p)[None, :, None]


def _rotated_estimate(ff, *args):
    values, n_terms = _BAND(ff, *args)
    return values * np.exp(0.1j), n_terms


def _amplitude_scaled_estimate(ff, *args):
    # each row scaled by its own data amplitude, so the estimate grows cubically
    values, n_terms = _BAND(ff, *args)
    return values * np.max(np.abs(ff.values), axis=1, keepdims=True), n_terms


MUTANTS = {
    "offset-sign-flipped": (validate, "_padded_fftn", _flipped_offset,
                            validate.check_resolvent_transform_pair),
    "origin-phase-dropped": (validate, "_inverse_strength_transform", _no_origin_phase,
                             validate.check_reconstruction_phase),
    "axis1-rows-shifted": (validate, "_inverse_strength_transform", _axis1_rows_shifted,
                           validate.check_reconstruction_phase),
    "wrong-last-axis-length": (validate, "_irfftn", _short_last_axis,
                               validate.check_real_transform_pair),
    "box-shifted-one-cell": (validate, "_irfftn", _box_shifted_one_cell,
                             validate.check_real_transform_pair),
    "placement-one-cell-late": (fields, "_wrap_place", _placement_one_cell_late,
                                validate.check_resolvent_transform_pair,
                                validate.check_reconstruction_phase),
    "spectrum-mirror-off-by-one": (fields, "_even_product", _mirror_off_by_one,
                                   validate.check_resolvent_symmetry),
    "spectrum-axis1-mirror-off-by-one": (forward, "_even_spectrum", _axis1_mirror_off_by_one,
                                         validate.check_resolvent_symmetry),
    "kernel-off-centre": (forward, "_even_spectrum", _kernel_off_centre,
                          validate.check_resolvent_symmetry),
    "imaginary-product-dropped": (forward, "_farfield_batch", _no_imaginary_product,
                                  validate.check_farfield_dual_path),
    "fold-middle-doubled": (forward, "_fold", _fold_middle_doubled,
                            validate.check_farfield_dual_path),
    "estimate-phase-rotated": (validate, "band_correlation", _rotated_estimate,
                               validate.check_estimator_positivity_scaling),
    "estimate-amplitude-scaled": (validate, "band_correlation", _amplitude_scaled_estimate,
                                  validate.check_estimator_positivity_scaling),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_transform_check_fails_under_its_mutation(monkeypatch, mutant):
    module, name, replacement, *checks = MUTANTS[mutant]
    monkeypatch.setattr(module, name, replacement)
    for check in checks:
        ok, detail = check()
        assert not ok, detail


def _status_lines(out):
    return [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]


def test_validate_cli_passes(capsys):
    assert run_command(["validate"]) == 0
    lines = _status_lines(capsys.readouterr().out)
    assert [line.split()[:2] for line in lines] == [["PASS", name] for name, _ in validate.CHECKS]


def _raising():
    raise FloatingPointError("forced crash")


@pytest.mark.parametrize("broken", [lambda: (False, "forced failure"), _raising],
                         ids=["returns-false", "raises"])
def test_validate_cli_reports_a_failed_check(monkeypatch, capsys, broken):
    target = validate.CHECKS[1][0]
    monkeypatch.setattr(validate, "CHECKS",
                        tuple((name, broken if name == target else fn) for name, fn in validate.CHECKS))
    assert run_command(["validate"]) == 1
    lines = _status_lines(capsys.readouterr().out)
    assert len(lines) == len(validate.CHECKS)
    assert [line.split()[1] for line in lines if line.startswith("FAIL")] == [target]
