import gc

import numpy as np
import pytest

from rscat import (ComplexField, ConfigurationError, FarFieldSet,
                   FieldFormatError, GridSpec, MigrSpec, ScalarField,
                   ScatteringConfig,
                   SolverConvergenceError, SolverDivergenceError, band_sweep,
                   direct_farfield, far_field, fundamental_solution,
                   gaussian_bump_field, incident_plane_wave,
                   lippmann_schwinger_solve, make_farfield_set, midpoint_mesh,
                   resolvent_point_values, synthesize_migr)
from rscat import _kernels, forward
from rscat.cli import run_command
from rscat.config import fibonacci_sphere
from rscat.fields import COLLAR, _even_product
from rscat.forward import (ResolventOperator, _box_normal, _farfield_batch,
                           _self_cell_integral, draw_realization)

FOUR_PI = 4.0 * np.pi


# ---------------------------------------------------------------------- kernel

def test_fundamental_solution_values():
    assert abs(fundamental_solution(0.0, 1.0) - 1.0 / FOUR_PI) < 1e-15
    assert abs(fundamental_solution(np.pi, 1.0) - (-1.0 / FOUR_PI)) < 1e-15
    expected = (np.cos(2.0) + 1j * np.sin(2.0)) / (8.0 * np.pi)
    assert abs(fundamental_solution(1.0, 2.0) - expected) < 1e-15
    with pytest.raises(ValueError):
        fundamental_solution(1.0, 0.0)


def _face_cell(grid, axis, high, depth):
    cell = [n // 2 for n in grid.dims]
    cell[axis] = grid.dims[axis] - 1 - depth if high else depth
    return tuple(cell)


def _delta_field(grid, cell):
    data = np.zeros(grid.dims)
    data[cell] = 1.0 / grid.cell_volume
    return ScalarField(grid, data)


def test_resolvent_linearity(grid16, rng):
    shape = grid16.dims
    inner = np.zeros(shape)
    inner[5:11, 5:11, 5:11] = 1.0
    a = ComplexField(grid16, inner * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
    b = ComplexField(grid16, inner * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
    k = 2.0
    combo = ComplexField(grid16, 2.5 * a.data - 1.5j * b.data)
    op = ResolventOperator(grid16, k)
    lhs = op.apply(combo.data)
    rhs = 2.5 * op.apply(a.data) - 1.5j * op.apply(b.data)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))


def test_resolvent_delta_reproduces_kernel(grid16):
    k = 3.0
    c = (8, 8, 8)
    out = ResolventOperator(grid16, k).apply(_delta_field(grid16, c).data)
    for off in ((3, 0, 0), (0, 4, 2), (5, 5, 5), (-6, 2, -3)):
        idx = tuple(c[i] + off[i] for i in range(3))
        r = grid16.spacing * np.linalg.norm(off)
        assert abs(out[idx] - fundamental_solution(k, r)) < 1e-12


def test_resolvent_pde_residual():
    # apply the 7-point discrete (-lap - k^2) to R_k phi and recover phi
    g = GridSpec.centered(64, 4.0 / 64)
    k = 2.0
    assert g.spacing <= (2 * np.pi / k) / 10.0
    phi = gaussian_bump_field(g, (0, 0, 0), 1.0, 0.25, cutoff_radii=3.0)
    u = ResolventOperator(g, k).apply(phi.data.astype(complex))
    h = g.spacing
    lap = (np.roll(u, 1, 0) + np.roll(u, -1, 0) + np.roll(u, 1, 1) + np.roll(u, -1, 1)
           + np.roll(u, 1, 2) + np.roll(u, -1, 2) - 6 * u) / h ** 2
    resid = -lap - k * k * u
    sl = (slice(2, -2),) * 3
    err = np.linalg.norm((resid - phi.data)[sl]) / np.linalg.norm(phi.data[sl])
    assert err <= 0.02


def test_outgoing_phase_advance(grid16):
    k = 4.0
    out = ResolventOperator(grid16, k).apply(_delta_field(grid16, (8, 8, 8)).data)
    for n in (3, 4, 5, 6):
        got = np.angle(out[8 + n, 8, 8])
        expect = np.angle(np.exp(1j * k * n * grid16.spacing))
        assert abs(np.exp(1j * got) - np.exp(1j * expect)) < 1e-10


def _full_padded_block(grid, k, half=None):
    """The kernel weights on the whole even block padded to 2m per axis (m = n by default)."""
    half = grid.dims if half is None else half
    h = grid.spacing
    ax = [np.minimum(np.arange(2 * m), 2 * m - np.arange(2 * m)).astype(float) for m in half]
    r = h * np.sqrt(ax[0][:, None, None] ** 2 + ax[1][None, :, None] ** 2 + ax[2][None, None, :] ** 2)
    r[0, 0, 0] = 1.0
    block = h ** 3 * np.exp(1j * k * r) / (4.0 * np.pi * r)
    block[0, 0, 0] = _self_cell_integral(k, h)
    return block


def _rel(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


NONCUBIC = GridSpec.centered((8, 16, 32), 1.0 / 16)


def _unpruned_apply(grid, k, x):
    """Reference resolvent: the whole input through the 2n-padded convolution."""
    n = grid.dims
    kernel_hat = np.fft.fftn(_full_padded_block(grid, k))
    spec = np.fft.fftn(x, s=tuple(2 * d for d in n), axes=(0, 1, 2))
    return np.fft.ifftn(spec * kernel_hat)[: n[0], : n[1], : n[2]]


def _box_input(rng, box, complex_data):
    x = np.zeros(NONCUBIC.dims)
    inside = tuple(slice(lo, hi + 1) for lo, hi in box)
    x[inside] = rng.standard_normal(x[inside].shape)
    if complex_data:
        x = x + 1j * np.where(x != 0, rng.standard_normal(x.shape), 0.0)
    return x


@pytest.mark.parametrize("k", [0.0, 5.0])
def test_resolvent_spectrum_matches_full_block(k):
    # k = 0 takes the small-k branch of the self-cell integral
    op = ResolventOperator(NONCUBIC, k)
    x = np.zeros(NONCUBIC.dims)
    x[4, 6:9, 10:14] = 1.0
    op.apply(x)
    sized = tuple(p // 2 for p in op.lattice)
    assert all(m < n for m, n in zip(sized, NONCUBIC.dims))
    for half in (sized, NONCUBIC.dims):
        spec = op._spectrum(half)
        assert op.lattice == tuple(2 * m for m in half)
        # the half-stored spectrum on its whole lattice: its product with ones
        full = np.ones(op.lattice, dtype=complex)
        _even_product(full, spec, full)
        assert _rel(full, np.fft.fftn(_full_padded_block(NONCUBIC, k, half))) <= 1e-13


def test_kernel_block_is_the_octant():
    # the table of distinct squared offsets gives the very bytes of a per-cell evaluation
    h = NONCUBIC.spacing
    for k in (0.0, 5.0):
        octant = _kernels.kernel_block(NONCUBIC.dims, h, k, _self_cell_integral(k, h))
        assert octant.shape == (9, 17, 33)
        assert np.array_equal(octant, _full_padded_block(NONCUBIC, k)[:9, :17, :33])


SIZED_BOXES = {
    "off-centre": ((1, 3), (2, 6), (18, 27)),
    "touches-collar": ((2, 5), (COLLAR, 9), (20, 31 - COLLAR)),
    "full-grid": ((0, 7), (0, 15), (0, 31)),
    "one-cell": ((3, 3), (11, 11), (5, 5)),
}


def test_resolvent_apply_matches_unpruned_convolution(rng):
    k = 5.0
    for box in SIZED_BOXES.values():
        for complex_data in (False, True):
            x = _box_input(rng, box, complex_data)
            op = ResolventOperator(NONCUBIC, k)
            got = op.apply(x)
            lattice = op.lattice
            assert all(n <= p <= 2 * n and p % 2 == 0 for p, n in zip(lattice, NONCUBIC.dims))
            assert _rel(got, _unpruned_apply(NONCUBIC, k, x)) <= 1e-13


def test_resolvent_zero_input_returns_zeros():
    op = ResolventOperator(NONCUBIC, 5.0)
    for x in (np.zeros(NONCUBIC.dims), np.zeros(NONCUBIC.dims, dtype=complex)):
        out = op.apply(x)
        assert out.shape == NONCUBIC.dims and out.dtype == np.complex128
        assert not np.any(out)
    assert op._kernel_hat is None


def test_resolvent_spectrum_grows_and_stays_exact(rng):
    k = 5.0
    op = ResolventOperator(NONCUBIC, k)
    small = _box_input(rng, SIZED_BOXES["one-cell"], True)
    # needs a larger m than ``small`` on axes 0 and 1 but a smaller one on axis 2
    large = _box_input(rng, ((1, 3), (2, 6), (12, 19)), True)
    op.apply(small)
    first = op.lattice
    assert _rel(op.apply(large), _unpruned_apply(NONCUBIC, k, large)) <= 1e-13
    grown = op._kernel_hat
    assert all(g >= f for g, f in zip(op.lattice, first)) and op.lattice != first
    # a smaller input reuses the grown spectrum
    assert _rel(op.apply(small), _unpruned_apply(NONCUBIC, k, small)) <= 1e-13
    assert op._kernel_hat is grown


def _unpruned_box_apply(grid, k, data, in_box, out_box):
    """Reference box-to-box resolvent: ``data`` put on the whole grid, convolved unpruned, cropped."""
    x = np.zeros(grid.dims, dtype=np.asarray(data).dtype)
    x[tuple(slice(lo, hi + 1) for lo, hi in in_box)] = data
    return _unpruned_apply(grid, k, x)[tuple(slice(lo, hi + 1) for lo, hi in out_box)]


# (input box, output box) pairs on NONCUBIC
BOX_PAIRS = {
    "same-box": (((1, 5), (3, 12), (6, 25)), ((1, 5), (3, 12), (6, 25))),
    # a source box to a separated potential box
    "disjoint": (((1, 3), (2, 5), (4, 9)), ((4, 6), (9, 14), (18, 29))),
    # the input starts before the output box, so its placement wraps
    "overlapping": (((0, 5), (2, 9), (3, 20)), ((2, 7), (5, 15), (10, 31))),
    # without the length guards axis 1 would get P = L_out - 1 = 14
    "one-cell-wider-output": (((4, 4), (7, 7), (15, 15)), ((1, 7), (0, 14), (3, 27))),
    "whole-grid": (((1, 6), (4, 11), (9, 30)), ((0, 7), (0, 15), (0, 31))),
}


@pytest.mark.parametrize("pair", BOX_PAIRS)
def test_resolvent_box_to_box_matches_unpruned_convolution(rng, pair):
    k = 5.0
    in_box, out_box = BOX_PAIRS[pair]
    inside = tuple(slice(lo, hi + 1) for lo, hi in in_box)
    for complex_data in (False, True):
        x = _box_input(rng, in_box, complex_data)
        op = ResolventOperator(NONCUBIC, k)
        got = op.apply(x[inside], in_box, out_box)
        lattice = op.lattice
        assert all(p % 2 == 0 and p <= 2 * n for p, n in zip(lattice, NONCUBIC.dims))
        assert got.shape == tuple(hi - lo + 1 for lo, hi in out_box)
        assert _rel(got, _unpruned_box_apply(NONCUBIC, k, x[inside], in_box, out_box)) <= 1e-13
        if pair == "whole-grid":
            assert np.array_equal(got, ResolventOperator(NONCUBIC, k).apply(x))


class _UnprunedResolvent(ResolventOperator):
    """The resolvent on the full 2n-padded lattice, as a reference operator."""

    def apply(self, arr, in_box=None, out_box=None):
        whole = tuple((0, n - 1) for n in self.grid.dims)
        return _unpruned_box_apply(self.grid, self.k, arr, in_box or whole, out_box or whole)


def test_backscatter_born_solve_matches_2n_padding(grid32):
    q = gaussian_bump_field(grid32, (0.12, -0.08, 0.2), 3.0, 0.12, cutoff_radii=3.0)
    xhat = np.array([0.6, 0.0, 0.8])
    cfg = ScatteringConfig(grid=grid32, k=4.0, alpha=1, incident_dir=tuple(-xhat),
                           potential=q, tol=1e-12, max_born_order=60)
    u, rep = lippmann_schwinger_solve(cfg)
    ref, ref_rep = lippmann_schwinger_solve(cfg, _UnprunedResolvent(grid32, 4.0))
    assert rep.iterations == ref_rep.iterations > 2
    assert _rel(u.data, ref.data) <= 1e-12
    assert abs(far_field(cfg, u, [xhat])[0] - far_field(cfg, ref, [xhat])[0]) \
        <= 1e-12 * abs(far_field(cfg, ref, [xhat])[0])


def test_resolvent_apply_leaves_input_unchanged(rng):
    op = ResolventOperator(NONCUBIC, 5.0)
    real = rng.standard_normal(NONCUBIC.dims)
    for x in (real, real + 1j * rng.standard_normal(NONCUBIC.dims)):
        before = x.copy()
        op.apply(x)
        assert x.tobytes() == before.tobytes()


# ----------------------------------------------------------------- plane wave

def test_incident_plane_wave(grid16):
    k = np.pi
    d = (1.0, 0.0, 0.0)
    w = incident_plane_wave(k, d, grid16).data
    assert np.max(np.abs(np.abs(w) - 1.0)) < 1e-13
    xs = grid16.axis_coords(0)
    i1 = int(np.argmin(np.abs(xs - 0.0)))  # no cell exactly at 0 on the centered grid
    expected = np.exp(1j * k * xs[i1])
    assert abs(w[i1, 0, 0] - expected) < 1e-13
    with pytest.raises(ConfigurationError):
        incident_plane_wave(k, (1.0, 1.0, 0.0), grid16)


# ------------------------------------------------------------- config guards

@pytest.mark.parametrize("k", [np.nan, np.inf])
def test_non_finite_frequency_rejected(grid16, k):
    x = np.zeros(grid16.dims)
    x[8, 8, 8] = 1.0
    with pytest.raises(ConfigurationError, match="finite"):
        ResolventOperator(grid16, k).apply(x)
    with pytest.raises(ConfigurationError, match="finite"):
        ScatteringConfig(grid=grid16, k=k, source=ScalarField(grid16, x))


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_non_finite_tolerance_rejected(grid16, tol):
    with pytest.raises(ConfigurationError, match="finite"):
        ScatteringConfig(grid=grid16, k=2.0, tol=tol)


@pytest.mark.parametrize("order", [2.5, 3.0, True, "3", None])
def test_non_integer_born_order_rejected(grid16, order):
    with pytest.raises(ConfigurationError, match="max_born_order must be an integer"):
        ScatteringConfig(grid=grid16, k=2.0, max_born_order=order)
    assert ScatteringConfig(grid=grid16, k=2.0, max_born_order=np.int64(3)).max_born_order == 3


@pytest.mark.parametrize("which", ["source", "potential"])
@pytest.mark.parametrize("axis,high", [(a, h) for a in range(3) for h in (False, True)])
def test_config_collar_guard(grid16, which, axis, high):
    for depth, violates in ((COLLAR - 1, True), (COLLAR, False)):
        data = np.zeros(grid16.dims)
        data[_face_cell(grid16, axis, high, depth)] = 1.0
        kwargs = {which: ScalarField(grid16, data)}
        if violates:
            with pytest.raises(ConfigurationError, match="collar"):
                ScatteringConfig(grid=grid16, k=2.0, **kwargs)
        else:
            ScatteringConfig(grid=grid16, k=2.0, **kwargs)


@pytest.mark.parametrize("which", ["source", "potential"])
def test_config_keeps_the_box_data(grid16, bump_spec, which):
    bump = gaussian_bump_field(grid16, (0, 0, 0), 1.0, 0.15, cutoff_radii=3.0)
    real = synthesize_migr(bump_spec, 3)
    for fld, field in ((bump, bump), (real, real.field)):
        cfg = ScatteringConfig(grid=grid16, k=2.0, **{which: fld})
        assert getattr(cfg, f"_{which}_data") is field.box_data
        assert getattr(cfg, f"_{which}_box") == field.support_box


@pytest.mark.parametrize("which", ["source", "potential"])
def test_config_rejects_other_grid(grid16, grid32, which):
    fld = gaussian_bump_field(grid32, (0, 0, 0), 1.0, 0.15, cutoff_radii=3.0)
    with pytest.raises(ConfigurationError, match="different grid"):
        ScatteringConfig(grid=grid16, k=2.0, **{which: fld})


# --------------------------------------------------------------------- solver

@pytest.mark.parametrize("k_op,grid_op", [(5.0, "grid16"), (3.0, "grid32")])
def test_solver_rejects_mismatched_operator(grid16, request, k_op, grid_op):
    q = gaussian_bump_field(grid16, (0, 0, 0), 0.3, 0.14, cutoff_radii=3.0)
    cfg = ScatteringConfig(grid=grid16, k=3.0, alpha=1, incident_dir=(0, 0, 1.0), potential=q)
    op = ResolventOperator(request.getfixturevalue(grid_op), k_op)
    with pytest.raises(ConfigurationError, match="does not match"):
        lippmann_schwinger_solve(cfg, op)


@pytest.mark.parametrize("where, error", [
    ("inside-q-box", "does not hold the potential's support box"),
    ("past-grid", "leaves the grid"),
    ("q-box", None),
])
def test_solver_checks_its_output_box(grid16, where, error):
    q = gaussian_bump_field(grid16, (0, 0, 0), 0.3, 0.14, cutoff_radii=3.0)
    cfg = ScatteringConfig(grid=grid16, k=3.0, alpha=1, incident_dir=(0, 0, 1.0), potential=q)
    box = {"inside-q-box": tuple((lo + 1, hi - 1) for lo, hi in q.support_box),
           "past-grid": tuple((-2, hi) for _, hi in q.support_box),
           "q-box": q.support_box}[where]
    if error is not None:
        with pytest.raises(ConfigurationError, match=error):
            lippmann_schwinger_solve(cfg, None, box)
        return
    u, _ = lippmann_schwinger_solve(cfg, None, box)
    whole = lippmann_schwinger_solve(cfg)[0].data[tuple(slice(lo, hi + 1) for lo, hi in box)]
    assert np.max(np.abs(u - whole)) <= 1e-12 * np.max(np.abs(whole))


def test_solver_truncates_for_zero_potential(grid16):
    f = gaussian_bump_field(grid16, (0, 0, 0), 1.0, 0.15, cutoff_radii=3.0)
    cfg = ScatteringConfig(grid=grid16, k=3.0, source=f)
    u, rep = lippmann_schwinger_solve(cfg)
    assert rep.update_norms[-1] <= 1e-14
    direct = ResolventOperator(grid16, 3.0).apply(f.data.astype(complex))
    assert np.max(np.abs(u.data - direct)) == 0.0


def test_solver_zero_rhs(grid16):
    cfg = ScatteringConfig(grid=grid16, k=2.0, alpha=0)
    u, rep = lippmann_schwinger_solve(cfg)
    assert np.all(u.data == 0.0) and rep.iterations == 1


def test_solver_fixed_point_residual(grid32):
    q = gaussian_bump_field(grid32, (0, 0, 0), 3.0, 0.15, cutoff_radii=3.0)
    cfg = ScatteringConfig(grid=grid32, k=4.0, alpha=1, incident_dir=(0, 0, 1.0),
                           potential=q, tol=1e-10, max_born_order=60)
    u, rep = lippmann_schwinger_solve(cfg)
    op = ResolventOperator(grid32, 4.0)
    u_in = incident_plane_wave(4.0, (0, 0, 1.0), grid32).data
    rhs = op.apply(q.data * u_in)
    resid = np.linalg.norm(u.data - rhs - op.apply(q.data * u.data)) / np.linalg.norm(u.data)
    assert resid <= 1e-8
    assert rep.contraction is not None and rep.contraction < 1.0


def test_solver_divergence_detected(grid16):
    q = gaussian_bump_field(grid16, (0, 0, 0), 500.0, 0.16, cutoff_radii=3.0)
    cfg = ScatteringConfig(grid=grid16, k=1.5, alpha=1, incident_dir=(0, 0, 1.0),
                           potential=q, max_born_order=30)
    with pytest.raises(SolverDivergenceError):
        lippmann_schwinger_solve(cfg)


def test_solver_budget_exhaustion(grid16):
    q = gaussian_bump_field(grid16, (0, 0, 0), 6.0, 0.16, cutoff_radii=3.0)
    cfg = ScatteringConfig(grid=grid16, k=3.0, alpha=1, incident_dir=(0, 0, 1.0),
                           potential=q, tol=1e-12, max_born_order=2)
    with pytest.raises(SolverConvergenceError) as e:
        lippmann_schwinger_solve(cfg)
    assert e.value.residual is not None and e.value.residual > 1e-12


# --------------------------------------------------------- source-spectrum memo

def _memo_spec(grid):
    mu = gaussian_bump_field(grid, (-0.3, 0.0, 0.0), 1.0, 0.13, cutoff_radii=3.5)
    return MigrSpec(order=2.5, strength=mu)


def _memo_key():
    """The array the source-spectrum slot holds, or None when it is empty."""
    return forward._SOURCE_MEMO[0]() if forward._SOURCE_MEMO else None


def test_source_memo_gives_the_bytes_of_a_fresh_transform(grid32):
    real = synthesize_migr(_memo_spec(grid32), 501)
    forward._SOURCE_MEMO.clear()
    for k in np.linspace(1.5, 12.0, 6):
        cfg = ScatteringConfig(grid=grid32, k=float(k), source=real)
        held, _ = lippmann_schwinger_solve(cfg)
        assert _memo_key() is real.field.box_data
        # a writable copy of the source is transformed afresh and never kept
        object.__setattr__(cfg, "_source_data", np.array(cfg._source_data))
        fresh, _ = lippmann_schwinger_solve(cfg)
        assert _memo_key() is real.field.box_data
        assert held.data.tobytes() == fresh.data.tobytes()


def test_source_memo_misses_on_a_new_source_or_lattice(grid32, monkeypatch):
    transforms = []
    padded_fftn = forward._padded_fftn
    monkeypatch.setattr(forward, "_padded_fftn",
                        lambda *args: transforms.append(args[1:]) or padded_fftn(*args))
    a, b = (synthesize_migr(_memo_spec(grid32), seed) for seed in (1, 2))
    probe_box = ((4, 20), (8, 27), (6, 25))
    forward._SOURCE_MEMO.clear()
    # (source, frequency, output box, transforms so far): one per new source or lattice
    for src, k, box, count in ((a, 2.0, None, 1), (a, 3.0, None, 1), (b, 3.0, None, 2),
                               (b, 4.0, probe_box, 3), (b, 5.0, probe_box, 3),
                               (a, 5.0, probe_box, 4), (a, 6.0, None, 5)):
        lippmann_schwinger_solve(ScatteringConfig(grid=grid32, k=k, source=src), None, box)
        assert len(transforms) == count
        assert _memo_key() is src.field.box_data
    # b missed on the lattice a had filled; the probe box changed the lattice
    assert transforms[1] == transforms[0] and transforms[2] != transforms[1]


def test_source_memo_empties_when_its_source_dies(grid32):
    a, b = (synthesize_migr(_memo_spec(grid32), seed) for seed in (1, 2))
    lippmann_schwinger_solve(ScatteringConfig(grid=grid32, k=2.0, source=a))
    lippmann_schwinger_solve(ScatteringConfig(grid=grid32, k=2.0, source=b))
    # a source the slot no longer holds leaves it alone when it dies
    del a
    gc.collect()
    assert _memo_key() is b.field.box_data
    del b
    gc.collect()
    assert forward._SOURCE_MEMO == []


def test_born_updates_never_enter_the_source_memo(grid32, monkeypatch):
    q = gaussian_bump_field(grid32, (0.3, 0.0, 0.0), 3.0, 0.12, cutoff_radii=3.0)
    f = gaussian_bump_field(grid32, (-0.4, 0.0, 0.0), 1.0, 0.12, cutoff_radii=3.0)
    held = []
    source_spectrum = forward._source_spectrum
    monkeypatch.setattr(forward, "_source_spectrum",
                        lambda *args: (source_spectrum(*args), held.append(_memo_key()))[0])
    forward._SOURCE_MEMO.clear()
    lit = ScatteringConfig(grid=grid32, k=4.0, alpha=1, incident_dir=(0, 0, 1.0), potential=q)
    assert lippmann_schwinger_solve(lit)[1].iterations >= 2
    assert held and all(key is None for key in held)
    n_lit = len(held)
    cfg = ScatteringConfig(grid=grid32, k=4.0, potential=q, source=f)
    assert lippmann_schwinger_solve(cfg)[1].iterations >= 2
    assert len(held) > n_lit + 2 and all(key is f.box_data for key in held[n_lit:])
    # any frozen array given with its box takes the slot, not only a solve's source
    ResolventOperator(grid32, 4.0).apply(q.box_data, q.support_box)
    assert _memo_key() is q.box_data


# ------------------------------------------------------------------ far field

def test_far_field_point_source(grid16):
    c = (8, 8, 8)
    f = _delta_field(grid16, c)
    x0 = np.array([grid16.axis_coords(a)[c[a]] for a in range(3)])
    dirs = np.array([[0, 0, 1.0], [0.6, 0.8, 0], [-1, 0, 0]])
    for k in (1.0, 4.0):
        cfg = ScatteringConfig(grid=grid16, k=k, source=f)
        vals = far_field(cfg, np.zeros(grid16.dims, dtype=complex), dirs)
        expected = np.exp(-1j * k * dirs @ x0) / FOUR_PI
        assert np.max(np.abs(vals - expected)) < 1e-13


def test_far_field_lattice_shift_phase(grid16):
    f = _delta_field(grid16, (8, 8, 8))
    g = _delta_field(grid16, (8, 11, 8))
    a = np.array([0.0, 3 * grid16.spacing, 0.0])
    k = 2.0
    d = np.array([0.0, 0.6, 0.8])
    cfg_f = ScatteringConfig(grid=grid16, k=k, source=f)
    cfg_g = ScatteringConfig(grid=grid16, k=k, source=g)
    zero = np.zeros(grid16.dims, dtype=complex)
    vf = far_field(cfg_f, zero, [d])[0]
    vg = far_field(cfg_g, zero, [d])[0]
    assert abs(vg - vf * np.exp(-1j * k * d @ a)) < 1e-13


def test_far_field_matches_gaussian_transform(grid32):
    s = 0.12
    f = gaussian_bump_field(grid32, (0, 0, 0), 1.0, s, cutoff_radii=4.0)
    k = 5.0
    d = np.array([0.6, 0.8, 0.0])
    cfg = ScatteringConfig(grid=grid32, k=k, source=f)
    got = far_field(cfg, np.zeros(grid32.dims, dtype=complex), [d])[0]
    # (2 pi)^{3/2}/(4 pi) times the analytic transform s^3 exp(-s^2 k^2/2)
    analytic = (2 * np.pi) ** 1.5 / FOUR_PI * s ** 3 * np.exp(-s ** 2 * k ** 2 / 2.0)
    assert abs(got - analytic) <= 0.01 * abs(analytic)
    oracle = direct_farfield(f, k, d)
    assert abs(got - oracle) <= 1e-12 * abs(oracle)


def test_far_field_linear_in_source(grid16, rng):
    f = gaussian_bump_field(grid16, (0, 0, 0), 1.0, 0.15, cutoff_radii=3.0)
    f2 = ScalarField(grid16, 2.0 * f.data)
    zero = np.zeros(grid16.dims, dtype=complex)
    d = [0.0, 0.0, 1.0]
    v1 = far_field(ScatteringConfig(grid=grid16, k=2.0, source=f), zero, [d])[0]
    v2 = far_field(ScatteringConfig(grid=grid16, k=2.0, source=f2), zero, [d])[0]
    assert abs(v2 - 2.0 * v1) < 1e-15 + 1e-12 * abs(v1)


def test_far_field_consistency_with_point_evaluation(grid32):
    s = 0.12
    f = gaussian_bump_field(grid32, (0.05, 0, 0), 1.0, s, cutoff_radii=4.0)
    k = 6.0
    cfg = ScatteringConfig(grid=grid32, k=k, source=f)
    u_sc, _ = lippmann_schwinger_solve(cfg)
    diam = 2 * 4 * s
    R = 50.0 * diam
    for xhat in ([1.0, 0, 0], [0, 0.6, 0.8]):
        xhat = np.asarray(xhat)
        uinf = far_field(cfg, u_sc, [xhat])[0]
        upoint = resolvent_point_values(f, k, [R * xhat])[0]
        assert abs(R * np.exp(-1j * k * R) * upoint - uinf) <= 0.02 * abs(uinf)


def test_far_field_without_scattered_field(grid16):
    f = gaussian_bump_field(grid16, (0, 0, 0), 1.0, 0.15, cutoff_radii=3.0)
    dirs = np.array([[0, 0, 1.0], [0.6, 0.8, 0]])
    cfg = ScatteringConfig(grid=grid16, k=2.0, source=f)
    zero = np.zeros(grid16.dims, dtype=complex)
    assert np.array_equal(far_field(cfg, None, dirs), far_field(cfg, zero, dirs))
    with_q = ScatteringConfig(grid=grid16, k=2.0, source=f, potential=f)
    with pytest.raises(ConfigurationError, match="u_sc"):
        far_field(with_q, None, dirs)
    # only a config without a potential takes a frequency mesh
    with pytest.raises(ConfigurationError, match="without a potential"):
        far_field(with_q, zero, dirs, [2.0, 2.5])
    for bad in ([], [[2.0, 2.5]], [2.0, 0.0]):
        with pytest.raises(ConfigurationError, match="positive"):
            far_field(cfg, None, dirs, bad)


@pytest.mark.parametrize("case", ["passive", "backscatter", "source+potential"])
def test_far_field_crop_matches_full_grid(grid32, case):
    f = gaussian_bump_field(grid32, (-0.35, 0.1, 0), 1.0, 0.08, cutoff_radii=3.0)
    q = gaussian_bump_field(grid32, (0.35, 0, -0.1), 0.5, 0.08, cutoff_radii=3.0)
    k = 4.0
    dirs = np.array([[0, 0, 1.0], [0.6, 0.8, 0], [-0.48, 0.6, -0.64]])
    if case == "passive":
        cfg = ScatteringConfig(grid=grid32, k=k, source=f)
    elif case == "backscatter":
        cfg = ScatteringConfig(grid=grid32, k=k, alpha=1, incident_dir=(0, 0, -1.0), potential=q)
    else:
        cfg = ScatteringConfig(grid=grid32, k=k, source=f, potential=q)
    u_sc = lippmann_schwinger_solve(cfg)[0].data
    total = u_sc + (incident_plane_wave(k, cfg.incident_dir, grid32).data if cfg.alpha else 0)
    g = np.zeros(grid32.dims, dtype=complex)
    if cfg.source is not None:
        g += f.data
    if cfg.potential is not None:
        g += q.data * total
    got = far_field(cfg, u_sc, dirs)
    whole = tuple((0, n - 1) for n in grid32.dims)
    full = _farfield_batch(g, grid32, [k], dirs, whole)[:, 0]
    oracle = np.array([direct_farfield(ComplexField(grid32, g), k, d) for d in dirs])
    assert _rel(got, full) <= 1e-13
    assert _rel(got, oracle) <= 1e-13


def test_born_reciprocity(grid16):
    q = gaussian_bump_field(grid16, (0.05, -0.05, 0), 0.5, 0.18, cutoff_radii=3.0)
    k = 3.0
    xhat = np.array([0.6, 0.8, 0.0])
    d = np.array([0.0, 0.0, 1.0])

    def born(out_dir, inc_dir):
        u_in = incident_plane_wave(k, inc_dir, grid16)
        return direct_farfield(ComplexField(grid16, q.data * u_in.data), k, out_dir)

    a, b = born(xhat, d), born(-d, -xhat)
    assert abs(a - b) <= 1e-12 * abs(a)


# ---------------------------------------------------------------- band sweeps

def test_separating_normal_and_config():
    g = GridSpec.centered(32, 2.0 / 32)
    f_mask = np.zeros(g.dims)
    q_mask = np.zeros(g.dims)
    f_mask[6:12, 10:20, 10:20] = 1.0
    q_mask[20:26, 10:20, 10:20] = 1.0
    f_box, q_box = ScalarField(g, f_mask).support_box, ScalarField(g, q_mask).support_box
    n = _box_normal(f_box, q_box)
    assert np.allclose(n, [1.0, 0, 0])
    assert np.allclose(_box_normal(q_box, f_box), [-1.0, 0, 0])
    overlap = np.zeros(g.dims)
    overlap[10:22, 10:20, 10:20] = 1.0
    with pytest.raises(ConfigurationError, match="separation|overlap"):
        _box_normal(f_box, ScalarField(g, overlap).support_box)


def test_config_separation_check(grid32):
    mu_f = gaussian_bump_field(grid32, (-0.5, 0, 0), 1.0, 0.08, cutoff_radii=3.0)
    mu_q = gaussian_bump_field(grid32, (0.5, 0, 0), 1.0, 0.08, cutoff_radii=3.0)
    f = synthesize_migr(MigrSpec(order=2.5, strength=mu_f), 1)
    q = synthesize_migr(MigrSpec(order=3.5, strength=mu_q), 2)
    ff = band_sweep(grid32, f, q, [4.0], [[0, 0, 1.0]], "passive", seed=0)
    assert ff.values.shape == (1, 1) and np.isfinite(ff.values).all()
    n = _box_normal(f.field.support_box, q.field.support_box)
    assert np.allclose(n, [1.0, 0, 0])


def test_band_sweep_rejects_overlapping_random_supports(grid16):
    mu = gaussian_bump_field(grid16, (0, 0, 0), 1.0, 0.14, cutoff_radii=3.0)
    with pytest.raises(ConfigurationError, match="overlap"):
        band_sweep(grid16, MigrSpec(order=2.5, strength=mu), MigrSpec(order=3.5, strength=mu),
                   [4.0], [[0, 0, 1.0]], "passive", seed=0)


def test_band_sweep_zero_ingredients(grid16):
    freqs = np.array([2.0, 2.5, 3.0])
    dirs = np.array([[0, 0, 1.0], [1.0, 0, 0]])
    zero = ScalarField(grid16, np.zeros(grid16.dims))
    ff = band_sweep(grid16, zero, None, freqs, dirs, "passive", seed=1)
    assert np.all(ff.values == 0.0)


def test_band_sweep_deterministic(grid16):
    mu = gaussian_bump_field(grid16, (0, 0, 0), 1.0, 0.14, cutoff_radii=3.0)
    spec = MigrSpec(order=2.5, strength=mu)
    freqs = 4.0 + (np.arange(8) + 0.5) * 0.5
    dirs = np.array([[0, 0, 1.0], [0.6, 0.8, 0]])
    a = band_sweep(grid16, spec, None, freqs, dirs, "passive", seed=9)
    b = band_sweep(grid16, spec, None, freqs, dirs, "passive", seed=9)
    assert np.array_equal(a.values, b.values)
    c = band_sweep(grid16, spec, None, freqs, dirs, "passive", seed=10)
    assert not np.array_equal(a.values, c.values)


def test_band_sweep_matches_single_solves(grid16):
    # re-solve oracle on random picks, including a potential so solves matter
    mu = gaussian_bump_field(grid16, (-0.25, 0, 0), 1.0, 0.09, cutoff_radii=3.0)
    spec = MigrSpec(order=2.5, strength=mu)
    q = gaussian_bump_field(grid16, (0.28, 0, 0), 1.5, 0.08, cutoff_radii=3.0)
    freqs = 5.0 + (np.arange(16) + 0.5) * 0.25
    dirs = np.array([[0, 0, 1.0], [1.0, 0, 0], [0, 0.6, 0.8]])
    ff = band_sweep(grid16, spec, q, freqs, dirs, "passive", seed=4, tol=1e-11)
    child = np.random.SeedSequence(4).generate_state(2, np.uint64)
    f_real = synthesize_migr(spec, int(child[0]))
    rng = np.random.default_rng(0)
    for _ in range(8):
        jk = rng.integers(0, len(freqs))
        jd = rng.integers(0, len(dirs))
        cfg = ScatteringConfig(grid=grid16, k=float(freqs[jk]), potential=q,
                               source=f_real, tol=1e-11)
        u, _ = lippmann_schwinger_solve(cfg)
        v = far_field(cfg, u, dirs)[jd]
        assert v == ff.values[jd, jk]


def test_band_sweep_active_backscatter(grid16):
    q = gaussian_bump_field(grid16, (0, 0, 0), 0.5, 0.15, cutoff_radii=3.0)
    freqs = 6.0 + (np.arange(4) + 0.5) * 0.5
    dirs = np.array([[0, 0, 1.0]])
    ff = band_sweep(grid16, None, q, freqs, dirs, "active-backscatter", seed=2)
    assert ff.kind == "active-backscatter"
    k = float(freqs[0])
    cfg = ScatteringConfig(grid=grid16, k=k, alpha=1, incident_dir=(0, 0, -1.0), potential=q)
    u, _ = lippmann_schwinger_solve(cfg)
    v = far_field(cfg, u, [dirs[0]])[0]
    # the sweep iterates on q's box, the solve on the whole grid
    assert abs(v - ff.values[0, 0]) <= 1e-12 * abs(v)


def _recording_applies(monkeypatch):
    """The (input box, output box) of every ResolventOperator.apply from here on."""
    calls = []
    apply = ResolventOperator.apply

    def recording(self, arr, in_box=None, out_box=None):
        calls.append((in_box, out_box))
        return apply(self, arr, in_box, out_box)

    monkeypatch.setattr(ResolventOperator, "apply", recording)
    return calls


def test_band_sweep_backscatter_matches_full_grid_solves(grid32, monkeypatch):
    # each shot of a sweep on q's box against a whole-grid solve plus its far field
    mu = gaussian_bump_field(grid32, (0, 0, 0), 0.3, 0.22, cutoff_radii=3.0)
    spec = MigrSpec(order=3.5, strength=mu)
    freqs = 8.0 + (np.arange(3) + 0.5) * 4.0
    dirs = np.array([[0, 0, 1.0], [0.6, 0.8, 0], [-0.48, 0.6, -0.64]])
    calls = _recording_applies(monkeypatch)
    ff = band_sweep(grid32, None, spec, freqs, dirs, "active-backscatter", seed=11, tol=1e-8,
                    max_born_order=30)
    monkeypatch.undo()
    q = draw_realization(None, spec, 11)[1]
    # two applies per shot give the Born terms 0-4, each from q's box to q's box
    assert len(calls) == 2 * len(freqs) * len(dirs)
    assert set(calls) == {(q.support_box, q.support_box)}
    for j, k in enumerate(freqs):
        for d, xhat in enumerate(dirs):
            cfg = ScatteringConfig(grid=grid32, k=float(k), alpha=1, incident_dir=tuple(-xhat),
                                   potential=q, tol=1e-8, max_born_order=30)
            v = far_field(cfg, lippmann_schwinger_solve(cfg)[0], [xhat])[0]
            assert abs(v - ff.values[d, j]) <= 1e-12 * abs(v)


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
@pytest.mark.parametrize("kind", ["random", "deterministic"])
def test_backscatter_far_field_matches_whole_grid_solves(grid32, kind, tol):
    # sweep values against converged whole-grid solves: they differ by roundoff
    # and by the neglected tail, about contraction * |t_2a| <= contraction * tol
    if kind == "random":
        mu = gaussian_bump_field(grid32, (0, 0, 0), 0.3, 0.22, cutoff_radii=3.0)
        potential = MigrSpec(order=3.5, strength=mu)
    else:
        potential = gaussian_bump_field(grid32, (0.1, -0.05, 0.08), 2.0, 0.15, cutoff_radii=3.0)
    freqs = 8.0 + (np.arange(3) + 0.5) * 4.0
    dirs = np.array([[0.6, 0.0, 0.8], [-0.48, 0.6, -0.64]])
    ff = band_sweep(grid32, None, potential, freqs, dirs, "active-backscatter", seed=11, tol=tol,
                    max_born_order=30)
    q = draw_realization(None, potential, 11)[1]
    for j, k in enumerate(freqs):
        for d, xhat in enumerate(dirs):
            cfg = ScatteringConfig(grid=grid32, k=float(k), alpha=1, incident_dir=tuple(-xhat),
                                   potential=q, tol=tol, max_born_order=30)
            value, rep = forward._backscatter_far_field(cfg, ResolventOperator(grid32, float(k)))
            assert value == ff.values[d, j]
            assert rep.residual <= tol and rep.contraction < 0.05
            ref_cfg = ScatteringConfig(grid=grid32, k=float(k), alpha=1, incident_dir=tuple(-xhat),
                                       potential=q, tol=1e-14, max_born_order=60)
            ref = far_field(ref_cfg, lippmann_schwinger_solve(ref_cfg)[0], [xhat])[0]
            tail = 2.0 * rep.contraction * rep.residual
            assert abs(value - ref) <= (1e-12 + tail) * abs(ref)


def test_backscatter_born_shape_makes_two_applies_per_shot(grid32, monkeypatch):
    # the backscatter_born benchmark's sweep: 20 frequencies x 2 directions, tol 1e-8
    mu = gaussian_bump_field(grid32, (0, 0, 0), 0.3, 0.22, cutoff_radii=3.0)
    freqs = midpoint_mesh(8.0, 18.0, 0.5)
    dirs = fibonacci_sphere(2)
    calls = _recording_applies(monkeypatch)
    band_sweep(grid32, None, MigrSpec(order=3.5, strength=mu), freqs, dirs, "active-backscatter",
               seed=11, tol=1e-8, max_born_order=30)
    assert len(calls) == 2 * len(freqs) * len(dirs) == 80


@pytest.mark.parametrize("tol, applies", [(1e-3, 1), (1e-8, 2), (1e-12, 3)])
def test_backscatter_shot_pairs_its_born_updates(grid32, tol, applies):
    # the 2n+1 value and report against the unpaired terms sum w q (R q)^n w
    q = gaussian_bump_field(grid32, (0.1, -0.05, 0.08), 0.5, 0.15, cutoff_radii=3.0)
    k, xhat = 9.0, np.array([0.6, 0.0, 0.8])
    cfg = ScatteringConfig(grid=grid32, k=k, alpha=1, incident_dir=tuple(-xhat), potential=q,
                           tol=tol, max_born_order=30)
    op = ResolventOperator(grid32, k)
    value, rep = forward._backscatter_far_field(cfg, op)
    box, qd = q.support_box, q.box_data
    w = incident_plane_wave(k, -xhat, grid32).data[tuple(slice(lo, hi + 1) for lo, hi in box)]
    v = [w]
    for _ in range(2 * applies):
        v.append(op.apply(qd * v[-1], box, box))
    terms = np.array([np.sum(w * qd * vn) for vn in v])
    sums = np.cumsum(terms)
    # the stop rule: the first a whose newest term t_2a is within tol of the sum
    assert [abs(terms[2 * a]) <= tol * abs(sums[2 * a]) for a in range(1, applies + 1)] \
        == [False] * (applies - 1) + [True]
    norms = [np.linalg.norm(vn) for vn in v[1:applies + 1]]
    assert rep.iterations == applies
    assert np.allclose(rep.update_norms, norms, rtol=1e-12, atol=0)
    assert rep.contraction == (None if applies == 1 else rep.update_norms[-1] / rep.update_norms[-2])
    assert abs(rep.residual - abs(terms[2 * applies]) / abs(sums[2 * applies])) <= 1e-9 * rep.residual
    want = sums[2 * applies] * grid32.cell_volume / FOUR_PI
    assert abs(value - want) <= 1e-13 * abs(want)


def test_backscatter_shot_order_budget(grid32):
    # max_born_order N allows the far-field terms up to order N + 1: ceil((N + 1) / 2) applies
    q = gaussian_bump_field(grid32, (0.1, -0.05, 0.08), 0.5, 0.15, cutoff_radii=3.0)
    xhat = np.array([0.6, 0.0, 0.8])

    def shot(order):
        cfg = ScatteringConfig(grid=grid32, k=9.0, alpha=1, incident_dir=tuple(-xhat),
                               potential=q, tol=1e-8, max_born_order=order)
        return forward._backscatter_far_field(cfg, ResolventOperator(grid32, 9.0))

    with pytest.raises(SolverConvergenceError) as e:
        shot(1)
    assert 1e-8 < e.value.residual < 1e-2
    assert shot(2)[1].iterations == 2


def test_backscatter_shot_forms_its_incident_wave_once(grid16, monkeypatch):
    # the Born solve's right-hand side and the far field share one plane wave
    q = gaussian_bump_field(grid16, (0, 0, 0), 0.5, 0.16, cutoff_radii=3.0)
    freqs = np.array([3.0, 3.5])
    dirs = np.array([[0, 0, 1.0], [1.0, 0, 0], [0, 0.6, 0.8]])
    calls = []
    plane_wave = forward._plane_wave

    def counting(*args):
        calls.append(args)
        return plane_wave(*args)

    monkeypatch.setattr(forward, "_plane_wave", counting)
    band_sweep(grid16, None, q, freqs, dirs, "active-backscatter", seed=1)
    assert len(calls) == len(freqs) * len(dirs)


def _box_data(grid, box, rng, scale):
    data = np.zeros(grid.dims)
    inside = tuple(slice(lo, hi + 1) for lo, hi in box)
    data[inside] = scale * (1.0 + rng.random(data[inside].shape))
    return ScalarField(grid, data)


def test_band_sweep_sizes_one_operator_per_frequency(grid32, rng, monkeypatch):
    # a source box and a potential box that need different lattices; a
    # backscatter sweep's shots reuse the spectrum its source's part sized
    f = _box_data(grid32, ((6, 12), (12, 19), (12, 19)), rng, 1.0)
    q = _box_data(grid32, ((17, 25), (13, 21), (11, 20)), rng, 0.5)
    freqs = np.array([4.0, 4.5])
    dirs = np.array([[0, 0, 1.0], [1.0, 0, 0], [0, 0.6, 0.8]])
    calls = []
    kernel_block = _kernels.kernel_block

    def counting(half, *args):
        calls.append(tuple(half))
        return kernel_block(half, *args)

    monkeypatch.setattr(_kernels, "kernel_block", counting)
    ff = band_sweep(grid32, f, q, freqs, dirs, "passive", seed=0, tol=1e-12)
    assert len(calls) == len(freqs)
    back = band_sweep(grid32, f, q, freqs, dirs, "active-backscatter", seed=0, tol=1e-12)
    assert len(calls) == 2 * len(freqs)
    monkeypatch.undo()
    for j, k in enumerate(freqs):
        cfg = ScatteringConfig(grid=grid32, k=float(k), source=f, potential=q, tol=1e-12)
        want = far_field(cfg, lippmann_schwinger_solve(cfg)[0], dirs)
        assert _rel(ff.values[:, j], want) <= 1e-12
        for d, xhat in enumerate(dirs):
            cfg = ScatteringConfig(grid=grid32, k=float(k), alpha=1, incident_dir=tuple(-xhat),
                                   source=f, potential=q, tol=1e-12)
            want = far_field(cfg, lippmann_schwinger_solve(cfg)[0], [xhat])[0]
            assert abs(back.values[d, j] - want) <= 1e-11 * abs(want)


@pytest.mark.parametrize("kind", ["random", "deterministic"])
def test_band_sweep_backscatter_with_source_matches_whole_grid_solves(grid32, kind):
    # the source's part plus each shot's incident part against one whole-grid
    # solve with both the source and the incident wave, within 10 tol
    tol = 1e-8
    f = gaussian_bump_field(grid32, (-0.4, 0.1, 0), 1.0, 0.08, cutoff_radii=3.0)
    q = gaussian_bump_field(grid32, (0.3, 0, -0.05), 0.3 if kind == "random" else 1.5, 0.12,
                            cutoff_radii=3.0)
    if kind == "random":
        source, potential = MigrSpec(order=2.5, strength=f), MigrSpec(order=3.5, strength=q)
    else:
        source, potential = f, q
    freqs = 6.0 + (np.arange(3) + 0.5) * 2.0
    dirs = np.array([[0, 0, 1.0], [0.6, 0.8, 0], [-0.48, 0.6, -0.64]])
    ff = band_sweep(grid32, source, potential, freqs, dirs, "active-backscatter", seed=7,
                    tol=tol, max_born_order=30)
    f_real, q_real = draw_realization(source, potential, 7)[:2]
    for j, k in enumerate(freqs):
        for d, xhat in enumerate(dirs):
            cfg = ScatteringConfig(grid=grid32, k=float(k), alpha=1, incident_dir=tuple(-xhat),
                                   source=f_real, potential=q_real, tol=tol, max_born_order=30)
            want = far_field(cfg, lippmann_schwinger_solve(cfg)[0], [xhat])[0]
            assert abs(ff.values[d, j] - want) <= 10 * tol * abs(want)


def test_band_sweep_passive_without_source_is_zero(grid16, monkeypatch):
    # no incident wave and no source: nothing scatters, and no resolvent is applied
    q = gaussian_bump_field(grid16, (0, 0, 0), 0.5, 0.15, cutoff_radii=3.0)
    freqs = 4.0 + (np.arange(3) + 0.5) * 0.5
    calls = _recording_applies(monkeypatch)
    ff = band_sweep(grid16, None, q, freqs, [[0, 0, 1.0], [1.0, 0, 0]], "passive", seed=1)
    assert calls == []
    assert ff.values.shape == (2, 3) and np.all(ff.values == 0)


def test_far_field_reads_the_potential_box(grid32):
    f = gaussian_bump_field(grid32, (-0.35, 0.1, 0), 1.0, 0.08, cutoff_radii=3.0)
    q = gaussian_bump_field(grid32, (0.35, 0, -0.1), 0.5, 0.08, cutoff_radii=3.0)
    cfg = ScatteringConfig(grid=grid32, k=4.0, source=f, potential=q)
    u = lippmann_schwinger_solve(cfg)[0].data
    on_q = tuple(slice(lo, hi + 1) for lo, hi in q.support_box)
    dirs = np.array([[0, 0, 1.0], [0.6, 0.8, 0]])
    assert np.array_equal(far_field(cfg, u[on_q], dirs), far_field(cfg, u, dirs))
    with pytest.raises(ConfigurationError, match="potential's box"):
        far_field(cfg, u[1:], dirs)


@pytest.mark.parametrize("with_potential", [False, True])
def test_band_sweep_real_source_matches_complex_copy(grid16, with_potential):
    # a real source enters the sweep uncast and gives the values of its complex copy
    f = gaussian_bump_field(grid16, (-0.25, 0, 0), 1.0, 0.09, cutoff_radii=3.0)
    q = gaussian_bump_field(grid16, (0.28, 0, 0), 1.5, 0.08, cutoff_radii=3.0) if with_potential else None
    freqs = 5.0 + (np.arange(4) + 0.5) * 0.25
    dirs = np.array([[0, 0, 1.0], [1.0, 0, 0], [0, 0.6, 0.8]])
    assert draw_realization(f, q, 4)[0] is f
    real = band_sweep(grid16, f, q, freqs, dirs, "passive", seed=4, tol=1e-11)
    cplx = band_sweep(grid16, f.as_complex(), q, freqs, dirs, "passive", seed=4, tol=1e-11)
    assert real.values.tobytes() == cplx.values.tobytes()


@pytest.mark.parametrize("side", [30, 38])
def test_far_field_real_source_matches_complex_copy_at_blas_sizes(rng, side):
    # 16 directions on a 30^3 or 38^3 box, where the GEMM runs its blocked
    # kernels; at 30^3 a product over the real and imaginary rows stacked
    # into one matrix already rounds otherwise than the real rows alone
    grid = GridSpec.centered(64, 2.0 / 64)
    f = _box_data(grid, ((13, 12 + side),) * 3, rng, 1.0)
    dirs = fibonacci_sphere(16)
    for k in (20.0, 47.3):
        real = far_field(ScatteringConfig(grid=grid, k=k, source=f), None, dirs)
        cplx = far_field(ScatteringConfig(grid=grid, k=k, source=f.as_complex()), None, dirs)
        assert real.tobytes() == cplx.tobytes()
    # the band path, over a mesh that spans two chunks and a ragged tail
    freqs = 20.0 + 0.5 * np.arange(2 * forward._chunk_length(((13, 12 + side),) * 3, len(dirs)) + 3)
    real = far_field(ScatteringConfig(grid=grid, k=20.0, source=f), None, dirs, freqs)
    cplx = far_field(ScatteringConfig(grid=grid, k=20.0, source=f.as_complex()), None, dirs, freqs)
    assert real.tobytes() == cplx.tobytes()


@pytest.mark.parametrize("extra", [0, 5, None], ids=["whole_chunks", "ragged_tail", "one_frequency"])
def test_far_field_band_matches_per_frequency_calls(rng, extra):
    # 16 directions on a 38^3 box: a chunk holds a few frequencies, so the
    # mesh spans several chunks, and the one-frequency mesh is a single call
    grid = GridSpec.centered(64, 2.0 / 64)
    box = ((13, 50),) * 3
    f = _box_data(grid, box, rng, 1.0)
    dirs = fibonacci_sphere(16)
    chunk = forward._chunk_length(box, len(dirs))
    assert 1 < chunk < 20
    freqs = 20.0 + 0.05 * np.arange(1 if extra is None else 2 * chunk + extra)
    band = far_field(ScatteringConfig(grid=grid, k=1.0, source=f), None, dirs, freqs)
    assert band.shape == (len(dirs), len(freqs))
    for j, k in enumerate(freqs):
        single = far_field(ScatteringConfig(grid=grid, k=float(k), source=f), None, dirs)
        assert _rel(band[:, j], single) <= 1e-13
        if extra is None:
            # one frequency runs the same kernel as a single-frequency call
            assert band[:, j].tobytes() == single.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fold_pairs_each_cell_with_its_mirror(rng, n):
    a = rng.standard_normal((3, n, 2)) + 1j * rng.standard_normal((3, n, 2))
    even, odd = forward._fold(a, 1)
    m = (n + 1) // 2
    assert even.shape == odd.shape == (3, m, 2)
    for j, t in enumerate(range(n - m, n)):
        mirror = n - 1 - t
        if t == mirror:
            # an odd axis's middle cell is counted once and has no odd part
            assert np.array_equal(even[:, j], a[:, t]) and not odd[:, j].any()
        else:
            assert np.array_equal(even[:, j], a[:, t] + a[:, mirror])
            assert np.array_equal(odd[:, j], a[:, t] - a[:, mirror])


# off-centre, non-cubic boxes of the 32^3 grid with odd, even, length-1 and length-2 axes
_FOLD_BOXES = {"7x4x1": ((4, 10), (10, 13), (7, 7)),
               "2x11x10": ((5, 6), (4, 14), (14, 23)),
               "1x2x23": ((20, 20), (21, 22), (5, 27))}


@pytest.mark.parametrize("box", list(_FOLD_BOXES.values()), ids=list(_FOLD_BOXES))
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_folded_far_field_matches_direct_sum(grid32, rng, box, kind):
    f = _box_data(grid32, box, rng, 1.0)
    if kind == "complex":
        f = ComplexField(grid32, f.data * np.exp(2j * np.pi * rng.random(grid32.dims)))
    assert f.support_box == box
    dirs = np.vstack([np.eye(3), fibonacci_sphere(5)])
    freqs = np.array([3.0, 17.5, 41.25])
    band = far_field(ScatteringConfig(grid=grid32, k=1.0, source=f), None, dirs, freqs)
    for j, k in enumerate(freqs):
        single = far_field(ScatteringConfig(grid=grid32, k=float(k), source=f), None, dirs)
        oracle = np.array([direct_farfield(f, k, d) for d in dirs])
        assert _rel(band[:, j], oracle) <= 1e-12
        assert _rel(single, oracle) <= 1e-12


def test_band_sweep_error_annotation(grid16):
    q = gaussian_bump_field(grid16, (0, 0, 0), 500.0, 0.16, cutoff_radii=3.0)
    freqs = np.array([1.5, 2.0])
    dirs = np.array([[0, 0, 1.0]])
    with pytest.raises(SolverDivergenceError, match="k=1.5"):
        band_sweep(grid16, None, q, freqs, dirs, "active-backscatter", seed=1)


@pytest.mark.parametrize("amplitude, max_born_order, error, attr", [
    (400.0, 20, SolverDivergenceError, "contraction"),
    (20.0, 2, SolverConvergenceError, "residual"),
], ids=["diverges", "budget"])
def test_band_sweep_error_keeps_its_payload(grid16, amplitude, max_born_order, error, attr):
    q = gaussian_bump_field(grid16, (0, 0, 0), amplitude, 0.15, cutoff_radii=3.0)
    freqs = 4.0 + (np.arange(2) + 0.5) * 0.5
    with pytest.raises(error) as e:
        band_sweep(grid16, None, q, freqs, [[0, 0, 1.0]], "active-backscatter", seed=1,
                   max_born_order=max_born_order)
    assert getattr(e.value, attr) is not None and getattr(e.value, attr) > 0
    assert "(backscatter sweep, k=4.25, dir=(0.0, 0.0, 1.0))" in str(e.value)
    assert "np.float64" not in str(e.value)


def test_band_sweep_validates_mesh(grid16):
    zero = ScalarField(grid16, np.zeros(grid16.dims))
    with pytest.raises(ConfigurationError, match="uniform"):
        band_sweep(grid16, zero, None, [1.0, 2.0, 2.5], [[0, 0, 1.0]], "passive", seed=0)
    with pytest.raises(ConfigurationError, match="mode"):
        band_sweep(grid16, zero, None, [1.0, 2.0], [[0, 0, 1.0]], "wrong", seed=0)


def test_farfieldset_roundtrip(tmp_path, grid16):
    mu = gaussian_bump_field(grid16, (0, 0, 0), 1.0, 0.14, cutoff_radii=3.0)
    spec = MigrSpec(order=2.5, strength=mu)
    freqs = 4.0 + (np.arange(8) + 0.5) * 0.5
    dirs = np.array([[0, 0, 1.0], [0.6, 0.8, 0]])
    ff = band_sweep(grid16, spec, None, freqs, dirs, "passive", seed=9)
    prefix = str(tmp_path / "sweep")
    ff.save(prefix)
    back = FarFieldSet.load(prefix)
    # 17-significant-digit decimal roundtrips float64 exactly
    assert np.array_equal(back.values, ff.values)
    assert np.array_equal(back.freqs, ff.freqs)
    assert np.array_equal(back.dirs, ff.dirs)
    assert back.kind == ff.kind
    assert back.meta == ff.meta
    assert abs(back.delta - 0.5) < 1e-15
    # the body is the per-row %.17g transcription, one block per direction
    fmt = lambda x: f"{float(x):.17g}"
    want = ["dir_x,dir_y,dir_z,k,re,im"] + [
        ",".join(fmt(x) for x in (*ff.dirs[d], k, v.real, v.imag))
        for d in range(ff.n_dirs) for k, v in zip(ff.freqs, ff.values[d])
    ]
    assert open(prefix + ".csv").read().splitlines() == want


def test_farfieldset_load_ignores_unknown_manifest_keys(tmp_path, grid16):
    f = gaussian_bump_field(grid16, (0, 0, 0), 1.0, 0.14, cutoff_radii=3.0)
    freqs = 4.0 + (np.arange(4) + 0.5) * 0.5
    ff = band_sweep(grid16, f, None, freqs, [[0, 0, 1.0], [0.6, 0.8, 0]], "passive", seed=9)
    prefix = str(tmp_path / "sweep")
    ff.save(prefix)
    with open(prefix + ".manifest.txt", "a") as fh:
        fh.write("born_iters_max=3\n")
    back = FarFieldSet.load(prefix)
    assert np.array_equal(back.dirs, ff.dirs)
    assert np.array_equal(back.freqs, ff.freqs)
    assert np.array_equal(back.values, ff.values)
    assert back.kind == ff.kind


def test_farfieldset_roundtrip_without_seed(tmp_path):
    ff = make_farfield_set([[0, 0, 1.0], [0.6, 0.8, 0]], [1.0, 1.5, 2.0],
                           np.arange(6).reshape(2, 3) * (1 + 0.5j))
    prefix = str(tmp_path / "synthetic")
    ff.save(prefix)
    assert "seed=\n" in open(prefix + ".manifest.txt").read()
    back = FarFieldSet.load(prefix)
    assert back.meta["seed"] is None
    assert np.array_equal(back.values, ff.values)


def _saved_pair(tmp_path):
    ff = make_farfield_set([[0, 0, 1.0], [0.6, 0.8, 0]], [1.0, 1.5, 2.0],
                           np.arange(6).reshape(2, 3) * (1 + 0.5j), seed=3)
    prefix = str(tmp_path / "sweep")
    ff.save(prefix)
    return prefix


def test_farfieldset_roundtrip_keeps_signed_zeros(tmp_path):
    # a -0.0 part beside a nonzero or zero other part reads back with its sign
    vals = np.empty((2, 3), dtype=np.complex128)
    vals.real = [[-0.0, 0.0, -0.0], [1.5, -0.0, -2.0]]
    vals.imag = [[2.5, -0.0, -0.0], [-0.0, -1.0, 0.0]]
    ff = make_farfield_set([[0, 0, 1.0], [0.6, 0.8, 0]], [1.0, 1.5, 2.0], vals)
    prefix = str(tmp_path / "zeros")
    ff.save(prefix)
    back = FarFieldSet.load(prefix)
    assert back.values.tobytes() == ff.values.tobytes()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [2, 3, 4, 5], ids=["dir_z", "k", "re", "im"])
def test_farfieldset_load_rejects_non_finite_rows(tmp_path, bad, column):
    prefix = _saved_pair(tmp_path)
    csv = prefix + ".csv"
    header, *rows = open(csv).read().splitlines()
    for i in (2, 4):
        cells = rows[i].split(",")
        cells[column] = bad
        rows[i] = ",".join(cells)
    with open(csv, "w") as fh:
        fh.write("\n".join([header] + rows) + "\n")
    with pytest.raises(FieldFormatError, match="data row 3 holds a non-finite number"):
        FarFieldSet.load(prefix)


def test_farfieldset_load_rejects_unparsable_manifest(tmp_path):
    prefix = _saved_pair(tmp_path)
    manifest = prefix + ".manifest.txt"
    text = open(manifest).read()
    for good, bad in (("seed=3", "seed=None"), ("m=\n", "m=half\n"),
                      ("n_freq=3", "n_freq=three")):
        with open(manifest, "w") as fh:
            fh.write(text.replace(good, bad))
        with pytest.raises(FieldFormatError, match="unparsable"):
            FarFieldSet.load(prefix)
    config = tmp_path / "exp.ini"
    config.write_text("[grid]\ndims = 16\nspacing = 0.125\n[source]\nkind = deterministic\n"
                      "shape = ball-indicator\ncenter = 0 0 0\namplitude = 1\nradius = 0.3\n"
                      "[ergodic]\nbands = 1:0.5\n[experiment]\nmode = passive\nseed = 1\n"
                      f"output = {tmp_path}\n")
    assert run_command(["diagnose-ergodic", "--config", str(config), "--data-prefix", prefix,
                        "--out", str(tmp_path / "e.csv")]) == 2


def test_farfieldset_loads_a_manifest_with_the_old_band_keys(tmp_path):
    # manifests once also held band_lo, band_hi and delta; load ignores them
    ff = make_farfield_set([[0, 0, 1.0], [0.6, 0.8, 0]], [1.0, 1.5, 2.0],
                           np.arange(6).reshape(2, 3) * (1 + 0.5j), m=2.5, seed=3)
    prefix = str(tmp_path / "sweep")
    ff.save(prefix)
    text = open(prefix + ".manifest.txt").read()
    assert "band_lo" not in text and "delta" not in text
    with open(prefix + ".manifest.txt", "a") as fh:
        fh.write("band_lo=0.75\nband_hi=2.25\ndelta=0.5\n")
    back = FarFieldSet.load(prefix)
    assert back.kind == ff.kind and back.meta == ff.meta
    for name in ("dirs", "freqs", "values"):
        assert np.array_equal(getattr(back, name), getattr(ff, name))


def test_farfieldset_load_rejects_broken_layout(tmp_path):
    prefix = _saved_pair(tmp_path)
    csv = prefix + ".csv"
    header, *rows = open(csv).read().splitlines()
    # rows[1] is (dir 0, k 1) and rows[4] is (dir 1, k 1): first swap them between directions
    for broken in ([rows[0], rows[4], rows[2], rows[3], rows[1], rows[5]],
                   [rows[1], rows[0]] + rows[2:],
                   rows[:5] + [rows[5] + ",7"],
                   rows[:5] + ["1,2,x,4,5,6"]):
        with open(csv, "w") as fh:
            fh.write("\n".join([header] + broken) + "\n")
        with pytest.raises(FieldFormatError):
            FarFieldSet.load(prefix)


def test_farfieldset_validation(grid16):
    with pytest.raises(ConfigurationError):
        FarFieldSet(dirs=np.array([[1.0, 1.0, 0]]), freqs=np.array([1.0]),
                    values=np.zeros((1, 1), complex), kind="passive")
    with pytest.raises(ConfigurationError):
        FarFieldSet(dirs=np.array([[0, 0, 1.0]]), freqs=np.array([2.0, 1.0]),
                    values=np.zeros((1, 2), complex), kind="passive")
    with pytest.raises(ConfigurationError):
        FarFieldSet(dirs=np.array([[0, 0, 1.0]]), freqs=np.array([1.0]),
                    values=np.zeros((2, 1), complex), kind="nope")



@pytest.mark.parametrize("what,bad", [(w, b) for w in ("directions", "frequencies", "values")
                                       for b in (np.nan, np.inf, -np.inf)]
                         + [("values", complex(0.0, np.nan))])
def test_farfieldset_rejects_non_finite_entries(what, bad):
    arrays = {"directions": np.array([[0, 0, 1.0], [0.6, 0.8, 0]]),
              "frequencies": np.array([1.0, 1.5, 2.0]),
              "values": np.ones((2, 3), complex)}
    arrays[what][-1, ...] = bad
    with pytest.raises(ConfigurationError, match=f"far-field {what} hold non-finite entries"):
        FarFieldSet(dirs=arrays["directions"], freqs=arrays["frequencies"],
                    values=arrays["values"], kind="passive")
