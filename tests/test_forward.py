import numpy as np
import pytest

from rscat import (ComplexField, ConfigurationError, FarFieldSet,
                   FieldFormatError, GridSpec, MigrSpec, ScalarField,
                   ScatteringConfig,
                   SolverConvergenceError, SolverDivergenceError, band_sweep,
                   direct_farfield, far_field, fundamental_solution,
                   gaussian_bump_field, incident_plane_wave,
                   lippmann_schwinger_solve, resolvent_apply,
                   make_farfield_set, resolvent_point_values,
                   separating_normal, synthesize_migr)
from rscat.cli import run_command
from rscat.forward import _COLLAR, ResolventOperator

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
    lhs = resolvent_apply(k, combo).data
    rhs = 2.5 * resolvent_apply(k, a).data - 1.5j * resolvent_apply(k, b).data
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))


def test_resolvent_delta_reproduces_kernel(grid16):
    k = 3.0
    c = (8, 8, 8)
    out = resolvent_apply(k, _delta_field(grid16, c)).data
    for off in ((3, 0, 0), (0, 4, 2), (5, 5, 5), (-6, 2, -3)):
        idx = tuple(c[i] + off[i] for i in range(3))
        r = grid16.spacing * np.linalg.norm(off)
        assert abs(out[idx] - fundamental_solution(k, r)) < 1e-12


@pytest.mark.parametrize("axis,high", [(a, h) for a in range(3) for h in (False, True)])
def test_resolvent_collar_guard(grid16, axis, high):
    for depth, violates in ((_COLLAR - 1, True), (_COLLAR, False)):
        data = np.zeros(grid16.dims)
        data[_face_cell(grid16, axis, high, depth)] = 1.0
        if violates:
            with pytest.raises(ConfigurationError, match="collar"):
                resolvent_apply(2.0, ScalarField(grid16, data))
        else:
            resolvent_apply(2.0, ScalarField(grid16, data))


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
    out = resolvent_apply(k, _delta_field(grid16, (8, 8, 8))).data
    for n in (3, 4, 5, 6):
        got = np.angle(out[8 + n, 8, 8])
        expect = np.angle(np.exp(1j * k * n * grid16.spacing))
        assert abs(np.exp(1j * got) - np.exp(1j * expect)) < 1e-10


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

@pytest.mark.parametrize("which", ["source", "potential"])
@pytest.mark.parametrize("axis,high", [(a, h) for a in range(3) for h in (False, True)])
def test_config_collar_guard(grid16, which, axis, high):
    for depth, violates in ((_COLLAR - 1, True), (_COLLAR, False)):
        data = np.zeros(grid16.dims)
        data[_face_cell(grid16, axis, high, depth)] = 1.0
        kwargs = {which: ScalarField(grid16, data)}
        if violates:
            with pytest.raises(ConfigurationError, match="collar"):
                ScatteringConfig(grid=grid16, k=2.0, **kwargs)
        else:
            ScatteringConfig(grid=grid16, k=2.0, **kwargs)


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


def test_solver_truncates_for_zero_potential(grid16):
    f = gaussian_bump_field(grid16, (0, 0, 0), 1.0, 0.15, cutoff_radii=3.0)
    cfg = ScatteringConfig(grid=grid16, k=3.0, source=f)
    u, rep = lippmann_schwinger_solve(cfg)
    assert rep.converged
    assert rep.update_norms[-1] <= 1e-14
    direct = ResolventOperator(grid16, 3.0).apply(f.data.astype(complex))
    assert np.max(np.abs(u.data - direct)) == 0.0


def test_solver_zero_rhs(grid16):
    cfg = ScatteringConfig(grid=grid16, k=2.0, alpha=0)
    u, rep = lippmann_schwinger_solve(cfg)
    assert np.all(u.data == 0.0) and rep.converged


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
    f_mask = np.zeros(g.dims, bool)
    q_mask = np.zeros(g.dims, bool)
    f_mask[6:12, 10:20, 10:20] = True
    q_mask[20:26, 10:20, 10:20] = True
    n = separating_normal(f_mask, q_mask)
    assert np.allclose(n, [1.0, 0, 0])
    assert np.allclose(separating_normal(q_mask, f_mask), [-1.0, 0, 0])
    overlap = np.zeros(g.dims, bool)
    overlap[10:22, 10:20, 10:20] = True
    with pytest.raises(ConfigurationError, match="separation|overlap"):
        separating_normal(f_mask, overlap)


def test_config_separation_check(grid32):
    mu_f = gaussian_bump_field(grid32, (-0.5, 0, 0), 1.0, 0.08, cutoff_radii=3.0)
    mu_q = gaussian_bump_field(grid32, (0.5, 0, 0), 1.0, 0.08, cutoff_radii=3.0)
    f = synthesize_migr(MigrSpec(order=2.5, strength=mu_f), 1)
    q = synthesize_migr(MigrSpec(order=3.5, strength=mu_q), 2)
    ff = band_sweep(grid32, f, q, [4.0], [[0, 0, 1.0]], "passive", seed=0)
    assert ff.values.shape == (1, 1) and np.isfinite(ff.values).all()
    n = separating_normal(f.field.data != 0, q.field.data != 0)
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
    assert v == ff.values[0, 0]


def test_band_sweep_error_annotation(grid16):
    q = gaussian_bump_field(grid16, (0, 0, 0), 500.0, 0.16, cutoff_radii=3.0)
    freqs = np.array([1.5, 2.0])
    dirs = np.array([[0, 0, 1.0]])
    with pytest.raises(SolverDivergenceError, match="k=1.5"):
        band_sweep(grid16, None, q, freqs, dirs, "active-backscatter", seed=1)


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
    assert back.meta["seed"] == 9
    assert abs(back.meta["delta"] - 0.5) < 1e-15


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


def test_farfieldset_load_rejects_unparsable_manifest(tmp_path):
    prefix = _saved_pair(tmp_path)
    manifest = prefix + ".manifest.txt"
    text = open(manifest).read()
    for good, bad in (("seed=3", "seed=None"), ("delta=0.5", "delta=half"),
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
