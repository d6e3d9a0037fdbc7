"""Acceptance suite: one test per criterion, each printing its measured values.

Criteria 1 and the end-to-end half of criterion 6 encode reconstruction error
bounds that sit far below the statistical floor of a single-realization band
average at desk scale (the floor scales like sqrt(coherence/bandwidth) of the
far-field speckle; see notes in the module docstrings). They are implemented
exactly as stated and are expected to fail honestly rather than be loosened.
"""

import time

import numpy as np
import pytest

import rscat
from rscat import (GridSpec, MigrSpec, ScatteringConfig, band_correlation,
                   band_sweep, direct_farfield, empirical_covariance,
                   gaussian_bump_field, ball_indicator_field,
                   incident_plane_wave, lippmann_schwinger_solve,
                   make_farfield_set, midpoint_mesh, nearfield_second_moment,
                   potential_kernel_integral, recover_potential_strength,
                   recover_source_strength, resolvent_point_values,
                   riesz_kernel, far_field)
from rscat.config import fibonacci_sphere
from rscat.forward import ResolventOperator, probe_traces
from rscat.recovery import PREFACTOR, IndependentPowerLawProcess, ergodic_diagnostic
from rscat import validate

UP = (0.0, 0.0, 1.0)


@pytest.mark.slow
def test_criterion_1_source_strength_recovery_end_to_end():
    """Full passive pipeline at the pinned configuration (64^3, K=20, one seed)."""
    t_start = time.time()
    A, s, m = 1.0, 0.15, 2.5
    grid = GridSpec.centered(64, 2.0 / 64)
    mu = gaussian_bump_field(grid, (0, 0, 0), A, s, cutoff_radii=4.0)
    spec = MigrSpec(order=m, strength=mu)
    K, n_terms = 20.0, 256
    delta = K / n_terms
    tau_step = 2 * delta
    tau_list = np.arange(0, 90) * tau_step          # reaches tau ~ 13.9
    freqs = midpoint_mesh(K, 2 * K + tau_list[-1], delta)
    dirs = fibonacci_sphere(64)
    ff = band_sweep(grid, spec, None, freqs, dirs, "passive", seed=20240817)
    report = recover_source_strength(ff, m, tau_list, None, K, grid=grid,
                                     ground_truth=mu)
    est = report.mu_hat.ravel()
    taus = np.tile(report.taus, report.mu_hat.shape[0])
    target = A * s ** 3 * np.exp(-s ** 2 * taus ** 2 / 2.0)
    lattice_err = np.linalg.norm(est - target) / np.linalg.norm(target)
    runtime = time.time() - t_start
    print(f"criterion 1: lattice rel_l2 = {lattice_err:.3f} (<= 0.20), "
          f"mu_rec rel_l2 = {report.rel_l2_error:.3f} (<= 0.25), "
          f"runtime = {runtime:.0f}s (<= 900s)")
    assert runtime <= 900.0
    assert lattice_err <= 0.20
    assert report.rel_l2_error <= 0.25


def test_criterion_2_prefactor_constant():
    K, n_terms = 16.0, 256
    delta = K / n_terms
    freqs = midpoint_mesh(K, 2 * K + 1.0, delta)
    ones = make_farfield_set([UP], freqs, np.ones((1, len(freqs)), complex))
    values, _ = band_correlation(ones, 0.0, [0.0, 0.5, 1.0], K)
    worst = float(np.max(np.abs(values - PREFACTOR)))
    m = 2.5
    power = make_farfield_set([UP], freqs, (freqs ** (-m / 2.0))[None, :])
    v2 = band_correlation(power, m, [0.0], K)[0][0, 0]
    print(f"criterion 2: |const - 4 sqrt(2 pi)| = {worst:.2e} (<= 1e-10), "
          f"power-law deviation = {abs(v2 - PREFACTOR):.2e} (<= 1e-6)")
    assert worst <= 1e-10
    assert abs(v2 - PREFACTOR) <= 1e-6


@pytest.mark.slow
def test_criterion_3_covariance_ground_truth():
    grid = GridSpec.centered(64, 3.0 / 64)
    h = grid.spacing
    mu = ball_indicator_field(grid, (0, 0, 0), 0.8, 1.0)
    spec = MigrSpec(order=2.0, strength=mu)
    # base points on a fixed golden spiral filling the constant-strength core;
    # pair products at distinct bases are nearly independent, so wide
    # averaging beats the large single-pair product noise
    gold = np.pi * (3.0 - np.sqrt(5.0))
    bases = []
    for i in range(24):
        z = 1.0 - 2.0 * (i + 0.5) / 24
        rho = np.sqrt(1 - z * z)
        rad = 0.44 * ((i % 3) + 1) / 3.0
        bases.append((rad * rho * np.cos(gold * i), rad * rho * np.sin(gold * i), rad * z))
    axis_dirs = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    rt2 = np.sqrt(2.0)
    diag_dirs = [(1 / rt2, 1 / rt2, 0), (1 / rt2, -1 / rt2, 0), (1 / rt2, 0, 1 / rt2),
                 (1 / rt2, 0, -1 / rt2), (0, 1 / rt2, 1 / rt2), (0, 1 / rt2, -1 / rt2)]
    # cell-aligned separations spanning [0.15, 0.4]
    groups = [(3 * h * rt2, diag_dirs), (5 * h, axis_dirs),
              (4 * h * rt2, diag_dirs), (7 * h, axis_dirs)]
    pairs = []
    for r, dirs_r in groups:
        for b in bases:
            for d in dirs_r:
                pairs.append((tuple(b[i] - d[i] * r / 2 for i in range(3)),
                              tuple(b[i] + d[i] * r / 2 for i in range(3))))
    ests = empirical_covariance(spec, pairs, 2000, 31415)
    worst = 0.0
    pos = 0
    for r, dirs_r in groups:
        n_per = len(bases) * len(dirs_r)
        grp = ests[pos:pos + n_per]
        pos += n_per
        est = np.mean([e.value for e in grp])
        target = 1.0 / (4.0 * np.pi * r)
        rel = abs(est / target - 1.0)
        worst = max(worst, rel)
        oracle = riesz_kernel(2.0, r)
        assert abs(oracle / target - 1.0) <= 0.005
        print(f"criterion 3: r={r:.4f} est={est:.4f} target={target:.4f} "
              f"rel={rel * 100:.1f}% (<= 10%)")
    assert worst <= 0.10


def test_criterion_4_ergodic_convergence_law():
    proc = IndependentPowerLawProcess(1.0, 0.0)
    K = 8.0
    bands = [(K, K / 32), (K, K / 128), (K, K / 512)]
    rows = ergodic_diagnostic(proc, 0.0, 0.0, bands, n_rep=50, seed0=11,
                              known_mean=PREFACTOR)
    ok = True
    for coarse, fine in zip(rows, rows[1:]):
        ratio = fine.spread / coarse.spread
        print(f"criterion 4: mesh x4 ({coarse.n_terms} -> {fine.n_terms}) "
              f"RMS ratio = {ratio:.3f} (in [0.35, 0.65])")
        ok &= 0.35 <= ratio <= 0.65
    assert ok


@pytest.mark.slow
def test_criterion_5_nearfield_universal_constant():
    grid = GridSpec.centered(64, 2.0 / 64)
    m = 2.5
    configs = {
        "A": dict(center=(-0.30, 0.0, 0.0), amplitude=1.0, width=0.13, seed=501),
        "B": dict(center=(0.30, 0.0, 0.0), amplitude=2.3, width=0.15, seed=907),
    }
    probe_offsets = np.array([
        (0.62, 0.0, 0.0), (0.55, 0.28, 0.0), (0.55, -0.28, 0.0),
        (0.62, 0.0, 0.30), (0.55, 0.0, -0.30), (0.70, 0.15, 0.15),
        (0.62, -0.15, 0.26), (0.70, -0.15, -0.15),
    ])
    ks = midpoint_mesh(1.0, 60.0, 0.5)
    ratios = {}
    for name, c in configs.items():
        sign = 1.0 if name == "A" else -1.0
        mu = gaussian_bump_field(grid, c["center"], c["amplitude"], c["width"],
                                 cutoff_radii=3.5)
        spec = MigrSpec(order=m, strength=mu)
        realization = rscat.synthesize_migr(spec, c["seed"])
        probes = [tuple(np.asarray(c["center"]) + sign * off) for off in probe_offsets]
        cells = [grid.nearest_cell(p) for p in probes]
        # the traces are read at the cell centres, so the oracle is evaluated there
        centres = np.asarray(grid.origin) + grid.spacing * np.asarray(cells)
        traces = probe_traces(grid, realization, None, ks, cells)
        est = np.mean([nearfield_second_moment(zip(ks, trace), m) for trace in traces])
        orc = np.mean([potential_kernel_integral(spec.strength, x) for x in centres])
        ratios[name] = est / orc
        print(f"criterion 5: config {name}: estimate/oracle = {ratios[name]:.4f}")
    agreement = abs(ratios["A"] / ratios["B"] - 1.0)
    print(f"criterion 5: cross-config ratio agreement = {agreement * 100:.1f}% (<= 15%)")
    assert agreement <= 0.15


@pytest.mark.slow
def test_criterion_6_potential_recovery():
    # (a) deterministic potential: Born backscatter correlation vs quadrature
    grid32 = GridSpec.centered(32, 2.0 / 32)
    q = gaussian_bump_field(grid32, (0, 0, 0), 0.02, 0.18, cutoff_radii=4.0)
    K, n_terms = 8.0, 32
    delta = K / n_terms
    tau = 8 * delta
    freqs = midpoint_mesh(K, 2 * K + tau / 2, delta)
    dirs = np.array([UP, [0.8, 0.0, 0.6]])
    ff = band_sweep(grid32, None, q, freqs, dirs, "active-backscatter",
                    seed=3, tol=1e-12)
    kj = K + (np.arange(n_terms) + 0.5) * delta
    worst = 0.0
    for i, d in enumerate(dirs):
        row = ff.values[i]
        corr = np.conj(row[ff.freq_indices(kj)]) * row[ff.freq_indices(kj + tau / 2)]
        oracle = np.array([
            np.conj(direct_farfield(q, 2 * k, d)) * direct_farfield(q, 2 * k + tau, d)
            for k in kj
        ])
        worst = max(worst, float(np.max(np.abs(corr - oracle)) / np.max(np.abs(oracle))))
    print(f"criterion 6a: Born correlation vs quadrature deviation = "
          f"{worst * 100:.2f}% (<= 1%)")
    assert worst <= 0.01

    # (b) end-to-end strength recovery from active backscatter at the desk band
    grid = GridSpec.centered(64, 2.0 / 64)
    m_q, s_q = 3.5, 0.26
    mu_q = gaussian_bump_field(grid, (0, 0, 0), 0.5, s_q, cutoff_radii=3.0)
    spec_q = MigrSpec(order=m_q, strength=mu_q)
    K, n_terms = 16.0, 16
    delta = K / n_terms
    tau_list = np.arange(0, 6) * 2.0 * delta
    freqs = midpoint_mesh(K, 2 * K + tau_list[-1] / 2, delta)
    dirs = fibonacci_sphere(12)
    ff = band_sweep(grid, None, spec_q, freqs, dirs, "active-backscatter",
                    seed=60218, tol=1e-4)
    report = recover_potential_strength(ff, m_q, tau_list, None, K, grid=grid,
                                        ground_truth=mu_q)
    print(f"criterion 6b: end-to-end mu_rec rel_l2 = {report.rel_l2_error:.3f} (<= 0.25)")
    assert report.rel_l2_error <= 0.25


@pytest.mark.slow
def test_criterion_7_forward_solver_correctness():
    # Born residual in the contraction regime
    grid32 = GridSpec.centered(32, 2.0 / 32)
    q = gaussian_bump_field(grid32, (0, 0, 0), 3.0, 0.15, cutoff_radii=3.0)
    cfg = ScatteringConfig(grid=grid32, k=4.0, alpha=1, incident_dir=UP,
                           potential=q, tol=1e-10, max_born_order=60)
    u, rep = lippmann_schwinger_solve(cfg)
    op = ResolventOperator(grid32, 4.0)
    u_in = incident_plane_wave(4.0, UP, grid32).data
    rhs = op.apply(q.data * u_in)
    resid = np.linalg.norm(u.data - rhs - op.apply(q.data * u.data)) / np.linalg.norm(u.data)
    print(f"criterion 7: Born fixed-point residual = {resid:.2e} (<= 1e-8)")
    assert resid <= 1e-8

    # far field against direct point evaluation at R = 50 diam
    s = 0.12
    f = gaussian_bump_field(grid32, (0.05, 0, 0), 1.0, s, cutoff_radii=4.0)
    k = 6.0
    cfg = ScatteringConfig(grid=grid32, k=k, source=f)
    u_sc, _ = lippmann_schwinger_solve(cfg)
    R = 50.0 * (8 * s)
    worst = 0.0
    for xhat in ([1.0, 0, 0], [0, 0.6, 0.8], [-0.6, 0, 0.8]):
        xhat = np.asarray(xhat)
        uinf = far_field(cfg, u_sc, [xhat])[0]
        upoint = resolvent_point_values(f, k, [R * xhat])[0]
        worst = max(worst, abs(R * np.exp(-1j * k * R) * upoint - uinf) / abs(uinf))
    print(f"criterion 7: far-field vs point evaluation at 50 diam = "
          f"{worst * 100:.2f}% (<= 2%)")
    assert worst <= 0.02

    # resolvent PDE residual at h <= wavelength/10
    g64 = GridSpec.centered(64, 4.0 / 64)
    k = 2.0
    assert g64.spacing <= (2 * np.pi / k) / 10.0
    phi = gaussian_bump_field(g64, (0, 0, 0), 1.0, 0.25, cutoff_radii=3.0)
    u = ResolventOperator(g64, k).apply(phi.data.astype(complex))
    h = g64.spacing
    lap = (np.roll(u, 1, 0) + np.roll(u, -1, 0) + np.roll(u, 1, 1)
           + np.roll(u, -1, 1) + np.roll(u, 1, 2) + np.roll(u, -1, 2) - 6 * u) / h ** 2
    sl = (slice(2, -2),) * 3
    err = np.linalg.norm(((-lap - k * k * u) - phi.data)[sl]) / np.linalg.norm(phi.data[sl])
    print(f"criterion 7: resolvent PDE residual = {err * 100:.2f}% (<= 2%)")
    assert err <= 0.02


def test_criterion_8_invariant_suites():
    ok = validate.run_all()
    print(f"criterion 8: invariant suite {'passed' if ok else 'FAILED'}")
    assert ok
