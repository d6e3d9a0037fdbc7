"""The four benchmark workloads, shaped like the acceptance pipelines.

Each workload builds its inputs (grid, strength, ``MigrSpec``, directions,
frequency mesh) in ``__init__``; that is the set-up. ``run(seed)`` is one
timed pipeline run on a realization drawn from ``seed``. ``accuracy`` turns
one run's output into the workload's relative L2 error against its ground
truth, and ``checks`` compares one run's output with the independent
oracles in ``rscat.oracles``. Library calls go through module attributes
(``forward.band_sweep``), so a traced run sees them.

Sizes keep the acceptance grids (64^3, 32^3 for the backscatter demo) and
trim direction, frequency and realization counts so that one run takes a
few seconds and many fit in one measured interval. ``tiny=True`` halves
the 64^3 grids and cuts the counts further, for the smoke test.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from rscat import forward, migr, oracles, recovery
from rscat.config import fibonacci_sphere
from rscat.fields import GridSpec


def _rel(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _check(name, value, limit):
    return {"name": name, "value": float(value), "limit": float(limit),
            "ok": bool(value <= limit)}


class PassiveRecovery:
    """Criterion 1: passive band sweep, far-field file round trip, source recovery."""

    name = "passive_recovery"
    reference_seed = 20240817          # the criterion-1 test seed

    def __init__(self, tiny, workdir: Path):
        n = 32 if tiny else 64
        self.grid = GridSpec.centered(n, 2.0 / n)
        self.m = 2.5
        self.mu = migr.gaussian_bump_field(self.grid, (0, 0, 0), 1.0, 0.15, cutoff_radii=4.0)
        self.spec = migr.MigrSpec(order=self.m, strength=self.mu)
        self.K = 20.0
        delta = self.K / 256
        self.taus = np.arange(0, 4 if tiny else 90) * 2 * delta
        self.freqs = recovery.midpoint_mesh(self.K, 2 * self.K + self.taus[-1], delta)
        self.dirs = fibonacci_sphere(4 if tiny else 16)
        self.prefix = str(workdir / "passive")

    @property
    def samples(self):
        return self.dirs.shape[0] * len(self.freqs)

    def run(self, seed):
        ff = forward.band_sweep(self.grid, self.spec, None, self.freqs, self.dirs,
                                "passive", seed=seed)
        ff.save(self.prefix + "_sweep")
        ff = forward.FarFieldSet.load(self.prefix + "_sweep")
        report = recovery.recover_source_strength(ff, self.m, self.taus, None, self.K,
                                                  grid=self.grid, ground_truth=self.mu)
        report.save(self.prefix + "_rec")
        return seed, ff, report

    def accuracy(self, out):
        return out[2].rel_l2_error

    def checks(self, out):
        seed, ff, _ = out
        # band_sweep draws the source from the first child of the sweep seed
        child = np.random.SeedSequence(int(seed)).generate_state(2, np.uint64)
        field = migr.synthesize_migr(self.spec, int(child[0])).field
        nd, nk = ff.values.shape
        worst = 0.0
        for d, j in ((0, 0), (nd // 2, nk // 2), (nd - 1, nk - 1)):
            want = oracles.direct_farfield(field, ff.freqs[j], ff.dirs[d])
            scale = float(np.sqrt(np.mean(np.abs(ff.values[d]) ** 2)))
            worst = max(worst, abs(ff.values[d, j] - want) / scale)
        return [_check("passive.far_field_vs_direct_sum", worst, 1e-9)]


class BackscatterBorn:
    """configs/backscatter_demo.ini physics: active backscatter sweep and potential recovery."""

    name = "backscatter_born"
    reference_seed = 11                # the demo config seed

    def __init__(self, tiny, workdir: Path):
        self.grid = GridSpec.centered(32, 0.0625)
        self.m = 3.5
        self.mu = migr.gaussian_bump_field(self.grid, (0, 0, 0), 0.3, 0.22, cutoff_radii=3.0)
        self.spec = migr.MigrSpec(order=self.m, strength=self.mu)
        self.K, delta = 8.0, 0.5
        self.taus = np.arange(0, 2 if tiny else 5) * 2 * delta
        self.freqs = recovery.midpoint_mesh(self.K, 2 * self.K + self.taus[-1] / 2, delta)
        self.dirs = fibonacci_sphere(1 if tiny else 2)
        self.tol, self.max_born_order = 1e-8, 30

    @property
    def samples(self):
        return self.dirs.shape[0] * len(self.freqs)

    def run(self, seed):
        ff = forward.band_sweep(self.grid, None, self.spec, self.freqs, self.dirs,
                                "active-backscatter", seed=seed, tol=self.tol,
                                max_born_order=self.max_born_order)
        report = recovery.recover_potential_strength(ff, self.m, self.taus, None, self.K,
                                                     grid=self.grid, ground_truth=self.mu)
        return seed, ff, report

    def accuracy(self, out):
        return out[2].rel_l2_error

    def checks(self, out):
        seed, ff, _ = out
        # band_sweep draws the potential from the second child of the sweep seed
        child = np.random.SeedSequence(int(seed)).generate_state(2, np.uint64)
        q = migr.synthesize_migr(self.spec, int(child[1]))
        d, j = 0, len(ff.freqs) - 1
        k, xhat = float(ff.freqs[j]), ff.dirs[d]
        cfg = forward.ScatteringConfig(grid=self.grid, k=k, alpha=1, incident_dir=tuple(-xhat),
                                       potential=q, tol=self.tol,
                                       max_born_order=self.max_born_order)
        u, _ = forward.lippmann_schwinger_solve(cfg)
        op = forward.ResolventOperator(self.grid, k)
        qd = q.field.data
        u_in = forward.incident_plane_wave(k, tuple(-xhat), self.grid).data
        resid = float(np.linalg.norm(u.data - op.apply(qd * u_in) - op.apply(qd * u.data))
                      / np.linalg.norm(u.data))
        sample = forward.far_field(cfg, u, [xhat])[0]
        return [
            _check("backscatter.born_fixed_point_residual", resid, 1e-6),
            _check("backscatter.sample_reproduced",
                   abs(sample - ff.values[d, j]) / abs(sample), 1e-9),
        ]


class NearfieldMoments:
    """Criterion 5, config A: one build and one apply per frequency, probe second moments."""

    name = "nearfield_moments"
    reference_seed = 501               # the criterion-5 config-A seed
    _offsets = np.array([
        (0.62, 0.0, 0.0), (0.55, 0.28, 0.0), (0.55, -0.28, 0.0),
        (0.62, 0.0, 0.30), (0.55, 0.0, -0.30), (0.70, 0.15, 0.15),
        (0.62, -0.15, 0.26), (0.70, -0.15, -0.15),
    ])

    def __init__(self, tiny, workdir: Path):
        n = 32 if tiny else 64
        self.grid = GridSpec.centered(n, 2.0 / n)
        self.m = 2.5
        center = np.array([-0.30, 0.0, 0.0])
        self.mu = migr.gaussian_bump_field(self.grid, center, 1.0, 0.13, cutoff_radii=3.5)
        self.spec = migr.MigrSpec(order=self.m, strength=self.mu)
        self.cells = [self.grid.nearest_cell(center + off) for off in self._offsets]
        self.points = [np.asarray(self.grid.origin) + self.grid.spacing * np.asarray(c)
                       for c in self.cells]
        self.ks = recovery.midpoint_mesh(1.0, 30.0, 29.0 / (2 if tiny else 6))

    @property
    def samples(self):
        return len(self.cells) * len(self.ks)

    def run(self, seed):
        real = migr.synthesize_migr(self.spec, seed)
        traces = np.empty((len(self.cells), len(self.ks)), dtype=np.complex128)
        for j, k in enumerate(self.ks):
            op = forward.ResolventOperator(self.grid, float(k))
            cfg = forward.ScatteringConfig(grid=self.grid, k=float(k), source=real)
            u, _ = forward.lippmann_schwinger_solve(cfg, op)
            for i, cell in enumerate(self.cells):
                traces[i, j] = u.data[cell]
        moments = np.array([recovery.nearfield_second_moment(list(zip(self.ks, row)), self.m)
                            for row in traces])
        return real, traces, moments

    def accuracy(self, out):
        """Misfit of the probe moments to the best multiple of the Newtonian potential."""
        moments = out[2]
        pot = np.array([oracles.potential_kernel_integral(self.mu, p)
                        for p in self.points])
        c = float(moments @ pot / (pot @ pot))
        return _rel(c * pot, moments)

    def checks(self, out):
        real, traces, _ = out
        j = len(self.ks) // 2
        want = oracles.resolvent_point_values(real.field, float(self.ks[j]), [self.points[0]])[0]
        return [_check("nearfield.probe_vs_direct_sum", abs(traces[0, j] - want) / abs(want), 1e-8)]


class CovarianceEnsemble:
    """Criterion 3 shape: ensemble covariance of an m = 2 field at 432 point pairs."""

    name = "covariance_ensemble"
    reference_seed = 31415             # the criterion-3 seed0

    def __init__(self, tiny, workdir: Path):
        n = 32 if tiny else 64
        self.grid = GridSpec.centered(n, 3.0 / n)
        h = self.grid.spacing
        mu = migr.ball_indicator_field(self.grid, (0, 0, 0), 0.8, 1.0)
        self.spec = migr.MigrSpec(order=2.0, strength=mu)
        self.n_samples = 20 if tiny else 60
        # criterion 3's point set: 24 base points on a golden spiral inside the
        # constant-strength core, cell-aligned separations in 4 groups
        gold = np.pi * (3.0 - np.sqrt(5.0))
        bases = []
        for i in range(24):
            z = 1.0 - 2.0 * (i + 0.5) / 24
            rho = np.sqrt(1 - z * z)
            rad = 0.44 * ((i % 3) + 1) / 3.0
            bases.append(rad * np.array((rho * np.cos(gold * i), rho * np.sin(gold * i), z)))
        rt2 = np.sqrt(2.0)
        axis_dirs = np.eye(3)
        diag_dirs = np.array([(1, 1, 0), (1, -1, 0), (1, 0, 1),
                              (1, 0, -1), (0, 1, 1), (0, 1, -1)]) / rt2
        self.groups = []
        self.pairs = []
        for r, dirs in ((3 * h * rt2, diag_dirs), (5 * h, axis_dirs),
                        (4 * h * rt2, diag_dirs), (7 * h, axis_dirs)):
            start = len(self.pairs)
            self.pairs += [(tuple(b - d * r / 2), tuple(b + d * r / 2))
                           for b in bases for d in dirs]
            self.groups.append(slice(start, len(self.pairs)))
        self.n_bases = len(bases)
        self._oracle = None

    @property
    def samples(self):
        return self.n_samples

    def run(self, seed):
        return migr.empirical_covariance(self.spec, self.pairs, self.n_samples, seed)

    def oracle(self):
        """Riesz-kernel covariance at each pair's cell-center separation."""
        if self._oracle is None:
            g = self.grid
            seps = [round(g.spacing * math.dist(g.nearest_cell(x), g.nearest_cell(y)), 12)
                    for x, y in self.pairs]
            table = {r: oracles.riesz_kernel(2.0, r) for r in set(seps)}
            self._oracle = np.array([table[r] for r in seps])
        return self._oracle

    def accuracy(self, out):
        return _rel([e.value for e in out], self.oracle())

    def checks(self, out):
        est = np.array([e.value for e in out])
        se = np.array([e.std_error for e in out])
        orc = self.oracle()
        result = []
        for gi, sl in enumerate(self.groups):
            # pairs at one base share their points, so only the 24 bases count
            # as independent; 10% is criterion 3's allowance for grid bias
            stat_se = float(np.mean(se[sl])) / np.sqrt(self.n_bases)
            excess = abs(est[sl].mean() - orc[sl].mean()) - 0.10 * orc[sl].mean()
            result.append(_check(f"covariance.group{gi}_z_score", max(excess, 0.0) / stat_se, 4.0))
        return result


WORKLOADS = {w.name: w for w in (PassiveRecovery, BackscatterBorn, NearfieldMoments,
                                 CovarianceEnsemble)}
