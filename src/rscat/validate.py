"""Built-in invariant suite: fast oracle cross-checks runnable from the CLI.

Each check returns (passed, detail); ``CHECKS`` names them. The suite
certifies the three transforms the pipeline runs (the real pair behind
synthesis and ``spectral_slope``, with its inverse onto a box and onto
per-axis index arrays, the
resolvent's padded pair with its DCT-I kernel spectrum, and the phase
convention of the strength reconstruction, with its inverse from a block of
per-axis rows), container roundtrips,
synthesis support/reality/symmetry/scaling, kernel anchors, the
resolvent's bilinear symmetry between boxes, solver identities, dual-path far fields of a real and a complex density (one
frequency at a time and over a band of two chunks), estimator
positivity and scaling, and hemisphere completion against the full-sphere
reconstruction.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from . import oracles
from .errors import FieldFormatError
from .fields import (ComplexField, GridSpec, ScalarField, _cropped_ifftn, _even_lattice,
                     _even_spectrum, _irfftn, _padded_fftn, _rfftn)
from .forward import (ResolventOperator, ScatteringConfig, _chunk_length, far_field,
                      fundamental_solution, incident_plane_wave,
                      lippmann_schwinger_solve)
from .migr import MigrSpec, empirical_covariance, gaussian_bump_field, synthesize_migr
from .recovery import (band_correlation, hermitian_complete, make_farfield_set,
                       _assemble_report, _inverse_strength_transform)
from .rsgf import read_field, write_field

_G16 = GridSpec.centered(16, 2.0 / 16)


def _bump_spec(grid=_G16, m=2.5, amplitude=1.0, width=0.14):
    mu = gaussian_bump_field(grid, (0.0, 0.0, 0.0), amplitude, width, cutoff_radii=3.0)
    return MigrSpec(order=m, strength=mu)


def check_real_transform_pair():
    rng = np.random.default_rng(11)
    data = rng.standard_normal(_G16.dims)
    spec = _rfftn(data)
    # _irfftn overwrites its input, so each inverse takes its own copy
    back = _irfftn(spec.copy(), _G16.dims)
    if back.shape != data.shape:
        return False, f"round trip gave shape {back.shape}, not {data.shape}"
    norm = np.linalg.norm(data)
    r1 = np.linalg.norm(back - data) / norm
    # an interior plane of the half lattice's last axis stands for its mirror too
    weight = np.full(spec.shape[-1], 2.0)
    weight[[0, -1]] = 1.0
    r2 = abs(np.sqrt(np.sum(weight * np.abs(spec) ** 2)) - norm) / norm
    # on a non-cubic lattice, the inverse onto an off-centre box is the crop of
    # the whole inverse, and the inverse onto per-axis index arrays (both ends,
    # one index, gaps) is their np.ix_ gather
    dims = (8, 16, 32)
    box = (slice(1, 5), slice(9, 15), slice(3, 28))
    picks = (np.array([0, 3, 4, 7]), np.array([6]), np.array([0, 1, 5, 17, 30, 31]))
    half = _rfftn(rng.standard_normal(dims))
    whole = _irfftn(half.copy(), dims)
    r3, r4 = (np.linalg.norm(_irfftn(half.copy(), dims, keep) - want) / np.linalg.norm(want)
              for keep, want in ((box, whole[box]), (picks, whole[np.ix_(*picks)])))
    ok = r1 < 1e-12 and r2 < 1e-12 and r3 < 1e-12 and r4 < 1e-12
    return ok, (f"roundtrip {r1:.2e}, half-lattice Parseval drift {r2:.2e}, "
                f"box inverse {r3:.2e}, index-array inverse {r4:.2e}")


def check_resolvent_transform_pair():
    # an even kernel on a 12 x 10 x 16 lattice, and a block placed so it wraps on every axis
    rng = np.random.default_rng(12)
    octant = rng.standard_normal((7, 6, 9))
    block = rng.standard_normal((5, 4, 6)) + 1j * rng.standard_normal((5, 4, 6))
    offset, dims = (9, 8, 13), (6, 5, 7)
    kernel_hat = _even_spectrum(octant)
    padded = _even_lattice(kernel_hat)
    got = _cropped_ifftn(_padded_fftn(block, padded, offset), dims, kernel_hat)
    idx = [np.minimum(np.arange(p), p - np.arange(p)) for p in padded]
    kernel = octant[np.ix_(*idx)]
    ref = np.zeros(padded, dtype=np.complex128)
    for j in np.ndindex(block.shape):
        cell = tuple((o + i) % p for o, i, p in zip(offset, j, padded))
        ref += block[j] * np.roll(kernel, cell, axis=(0, 1, 2))
    ref = ref[: dims[0], : dims[1], : dims[2]]
    err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
    return err < 1e-12, f"padded pair vs circular convolution {err:.2e}"


def check_reconstruction_phase():
    # the spectrum of a point at cell c inverts to that cell alone
    c = (3, 10, 12)
    ph = [_G16.axis_frequencies(a) * _G16.axis_coords(a)[c[a]] for a in range(3)]
    spec = np.exp(-1j * (ph[0][:, None, None] + ph[1][None, :, None] + ph[2][None, None, :]))
    dxi3 = np.prod([2.0 * np.pi / (n * _G16.spacing) for n in _G16.dims])
    expect = np.zeros(_G16.dims)
    expect[c] = (2.0 * np.pi) ** -1.5 * dxi3 * _G16.n_cells
    got = _inverse_strength_transform(spec, tuple(np.arange(n) for n in _G16.dims), _G16)
    r1 = np.max(np.abs(got - expect)) / expect[c]
    # on a non-cubic grid, a spectrum given on rows (both ends of each axis,
    # gaps) inverts as its zero fill on the whole lattice
    g = GridSpec((8, 16, 32), (0.1, -0.2, 0.3), 0.125)
    rows = (np.array([0, 1, 2, 6, 7]), np.array([0, 3, 4, 15]), np.array([0, 1, 2, 17, 30, 31]))
    rng = np.random.default_rng(15)
    shape = tuple(len(r) for r in rows)
    block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    filled = np.zeros(g.dims, dtype=np.complex128)
    filled[np.ix_(*rows)] = block
    want = _inverse_strength_transform(filled, tuple(np.arange(n) for n in g.dims), g)
    r2 = np.max(np.abs(_inverse_strength_transform(block, rows, g) - want)) / np.max(np.abs(want))
    return r1 < 1e-12 and r2 < 1e-12, (f"point spectrum inverts to its cell, error {r1:.2e}; "
                                       f"rows inverse vs zero fill {r2:.2e}")


def check_rsgf_roundtrip():
    rng = np.random.default_rng(13)
    g = GridSpec.centered(8, 0.25)
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "f.rsgf")
        for _ in range(32):
            f = ScalarField(g, rng.standard_normal(g.dims))
            write_field(path, f)
            back = read_field(path)
            if back.data.tobytes() != f.data.tobytes():
                return False, "payload bytes changed in roundtrip"
        write_field(path, ScalarField(g, rng.standard_normal(g.dims)))
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[:-8])
        try:
            read_field(path)
            return False, "truncated file was accepted"
        except FieldFormatError:
            pass
    return True, "bit-exact roundtrips, truncation rejected"


def check_synthesis_support_reality():
    spec = _bump_spec()
    r1 = synthesize_migr(spec, 42)
    r2 = synthesize_migr(spec, 42)
    if r1.field.data.tobytes() != r2.field.data.tobytes():
        return False, "same (spec, seed) produced different bytes"
    outside = ~spec.strength.support_mask()
    if np.any(r1.field.data[outside] != 0.0):
        return False, "realization leaks outside the strength support"
    return True, "deterministic, supported, real"


def check_covariance_symmetry_scaling():
    spec1 = _bump_spec(amplitude=1.0)
    spec2 = _bump_spec(amplitude=2.0)
    x, y = (0.05, 0.0, 0.0), (-0.05, 0.05, 0.0)
    e_xy = empirical_covariance(spec1, [(x, y), (y, x)], 200, 7)
    if abs(e_xy[0].value - e_xy[1].value) > 3.0 * (e_xy[0].std_error + e_xy[1].std_error) + 1e-12:
        return False, "covariance estimates not symmetric in (x, y)"
    c1 = empirical_covariance(spec1, [(x, x)], 200, 7)[0]
    c2 = empirical_covariance(spec2, [(x, x)], 200, 7)[0]
    ratio = c2.value / c1.value
    ok = 1.8 <= ratio <= 2.2
    return ok, f"doubling strength scaled covariance by {ratio:.3f}"


def check_riesz_anchor():
    errs = []
    for r in (0.2, 0.35):
        v = oracles.riesz_kernel(2.0, r)
        errs.append(abs(v * 4.0 * np.pi * r - 1.0))
    v1 = oracles.riesz_kernel(2.5, 0.3)
    v2 = oracles.riesz_kernel(2.5, 0.6)
    hom = abs(v2 / v1 - 2.0 ** (2.5 - 3.0))
    ok = max(errs) < 5e-3 and hom < 1e-3
    return ok, f"closed-form error {max(errs):.2e}, homogeneity drift {hom:.2e}"


def check_resolvent_point_response():
    g = _G16
    k = 3.0
    data = np.zeros(g.dims)
    c = (8, 8, 8)
    data[c] = 1.0 / g.cell_volume
    out = ResolventOperator(g, k).apply(data)
    xs, ys, zs = g.coords()
    errs = []
    for off in ((3, 0, 0), (0, 4, 2), (5, 5, 5)):
        idx = tuple(c[i] + off[i] for i in range(3))
        r = np.linalg.norm([xs[idx[0]] - xs[c[0]], ys[idx[1]] - ys[c[1]], zs[idx[2]] - zs[c[2]]])
        errs.append(abs(out[idx] - fundamental_solution(k, r)))
    ok = max(errs) < 1e-12
    return ok, f"point response error {max(errs):.2e}"


def check_outgoing_phase():
    g = _G16
    k = 4.0
    data = np.zeros(g.dims)
    data[8, 8, 8] = 1.0 / g.cell_volume
    out = ResolventOperator(g, k).apply(data)
    drift = []
    for n in (3, 4, 5, 6):
        r = n * g.spacing
        expect = k * r
        got = np.angle(out[8 + n, 8, 8]) % (2 * np.pi)
        drift.append(abs(np.exp(1j * got) - np.exp(1j * expect)))
    ok = max(drift) < 1e-10
    return ok, f"outgoing phase drift {max(drift):.2e}"


def check_resolvent_symmetry():
    # sum a R b = sum (R a) b, bilinear: the property behind the 2n+1 backscatter far field
    g = GridSpec((16, 32, 16), (0.0, 0.0, 0.0), 0.125)
    rng = np.random.default_rng(14)
    op = ResolventOperator(g, 3.0)
    # disjoint boxes of different shapes (a source box and q's box), an
    # overlapping pair, and one box to itself
    pairs = [(((1, 4), (2, 9), (3, 5)), ((7, 12), (5, 7), (4, 10))),
             (((2, 8), (3, 12), (1, 9)), ((5, 11), (6, 14), (4, 6))),
             (((4, 9), (4, 12), (3, 8)),) * 2]
    errs = []
    for box_a, box_b in pairs:
        a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                for shape in ([hi - lo + 1 for lo, hi in box] for box in (box_a, box_b)))
        lhs = np.sum(a * op.apply(b, box_b, box_a))
        rhs = np.sum(op.apply(a, box_a, box_b) * b)
        errs.append(abs(lhs - rhs) / abs(rhs))
    return max(errs) < 1e-12, f"bilinear defect over {len(pairs)} box pairs {max(errs):.2e}"


def check_solver_truncation():
    g = _G16
    f = gaussian_bump_field(g, (0.0, 0.0, 0.0), 1.0, 0.15, cutoff_radii=3.0)
    cfg = ScatteringConfig(grid=g, k=3.0, source=f)
    u, rep = lippmann_schwinger_solve(cfg)
    ok = rep.update_norms[-1] <= 1e-14
    zero_cfg = ScatteringConfig(grid=g, k=3.0)
    u0, _ = lippmann_schwinger_solve(zero_cfg)
    ok = ok and float(np.max(np.abs(u0.data))) == 0.0
    return ok, f"truncation update {rep.update_norms[-1]:.1e}, zero RHS stays zero"


def check_farfield_dual_path():
    g = _G16
    # a 7 x 8 x 7 support box: the fold meets odd axes, with a middle cell, and an even one
    f = gaussian_bump_field(g, (0.1, 0.0, -0.1), 1.0, 0.15, cutoff_radii=3.0)
    shape = tuple(hi - lo + 1 for lo, hi in f.support_box)
    # a complex density whose imaginary part is no multiple of its real part
    fc = ComplexField(g, f.data * np.exp(5j * g.axis_coords(0))[:, None, None])
    dirs = np.array([[1.0, 0, 0], [0, 0.6, 0.8], [-1 / np.sqrt(3)] * 3])
    # a band one chunk and two frequencies long, read at its ends and around
    # the chunk boundary
    chunk = _chunk_length(f.support_box, len(dirs))
    freqs = 3.0 + 1e-3 * np.arange(chunk + 2)
    picks = [0, chunk - 1, chunk, chunk + 1]
    errs = []
    for src in (f, fc):
        slow = np.array([[oracles.direct_farfield(src, freqs[j], d) for j in picks] for d in dirs])
        band = far_field(ScatteringConfig(grid=g, k=3.0, source=src), None, dirs, freqs)[:, picks]
        single = np.array([far_field(ScatteringConfig(grid=g, k=freqs[j], source=src), None, dirs)
                           for j in picks]).T
        errs.extend(np.max(np.abs(fast - slow)) / np.max(np.abs(slow)) for fast in (single, band))
    detail = (f"folded sum vs direct summation on a {'x'.join(map(str, shape))} box at "
              f"{len(picks)} of {len(freqs)} frequencies (chunk {chunk}): "
              f"real {max(errs[:2]):.2e}, complex {max(errs[2:]):.2e}")
    return max(errs) < 1e-12, detail


def check_farfield_point_source():
    g = _G16
    data = np.zeros(g.dims)
    data[8, 8, 8] = 1.0 / g.cell_volume
    f = ScalarField(g, data)
    x0 = np.array([g.axis_coords(0)[8], g.axis_coords(1)[8], g.axis_coords(2)[8]])
    errs = []
    for k in (1.0, 4.0):
        cfg = ScatteringConfig(grid=g, k=k, source=f)
        dirs = np.array([[0.0, 0, 1], [0.6, 0.8, 0]])
        vals = far_field(cfg, np.zeros(g.dims, dtype=complex), dirs)
        expect = np.exp(-1j * k * dirs @ x0) / (4 * np.pi)
        errs.append(np.max(np.abs(vals - expect)))
    ok = max(errs) < 1e-12
    return ok, f"point-source far field error {max(errs):.2e}"


def check_born_reciprocity():
    """First-Born reciprocity only: u_inf(xhat, d) = u_inf(-d, -xhat) for the term q u_in.

    The higher Born orders rest on the resolvent's symmetry, which
    :func:`check_resolvent_symmetry` certifies.
    """
    g = _G16
    q = gaussian_bump_field(g, (0.05, -0.05, 0.0), 0.5, 0.18, cutoff_radii=3.0)
    k = 3.0
    xhat = np.array([0.6, 0.8, 0.0])
    d = np.array([0.0, 0.0, 1.0])

    def born(out_dir, inc_dir):
        u_in = incident_plane_wave(k, inc_dir, g)
        gq = ComplexField(g, q.data * u_in.data)
        return oracles.direct_farfield(gq, k, out_dir)

    a = born(xhat, d)
    b = born(-d, -xhat)
    err = abs(a - b) / abs(a)
    return err < 1e-12, f"reciprocity defect {err:.2e}"


def check_estimator_positivity_scaling():
    freqs = 8.0 + (np.arange(32) + 0.5) * 0.25
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(len(freqs)) + 1j * rng.standard_normal(len(freqs))
    ff = make_farfield_set([(0.0, 0.0, 1.0), (0.0, 1.0, 0.0)], freqs, [vals, 3.0 * vals])
    (e1,), (e3,) = band_correlation(ff, 0.0, [0.0], 8.0)[0]
    ok = e1.imag == 0.0 and e1.real >= 0.0 and abs(e3 / e1 - 9.0) < 1e-12
    return ok, f"tau=0 value real>=0, power scaling drift {abs(e3 / e1 - 9.0):.2e}"


def check_hermitian_completion():
    # exact transform of a real off-centre Gaussian, so mu_hat(-xi) = conj(mu_hat(xi))
    c = np.array([0.1, -0.05, 0.15])
    taus = np.array([0.0, 4.0, 8.0])
    upper = np.array([(0.0, 0.0, 1.0), (0.6, 0.0, 0.8), (0.0, -0.8, 0.6)])
    # equatorial directions appear in +/- pairs so completion can average them
    equator = np.array([(0.6, 0.8, 0.0), (-0.6, -0.8, 0.0), (0.8, -0.6, 0.0), (-0.8, 0.6, 0.0)])
    half = np.vstack([upper, equator])
    full = np.vstack([half, -upper])

    def samples(dirs):
        return np.exp(-0.02 * taus[None, :] ** 2 - 1j * taus[None, :] * (dirs @ c)[:, None])

    def rec(dirs, values):
        return _assemble_report(taus, dirs, values, _G16, None, {}).mu_rec_unclipped.data

    got = rec(*hermitian_complete(half, samples(half), (0.0, 0.0, 1.0)))
    ref = rec(full, samples(full))
    err = float(np.linalg.norm(got - ref) / np.linalg.norm(ref))
    return err < 1e-12, f"completed hemisphere vs full-sphere reconstruction {err:.2e}"


CHECKS = (
    ("real-transform-pair", check_real_transform_pair),
    ("resolvent-transform-pair", check_resolvent_transform_pair),
    ("reconstruction-phase", check_reconstruction_phase),
    ("rsgf-roundtrip", check_rsgf_roundtrip),
    ("synthesis-support-reality", check_synthesis_support_reality),
    ("covariance-symmetry-scaling", check_covariance_symmetry_scaling),
    ("riesz-kernel-anchor", check_riesz_anchor),
    ("resolvent-point-response", check_resolvent_point_response),
    ("outgoing-phase", check_outgoing_phase),
    ("resolvent-symmetry", check_resolvent_symmetry),
    ("solver-truncation", check_solver_truncation),
    ("farfield-dual-path", check_farfield_dual_path),
    ("farfield-point-source", check_farfield_point_source),
    ("born-reciprocity", check_born_reciprocity),
    ("estimator-positivity-scaling", check_estimator_positivity_scaling),
    ("hermitian-completion", check_hermitian_completion),
)


def run_all():
    """Run every check; returns True when all pass, printing one line per check."""
    all_ok = True
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as e:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(e).__name__}: {e}"
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:<32} {detail}")
    return all_ok
