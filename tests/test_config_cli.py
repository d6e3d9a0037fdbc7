import os
import re

import numpy as np
import pytest

from rscat import (ConfigurationError, ScalarField, load_config,
                   potential_kernel_integral, read_field)
from rscat.cli import run_command
from rscat.config import config_from_text, fibonacci_sphere
from rscat.forward import ScatteringConfig, draw_realization, lippmann_schwinger_solve
from rscat.recovery import midpoint_mesh, nearfield_second_moment

MINIMAL = """
[grid]
dims = 16
spacing = 0.125

[source]
m = 2.5
shape = gaussian-bump
center = 0 0 0
amplitude = 1.0
width = 0.14
cutoff = 3.0

[band]
k_lo = 6.0
n_terms = 24
tau_max = 2.0

[directions]
count = 6

[experiment]
mode = passive
seed = 11
output = {out}
"""


def _write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text.format(out=tmp_path / "run"))
    return str(path)


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL))
    assert cfg.solver.tol == 1e-10
    assert cfg.solver.max_born_order == 20
    assert cfg.grid.dims == (16, 16, 16)
    assert cfg.band.n_terms == 24
    assert cfg.dirs.shape == (6, 3)
    assert cfg.mode == "passive"
    # mesh covers [K, 2K + tau_max]
    assert cfg.band.freqs[0] > 6.0 and cfg.band.freqs[-1] < 14.0 + 0.25


def test_unknown_key_rejected(tmp_path):
    text = MINIMAL.replace("[band]", "[band]\nwavelets = 3")
    with pytest.raises(ConfigurationError, match="band.wavelets"):
        load_config(_write(tmp_path, text))


def test_missing_key_named(tmp_path):
    text = MINIMAL.replace("k_lo = 6.0\n", "")
    with pytest.raises(ConfigurationError, match="band.k_lo"):
        load_config(_write(tmp_path, text))


def test_misspelt_required_key_names_both_keys():
    with pytest.raises(ConfigurationError) as info:
        config_from_text(MINIMAL.replace("k_lo = 6.0", "k_l0 = 6.0").format(out="."))
    assert "band.k_lo" in str(info.value)
    assert "band.k_l0" in str(info.value)


def test_tau_must_be_mesh_multiple(tmp_path):
    text = MINIMAL.replace("tau_max = 2.0", "tau_list = 0.0 0.3")
    with pytest.raises(ConfigurationError, match=r"band.tau_list\[1\]"):
        load_config(_write(tmp_path, text))


def test_active_mode_tau_unit_doubles():
    text = MINIMAL.replace("mode = passive", "mode = active-backscatter") \
                  .replace("tau_max = 2.0", "tau_list = 0.25")
    # delta = 0.25, so tau must be a multiple of 2 delta = 0.5 in active mode
    with pytest.raises(ConfigurationError, match="2\\*delta"):
        config_from_text(text.format(out="."))


def test_overlapping_supports_rejected(tmp_path):
    text = MINIMAL + """
[potential]
m = 3.5
shape = gaussian-bump
center = 0.05 0 0
amplitude = 0.5
width = 0.14
cutoff = 3.0
"""
    with pytest.raises(ConfigurationError, match="separat"):
        load_config(_write(tmp_path, text))


SEPARATED = MINIMAL.replace("center = 0 0 0", "center = -0.3 0 0") \
                   .replace("width = 0.14", "width = 0.08") + """
[potential]
m = 3.5
shape = gaussian-bump
center = 0.3 0 0
amplitude = 0.5
width = 0.08
cutoff = 3.0
"""


EVERY_SECTION = SEPARATED + """
[solver]
tol = 1e-10

[nearfield]
k_hi = 5.0
delta = 0.5
probes = 0.7 0 0

[ergodic]
bands = 8:0.25; 9:0.25; 10:0.25
"""


@pytest.mark.parametrize("section, old, new", [
    ("grid", "spacing = 0.125", "spacin = 0.125"),
    ("source", "m = 2.5", "mm = 2.5"),
    ("potential", "m = 3.5", "mm = 3.5"),
    ("band", "tau_max = 2.0", "tau_mx = 2.0"),
    ("directions", "count = 6", "cuont = 6"),
    ("experiment", "seed = 11", "sede = 11"),
    ("solver", "tol = 1e-10", "toll = 1e-10"),
    ("nearfield", "delta = 0.5", "detla = 0.5"),
    ("ergodic", "bands = ", "bnads = "),
])
def test_misspelt_key_named_with_its_line(section, old, new):
    config_from_text(EVERY_SECTION.format(out="."))
    text = EVERY_SECTION.replace(old, new, 1).format(out=".")
    line = next(i for i, raw in enumerate(text.splitlines(), start=1) if raw.startswith(new))
    # the key's own line is the first one given after it
    key = re.escape(f"{section}.{new.split()[0]}")
    with pytest.raises(ConfigurationError, match=rf"{key}\b[^;]*?\(line {line}\)"):
        config_from_text(text)


def test_separated_supports_give_normal(tmp_path):
    cfg = load_config(_write(tmp_path, SEPARATED))
    assert np.allclose(cfg.separating_normal, [1.0, 0.0, 0.0])


def test_fibonacci_sphere_unit():
    dirs = fibonacci_sphere(64)
    assert np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1.0)) < 1e-12
    assert len(np.unique(np.round(dirs, 12), axis=0)) == 64


def test_explicit_directions(tmp_path):
    text = MINIMAL.replace("count = 6", "distribution = explicit\nvalues = 1 0 0; 0 0 2")
    cfg = load_config(_write(tmp_path, text))
    assert np.allclose(cfg.dirs[1], [0, 0, 1.0])


# ------------------------------------------------------------------- commands

def test_synth_writes_readable_field(tmp_path):
    path = _write(tmp_path, MINIMAL)
    out = str(tmp_path / "f.rsgf")
    assert run_command(["synth", "--config", path, "--out", out]) == 0
    field = read_field(out)
    assert field.grid.dims == (16, 16, 16)
    # deterministic: second run produces identical bytes
    out2 = str(tmp_path / "f2.rsgf")
    run_command(["synth", "--config", path, "--out", out2])
    assert open(out, "rb").read() == open(out2, "rb").read()


@pytest.mark.parametrize("which", ["source", "potential"])
def test_synth_writes_the_swept_realization(tmp_path, which):
    path = _write(tmp_path, SEPARATED)
    out = str(tmp_path / "f.rsgf")
    assert run_command(["synth", "--config", path, "--out", out, "--which", which]) == 0
    cfg = load_config(path)
    f, q, _, _ = draw_realization(cfg.source, cfg.potential, cfg.seed)
    assert not np.iscomplexobj(f.data)
    drawn = f.data if which == "source" else q.data
    written = read_field(out)
    assert isinstance(written, ScalarField)
    assert written.data.tobytes() == drawn.tobytes()


def test_full_pipeline_deterministic(tmp_path):
    path = _write(tmp_path, MINIMAL)
    pre1 = str(tmp_path / "a" / "sweep")
    pre2 = str(tmp_path / "b" / "sweep")
    assert run_command(["sweep", "--config", path, "--out-prefix", pre1]) == 0
    assert run_command(["sweep", "--config", path, "--out-prefix", pre2]) == 0
    assert open(pre1 + ".csv").read() == open(pre2 + ".csv").read()
    rec = str(tmp_path / "a" / "rec")
    assert run_command(["recover-source", "--config", path,
                        "--data-prefix", pre1, "--out-prefix", rec]) == 0
    assert os.path.exists(rec + "_mu.rsgf")
    assert os.path.exists(rec + "_summary.txt")
    # provenance lines recorded
    log = (tmp_path / "run" / "run.log").read_text().splitlines()
    assert len(log) >= 3
    assert all("config_sha256=" in line and "seed=11" in line for line in log)


def test_recover_source_in_hemisphere_mode(tmp_path):
    # separated supports give a normal, so the recovery runs on one hemisphere
    path = _write(tmp_path, SEPARATED)
    assert load_config(path).separating_normal is not None
    pre = str(tmp_path / "sweep")
    assert run_command(["sweep", "--config", path, "--out-prefix", pre]) == 0
    assert run_command(["recover-source", "--config", path,
                        "--data-prefix", pre, "--out-prefix", str(tmp_path / "rec")]) == 0
    assert os.path.exists(str(tmp_path / "rec_summary.txt"))


def test_recover_mesh_mismatch_exits_2(tmp_path):
    path = _write(tmp_path, MINIMAL)
    pre = str(tmp_path / "sweep")
    run_command(["sweep", "--config", path, "--out-prefix", pre])
    other = MINIMAL.replace("n_terms = 24", "n_terms = 48")
    path2 = _write(tmp_path, other, name="exp2.ini")
    assert run_command(["recover-source", "--config", path2,
                        "--data-prefix", pre, "--out-prefix", str(tmp_path / "r")]) == 2


def test_recover_kind_mismatch_exits_2(tmp_path, capsys):
    # the config has a rough potential, so only the data kind is wrong
    path = _write(tmp_path, SEPARATED)
    pre = str(tmp_path / "sweep")
    assert run_command(["sweep", "--config", path, "--out-prefix", pre]) == 0
    code = run_command(["recover-potential", "--config", path,
                        "--data-prefix", pre, "--out-prefix", str(tmp_path / "r")])
    assert code == 2
    assert "needs active-backscatter data, got kind='passive'" in capsys.readouterr().err


def test_config_error_exit_code(tmp_path):
    bad = MINIMAL.replace("m = 2.5", "m = 1.5")
    path = _write(tmp_path, bad)
    assert run_command(["synth", "--config", path, "--out", str(tmp_path / "x.rsgf")]) == 2


@pytest.mark.parametrize("old, new, extra, key", [
    ("tau_max = 2.0", "tau_list = 0.0 0.25", "tau_max = 2.0", "band.tau_max"),
    ("tau_max = 2.0", "tau_list = 0.0 0.25", "tau_step = 0.25", "band.tau_step"),
    ("count = 6", "count = 6", "values = 0 0 1", "directions.values"),
    ("count = 6", "distribution = explicit\nvalues = 0 0 1; 1 0 0", "count = 6", "directions.count"),
    ("cutoff = 3.0", "cutoff = 3.0", "radius = 0.3", "source.radius"),
    ("cutoff = 3.0", "cutoff = 3.0", "mean_amplitude = 0.5", "source.mean_amplitude"),
    ("cutoff = 3.0", "cutoff = 3.0", "mean_width = 0.1", "source.mean_width"),
    ("m = 2.5", "kind = deterministic", "m = 2.5", "source.m"),
], ids=["tau_max", "tau_step", "values", "count", "radius", "mean_amplitude", "mean_width", "m"])
def test_unread_key_exits_2(tmp_path, capsys, old, new, extra, key):
    # a known key that the chosen variant of its section never reads fails the load
    base = MINIMAL.replace(old, new)
    load_config(_write(tmp_path, base))
    path = _write(tmp_path, base.replace(new, new + "\n" + extra), name="extra.ini")
    with pytest.raises(ConfigurationError, match=rf"^{key}: "):
        load_config(path)
    assert run_command(["synth", "--config", path, "--out", str(tmp_path / "x.rsgf")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(os.listdir(os.path.join(os.path.dirname(__file__), "..", "configs"))))
def test_shipped_configs_load(name):
    load_config(os.path.join(os.path.dirname(__file__), "..", "configs", name))


_ERGODIC = "\n[ergodic]\nbands = 8:0.25; 8:0; 16:0.25\n"


@pytest.mark.parametrize("old, new, key", [
    ("dims = 16", "dims = 3x", "grid.dims"),
    ("k_lo = 6.0", "k_lo = nan", "band.k_lo"),
    ("k_lo = 6.0", "k_lo = inf", "band.k_lo"),
    ("output = {out}", "output = {out}\n[solver]\ntol = nan\n", "solver.tol"),
    ("output = {out}", "output = {out}\n[nearfield]\nk_hi = inf\ndelta = 0.5\nprobes = 0.7 0 0\n",
     "nearfield.k_hi"),
    ("n_terms = 24", "n_terms = 0", "band.n_terms"),
    ("tau_max = 2.0", "tau_max = 2.0\ntau_step = 0", "band.tau_step"),
    ("tau_max = 2.0", "tau_list =", "band.tau_list"),
    ("tau_max = 2.0", "tau_max = -1", "band.tau_max"),
    ("output = {out}", "output = {out}" + _ERGODIC, "ergodic.bands[1]"),
    # grid16 Nyquist is pi/h ~ 25.1; the band's tau unit is delta = 0.25
    ("tau_max = 2.0", "tau_max = 1e300", "band.tau_max"),
    ("tau_max = 2.0", "tau_list = 0 1.0 30.0", "band.tau_list[2]"),
    ("tau_max = 2.0", "tau_max = 2.0\ntau_step = 1e-300", "band.tau_step"),
    # the sweep mesh holds n_terms * (1 + tau_max / k_lo) points, at most 2^20
    ("n_terms = 24", "n_terms = 1000000000000", "band.n_terms"),
    ("k_lo = 6.0", "k_lo = 1e-9", "band.n_terms"),
    ("output = {out}", "output = {out}\n[ergodic]\nbands = 8:0.25; 9:0.25; 10:0.25\nn_rep = -3\n",
     "ergodic.n_rep"),
    ("output = {out}", "output = {out}\n[ergodic]\nbands = 8:0.25; 9:0.25; 10:0.25\nn_rep = 1\n",
     "ergodic.n_rep"),
    # the scatter of tau = 24 reaches one dual cell (~3.1) past it, beyond the Nyquist
    ("tau_max = 2.0", "tau_list = 0 1.0 24.0", "band.tau_list[2]"),
    ("count = 6", "count = 0", "directions.count"),
    ("dims = 16", "dims = 12", "grid.dims"),
    ("spacing = 0.125", "spacing = -1", "grid.spacing"),
], ids=["dims", "k_lo", "k_lo_inf", "solver_tol_nan", "nearfield_k_hi_inf", "n_terms", "tau_step",
        "tau_list", "tau_max", "ergodic_spacing", "tau_max_nyquist", "tau_list_nyquist", "tau_step_unit",
        "n_terms_mesh_cap", "k_lo_mesh_cap", "n_rep_negative", "n_rep_one", "tau_list_scatter_alias",
        "count_zero", "dims_not_pow2", "spacing_negative"])
def test_degenerate_values_exit_2_naming_their_key(tmp_path, capsys, old, new, key):
    # every command validates the whole config before it runs
    path = _write(tmp_path, MINIMAL.replace(old, new))
    assert run_command(["diagnose-ergodic", "--config", path, "--out", str(tmp_path / "x")]) == 2
    assert key in capsys.readouterr().err


def test_numeric_error_exit_code(tmp_path):
    text = MINIMAL.replace("mode = passive", "mode = active-backscatter") + """
[potential]
m = 2.5
shape = gaussian-bump
center = 0.3 0 0
amplitude = 8000.0
width = 0.08
cutoff = 3.0

[solver]
max_born_order = 10
"""
    text = text.replace("center = 0 0 0", "center = -0.3 0 0") \
               .replace("width = 0.14", "width = 0.08") \
               .replace("k_lo = 6.0", "k_lo = 4.0") \
               .replace("n_terms = 24", "n_terms = 16") \
               .replace("tau_max = 2.0", "tau_max = 0.0")
    path = _write(tmp_path, text)
    assert run_command(["sweep", "--config", path, "--out-prefix", str(tmp_path / "s")]) == 1


def test_nearfield_command(tmp_path):
    text = MINIMAL + """
[nearfield]
k_hi = 5.0
delta = 0.5
probes = 0.7 0 0; 0 0.7 0
"""
    path = _write(tmp_path, text)
    out = str(tmp_path / "nf.csv")
    assert run_command(["nearfield", "--config", path, "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "probe_x,probe_y,probe_z,estimate,oracle,ratio"
    assert len(lines) == 3
    est = float(lines[1].split(",")[3])
    assert est > 0.0


def test_nearfield_oracle_at_probed_cell(tmp_path):
    # y = z = 0 lie halfway between two cell centres of the 16^3 grid (h = 0.125);
    # the trace is read at the snapped centre, so the oracle must be too
    text = MINIMAL + """
[nearfield]
k_hi = 3.0
delta = 0.5
probes = 0.6875 0 0
"""
    path = _write(tmp_path, text)
    out = str(tmp_path / "nf.csv")
    assert run_command(["nearfield", "--config", path, "--out", out]) == 0
    row = [float(v) for v in open(out).read().splitlines()[1].split(",")]
    centre = (0.6875, 0.0625, 0.0625)  # cell (13, 8, 8)
    assert tuple(row[:3]) == centre
    assert row[4] == potential_kernel_integral(load_config(path).source.strength, centre)


def test_nearfield_probe_at_the_support_exits_2_before_any_trace(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, MINIMAL + """
[nearfield]
k_hi = 5.0
delta = 0.5
probes = 0.7 0 0; 0.1 0 0
""")
    calls = []
    monkeypatch.setattr("rscat.cli.probe_traces", lambda *a, **kw: calls.append(a))
    out = tmp_path / "nf.csv"
    assert run_command(["nearfield", "--config", path, "--out", str(out)]) == 2
    assert calls == []
    assert not out.exists()
    err = capsys.readouterr().err
    assert "evaluation point (0.0625, 0.0625, 0.0625)" in err


@pytest.mark.parametrize("base", [MINIMAL, SEPARATED], ids=["source", "source-and-potential"])
def test_nearfield_probe_hull_solve_matches_whole_grid(tmp_path, base):
    path = _write(tmp_path, base + """
[nearfield]
k_hi = 4.0
delta = 0.5
probes = 0 0.75 0; -0.5 -0.5 0.3
""")
    out = str(tmp_path / "nf.csv")
    assert run_command(["nearfield", "--config", path, "--out", out]) == 0
    got = [float(line.split(",")[3]) for line in open(out).read().splitlines()[1:]]
    cfg = load_config(path)
    f, q, _, _ = draw_realization(cfg.source, cfg.potential, cfg.seed)
    cells = [cfg.grid.nearest_cell(p) for p in cfg.nearfield.probes]
    ks = midpoint_mesh(1.0, cfg.nearfield.k_hi, cfg.nearfield.delta)
    traces = [[] for _ in cells]
    for k in ks:
        u, _ = lippmann_schwinger_solve(ScatteringConfig(
            grid=cfg.grid, k=float(k), potential=q, source=f,
            max_born_order=cfg.solver.max_born_order, tol=cfg.solver.tol))
        for trace, cell in zip(traces, cells):
            trace.append((k, u.data[cell]))
    want = [nearfield_second_moment(trace, cfg.source.order) for trace in traces]
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("command, block, key", [
    ("nearfield", "[nearfield]\nk_hi = 5.0\ndelta = 1e-9\nprobes = 0.7 0 0\n", "nearfield.delta"),
    ("diagnose-ergodic", "[ergodic]\nbands = 8:0.25; 9:1e-9; 10:0.25\n", "ergodic.bands[1]"),
], ids=["nearfield_delta", "ergodic_spacing"])
def test_tiny_spacing_exits_2_before_the_mesh_is_built(tmp_path, capsys, command, block, key):
    path = _write(tmp_path, MINIMAL + block)
    assert run_command([command, "--config", path, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert f"above the cap of {2 ** 20}" in err
    assert key in err


def test_diagnose_ergodic_command(tmp_path):
    text = MINIMAL + """
[ergodic]
c0 = 0.7
m = 2.5
tau = 0.0
bands = 8:0.25; 16:0.25; 32:0.25
n_rep = 20
seed = 5
"""
    path = _write(tmp_path, text)
    out = str(tmp_path / "erg.csv")
    assert run_command(["diagnose-ergodic", "--config", path, "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0].startswith("band_lo,")
    assert len(lines) == 4


def test_diagnose_ergodic_data_mode(tmp_path):
    text = MINIMAL + """
[ergodic]
m = 2.5
tau = 0.0
bands = 6:0.25; 6.5:0.25; 7:0.25
"""
    path = _write(tmp_path, text)
    pre = str(tmp_path / "sweep")
    run_command(["sweep", "--config", path, "--out-prefix", pre])
    out = str(tmp_path / "erg_data.csv")
    assert run_command(["diagnose-ergodic", "--config", path, "--out", out,
                        "--data-prefix", pre]) == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 4


def test_diagnose_ergodic_data_mode_spacing_mismatch_exits_2(tmp_path):
    text = MINIMAL + """
[ergodic]
m = 2.5
tau = 0.0
bands = 6:0.5; 6.5:0.5; 7:0.5
"""
    path = _write(tmp_path, text)
    pre = str(tmp_path / "sweep")
    assert run_command(["sweep", "--config", path, "--out-prefix", pre]) == 0
    out = str(tmp_path / "erg_data.csv")
    assert run_command(["diagnose-ergodic", "--config", path, "--out", out,
                        "--data-prefix", pre]) == 2
