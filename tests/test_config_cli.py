import os

import numpy as np
import pytest

from rscat import ConfigurationError, ScalarField, load_config, read_field
from rscat.cli import run_command
from rscat.config import config_from_text, fibonacci_sphere
from rscat.forward import draw_realization

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
    assert np.all(f.data.imag == 0)
    drawn = f.data.real if which == "source" else q.data
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


def test_recover_mesh_mismatch_exits_2(tmp_path):
    path = _write(tmp_path, MINIMAL)
    pre = str(tmp_path / "sweep")
    run_command(["sweep", "--config", path, "--out-prefix", pre])
    other = MINIMAL.replace("n_terms = 24", "n_terms = 48")
    path2 = _write(tmp_path, other, name="exp2.ini")
    assert run_command(["recover-source", "--config", path2,
                        "--data-prefix", pre, "--out-prefix", str(tmp_path / "r")]) == 2


def test_recover_kind_mismatch_exits_2(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL)
    pre = str(tmp_path / "sweep")
    run_command(["sweep", "--config", path, "--out-prefix", pre])
    code = run_command(["recover-potential", "--config", path,
                        "--data-prefix", pre, "--out-prefix", str(tmp_path / "r")])
    assert code == 2


def test_config_error_exit_code(tmp_path):
    bad = MINIMAL.replace("m = 2.5", "m = 1.5")
    path = _write(tmp_path, bad)
    assert run_command(["synth", "--config", path, "--out", str(tmp_path / "x.rsgf")]) == 2


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
