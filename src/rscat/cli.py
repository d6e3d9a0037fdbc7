"""Command-line operator surface.

Subcommands: synth, sweep, recover-source, recover-potential, nearfield,
validate, diagnose-ergodic. Exit codes: 0 success, 1 numeric failure
(non-convergence, divergence, oracle failure), 2 configuration error. Every
run appends a provenance line (config hash, seed, version) to run.log in the
output directory; emitted artifacts themselves carry no timestamps so reruns
are byte-identical.
"""

from __future__ import annotations

import argparse
import datetime
import os
import sys

import numpy as np

from . import __version__, oracles, validate
from .config import ExperimentConfig, load_config
from .errors import ConfigurationError, DataCoverageError, FieldFormatError, RscatError
from .forward import FarFieldSet, band_sweep, draw_realization, probe_traces
from .migr import MigrSpec
from .recovery import (IndependentPowerLawProcess, ergodic_diagnostic,
                       midpoint_mesh, nearfield_second_moment,
                       recover_potential_strength, recover_source_strength)
from .rsgf import write_field

_CONFIG_ERRORS = (ConfigurationError, FieldFormatError, DataCoverageError, FileNotFoundError)


def _log_run(cfg: ExperimentConfig, command: str):
    os.makedirs(cfg.output, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    line = (
        f"{stamp} version={__version__} command={command} "
        f"config_sha256={cfg.sha256} seed={cfg.seed}\n"
    )
    with open(os.path.join(cfg.output, "run.log"), "a") as fh:
        fh.write(line)


def _ingredient(cfg, which):
    obj = cfg.source if which == "source" else cfg.potential
    if obj is None:
        raise ConfigurationError(f"config has no [{which}] block")
    return obj


def _cmd_synth(args):
    cfg = load_config(args.config)
    _log_run(cfg, "synth")
    obj = _ingredient(cfg, args.which)
    # the realization a sweep with this seed scatters from
    if args.which == "source":
        field = draw_realization(obj, None, cfg.seed)[0]
    else:
        field = draw_realization(None, obj, cfg.seed)[1]
    write_field(args.out, field)
    print(f"wrote {args.out}")
    return 0


def _sweep_from_config(cfg: ExperimentConfig) -> FarFieldSet:
    if cfg.band is None:
        raise ConfigurationError("config has no [band] block")
    if cfg.dirs is None:
        raise ConfigurationError("config has no [directions] block")
    return band_sweep(
        cfg.grid, cfg.source, cfg.potential, cfg.band.freqs, cfg.dirs,
        cfg.mode, cfg.seed, tol=cfg.solver.tol, max_born_order=cfg.solver.max_born_order,
    )


def _cmd_sweep(args):
    cfg = load_config(args.config)
    _log_run(cfg, "sweep")
    ff = _sweep_from_config(cfg)
    prefix = args.out_prefix or os.path.join(cfg.output, "sweep")
    os.makedirs(os.path.dirname(prefix) or ".", exist_ok=True)
    ff.save(prefix)
    print(f"wrote {prefix}.manifest.txt and {prefix}.csv ({ff.n_dirs} dirs x {len(ff.freqs)} freqs)")
    return 0


def _load_data_for_recovery(cfg, prefix):
    ff = FarFieldSet.load(prefix)
    if cfg.band is None:
        raise ConfigurationError("config has no [band] block")
    if abs(ff.delta - cfg.band.delta) > 1e-9 * cfg.band.delta:
        raise ConfigurationError(
            f"mesh mismatch: data spacing {ff.delta} differs from the config's spacing "
            f"band.k_lo / band.n_terms = {cfg.band.delta}; the correlation mesh would be invalid"
        )
    return ff


def _cmd_recover(args, which):
    cfg = load_config(args.config)
    _log_run(cfg, f"recover-{which}")
    ff = _load_data_for_recovery(cfg, args.data_prefix)
    obj = _ingredient(cfg, which)
    if not isinstance(obj, MigrSpec):
        raise ConfigurationError(f"[{which}] must be a rough-field block")
    normal = np.asarray(cfg.separating_normal) if cfg.separating_normal is not None else None
    # the recovery checks the data kind
    recover = recover_source_strength if which == "source" else recover_potential_strength
    report = recover(
        ff, obj.order, cfg.band.tau_list, None, cfg.band.k_lo, normal,
        grid=cfg.grid, ground_truth=obj.strength,
    )
    prefix = args.out_prefix or os.path.join(cfg.output, f"recover_{which}")
    os.makedirs(os.path.dirname(prefix) or ".", exist_ok=True)
    report.save(prefix)
    msg = f"wrote {prefix}_mu.rsgf, {prefix}_samples.csv, {prefix}_summary.txt"
    if report.rel_l2_error is not None:
        msg += f" (rel_l2_error={report.rel_l2_error:.4f})"
    print(msg)
    return 0


def _cmd_nearfield(args):
    cfg = load_config(args.config)
    _log_run(cfg, "nearfield")
    if cfg.nearfield is None:
        raise ConfigurationError("config has no [nearfield] block")
    nf = cfg.nearfield
    obj = _ingredient(cfg, "source")
    if not isinstance(obj, MigrSpec):
        raise ConfigurationError("[source] must be a rough-field block for near-field runs")
    ks = midpoint_mesh(1.0, nf.k_hi, nf.delta)
    cells = np.array([cfg.grid.nearest_cell(p) for p in nf.probes])
    # each trace is read at a cell centre, so the oracle is evaluated and reported there;
    # it rejects a probe too close to the support, so it runs before any trace
    centres = np.asarray(cfg.grid.origin) + cfg.grid.spacing * cells
    oracle = [oracles.potential_kernel_integral(obj.strength, point) for point in centres]
    # the same realization a sweep with this seed would draw
    source, potential, _, _ = draw_realization(obj, cfg.potential, cfg.seed)
    traces = probe_traces(cfg.grid, source, potential, ks, cells,
                          tol=cfg.solver.tol, max_born_order=cfg.solver.max_born_order)
    rows = []
    for point, orc, trace in zip(centres, oracle, traces):
        est = nearfield_second_moment(zip(ks, trace), obj.order)
        ratio = est / orc if orc != 0 else float("nan")
        rows.append(",".join(f"{v:.17g}" for v in (*point, est, orc, ratio)) + "\n")
    # written only once every row is ready, so a failed run leaves no partial table
    with open(args.out, "w") as fh:
        fh.write("probe_x,probe_y,probe_z,estimate,oracle,ratio\n")
        fh.writelines(rows)
    print(f"wrote {args.out}")
    return 0


def _cmd_validate(args):
    ok = validate.run_all()
    print("all checks passed" if ok else "INVARIANT FAILURES PRESENT")
    return 0 if ok else 1


def _cmd_diagnose_ergodic(args):
    cfg = load_config(args.config)
    _log_run(cfg, "diagnose-ergodic")
    if cfg.ergodic is None:
        raise ConfigurationError("config has no [ergodic] block")
    ez = cfg.ergodic
    if args.data_prefix:
        # single-realization mode: spread of the estimate across disjoint sub-bands
        ff = FarFieldSet.load(args.data_prefix)
        rows = ergodic_diagnostic(ff, ez.m, ez.tau, ez.bands)
    else:
        process = IndependentPowerLawProcess(ez.c0, ez.m)
        known = ez.c0 * 4.0 * np.sqrt(2.0 * np.pi) if ez.tau == 0.0 else None
        rows = ergodic_diagnostic(process, ez.m, ez.tau, ez.bands,
                                  n_rep=ez.n_rep, seed0=ez.seed, known_mean=known)
    with open(args.out, "w") as fh:
        fh.write("band_lo,delta,n_terms,rms_deviation,n_rep\n")
        for b in rows:
            fh.write(f"{b.band_lo:.17g},{b.delta:.17g},{b.n_terms},{b.spread:.17g},{b.n_rep}\n")
    print(f"wrote {args.out}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="rscat",
        description="random-scattering synthesis, band sweeps, and strength recovery",
    )
    p.add_argument("--version", action="version", version=f"rscat {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="draw one realization and write it as RSGF")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--which", choices=("source", "potential"), default="source")
    s.set_defaults(fn=_cmd_synth)

    s = sub.add_parser("sweep", help="run the band sweep and write manifest + CSV")
    s.add_argument("--config", required=True)
    s.add_argument("--out-prefix")
    s.set_defaults(fn=_cmd_sweep)

    s = sub.add_parser("recover-source", help="reconstruct the source strength from passive data")
    s.add_argument("--config", required=True)
    s.add_argument("--data-prefix", required=True)
    s.add_argument("--out-prefix")
    s.set_defaults(fn=lambda a: _cmd_recover(a, "source"))

    s = sub.add_parser("recover-potential", help="reconstruct the potential strength from backscatter data")
    s.add_argument("--config", required=True)
    s.add_argument("--data-prefix", required=True)
    s.add_argument("--out-prefix")
    s.set_defaults(fn=lambda a: _cmd_recover(a, "potential"))

    s = sub.add_parser("nearfield", help="near-field second-moment estimates with the potential-kernel oracle")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=_cmd_nearfield)

    s = sub.add_parser("validate", help="run the built-in invariant suite")
    s.set_defaults(fn=_cmd_validate)

    s = sub.add_parser("diagnose-ergodic",
                       help="band-spread profile (synthetic process, or sweep data via --data-prefix)")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--data-prefix")
    s.set_defaults(fn=_cmd_diagnose_ergodic)
    return p


def run_command(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _CONFIG_ERRORS as e:
        print(f"error[config]: {e}", file=sys.stderr)
        return 2
    except RscatError as e:
        print(f"error[numeric]: {e}", file=sys.stderr)
        return 1


def main() -> int:
    return run_command(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
