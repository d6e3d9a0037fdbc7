"""rscat benchmark: four acceptance-shaped pipelines, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload passive_recovery --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): passive_recovery, backscatter_born,
nearfield_moments, covariance_ensemble. One process runs one workload.
Runs repeat until ``--seconds`` have passed, and at least twice. Run 0
uses the acceptance criterion's pinned seed; run i >= 1 draws its
realization from (--seed, i). Each run is placed on the CPU where a fixed
reference kernel is currently fastest (see ``ReferenceKernel``).

* ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
  ``wall_ref`` is the median over runs of the run's wall time divided by
  the reference kernel's time on the same CPU just before and after it.
  ``setup_s`` is the median over fresh child processes of the time from
  process start to inputs ready, normalised the same way and given in
  reference seconds: seconds on a core where the kernel takes
  ``REF_SECONDS``. These ratios cancel most of the host's speed swings; the
  plain seconds (``wall_s``, ``samples_per_s``, ``setup_raw_s``) are printed
  on the ``perfbench runs`` line. ``rel_l2_error`` comes from run 0, so it
  moves only when the numerics move.
* ``--trace 1`` runs in pairs on one seed, one run of a pair traced and the
  other not, in alternating order; pair 0 uses the pinned seed and pair
  p >= 1 draws its realization from (--seed, p). Traced runs wrap the library's public calls
  in spans (``spans.py``); the per-layer metrics are medians over traced
  runs of per-run figures. ``trace.overhead_s`` is the median over pairs of
  the traced minus the untraced run's wall time, each in reference-kernel
  units, times the median reference-kernel time. The spans are written to
  ``.perfbench_out/trace-<workload>-<seed>.json``.

Either way the output of the first run at a drawn seed is checked against
the independent oracles in ``rscat.oracles``, outside the timed region.
Every run and every check counts as one attempted operation. The FFT and
BLAS/OpenMP thread counts are pinned to one, and the environment is printed
with the result. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# set before numpy is first imported, which is why the imports of numpy and
# rscat in this file sit inside functions
PINNED_THREADS = {
    "RSCAT_FFT_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_REPEATS = 9
# reference seconds: about the reference kernel's time on one quiet core of an
# Intel Xeon server, so that setup_s reads about as wall seconds there
REF_SECONDS = 0.08
CPUS = sorted(os.sched_getaffinity(0))


class ReferenceKernel:
    """Fixed tasks that share no code with rscat, timed to gauge machine speed.

    On a shared host the speed of each CPU swings by up to 2x over seconds,
    independently per CPU, as other tenants load it. Each pipeline run is
    therefore placed on the CPU where these tasks are currently fastest, and
    its wall time is also expressed in units of their time on that CPU just
    before and after the run. The tasks are the three kinds of work the
    pipelines spend their time on: FFTs, complex exponentials and interpreted
    Python, about 20 ms each on a quiet Intel Xeon core. They run outside any
    timed region.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((64, 64, 64)) + 0j
        self._phase = rng.standard_normal(200_000)

    def seconds(self):
        import numpy as np
        import scipy.fft

        t0 = time.perf_counter()
        for _ in range(2):
            scipy.fft.ifftn(scipy.fft.fftn(self._x, workers=1), workers=1)
        for _ in range(3):
            np.exp(1j * self._phase).sum()
        total = 0
        for i in range(300_000):
            total += i * i
        return time.perf_counter() - t0

    def pin_fastest_cpu(self):
        """Pin this process to the CPU where the kernel runs fastest; return its time there."""
        times = {}
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            times[cpu] = self.seconds()
        best = min(times, key=times.get)
        os.sched_setaffinity(0, {best})
        return times[best]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print the monotonic clock and exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def git_sha():
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name.strip() == ref:
                return sha
    return None


def environment():
    import numpy
    import scipy
    from rscat import _kernels

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rscat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ[k] for k in PINNED_THREADS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "jit_enabled": bool(_kernels.JIT_ENABLED),
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
    }


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_seed(seed, index):
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def measure_setup(args, kernel):
    """Set-up time of fresh child processes, from process start to inputs ready.

    Each child runs on the CPU where the reference kernel is fastest, with the
    kernel timed there just before and after it. Returns the median set-up
    time in reference seconds and the raw seconds of each child.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        ref_before = kernel.pin_fastest_cpu()
        start = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        seconds = float(done.stdout.strip().splitlines()[-1]) - start
        ref = 0.5 * (ref_before + kernel.seconds())
        raw.append(seconds)
        scaled.append(seconds / ref * REF_SECONDS)
    return statistics.median(scaled), raw


def timed_runs(workload, args, tracer, kernel):
    """Run the pipeline until --seconds have passed, at least twice per mode.

    Without a tracer run 0 uses the workload's pinned reference seed and run
    i >= 1 draws its realization from (--seed, i). With one, runs come in
    pairs on one seed, one traced and one not, pair 0 at the pinned seed and
    pair p >= 1 at (--seed, p). Returns one record per successful run (group,
    traced flag, wall seconds, reference-kernel seconds), the per-layer
    figures of the traced runs, the outputs of groups 0 and 1, the number of
    runs and the number that failed.
    """
    from spans import layer_metrics

    per_group = 2 if tracer is not None else 1
    records, outputs, layers, failed, index = [], {}, [], 0, 0
    deadline = time.perf_counter() + args.seconds
    while ((index < 2 * per_group or index % per_group or time.perf_counter() < deadline)
           and failed < 3):
        group = index // per_group
        # the traced run goes first in even pairs and second in odd ones
        traced = tracer is not None and index % 2 == group % 2
        seed = workload.reference_seed if group == 0 else run_seed(args.seed, group)
        ref_before = kernel.pin_fastest_cpu()
        try:
            if traced:
                tracer.install()
                try:
                    t0 = time.perf_counter()
                    out, spans, offset = tracer.run_iteration(index, lambda: workload.run(seed))
                    wall = time.perf_counter() - t0
                finally:
                    tracer.uninstall()
                layers.append(layer_metrics(spans, offset))
            else:
                t0 = time.perf_counter()
                out = workload.run(seed)
                wall = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            failed += 1
        else:
            ref = 0.5 * (ref_before + kernel.seconds())
            records.append({"group": group, "traced": traced, "wall": wall, "ref": ref})
            if group < 2:
                outputs.setdefault(group, out)
        index += 1
    return records, layers, outputs, index, failed


def tracing_overhead(records):
    """Median over same-seed pairs of traced minus untraced wall time, in seconds.

    Each difference is taken in reference-kernel units and turned back into
    seconds with the median reference-kernel time, so host speed swings
    between the two runs of a pair cancel.
    """
    by_group = {}
    for r in records:
        by_group.setdefault(r["group"], {})[r["traced"]] = r["wall"] / r["ref"]
    diffs = [g[True] - g[False] for g in by_group.values() if len(g) == 2]
    return statistics.median(diffs) * statistics.median(r["ref"] for r in records)


def run_checks(workload, out):
    try:
        return workload.checks(out)
    except Exception:
        traceback.print_exc()
        return [{"name": f"{workload.name}.checks", "ok": False, "error": "raised"}]


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(PINNED_THREADS)
    if not (ROOT / "src" / "rscat" / "__init__.py").is_file():
        print(f"perfbench: no rscat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / f"tmp-{os.getpid()}"
    if args.setup_only:
        WORKLOADS[args.workload](args.tiny, workdir)
        print(time.monotonic())
        return 0

    end_to_end, per_layer = declared_metrics()
    kernel = ReferenceKernel()
    setup = measure_setup(args, kernel) if not args.trace else None
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.tiny, workdir)
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        records, layers, outputs, runs, failed = timed_runs(workload, args, tracer, kernel)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        plain = [r for r in records if not r["traced"]]
        if len(outputs) < 2 or not plain or (tracer and not layers):
            print(f"perfbench: {failed} of {runs} pipeline runs failed", file=sys.stderr)
            return 1
        checks = run_checks(workload, outputs[1])
        attempted = runs + len(checks)
        failed += sum(not c["ok"] for c in checks)
        rel_l2 = None if args.trace else workload.accuracy(outputs[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    wall = statistics.median(r["wall"] for r in plain)
    if args.trace:
        values = {name: statistics.median(row[name] for row in layers)
                  for name in layers[0]}
        values["trace.overhead_s"] = tracing_overhead(records)
        declared = per_layer
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed, "env": env,
                     "runs": records})
    else:
        values = {
            "wall_ref": statistics.median(r["wall"] / r["ref"] for r in plain),
            "setup_s": setup[0],
            "peak_rss_mb": peak_rss_mb,
            "rel_l2_error": rel_l2,
            "pass_ratio": 1.0 - failed / attempted,
        }
        declared = end_to_end
    if set(values) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(declared))} "
                           "are not both measured and declared in BENCHMARK.json")
    print("perfbench env " + json.dumps(env))
    print("perfbench runs " + json.dumps({
        "workload": args.workload, "seed": args.seed, "runs": runs,
        "wall_s": wall, "samples_per_s": workload.samples / wall,
        "setup_raw_s": setup[1] if setup else None,
        "records": records, "checks": checks,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
