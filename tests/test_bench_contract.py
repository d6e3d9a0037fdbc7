"""The names and calls the benchmark reaches into must work in the package.

``perfbench/spans.py`` patches the calls it lists in ``traced_calls`` for
``--trace 1``, and ``perfbench/run.py`` records ``rscat._kernels.JIT_ENABLED``
in its environment line. ``perfbench/workloads.py`` calls the library with
positional arguments. A rename or a signature change in ``src/`` that breaks
any of them fails here, and so does a recovery that reaches the band
estimator, or a sweep that reaches the far field or the resolvent apply,
other than through the public names the spans patch.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from rscat import _kernels

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
DECLARED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_resolves():
    calls = _load(SPANS, "perfbench_spans").traced_calls()
    assert calls
    for owner, attr, name, _ in calls:
        held = owner.__dict__ if isinstance(owner, type) else vars(owner)
        assert attr in held, f"{name}: {owner.__name__}.{attr} is gone"
        assert callable(getattr(owner, attr)), f"{name}: {owner.__name__}.{attr} is not callable"


def test_environment_record_reads_jit_flag():
    assert isinstance(_kernels.JIT_ENABLED, bool)


@pytest.mark.parametrize("name", DECLARED)
def test_tiny_workload_passes_its_checks(name, tmp_path):
    workload = _load(WORKLOADS, "perfbench_workloads").WORKLOADS[name](True, tmp_path)
    checks = workload.checks(workload.run(workload.reference_seed))
    assert checks and all(c["ok"] for c in checks), checks


@pytest.mark.parametrize("name", ["passive_recovery", "backscatter_born"])
def test_traced_recovery_counts_its_one_estimate(name, tmp_path):
    spans = _load(SPANS, "perfbench_spans")
    workload = _load(WORKLOADS, "perfbench_workloads").WORKLOADS[name](True, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, recorded, first = tracer.run_iteration(0, lambda: workload.run(workload.reference_seed))
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(recorded, first)
    # one estimator call per recovery, which looks up the band and the shifted band
    assert metrics["recovery.estimate.calls"] == 1
    assert metrics["recovery.freq_lookup.per_estimate"] == 2
    # passive data needs no solve and sums its whole band in one far-field
    # call; a source-free backscatter shot pairs its Born updates by the 2n+1
    # rule, so it calls neither and shows as its two traced applies
    shots = len(workload.dirs) * len(workload.freqs) if name == "backscatter_born" else 0
    assert metrics["forward.solve.calls"] == 0
    assert metrics["forward.far_field.calls"] == (0 if shots else 1)
    assert metrics["forward.op_apply.calls"] == 2 * shots


def test_traced_nearfield_builds_one_kernel_per_frequency(tmp_path):
    spans = _load(SPANS, "perfbench_spans")
    workload = _load(WORKLOADS, "perfbench_workloads").WORKLOADS["nearfield_moments"](True, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, recorded, first = tracer.run_iteration(0, lambda: workload.run(workload.reference_seed))
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(recorded, first)
    # one operator per frequency, whose one spectrum tabulates the kernel once
    n_freqs = len(workload.ks)
    assert sum(s["name"] == "kernels.kernel_block" for s in recorded) == n_freqs
    assert metrics["forward.op_build.calls"] == n_freqs
    assert metrics["forward.op_build.per_freq"] == 1
