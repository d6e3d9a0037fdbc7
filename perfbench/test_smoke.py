"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CHECKS = {
    "passive_recovery": 1,
    "backscatter_born": 2,
    "nearfield_moments": 1,
    "covariance_ensemble": 4,
}


def bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_every_workload_has_its_checks():
    assert sorted(CHECKS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(CHECKS))
def test_prints_every_metric_and_runs_every_check(workload, trace):
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    runs = json.loads(lines[-2].partition("perfbench runs ")[2])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] != 0 for m in result["metrics"].values())

    assert len(runs["checks"]) == CHECKS[workload]
    assert all(c["ok"] for c in runs["checks"]), runs["checks"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == runs["runs"] + CHECKS[workload]


def test_passive_sweep_builds_no_resolvent():
    done = bench(ROOT, "passive_recovery", 1)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["forward.op_build.calls"]["value"] == 0
    assert metrics["forward.far_field.calls"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench(tmp_path, "passive_recovery", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
