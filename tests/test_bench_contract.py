"""The names the benchmark reaches into must exist in the package.

``perfbench/spans.py`` patches the calls it lists in ``traced_calls`` for
``--trace 1``, and ``perfbench/run.py`` records ``rscat._kernels.JIT_ENABLED``
in its environment line. A rename in ``src/`` that breaks either fails here.
"""

import importlib.util
from pathlib import Path

from rscat import _kernels

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_resolves():
    calls = _spans_module().traced_calls()
    assert calls
    for owner, attr, name, _ in calls:
        held = owner.__dict__ if isinstance(owner, type) else vars(owner)
        assert attr in held, f"{name}: {owner.__name__}.{attr} is gone"
        assert callable(getattr(owner, attr)), f"{name}: {owner.__name__}.{attr} is not callable"


def test_environment_record_reads_jit_flag():
    assert isinstance(_kernels.JIT_ENABLED, bool)
