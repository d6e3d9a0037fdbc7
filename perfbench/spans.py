"""In-memory spans around the public calls of each rscat layer.

A traced run patches the functions and methods listed in ``traced_calls`` with
wrappers that record one span per call: name, start, end, the index of the
enclosing span and a few per-call attributes. Nothing is written while the
pipeline runs; ``Tracer.dump`` writes the spans when the run ends. The
patching lives here, outside ``src/``, so the program itself is unchanged.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _op_build_attrs(args, kwargs, out):
    k = args[2] if len(args) > 2 else kwargs["k"]
    return {"k": float(k)}


def _op_apply_attrs(args, kwargs, out):
    return {"padded_cells": int(np.prod([2 * d for d in args[0].grid.dims]))}


def _solve_attrs(args, kwargs, out):
    return {"born_iters": int(out[1].iterations)}


def _far_field_attrs(args, kwargs, out):
    return {"dirs": int(np.size(out))}


def _save_attrs(args, kwargs, out):
    prefix = str(args[1] if len(args) > 1 else kwargs["prefix"])
    return {"bytes": sum(os.path.getsize(prefix + ext) for ext in (".manifest.txt", ".csv"))}


def traced_calls():
    """(owner, attribute, span name, attribute function) for every traced call."""
    from rscat import _kernels, forward, migr, recovery, rsgf

    return [
        (migr, "synthesize_migr", "migr.synthesize", None),
        (migr, "empirical_covariance", "migr.covariance", None),
        (_kernels, "kernel_block", "kernels.kernel_block", None),
        (forward.ResolventOperator, "__init__", "forward.op_build", _op_build_attrs),
        (forward.ResolventOperator, "apply", "forward.op_apply", _op_apply_attrs),
        (forward, "lippmann_schwinger_solve", "forward.solve", _solve_attrs),
        (forward, "far_field", "forward.far_field", _far_field_attrs),
        (forward, "band_sweep", "forward.band_sweep", None),
        (forward.FarFieldSet, "save", "forward.io.save", _save_attrs),
        (forward.FarFieldSet, "load", "forward.io.load", None),
        (forward.FarFieldSet, "freq_indices", "recovery.freq_lookup", None),
        (recovery, "band_correlation", "recovery.estimate", None),
        (recovery, "backscatter_band_correlation", "recovery.estimate", None),
        (recovery, "recover_source_strength", "recovery.assemble", None),
        (recovery, "recover_potential_strength", "recovery.assemble", None),
        (recovery, "nearfield_second_moment", "recovery.nearfield_moment", None),
        (rsgf, "write_field", "rsgf.write", None),
    ]


class Tracer:
    """Records nested spans while installed; one list per process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []
        self._iteration = None

    def _wrap(self, fn, name, attrs_fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = {"name": name, "iteration": self._iteration,
                   "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(rec)
            rec["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                stack.pop()
            if attrs_fn is not None:
                rec.update(attrs_fn(args, kwargs, out))
            return out

        return traced

    def install(self):
        """Patch every listed call, in every rscat module that holds a reference to it."""
        modules = [m for n, m in sys.modules.items() if n == "rscat" or n.startswith("rscat.")]
        for owner, attr, name, attrs_fn in traced_calls():
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, name, attrs_fn))
                else:
                    patched = self._wrap(raw, name, attrs_fn)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, patched)
                continue
            original = getattr(owner, attr)
            patched = self._wrap(original, name, attrs_fn)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, patched)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def run_iteration(self, index, fn):
        """Call fn() under a root span ``pipeline``.

        Returns the result, the spans of this call and the index of the first.
        """
        self._iteration = index
        first = len(self.spans)
        root = self._wrap(fn, "pipeline", None)
        try:
            out = root()
        finally:
            self._iteration = None
        return out, self.spans[first:], first

    def dump(self, path, header):
        t0 = min((s["start"] for s in self.spans), default=0.0)
        rows = [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in self.spans]
        with open(path, "w") as fh:
            json.dump(dict(header, spans=rows), fh)


def _per_name(spans, offset):
    """Calls, total seconds and self seconds per span name, for one iteration."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    for i, s in enumerate(spans, start=offset):
        dur = s["end"] - s["start"]
        calls[s["name"]] += 1
        total[s["name"]] += dur
        own[s["name"]] += dur - child_time[i]
    return calls, total, own


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, offset):
    """Per-layer figures of one pipeline run, keyed by the names in BENCHMARK.json."""
    calls, total, own = _per_name(spans, offset)
    by_index = {i: s for i, s in enumerate(spans, start=offset)}

    def under(span, name):
        p = span["parent"]
        while p is not None:
            if by_index[p]["name"] == name:
                return True
            p = by_index[p]["parent"]
        return False

    applies = [s for s in spans if s["name"] == "forward.op_apply"]
    # two complex FFTs of N = (2n)^3 points per apply: 5 N log2 N flops and
    # one read plus one write of N complex128 values each
    flops = sum(2 * 5 * s["padded_cells"] * math.log2(s["padded_cells"]) for s in applies)
    moved = sum(2 * 2 * 16 * s["padded_cells"] for s in applies)
    builds = [s for s in spans if s["name"] == "forward.op_build"]
    solves = [s for s in spans if s["name"] == "forward.solve"]
    dirs = [s["dirs"] for s in spans if s["name"] == "forward.far_field"]
    saves = [s for s in spans if s["name"] == "forward.io.save"]
    return {
        "migr.synthesize.calls": calls["migr.synthesize"],
        "migr.synthesize.s": total["migr.synthesize"],
        "migr.covariance.self_s": own["migr.covariance"],
        "kernels.kernel_block.s": total["kernels.kernel_block"],
        "forward.op_build.calls": calls["forward.op_build"],
        "forward.op_build.s": total["forward.op_build"],
        "forward.op_build.self_s": own["forward.op_build"],
        "forward.op_build.per_freq": _ratio(len(builds), len({s["k"] for s in builds})),
        "forward.op_apply.calls": calls["forward.op_apply"],
        "forward.op_apply.s": total["forward.op_apply"],
        "forward.op_apply.ms_per_call": 1e3 * _ratio(total["forward.op_apply"], len(applies)),
        "forward.op_apply.gflop_computed": flops / 1e9,
        "forward.op_apply.mb_moved_computed": moved / 1e6,
        "forward.solve.calls": calls["forward.solve"],
        "forward.solve.self_s": own["forward.solve"],
        "forward.solve.born_iters": sum(s["born_iters"] for s in solves),
        "forward.solve.applies_per_solve": _ratio(
            sum(under(s, "forward.solve") for s in applies), len(solves)),
        "forward.far_field.calls": calls["forward.far_field"],
        "forward.far_field.s": total["forward.far_field"],
        "forward.far_field.dirs": _ratio(sum(dirs), len(dirs)),
        "forward.band_sweep.self_s": own["forward.band_sweep"],
        "forward.io.save_s": total["forward.io.save"],
        "forward.io.load_s": total["forward.io.load"],
        "forward.io.bytes": sum(s["bytes"] for s in saves),
        "rsgf.write.s": total["rsgf.write"],
        "recovery.estimate.calls": calls["recovery.estimate"],
        "recovery.estimate.s": total["recovery.estimate"],
        "recovery.freq_lookup.calls": calls["recovery.freq_lookup"],
        "recovery.freq_lookup.s": total["recovery.freq_lookup"],
        "recovery.freq_lookup.per_estimate": _ratio(
            calls["recovery.freq_lookup"], calls["recovery.estimate"]),
        "recovery.assemble.self_s": own["recovery.assemble"],
        "recovery.nearfield_moment.s": total["recovery.nearfield_moment"],
    }
