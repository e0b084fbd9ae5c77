"""Benchmark-side tracing: spans around the calls into each tritherm layer.

Nothing under ``src/`` is instrumented.  :class:`Tracer` replaces the
public functions of each module by timing wrappers in every tritherm
namespace that binds them (a module that did ``from ._kernels import
thermo_batch`` holds its own name for the kernel, so that name is wrapped
too), and puts the originals back on :meth:`Tracer.uninstall`.  A target
missing from the program is listed in :attr:`Tracer.absent` and its
metrics read 0.

A span is ``(label, start, end, parent, ok)``; a layer's self time is the
duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (defining module, attribute or Class.method, layer label)
TARGETS = (
    ("tritherm._kernels", "thermo_batch", "kernels"),
    ("tritherm.currents", "evaluate_point", "currents.evaluate_point"),
    ("tritherm.core", "MachineConfig.validate", "core.validate"),
    ("tritherm.core", "MachineConfig.from_dict", "core.from_dict"),
    ("tritherm.core", "apply_params", "core.apply_params"),
    ("tritherm.modes", "classify", "modes.classify"),
    ("tritherm.modes", "classify_reduced", "modes.classify"),
    ("tritherm.modes", "classify_arrays", "modes.classify"),
    ("tritherm.modes", "classify_reduced_arrays", "modes.classify"),
    ("tritherm.modes", "exergy_efficiency", "modes.exergy"),
    ("tritherm.modes", "exergy_from_split", "modes.exergy"),
    ("tritherm.modes", "mode_report", "modes.mode_report"),
    ("tritherm.transistor", "transistor_trace", "transistor.trace"),
    ("tritherm.transistor", "transistor_point", "transistor.point"),
    ("tritherm.transistor", "find_windows", "transistor.windows"),
    ("tritherm.transistor", "windows_from_arrays", "transistor.windows"),
    ("tritherm.sweep", "run_sweep", "sweep.run_sweep"),
    ("tritherm.sweep", "mode_sequence_along_omega", "sweep.mode_sequence"),
    ("tritherm.sweep", "SweepResult.to_csv", "sweep.to_csv"),
    ("tritherm.sweep", "SweepResult.to_json", "sweep.to_json"),
    ("tritherm.search", "run_search", "search.run_search"),
)

CLI_COMMANDS = ("sweep", "transistor", "search", "point")

# Each kernel point reads 12 float64 parameters and writes one float64 per
# output column; the figure is computed from the call, not measured.
KERNEL_INPUTS = 12
FLOAT_BYTES = 8


class Tracer:
    """In-memory span recorder with wrappers over tritherm's public calls."""

    def __init__(self):
        self.enabled = False
        self.spans = []            # [label, start, end, parent, ok]
        self.counts = defaultdict(int)
        self.absent = []
        self._stack = []
        self._restore = []

    # -- recording -------------------------------------------------------
    def _open(self, label):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([label, time.perf_counter(), 0.0, parent, True])
        self._stack.append(len(self.spans) - 1)

    def _close(self, ok):
        idx = self._stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = ok

    @contextmanager
    def span(self, label):
        """Benchmark-side span, e.g. around one ``tritherm.cli.main`` call."""
        if not self.enabled:
            yield
            return
        self._open(label)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(ok)

    def _wrap(self, fn, label):
        hook = _HOOKS.get(label)

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._open(label)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self._close(ok)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        return wrapper

    # -- installing ------------------------------------------------------
    def install(self):
        """Wrap every target in every tritherm namespace that binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "tritherm"
                                         or name.startswith("tritherm."))]
        for modname, attr, label in TARGETS:
            owner = sys.modules.get(modname)
            if owner is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            if "." in attr:
                self._install_method(owner, modname, attr, label)
                continue
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(fn, label)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapper)
                        self._restore.append((mod, name, fn))

    def _install_method(self, owner, modname, attr, label):
        clsname, meth = attr.split(".")
        cls = getattr(owner, clsname, None)
        raw = None if cls is None else vars(cls).get(meth)
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(raw.__func__, label))
        elif callable(raw):
            replacement = self._wrap(raw, label)
        else:
            self.absent.append(f"{modname}.{attr}")
            return
        setattr(cls, meth, replacement)
        self._restore.append((cls, meth, raw))

    def uninstall(self):
        """Put every original binding back."""
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()
        self.enabled = False

    # -- aggregation -----------------------------------------------------
    def layer_metrics(self, passes: int, overhead_s: float) -> dict:
        """Per-layer metrics per traced pass (see BENCHMARK.json per_layer)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for label, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start

        def ancestors(i):
            p = spans[i][3]
            while p >= 0:
                yield p
                p = spans[p][3]

        self_s = defaultdict(float)
        outer_s = defaultdict(float)     # inclusive, outermost span of a label
        calls = defaultdict(int)
        for i, (label, start, end, _, _) in enumerate(spans):
            self_s[label] += (end - start) - child[i]
            calls[label] += 1
            if all(spans[a][0] != label for a in ancestors(i)):
                outer_s[label] += end - start

        kernel_in_search = 0.0
        kernels_per_eval = 0
        candidates = valid = 0
        for i, (label, start, end, _, ok) in enumerate(spans):
            if label == "kernels":
                labels = [spans[a][0] for a in ancestors(i)]
                if "search.run_search" in labels:
                    kernel_in_search += (end - start) - child[i]
                nearest = next((lab for lab in labels
                                if lab.startswith("transistor.")), None)
                if nearest in ("transistor.trace", "transistor.point"):
                    kernels_per_eval += 1
            elif label == "core.validate":
                if any(spans[a][0] == "search.run_search" for a in ancestors(i)):
                    candidates += 1
                    valid += ok

        n = max(passes, 1)
        c = self.counts
        k_calls = calls["kernels"]
        k_points = c["kernels.points"]
        evals = calls["transistor.trace"] + calls["transistor.point"]
        search_s = outer_s["search.run_search"]
        cli_self = sum(self_s[f"cli.{cmd}"] for cmd in CLI_COMMANDS)
        m = {
            "kernels.calls": (k_calls / n, "count"),
            "kernels.points": (k_points / n, "count"),
            "kernels.points_per_call": (k_points / k_calls if k_calls else 0.0,
                                        "points/call"),
            "kernels.self_s": (self_s["kernels"] / n, "s"),
            "kernels.ns_per_point": (1e9 * self_s["kernels"] / k_points
                                     if k_points else 0.0, "ns/point"),
            "kernels.bytes_computed": (c["kernels.bytes"] / n, "B"),
            "currents.evaluate_point.calls":
                (calls["currents.evaluate_point"] / n, "count"),
            "currents.evaluate_point.self_s":
                (self_s["currents.evaluate_point"] / n, "s"),
            "core.validate.self_s": (self_s["core.validate"] / n, "s"),
            "core.apply_params.self_s": (self_s["core.apply_params"] / n, "s"),
            "core.from_dict.self_s": (self_s["core.from_dict"] / n, "s"),
            "modes.classify.self_s": (self_s["modes.classify"] / n, "s"),
            "modes.exergy.self_s": (self_s["modes.exergy"] / n, "s"),
            "modes.mode_report.self_s": (self_s["modes.mode_report"] / n, "s"),
            "transistor.trace.self_s": (self_s["transistor.trace"] / n, "s"),
            "transistor.point.self_s": (self_s["transistor.point"] / n, "s"),
            "transistor.windows.self_s": (self_s["transistor.windows"] / n, "s"),
            "transistor.kernel_calls_per_eval":
                (kernels_per_eval / evals if evals else 0.0, "calls/eval"),
            "sweep.run_sweep.self_s": (self_s["sweep.run_sweep"] / n, "s"),
            "sweep.mode_sequence.self_s": (self_s["sweep.mode_sequence"] / n, "s"),
            "sweep.cells": (c["sweep.cells"] / n, "count"),
            "sweep.error_cells": (c["sweep.error_cells"] / n, "count"),
            "sweep.to_csv.s": (outer_s["sweep.to_csv"] / n, "s"),
            "sweep.to_json.s": (outer_s["sweep.to_json"] / n, "s"),
            "sweep.csv_bytes": (c["sweep.csv_bytes"] / n, "B"),
            "sweep.json_bytes": (c["sweep.json_bytes"] / n, "B"),
            "search.run_search.self_s": (self_s["search.run_search"] / n, "s"),
            "search.candidates": (candidates / n, "count"),
            "search.valid_ratio": (valid / candidates if candidates else 0.0,
                                   "ratio"),
            "search.kernel_share": (kernel_in_search / search_s
                                    if search_s else 0.0, "ratio"),
        }
        for cmd in CLI_COMMANDS:
            m[f"cli.{cmd}.s"] = (outer_s[f"cli.{cmd}"] / n, "s")
        m["cli.self_s"] = (cli_self / n, "s")
        m["trace.overhead_s"] = (overhead_s, "s")
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in m.items()}

    def dump(self, path):
        """Write the recorded spans as JSON lines ``[label, start, end, parent, ok]``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- counters recorded at the same boundaries as the spans -----------------

def _count_kernel(counts, args, kwargs, result):
    shape = getattr(result, "shape", ())
    if not shape:
        return
    points = 1
    for d in shape[:-1]:
        points *= d
    counts["kernels.points"] += points
    counts["kernels.bytes"] += points * (KERNEL_INPUTS + shape[-1]) * FLOAT_BYTES


def _count_sweep(counts, args, kwargs, result):
    counts["sweep.cells"] += int(getattr(result, "size", 0))
    errors = getattr(result, "errors", None)
    if errors is not None:
        counts["sweep.error_cells"] += sum(1 for e in errors if e)


def _file_counter(key):
    def count(counts, args, kwargs, result):
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        if path is not None and os.path.exists(path):
            counts[key] += os.path.getsize(path)
    return count


_HOOKS = {
    "kernels": _count_kernel,
    "sweep.run_sweep": _count_sweep,
    "sweep.to_csv": _file_counter("sweep.csv_bytes"),
    "sweep.to_json": _file_counter("sweep.json_bytes"),
}
