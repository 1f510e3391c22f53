"""Span tracer that wraps stochwave's public functions from outside the package.

Modules bind each other's functions by ``from .x import f`` (and under
aliases such as ``weighted._sweep``), so replacing ``f`` in its defining
module alone would leave every importing module calling the original and
whole layers would read as zero.  ``install`` therefore replaces a function
in every ``stochwave`` module namespace that binds it, and replaces methods
on their class.  ``uninstall`` restores every binding.

A span covers one call: (name, start, end, parent index).  Spans stay in
memory and are written out once, at the end.  A span's self time is its
duration minus the time its child spans cover; since experiments run on one
thread, children never overlap, and the self times of all spans sum to the
root span's duration.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


# Hooks turn one call's arguments, result and duration into counts.  Points
# and slices are read off the returned arrays' shapes, so they are computed.
def _transform_points(counts, args, result, duration):
    counts["lattice.transform.points"] += result.size


def _one_slice(counts, args, result, duration):
    counts["noise.slices"] += 1


def _batch_slices(counts, args, result, duration):
    counts["noise.slices"] += len(result)


def _picard_iterations(counts, args, result, duration):
    counts["solver.picard.iterations"] += result.iterations


def _run_time(counts, args, result, duration):
    counts[f"harness.run.{args[0].name}_s"] += duration


HOOKS = {
    "lattice:Grid.forward": _transform_points,
    "lattice:Grid.inverse": _transform_points,
    "noise:sample_slice": _one_slice,
    "noise:sample_slice_batch": _batch_slices,
    "solver:picard_iterate": _picard_iterations,
    "harness:run": _run_time,
}


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list = []
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self._stack: list = []  # [span index, child time] of the open spans
        self._undo: list = []

    def open(self, name: str) -> None:
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append([index, 0.0])

    def close(self, group: str) -> float:
        end = time.perf_counter()
        index, child = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        self.self_s[group] += duration - child
        self.calls[group] += 1
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def wrap(self, fn, group: str, name: str, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.close(group)
            if hook is not None:
                hook(tracer.counts, args, result, duration)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self, layers) -> None:
        """Wrap every target of every layer, in every namespace that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "stochwave" or n.startswith("stochwave."))]
        for layer in layers:
            for target in layer.targets:
                module_name, _, attr = target.partition(":")
                module = sys.modules[f"stochwave.{module_name}"]
                hook = HOOKS.get(target)
                name = f"{layer.group}:{attr}"
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    self._undo.append((cls, method, original))
                    setattr(cls, method, self.wrap(original, layer.group, name, hook))
                    continue
                original = getattr(module, attr)
                traced = self.wrap(original, layer.group, name, hook)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, original))
                            setattr(mod, key, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def write(self, path) -> None:
        """Write the spans as CSV: trace_id, index, name, start_s, end_s, parent."""
        with open(path, "w") as fh:
            fh.write("trace_id,index,name,start_s,end_s,parent\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{self.trace_id},{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")
