"""Spans and counts around every public spherepd function, for traced runs.

`Tracer.install` replaces each public function of every spherepd module
(every name without a leading underscore that the module defines, such
as `spherical.kernel_values`, which is missing from ``__all__``, plus the
public methods of its public classes) by a timing wrapper, in every
module namespace that holds a reference to it.  That covers names
imported directly, such as ``from .gegenbauer import coeffs_1d`` in
`spherical`, `constraints` and `codebounds`, or
``from .simplex import solve_lp`` in `codebounds`.

Each call records a span (name, start, end, parent span, op id) in flat
in-memory arrays; `write` saves them when the run ends.  A span's self
time is its duration minus the durations of the wrapped calls made
directly inside it.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # span name ids index this list
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.op_id = -1
        self._stack: list[list] = []  # [span index, time spent in wrapped children]

    def wrap(self, name: str, fn, on_result=None):
        name_id = len(self.names)
        self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_op.append(tracer.op_id)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.span_start[index] = start
                tracer.span_end[index] = end
                tracer.calls[name] += 1
                tracer.total_s[name] += duration
                tracer.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def install(self, package, modules) -> None:
        """Wrap the public functions and methods of `modules` (short names
        of submodules of `package`) in every namespace that refers to them."""
        namespaces = [package] + [getattr(package, m) for m in modules]
        replaced = {}
        for short in modules:
            module = getattr(package, short)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            setattr(obj, meth, self.wrap(f"{short}.{attr}.{meth}", fn))
                elif callable(obj) and id(obj) not in replaced:
                    hook = _RESULT_HOOKS.get(f"{short}.{attr}")
                    replaced[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj, hook))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])

    def metric(self, key: str) -> float:
        """`<module>.<function>.<stat>`; stat is calls, busy_s, self_s or a counter."""
        name, stat = key.rsplit(".", 1)
        if stat == "calls":
            return self.calls[name]
        if stat == "busy_s":
            return self.total_s[name]
        if stat == "self_s":
            return self.self_s[name]
        return self.counters[key]

    def write(self, path) -> None:
        """Save every span and the per-function totals as one .npz file."""
        totals = {
            name: {
                "calls": self.calls[name],
                "busy_s": self.total_s[name],
                "self_s": self.self_s[name],
            }
            for name in self.names
        }
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            totals=np.array(json.dumps(totals)),
            counters=np.array(json.dumps(dict(self.counters))),
        )


def _count_lp_iterations(tracer: Tracer, result) -> None:
    tracer.counters["simplex.solve_lp.iterations"] += result.iterations


def _count_scanned(tracer: Tracer, result) -> None:
    # the scan evaluates the residual at 1..n_max + 1
    tracer.counters["codebounds.theorem61_bound.scanned"] += result.n_max + 1


_RESULT_HOOKS = {
    "simplex.solve_lp": _count_lp_iterations,
    "codebounds.theorem61_bound": _count_scanned,
}
