"""Span tracing of the package's layers, from outside the package.

``Tracer.install`` replaces every public function of the layer modules with a
wrapper, in every layer namespace that holds it (so ``zeta.tube_volume``, the
name that ``zeta`` imports from ``geometry``, is wrapped too).  Each call records
a span (name, start, end, parent span) in flat in-memory arrays; a few layers
also record counts taken from their arguments or results.  ``uninstall``
restores the original functions.  Self time is a span's duration minus the
durations of its child spans.
"""
from __future__ import annotations

import inspect
import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np

LAYERS = ("geometry", "dims", "zeta", "spectrum", "tubeformula", "quasi", "cli")


def _quad_counts(args, kwargs, result, counts):
    # tube_zeta_quad(desc, s, delta, tol=1e-10, full=False)
    tol = kwargs.get("tol", args[3] if len(args) > 3 else 1e-10)
    counts["nodes"] += result.nodes
    counts["tol_met"] += result.quad_err_bound <= tol * max(1.0, abs(result.value))


# layer -> function recording its counts from (args, kwargs, result)
COUNTERS: dict[str, Callable] = {
    "zeta.tube_zeta_quad": _quad_counts,
    "geometry.distance_many": lambda a, k, r, c: c.__setitem__("points", c["points"] + len(r)),
    "zeta.distance_zeta_mc": lambda a, k, r, c: c.__setitem__("samples", c["samples"] + r.samples),
    "spectrum.spray_dims": lambda a, k, r, c: c.__setitem__("roots", c["roots"] + len(r)),
    "spectrum.poles": lambda a, k, r, c: c.__setitem__("poles", c["poles"] + len(r)),
    "tubeformula.truncated_tube":
        lambda a, k, r, c: c.__setitem__("terms", c["terms"] + len(r.term_magnitudes)),
}


class Tracer:
    def __init__(self, package) -> None:
        self.modules = [getattr(package, name) for name in LAYERS]
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, dict[str, float]] = {}
        self._stack: list[int] = []
        layer_names = {m.__name__ for m in self.modules}
        wrappers: dict[int, Callable] = {}
        # (module, attribute, original, wrapper), one wrapper per function
        self._plan: list[tuple[Any, str, Callable, Callable]] = []
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ not in layer_names:
                    continue
                if id(obj) not in wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(obj, name)
                self._plan.append((module, attr, obj, wrappers[id(obj)]))

    def _wrap(self, fn: Callable, name: str) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        counts = self.counts.setdefault(name, {"calls": 0, "nodes": 0, "tol_met": 0, "points": 0,
                                               "samples": 0, "roots": 0, "poles": 0, "terms": 0})
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            counts["calls"] += 1
            if counter is not None:
                counter(args, kwargs, result, counts)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self._plan:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._plan:
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per layer over every recorded span."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        own = np.bincount(name, weights=dur - child, minlength=len(self.names))
        return {n: float(own[i]) for i, n in enumerate(self.names)}

    def inclusive_times(self) -> dict[str, float]:
        """Total time per layer, children included, over outermost spans of each layer."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        # a span nested in a span of the same layer is already counted by it
        nested = (parent >= 0) & (name[np.maximum(parent, 0)] == name)
        tot = np.bincount(name[~nested], weights=dur[~nested], minlength=len(self.names))
        return {n: float(tot[i]) for i, n in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Write the spans (name index, parent span, start, end) and layer names."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.frombuffer(self.span_name, dtype=np.int32),
                            parent=np.frombuffer(self.span_parent, dtype=np.int32),
                            start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end))
