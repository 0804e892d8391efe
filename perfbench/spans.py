"""Span tracer that wraps the program's public functions from outside.

Each wrapped call records a span (layer, start, end, parent span, operation
id) into flat arrays kept in memory until the run ends.  A wrapper is
installed by rebinding the function's name in every loaded ``hostark``
module that refers to it, including module-level dicts of functions, so
calls the program makes internally are captured as well.

A layer's self time is its span durations minus the time its child spans
cover; every second of a traced operation is therefore counted once, in
the self time of exactly one layer (``bench.op`` holds what no wrapped
function covers).
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter

ROOT = "bench.op"


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self._layer_id: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self.op_id = -1

    def layer_id(self, layer: str) -> int:
        lid = self._layer_id.get(layer)
        if lid is None:
            lid = self._layer_id[layer] = len(self.layers)
            self.layers.append(layer)
        return lid

    def open(self, lid: int) -> int:
        idx = len(self.layer)
        self.layer.append(lid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, layer: str, fn, on_result=None, on_error=None):
        """Wrap fn in a span; on_result(counters, result) / on_error(counters, exc).

        Calls made while no operation is open (the check that follows each
        operation) run unrecorded.
        """
        tracer, lid, stack = self, self.layer_id(layer), self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = tracer.open(lid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.close(idx)
                if on_error is not None:
                    on_error(tracer.counters, exc)
                raise
            tracer.close(idx)
            if on_result is not None:
                on_result(tracer.counters, result)
            return result

        return traced

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-layer self seconds and span counts over all recorded spans."""
        n = len(self.layer)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s: dict[str, float] = {}
        calls: Counter = Counter()
        for i in range(n):
            name = self.layers[self.layer[i]]
            self_s[name] = self_s.get(name, 0.0) + (self.end[i] - self.start[i] - child[i])
            calls[name] += 1
        return self_s, dict(calls)

    def write(self, path) -> None:
        """Write every span as gzipped JSON: layer names plus parallel columns."""
        payload = {
            "layers": self.layers,
            "columns": ["layer", "parent", "op", "start", "end"],
            "spans": [list(col) for col in
                      (self.layer, self.parent, self.op, self.start, self.end)],
        }
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            json.dump(payload, fh)


def bind(tracer: Tracer, targets) -> list[tuple]:
    """Wrap each (module, name, layer, on_result, on_error) target.

    Returns one (namespace, key, original, wrapper) binding for every place
    a loaded hostark module refers to the function: module attributes and
    values of module-level dicts.  Nothing is rebound until ``rebind``.
    """
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "hostark" or key.startswith("hostark."))]
    bindings = []
    for module_name, name, layer, on_result, on_error in targets:
        original = getattr(sys.modules[module_name], name)
        wrapper = tracer.wrap(layer, original, on_result, on_error)
        for mod in modules:
            for attr, value in vars(mod).items():
                if value is original:
                    bindings.append((vars(mod), attr, original, wrapper))
                elif isinstance(value, dict):
                    bindings.extend((value, key, original, wrapper)
                                    for key, item in value.items() if item is original)
    return bindings


def rebind(bindings, traced: bool) -> None:
    """Point every binding at its wrapper (traced) or back at the original."""
    for namespace, key, original, wrapper in bindings:
        namespace[key] = wrapper if traced else original
