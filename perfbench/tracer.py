"""Span tracing of p4spec's public functions, from outside the program.

`instrument(tracer)` replaces every public function that a p4spec module
defines with a wrapper that records one span (name, start, end, parent)
around each call.  The wrapper is bound in every p4spec module that binds
the original, so `p4spec.theorems.enumerate_p4` and `p4spec.p4.enumerate_p4`
both record `p4.enumerate_p4`.  The originals are put back on exit; no
program source changes.

Generator functions (`graphs.bits`, `constructions.enumerate_graphs`) are
left alone: their work runs while the caller iterates, so it already counts
as the caller's self time.  Private helpers and methods are not wrapped
either, so their time is self time of the public function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from contextlib import contextmanager
from time import perf_counter

# The package's modules, which are the trace's layers.
LAYERS = ("graphs", "constructions", "spectral", "p4", "theorems", "formats",
          "dsl", "cli")

# Useful-outcome predicates: the wrapper counts results for which they hold.
USEFUL = {"spectral.exact_spectrum": lambda spec: spec.is_integral}


class Tracer:
    """In-memory span store: four parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.useful = {name: 0 for name in USEFUL}
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        stack = self._stack
        self.name_of.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def summary(self) -> tuple[dict[str, tuple[int, float, float]], float]:
        """Per span name (calls, total s, self s), and the total duration of
        the root spans.

        Self time is a span's duration minus the durations of its child
        spans; spans of one thread nest, so the children never overlap.
        """
        n = len(self.start)
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        child = array("d", bytes(8 * n))
        roots = 0.0
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
            else:
                roots += dur[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, nid in enumerate(self.name_of):
            calls[nid] += 1
            total[nid] += dur[i]
            own[nid] += dur[i] - child[i]
        stats = {name: (calls[k], total[k], own[k]) for k, name in enumerate(self.names)}
        return stats, roots


def _traceable(obj) -> bool:
    if inspect.isfunction(obj):
        return not inspect.isgeneratorfunction(obj)
    return callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__")


def _wrap(fn, tracer: Tracer, name: str):
    nid = tracer.name_id(name)
    open_, close = tracer.open, tracer.close
    useful = USEFUL.get(name)
    if useful is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if useful(result):
                tracer.useful[name] += 1
            return result
    return wrapper


def public_functions() -> dict[int, tuple[str, object]]:
    """id -> (span name, function) for every public function a layer defines."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"p4spec.{layer}")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and _traceable(obj)
                    and getattr(obj, "__module__", None) == mod.__name__):
                found[id(obj)] = (f"{layer}.{obj.__name__}", obj)
    return found


@contextmanager
def instrument(tracer: Tracer):
    """Route every binding of every public p4spec function through a span."""
    import p4spec
    modules = [p4spec] + [importlib.import_module(f"p4spec.{layer}") for layer in LAYERS]
    wrappers = {key: (fn, _wrap(fn, tracer, name))
                for key, (name, fn) in public_functions().items()}
    patched = []
    try:
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, obj))
        yield tracer
    finally:
        for mod, attr, obj in patched:
            setattr(mod, attr, obj)
