"""In-process span tracing installed from outside the library.

`Tracer.install()` replaces every public, non-generator function of the
circuitkit modules (and the private ones named in PRIVATE) with a timing
wrapper, in every module namespace that binds it: `circuit_partition_polynomial`
is bound in `partition`, `sampling`, `planar` and the package, and calls
between modules go through whichever binding the caller looks up.
`uninstall()` puts the originals back. Nothing in the library changes.
Generator functions are not wrapped: their time is their consumer's.

A span is (id, name, start, end, parent, thread, self time). The parent is
the innermost open span on the same thread or, for a worker thread with no
open span of its own, the innermost open span of the thread running the op.
Self time is the span's duration minus the part of it that its children's
intervals cover; children on parallel threads are merged as a union, so
overlap is not subtracted twice. Spans sit in one flat array in memory and
are written out once, at the end.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable

MODULES = ("graphs", "partition", "diagrams", "sampling", "planar", "cli")
# Private functions wrapped as well: the per-chunk edge products run in
# worker threads inside estimate_q, and only a span of their own separates
# them from the draws there.
PRIVATE = ("_batch_products",)
FIELDS = ("id", "name", "start", "end", "parent", "thread", "self")


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    covered, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


class Tracer:
    def __init__(self, package, counters: dict[str, Callable] | None = None):
        self.package = package
        # span name -> fn(args, kwargs, result) -> {counter: amount}; runs after the span ends
        self.counters = counters or {}
        self.names: list[str] = []
        self.buf = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._root_stack: list[int] = []
        self._pending: dict[int, list[tuple[float, float]]] = {}
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [self.package] + [getattr(self.package, m) for m in MODULES]
        wrapped: dict[int, Callable] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if ((attr.startswith("_") and attr not in PRIVATE) or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(self.package.__name__ + ".")
                        or inspect.isgeneratorfunction(obj)):
                    continue
                if id(obj) not in wrapped:
                    home = obj.__module__.rsplit(".", 1)[-1]
                    wrapped[id(obj)] = self._wrap(obj, f"{home}.{obj.__name__}")
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        name_id = self._name_id(name)
        counter = self.counters.get(name)
        stacks, root, pending, buf, ids = self._stacks, self._root_stack, self._pending, self.buf, self._ids
        clock, ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks.setdefault(tid, [])
            parent = stack[-1] if stack else (root[-1] if root else -1)
            span = next(ids)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                kids = pending.pop(span, None)
                own = end - start - (_covered(kids, start, end) if kids else 0.0)
                if parent >= 0:
                    pending.setdefault(parent, []).append((start, end))
                # One extend call, so spans from two threads never interleave.
                buf.extend((span, name_id, start, end, parent, tid, own))
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    self.counts[key] += amount
            return result

        return wrapper

    def run_op(self, call: Callable[[], object]) -> object:
        """Run one op with the calling thread as the op's root thread."""
        self._root_stack[:] = []
        tid = threading.get_ident()
        self._stacks[tid] = self._root_stack
        try:
            return call()
        finally:
            del self._stacks[tid]

    @property
    def span_count(self) -> int:
        return len(self.buf) // len(FIELDS)

    def totals(self, first: int = 0) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: summed self time, summed duration, and call count,
        over the spans recorded from position `first` on."""
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        b, width = self.buf, len(FIELDS)
        for i in range(first * width, len(b), width):
            name = self.names[int(b[i + 1])]
            self_s[name] += b[i + 6]
            total_s[name] += b[i + 3] - b[i + 2]
            calls[name] += 1
        return self_s, total_s, calls

    def write(self, path: Path) -> None:
        """Spans as raw float64 rows of FIELDS, names and layout in a JSON sidecar."""
        with open(path, "wb") as out:
            self.buf.tofile(out)
        path.with_suffix(".json").write_text(json.dumps(
            {"fields": FIELDS, "dtype": "float64", "names": self.names}), encoding="utf-8")
