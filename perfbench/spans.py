"""Spans and exact counters recorded around calls into amalgam_zdg.

The tracer wraps each public function of the five layer modules and
rebinds it both in its defining module and wherever a ``from .x import
name`` copied it (other package modules, the package namespace, the CLI).
Without the copies, calls made through ``theorems.Instance`` would be
missed.  ``installed`` restores every binding on exit.

Spans live in memory as (name, start, end, parent, instance, self_s)
tuples.  Calls nest on one thread, so a span's self time is its duration
minus the summed durations of its direct children.
"""

from __future__ import annotations

import inspect
import json
import sys
import weakref
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("specs", "rings", "amalgam", "graphs", "theorems")
PACKAGE = "amalgam_zdg"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.instance: str | None = None
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._seen: dict[str, weakref.WeakSet] = defaultdict(weakref.WeakSet)

    def _enter(self) -> list:
        frame = [len(self.spans), perf_counter(), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        index, start, children = frame
        parent = self._stack[-1] if self._stack else None
        self.spans[index] = (
            name,
            start,
            end,
            parent[0] if parent else -1,
            self.instance,
            end - start - children,
        )
        if parent:
            parent[2] += end - start

    @contextmanager
    def span(self, name: str, instance: str | None = None):
        """A span opened by the benchmark itself around a unit of work."""
        if instance is not None:
            self.instance = instance
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(name, frame)

    def wrap(self, name: str, fn):
        count = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame)
            if count is not None:
                count(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def once(self, kind: str, obj) -> bool:
        """True the first time ``obj`` is seen under ``kind`` (weakly held)."""
        seen = self._seen[kind]
        if obj in seen:
            return False
        seen.add(obj)
        return True

    @contextmanager
    def installed(self):
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self.wrap(f"{layer}.{attr}", fn)
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self time per span name."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for name, _, _, _, _, own in self.spans:
            calls[name] += 1
            self_s[name] += own
        return calls, self_s

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "instance", "self_s")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


# Exact counters, taken after the counted call returns.  Lattices and
# graphs are counted once per object, since the program memoizes them.


def _count_ideals(tracer: Tracer, args, result) -> None:
    if tracer.once("all_ideals", args[0]):
        tracer.counters["rings.all_ideals.ideals"] += len(result)


def _count_primes(tracer: Tracer, args, result) -> None:
    if tracer.once("prime_ideals", args[0]):
        tracer.counters["rings.prime_ideals.primes"] += len(result)


def _count_tables(ring, tracer: Tracer) -> None:
    cells = ring.order * ring.order
    tracer.counters["amalgam.table_cells"] += 2 * cells
    tracer.counters["amalgam.table_bytes_computed"] += cells * (
        ring.add_table.itemsize + ring.mul_table.itemsize
    )


def _count_graph(tracer: Tracer, args, graph) -> None:
    if tracer.once("build_graph", graph):
        tracer.counters["graphs.vertices"] += graph.vertex_count
        tracer.counters["graphs.edges"] += int(graph.adjacency.sum()) // 2


def _count_bfs(tracer: Tracer, args, result) -> None:
    graph = args[0]
    if tracer.once("diameter", graph):
        v = graph.vertex_count
        tracer.counters["graphs.diameter.bfs_work"] += v * (
            v + int(graph.adjacency.sum()) // 2
        )


_COUNTERS = {
    "rings.all_ideals": _count_ideals,
    "rings.prime_ideals": _count_primes,
    "amalgam.amalgamated_duplication": lambda t, a, r: _count_tables(r.ring, t),
    "amalgam.idealization": lambda t, a, r: _count_tables(r, t),
    "graphs.build_graph": _count_graph,
    "graphs.diameter": _count_bfs,
}
