"""Outside-in span tracer for the benchmark.

The tracer never edits the library: :meth:`Tracer.install` swaps public
functions and methods of ``repro`` for thin wrappers *in the benchmark's
own process* and :meth:`Tracer.uninstall` puts the originals back.  Each
wrapper records a span -- ``[name, start, end, parent]`` -- in memory;
:meth:`Tracer.dump` writes them out once the run is over.

A span whose parent carries the same name is not recorded (a composite
crossover calling its part crossovers, ``evaluate_many`` calling the
batch evaluator), so every layer is counted once, at its outermost
boundary.  Forked children (master-slave and service workers) inherit
the wrappers switched off, so they run the original code.

Self time is a span's duration minus the union of its children's
intervals; :meth:`Tracer.self_times` sums it per span name.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

__all__ = ["Tracer", "SOLVER_LAYERS", "api_layer", "engine_layers"]

perf_counter = time.perf_counter


class Tracer:
    """In-memory spans and counters around patched library boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []          # [name, start, end, parent span]
        self.counts: dict[str, int] = defaultdict(int)
        self.active = False
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self) -> None:
        self.active = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording ---------------------------------------------------------------
    def begin(self, name: str) -> list | None:
        """Open a span on this thread (``None`` when nested in its own name)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None and parent[0] == name:
            return None
        record = [name, perf_counter(), 0.0, parent]
        self.spans.append(record)
        stack.append(record)
        return record

    def end(self, record: list | None) -> None:
        if record is not None:
            record[2] = perf_counter()
            self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """``with tracer.span(name):`` -- a span around benchmark code."""
        record = self.begin(name)
        try:
            yield
        finally:
            self.end(record)

    def record(self, name: str, start: float, end: float,
               parent: list | None = None) -> list:
        """Add a span measured elsewhere (service hand-off intervals)."""
        record = [name, start, end, parent]
        self.spans.append(record)
        return record

    def wrap(self, fn: Callable, name: str,
             count: Callable[..., tuple[str, int]] | None = None) -> Callable:
        """``fn`` recording a ``name`` span per outermost call.

        ``count(args, kwargs, result) -> (counter, n)`` adds ``n`` to a
        counter after each recorded call; ``.calls`` of the span name is
        always incremented.
        """
        tracer = self
        calls = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            record = tracer.begin(name)
            if record is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(record)
            tracer.counts[calls] += 1
            if count is not None:
                key, n = count(args, kwargs, result)
                tracer.counts[key] += n
            return result

        return traced

    # -- patching ----------------------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` until :meth:`uninstall`; keeps the original."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_call(self, owner: Any, attr: str, name: str,
                   count: Callable | None = None) -> None:
        """Wrap ``owner.attr`` (function or method) in a ``name`` span."""
        self.patch(owner, attr, self.wrap(owner.__dict__[attr], name, count))

    def patch_factory(self, owner: Any, attr: str, name: str,
                      count: Callable | None = None) -> None:
        """Wrap the callable ``owner.attr(...)`` *returns* in a span."""
        factory = owner.__dict__[attr]
        wrap = self.wrap

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            made = factory(*args, **kwargs)
            return None if made is None else wrap(made, name, count)

        self.patch(owner, attr, traced_factory)

    def install(self, layers: Iterable[Callable[["Tracer"], None]]) -> None:
        for layer in layers:
            layer(self)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its children's union."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent is not None:
                children[id(parent)].append((start, end))
        totals: dict[str, float] = defaultdict(float)
        for record in self.spans:
            name, start, end, _ = record
            covered = _union_length(children.get(id(record), ()), start, end)
            totals[name] += (end - start) - covered
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def dump(self, path: str, meta: dict[str, Any]) -> None:
        """Write every span as ``[id, name, start, end, parent_id]``."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        rows = [[i, name, round(start, 7), round(end, 7),
                 index.get(id(parent), -1) if parent is not None else -1]
                for i, (name, start, end, parent) in enumerate(self.spans)]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "counts": dict(self.counts),
                       "columns": ["id", "name", "start", "end", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))


def _union_length(intervals: Iterable[tuple[float, float]],
                  lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


# -- the solver's layer boundaries ---------------------------------------------------

def _rows(args, kwargs, result):
    return "encodings.evaluate.rows", len(args[-1])


def _payload(args, kwargs, result):
    return "parallel.executors.payload_bytes", int(args[1].nbytes)


def _migrants(args, kwargs, result):
    return "parallel.migration.migrants", int(result)


def _operator_classes(module) -> list[type]:
    return [obj for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and "__call__" in obj.__dict__]


def api_layer(tracer: Tracer) -> None:
    """Spec validation and name resolution (``repro.api``)."""
    from repro.api import facade
    from repro.api.spec import SolverSpec

    for fn in ("resolve_instance", "resolve_problem", "resolve_spec",
               "resolve_termination"):
        tracer.patch_call(facade, fn, "api.resolve")
    tracer.patch_call(SolverSpec, "validate", "api.resolve")


def engine_layers(tracer: Tracer) -> None:
    """Spans around the public calls the GA engines make, layer by layer."""
    from repro.core import ga, substrate
    from repro.core.observers import HistoryRecorder
    from repro.core.population import Population
    from repro.encodings.base import Problem
    from repro.operators import crossover, gt_crossover, mutation, selection
    from repro.parallel import fine_grained
    from repro.parallel.executors import ProcessPoolEvaluator
    from repro.parallel.island import IslandGA

    # encodings: batch decode + objective (and the per-genome fallback)
    tracer.patch_factory(Problem, "batch_evaluator", "encodings.evaluate",
                         _rows)
    tracer.patch_call(Problem, "evaluate_many", "encodings.evaluate", _rows)
    # operators: scalar operator objects and the batch kernels
    for module, name in ((selection, "operators.selection"),
                         (crossover, "operators.crossover"),
                         (gt_crossover, "operators.crossover"),
                         (mutation, "operators.mutation")):
        for cls in _operator_classes(module):
            tracer.patch_call(cls, "__call__", name)
    for module in (substrate, fine_grained):
        for kind in ("selection", "crossover", "mutation"):
            attr = f"batch_{kind}_for"
            if attr in vars(module):
                tracer.patch_factory(module, attr, f"operators.{kind}")
    # core: variation glue, elitist merge, observers
    tracer.patch_call(ga.SimpleGA, "make_offspring", "core.ga.variation")
    tracer.patch_call(ga, "make_offspring_matrix", "core.ga.variation")
    tracer.patch_call(ga, "elitist_merge_arrays", "core.substrate.merge")
    tracer.patch_call(Population, "elitist_merge", "core.substrate.merge")
    tracer.patch_call(HistoryRecorder, "observe", "core.observers.observe")
    # parallel models: migration, the cellular step, master-slave dispatch
    tracer.patch_call(IslandGA, "migrate", "parallel.island.migrate",
                      _migrants)
    tracer.patch_call(fine_grained.CellularGA, "step",
                      "parallel.fine_grained.step")
    tracer.patch_call(ProcessPoolEvaluator, "evaluate_batch",
                      "parallel.executors.dispatch", _payload)
    tracer.patch_call(ProcessPoolEvaluator, "__call__",
                      "parallel.executors.dispatch")


SOLVER_LAYERS = (api_layer, engine_layers)
