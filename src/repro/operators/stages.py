"""One generation's crossovers or mutations, varied by one kernel call.

The object substrate breeds pair by pair: each pair draws its crossover
gate, then its crossover, and so on, in a fixed order on the
population's RNG.  A :class:`Stage` keeps that order --
:meth:`Stage.add` makes one application's draws at once -- but defers
the work: :meth:`Stage.run` stacks the genomes of every pending
application and varies them with one call of the operator's batch
kernel.  Kernels never draw and treat rows independently, and a
:class:`~repro.operators.crossover.KernelCrossover` (or
:class:`~repro.operators.mutation.KernelMutation`) call *is* its draw
plus the kernel on a one-row block, so every result equals calling the
operator on its own.

Operators without a kernel -- third-party ones, LOX, CX, MSXF and the
other one-shot crossovers, scramble, composites without ``spans`` --
run whole at their draw, as do genomes a kernel cannot take (a
composite genome whose parts do not fit the spans, or a part its
operator would treat differently inside the stacked row).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from .batch import split_crossover_for, split_mutation_for, stack_params
from .crossover import CompositeCrossover, KernelCrossover
from .mutation import CompositeMutation, KernelMutation

__all__ = ["Slot", "Stage", "value"]


def _is_kernel_op(op: Any) -> bool:
    """Whether ``op``'s call is its draw plus its kernel."""
    return type(op).__call__ in (KernelCrossover.__call__,
                                 KernelMutation.__call__)


class Slot:
    """The result of a deferred application, set when its stage runs.

    ``like`` is a genome of the result's shape; a later stage draws on
    it while the value is pending (draws read shapes only).
    """

    __slots__ = ("value", "like", "_stage", "_item")

    def __init__(self, like: Any, stage: "Stage", item: "_Application"):
        self.value = None
        self.like = like
        self._stage = stage
        self._item = item


def value(x: Any) -> Any:
    """``x``, or the value of the slot ``x`` (run now if still pending)."""
    if not isinstance(x, Slot):
        return x
    if x.value is None:
        x._stage._run([x._item])
    return x.value


class _Application:
    __slots__ = ("genomes", "viewed", "params", "slots")

    def __init__(self, genomes: tuple, viewed: list):
        self.genomes = genomes  # as given: slots stay slots until run
        self.viewed = viewed    # (view, layout) per genome
        self.params: Any = None
        self.slots: tuple[Slot, ...] = ()


def _layout(genome: tuple) -> tuple:
    """Dtype and shape of each part of a composite genome."""
    return tuple([(part.dtype, part.shape) for part in genome])


class Stage:
    """One operator's applications within one generation.

    ``children`` is the number of results per application: 2 for a
    crossover, 1 for a mutation.  ``kernel`` is the operator's batch
    kernel, ``None`` when every application runs whole at its draw.
    """

    def __init__(self, op: Any, children: int = 1):
        self.op = op
        self.children = children
        self._pending: list[_Application] = []
        self._composite = type(op).__call__ in (CompositeCrossover.__call__,
                                                CompositeMutation.__call__)
        #: composite genome layout -> whether the composite kernel takes it
        self._takes: dict[tuple, bool] = {}
        if self._composite:
            has_kernel = op.spans is not None and all(
                part is None or _is_kernel_op(part) for part in op.parts)
        else:
            has_kernel = _is_kernel_op(op)
        twin_for = split_crossover_for if children == 2 else split_mutation_for
        self.kernel: Callable | None = \
            twin_for(op).kernel if has_kernel else None

    def _view(self, genome: Any) -> tuple[Any, tuple] | None:
        """``(view, layout)``: ``genome`` as the kernel reads it and the
        view's layout, or ``None`` if the kernel cannot take it."""
        if not self._composite:
            view = self.op.kernel_input(genome)[1]
            return view, (view.dtype, view.shape)
        if not isinstance(genome, tuple):
            return None
        try:
            layout = _layout(genome)
        except AttributeError:  # a part that is not an array
            return None
        takes = self._takes.get(layout)
        if takes is None:
            takes = self._takes[layout] = self._composite_takes(genome)
        return (genome, layout) if takes else None

    def _composite_takes(self, genome: tuple) -> bool:
        """Whether the composite kernel reproduces the operator on
        ``genome``: parts fill the spans in one dtype, and each part's
        operator reads its part as it is."""
        op = self.op
        if len(genome) != len(op.parts) \
                or len({part.dtype for part in genome}) != 1:
            return False
        for part_op, part, width in zip(op.parts, genome, op.spans):
            if part.size != width:
                return False
            if part_op is not None:
                kernel_op, row = part_op.kernel_input(part)
                if kernel_op is not part_op or row is not part or width == 0:
                    return False
        return True

    def add(self, rng: np.random.Generator, *genomes: Any) -> Any:
        """Make one application's draws now; returns its result or slots.

        ``genomes`` may be slots of an earlier stage.  With a kernel the
        result is deferred: a :class:`Slot` per child (a tuple of two
        for a crossover).  Without one, the operator runs now and its
        result is returned as the operator returns it.
        """
        if self.kernel is not None:
            viewed = [self._view(g.like if type(g) is Slot else g)
                      for g in genomes]
            if all(viewed):
                item = _Application(genomes, viewed)
                item.params = self.op.draw(*[v for v, _ in viewed], rng)
                like = viewed[0][0]
                item.slots = tuple([Slot(like, self, item)
                                    for _ in range(self.children)])
                self._pending.append(item)
                return item.slots if self.children > 1 else item.slots[0]
        return self.op(*map(value, genomes), rng)

    def run(self) -> None:
        """Vary every pending application: one kernel call per layout."""
        pending, self._pending = self._pending, []
        self._run([item for item in pending if item.slots[0].value is None])

    def _run(self, items: list[_Application]) -> None:
        groups: dict[tuple, list[_Application]] = {}
        for item in items:
            if any(type(g) is Slot for g in item.genomes):
                # the slots' values, now (a one-shot never takes a slot)
                item.viewed = [self._view(value(g)) for g in item.genomes]
            key = tuple([layout for _, layout in item.viewed])
            groups.setdefault(key, []).append(item)
        for members in groups.values():
            likes = [view for view, _ in members[0].viewed]
            op = self.op if self._composite else \
                self.op.kernel_input(likes[0])[0]
            blocks = [self._stack([item.viewed[j][0] for item in members])
                      for j in range(len(likes))]
            out = self.kernel(op, *blocks,
                              stack_params([item.params for item in members]))
            outs = out if self.children > 1 else (out,)
            for j, block in enumerate(outs):
                results = self._unstack(block, likes[j])
                for item, result in zip(members, results):
                    item.slots[j].value = result

    def _stack(self, views: list) -> np.ndarray:
        """One row per view (all of one layout), parts side by side."""
        m = len(views)
        if not self._composite:
            return np.concatenate(views, axis=None).reshape(m, views[0].size)
        return np.concatenate(
            [np.concatenate(parts, axis=None).reshape(m, parts[0].size)
             for parts in zip(*views)], axis=1)

    def _unstack(self, block: np.ndarray, like: Any) -> list:
        """Row-owned genomes shaped like ``like`` from a kernel output."""
        m = block.shape[0]
        if not self._composite:
            return [row.copy() for row in block.reshape(m, *like.shape)]
        parts, col = [], 0
        for part in like:
            rows = block[:, col:col + part.size].reshape(m, *part.shape)
            parts.append([row.copy() for row in rows])
            col += part.size
        return list(zip(*parts))
