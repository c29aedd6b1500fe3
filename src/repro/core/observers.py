"""Run observers: per-generation history and convergence diagnostics.

Most surveyed papers report convergence curves (best objective per
generation) and population-quality statistics (Park et al. [26] compare
best *and* average solution; Bozejko & Wodecki [30] report the standard
deviation improvement).  The :class:`HistoryRecorder` captures everything
those comparisons need; run loops call ``observe`` once per generation.

Recording is deferred: ``observe`` keeps a copy of the generation's
objective vector and its scalars, and the statistics are reduced when
the records are read (or a block fills), one ``min``/``max``/``mean``/
``std`` call per run of equal-sized generations.  A row reduction of a
stacked block gives the same bits as the 1-D reduction of each vector,
so every record equals that generation's ``population.stats()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Any, Callable, Sequence

import numpy as np

from .population import Population

__all__ = ["GenerationRecord", "HistoryRecorder", "CallbackObserver", "Observer"]


@dataclass(slots=True)
class GenerationRecord:
    """One generation's snapshot."""

    generation: int
    best: float
    mean: float
    std: float
    worst: float
    evaluations: int
    elapsed: float
    extra: dict[str, Any] = field(default_factory=dict)


class Observer:
    """Base observer; engines call :meth:`observe` each generation."""

    def observe(self, generation: int, population: Population,
                evaluations: int, elapsed: float, **extra: Any) -> None:
        raise NotImplementedError  # pragma: no cover


class HistoryRecorder(Observer):
    """Records a :class:`GenerationRecord` per generation.

    Also exposes the derived series the benchmarks print: best-so-far curve,
    generations-to-target, and area-under-curve convergence speed (smaller =
    converges faster), the metric we use for "higher convergence speed"
    claims such as Asadzadeh et al. [27].

    :meth:`observe` stores the objective vector; :attr:`records` reduces
    the generations stored since the last read.  A run that never reads
    its records still reduces a block whenever
    :data:`PENDING_OBJECTIVES` values are waiting, which bounds the
    memory a long run holds.
    """

    #: objective values held unreduced before a block is reduced
    PENDING_OBJECTIVES = 1 << 18

    def __init__(self) -> None:
        self._records: list[GenerationRecord] = []
        # (objectives, generation, evaluations, elapsed, extra) per
        # generation not yet reduced
        self._pending: list[tuple[np.ndarray, int, int, float, dict]] = []
        self._pending_size = 0

    def observe(self, generation: int, population: Population,
                evaluations: int, elapsed: float, **extra: Any) -> None:
        self.record(generation, population.objectives(), evaluations,
                    elapsed, **extra)

    def record(self, generation: int, objectives: np.ndarray,
               evaluations: int, elapsed: float, **extra: Any) -> None:
        """:meth:`observe` from the objective vector alone.

        The recorder keeps ``objectives``, so the caller passes a copy it
        will not change (``Population.objectives()`` returns one).
        """
        if objectives.size == 0 or np.isnan(objectives).any():
            raise ValueError("history records need a fully evaluated "
                             "population")
        self._pending.append((objectives, generation, evaluations, elapsed,
                              extra))
        self._pending_size += objectives.size
        if self._pending_size >= self.PENDING_OBJECTIVES:
            self._reduce_pending()

    @property
    def records(self) -> list[GenerationRecord]:
        """One :class:`GenerationRecord` per observed generation."""
        if self._pending:
            self._reduce_pending()
        return self._records

    def _reduce_pending(self) -> None:
        # one block per run of generations of one population size
        for _, run in groupby(self._pending, key=lambda entry: entry[0].size):
            run = list(run)
            block = np.stack([entry[0] for entry in run])
            stats = zip(block.min(axis=1).tolist(),
                        block.mean(axis=1).tolist(),
                        block.std(axis=1).tolist(),
                        block.max(axis=1).tolist())
            self._records.extend(
                GenerationRecord(generation, best, mean, std, worst,
                                 evaluations, elapsed, extra)
                for (_, generation, evaluations, elapsed, extra),
                (best, mean, std, worst) in zip(run, stats))
        self._pending = []
        self._pending_size = 0

    # -- derived series ----------------------------------------------------------
    def best_curve(self) -> np.ndarray:
        """Best-so-far objective per generation (monotone non-increasing)."""
        if not self.records:
            return np.empty(0)
        return np.minimum.accumulate(np.array([r.best for r in self.records]))

    def mean_curve(self) -> np.ndarray:
        return np.array([r.mean for r in self.records])

    def final_best(self) -> float:
        if not self.records:
            raise ValueError("no generations recorded")
        return float(self.best_curve()[-1])

    def generations_to_reach(self, target: float) -> int | None:
        """First generation whose best-so-far <= target, else ``None``."""
        curve = self.best_curve()
        hits = np.nonzero(curve <= target)[0]
        return int(hits[0]) if hits.size else None

    def convergence_auc(self) -> float:
        """Normalised area under the best-so-far curve.

        Curves are normalised by the initial best so runs on different
        instances are comparable; a faster-converging run has smaller AUC.
        """
        curve = self.best_curve()
        if curve.size == 0:
            raise ValueError("no generations recorded")
        return float(np.mean(curve / curve[0])) if curve[0] != 0 else 0.0


class CallbackObserver(Observer):
    """Adapter turning a plain function into an observer."""

    def __init__(self, fn: Callable[..., None]):
        self.fn = fn

    def observe(self, generation: int, population: Population,
                evaluations: int, elapsed: float, **extra: Any) -> None:
        self.fn(generation=generation, population=population,
                evaluations=evaluations, elapsed=elapsed, **extra)
