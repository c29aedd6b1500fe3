"""Master-slave (global) parallel GA -- Table III of the survey.

::

    1: Initialize();
    2: while (termination criteria are not satisfied) do
    3:   Generation++
    4:   Selection();
    5:   Crossover();
    6:   Mutation();
    7:   Parallel_FitnessValueEvaluation_Individuals();
    9: end while

"The master-slave model is the only one that does not affect the behavior
of the algorithm by distributing the evaluation of fitness function to
slaves."  Accordingly :class:`MasterSlaveGA` *is* a
:class:`~repro.core.ga.SimpleGA` whose evaluation step is swapped for a
parallel executor -- given the same seed it produces bit-identical results
on any backend (a property the test suite asserts).

Backends:

* ``serial``   -- degenerate single-worker reference,
* ``process``  -- real multiprocessing pool (Mui et al. [17] regime),
* ``batched``  -- process pool behind the batch dispatcher of [18].

Every backend is one call, ``evaluator(genomes) -> objectives``: the
engine hands it each generation's offspring as one ``(pop, n_genes)``
chromosome matrix whenever the problem's genomes stack (workers
batch-decode their row-slice via :mod:`repro.scheduling.batch`), and as
the genome list otherwise; the backend slices either form the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.ga import GAConfig, GAResult, SimpleGA
from ..core.observers import Observer
from ..core.termination import Termination
from ..encodings.base import Problem
from .executors import (ChunkedEvaluator, EvalStats, ProcessPoolEvaluator,
                        SerialEvaluator)

__all__ = ["MasterSlaveGA"]


class MasterSlaveGA:
    """Single-population GA with parallel fitness evaluation.

    Parameters
    ----------
    problem, config, termination, seed, observers:
        exactly as for :class:`~repro.core.ga.SimpleGA`.
    n_workers:
        slave count (ignored for the ``serial`` backend).
    backend:
        ``"serial"`` | ``"process"`` | ``"batched"``.
    batch_size:
        batch size for the ``batched`` backend (Akhshabi [18]).
    chunks_per_worker:
        chunk granularity for the process pool.
    """

    def __init__(self, problem: Problem, config: GAConfig | None = None,
                 termination: Termination | None = None,
                 seed: int | np.random.Generator | None = None,
                 n_workers: int = 4, backend: str = "process",
                 batch_size: int = 16, chunks_per_worker: int = 1,
                 observers: Sequence[Observer] = ()):  # noqa: D401
        if backend not in ("serial", "process", "batched"):
            raise ValueError("backend must be serial|process|batched")
        self.backend = backend
        self.n_workers = n_workers
        if backend == "serial":
            self.evaluator = SerialEvaluator(problem)
        else:
            pool = ProcessPoolEvaluator(problem, n_workers=n_workers,
                                        chunks_per_worker=chunks_per_worker)
            self.evaluator = (ChunkedEvaluator(pool, batch_size=batch_size)
                              if backend == "batched" else pool)
        self.engine = SimpleGA(problem, config, termination, seed,
                               evaluator=self.evaluator, observers=observers)

    @property
    def eval_stats(self) -> EvalStats:
        return self.evaluator.stats

    def run(self) -> GAResult:
        """Run Table III to termination; closes the pool afterwards."""
        try:
            result = self.engine.run()
        finally:
            self.evaluator.close()
        result.extra["backend"] = self.backend
        result.extra["n_workers"] = self.n_workers
        result.extra["eval_wall_time"] = self.eval_stats.wall_time
        result.extra["eval_calls"] = self.eval_stats.calls
        # matrix-shipped evaluator calls (compact transport) vs whether the
        # decode itself was vectorised -- distinct facts, reported apart
        result.extra["matrix_eval_calls"] = self.eval_stats.batch_calls
        result.extra["batch_path"] = self.engine.uses_batch_path
        result.extra["substrate"] = self.engine.substrate
        return result
