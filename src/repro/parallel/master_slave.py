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

Slave count.  Section IV warns that "frequent communication overhead
offsets some performance gains from slaves' computing", and Cantu-Paz's
model (:mod:`repro.parallel.perfmodel`) says by how much:
``T_p = n*Tf/P + P*Tc``.  The engine measures both costs inside its own
run and picks ``P`` from them:

* ``n_workers`` is a ceiling: at most ``min(n_workers, os.cpu_count())``
  slaves, and with one of them no pool is ever started;
* ``Tf``: the master evaluates the initial population itself and times
  it, while the pool's workers fork and load the problem behind a no-op
  warm-up task;
* ``Tc``: generation 1 runs on every slave, after the warm-up has ended,
  and its wall time ``T_p`` gives ``Tc = (T_p - n*Tf/P)/P``;
* the rest of the run uses the ``P`` in ``1..cap`` that minimises
  ``T_p`` (``P = 1`` costs ``n*Tf`` and sends nothing): with one slave
  the pool shuts down and the master evaluates alone.

The probe costs at most one generation of evaluation over the best
choice: generation 1 on the pool when the master alone would have been
faster.  ``result.extra["sizing"]`` reports ``t_eval``, ``t_comm``, the
``slaves`` chosen, the model's ``predicted_speedup`` at the capped count
and the ``measured_speedup`` (``evaluations * Tf`` over the evaluation
wall time).
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from ..core.ga import GAConfig, GAResult, SimpleGA
from ..core.observers import Observer
from ..core.termination import Termination
from ..encodings.base import Problem
from .executors import (ChunkedEvaluator, EvalStats, ProcessPoolEvaluator,
                        SerialEvaluator)
from .perfmodel import master_slave_speedup, master_slave_time

__all__ = ["MasterSlaveGA"]


class MasterSlaveGA:
    """Single-population GA with parallel fitness evaluation.

    Parameters
    ----------
    problem, config, termination, seed, observers:
        exactly as for :class:`~repro.core.ga.SimpleGA`.
    n_workers:
        most slaves to use (ignored for the ``serial`` backend); capped
        at the cores present, then sized from the measured evaluation and
        communication costs (see the module docstring).
    backend:
        ``"serial"`` | ``"process"`` | ``"batched"``.
    batch_size:
        batch size for the ``batched`` backend (Akhshabi [18]).
    chunks_per_worker:
        chunk granularity for the process pool: each call ships
        ``slaves * chunks_per_worker`` chunks.
    """

    def __init__(self, problem: Problem, config: GAConfig | None = None,
                 termination: Termination | None = None,
                 seed: int | np.random.Generator | None = None,
                 n_workers: int = 4, backend: str = "process",
                 batch_size: int = 16, chunks_per_worker: int = 1,
                 observers: Sequence[Observer] = ()):  # noqa: D401
        if backend not in ("serial", "process", "batched"):
            raise ValueError("backend must be serial|process|batched")
        if backend != "serial" and min(n_workers, batch_size,
                                       chunks_per_worker) < 1:
            raise ValueError("n_workers, batch_size and chunks_per_worker "
                             "must be >= 1")
        self.backend = backend
        self.n_workers = n_workers
        # the engine first, so that a refused configuration starts no pool
        self.engine = SimpleGA(problem, config, termination, seed,
                               evaluator=self._evaluate, observers=observers)
        #: most slaves that can run at once
        self.cap = (1 if backend == "serial"
                    else min(n_workers, os.cpu_count() or 1))
        self.master = SerialEvaluator(problem)
        self.pool = self.remote = None
        if self.cap > 1:
            self.pool = ProcessPoolEvaluator(
                problem, n_workers=self.cap,
                chunks_per_worker=chunks_per_worker)
            self.remote = (ChunkedEvaluator(self.pool, batch_size=batch_size)
                           if backend == "batched" else self.pool)
        self._evaluator = self.master
        self._warm_up = None
        self.sizing = {"t_eval": None, "t_comm": None, "slaves": 1,
                       "predicted_speedup": 1.0 if self.cap == 1 else None,
                       "measured_speedup": None}

    @property
    def eval_stats(self) -> EvalStats:
        """The master's and the pool's evaluation calls, summed."""
        if self.remote is None:
            return self.master.stats
        return self.master.stats + self.remote.stats

    def _evaluate(self, genomes) -> np.ndarray:
        """The engine's evaluator: one call per generation.

        Generation 0 runs on the master (``Tf``), generation 1 on every
        slave (``Tc``); later ones on the side :meth:`_size` chose.
        """
        if self.sizing["t_eval"] is None:
            out = self.master(genomes)
            self.sizing["t_eval"] = self.master.stats.wall_time / len(genomes)
            return out
        if self._warm_up is None:
            return self._evaluator(genomes)
        self._warm_up.result()        # fork and initializer: not timed
        self._warm_up = None
        out = self.remote(genomes)
        self._size(len(genomes))
        return out

    def _size(self, n: int) -> None:
        """Pick the slave count from generation 0 and generation 1's times."""
        t_eval = self.sizing["t_eval"]
        t_comm = max(0.0, (self.remote.stats.wall_time
                           - n * t_eval / self.cap) / self.cap)
        # one slave is the master alone: no communication term
        slaves = min(range(1, self.cap + 1), key=lambda p: master_slave_time(
            n, t_eval, t_comm if p > 1 else 0.0, p))
        self.sizing.update(
            t_comm=t_comm, slaves=slaves,
            predicted_speedup=master_slave_speedup(n, t_eval, t_comm,
                                                   self.cap))
        if slaves == 1:
            self.pool.close()
        else:
            self.pool.slaves = slaves
            self._evaluator = self.remote

    def run(self) -> GAResult:
        """Run Table III to termination; closes the pool afterwards."""
        try:
            if self.pool is not None:
                self._warm_up = self.pool.warm_up()
            result = self.engine.run()
        finally:
            if self.pool is not None:
                self.pool.close()
        stats = self.eval_stats
        if stats.wall_time > 0:
            self.sizing["measured_speedup"] = (
                stats.genomes * self.sizing["t_eval"] / stats.wall_time)
        result.extra["backend"] = self.backend
        result.extra["n_workers"] = self.n_workers
        result.extra["sizing"] = dict(self.sizing)
        result.extra["eval_wall_time"] = stats.wall_time
        result.extra["eval_calls"] = stats.calls
        # matrix-shipped evaluator calls (compact transport) vs whether the
        # decode itself was vectorised -- distinct facts, reported apart
        result.extra["matrix_eval_calls"] = stats.batch_calls
        result.extra["batch_path"] = self.engine.uses_batch_path
        result.extra["substrate"] = self.engine.substrate
        return result
