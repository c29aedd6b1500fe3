"""Evaluation executors: the master-slave seam.

The master-slave GA "keeps a single population ... the slaves take care of
fitness evaluation in parallel.  Data exchange occurs only when sending and
receiving tasks between the master and slaves" (survey, Section III.B).

Executors implement exactly that contract as one call,
``evaluator(genomes) -> objectives``, where ``genomes`` is a whole
``(pop_size, n_genes)`` chromosome matrix or, for genomes that do not
stack, a genome list.  Three backends:

* :class:`SerialEvaluator` -- no parallelism; the reference behaviour,
* :class:`ProcessPoolEvaluator` -- real OS processes via
  :mod:`concurrent.futures`; the problem is shipped once per worker through
  the pool initializer (the "send the model, then stream small tasks" MPI
  idiom).  Populations whose genomes stack into a rectangular matrix are
  shipped as contiguous sub-matrices -- one small ndarray pickle per chunk
  instead of a Python list of per-genome array pickles -- and each worker
  scores its slice with the problem's vectorised batch decoder,
* :class:`ChunkedEvaluator` -- wraps another evaluator with explicit batch
  sizes, modelling the batched dispatch of Akhshabi et al. [18].

A pool's workers start on its first task; :meth:`ProcessPoolEvaluator.warm_up`
submits a no-op so they fork and unpickle the problem while the master is
busy elsewhere, and :attr:`ProcessPoolEvaluator.slaves` sets how many of
them share each call.  :class:`~repro.parallel.master_slave.MasterSlaveGA`
uses both to size its slaves from measured costs.

All evaluators preserve input order, so swapping backends never changes GA
behaviour -- only wall-clock time.  Each evaluator records lightweight
timing/transfer statistics used by the experiments.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import astuple, dataclass
from typing import Any, Sequence

import numpy as np

from ..encodings.base import Problem

__all__ = ["EvalStats", "SerialEvaluator", "ProcessPoolEvaluator",
           "ChunkedEvaluator"]


@dataclass
class EvalStats:
    """Bookkeeping of evaluation calls (for speedup reporting)."""

    calls: int = 0
    genomes: int = 0
    wall_time: float = 0.0
    bytes_shipped: int = 0
    batch_calls: int = 0

    def record(self, n: int, seconds: float, payload_bytes: int = 0,
               batched: bool = False) -> None:
        self.calls += 1
        self.genomes += n
        self.wall_time += seconds
        self.bytes_shipped += payload_bytes
        if batched:
            self.batch_calls += 1

    def __add__(self, other: "EvalStats") -> "EvalStats":
        return EvalStats(*(a + b for a, b in zip(astuple(self),
                                                 astuple(other))))


class SerialEvaluator:
    """Evaluate on the calling process -- the simple GA's line 7."""

    def __init__(self, problem: Problem):
        self.problem = problem
        self.stats = EvalStats()

    def __call__(self, genomes: Sequence[Any]) -> np.ndarray:
        t0 = time.perf_counter()
        out = self.problem.evaluate_many(genomes)
        self.stats.record(len(genomes), time.perf_counter() - t0,
                          batched=isinstance(genomes, np.ndarray))
        return out

    def close(self) -> None:  # symmetric API
        pass


# --- worker-side state for the process pool ---------------------------------
_WORKER_PROBLEM: Problem | None = None


def _init_worker(payload: bytes) -> None:
    """Pool initializer: unpickle the problem once per worker process."""
    global _WORKER_PROBLEM
    _WORKER_PROBLEM = pickle.loads(payload)


def _warm_up() -> None:
    """Worker task that does nothing: its submission starts the workers."""


def _eval_chunk(genomes: Any) -> np.ndarray:
    """Worker task: score one chunk (matrix rows or genomes)."""
    assert _WORKER_PROBLEM is not None, "worker not initialised"
    return _WORKER_PROBLEM.evaluate_many(genomes)


class ProcessPoolEvaluator:
    """Master-slave evaluation over real OS processes.

    Parameters
    ----------
    problem:
        shipped to every worker once at pool start-up.
    n_workers:
        worker processes (defaults to CPU count).
    chunks_per_worker:
        each evaluation call is split into ``slaves * chunks_per_worker``
        chunks, where :attr:`slaves` starts at ``n_workers``; >1 smooths
        load imbalance at slightly higher messaging cost -- exactly the
        trade-off the survey describes for [18]'s batched dispatcher.
    """

    def __init__(self, problem: Problem, n_workers: int | None = None,
                 chunks_per_worker: int = 1):
        from concurrent.futures import ProcessPoolExecutor
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.problem = problem
        self.n_workers = n_workers
        #: workers that share one call; a sizing policy may lower it
        self.slaves = n_workers
        if chunks_per_worker < 1:
            raise ValueError("chunks_per_worker must be >= 1")
        self.chunks_per_worker = chunks_per_worker
        self.stats = EvalStats()
        payload = pickle.dumps(problem)
        self._pool = ProcessPoolExecutor(
            max_workers=self.n_workers,
            initializer=_init_worker,
            initargs=(payload,),
        )

    def _n_chunks(self, n: int) -> int:
        return min(n, self.slaves * self.chunks_per_worker)

    def warm_up(self):
        """Start the workers now; returns the no-op task's future."""
        return self._pool.submit(_warm_up)

    def __call__(self, genomes: Sequence[Any]) -> np.ndarray:
        """Ship contiguous slices of the genomes to the slaves.

        Genomes that stack go as row-slices of the chromosome matrix --
        one compact ndarray pickle per chunk, batch-decoded by the slave
        -- and others as sub-lists.  Results are concatenated in
        submission order, so output order matches input order exactly.
        """
        matrix = self.problem.stack_genomes(genomes)
        if matrix is not None:
            genomes = np.ascontiguousarray(matrix)
            payload = genomes.nbytes
        else:
            genomes = list(genomes)
            payload = sum(np.asarray(g[0] if isinstance(g, tuple) else g)
                          .nbytes for g in genomes)
        n = len(genomes)
        if n == 0:
            return np.empty(0)
        t0 = time.perf_counter()
        futures = [self._pool.submit(_eval_chunk, genomes[c[0]:c[-1] + 1])
                   for c in np.array_split(np.arange(n), self._n_chunks(n))]
        out = np.concatenate([fut.result() for fut in futures])
        self.stats.record(n, time.perf_counter() - t0, payload,
                          batched=matrix is not None)
        return out

    #: alias of ``__call__``; ``perfbench/tracer.py`` wraps both names
    evaluate_batch = __call__

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ProcessPoolEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ChunkedEvaluator:
    """Batched dispatch wrapper (Akhshabi et al. [18]).

    Individuals finishing variation enter an unassigned queue; the master
    partitions them to slaves "in batches".  Functionally this wrapper just
    forwards fixed-size batches to an inner evaluator and concatenates, but
    it makes batch size an explicit, measurable parameter.
    """

    def __init__(self, inner, batch_size: int = 16):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.inner = inner
        self.batch_size = batch_size
        self.stats = EvalStats()

    def __call__(self, genomes: Sequence[Any]) -> np.ndarray:
        """Forward fixed-size slices (matrix rows or genomes) to ``inner``."""
        t0 = time.perf_counter()
        parts = [self.inner(genomes[i:i + self.batch_size])
                 for i in range(0, len(genomes), self.batch_size)]
        out = np.concatenate(parts) if parts else np.empty(0)
        self.stats.record(len(genomes), time.perf_counter() - t0,
                          batched=isinstance(genomes, np.ndarray))
        return out

    def close(self) -> None:
        self.inner.close()
