"""Evaluation executors: the master-slave seam.

The master-slave GA "keeps a single population ... the slaves take care of
fitness evaluation in parallel.  Data exchange occurs only when sending and
receiving tasks between the master and slaves" (survey, Section III.B).

Executors implement exactly that contract: ``evaluate(genomes) ->
objectives``, plus a vectorised ``evaluate_batch(matrix) -> objectives``
that takes a whole ``(pop_size, n_genes)`` chromosome matrix.  Three
backends:

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

All evaluators preserve input order, so swapping backends never changes GA
behaviour -- only wall-clock time.  Each evaluator records lightweight
timing/transfer statistics used by the experiments.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
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


class SerialEvaluator:
    """Evaluate on the calling process -- the simple GA's line 7."""

    def __init__(self, problem: Problem):
        self.problem = problem
        self.stats = EvalStats()

    def __call__(self, genomes: Sequence[Any]) -> np.ndarray:
        t0 = time.perf_counter()
        out = self.problem.evaluate_many(list(genomes))
        self.stats.record(len(genomes), time.perf_counter() - t0)
        return out

    def evaluate_batch(self, matrix: np.ndarray) -> np.ndarray:
        """Score a whole chromosome matrix with the vectorised decoder."""
        t0 = time.perf_counter()
        out = self.problem.evaluate_batch(matrix)
        self.stats.record(len(matrix), time.perf_counter() - t0,
                          batched=True)
        return out

    def close(self) -> None:  # symmetric API
        pass


# --- worker-side state for the process pool ---------------------------------
_WORKER_PROBLEM: Problem | None = None


def _init_worker(payload: bytes) -> None:
    """Pool initializer: unpickle the problem once per worker process."""
    global _WORKER_PROBLEM
    _WORKER_PROBLEM = pickle.loads(payload)


def _eval_chunk(genomes: list[Any]) -> list[float]:
    """Worker task: score one chunk with the cached problem."""
    assert _WORKER_PROBLEM is not None, "worker not initialised"
    return [float(v) for v in _WORKER_PROBLEM.evaluate_many(genomes)]


def _eval_matrix(matrix: np.ndarray) -> np.ndarray:
    """Worker task: score one chromosome sub-matrix, batch-decoded."""
    assert _WORKER_PROBLEM is not None, "worker not initialised"
    return np.asarray(_WORKER_PROBLEM.evaluate_batch(matrix), dtype=float)


class ProcessPoolEvaluator:
    """Master-slave evaluation over real OS processes.

    Parameters
    ----------
    problem:
        shipped to every worker once at pool start-up.
    n_workers:
        slave count (defaults to CPU count).
    chunks_per_worker:
        each evaluation call is split into ``n_workers * chunks_per_worker``
        chunks; >1 smooths load imbalance at slightly higher messaging cost
        -- exactly the trade-off the survey describes for [18]'s batched
        dispatcher.
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
        if chunks_per_worker < 1:
            raise ValueError("chunks_per_worker must be >= 1")
        self.chunks_per_worker = chunks_per_worker
        self.stats = EvalStats()
        payload = pickle.dumps(problem)
        self._payload_size = len(payload)
        self._pool = ProcessPoolExecutor(
            max_workers=self.n_workers,
            initializer=_init_worker,
            initargs=(payload,),
        )

    def _n_chunks(self, n: int) -> int:
        return min(n, self.n_workers * self.chunks_per_worker)

    def __call__(self, genomes: Sequence[Any]) -> np.ndarray:
        genomes = list(genomes)
        if not genomes:
            return np.empty(0)
        matrix = self.problem.stack_genomes(genomes)
        if matrix is not None:
            return self.evaluate_batch(matrix)
        t0 = time.perf_counter()
        chunks = [list(c) for c in np.array_split(
            np.arange(len(genomes)), self._n_chunks(len(genomes))) if len(c)]
        futures = [self._pool.submit(_eval_chunk,
                                     [genomes[i] for i in idx])
                   for idx in chunks]
        out = np.empty(len(genomes))
        for idx, fut in zip(chunks, futures):
            for i, val in zip(idx, fut.result()):
                out[i] = val
        payload = sum(np.asarray(g[0] if isinstance(g, tuple) else g).nbytes
                      for g in genomes)
        self.stats.record(len(genomes), time.perf_counter() - t0, payload)
        return out

    def evaluate_batch(self, matrix: np.ndarray) -> np.ndarray:
        """Ship contiguous row-slices of the chromosome matrix to slaves.

        Each slave receives one ndarray (a single compact pickle) and
        batch-decodes it; results are concatenated in submission order, so
        output order matches input order exactly.
        """
        matrix = np.asarray(matrix)
        if len(matrix) == 0:
            return np.empty(0)
        t0 = time.perf_counter()
        parts = [np.ascontiguousarray(p) for p in
                 np.array_split(matrix, self._n_chunks(len(matrix)))
                 if len(p)]
        futures = [self._pool.submit(_eval_matrix, p) for p in parts]
        out = np.concatenate([fut.result() for fut in futures])
        self.stats.record(len(matrix), time.perf_counter() - t0,
                          matrix.nbytes, batched=True)
        return out

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
        genomes = list(genomes)
        t0 = time.perf_counter()
        parts = [self.inner(genomes[i:i + self.batch_size])
                 for i in range(0, len(genomes), self.batch_size)]
        out = np.concatenate(parts) if parts else np.empty(0)
        self.stats.record(len(genomes), time.perf_counter() - t0)
        return out

    def evaluate_batch(self, matrix: np.ndarray) -> np.ndarray:
        """Forward fixed-size row-slices of the matrix to the inner batch path."""
        matrix = np.asarray(matrix)
        t0 = time.perf_counter()
        inner_batch = getattr(self.inner, "evaluate_batch", None)
        parts = []
        for i in range(0, len(matrix), self.batch_size):
            block = matrix[i:i + self.batch_size]
            if inner_batch is not None:
                parts.append(inner_batch(block))
            else:
                parts.append(self.inner(list(block)))
        out = np.concatenate(parts) if parts else np.empty(0)
        self.stats.record(len(matrix), time.perf_counter() - t0,
                          batched=True)
        return out

    def close(self) -> None:
        self.inner.close()
