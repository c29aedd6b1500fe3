"""Operation-based (permutation with repetition) encoding for job shops.

The survey's "direct way" for job shops: a string over job indices where
the k-th occurrence of job j denotes operation (j, k).  Any permutation of
the multiset decodes to a feasible semi-active schedule, so crossover needs
only multiset-preserving repair rather than schedule repair.

Three decoding modes:

* ``semi_active`` -- the plain greedy builder (default; fastest),
* ``active`` -- Giffler-Thompson with the chromosome as priority, giving
  active schedules as in Mui et al. [17],
* ``blocking`` -- the buffer-less decoder of AitZai et al. [14],
* ``graph`` -- disjunctive-graph longest-path evaluation (Somani [16]).
"""

from __future__ import annotations

import numpy as np

from ..scheduling.batch import (batch_completion_operation_sequence,
                                batch_makespan_operation_sequence)
from ..scheduling.graph import DisjunctiveGraph
from ..scheduling.instance import JobShopInstance
from ..scheduling.jobshop import (decode_blocking, decode_operation_sequence,
                                  giffler_thompson,
                                  operation_sequence_makespan)
from ..scheduling.schedule import Schedule
from .base import GenomeKind

__all__ = ["OperationBasedEncoding"]

_MODES = ("semi_active", "active", "blocking", "graph")


class OperationBasedEncoding:
    """Permutation-with-repetition chromosome for the JSSP."""

    kind = GenomeKind.REPETITION

    def __init__(self, instance: JobShopInstance, mode: str = "semi_active"):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if mode == "blocking" and not instance.blocking:
            # allowed, but decoding semantics assume the blocking constraint
            pass
        self.instance = instance
        self.mode = mode
        self._graph = DisjunctiveGraph(instance) if mode == "graph" else None

    def random_genome(self, rng: np.random.Generator) -> np.ndarray:
        base = np.repeat(np.arange(self.instance.n_jobs, dtype=np.int64),
                         self.instance.n_stages)
        rng.shuffle(base)
        return base

    def decode(self, genome: np.ndarray) -> Schedule:
        if self.mode == "active":
            priorities = self._sequence_priorities(genome)
            return giffler_thompson(self.instance, priorities)
        if self.mode == "blocking":
            return decode_blocking(self.instance, genome)
        if self.mode == "graph":
            return self._graph.schedule_of_sequence(genome)
        return decode_operation_sequence(self.instance, genome)

    def fast_makespan(self, genome: np.ndarray) -> float:
        if self.mode == "semi_active":
            return operation_sequence_makespan(self.instance, genome)
        if self.mode == "graph":
            return self._graph.makespan_of_sequence(genome)
        return self.decode(genome).makespan

    @property
    def batch_makespan(self):
        """Vectorised population decoder (semi-active mode only).

        Active (G&T), blocking and graph decoding have data-dependent
        control flow per chromosome, so the scalar decoders stay
        authoritative there; ``getattr(..., "batch_makespan", None)``
        returns ``None`` for those modes.
        """
        if self.mode != "semi_active":
            raise AttributeError(
                f"no batch decoder for mode {self.mode!r}")
        return self._batch_makespan

    def _batch_makespan(self, chromosomes: np.ndarray) -> np.ndarray:
        return batch_makespan_operation_sequence(self.instance, chromosomes)

    @property
    def batch_completion(self):
        """Vectorised per-job completion decoder (semi-active mode only).

        Matrix of chromosomes in, ``(pop, n_jobs)`` completion-time matrix
        out -- the input to the batch objective layer, enabling every
        Section-II criterion (not just makespan) on the batch path.
        """
        if self.mode != "semi_active":
            raise AttributeError(
                f"no batch decoder for mode {self.mode!r}")
        return self._batch_completion

    def _batch_completion(self, chromosomes: np.ndarray) -> np.ndarray:
        return batch_completion_operation_sequence(self.instance, chromosomes)

    def _sequence_priorities(self, genome: np.ndarray) -> np.ndarray:
        """Positions in the chromosome become G&T priorities.

        Operation (j, s) gets the index of job j's (s+1)-th occurrence, so
        an operation appearing early in the string is preferred early in
        the conflict set.
        """
        g = self.instance.n_stages
        prio = np.empty(self.instance.n_jobs * g)
        next_stage = np.zeros(self.instance.n_jobs, dtype=np.int64)
        for pos, job in enumerate(np.asarray(genome, dtype=np.int64)):
            prio[job * g + next_stage[job]] = pos
            next_stage[job] += 1
        return prio
