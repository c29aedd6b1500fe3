"""Job-permutation encoding (flow shop, open shop).

The standard flow shop chromosome: a string of length ``n`` whose i-th gene
is the job at position i.  For open shops the same genome drives the
LPT-Task/LPT-Machine greedy decoders of Kokosinski & Studzienny [32] --
there the permutation is expanded to a permutation with repetitions by
cycling, or used directly when the caller supplies repetition genomes.
:class:`OpenShopPairSequenceEncoding` is the maximally expressive open-shop
genome the survey notes the others reduce to: a plain permutation of
operation ids, decoded greedily in list order (and hence batchable).
"""

from __future__ import annotations

import numpy as np

from ..scheduling.batch import (batch_completion_pair_sequence,
                                batch_completion_permutation,
                                batch_makespan_permutation)
from ..scheduling.flowshop import flowshop_makespan, flowshop_schedule
from ..scheduling.instance import FlowShopInstance, OpenShopInstance
from ..scheduling.openshop import (decode_job_repetition_lpt_machine,
                                   decode_job_repetition_lpt_task,
                                   decode_pair_sequence)
from ..scheduling.schedule import Schedule
from .base import GenomeKind

__all__ = ["FlowShopPermutationEncoding", "OpenShopPermutationEncoding",
           "OpenShopPairSequenceEncoding"]


class FlowShopPermutationEncoding:
    """Permutation of job indices; decoded by the flow-shop recurrence."""

    kind = GenomeKind.PERMUTATION

    def __init__(self, instance: FlowShopInstance):
        self.instance = instance

    def random_genome(self, rng: np.random.Generator) -> np.ndarray:
        return rng.permutation(self.instance.n_jobs).astype(np.int64)

    def decode(self, genome: np.ndarray) -> Schedule:
        return flowshop_schedule(self.instance, genome)

    # fast paths used by Problem.evaluate / evaluate_many / evaluate_batch
    def fast_makespan(self, genome: np.ndarray) -> float:
        return flowshop_makespan(self.instance, genome)

    def batch_makespan(self, chromosomes: np.ndarray) -> np.ndarray:
        return batch_makespan_permutation(self.instance, chromosomes)

    def batch_completion(self, chromosomes: np.ndarray) -> np.ndarray:
        return batch_completion_permutation(self.instance, chromosomes)


class OpenShopPermutationEncoding:
    """Permutation with repetitions + greedy LPT decoder [32].

    The genome contains each job index exactly ``n_machines`` times; the
    ``decoder`` argument selects LPT-Task (default) or LPT-Machine.
    """

    kind = GenomeKind.REPETITION

    def __init__(self, instance: OpenShopInstance, decoder: str = "lpt_task"):
        if decoder not in ("lpt_task", "lpt_machine"):
            raise ValueError("decoder must be 'lpt_task' or 'lpt_machine'")
        self.instance = instance
        self.decoder = decoder
        self.repeats = instance.n_machines

    def random_genome(self, rng: np.random.Generator) -> np.ndarray:
        base = np.repeat(np.arange(self.instance.n_jobs, dtype=np.int64),
                         self.repeats)
        rng.shuffle(base)
        return base

    def decode(self, genome: np.ndarray) -> Schedule:
        if self.decoder == "lpt_task":
            return decode_job_repetition_lpt_task(self.instance, genome)
        return decode_job_repetition_lpt_machine(self.instance, genome)

    def fast_makespan(self, genome: np.ndarray) -> float:
        return self.decode(genome).makespan


class OpenShopPairSequenceEncoding:
    """Permutation of operation ids, decoded greedily in list order.

    The genome is a plain permutation of ``range(n_jobs * n_machines)``
    where op id ``k`` names operation ``(k // n_machines, k % n_machines)``
    -- i.e. the explicit pair sequence of
    :func:`~repro.scheduling.openshop.decode_pair_sequence` flattened so
    that standard permutation operators (and the batch path) apply without
    repair.  Unlike the LPT decoders, list-order placement has no
    data-dependent machine choice, so whole populations decode as one
    :func:`~repro.scheduling.batch.batch_completion_pair_sequence` call.
    """

    kind = GenomeKind.PERMUTATION

    def __init__(self, instance: OpenShopInstance):
        self.instance = instance

    def random_genome(self, rng: np.random.Generator) -> np.ndarray:
        n_ops = self.instance.n_jobs * self.instance.n_machines
        return rng.permutation(n_ops).astype(np.int64)

    def pairs(self, genome: np.ndarray) -> np.ndarray:
        """Explicit ``(n_ops, 2)`` (job, machine) pairs of ``genome``."""
        ids = np.asarray(genome, dtype=np.int64)
        m = self.instance.n_machines
        return np.column_stack([ids // m, ids % m])

    def decode(self, genome: np.ndarray) -> Schedule:
        return decode_pair_sequence(self.instance, self.pairs(genome))

    def fast_makespan(self, genome: np.ndarray) -> float:
        completion = batch_completion_pair_sequence(
            self.instance, np.asarray(genome, dtype=np.int64))
        return float(completion.max()) if completion.size else 0.0

    def batch_completion(self, chromosomes: np.ndarray) -> np.ndarray:
        return batch_completion_pair_sequence(self.instance, chromosomes)
