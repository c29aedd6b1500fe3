"""Random-keys encoding (Huang et al. [24]).

A genome is a real vector in [0, 1); sorting the keys yields a permutation
(flow shop) or an operation priority vector (job shop).  Random keys keep
every real vector feasible, so real-valued operators (parameterised uniform
crossover, Gaussian mutation, arithmetic crossover of Zajicek [25]) apply
without repair -- the property CUDA implementations exploit.
"""

from __future__ import annotations

import numpy as np

from ..scheduling.batch import (batch_completion_permutation,
                                batch_makespan_permutation)
from ..scheduling.flowshop import flowshop_makespan, flowshop_schedule
from ..scheduling.instance import FlowShopInstance, JobShopInstance
from ..scheduling.jobshop import giffler_thompson
from ..scheduling.schedule import Schedule
from .base import GenomeKind

__all__ = ["RandomKeysFlowShopEncoding", "RandomKeysJobShopEncoding",
           "keys_to_permutation"]


def keys_to_permutation(keys: np.ndarray) -> np.ndarray:
    """Permutation induced by ascending key order (stable)."""
    return np.argsort(np.asarray(keys), kind="stable").astype(np.int64)


class RandomKeysFlowShopEncoding:
    """Random keys over jobs; ascending sort gives the job sequence."""

    kind = GenomeKind.REAL

    def __init__(self, instance: FlowShopInstance):
        self.instance = instance

    def random_genome(self, rng: np.random.Generator) -> np.ndarray:
        return rng.random(self.instance.n_jobs)

    def permutation(self, genome: np.ndarray) -> np.ndarray:
        return keys_to_permutation(genome)

    def decode(self, genome: np.ndarray) -> Schedule:
        return flowshop_schedule(self.instance, self.permutation(genome))

    def fast_makespan(self, genome: np.ndarray) -> float:
        return flowshop_makespan(self.instance, self.permutation(genome))

    def batch_makespan(self, chromosomes: np.ndarray) -> np.ndarray:
        keys = np.asarray(chromosomes, dtype=float)
        perms = np.argsort(keys, axis=1, kind="stable").astype(np.int64)
        return batch_makespan_permutation(self.instance, perms)

    def batch_completion(self, chromosomes: np.ndarray) -> np.ndarray:
        keys = np.asarray(chromosomes, dtype=float)
        if keys.ndim == 1:
            keys = keys[None, :]
        perms = np.argsort(keys, axis=1, kind="stable").astype(np.int64)
        return batch_completion_permutation(self.instance, perms)


class RandomKeysJobShopEncoding:
    """Random keys as Giffler-Thompson priorities (one key per operation)."""

    kind = GenomeKind.REAL

    def __init__(self, instance: JobShopInstance):
        self.instance = instance

    def random_genome(self, rng: np.random.Generator) -> np.ndarray:
        return rng.random(self.instance.n_jobs * self.instance.n_stages)

    def decode(self, genome: np.ndarray) -> Schedule:
        return giffler_thompson(self.instance, np.asarray(genome, dtype=float))

    def fast_makespan(self, genome: np.ndarray) -> float:
        return self.decode(genome).makespan
