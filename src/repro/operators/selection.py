"""Selection operators.

"Some well-known methods are implemented in this step: the roulette wheel
selection, the stochastic universal sampling, the tournament selection and
so on" (survey, Section III.A, citing Jebari & Madiafi [13]).

Selections operate on an evaluated :class:`~repro.core.population.
Population` (individuals carry maximised ``fitness``) and return a list of
*references* to selected parents; engines copy genomes before variation.

Each built-in selection is an :class:`IndexSelection`: its class holds
only its parameters, and a call runs the index twin its class registers
in :mod:`repro.operators.batch` on the population's fitness and
objective vectors -- the code the array generation runs -- and returns
the members at the chosen indices.  The scalar loops the twins replaced
are the tests' oracles (``tests/scalar_reference.py``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.individual import Individual
from ..core.population import Population

__all__ = [
    "Selection",
    "IndexSelection",
    "RouletteWheelSelection",
    "StochasticUniversalSampling",
    "TournamentSelection",
    "ElitistRouletteSelection",
    "RandomSelection",
    "RankSelection",
]

Selection = Callable[[Population, int, np.random.Generator], list[Individual]]


def _fitness_vector(population: Population) -> np.ndarray:
    fits = []
    for ind in population:
        if ind.fitness is None:
            raise ValueError("selection requires fitness values; apply a "
                             "fitness transform first")
        fits.append(ind.fitness)
    return np.asarray(fits, dtype=float)


def _normalised_probs(fits: np.ndarray) -> np.ndarray:
    if (fits < 0).any():
        raise ValueError("roulette-family selection needs non-negative fitness")
    total = fits.sum()
    if total <= 0:
        # degenerate population (all zero fitness): uniform choice
        return np.full(fits.size, 1.0 / fits.size)
    return fits / total


class IndexSelection:
    """A selection that is its batch twin on one population.

    The twin maps the fitness and objective vectors to the chosen
    indices with exactly its RNG calls; the call returns the members at
    those indices, in order.
    """

    def __call__(self, population: Population, k: int,
                 rng: np.random.Generator) -> list[Individual]:
        from .batch import batch_selection_for
        idx = batch_selection_for(self)(_fitness_vector(population),
                                        population.objectives(), k, rng)
        return [population[int(i)] for i in idx]


class RouletteWheelSelection(IndexSelection):
    """Fitness-proportionate sampling with replacement."""


class StochasticUniversalSampling(IndexSelection):
    """SUS: one spin, ``k`` equally spaced pointers; lower variance than RWS.

    The chosen members are shuffled so pairing is unbiased.
    """


class TournamentSelection(IndexSelection):
    """k-way tournament (Defersha & Chen [35][36]; Zajicek [25] uses k=2)."""

    def __init__(self, size: int = 2):
        if size < 1:
            raise ValueError("tournament size must be >= 1")
        self.size = size


class ElitistRouletteSelection(IndexSelection):
    """Mui et al. [17]: elite fraction passes straight, rest via roulette."""

    def __init__(self, elite_fraction: float = 0.1):
        if not 0 <= elite_fraction <= 1:
            raise ValueError("elite_fraction must be in [0, 1]")
        self.elite_fraction = elite_fraction


class RandomSelection(IndexSelection):
    """Uniform random parents (Lin et al. [21] pair THX with random selection)."""


class RankSelection(IndexSelection):
    """Linear-rank-proportionate sampling (scale-free roulette)."""
