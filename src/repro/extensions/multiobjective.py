"""Multi-objective machinery (Rashidi et al. [38], Tang et al. [9]).

[38] runs islands that each minimise a differently *weighted* combination
of (makespan, maximum tardiness): "The paired weights in different islands
are different with a small deviation between each successive pairs ...
all islands worked in parallel for Pareto optimal solutions."

Provided here:

* Pareto dominance and non-dominated sorting,
* a :class:`ParetoArchive` collecting non-dominated points across islands,
* 2-D hypervolume and coverage metrics used to compare fronts,
* :func:`weight_vectors` -- the evenly spread weight pairs of [38],
* :class:`WeightedIslandMOGA` -- the [38] algorithm: one island per
  weight pair, shared Pareto archive, optional local-search/Redirect
  post-step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from ..core.ga import GAConfig, SimpleGA
from ..core.rng import spawn_rngs
from ..core.termination import MaxGenerations, Termination, TerminationState
from ..encodings.base import Problem
from ..scheduling.objectives import WeightedCombination

__all__ = ["dominates", "non_dominated_sort", "ParetoArchive",
           "hypervolume_2d", "coverage", "weight_vectors",
           "WeightedIslandMOGA"]


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True iff ``a`` Pareto-dominates ``b`` (minimisation)."""
    a = tuple(a)
    b = tuple(b)
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def non_dominated_sort(points: Sequence[Sequence[float]]) -> list[list[int]]:
    """Fast non-dominated sorting; returns index fronts (front 0 = best)."""
    n = len(points)
    dominated_by: list[list[int]] = [[] for _ in range(n)]
    dom_count = [0] * n
    fronts: list[list[int]] = [[]]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if dominates(points[i], points[j]):
                dominated_by[i].append(j)
            elif dominates(points[j], points[i]):
                dom_count[i] += 1
        if dom_count[i] == 0:
            fronts[0].append(i)
    k = 0
    while fronts[k]:
        nxt: list[int] = []
        for i in fronts[k]:
            for j in dominated_by[i]:
                dom_count[j] -= 1
                if dom_count[j] == 0:
                    nxt.append(j)
        fronts.append(nxt)
        k += 1
    return fronts[:-1]


@dataclass
class ParetoArchive:
    """Bounded archive of non-dominated (point, payload) entries."""

    capacity: int = 128
    entries: list[tuple[tuple[float, ...], Any]] = field(default_factory=list)

    def add(self, point: Sequence[float], payload: Any = None) -> bool:
        """Insert if non-dominated; prunes dominated entries.  Returns
        True when the point entered the archive."""
        pt = tuple(float(x) for x in point)
        for existing, _ in self.entries:
            if dominates(existing, pt) or existing == pt:
                return False
        self.entries = [(p, d) for p, d in self.entries
                        if not dominates(pt, p)]
        self.entries.append((pt, payload))
        if len(self.entries) > self.capacity:
            self._thin()
        return True

    def _thin(self) -> None:
        """Drop the most crowded entry (keeps extremes)."""
        pts = np.array([p for p, _ in self.entries])
        order = np.argsort(pts[:, 0])
        crowd = np.full(len(self.entries), np.inf)
        for k in range(1, len(order) - 1):
            crowd[order[k]] = float(
                np.sum(np.abs(pts[order[k + 1]] - pts[order[k - 1]])))
        drop = int(np.argmin(crowd))
        del self.entries[drop]

    def front(self) -> list[tuple[float, ...]]:
        """Archive points sorted by first objective."""
        return sorted(p for p, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def hypervolume_2d(front: Sequence[Sequence[float]],
                   reference: Sequence[float]) -> float:
    """2-D dominated hypervolume w.r.t. ``reference`` (minimisation)."""
    ref_x, ref_y = float(reference[0]), float(reference[1])
    pts = sorted({(float(p[0]), float(p[1])) for p in front})
    hv = 0.0
    prev_y = ref_y
    for x, y in pts:
        if x >= ref_x or y >= prev_y:
            continue
        hv += (ref_x - x) * (prev_y - y)
        prev_y = y
    return hv


def coverage(front_a: Sequence[Sequence[float]],
             front_b: Sequence[Sequence[float]]) -> float:
    """C-metric: fraction of ``front_b`` dominated by some point of A."""
    if not front_b:
        return 0.0
    count = sum(1 for b in front_b
                if any(dominates(a, b) for a in front_a))
    return count / len(front_b)


def weight_vectors(n: int, epsilon: float = 0.02) -> list[tuple[float, float]]:
    """Evenly spread weight pairs (w, 1-w) with a small deviation between
    successive pairs (Rashidi [38]); clipped away from pure 0/1."""
    if n < 1:
        raise ValueError("need at least one weight pair")
    ws = np.linspace(epsilon, 1.0 - epsilon, n)
    return [(float(w), float(1.0 - w)) for w in ws]


class WeightedIslandMOGA:
    """One island per weight pair, all feeding one Pareto archive [38].

    Parameters
    ----------
    problem_factory:
        callable ``(weights) -> Problem`` building the scalarised problem
        for one island; the underlying objective must expose ``vector``.
    n_islands:
        number of weight pairs / islands.
    local_search:
        optional ``(genome, problem, rng) -> genome`` improvement step
        applied to each island's best after every epoch (the "local search
        step or Redirect procedure" of [38]).
    """

    def __init__(self, problem_factory: Callable[[tuple[float, float]], Problem],
                 n_islands: int = 5, config: GAConfig | None = None,
                 termination: Termination | None = None,
                 epoch: int = 5, seed: int | None = None,
                 local_search: Callable | None = None,
                 archive_capacity: int = 128):
        self.weights = weight_vectors(n_islands)
        self.problems = [problem_factory(w) for w in self.weights]
        self.termination = termination or MaxGenerations(50)
        self.epoch = epoch
        self.local_search = local_search
        rngs = spawn_rngs(seed, n_islands + 1)
        self._ls_rng = rngs[-1]
        cfg = config or GAConfig()
        self.islands = [SimpleGA(p, cfg, termination=MaxGenerations(0),
                                 seed=rngs[i])
                        for i, p in enumerate(self.problems)]
        self.archive = ParetoArchive(capacity=archive_capacity)
        self.state = TerminationState()

    def _archive_island(self, island: SimpleGA, problem: Problem) -> None:
        # one batch call: stack the candidates, decode completion times once,
        # reduce every criterion column-wise (bit-identical to per-genome
        # decoding; falls back to it for non-batchable problems)
        top = island.population.top(3)
        vectors = problem.objective_vectors([ind.genome for ind in top])
        for ind, vec in zip(top, vectors):
            self.archive.add(tuple(float(x) for x in vec), payload=ind.copy())

    def run(self) -> ParetoArchive:
        """Evolve all islands; returns the shared Pareto archive."""
        for isl in self.islands:
            isl.initialize()
        while not self.termination.done(self.state):
            for isl, prob in zip(self.islands, self.problems):
                for _ in range(self.epoch):
                    isl.step()
                if self.local_search is not None:
                    best = isl.population.best()
                    improved = self.local_search(best.genome, prob,
                                                 self._ls_rng)
                    obj = prob.evaluate(improved)
                    isl.state.evaluations += 1
                    if obj < best.objective:
                        worst_idx = int(np.argmax(isl.population.objectives()))
                        from ..core.individual import Individual
                        improved_ind = Individual(improved, objective=obj)
                        if isl.arrays is not None:
                            isl.arrays.matrix[worst_idx] = \
                                prob.stack_genomes([improved])[0]
                            isl.arrays.objectives[worst_idx] = obj
                            isl.arrays.touch()
                        else:
                            isl.population[worst_idx] = improved_ind
                        # feed the improvement straight into the archive:
                        # it may sit on a part of the front the island's
                        # scalarisation never visits again
                        self.archive.add(prob.objective_vector(improved),
                                         payload=improved_ind.copy())
                self._archive_island(isl, prob)
            self.state.generation += self.epoch
            self.state.evaluations = sum(i.state.evaluations
                                         for i in self.islands)
            best = min(i.population.best().objective for i in self.islands)
            self.state.record_best(best)
        return self.archive
