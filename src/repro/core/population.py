"""Population container and summary statistics.

A :class:`Population` is an ordered list of :class:`~repro.core.individual.
Individual` with helpers the GA engines share: best/worst lookup, sorting,
diversity measures (used by the merge-on-stagnation island variant of
Spanos et al. [29], which triggers on Hamming-distance collapse), and elitist
truncation.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .individual import Individual

__all__ = ["Population", "PopulationStats", "hamming_distance"]


def hamming_distance(a: Individual, b: Individual) -> int:
    """Number of positions at which two (flat) genomes differ.

    For tuple genomes (flexible-shop two-part chromosomes) the parts are
    concatenated.  Genomes of unequal length compare at the shorter length
    plus the length difference (every missing position counts as different).
    """

    def flat(ind: Individual) -> np.ndarray:
        g = ind.genome
        if isinstance(g, tuple):
            return np.concatenate([np.asarray(p).ravel() for p in g])
        return np.asarray(g).ravel()

    fa, fb = flat(a), flat(b)
    n = min(fa.size, fb.size)
    diff = int(np.count_nonzero(fa[:n] != fb[:n]))
    return diff + abs(fa.size - fb.size)


class PopulationStats:
    """Immutable snapshot of a population's objective distribution."""

    __slots__ = ("size", "best", "worst", "mean", "std")

    def __init__(self, size: int, best: float, worst: float, mean: float,
                 std: float):
        self.size = size
        self.best = best
        self.worst = worst
        self.mean = mean
        self.std = std

    def as_dict(self) -> dict:
        return {
            "size": self.size,
            "best": self.best,
            "worst": self.worst,
            "mean": self.mean,
            "std": self.std,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PopulationStats(best={self.best:.4g}, mean={self.mean:.4g}, "
                f"std={self.std:.4g}, n={self.size})")


class Population:
    """Ordered collection of individuals.

    The container keeps *minimised* objective semantics: ``best()`` is the
    individual with the smallest objective.  Engines that need maximised
    fitness read ``Individual.fitness`` which the fitness transform fills.
    """

    def __init__(self, individuals: Iterable[Individual] = ()):  # noqa: D401
        self._members: list[Individual] = list(individuals)

    # -- basic container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[Individual]:
        return iter(self._members)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return Population(self._members[idx])
        return self._members[idx]

    def __setitem__(self, idx: int, value: Individual) -> None:
        self._members[idx] = value

    def append(self, ind: Individual) -> None:
        self._members.append(ind)

    def extend(self, inds: Iterable[Individual]) -> None:
        self._members.extend(inds)

    def copy(self) -> "Population":
        """Deep copy of the population."""
        return Population(ind.copy() for ind in self._members)

    # -- matrix adapters (array substrate) ----------------------------------------
    def to_arrays(self, problem) -> tuple[np.ndarray, np.ndarray]:
        """``(chromosome_matrix, objectives)`` of this population.

        Reuses the problem's genome-stacking seam (composite genomes
        flatten into rows); raises when genomes are ragged and cannot
        form a matrix.  The objectives vector carries ``nan`` for
        unevaluated members.
        """
        matrix = problem.stack_genomes([ind.genome for ind in self._members])
        if matrix is None:
            raise ValueError("population genomes do not stack into a "
                             "matrix; the array substrate cannot hold them")
        return matrix, self.objectives()

    @classmethod
    def from_arrays(cls, problem, matrix: np.ndarray,
                    objectives: np.ndarray | None = None) -> "Population":
        """Population materialised from a chromosome matrix (+ objectives)."""
        matrix = np.asarray(matrix)
        if objectives is None:
            return cls(Individual.from_row(problem, row) for row in matrix)
        objectives = np.asarray(objectives, dtype=float)
        return cls(Individual.from_row(problem, row, obj)
                   for row, obj in zip(matrix, objectives))

    @property
    def members(self) -> list[Individual]:
        """Direct (mutable) access to the underlying list."""
        return self._members

    # -- ordering helpers ---------------------------------------------------------
    def _require_evaluated(self) -> None:
        if any(not ind.evaluated for ind in self._members):
            raise ValueError("population contains unevaluated individuals")

    def best(self) -> Individual:
        """Individual with the smallest objective (minimisation)."""
        self._require_evaluated()
        return min(self._members, key=lambda i: i.objective)

    def best_objective(self) -> float:
        """The smallest objective (``best().objective`` as a float)."""
        return float(self.best().objective)

    def worst(self) -> Individual:
        """Individual with the largest objective."""
        self._require_evaluated()
        return max(self._members, key=lambda i: i.objective)

    def sorted(self, reverse: bool = False) -> "Population":
        """New population sorted by objective ascending (best first)."""
        self._require_evaluated()
        return Population(
            sorted(self._members, key=lambda i: i.objective, reverse=reverse)
        )

    def top(self, k: int) -> list[Individual]:
        """The ``k`` best individuals (ascending objective)."""
        self._require_evaluated()
        return sorted(self._members, key=lambda i: i.objective)[:k]

    def objectives(self) -> np.ndarray:
        """Vector of objective values, ``nan`` for unevaluated members."""
        return np.array(
            [np.nan if i.objective is None else i.objective for i in self._members],
            dtype=float,
        )

    # -- statistics ---------------------------------------------------------------
    def stats(self) -> PopulationStats:
        """Summary statistics of the objective distribution."""
        obj = self.objectives()
        if len(obj) == 0 or np.isnan(obj).any():
            raise ValueError("stats() requires a fully evaluated population")
        return PopulationStats(
            size=len(obj),
            best=float(obj.min()),
            worst=float(obj.max()),
            mean=float(obj.mean()),
            std=float(obj.std()),
        )

    def unique_fraction(self) -> float:
        """Share of distinct genomes (1.0 = no duplicates).

        A diagnostic computed on request: the generation loop and its
        observers never read it.
        """
        if not self._members:
            raise ValueError("unique_fraction() of an empty population")
        return len({i.genome_key() for i in self._members}) / len(self)

    def mean_pairwise_hamming(self, rng: np.random.Generator | None = None,
                              sample: int = 64) -> float:
        """Mean pairwise Hamming distance (sampled for large populations).

        Full O(n^2) comparison is done when ``len(self) <= sample``; larger
        populations are subsampled for speed (this is a diagnostics metric,
        not part of the evolution).
        """
        n = len(self._members)
        if n < 2:
            return 0.0
        members = self._members
        if n > sample:
            if rng is None:
                rng = np.random.default_rng(0)
            idx = rng.choice(n, size=sample, replace=False)
            members = [self._members[i] for i in idx]
        total, pairs = 0, 0
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                total += hamming_distance(members[i], members[j])
                pairs += 1
        return total / pairs if pairs else 0.0

    def stagnation_fraction(self, threshold: int) -> float:
        """Fraction of member pairs with Hamming distance below ``threshold``.

        Spanos et al. [29] merge two islands when "the Hamming distance of
        more than half the individuals" falls below a predefined value; this
        is the measurement backing that rule.
        """
        n = len(self._members)
        if n < 2:
            return 0.0
        close, pairs = 0, 0
        for i in range(n):
            for j in range(i + 1, n):
                if hamming_distance(self._members[i], self._members[j]) < threshold:
                    close += 1
                pairs += 1
        return close / pairs

    # -- elitism ------------------------------------------------------------------
    def elitist_merge(self, offspring: Sequence[Individual], n_elites: int) -> "Population":
        """Next generation = ``n_elites`` best parents + best offspring fill.

        Keeps population size constant.  With ``n_elites == 0`` this is a
        full generational replacement.
        """
        self._require_evaluated()
        size = len(self._members)
        elites = [ind.copy() for ind in self.top(n_elites)] if n_elites > 0 else []
        rest = sorted(offspring, key=_objective_or_inf)[: size - len(elites)]
        merged = elites + list(rest)
        if len(merged) < size:  # offspring shortage: pad with next-best parents
            backfill = self.sorted().members[n_elites:]
            merged.extend(ind.copy() for ind in backfill[: size - len(merged)])
        return Population(merged)


def _objective_or_inf(ind: Individual) -> float:
    return float("inf") if ind.objective is None else ind.objective
