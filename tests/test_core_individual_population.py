"""Tests for Individual and Population containers."""

import numpy as np
import pytest

from repro.core.individual import Individual
from repro.core.population import Population, hamming_distance


def _pop(objs):
    members = []
    for i, o in enumerate(objs):
        members.append(Individual(np.array([i]), objective=float(o)))
    return Population(members)


class TestIndividual:
    def test_unevaluated_initially(self):
        ind = Individual(np.arange(4))
        assert not ind.evaluated
        assert ind.objective is None and ind.fitness is None

    def test_invalidate_clears_cache(self):
        ind = Individual(np.arange(4), objective=3.0, fitness=1.0,
                         objectives=(3.0, 1.0))
        ind.invalidate()
        assert not ind.evaluated
        assert ind.objectives is None

    def test_copy_is_deep_for_array_genome(self):
        ind = Individual(np.arange(4), objective=1.0)
        clone = ind.copy()
        clone.genome[0] = 99
        assert ind.genome[0] == 0
        assert clone.objective == 1.0

    def test_copy_is_deep_for_tuple_genome(self):
        ind = Individual((np.arange(3), np.arange(5)))
        clone = ind.copy()
        clone.genome[0][0] = 42
        assert ind.genome[0][0] == 0

    def test_genome_key_hashable_and_stable(self):
        a = Individual(np.array([1, 2, 3]))
        b = Individual(np.array([1, 2, 3]))
        assert a.genome_key() == b.genome_key()
        assert hash(a.genome_key()) == hash(b.genome_key())

    def test_genome_key_tuple_genome(self):
        a = Individual((np.array([1]), np.array([2, 3])))
        assert a.genome_key() == ((1,), (2, 3))

    def test_with_genome_fresh(self):
        ind = Individual(np.arange(2), objective=5.0)
        child = ind.with_genome(np.arange(3))
        assert child.objective is None


class TestHammingDistance:
    def test_identical_is_zero(self):
        a = Individual(np.array([1, 2, 3]))
        assert hamming_distance(a, a) == 0

    def test_counts_differences(self):
        a = Individual(np.array([1, 2, 3]))
        b = Individual(np.array([1, 0, 0]))
        assert hamming_distance(a, b) == 2

    def test_unequal_lengths_count_missing(self):
        a = Individual(np.array([1, 2]))
        b = Individual(np.array([1, 2, 3, 4]))
        assert hamming_distance(a, b) == 2

    def test_tuple_genomes_concatenate(self):
        a = Individual((np.array([1]), np.array([2, 3])))
        b = Individual((np.array([1]), np.array([9, 3])))
        assert hamming_distance(a, b) == 1


class TestPopulation:
    def test_best_worst(self):
        pop = _pop([5, 1, 9, 3])
        assert pop.best().objective == 1
        assert pop.worst().objective == 9

    def test_best_raises_on_unevaluated(self):
        pop = Population([Individual(np.array([0]))])
        with pytest.raises(ValueError):
            pop.best()

    def test_sorted_ascending(self):
        pop = _pop([5, 1, 9, 3]).sorted()
        assert [i.objective for i in pop] == [1, 3, 5, 9]

    def test_top_k(self):
        pop = _pop([5, 1, 9, 3])
        assert [i.objective for i in pop.top(2)] == [1, 3]

    def test_objectives_vector_with_nan(self):
        pop = Population([Individual(np.array([0]), objective=2.0),
                          Individual(np.array([1]))])
        obj = pop.objectives()
        assert obj[0] == 2.0 and np.isnan(obj[1])

    def test_stats(self):
        pop = _pop([2, 4, 6, 8])
        stats = pop.stats()
        assert stats.best == 2 and stats.worst == 8
        assert stats.mean == 5.0
        assert stats.size == 4
        assert set(stats.as_dict()) == {"size", "best", "worst", "mean",
                                        "std"}
        assert pop.unique_fraction() == 1.0

    def test_stats_unique_fraction_detects_duplicates(self):
        a = Individual(np.array([7]), objective=1.0)
        b = Individual(np.array([7]), objective=2.0)
        assert Population([a, b]).unique_fraction() == 0.5
        with pytest.raises(ValueError, match="empty"):
            Population().unique_fraction()

    def test_copy_independent(self):
        pop = _pop([1, 2])
        clone = pop.copy()
        clone[0].genome[0] = 77
        assert pop[0].genome[0] != 77

    def test_slicing_returns_population(self):
        pop = _pop([1, 2, 3])
        assert isinstance(pop[:2], Population)
        assert len(pop[:2]) == 2

    def test_elitist_merge_keeps_elites_and_size(self):
        pop = _pop([1, 2, 3, 4])
        offspring = [Individual(np.array([9]), objective=10.0)
                     for _ in range(4)]
        merged = pop.elitist_merge(offspring, n_elites=2)
        assert len(merged) == 4
        objs = sorted(i.objective for i in merged)
        assert objs[:2] == [1, 2]  # elites survive

    def test_elitist_merge_zero_elites_is_generational(self):
        pop = _pop([1, 2, 3, 4])
        offspring = [Individual(np.array([9]), objective=float(o))
                     for o in (7, 8, 9, 10)]
        merged = pop.elitist_merge(offspring, n_elites=0)
        assert sorted(i.objective for i in merged) == [7, 8, 9, 10]

    def test_elitist_merge_backfills_on_offspring_shortage(self):
        pop = _pop([1, 2, 3, 4])
        merged = pop.elitist_merge([Individual(np.array([9]),
                                               objective=0.5)], n_elites=1)
        assert len(merged) == 4

    def test_stagnation_fraction_uniform_population(self):
        a = Individual(np.array([1, 2, 3]), objective=1.0)
        pop = Population([a.copy() for _ in range(4)])
        assert pop.stagnation_fraction(threshold=1) == 1.0

    def test_stagnation_fraction_diverse_population(self):
        pop = Population([Individual(np.array([i, i + 1, i + 2]),
                                     objective=1.0) for i in range(4)])
        assert pop.stagnation_fraction(threshold=1) == 0.0

    def test_mean_pairwise_hamming_zero_for_clones(self):
        a = Individual(np.array([1, 2, 3]))
        pop = Population([a.copy(), a.copy(), a.copy()])
        assert pop.mean_pairwise_hamming() == 0.0
