"""Tests for mutation, selection and repair operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fitness import ReciprocalFitness, apply_fitness
from repro.core.individual import Individual
from repro.core.population import Population
from repro.operators import (AssignmentMutation, CompositeMutation,
                             ElitistRouletteSelection, GaussianKeyMutation,
                             IntegerResetMutation, InversionMutation,
                             RandomSelection, RankSelection,
                             ResampleKeyMutation, RouletteWheelSelection,
                             ScrambleMutation, ShiftMutation,
                             StochasticUniversalSampling, SwapMutation,
                             TournamentSelection, default_mutation_for,
                             is_permutation, is_repetition_of,
                             repair_to_multiset)

PERM_MUTATIONS = [SwapMutation(), SwapMutation(pairs=3), ShiftMutation(),
                  InversionMutation(), ScrambleMutation()]


@pytest.mark.parametrize("op", PERM_MUTATIONS, ids=lambda o: type(o).__name__)
def test_mutation_permutation_closure(op, rng):
    for n in (2, 6, 11):
        g = rng.permutation(n).astype(np.int64)
        out = op(g, rng)
        assert is_permutation(out)


@pytest.mark.parametrize("op", PERM_MUTATIONS, ids=lambda o: type(o).__name__)
def test_mutation_multiset_closure(op, rng):
    counts = np.array([2, 2, 2])
    g = np.repeat(np.arange(3, dtype=np.int64), 2)
    rng.shuffle(g)
    assert is_repetition_of(op(g, rng), counts)


@pytest.mark.parametrize("op", PERM_MUTATIONS, ids=lambda o: type(o).__name__)
def test_mutation_does_not_modify_input(op, rng):
    g = rng.permutation(8).astype(np.int64)
    g0 = g.copy()
    op(g, rng)
    assert np.array_equal(g, g0)


class TestKeyMutations:
    def test_gaussian_stays_in_unit_interval(self, rng):
        g = rng.random(50)
        out = GaussianKeyMutation(sigma=0.5, rate=1.0)(g, rng)
        assert np.all(out >= 0.0) and np.all(out < 1.0)

    def test_gaussian_rate_zero_identity(self, rng):
        g = rng.random(10)
        assert np.array_equal(GaussianKeyMutation(rate=0.0)(g, rng), g)

    def test_gaussian_rejects_bad_params(self):
        with pytest.raises(ValueError):
            GaussianKeyMutation(sigma=0.0)
        with pytest.raises(ValueError):
            GaussianKeyMutation(rate=2.0)

    def test_resample_changes_some_genes(self):
        rng = np.random.default_rng(3)
        g = np.full(100, 0.5)
        out = ResampleKeyMutation(rate=0.5)(g, rng)
        assert 10 < int(np.count_nonzero(out != 0.5)) < 90

    def test_assignment_mutation_respects_domains(self, rng):
        domains = np.array([1, 2, 3, 4])
        g = np.zeros(4, dtype=np.int64)
        out = AssignmentMutation(domains, rate=1.0)(g, rng)
        assert np.all(out < domains)

    def test_assignment_mutation_on_hfs_assignment_matrix(self, rng):
        """The HFS assignment part is (n_jobs, n_stages); gene order is
        row-major, so column k holds stage k's genes."""
        from repro.encodings.assignment_sequence import \
            HybridFlowShopEncoding
        from repro.instances import get_instance
        instance = get_instance("hfs-10x3x2-shaped")
        enc = HybridFlowShopEncoding(instance)
        assign, _ = enc.random_genome(rng)
        out = AssignmentMutation(enc.assignment_domain_sizes(),
                                 rate=1.0)(assign, rng)
        assert out.shape == assign.shape
        stage_sizes = np.asarray(instance.machines_per_stage)
        assert np.all((out >= 0) & (out < stage_sizes[None, :]))

    def test_integer_reset_within_alphabet(self, rng):
        g = np.zeros(30, dtype=np.int64)
        out = IntegerResetMutation(alphabet=5, rate=1.0)(g, rng)
        assert np.all((0 <= out) & (out < 5))


class TestCompositeMutation:
    def test_parts_handled(self, rng):
        op = CompositeMutation([GaussianKeyMutation(rate=1.0), SwapMutation()])
        genome = (rng.random(5), rng.permutation(6).astype(np.int64))
        out = op(genome, rng)
        assert is_permutation(out[1])

    def test_none_part_copied(self, rng):
        op = CompositeMutation([None, SwapMutation()])
        genome = (np.array([1.0]), rng.permutation(4).astype(np.int64))
        out = op(genome, rng)
        assert np.array_equal(out[0], genome[0])
        assert out[0] is not genome[0]

    def test_rejects_flat_genome(self, rng):
        with pytest.raises(ValueError):
            CompositeMutation([None])(np.arange(3), rng)

    def test_default_mutation_for_kinds(self):
        assert default_mutation_for("permutation") is not None
        assert isinstance(default_mutation_for("composite", ("real",)),
                          CompositeMutation)
        with pytest.raises(ValueError):
            default_mutation_for("nope")


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def evaluated_population(objectives):
    pop = Population([Individual(np.array([i]), objective=float(o))
                      for i, o in enumerate(objectives)])
    apply_fitness(pop.members, ReciprocalFitness())
    return pop


SELECTIONS = [RouletteWheelSelection(), StochasticUniversalSampling(),
              TournamentSelection(2), TournamentSelection(5),
              ElitistRouletteSelection(0.2), RandomSelection(),
              RankSelection()]


@pytest.mark.parametrize("sel", SELECTIONS, ids=lambda s: type(s).__name__)
def test_selection_returns_k_members(sel, rng):
    pop = evaluated_population([5, 3, 8, 1, 9, 2])
    out = sel(pop, 10, rng)
    assert len(out) == 10
    assert all(ind in pop.members for ind in out)


@pytest.mark.parametrize("sel", [RouletteWheelSelection(),
                                 StochasticUniversalSampling(),
                                 TournamentSelection(3), RankSelection()],
                         ids=lambda s: type(s).__name__)
def test_selection_prefers_better(sel):
    """Fitness-based selections pick the best individual more often than
    the worst over many draws."""
    rng = np.random.default_rng(7)
    pop = evaluated_population([1.0, 100.0])  # index 0 is far better
    picks = sel(pop, 400, rng)
    best_count = sum(1 for ind in picks if ind.objective == 1.0)
    assert best_count > 250


def test_selection_requires_fitness(rng):
    pop = Population([Individual(np.array([0]), objective=1.0)])
    with pytest.raises(ValueError):
        RouletteWheelSelection()(pop, 2, rng)


def test_roulette_rejects_negative_fitness(rng):
    pop = Population([Individual(np.array([0]), objective=1.0,
                                 fitness=-1.0)])
    with pytest.raises(ValueError):
        RouletteWheelSelection()(pop, 1, rng)


def test_roulette_degenerate_all_zero_fitness(rng):
    pop = Population([Individual(np.array([i]), objective=1.0, fitness=0.0)
                      for i in range(3)])
    out = RouletteWheelSelection()(pop, 6, rng)
    assert len(out) == 6


def test_sus_expected_counts():
    """SUS guarantees floor/ceil of expected copies for each individual."""
    rng = np.random.default_rng(11)
    pop = evaluated_population([1.0, 1.0])  # equal fitness
    picks = StochasticUniversalSampling()(pop, 10, rng)
    counts = {0: 0, 1: 0}
    for ind in picks:
        counts[int(ind.genome[0])] += 1
    assert counts[0] == counts[1] == 5


def test_elitist_roulette_includes_elites(rng):
    pop = evaluated_population([1, 2, 3, 4, 5])
    sel = ElitistRouletteSelection(elite_fraction=0.4)
    picks = sel(pop, 5, rng)
    objs = [p.objective for p in picks[:2]]
    assert objs == [1.0, 2.0]


def test_tournament_size_validation():
    with pytest.raises(ValueError):
        TournamentSelection(0)


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------

class TestRepair:
    def test_noop_on_valid(self):
        counts = np.array([1, 1, 1])
        g = np.array([2, 0, 1])
        assert np.array_equal(repair_to_multiset(g, counts), g)

    def test_fixes_duplicates(self):
        counts = np.array([1, 1, 1])
        out = repair_to_multiset(np.array([0, 0, 2]), counts)
        assert is_repetition_of(out, counts)

    def test_donor_order_respected(self):
        counts = np.array([1, 1, 1, 1])
        child = np.array([0, 0, 0, 0])
        donor = np.array([3, 2, 1, 0])
        out = repair_to_multiset(child, counts, donor=donor)
        assert is_repetition_of(out, counts)
        # missing values 1,2,3 inserted in donor order 3,2,1
        assert np.array_equal(out, [0, 3, 2, 1])

    def test_out_of_range_values_replaced(self):
        counts = np.array([2, 2])
        out = repair_to_multiset(np.array([9, -1, 0, 1]), counts)
        assert is_repetition_of(out, counts)

    @given(st.integers(min_value=2, max_value=8),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_repair_always_restores_multiset(self, n_vals, repeats, seed):
        rng = np.random.default_rng(seed)
        counts = np.full(n_vals, repeats)
        corrupted = rng.integers(-1, n_vals + 2,
                                 size=n_vals * repeats).astype(np.int64)
        out = repair_to_multiset(corrupted, counts)
        assert is_repetition_of(out, counts)
