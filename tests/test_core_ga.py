"""Tests for the SimpleGA engine (Table II)."""

import numpy as np
import pytest

from scalar_reference import path
from repro.core import (GAConfig, HistoryRecorder, MaxEvaluations,
                        MaxGenerations, SimpleGA, Stagnation, TargetObjective)
from repro.encodings import OperationBasedEncoding, Problem
from repro.instances import FT06_OPTIMUM, get_instance


class TestGAConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=1)
        with pytest.raises(ValueError):
            GAConfig(crossover_rate=1.5)
        with pytest.raises(ValueError):
            GAConfig(n_elites=100, population_size=10)

    def test_resolved_fills_defaults(self, ft06_problem):
        cfg = GAConfig().resolved(ft06_problem)
        assert cfg.selection is not None
        assert cfg.crossover is not None
        assert cfg.mutation is not None
        assert cfg.fitness_transform is not None


class TestSimpleGARun:
    def test_deterministic_given_seed(self, ft06_problem):
        r1 = SimpleGA(ft06_problem, GAConfig(population_size=20),
                      MaxGenerations(8), seed=5).run()
        r2 = SimpleGA(ft06_problem, GAConfig(population_size=20),
                      MaxGenerations(8), seed=5).run()
        assert r1.best_objective == r2.best_objective
        assert np.array_equal(r1.best.genome, r2.best.genome)

    def test_different_seeds_explore_differently(self, ft06_problem):
        runs = {SimpleGA(ft06_problem, GAConfig(population_size=20),
                         MaxGenerations(5), seed=s).run().best_objective
                for s in range(5)}
        assert len(runs) > 1

    def test_improves_over_random(self, ft06_problem):
        ga = SimpleGA(ft06_problem, GAConfig(population_size=30),
                      MaxGenerations(30), seed=1)
        initial = ga.initialize().best().objective
        result = ga.run()
        assert result.best_objective <= initial

    def test_finds_ft06_optimum_eventually(self, ft06_problem):
        result = SimpleGA(ft06_problem, GAConfig(population_size=60),
                          MaxGenerations(60), seed=42).run()
        assert result.best_objective <= FT06_OPTIMUM + 3

    def test_history_recorded_every_generation(self, ft06_problem):
        result = SimpleGA(ft06_problem, GAConfig(population_size=10),
                          MaxGenerations(7), seed=0).run()
        # one record for initialisation + one per generation
        assert len(result.history.records) == 8
        assert result.generations == 7

    def test_monotone_best_with_elitism(self, ft06_problem):
        result = SimpleGA(ft06_problem,
                          GAConfig(population_size=20, n_elites=2),
                          MaxGenerations(15), seed=3).run()
        curve = result.history.best_curve()
        assert np.all(np.diff(curve) <= 0)
        # raw per-generation best never worse than the elite carried over
        raw = np.array([r.best for r in result.history.records])
        assert np.all(np.diff(np.minimum.accumulate(raw)) <= 0)

    def test_evaluation_budget_respected(self, ft06_problem):
        result = SimpleGA(ft06_problem, GAConfig(population_size=10),
                          MaxEvaluations(55), seed=0).run()
        # stops at the first generation boundary past the budget
        assert result.evaluations >= 55
        assert result.evaluations <= 55 + 10

    def test_target_objective_stops_early(self, ft06_problem):
        result = SimpleGA(ft06_problem, GAConfig(population_size=40),
                          TargetObjective(80) | MaxGenerations(100),
                          seed=42).run()
        assert (result.best_objective <= 80
                or result.generations == 100)

    def test_stagnation_terminates(self, ft06_problem):
        result = SimpleGA(ft06_problem, GAConfig(population_size=10),
                          Stagnation(5) | MaxGenerations(500), seed=0).run()
        assert result.generations < 500

    def test_immigration_rate_adds_randoms(self, ft06_problem):
        cfg = GAConfig(population_size=20, immigration_rate=0.3)
        ga = SimpleGA(ft06_problem, cfg, MaxGenerations(3), seed=2)
        ga.initialize()
        offspring = ga.make_offspring(ga.population, 20)
        assert len(offspring) == 20


class TestPartialReplacementEdges:
    """generation_gap / immigration_rate / n_elites corner cases."""

    def test_odd_n_bred_truncates_last_pair_child(self, ft06_problem):
        # gap 0.5 of 10 breeds 5: three pairs produce 6 children, the
        # surplus sixth is truncated
        cfg = GAConfig(population_size=10, generation_gap=0.5)
        ga = SimpleGA(ft06_problem, cfg, MaxGenerations(2), seed=1)
        ga.initialize()
        offspring = ga.make_offspring(ga.population, 5)
        assert len(offspring) == 5
        pop = ga.step()
        assert len(pop) == 10

    def test_immigration_rounds_down_to_zero(self, ft06_problem):
        # round(0.04 * 10) == 0: every offspring is bred, none random
        cfg = GAConfig(population_size=10, immigration_rate=0.04,
                       crossover_rate=0.0, mutation_rate=0.0)
        ga = SimpleGA(ft06_problem, cfg, MaxGenerations(1), seed=3)
        ga.initialize()
        parent_keys = {ind.genome_key() for ind in ga.population}
        offspring = ga.make_offspring(ga.population, 10)
        assert len(offspring) == 10
        # with crossover/mutation off, every child clones a parent
        assert all(ind.genome_key() in parent_keys for ind in offspring)

    def test_immigration_one_replaces_all_offspring(self, ft06_problem):
        # rate 1.0 breeds nobody: the whole offspring set is immigrants
        cfg = GAConfig(population_size=10, immigration_rate=1.0)
        ga = SimpleGA(ft06_problem, cfg, MaxGenerations(2), seed=4)
        ga.initialize()
        offspring = ga.make_offspring(ga.population, 10)
        assert len(offspring) == 10
        assert all(not ind.evaluated for ind in offspring)
        assert len(ga.step()) == 10  # engine runs to a full generation

    def test_partial_replacement_keeps_unbred_majority(self, ft06_problem):
        # gap 1/3 of 12 breeds 4; n_keep = max(n_elites, 12 - 4) = 8, so
        # at least 8 parents survive each generation regardless of elites
        cfg = GAConfig(population_size=12, generation_gap=1 / 3, n_elites=2)
        ga = SimpleGA(ft06_problem, cfg, MaxGenerations(1), seed=5)
        ga.initialize()
        parent_keys = {ind.genome_key() for ind in ga.population}
        survivors = sum(ind.genome_key() in parent_keys for ind in ga.step())
        assert survivors >= 8

    def test_n_elites_dominates_small_keep(self, ft06_problem):
        # full generational gap: n_keep = max(5, 0) = 5 elites survive
        cfg = GAConfig(population_size=10, generation_gap=1.0, n_elites=5)
        ga = SimpleGA(ft06_problem, cfg, MaxGenerations(1), seed=6)
        ga.initialize()
        elite_keys = {ind.genome_key() for ind in ga.population.top(5)}
        next_keys = {ind.genome_key() for ind in ga.step()}
        assert elite_keys <= next_keys

    @pytest.mark.parametrize("substrate", ["object", "array"])
    def test_edge_configs_run_on_both_substrates(self, ft06_problem,
                                                 substrate):
        for cfg in (GAConfig(population_size=9, generation_gap=0.55,
                             immigration_rate=0.3, n_elites=4,
                             substrate=substrate),
                    GAConfig(population_size=8, immigration_rate=1.0,
                             substrate=substrate)):
            with path(substrate):
                ga = SimpleGA(ft06_problem, cfg, MaxGenerations(3), seed=7)
            assert ga.substrate == substrate
            result = ga.run()
            assert len(result.population) == cfg.population_size
            assert result.generations == 3

    def test_custom_evaluator_seam(self, ft06_problem):
        calls = []

        def evaluator(genomes):
            calls.append(len(genomes))
            return ft06_problem.evaluate_many(genomes)

        result = SimpleGA(ft06_problem, GAConfig(population_size=10),
                          MaxGenerations(2), seed=0,
                          evaluator=evaluator).run()
        assert sum(calls) == result.evaluations

    def test_result_fields(self, ft06_problem):
        result = SimpleGA(ft06_problem, GAConfig(population_size=10),
                          MaxGenerations(2), seed=0).run()
        assert result.termination_reason.startswith("max generations")
        assert result.elapsed >= 0
        assert len(result.population) == 10


class TestHistoryRecorder:
    def test_generations_to_reach(self, ft06_problem):
        result = SimpleGA(ft06_problem, GAConfig(population_size=30),
                          MaxGenerations(20), seed=42).run()
        hist = result.history
        gen = hist.generations_to_reach(hist.final_best())
        assert gen is not None
        assert hist.generations_to_reach(0.0) is None

    def test_convergence_auc_decreases_with_progress(self, ft06_problem):
        long = SimpleGA(ft06_problem, GAConfig(population_size=30),
                        MaxGenerations(25), seed=42).run()
        auc = long.history.convergence_auc()
        assert 0 < auc <= 1.0

    def test_empty_history_raises(self):
        with pytest.raises(ValueError):
            HistoryRecorder().final_best()
