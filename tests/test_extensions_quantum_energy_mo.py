"""Tests for quantum GA, energy models, multi-objective and local search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GAConfig, MaxGenerations
from repro.encodings import OperationBasedEncoding, Problem
from repro.extensions import (EnergyAwareObjective, EnergyMakespanVector,
                              ParetoArchive, PowerModel, QBitIndividual,
                              QuantumGA, WeightedIslandMOGA, coverage,
                              dominates, energy_consumption,
                              hypervolume_2d, insertion_hill_climb,
                              make_local_search, non_dominated_sort,
                              not_gate_mutation, peak_power,
                              penetration_migration, power_profile,
                              quantum_crossover, redirect_procedure,
                              swap_hill_climb, weight_vectors)
from repro.instances import get_instance
from repro.scheduling import Makespan, TotalWeightedCompletion, WeightedCombination


class TestQBit:
    def test_random_init_near_superposition(self, rng):
        ind = QBitIndividual.random(rng, n_genes=10, n_bits=4)
        assert ind.angles.shape == (10, 4)
        assert np.all((0 <= ind.angles) & (ind.angles <= np.pi / 2))

    def test_observe_keys_in_unit_interval(self, rng):
        ind = QBitIndividual.random(rng, 20, 8)
        keys = ind.observe(rng)
        assert keys.shape == (20,)
        assert np.all((0 <= keys) & (keys < 1.0))

    def test_extreme_angles_deterministic_observation(self, rng):
        ind = QBitIndividual(np.full((5, 4), np.pi / 2))  # always 1-bits
        keys = ind.observe(rng)
        assert np.allclose(keys, 0.5 + 0.25 + 0.125 + 0.0625)
        ind0 = QBitIndividual(np.zeros((5, 4)))
        assert np.allclose(ind0.observe(rng), 0.0)

    def test_rotation_moves_toward_target(self, rng):
        ind = QBitIndividual(np.full((3, 4), np.pi / 4))
        target = np.array([0.9375, 0.0, 0.5])  # bits 1111, 0000, 1000
        before = ind.angles.copy()
        ind.rotate_toward(target, delta=0.1)
        assert np.all(ind.angles[0] > before[0])   # toward 1s
        assert np.all(ind.angles[1] < before[1])   # toward 0s

    def test_not_gate_flips(self, rng):
        ind = QBitIndividual(np.zeros((4, 4)))
        out = not_gate_mutation(ind, rng, rate=1.0)
        assert np.allclose(out.angles, np.pi / 2)

    def test_quantum_crossover_blends(self, rng):
        a = QBitIndividual(np.zeros((2, 2)))
        b = QBitIndividual(np.full((2, 2), np.pi / 2))
        ca, cb = quantum_crossover(a, b, rng)
        assert np.all(ca.angles >= 0) and np.all(ca.angles <= np.pi / 2)
        assert np.allclose(ca.angles + cb.angles, np.pi / 2)

    def test_penetration_migration_copies_fraction(self, rng):
        src = QBitIndividual(np.full((20, 2), 0.1))
        dst = QBitIndividual(np.full((20, 2), 1.2))
        out = penetration_migration(src, dst, fraction=0.5, rng=rng)
        copied = np.isclose(out.angles[:, 0], 0.1).sum()
        assert 0 < copied < 20


class TestQuantumGA:
    def test_converges_on_toy_problem(self):
        # minimise sum of keys -> optimum pushes all bits to zero
        q = QuantumGA(lambda keys: float(np.sum(keys)), n_genes=8,
                      population_size=10, seed=5, rotation_delta=0.1)
        first = q.run(1)
        final = q.run(15)
        assert final <= first

    def test_deterministic(self):
        a = QuantumGA(lambda k: float(np.sum(k)), 6, population_size=8,
                      seed=3).run(5)
        b = QuantumGA(lambda k: float(np.sum(k)), 6, population_size=8,
                      seed=3).run(5)
        assert a == b

    def test_history_tracks_best(self):
        q = QuantumGA(lambda k: float(np.sum(k)), 6, population_size=8,
                      seed=3)
        q.run(5)
        assert len(q.history) == 5
        assert np.all(np.diff(q.history) <= 1e-12)


class TestEnergy:
    def _schedule(self, rng):
        problem = Problem(OperationBasedEncoding(get_instance("ft06")))
        return problem.decode(problem.random_genome(rng))

    def test_power_model_validation(self):
        with pytest.raises(ValueError):
            PowerModel(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            PowerModel(np.array([-1.0]), np.array([0.0]))

    def test_energy_positive_and_scales(self, rng):
        sched = self._schedule(rng)
        low = energy_consumption(sched, PowerModel.uniform(6, 1.0, 0.0))
        high = energy_consumption(sched, PowerModel.uniform(6, 2.0, 0.0))
        assert high == pytest.approx(2 * low)
        # with zero idle power, energy = total work * power
        assert low == pytest.approx(197.0)  # ft06 total processing

    def test_idle_power_adds(self, rng):
        sched = self._schedule(rng)
        no_idle = energy_consumption(sched, PowerModel.uniform(6, 5.0, 0.0))
        with_idle = energy_consumption(sched, PowerModel.uniform(6, 5.0, 1.0))
        assert with_idle >= no_idle

    def test_power_profile_and_peak(self, rng):
        sched = self._schedule(rng)
        power = PowerModel.uniform(6, 10.0, 0.0)
        ts, draw = power_profile(sched, power)
        assert draw.max() <= 60.0 + 1e-9  # at most 6 machines busy
        assert peak_power(sched, power) == pytest.approx(draw.max())

    def test_energy_aware_objective_penalises_peaks(self, rng):
        sched = self._schedule(rng)
        power = PowerModel.uniform(6, 10.0, 0.0)
        peak = peak_power(sched, power)
        loose = EnergyAwareObjective(power, peak_cap=peak + 1)
        tight = EnergyAwareObjective(power, peak_cap=peak / 2, penalty=1.0)
        inst = get_instance("ft06")
        assert loose(sched, inst) == pytest.approx(sched.makespan)
        assert tight(sched, inst) > sched.makespan

    def test_energy_makespan_vector(self, rng):
        sched = self._schedule(rng)
        power = PowerModel.uniform(6)
        obj = EnergyMakespanVector(power, weights=(0.0, 1.0))
        inst = get_instance("ft06")
        assert obj(sched, inst) == pytest.approx(sched.makespan)
        vec = obj.vector(sched, inst)
        assert vec[0] == pytest.approx(energy_consumption(sched, power))


class TestPareto:
    def test_dominates(self):
        assert dominates((1, 1), (2, 2))
        assert dominates((1, 2), (1, 3))
        assert not dominates((1, 2), (2, 1))
        assert not dominates((1, 1), (1, 1))

    def test_non_dominated_sort_fronts(self):
        pts = [(1, 5), (5, 1), (2, 2), (6, 6), (3, 3)]
        fronts = non_dominated_sort(pts)
        assert set(fronts[0]) == {0, 1, 2}
        assert set(fronts[1]) == {4}
        assert set(fronts[2]) == {3}

    def test_archive_keeps_only_nondominated(self):
        arch = ParetoArchive()
        assert arch.add((2, 2))
        assert not arch.add((3, 3))      # dominated
        assert arch.add((1, 3))
        assert arch.add((0.5, 0.5))      # dominates everything
        assert len(arch) == 1

    def test_archive_rejects_duplicates(self):
        arch = ParetoArchive()
        assert arch.add((1, 2))
        assert not arch.add((1, 2))

    def test_archive_capacity_thinning(self):
        arch = ParetoArchive(capacity=5)
        for k in range(20):
            arch.add((k, 19 - k))
        assert len(arch) <= 5
        front = arch.front()
        # extremes survive thinning
        assert front[0][0] == 0 and front[-1][0] == 19

    def test_hypervolume_known_value(self):
        hv = hypervolume_2d([(1, 1)], reference=(2, 2))
        assert hv == pytest.approx(1.0)
        hv2 = hypervolume_2d([(0, 1), (1, 0)], reference=(2, 2))
        assert hv2 == pytest.approx(3.0)

    def test_hypervolume_ignores_points_beyond_reference(self):
        assert hypervolume_2d([(5, 5)], reference=(2, 2)) == 0.0

    def test_coverage_metric(self):
        a = [(0, 0)]
        b = [(1, 1), (2, 2)]
        assert coverage(a, b) == 1.0
        assert coverage(b, a) == 0.0
        assert coverage(a, []) == 0.0

    def test_weight_vectors_spread(self):
        ws = weight_vectors(5)
        assert len(ws) == 5
        assert all(abs(sum(w) - 1.0) < 1e-9 for w in ws)
        firsts = [w[0] for w in ws]
        assert firsts == sorted(firsts)
        with pytest.raises(ValueError):
            weight_vectors(0)


class TestWeightedIslandMOGA:
    def _factory(self):
        inst = get_instance("ft06")

        def factory(w):
            obj = WeightedCombination([(w[0], Makespan()),
                                       (w[1], TotalWeightedCompletion())])
            return Problem(OperationBasedEncoding(inst), objective=obj)
        return factory

    def test_run_builds_archive(self):
        moga = WeightedIslandMOGA(self._factory(), n_islands=3,
                                  config=GAConfig(population_size=8),
                                  termination=MaxGenerations(10), epoch=5,
                                  seed=2)
        archive = moga.run()
        assert len(archive) >= 1
        front = archive.front()
        # front is mutually non-dominated
        for i, p in enumerate(front):
            for q in front[i + 1:]:
                assert not dominates(p, q) and not dominates(q, p)

    def test_local_search_hook_called(self):
        calls = []

        def ls(genome, problem, rng):
            calls.append(1)
            return genome

        moga = WeightedIslandMOGA(self._factory(), n_islands=2,
                                  config=GAConfig(population_size=6),
                                  termination=MaxGenerations(5), epoch=5,
                                  seed=2, local_search=ls)
        moga.run()
        assert len(calls) >= 2

    def test_local_search_improvement_replaces_the_worst_member(self):
        # one epoch, so the improved genome is in the final population
        improved = {}

        def ls(genome, problem, rng):
            better = swap_hill_climb(genome, problem, rng)
            improved[id(problem)] = (better, problem.evaluate(better),
                                     problem.evaluate(genome))
            return better

        moga = WeightedIslandMOGA(self._factory(), n_islands=2,
                                  config=GAConfig(population_size=6),
                                  termination=MaxGenerations(3), epoch=3,
                                  seed=2, local_search=ls)
        moga.run()
        hits = 0
        for isl, prob in zip(moga.islands, moga.problems):
            genome, obj, given = improved[id(prob)]
            if obj < given:
                assert isl.population.best().objective == obj
                assert np.array_equal(isl.population.best().genome, genome)
                hits += 1
        assert hits >= 1


class TestLocalSearch:
    def _problem(self):
        return Problem(OperationBasedEncoding(get_instance("ft06")))

    @pytest.mark.parametrize("fn", [swap_hill_climb, insertion_hill_climb,
                                    redirect_procedure],
                             ids=lambda f: f.__name__)
    def test_never_worse(self, fn, rng):
        problem = self._problem()
        g = problem.random_genome(rng)
        out = fn(g, problem, rng)
        assert problem.evaluate(out) <= problem.evaluate(g)

    def test_multiset_preserved(self, rng):
        from repro.operators.repair import is_repetition_of
        problem = self._problem()
        g = problem.random_genome(rng)
        out = swap_hill_climb(g, problem, rng, attempts=30)
        assert is_repetition_of(out, np.full(6, 6))

    def test_tuple_genomes_supported(self, rng):
        from repro.instances import flexible_flow_shop
        from repro.encodings import HybridFlowShopEncoding
        inst = flexible_flow_shop(4, (2, 2), seed=44)
        problem = Problem(HybridFlowShopEncoding(inst, use_assignment=False))
        g = problem.random_genome(rng)
        out = swap_hill_climb(g, problem, rng)
        assert isinstance(out, tuple)
        assert problem.evaluate(out) <= problem.evaluate(g)

    def test_factory(self):
        assert make_local_search("swap") is not None
        assert make_local_search("insertion") is not None
        assert make_local_search("redirect") is not None
        with pytest.raises(ValueError):
            make_local_search("teleport")
