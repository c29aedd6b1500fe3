"""Tests for the master-slave, island, cellular and hybrid engines."""

import numpy as np
import pytest

from repro.core import GAConfig, MaxGenerations, SimpleGA
from repro.encodings import OperationBasedEncoding, Problem
from repro.instances import get_instance
from repro.parallel import (CellularGA, IslandGA, IslandOfCellularGA,
                            MasterSlaveGA, MigrationPolicy, NEIGHBORHOODS,
                            RingTopology, TwoLevelIslandGA,
                            island_with_torus_topology, neighborhood_offsets)


@pytest.fixture(scope="module")
def problem():
    return Problem(OperationBasedEncoding(get_instance("ft06")))


CFG = GAConfig(population_size=16, n_elites=2)


class TestMasterSlave:
    def test_serial_backend_equals_simple_ga(self, problem):
        simple = SimpleGA(problem, CFG, MaxGenerations(6), seed=3).run()
        ms = MasterSlaveGA(problem, CFG, MaxGenerations(6), seed=3,
                           backend="serial").run()
        assert ms.best_objective == simple.best_objective
        assert np.array_equal(ms.best.genome, simple.best.genome)

    def test_process_backend_identical_results(self, problem):
        """The survey's defining property: distribution of evaluation does
        not affect algorithm behaviour."""
        serial = MasterSlaveGA(problem, CFG, MaxGenerations(5), seed=3,
                               backend="serial").run()
        pooled = MasterSlaveGA(problem, CFG, MaxGenerations(5), seed=3,
                               backend="process", n_workers=3).run()
        assert pooled.best_objective == serial.best_objective
        assert tuple(pooled.history.best_curve()) == \
            tuple(serial.history.best_curve())

    def test_batched_backend_identical_results(self, problem):
        serial = MasterSlaveGA(problem, CFG, MaxGenerations(4), seed=9,
                               backend="serial").run()
        batched = MasterSlaveGA(problem, CFG, MaxGenerations(4), seed=9,
                                backend="batched", n_workers=2,
                                batch_size=5).run()
        assert batched.best_objective == serial.best_objective

    def test_eval_stats_recorded(self, problem):
        ms = MasterSlaveGA(problem, CFG, MaxGenerations(3), seed=1,
                           backend="serial")
        result = ms.run()
        assert ms.eval_stats.genomes == result.evaluations
        assert result.extra["backend"] == "serial"

    def test_invalid_backend(self, problem):
        with pytest.raises(ValueError):
            MasterSlaveGA(problem, backend="gpu")


class TestIslandGA:
    def test_runs_and_reports(self, problem):
        res = IslandGA(problem, n_islands=3,
                       config=GAConfig(population_size=8),
                       migration=MigrationPolicy(interval=3, rate=1),
                       termination=MaxGenerations(12), seed=4).run()
        assert res.generations == 12
        assert res.n_islands_final == 3
        assert len(res.histories) == 3
        assert res.evaluations == 3 * 8 * 13  # init + 12 generations

    def test_deterministic(self, problem):
        kw = dict(n_islands=3, config=GAConfig(population_size=8),
                  migration=MigrationPolicy(interval=3, rate=1),
                  termination=MaxGenerations(9), seed=11)
        a = IslandGA(problem, **kw).run()
        b = IslandGA(problem, **kw).run()
        assert a.best_objective == b.best_objective
        assert tuple(a.global_history.best_curve()) == \
            tuple(b.global_history.best_curve())

    def test_migration_actually_mixes(self, problem):
        """With cooperation, an island can host a genome born elsewhere."""
        ga = IslandGA(problem, n_islands=2,
                      config=GAConfig(population_size=6),
                      migration=MigrationPolicy(interval=1, rate=2),
                      termination=MaxGenerations(2), seed=5)
        ga.initialize()
        before = {i: {ind.genome_key() for ind in ga.islands[i].population}
                  for i in range(2)}
        ga._advance_serial(1)
        ga.state.generation += 1
        moved = ga.migrate(1)
        assert moved > 0

    def test_cooperation_off_never_migrates(self, problem):
        ga = IslandGA(problem, n_islands=2,
                      config=GAConfig(population_size=6),
                      migration=MigrationPolicy(interval=1, rate=2),
                      termination=MaxGenerations(2), seed=5,
                      cooperation=False)
        ga.initialize()
        assert ga.migrate(1) == 0

    def test_shared_start_identical_initial_pops(self, problem):
        ga = IslandGA(problem, n_islands=3,
                      config=GAConfig(population_size=5),
                      termination=MaxGenerations(1), seed=6,
                      shared_start=True)
        ga.initialize()
        keys = [tuple(sorted(ind.genome_key()
                             for ind in isl.population))
                for isl in ga.islands]
        assert keys[0] == keys[1] == keys[2]

    def test_heterogeneous_configs(self, problem):
        from repro.operators import (JobBasedCrossover, OrderCrossover,
                                     SwapMutation, ShiftMutation)
        configs = [GAConfig(population_size=6, crossover=JobBasedCrossover(),
                            mutation=SwapMutation()),
                   GAConfig(population_size=6, crossover=OrderCrossover(),
                            mutation=ShiftMutation())]
        res = IslandGA(problem, n_islands=2, config=configs,
                       termination=MaxGenerations(4), seed=7).run()
        assert res.generations == 4

    def test_config_count_mismatch(self, problem):
        with pytest.raises(ValueError):
            IslandGA(problem, n_islands=3,
                     config=[GAConfig(population_size=4)] * 2)

    def test_topology_size_mismatch(self, problem):
        with pytest.raises(ValueError):
            IslandGA(problem, n_islands=3, topology=RingTopology(4))

    def test_merge_on_stagnation_reduces_islands(self, problem):
        res = IslandGA(problem, n_islands=4,
                       config=GAConfig(population_size=6, mutation_rate=0.0,
                                       immigration_rate=0.0),
                       migration=MigrationPolicy(interval=2, rate=1),
                       termination=MaxGenerations(40), seed=8,
                       merge_on_stagnation=40).run()
        # threshold 40 > genome length 36, so every island stagnates
        assert res.n_islands_final < 4

    def test_process_parallel_matches_serial(self, problem):
        kw = dict(n_islands=2, config=GAConfig(population_size=6),
                  migration=MigrationPolicy(interval=2, rate=1),
                  termination=MaxGenerations(4), seed=13)
        serial = IslandGA(problem, parallel="serial", **kw).run()
        procs = IslandGA(problem, parallel="process", n_workers=2,
                         **kw).run()
        assert procs.best_objective == serial.best_objective
        assert tuple(procs.global_history.best_curve()) == \
            tuple(serial.global_history.best_curve())


class TestCellularGA:
    def test_grid_defines_population(self, problem):
        ga = CellularGA(problem, rows=4, cols=3,
                        termination=MaxGenerations(3), seed=1)
        res = ga.run()
        assert len(res.population) == 12
        assert res.extra["rows"] == 4

    def test_neighborhood_shapes(self):
        assert len(neighborhood_offsets("L5")) == 4
        assert len(neighborhood_offsets("C9")) == 8
        assert len(neighborhood_offsets("L9")) == 8
        assert len(neighborhood_offsets("C13")) == 12
        with pytest.raises(ValueError):
            neighborhood_offsets("X1")

    def test_toroidal_neighbors(self, problem):
        ga = CellularGA(problem, rows=3, cols=3, neighborhood="L5", seed=0)
        coords = ga.neighbors(0, 0)
        assert (2, 0) in coords and (0, 2) in coords  # wrap-around

    def test_if_better_replacement_monotone_cells(self, problem):
        ga = CellularGA(problem, rows=3, cols=3,
                        termination=MaxGenerations(5), seed=2,
                        replacement="if_better")
        ga.initialize()
        before = ga.population.objectives()
        for _ in range(5):
            ga.step()
        assert (ga.population.objectives() <= before).all()

    def test_always_replacement_allowed(self, problem):
        res = CellularGA(problem, rows=3, cols=3,
                         termination=MaxGenerations(3), seed=2,
                         replacement="always").run()
        assert res.generations == 3

    def test_deterministic(self, problem):
        a = CellularGA(problem, rows=3, cols=4,
                       termination=MaxGenerations(4), seed=9).run()
        b = CellularGA(problem, rows=3, cols=4,
                       termination=MaxGenerations(4), seed=9).run()
        assert a.best_objective == b.best_objective

    def test_validation(self, problem):
        with pytest.raises(ValueError):
            CellularGA(problem, rows=0, cols=3)
        with pytest.raises(ValueError):
            CellularGA(problem, replacement="sometimes")


class TestHybrids:
    def test_island_of_cellular_runs(self, problem):
        res = IslandOfCellularGA(problem, n_islands=2, rows=3, cols=3,
                                 termination=MaxGenerations(8),
                                 migration=MigrationPolicy(interval=4,
                                                           rate=1),
                                 seed=3).run()
        assert res.extra["model"] == "island_of_cellular"
        assert res.best_objective > 0

    def test_island_with_torus_topology_factory(self, problem):
        ga = island_with_torus_topology(problem, n_islands=9,
                                        subpop_size=4,
                                        termination=MaxGenerations(4),
                                        seed=4)
        res = ga.run()
        assert res.generations == 4

    def test_two_level_validates_intervals(self, problem):
        with pytest.raises(ValueError):
            TwoLevelIslandGA(problem,
                             migration=MigrationPolicy(interval=10),
                             broadcast_interval=5)

    def test_two_level_runs_and_reports(self, problem):
        res = TwoLevelIslandGA(problem, n_islands=3,
                               config=GAConfig(population_size=6),
                               migration=MigrationPolicy(interval=2, rate=1),
                               broadcast_interval=6,
                               termination=MaxGenerations(12),
                               seed=5).run()
        assert res.extra["GN"] == 2 and res.extra["LN"] == 6
        assert res.generations == 12

    def test_two_level_broadcast_spreads_best(self, problem):
        """After a broadcast every island contains the global best."""
        ga = TwoLevelIslandGA(problem, n_islands=3,
                              config=GAConfig(population_size=6),
                              migration=MigrationPolicy(interval=2, rate=0),
                              broadcast_interval=4,
                              termination=MaxGenerations(4), seed=6)
        inner = ga.inner
        inner.initialize()
        inner._advance_serial(4)
        ga._broadcast()
        global_best = min(isl.population.best().objective
                          for isl in inner.islands)
        for isl in inner.islands:
            assert isl.population.best().objective == global_best
