"""Tests for the master-slave, island, cellular and hybrid engines."""

import hashlib
import multiprocessing
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from scalar_reference import per_pair
from repro.core import GAConfig, MaxGenerations, SimpleGA
from repro.encodings import OperationBasedEncoding, Problem
from repro.instances import get_instance
from repro.operators import LinearOrderCrossover
from repro.parallel import (CellularGA, IslandGA, IslandOfCellularGA,
                            MasterSlaveGA, MigrationPolicy, NEIGHBORHOODS,
                            RingTopology, StarTopology, TwoLevelIslandGA,
                            island_with_torus_topology, neighborhood_offsets)


@pytest.fixture(scope="module")
def problem():
    return Problem(OperationBasedEncoding(get_instance("ft06")))


CFG = GAConfig(population_size=16, n_elites=2)


class SlowProblem(Problem):
    """Evaluation that waits ``delay`` seconds per genome without a CPU.

    The expensive-fitness regime: slaves that wait in parallel finish
    together even on a shared host whose virtual cores are busy
    elsewhere, where busy ``eval_cost`` loops could merely take turns.
    """

    delay = 2e-3

    def evaluate_many(self, genomes):
        time.sleep(self.delay * len(genomes))
        return super().evaluate_many(genomes)


def _new_children(before):
    return [p for p in multiprocessing.active_children() if p not in before]


def _records(result):
    return [(r.generation, r.best, r.mean, r.std, r.worst, r.evaluations)
            for r in result.history.records]


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


class TestMasterSlaveSizing:
    """Slaves are sized from the run's own Tf and Tc (Cantu-Paz's P*)."""

    @pytest.mark.parametrize("backend", ["process", "batched"])
    def test_cheap_evaluation_stays_on_the_master(self, backend):
        problem = Problem(OperationBasedEncoding(get_instance("ft10-shaped")))
        cfg = GAConfig(population_size=40)
        before = multiprocessing.active_children()
        serial = MasterSlaveGA(problem, cfg, MaxGenerations(10), seed=3,
                               backend="serial").run()
        pooled = MasterSlaveGA(problem, cfg, MaxGenerations(10), seed=3,
                               backend=backend, n_workers=2).run()
        assert _new_children(before) == []
        sizing = pooled.extra["sizing"]
        assert sizing["slaves"] == 1
        if os.cpu_count() > 1:
            # the model predicts a loss at two slaves
            assert sizing["t_comm"] > 0
            assert sizing["predicted_speedup"] < 1
        assert sizing["t_eval"] > 0 and sizing["measured_speedup"] > 0
        assert pooled.best_objective == serial.best_objective
        assert np.array_equal(pooled.best.genome, serial.best.genome)
        assert _records(pooled) == _records(serial)
        assert pooled.extra["eval_calls"] == 11

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
    @pytest.mark.parametrize("backend", ["process", "batched"])
    def test_expensive_evaluation_keeps_its_slaves(self, backend):
        problem = SlowProblem(
            OperationBasedEncoding(get_instance("ft10-shaped")))
        cfg = GAConfig(population_size=16)
        before = multiprocessing.active_children()
        serial = MasterSlaveGA(problem, cfg, MaxGenerations(4), seed=3,
                               backend="serial").run()
        pooled = MasterSlaveGA(problem, cfg, MaxGenerations(4), seed=3,
                               backend=backend, n_workers=2,
                               batch_size=8).run()
        assert _new_children(before) == []
        sizing = pooled.extra["sizing"]
        assert sizing["slaves"] == min(2, os.cpu_count())
        assert sizing["predicted_speedup"] > 1
        assert pooled.best_objective == serial.best_objective
        assert _records(pooled) == _records(serial)
        assert pooled.extra["eval_calls"] == 5

    def test_workers_are_capped_at_the_cores_present(self, problem):
        ms = MasterSlaveGA(problem, CFG, MaxGenerations(2), seed=1,
                           n_workers=64)
        assert ms.cap == min(64, os.cpu_count() or 1)
        if ms.cap > 1:
            assert ms.pool.n_workers == ms.cap
        else:
            assert ms.pool is None
        ms.run()

    def test_serial_backend_reports_one_slave(self, problem):
        sizing = MasterSlaveGA(problem, CFG, MaxGenerations(2), seed=1,
                               backend="serial").run().extra["sizing"]
        assert sizing["slaves"] == 1 and sizing["t_comm"] is None
        assert sizing["predicted_speedup"] == 1.0

    def test_refused_configuration_starts_no_process(self, problem):
        before = multiprocessing.active_children()
        cfg = GAConfig(population_size=16, substrate="array",
                       crossover=LinearOrderCrossover())
        with pytest.raises(ValueError):
            MasterSlaveGA(problem, cfg, MaxGenerations(2), seed=1,
                          backend="process", n_workers=2)
        assert _new_children(before) == []


class TestIslandGA:
    def test_runs_and_reports(self, problem):
        res = IslandGA(problem, n_islands=3,
                       config=GAConfig(population_size=8),
                       migration=MigrationPolicy(interval=3, rate=1),
                       termination=MaxGenerations(12), seed=4).run()
        assert res.generations == 12
        assert res.n_islands_final == 3
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

    def test_exchange_never_sends_an_island_to_itself(self, problem):
        # a star over 4 islands, 2 left after merging: the hub's routes to
        # positions 1, 2, 3 wrap to islands 1, 0, 1; the one to itself is
        # skipped, so 3 routes (2 from the hub, 1 back) carry 2 migrants
        ga = IslandGA(problem, n_islands=4,
                      config=GAConfig(population_size=6),
                      topology=StarTopology(4),
                      migration=MigrationPolicy(interval=1, rate=2),
                      merge_on_stagnation=40, seed=5)
        ga.initialize()
        ga._active = [0, 1]
        assert ga.migrate(1) == 2 * 3

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


def island_family(engine, problem, seed, config):
    """A small hybrid, two-level or island GA on ring migration with
    random emigrants and random replacement (the hybrid forces worst)."""
    common = dict(migration=MigrationPolicy(interval=2, rate=2,
                                            emigrant="random",
                                            replacement="random"),
                  termination=MaxGenerations(12), seed=seed)
    if engine == "hybrid":
        return IslandOfCellularGA(problem, n_islands=3, rows=3, cols=3,
                                  config=config, **common)
    config = replace(config, population_size=8)
    if engine == "two-level":
        return TwoLevelIslandGA(problem, n_islands=3, config=config,
                                broadcast_interval=6, **common)
    return IslandGA(problem, n_islands=3, config=config, **common)


def islands_digest(islands, problem):
    """sha256 of every island's final rows and objectives, in order."""
    digest = hashlib.sha256()
    for isl in islands:
        matrix, objectives = isl.population.to_arrays(problem)
        digest.update(np.ascontiguousarray(matrix, dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(objectives,
                                           dtype=np.float64).tobytes())
    return digest.hexdigest()


#: (engine, path, seed, best, evaluations, islands_digest), captured
#: before the hybrid and two-level GAs became IslandGA subclasses
PINNED_RUNS = [
    ("hybrid", "array", 1, 59.0, 351,
     "7259bd8c0bbc32bd28c74bb59868014258d4bbd93e96ecf57f5486c3ee6e2169"),
    ("hybrid", "array", 2, 59.0, 351,
     "f895f103426f2bf4c745e4b4390f9e30b97ed9a1bee0f35140a90fc8bf5edf2a"),
    ("hybrid", "per_pair", 1, 59.0, 351,
     "fcb4b33661f58cd52a4abd4829f4abc8681e44dbcb3353f16a8388f171946f8f"),
    ("hybrid", "per_pair", 2, 60.0, 351,
     "ca0237b361127ef8b778439e835d84d1edec730a18c54c15f9000ef5a923ae12"),
    ("hybrid", "lox", 1, 59.0, 351,
     "2651fb0966585a7e42c451aaaa3419170c157dab146db18a3f0f983b2fe5f201"),
    ("hybrid", "lox", 2, 60.0, 351,
     "9554283bb7814e840862341a666aa3c45585916a22d62f8447f181749b7b05e2"),
    ("two-level", "array", 1, 59.0, 312,
     "7467e172f13d525d074c0c71fd3da81885ce51a8baada8963a6129aef3fde066"),
    ("two-level", "array", 2, 59.0, 312,
     "2d4479db90430885d7a3b348fcbb4543eb138349d33b926d5eea46bb229cdcee"),
    ("two-level", "per_pair", 1, 60.0, 312,
     "b3d3398088bdf34db130ea635215e15adfcf15a84e67f45e2527d1d5a5e88bff"),
    ("two-level", "per_pair", 2, 60.0, 312,
     "16d9b857d4d3053527d8101eed2a48a564f53e2d16f11dbbe68dd2c4436231f0"),
    ("two-level", "lox", 1, 67.0, 312,
     "4217dc66e523423bdabd432640c16bf80ac4459358e4e521791995403da62aa1"),
    ("two-level", "lox", 2, 60.0, 312,
     "5573f61aeaa92655565e5177019f6a15d25f8cb31b008df2ca3ce39ed925a04e"),
    ("island", "array", 1, 59.0, 312,
     "cc3a2ab3e3965ca2020998592b3fdfb647d9af0b5a874be41ba1985e20c20eef"),
    ("island", "array", 2, 59.0, 312,
     "c37c7b199a5ca5e07d898a7f29225678a823854a50d4bf722a7668cb811ce7f8"),
    ("island", "per_pair", 1, 60.0, 312,
     "4a4ad0d664c5012853ea7a06198b3812fb2084a2494bf4c62c5560b844632ddf"),
    ("island", "per_pair", 2, 60.0, 312,
     "d1eef4347d39e4d99114a3cefd65bdecda914dc4c981f2299c2b39d747c2dd6f"),
    ("island", "lox", 1, 68.0, 312,
     "7376d6f6e831d1d55ee13d7408968727c9af779de09cfcea742767d6b462400d"),
    ("island", "lox", 2, 60.0, 312,
     "a91cee3fceb4317e0e749f7cf862e2de34752e22f8262a3434956b3f38d46f83"),
]


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
        ga.initialize()
        ga._advance_serial(4)
        assert ga._broadcast() == 6
        global_best = min(isl.population.best().objective
                          for isl in ga.islands)
        for isl in ga.islands:
            assert isl.population.best().objective == global_best

    @pytest.mark.parametrize("engine,path,seed,best,evaluations,digest",
                             PINNED_RUNS)
    def test_island_family_results_pinned(self, problem, engine, path, seed,
                                          best, evaluations, digest):
        """Exact results of the three island engines on both paths."""
        if path == "per_pair":
            with per_pair():
                ga = island_family(engine, problem, seed, GAConfig())
        else:
            ga = island_family(engine, problem, seed, GAConfig(
                crossover=LinearOrderCrossover() if path == "lox" else None))
        assert ga.substrate == ("array" if path == "array" else "object")
        res = ga.run()
        assert res.best_objective == best
        assert res.evaluations == evaluations
        assert islands_digest(ga.islands, problem) == digest
