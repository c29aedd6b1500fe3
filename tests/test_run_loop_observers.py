"""Only run loops observe; the engine skeleton is shared.

``SimpleGA.run()`` notifies the observers after initialisation and after
every generation, and a bare ``initialize()``/``step()`` records nothing,
so islands stepped by an island engine keep no history of their own.
``CellularGA`` is a ``SimpleGA`` on a grid and inherits that loop, its
initialisation (``GAConfig.seeding`` included) and its evaluation.
"""

import pickle

import pytest

from scalar_reference import path
from repro import (GAConfig, IslandGA, MaxGenerations, SimpleGA,
                   SolverSpec, solve)
from repro.api.components import resolve_problem
from repro.core.observers import CallbackObserver
from repro.parallel.fine_grained import CellularGA
from repro.parallel.hybrid import IslandOfCellularGA
from repro.parallel.island import _advance_island


def counting_observer():
    calls = []
    return calls, CallbackObserver(
        lambda generation, **_: calls.append(generation))


def engine(kind, problem, gens, observers=(), substrate="object"):
    config = GAConfig(population_size=9, substrate=substrate)
    if kind == "simple":
        return SimpleGA(problem, config, MaxGenerations(gens), seed=2,
                        observers=observers)
    return CellularGA(problem, rows=3, cols=3, config=config,
                      termination=MaxGenerations(gens), seed=2,
                      observers=observers)


@pytest.mark.parametrize("substrate", ["object", "array"])
@pytest.mark.parametrize("kind", ["simple", "cellular"])
class TestObserversRunOnlyInRun:
    def test_run_notifies_generations_plus_one(self, ft06_problem, kind,
                                               substrate):
        calls, observer = counting_observer()
        with path(substrate):
            ga = engine(kind, ft06_problem, 5, [observer], substrate)
        result = ga.run()
        assert calls == list(range(6))
        assert len(result.history.records) == 6

    def test_bare_steps_notify_nothing(self, ft06_problem, kind, substrate):
        calls, observer = counting_observer()
        with path(substrate):
            ga = engine(kind, ft06_problem, 5, [observer], substrate)
        ga.initialize()
        for _ in range(3):
            ga.step()
        assert calls == []
        assert ga.history.records == []
        assert ga.state.generation == 3

    def test_run_after_initialize_records_the_start(self, ft06_problem,
                                                    kind, substrate):
        with path(substrate):
            ga = engine(kind, ft06_problem, 4, substrate=substrate)
        ga.initialize()
        first = ga.population.best_objective()
        history = ga.run().history
        assert [r.generation for r in history.records] == list(range(5))
        assert history.records[0].best == first


@pytest.mark.parametrize("substrate", ["object", "array"])
def test_island_engines_keep_no_island_history(ft06_problem, substrate):
    with path(substrate):
        island = IslandGA(ft06_problem, n_islands=3,
                          config=GAConfig(population_size=8,
                                          substrate=substrate),
                          termination=MaxGenerations(6), seed=4)
        hybrid = IslandOfCellularGA(ft06_problem, n_islands=2, rows=2,
                                    cols=3,
                                    config=GAConfig(substrate=substrate),
                                    termination=MaxGenerations(6), seed=4)
    for ga in (island, hybrid):
        result = ga.run()
        assert len(result.global_history.records) > 1
        for isl in ga.islands:
            assert isl.history.records == []


def test_process_island_payload_does_not_grow():
    """An island shipped to a worker epoch after epoch carries no
    history, so its payload stays the same size."""
    problem = resolve_problem(SolverSpec(instance="ft06"))
    island = SimpleGA(problem, GAConfig(population_size=10),
                      MaxGenerations(0), seed=1)
    island.initialize()
    sizes = []
    for _ in range(5):
        blob = _advance_island(pickle.dumps((island, 10)))
        sizes.append(len(blob))
        island = pickle.loads(blob)
    assert island.state.generation == 50
    assert max(sizes) <= 1.01 * sizes[0]
    assert min(sizes) >= 0.99 * sizes[0]


@pytest.mark.parametrize("engine_name",
                         ["simple", "island", "cellular", "hybrid"])
def test_seeding_reaches_generation_zero(engine_name):
    neh = solve(SolverSpec(instance="ft06", engine="neh")).best_objective
    report = solve(SolverSpec(
        instance="ft06", engine=engine_name,
        ga={"population_size": 16, "seeding": "neh"},
        termination={"max_generations": 0}, seed=1))
    assert report.history.records[0].best <= neh


@pytest.mark.parametrize("substrate", ["object", "array"])
@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 2), (2, 2)])
def test_small_grids_bypass_population_checks(ft06_problem, substrate,
                                              rows, cols):
    # the grid, not GAConfig, sizes the population: one cell, and more
    # elites (2 by default) than cells, still construct and run
    with path(substrate):
        ga = CellularGA(ft06_problem, rows=rows, cols=cols,
                        config=GAConfig(substrate=substrate, n_elites=2),
                        termination=MaxGenerations(3), seed=5)
    assert ga.substrate == substrate
    result = ga.run()
    assert len(result.population) == rows * cols
    assert result.evaluations == 4 * rows * cols
