"""The history recorder reduces stored objective vectors in blocks.

``HistoryRecorder.observe`` keeps each generation's objective vector and
reduces them when the records are read.  Every record must still equal
that generation's ``population.stats()`` bit for bit, whenever and
however often the records are read, and a population that is not fully
evaluated is refused when it is observed.
"""

import numpy as np
import pytest

from scalar_reference import path
from repro import (GAConfig, IslandGA, MaxGenerations, Population,
                   SimpleGA, SolverSpec)
from repro.api.components import resolve_problem
from repro.core.individual import Individual
from repro.core.observers import CallbackObserver, HistoryRecorder
from repro.core.substrate import ArrayPopulationView
from repro.parallel.fine_grained import CellularGA

FIELDS = ("best", "mean", "std", "worst")


def stats_tuple(stats):
    return tuple(getattr(stats, name) for name in FIELDS)


def record_tuple(record):
    return tuple(getattr(record, name) for name in FIELDS)


def assert_records_equal(records, expected):
    """``records`` against ``(generation, evaluations, stats)`` triples,
    compared as exact float bits."""
    assert len(records) == len(expected)
    for record, (generation, evaluations, stats) in zip(records, expected):
        assert record.generation == generation
        assert record.evaluations == evaluations
        got, want = record_tuple(record), stats_tuple(stats)
        assert [x.hex() for x in got] == [x.hex() for x in want]


def stats_observer(expected):
    return CallbackObserver(
        lambda generation, population, evaluations, **_: expected.append(
            (generation, evaluations, population.stats())))


def engine(kind, problem, observers, substrate, gens=8):
    config = GAConfig(population_size=12, substrate=substrate)
    if kind == "simple":
        return SimpleGA(problem, config, MaxGenerations(gens), seed=3,
                        observers=observers)
    return CellularGA(problem, rows=3, cols=4, config=config,
                      termination=MaxGenerations(gens), seed=3,
                      observers=observers)


@pytest.mark.parametrize("substrate", ["object", "array"])
@pytest.mark.parametrize("kind", ["simple", "cellular"])
def test_records_equal_each_generations_stats(ft06_problem, kind,
                                              substrate):
    expected = []
    with path(substrate):
        ga = engine(kind, ft06_problem, [stats_observer(expected)],
                    substrate)
    result = ga.run()
    assert_records_equal(result.history.records, expected)


@pytest.mark.parametrize("substrate", ["object", "array"])
def test_records_read_mid_run_then_the_run_continues(ft06_problem,
                                                     substrate):
    expected, reads = [], []

    def read(generation, population, evaluations, **_):
        expected.append((generation, evaluations, population.stats()))
        if generation % 3 == 1:
            reads.append(list(ga.history.records))

    with path(substrate):
        ga = engine("simple", ft06_problem, [CallbackObserver(read)],
                    substrate, gens=10)
    result = ga.run()
    assert_records_equal(result.history.records, expected)
    for snapshot in reads:
        assert_records_equal(snapshot, expected[:len(snapshot)])
    assert [len(snapshot) for snapshot in reads] == [2, 5, 8, 11]


def test_a_full_block_is_reduced_during_the_run(ft06_problem):
    expected = []
    ga = engine("simple", ft06_problem, [stats_observer(expected)], "array",
                gens=10)
    ga.history.PENDING_OBJECTIVES = 30  # a block every third generation
    pending = []
    ga.observers.append(CallbackObserver(
        lambda **_: pending.append(len(ga.history._pending))))
    result = ga.run()
    assert max(pending) < 3
    assert_records_equal(result.history.records, expected)


class RecordingIslandGA(IslandGA):
    """Collects the active islands' merged ``stats()`` at every global
    record, as the recorder used to compute them.  An island that
    ``merge_on_stagnation`` retired is not read: its best members live on
    in the island it merged into."""

    def _record_global(self):
        merged = Population([member for i in self._active
                             for member in self.islands[i].population])
        self.expected.append((self.state.generation, self.state.evaluations,
                              merged.stats()))
        super()._record_global()


@pytest.mark.parametrize("substrate, merge", [
    ("object", None), ("array", None), ("object", 3)])
def test_island_global_history_equals_merged_stats(substrate, merge):
    problem = resolve_problem(SolverSpec(instance="ta-fs-20x5-shaped"))
    with path(substrate):
        ga = RecordingIslandGA(problem, n_islands=4,
                               config=GAConfig(population_size=10,
                                               substrate=substrate),
                               termination=MaxGenerations(40), seed=2,
                               merge_on_stagnation=merge)
    ga.expected = []
    result = ga.run()
    records = result.global_history.records
    assert_records_equal(records, ga.expected)
    if merge is not None:
        assert records[0].extra["n_islands"] == 4
        assert records[-1].extra["n_islands"] == 1
        # the one island left: 10 members, not the 40 of all four
        assert ga.expected[-1][2].size == 10


def test_generations_of_different_sizes_reduce_in_runs():
    """Each run of equal-sized generations is one block; a size change
    starts the next."""
    rng = np.random.default_rng(4)
    recorder, expected = HistoryRecorder(), []
    for generation, size in enumerate([5, 5, 7, 7, 7, 1, 5, 5]):
        population = Population(Individual(np.arange(2)) for _ in range(size))
        for member in population:
            member.objective = float(rng.integers(0, 50))
        expected.append((generation, 10 * generation, population.stats()))
        recorder.observe(generation, population, 10 * generation, 0.0,
                         size=size)
        if generation == 3:
            assert_records_equal(recorder.records, expected)
    assert_records_equal(recorder.records, expected)
    assert [r.extra["size"] for r in recorder.records] == \
        [5, 5, 7, 7, 7, 1, 5, 5]


@pytest.mark.parametrize("bad", [[], [3.0, float("nan")], [1.0, None]],
                         ids=["empty", "nan", "unevaluated"])
def test_unevaluated_population_raises_at_observe(bad):
    recorder = HistoryRecorder()
    members = [Individual(np.arange(2)) for _ in bad]
    for member, value in zip(members, bad):
        member.objective = value
    with pytest.raises(ValueError, match="fully evaluated"):
        recorder.observe(0, Population(members), 0, 0.0)
    assert recorder.records == []


@pytest.mark.parametrize("substrate", ["object", "array"])
def test_run_never_calls_population_stats(ft06_problem, substrate,
                                          monkeypatch):
    calls = []
    for cls in (Population, ArrayPopulationView):
        original = cls.stats

        def counted(self, _original=original):
            calls.append(type(self).__name__)
            return _original(self)

        monkeypatch.setattr(cls, "stats", counted)
    with path(substrate):
        ga = engine("simple", ft06_problem, [], substrate)
    result = ga.run()
    assert len(result.history.records) == 9
    assert calls == []


def test_block_reductions_equal_row_reductions():
    """Reducing a stacked block along its rows gives the bits of the 1-D
    reduction of each row, for every row length up to 4097."""
    rng = np.random.default_rng(0)
    for length in range(1, 4098):
        block = rng.random((3, length)) * 1000.0
        for reduce in (np.min, np.max, np.mean, np.std):
            rows = reduce(block, axis=1)
            for k in range(3):
                assert rows[k] == reduce(block[k])
                assert rows[k].tobytes() == reduce(block[k]).tobytes()
