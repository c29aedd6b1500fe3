"""Conformance suite for the cellular grid's array path.

Mirrors the layers of ``tests/test_substrate.py`` for the fine-grained
engine: neighbourhood-gather correctness (the offset index tables that
replace per-cell coordinate arithmetic), closure of the grid kernels for
the permutation/repetition crossovers, exact equality of the grid with
the per-cell loop (``scalar_reference.per_pair``) at the rate extremes
under a shared seed (the per-cell RNG draw order is preserved by
construction), and search-quality parity on a ta-style flow shop.  The
hybrid island-of-cellular engine is exercised on the same grids,
including the shared ``(n_islands, cells, n_genes)`` binding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from scalar_reference import path
from repro import (GAConfig, MaxGenerations, MigrationPolicy, Population,
                   Problem, SolverSpec)
from repro.core import rng as rng_module
from repro.core.rng import cell_draws
from repro.core.substrate import ArrayPopulationView
from repro.encodings import (FlowShopPermutationEncoding,
                             OperationBasedEncoding,
                             RandomKeysFlowShopEncoding)
from repro.instances import flow_shop, get_instance, job_shop
from repro.operators import (ArithmeticCrossover, JobBasedCrossover,
                             OrderCrossover, PMXCrossover,
                             register_batch_mutation)
from repro.parallel.fine_grained import (NEIGHBORHOODS, CellularGA,
                                         grid_neighbor_table)
from repro.parallel.hybrid import IslandOfCellularGA


# -- neighbourhood gather tables -------------------------------------------------

class TestNeighborTable:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 7), cols=st.integers(1, 7),
           name=st.sampled_from(sorted(NEIGHBORHOODS)))
    def test_table_matches_toroidal_arithmetic(self, rows, cols, name):
        offsets = NEIGHBORHOODS[name]
        table = grid_neighbor_table(rows, cols, offsets)
        assert table.shape == (rows * cols, len(offsets))
        for r in range(rows):
            for c in range(cols):
                expect = [((r + dr) % rows) * cols + (c + dc) % cols
                          for dr, dc in offsets]
                assert table[r * cols + c].tolist() == expect

    @settings(max_examples=25, deadline=None)
    @given(rows=st.integers(2, 6), cols=st.integers(2, 6),
           name=st.sampled_from(sorted(NEIGHBORHOODS)))
    def test_table_agrees_with_engine_neighbors(self, rows, cols, name):
        problem = Problem(FlowShopPermutationEncoding(
            flow_shop(5, 3, seed=1)))
        ga = CellularGA(problem, rows=rows, cols=cols, neighborhood=name)
        table = grid_neighbor_table(rows, cols, ga.offsets)
        for r in range(rows):
            for c in range(cols):
                flat = [rr * cols + cc for rr, cc in ga.neighbors(r, c)]
                assert table[r * cols + c].tolist() == flat

    def test_table_values_are_valid_flat_indices(self):
        table = grid_neighbor_table(4, 5, NEIGHBORHOODS["C13"])
        assert table.min() >= 0 and table.max() < 20


# -- closure of the grid kernels -------------------------------------------------

class TestGridClosure:
    @pytest.mark.parametrize("crossover", [PMXCrossover(), OrderCrossover()],
                             ids=["pmx", "ox"])
    @pytest.mark.parametrize("neighborhood", sorted(NEIGHBORHOODS))
    def test_permutation_grid_steps_stay_permutations(self, crossover,
                                                      neighborhood):
        problem = Problem(FlowShopPermutationEncoding(
            flow_shop(9, 4, seed=3)))
        ga = CellularGA(problem, rows=4, cols=4, neighborhood=neighborhood,
                        config=GAConfig(substrate="array", crossover_rate=0.9,
                                        mutation_rate=0.4,
                                        crossover=crossover),
                        termination=MaxGenerations(4), seed=6)
        ga.run()
        base = np.arange(9)
        for row in ga.arrays.matrix:
            assert np.array_equal(np.sort(row), base)

    @pytest.mark.parametrize("crossover",
                             [OrderCrossover(), JobBasedCrossover()],
                             ids=["ox", "jox"])
    def test_repetition_grid_steps_preserve_multisets(self, crossover):
        instance = job_shop(4, 3, seed=8)
        problem = Problem(OperationBasedEncoding(instance))
        ga = CellularGA(problem, rows=3, cols=4,
                        config=GAConfig(substrate="array", crossover_rate=0.9,
                                        mutation_rate=0.5,
                                        crossover=crossover),
                        termination=MaxGenerations(4), seed=2)
        ga.run()
        base = np.sort(np.repeat(np.arange(4), 3))
        for row in ga.arrays.matrix:
            assert np.array_equal(np.sort(row), base)


# -- rate-extreme per-cell-vs-grid bit-equality ------------------------------

def run_cell_pair(problem, seed=11, gens=4, rows=3, cols=4,
                  neighborhood="L5", replacement="if_better", **cfg_kwargs):
    """Run the per-cell loop and the grid with one config and seed."""
    out = {}
    for substrate in ("object", "array"):
        with path(substrate):
            ga = CellularGA(problem, rows=rows, cols=cols,
                            neighborhood=neighborhood,
                            replacement=replacement,
                            config=GAConfig(substrate=substrate,
                                            **cfg_kwargs),
                            termination=MaxGenerations(gens), seed=seed)
        assert ga.substrate == substrate
        ga.run()
        out[substrate] = ga
    return out["object"], out["array"]


def object_grid_arrays(ga):
    """Row-major (matrix, objectives) of an object-substrate grid."""
    flat = ga.population
    return (np.stack([np.asarray(ind.genome) for ind in flat]),
            np.array([ind.objective for ind in flat]))


def assert_grids_equal(obj_ga, arr_ga):
    matrix, objectives = object_grid_arrays(obj_ga)
    assert np.array_equal(arr_ga.arrays.matrix, matrix)
    assert np.array_equal(arr_ga.arrays.objectives, objectives)
    assert obj_ga.state.evaluations == arr_ga.state.evaluations


class TestRateExtremeEquivalence:
    @pytest.mark.parametrize("neighborhood", sorted(NEIGHBORHOODS))
    def test_rate_zero_is_exact(self, ft06_problem, neighborhood):
        obj_ga, arr_ga = run_cell_pair(
            ft06_problem, neighborhood=neighborhood,
            crossover_rate=0.0, mutation_rate=0.0)
        assert_grids_equal(obj_ga, arr_ga)

    @pytest.mark.parametrize("neighborhood", sorted(NEIGHBORHOODS))
    def test_crossover_rate_one_exact_with_drawless_operator(
            self, neighborhood):
        # fixed-weight arithmetic crossover draws nothing, so the per-cell
        # RNG stream (mate pair + two gates) stays aligned while every
        # cell actually crosses -- this pins the neighbourhood gather and
        # the local-tournament mate choice bit-for-bit
        problem = Problem(RandomKeysFlowShopEncoding(flow_shop(8, 4, seed=2)))
        obj_ga, arr_ga = run_cell_pair(
            problem, gens=5, rows=4, cols=4, neighborhood=neighborhood,
            crossover_rate=1.0, mutation_rate=0.0,
            crossover=ArithmeticCrossover(0.3))
        assert_grids_equal(obj_ga, arr_ga)

    def test_mutation_rate_one_exact_with_drawless_operator(self,
                                                            ft06_problem):
        class CellReverseMutation:
            def __call__(self, genome, rng):
                return np.asarray(genome)[::-1].copy()

        @register_batch_mutation(CellReverseMutation)
        def _batch_cell_reverse(op, X, rng):
            return X[:, ::-1].copy()

        obj_ga, arr_ga = run_cell_pair(
            ft06_problem, crossover_rate=0.0, mutation_rate=1.0,
            mutation=CellReverseMutation())
        assert_grids_equal(obj_ga, arr_ga)

    def test_replacement_always_exact(self):
        problem = Problem(RandomKeysFlowShopEncoding(flow_shop(6, 3, seed=5)))
        obj_ga, arr_ga = run_cell_pair(
            problem, replacement="always", crossover_rate=1.0,
            mutation_rate=0.0, crossover=ArithmeticCrossover(0.5))
        assert_grids_equal(obj_ga, arr_ga)

    def test_initial_grids_bit_equal(self, ft06_problem):
        # row-major random_matrix draws == the object path's nested
        # comprehension, so generation 0 matches before any evolution
        for substrate in ("object", "array"):
            with path(substrate):
                ga = CellularGA(ft06_problem, rows=3, cols=3,
                                config=GAConfig(substrate=substrate),
                                seed=13)
            ga.initialize()
            if substrate == "object":
                matrix, objs = object_grid_arrays(ga)
            else:
                assert np.array_equal(ga.arrays.matrix, matrix)
                assert np.array_equal(ga.arrays.objectives, objs)


# -- per-cell draws as one raw block ---------------------------------------------

def per_cell_loop(rng, n, k):
    """The object path's draws for ``n`` cells, literally cell by cell."""
    mates, cross_u, mut_u = [], [], []
    for _ in range(n):
        mates.append(rng.integers(0, k, size=2))
        cross_u.append(rng.random())
        mut_u.append(rng.random())
    return (np.asarray(mates, dtype=np.int64).reshape(n, 2),
            np.asarray(cross_u), np.asarray(mut_u))


def rng_pair(bit_generator, seed, cached):
    """Two identical generators; ``cached`` leaves half an output cached."""
    pair = [np.random.Generator(bit_generator(seed)) for _ in range(2)]
    if cached:
        for rng in pair:  # one 32-bit draw uses half of a 64-bit output
            rng.integers(0, 10, size=1, dtype=np.int32)
    return pair


def assert_block_matches_loop(bit_generator, seed, n, k, cached):
    block_rng, loop_rng = rng_pair(bit_generator, seed, cached)
    got = cell_draws(block_rng, n, k)
    expect = per_cell_loop(loop_rng, n, k)
    for g, e in zip(got, expect):
        assert g.dtype == e.dtype
        assert np.array_equal(g, e)
    np.testing.assert_equal(block_rng.bit_generator.state,
                            loop_rng.bit_generator.state)


@pytest.fixture
def loop_calls(monkeypatch):
    """Count the per-cell loop replays of :func:`cell_draws`."""
    calls = []
    loop = rng_module._cell_draws_loop

    def counted(rng, n, k):
        calls.append((n, k))
        return loop(rng, n, k)

    monkeypatch.setattr(rng_module, "_cell_draws_loop", counted)
    return calls


class TestCellDraws:
    @pytest.mark.parametrize("cached", [False, True],
                             ids=["empty-cache", "cached-half"])
    def test_priming_controls_the_pcg64_cache(self, cached):
        rng, _ = rng_pair(np.random.PCG64, 0, cached)
        assert rng.bit_generator.state["has_uint32"] == int(cached)

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["empty-cache", "cached-half"])
    @pytest.mark.parametrize("n", [1, 2, 196])
    @pytest.mark.parametrize("k", sorted({len(offsets) for offsets
                                          in NEIGHBORHOODS.values()}))
    def test_neighbourhood_sizes_match_the_loop(self, loop_calls, k, n,
                                                cached):
        for seed in range(30):
            assert_block_matches_loop(np.random.PCG64, seed, n, k, cached)
        # at small k a possible rejection has odds ~k / 2**32 per draw, and
        # none of these seeds hits one: every case ran on the raw block
        assert loop_calls == []

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["empty-cache", "cached-half"])
    @pytest.mark.parametrize("n", [1, 2, 196])
    def test_random_k_match_the_loop(self, n, cached):
        ks = np.random.default_rng(n).integers(2, 65, size=40)
        for seed, k in enumerate(ks.tolist()):
            assert_block_matches_loop(np.random.PCG64, seed, n, k, cached)

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["empty-cache", "cached-half"])
    def test_other_bit_generators_replay_the_loop(self, loop_calls, cached):
        for seed in range(5):
            assert_block_matches_loop(np.random.MT19937, seed, 196, 5,
                                      cached)
        assert len(loop_calls) == 5

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["empty-cache", "cached-half"])
    def test_possible_rejection_replays_the_loop(self, loop_calls, cached):
        # at k ~ 3e9 most Lemire leftovers fall below k, so a 196-cell
        # block always holds a possible rejection
        for seed in range(5):
            assert_block_matches_loop(np.random.PCG64, seed, 196,
                                      3_000_000_000, cached)
        assert len(loop_calls) == 5


# -- quality parity + engines ----------------------------------------------------

class TestQualityAndEngines:
    def test_ta_style_flowshop_parity(self):
        """Grid search quality tracks the per-cell loop on ta-fs-20x5."""
        bests = {"object": [], "array": []}
        for substrate in bests:
            for seed in (1, 2, 3):
                with path(substrate):
                    report = repro.solve(SolverSpec(
                        instance="ta-fs-20x5-shaped", engine="cellular",
                        substrate=substrate, ga={"population_size": 36},
                        termination={"max_generations": 30}, seed=seed))
                assert report.extra["substrate"] == substrate
                bests[substrate].append(report.best_objective)
        mean_obj = np.mean(bests["object"])
        mean_arr = np.mean(bests["array"])
        assert mean_arr <= 1.1 * mean_obj
        assert mean_obj <= 1.1 * mean_arr

    def test_grid_improves_over_random(self, ft06_problem):
        ga = CellularGA(ft06_problem, rows=5, cols=5,
                        config=GAConfig(substrate="array"),
                        termination=MaxGenerations(20), seed=1)
        ga.initialize()
        initial = ga.population.best().objective
        assert ga.run().best_objective <= initial

    def test_population_view_over_grid(self, ft06_problem):
        ga = CellularGA(ft06_problem, rows=3, cols=3,
                        config=GAConfig(substrate="array"),
                        termination=MaxGenerations(2), seed=4)
        ga.run()
        view = ga.population
        assert isinstance(view, ArrayPopulationView)
        assert len(view) == 9
        snapshot = Population(ind.copy() for ind in view)
        assert view.best().objective == snapshot.best().objective
        assert view.stats().as_dict() == \
            pytest.approx(snapshot.stats().as_dict())
        assert view.unique_fraction() == snapshot.unique_fraction()

    def test_hybrid_tensor_binding_and_migration(self, ft06_problem):
        ga = IslandOfCellularGA(ft06_problem, n_islands=3, rows=3, cols=3,
                                config=GAConfig(substrate="array"),
                                termination=MaxGenerations(12), seed=5)
        result = ga.run()
        assert result.extra["substrate"] == "array"
        assert result.extra["tensor_mode"] is True
        assert ga._tensor.shape == (3, 9, 36)
        for isl in ga.islands:
            assert isl.arrays.matrix.base is ga._tensor
        assert result.best_objective <= 70

    def test_hybrid_solve_reproducible(self):
        spec = SolverSpec(instance="ft06", engine="hybrid",
                          substrate="array", ga={"population_size": 18},
                          engine_params={"islands": 2,
                                         "migration_interval": 2},
                          termination={"max_generations": 6}, seed=3)
        a, b = repro.solve(spec), repro.solve(spec)
        assert a.best_objective == b.best_objective
        assert a.evaluations == b.evaluations

    def test_custom_selection_without_batch_twin_is_fine(self, ft06_problem):
        # the grid path never calls config.selection (mate choice is the
        # neighbourhood tournament), so a selection operator without a
        # batch twin must not block the cellular array substrate
        class NoTwinSelection:
            def __call__(self, population, k, rng):
                return [population[int(i)]
                        for i in rng.integers(0, len(population), size=k)]

        ga = CellularGA(ft06_problem, rows=3, cols=3,
                        config=GAConfig(substrate="array",
                                        selection=NoTwinSelection()),
                        termination=MaxGenerations(2), seed=1)
        assert ga.run().best_objective > 0

    def test_composite_genomes_still_gated(self):
        lots = repro.SolverSpec(instance="hfs-10x3x2-shaped",
                                encoding="lot-streaming", engine="cellular",
                                substrate="array",
                                termination={"max_generations": 2})
        with pytest.raises(repro.SpecError, match="composite"):
            repro.solve(lots)

    @pytest.mark.parametrize("seed", range(20))
    def test_hybrid_migration_breaks_ties_alike(self, seed):
        # rates 0: cells never change, so migration alone moves genomes,
        # and a 4-job flow shop leaves many tied worst cells
        problem = Problem(FlowShopPermutationEncoding(
            flow_shop(4, 2, seed=1)))
        grids = []
        for substrate in ("object", "array"):
            with path(substrate):
                ga = IslandOfCellularGA(
                    problem, n_islands=3, rows=3, cols=3,
                    config=GAConfig(substrate=substrate, crossover_rate=0.0,
                                    mutation_rate=0.0),
                    migration=MigrationPolicy(interval=1, rate=2),
                    termination=MaxGenerations(6), seed=seed)
            assert ga.substrate == substrate
            ga.run()
            grids.append([isl.population.to_arrays(problem)
                          for isl in ga.islands])
        for (obj_m, obj_o), (arr_m, arr_o) in zip(*grids):
            assert np.array_equal(obj_m, arr_m)
            assert np.array_equal(obj_o, arr_o)

    def test_cli_cellular_array_substrate(self, capsys):
        from repro.cli import main
        code = main(["solve", "ft06", "--engine", "cellular", "--substrate",
                     "array", "--generations", "3", "--population", "16"])
        assert code == 0
        assert "engine=cellular" in capsys.readouterr().out
