"""Lockstep island generations equal stepping every island on its own.

With the island tensor bound, ``IslandGA`` steps all islands together:
per-island draws on per-island RNGs, then one variation kernel call per
operator, one decode and a row-wise merge for the whole family
(:func:`repro.core.ga.lockstep`).  These tests pin that the result is
bit-identical to ``SimpleGA.step()`` on each island alone, and that the
fused path really makes one decode and one kernel call per generation.
"""

from dataclasses import replace

import numpy as np
import pytest

from scalar_reference import path
from repro import GAConfig, IslandGA, MaxGenerations, SimpleGA, SolverSpec
from repro.api.components import resolve_problem
from repro.core.rng import spawn_rngs
from repro.operators import (JobBasedCrossover, OrderCrossover,
                             PMXCrossover, SwapMutation,
                             register_batch_crossover,
                             register_batch_mutation)
from repro.operators import batch
from repro.parallel.migration import MigrationPolicy


def problem_for(instance):
    return resolve_problem(SolverSpec(instance=instance))


def assert_lockstep_matches_alone(problem, configs, interval, epochs,
                                  seed=3):
    """Run an independent-island GA epoch by epoch next to per-island
    ``SimpleGA.step()`` and compare after every epoch."""
    n = len(configs)
    island = IslandGA(problem, n_islands=n, config=configs,
                      migration=MigrationPolicy(interval=interval),
                      termination=MaxGenerations(interval * epochs),
                      seed=seed, cooperation=False)
    island.initialize()
    assert island._tensor is not None
    rngs = spawn_rngs(seed, n + 1)
    alone = [SimpleGA(problem, cfg, MaxGenerations(0), seed=rngs[i])
             for i, cfg in enumerate(configs)]
    for ga in alone:
        ga.initialize()
    for _ in range(epochs):
        island._advance_serial(interval)
        for ga in alone:
            for _ in range(interval):
                ga.step()
        for i, (isl, ga) in enumerate(zip(island.islands, alone)):
            assert np.array_equal(island._tensor[i], ga.arrays.matrix)
            assert np.array_equal(island._tensor_objectives[i],
                                  ga.arrays.objectives)
            assert isl.state.evaluations == ga.state.evaluations
            assert isl.state.generation == ga.state.generation
    return island


def array_config(**kwargs):
    kwargs.setdefault("population_size", 16)
    return GAConfig(substrate="array", **kwargs)


class TestLockstepEqualsAlone:
    @pytest.mark.parametrize("instance", ["ft10-shaped",
                                          "ta-fs-50x5-shaped",
                                          "hfs-10x3x2-shaped"])
    @pytest.mark.parametrize("interval", [1, 7])
    def test_default_operators(self, instance, interval):
        problem = problem_for(instance)
        assert_lockstep_matches_alone(problem, [array_config()] * 3,
                                      interval, epochs=2)

    def test_heterogeneous_crossovers(self):
        problem = problem_for("ta-fs-50x5-shaped")
        ox, pmx = OrderCrossover(), PMXCrossover()
        configs = [array_config(crossover=ox), array_config(crossover=pmx),
                   array_config(crossover=ox), array_config(crossover=pmx),
                   array_config(crossover=OrderCrossover())]
        assert_lockstep_matches_alone(problem, configs, 3, epochs=3)

    @pytest.mark.parametrize("overrides", [
        {"generation_gap": 0.5},
        {"immigration_rate": 0.1},
        {"immigration_rate": 1.0},
        {"n_elites": 0},
        {"crossover_rate": 1.0, "mutation_rate": 1.0},
        {"crossover_rate": 0.0, "mutation_rate": 0.0},
    ], ids=lambda o: ",".join(o))
    def test_rates_and_replacement(self, overrides):
        problem = problem_for("ft10-shaped")
        assert_lockstep_matches_alone(problem,
                                      [array_config(**overrides)] * 3,
                                      4, epochs=2)

    def test_islands_with_different_brood_sizes(self):
        """Islands that breed different counts merge in separate groups."""
        problem = problem_for("hfs-10x3x2-shaped")
        base = array_config()
        configs = [base, replace(base, generation_gap=0.5),
                   replace(base, immigration_rate=0.25, n_elites=0), base]
        assert_lockstep_matches_alone(problem, configs, 5, epochs=2)

    def test_one_shot_third_party_twins(self):
        """Twins registered without a draw/kernel split still fuse
        correctly: they run once per island, at their place in the
        island's RNG stream."""

        class FlipCrossover:
            def __call__(self, a, b, rng):
                return (b.copy(), a.copy()) if rng.random() < 0.5 \
                    else (a.copy(), b.copy())

        @register_batch_crossover(FlipCrossover)
        def _batch_flip(op, A, B, rng):
            flip = rng.random(A.shape[0]) < 0.5
            return (np.where(flip[:, None], B, A),
                    np.where(flip[:, None], A, B))

        class RollMutation:
            def __call__(self, genome, rng):
                return np.roll(genome, int(rng.integers(1, len(genome))))

        @register_batch_mutation(RollMutation)
        def _batch_roll(op, X, rng):
            shifts = rng.integers(1, X.shape[1], size=X.shape[0])
            return np.stack([np.roll(row, s) for row, s in zip(X, shifts)])

        problem = problem_for("ft10-shaped")
        configs = [array_config(crossover=FlipCrossover(),
                                mutation=RollMutation()),
                   array_config(crossover=FlipCrossover()),
                   array_config(mutation=RollMutation())]
        assert_lockstep_matches_alone(problem, configs, 3, epochs=2)

    def test_cooperating_run_is_repeatable_and_tensor_bound(self):
        problem = problem_for("ft10-shaped")
        runs = [IslandGA(problem, n_islands=4, config=array_config(),
                         migration=MigrationPolicy(interval=3),
                         termination=MaxGenerations(10), seed=9).run()
                for _ in range(2)]
        assert runs[0].extra["tensor_mode"]
        assert runs[0].generations == 10
        assert runs[0].best_objective == runs[1].best_objective
        assert np.array_equal(runs[0].best.genome, runs[1].best.genome)


class TestOneCallPerGeneration:
    def test_fused_decode_and_kernel_calls(self, monkeypatch):
        problem = problem_for("ft10-shaped")
        n_islands, pop, gens = 4, 12, 10
        decoded: list[int] = []
        batch_evaluator = problem.batch_evaluator

        def spying_batch_evaluator():
            evaluate = batch_evaluator()

            def spy(matrix):
                decoded.append(matrix.shape[0])
                return evaluate(matrix)
            return spy

        monkeypatch.setattr(problem, "batch_evaluator",
                            spying_batch_evaluator)
        kernel_calls = {"crossover": 0, "mutation": 0}

        def spy_on(registry, cls, stage):
            twin = registry[cls]

            def kernel(*args):
                kernel_calls[stage] += 1
                return twin.kernel(*args)
            monkeypatch.setitem(registry, cls,
                                batch.SplitTwin(twin.draw, kernel))

        spy_on(batch._BATCH_CROSSOVERS, JobBasedCrossover, "crossover")
        spy_on(batch._BATCH_MUTATIONS, SwapMutation, "mutation")
        cfg = array_config(population_size=pop, crossover_rate=1.0,
                           mutation_rate=1.0)
        ga = IslandGA(problem, n_islands=n_islands, config=cfg,
                      migration=MigrationPolicy(interval=3),
                      termination=MaxGenerations(gens), seed=4)
        ga.initialize()
        assert decoded == [pop] * n_islands  # initialisation: per island
        decoded.clear()
        for _ in range(gens):
            ga._advance_serial(1)
        assert decoded == [n_islands * pop] * gens
        assert kernel_calls == {"crossover": gens, "mutation": gens}


class TestEpochsNeverOverrun:
    @pytest.mark.parametrize("engine", ["island", "two-level", "hybrid"])
    @pytest.mark.parametrize("substrate", ["object", "array"])
    def test_generation_limit_is_exact(self, engine, substrate):
        """A limit that is no multiple of the migration interval ends the
        run on the limit, not on the next epoch boundary."""
        from repro import solve
        with path(substrate):
            report = solve(SolverSpec(
                instance="ft06", engine=engine, substrate=substrate,
                ga={"population_size": 40},
                termination={"max_generations": 12}, seed=1))
        assert report.extra["substrate"] == substrate
        assert report.generations == 12
