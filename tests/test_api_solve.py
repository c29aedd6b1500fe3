"""Tests for repro.solve(): the engine x substrate conformance sweep,
bit-identity, reports."""

import json

import numpy as np
import pytest

import repro
from repro import (GAConfig, IslandGA, MasterSlaveGA, MaxGenerations,
                   Problem, SimpleGA, SolverSpec, solve)
from repro.api import available_engines, available_substrates, engine_entry
from repro.api.engines import grid_shape_for
from repro.api.registry import SpecError
from repro.encodings import OperationBasedEncoding
from repro.exact import ortools_available
from repro.instances import get_instance
from repro.parallel import default_island_population


def _spec(engine, **kwargs):
    kwargs.setdefault("ga", {"population_size": 24})
    kwargs.setdefault("termination", {"max_generations": 4})
    kwargs.setdefault("seed", 11)
    return SolverSpec(instance="ft06", engine=engine, **kwargs)


#: Small per-engine parameters keeping the sweep fast; every registered
#: engine must have an entry here (the sweep asserts it), so a new engine
#: cannot land without joining the conformance matrix.
SWEEP_PARAMS = {
    "simple": {},
    "master-slave": {"backend": "serial"},
    "island": {"islands": 3},
    "cellular": {"rows": 4, "cols": 4},
    "hybrid": {"islands": 2, "rows": 3, "cols": 3, "migration_interval": 2},
    "two-level": {"islands": 2, "migration_interval": 2,
                  "broadcast_interval": 4},
    "exact": {},
    "cpsat": {},
    "neh": {},
    "johnson": {},
    "spt": {},
    "edd": {},
}


GA_ENGINES = ("simple", "master-slave", "island", "cellular", "hybrid",
              "two-level")


class TestEngineSubstrateSweep:
    """The whole engine x substrate matrix through one parameterised test.

    Replaces the ad-hoc per-engine smoke tests: every registered engine
    must solve end-to-end on *both* substrates, produce an auditable
    schedule, and hand back a resolved spec that round-trips through
    JSON and reproduces the run exactly.
    """

    @pytest.mark.parametrize("backend", ["numpy", "instrumented"])
    @pytest.mark.parametrize("substrate", available_substrates())
    @pytest.mark.parametrize("engine", available_engines())
    def test_engine_substrate_conformance(self, engine, substrate, backend):
        assert engine in SWEEP_PARAMS, (
            f"new engine {engine!r}: add it to the conformance sweep")
        if engine == "cpsat" and not ortools_available():
            pytest.skip("optional ortools dependency not installed")
        report = solve(_spec(engine, engine_params=SWEEP_PARAMS[engine],
                             substrate=substrate, backend=backend))
        assert report.engine == engine
        if backend == "instrumented":
            # the run is bit-identical to the numpy backend (the
            # instrumented namespace forwards to NumPy)
            baseline = solve(_spec(engine,
                                   engine_params=SWEEP_PARAMS[engine],
                                   substrate=substrate))
            assert report.best_objective == baseline.best_objective
            assert report.evaluations == baseline.evaluations
            assert report.to_dict()["best_genome"] == \
                baseline.to_dict()["best_genome"]
        assert report.best_objective > 0
        assert report.evaluations > 0
        assert report.generations > 0
        assert report.termination_reason
        assert set(report.timings) == {"resolve", "run", "total"}
        # the GA engines run the array path on a stackable input
        ran = "array" if engine in GA_ENGINES else substrate
        assert report.extra.get("substrate", "object") == ran
        # the best schedule decodes and passes the feasibility oracle
        schedule = report.schedule()
        schedule.audit(report.problem.instance)
        assert schedule.makespan == report.best_objective or \
            report.spec.objective != "makespan"
        # resolved spec round-trips through JSON and reproduces the run
        resolved = report.spec
        assert resolved.substrate == substrate
        again_spec = SolverSpec.from_json(resolved.to_json())
        assert again_spec == resolved
        assert solve(again_spec).best_objective == report.best_objective

    def test_registry_tags_match_engine_acceptance(self):
        """`array_substrate` tags must agree with what engines accept.

        Regression for the PR that removed the cellular engine's
        object-substrate-only ValueError: an engine tagged for the array
        substrate must actually run on it, and an untagged engine must be
        refused by spec validation -- the tag and the behaviour can never
        drift apart.
        """
        for engine in available_engines():
            spec = _spec(engine, engine_params=SWEEP_PARAMS.get(engine, {}),
                         substrate="array",
                         termination={"max_generations": 2})
            if engine_entry(engine).tags.get("array_substrate"):
                # validation must pass; the actual array run is already
                # exercised by test_engine_substrate_conformance above
                spec.validate()
            else:
                with pytest.raises(SpecError, match="object substrate"):
                    spec.validate()

    def test_all_shipped_engines_are_array_tagged(self):
        assert [e for e in available_engines()
                if not engine_entry(e).tags.get("array_substrate")] == []


class TestSolveSmoke:
    def test_solve_accepts_plain_dict(self):
        report = solve({"instance": "ft06",
                        "termination": {"max_generations": 2},
                        "ga": {"population_size": 8}})
        assert report.engine == "simple"

    def test_report_to_dict_is_json_serializable(self):
        report = solve(_spec("island"))
        payload = json.dumps(report.to_dict())
        back = json.loads(payload)
        assert back["best_objective"] == report.best_objective
        assert back["spec"]["engine"] == "island"
        # a report's spec alone reproduces the run
        again = solve(back["spec"])
        assert again.best_objective == report.best_objective

    def test_composite_genome_report_serializes(self):
        report = solve(SolverSpec(instance="fjsp-8x5-shaped",
                                  ga={"population_size": 10},
                                  termination={"max_generations": 2}))
        payload = json.loads(json.dumps(report.to_dict()))
        assert isinstance(payload["best_genome"], list)

    def test_history_attached(self):
        report = solve(_spec("simple"))
        assert report.history is not None
        assert report.history.final_best() == report.best_objective


class TestBitIdentity:
    """solve(spec) must equal direct engine construction, same seed."""

    def test_simple_engine_matches_direct_simple_ga(self):
        pop, gens, seed = 30, 6, 123
        direct = SimpleGA(
            Problem(OperationBasedEncoding(get_instance("ft06"))),
            GAConfig(population_size=pop),
            MaxGenerations(gens), seed=seed).run()
        report = solve(SolverSpec(instance="ft06",
                                  ga={"population_size": pop},
                                  termination={"max_generations": gens},
                                  seed=seed))
        assert report.best_objective == direct.best_objective
        assert report.evaluations == direct.evaluations
        assert report.generations == direct.generations
        np.testing.assert_array_equal(report.best_genome,
                                      direct.best.genome)

    def test_island_engine_matches_direct_island_ga(self):
        pop, gens, seed, n_isl = 32, 6, 9, 4
        direct = IslandGA(
            Problem(OperationBasedEncoding(get_instance("ft06"))),
            n_islands=n_isl,
            config=GAConfig(population_size=default_island_population(
                pop, n_isl)),
            termination=MaxGenerations(gens), seed=seed).run()
        report = solve(SolverSpec(instance="ft06", engine="island",
                                  ga={"population_size": pop},
                                  termination={"max_generations": gens},
                                  engine_params={"islands": n_isl},
                                  seed=seed))
        assert report.best_objective == direct.best_objective
        assert report.evaluations == direct.evaluations

    def test_master_slave_serial_backend_matches_simple(self):
        spec = _spec("simple")
        serial = solve(spec)
        ms = solve(spec.replace(engine="master-slave",
                                engine_params={"backend": "serial"}))
        assert ms.best_objective == serial.best_objective
        assert ms.evaluations == serial.evaluations

    def test_same_spec_same_result(self):
        spec = _spec("two-level", termination={"max_generations": 8})
        a, b = solve(spec), solve(spec)
        assert a.best_objective == b.best_objective
        assert a.evaluations == b.evaluations


class TestObjectivesAndInstances:
    def test_objective_by_name_changes_criterion(self):
        base = SolverSpec(instance="ta-fs-20x5-shaped",
                          ga={"population_size": 16},
                          termination={"max_generations": 3}, seed=5)
        makespan = solve(base)
        flow = solve(base.replace(objective="total-flow-time"))
        assert flow.spec.objective == "total-flow-time"
        # flow time sums over jobs, so it dominates the makespan scale
        assert flow.best_objective > makespan.best_objective

    def test_weighted_combination_objective(self):
        report = solve(SolverSpec(
            instance="ft06", objective="weighted",
            objective_params={"parts": [[0.7, "makespan"],
                                        [0.3, "total-flow-time"]]},
            ga={"population_size": 12},
            termination={"max_generations": 2}))
        assert len(report.objective_vector) == 2

    def test_due_tau_enables_tardiness_family(self):
        spec = SolverSpec(instance="ft06", objective="maximum-tardiness",
                          instance_params={"due_tau": 0.6},
                          ga={"population_size": 12},
                          termination={"max_generations": 3}, seed=2)
        report = solve(spec)
        # tau < 1 makes most jobs late: tardiness must be positive/finite
        assert 0 < report.best_objective < float("inf")

    def test_weights_instance_param(self):
        spec = SolverSpec(instance="ft06",
                          objective="total-weighted-completion",
                          instance_params={"weights": [2, 9]},
                          ga={"population_size": 12},
                          termination={"max_generations": 2}, seed=2)
        assert solve(spec).best_objective > 0

    def test_encoding_params_flow_through(self):
        report = solve(SolverSpec(
            instance="ft06", encoding="operation-based",
            encoding_params={"mode": "active"},
            ga={"population_size": 12},
            termination={"max_generations": 2}))
        assert report.spec.encoding_params == {"mode": "active"}

    def test_bad_encoding_param_value_is_spec_error(self):
        with pytest.raises(SpecError, match="encoding_params"):
            solve(SolverSpec(instance="ft06",
                             encoding="operation-based",
                             encoding_params={"mode": "sideways"},
                             termination={"max_generations": 1}))


class TestEngineHelpers:
    def test_default_island_population(self):
        assert default_island_population(60, 4) == 15
        assert default_island_population(8, 4) == 4   # floor kicks in
        assert default_island_population(3, 2) == 4
        with pytest.raises(ValueError):
            default_island_population(60, 0)

    def test_grid_shape_for(self):
        assert grid_shape_for(64, None, None) == (8, 8)
        assert grid_shape_for(60, None, None) == (7, 7)
        assert grid_shape_for(2, None, None) == (2, 2)   # floor
        assert grid_shape_for(100, 4, None) == (4, 4)    # mirror missing
        assert grid_shape_for(100, None, 5) == (5, 5)
        assert grid_shape_for(100, 3, 9) == (3, 9)
        with pytest.raises(SpecError):
            grid_shape_for(10, 0, 5)

    def test_termination_disjunction(self):
        # target fires long before the generation cap
        report = solve(SolverSpec(
            instance="ft06",
            ga={"population_size": 40},
            termination={"max_generations": 500, "target": 70.0},
            seed=4))
        assert report.best_objective <= 70.0
        assert report.generations < 500

    def test_package_level_exports(self):
        assert repro.solve is solve
        assert repro.SolverSpec is SolverSpec
        assert callable(repro.available_engines)
        # MasterSlaveGA still importable for programmatic use
        assert MasterSlaveGA is not None
