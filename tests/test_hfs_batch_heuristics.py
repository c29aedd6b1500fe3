"""Hybrid-flow-shop batch decoder conformance + constructive heuristics.

Three suites:

* batch-vs-scalar bit-equality of ``batch_completion_hybrid_flowshop``
  against ``decode_hybrid_flowshop`` over randomised instances (setups
  on/off, unrelated machines on/off, both genome modes, FIFO tie cases),
* regressions for the scalar-path fixes (per-machine setup context,
  pinned-assignment duration computation, frozen placeholder part),
* property tests for the constructive heuristics (Johnson optimal on
  2-machine flow shops, NEH never worse than the best of many random
  orders, heuristic engines + GA seeding end-to-end).
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_reference import path
from repro import GAConfig, MaxGenerations, Problem, SimpleGA, SolverSpec, solve
from repro.encodings.assignment_sequence import HybridFlowShopEncoding
from repro.heuristics import (heuristic_genome, heuristic_order,
                              johnson_order, neh_order, spt_order)
from repro.instances import flexible_flow_shop
from repro.scheduling.batch import batch_completion_hybrid_flowshop
from repro.scheduling.flexible import decode_hybrid_flowshop
from repro.scheduling.flowshop import flowshop_makespan
from repro.scheduling.instance import FlexibleFlowShopInstance, FlowShopInstance


def _random_hfs(seed, *, setups, unrelated, one_machine_stage=False):
    """A small random HFS with real-valued, nonzero job release dates.

    ``one_machine_stage`` inserts a single-machine stage at a random
    position.  The instance class has no machine release dates: every
    stage starts idle at time 0.
    """
    gen = np.random.default_rng(seed)
    n_jobs = int(gen.integers(2, 8))
    stages = [int(k) for k in gen.integers(1, 4, size=gen.integers(1, 4))]
    if one_machine_stage:
        stages.insert(int(gen.integers(0, len(stages) + 1)), 1)
    inst = flexible_flow_shop(n_jobs, tuple(stages), seed=seed % 997 + 1,
                              lo=1, hi=9, setups=setups, unrelated=unrelated)
    return dataclasses.replace(inst, release=gen.random(n_jobs) * 13.7 + 0.1)


def _scalar_completions(instance, perm, assignment):
    sched = decode_hybrid_flowshop(instance, perm, assignment)
    return sched.completion_times


class TestBatchScalarBitEquality:
    """The decoder pair must agree to the last bit, not a tolerance."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 2),
           st.booleans(), st.booleans(), st.booleans(), st.booleans())
    def test_batch_matches_scalar_randomised(self, seed, setups, unrelated,
                                             use_assignment,
                                             one_machine_stage):
        inst = _random_hfs(seed, setups=setups, unrelated=unrelated,
                           one_machine_stage=one_machine_stage)
        assert np.all(inst.release > 0)
        gen = np.random.default_rng(seed + 1)
        pop = int(gen.integers(1, 9))
        perms = np.stack([gen.permutation(inst.n_jobs) for _ in range(pop)])
        assigns = None
        if use_assignment:
            assigns = np.stack([np.stack([
                gen.integers(0, k, size=inst.n_jobs)
                for k in inst.machines_per_stage], axis=1)
                for _ in range(pop)]).astype(np.int64)
        batch = batch_completion_hybrid_flowshop(inst, perms, assigns)
        for r in range(pop):
            scalar = _scalar_completions(
                inst, perms[r], None if assigns is None else assigns[r])
            np.testing.assert_array_equal(np.asarray(batch[r]), scalar)

    def test_fifo_ties_match_scalar(self):
        # uniform durations force ubiquitous finish-time ties: the batch
        # stage hand-off must re-order by the same stable argsort as the
        # scalar FIFO rule, or downstream stages diverge
        inst = FlexibleFlowShopInstance(
            processing=np.full((6, 3), 2.0), machines_per_stage=(2, 2, 2))
        gen = np.random.default_rng(5)
        perms = np.stack([gen.permutation(6) for _ in range(16)])
        batch = batch_completion_hybrid_flowshop(inst, perms)
        for r in range(16):
            np.testing.assert_array_equal(
                np.asarray(batch[r]), _scalar_completions(inst, perms[r], None))

    def test_validate_rejects_non_permutation(self):
        inst = flexible_flow_shop(4, (2, 2), seed=3)
        bad = np.array([[0, 1, 2, 2]])
        with pytest.raises(ValueError, match="not permutations"):
            batch_completion_hybrid_flowshop(inst, bad, validate=True)

    def test_single_row_and_empty(self):
        inst = flexible_flow_shop(4, (2, 2), seed=3)
        one = batch_completion_hybrid_flowshop(inst, np.arange(4))
        assert one.shape == (1, 4)
        empty = batch_completion_hybrid_flowshop(
            inst, np.empty((0, 4), dtype=np.int64))
        assert empty.shape == (0, 4)

    def test_encoding_batch_completion_both_modes(self):
        inst = flexible_flow_shop(5, (2, 2), seed=9, setups=True)
        for use_assignment in (True, False):
            enc = HybridFlowShopEncoding(inst, use_assignment=use_assignment)
            problem = Problem(enc)
            rng = np.random.default_rng(2)
            genomes = [enc.random_genome(rng) for _ in range(6)]
            matrix = problem.stack_genomes(genomes)
            batch = enc.batch_completion(matrix)
            for r, g in enumerate(genomes):
                np.testing.assert_array_equal(
                    np.asarray(batch[r]), enc.decode(g).completion_times)


class TestScalarPathFixes:
    """Regressions for the latent bugs the PR fixed in flexible.py."""

    def test_setup_uses_chosen_machines_own_predecessor(self):
        # 1 stage, 2 machines, 3 jobs.  After jobs 0 and 1 occupy the two
        # machines, job 2's setup row must depend on which machine it
        # lands on: the old code threw the per-machine context away.
        setup = np.zeros((4, 3))
        setup[1, 2] = 50.0   # after job 0 -> job 2: huge
        setup[2, 2] = 1.0    # after job 1 -> job 2: tiny
        inst = FlexibleFlowShopInstance(
            processing=np.array([[4.0], [2.0], [3.0]]),
            machines_per_stage=(2,), setup=[setup])
        sched = decode_hybrid_flowshop(inst, np.array([0, 1, 2]), None)
        ops = {op.job: op for op in sched.operations}
        # job 1 finishes first (t=2) so machine 1 is the earliest-finish
        # choice for job 2, paying the tiny after-job-1 setup
        assert ops[2].machine == ops[1].machine
        assert ops[2].start == pytest.approx(2.0 + 1.0)
        assert ops[2].end == pytest.approx(6.0)

    def test_initial_setup_row_zero_applies_from_idle(self):
        setup = np.zeros((3, 2))
        setup[0, 0] = 7.0  # idle -> job 0
        inst = FlexibleFlowShopInstance(
            processing=np.array([[2.0], [2.0]]),
            machines_per_stage=(1,), setup=[setup])
        sched = decode_hybrid_flowshop(inst, np.array([0, 1]), None)
        first = min(sched.operations, key=lambda op: op.start)
        assert first.job == 0 and first.start == pytest.approx(7.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 2))
    def test_pinned_assignment_matches_earliest_finish_on_single_machines(
            self, seed):
        # with one machine per stage, pinning assignment to machine 0 and
        # earliest-finish selection must produce identical schedules --
        # the pinned fast path cannot drift from the full candidate scan
        gen = np.random.default_rng(seed)
        inst = flexible_flow_shop(int(gen.integers(2, 7)), (1, 1, 1),
                                  seed=seed % 991 + 1, setups=bool(seed % 2))
        perm = gen.permutation(inst.n_jobs)
        pinned = np.zeros((inst.n_jobs, inst.n_stages), dtype=np.int64)
        a = decode_hybrid_flowshop(inst, perm, pinned)
        b = decode_hybrid_flowshop(inst, perm, None)
        np.testing.assert_array_equal(a.completion_times,
                                      b.completion_times)

    def test_frozen_part_untouched_by_variation(self):
        inst = flexible_flow_shop(6, (2, 2), seed=4)
        enc = HybridFlowShopEncoding(inst, use_assignment=False)
        problem = Problem(enc)
        config = GAConfig(population_size=8).resolved(problem)
        rng = np.random.default_rng(0)
        a, b = enc.random_genome(rng), enc.random_genome(rng)
        for _ in range(20):
            c1, c2 = config.crossover(a, b, rng)
            m1 = config.mutation(c1, rng)
            for child in (c1, c2, m1):
                assert np.all(np.asarray(child[0]) == 0), \
                    "variation touched the frozen placeholder part"
                assert sorted(np.asarray(child[1]).tolist()) == list(range(6))
            a, b = c1, m1

    def test_frozen_part_untouched_on_array_substrate(self):
        inst = flexible_flow_shop(6, (2, 2), seed=4)
        enc = HybridFlowShopEncoding(inst, use_assignment=False)
        problem = Problem(enc)
        ga = SimpleGA(problem, GAConfig(population_size=10,
                                        substrate="array"),
                      MaxGenerations(4), seed=1)
        result = ga.run()
        matrix = ga.arrays.matrix
        n, g = inst.n_jobs, inst.n_stages
        assert np.all(np.asarray(matrix)[:, :n * g] == 0)
        assert result.best.objective > 0


class TestConstructiveHeuristics:
    def test_johnson_optimal_on_two_machine_flow_shops(self):
        for seed in range(8):
            gen = np.random.default_rng(seed)
            p = gen.integers(1, 20, size=(6, 2)).astype(float)
            inst = FlowShopInstance(processing=p)
            best = min(flowshop_makespan(inst, np.asarray(perm))
                       for perm in itertools.permutations(range(6)))
            got = flowshop_makespan(inst, johnson_order(p))
            assert got == pytest.approx(best)

    def test_johnson_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="duration matrix"):
            johnson_order(np.ones((4, 3)))

    def test_spt_order_is_stable_sort_by_total(self):
        p = np.array([[3.0, 1.0], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0]])
        assert spt_order(p).tolist() == [1, 3, 0, 2]

    def test_neh_not_worse_than_random_best(self):
        inst = FlowShopInstance(processing=np.random.default_rng(12)
                                .integers(1, 50, size=(10, 5)).astype(float))
        neh_val = flowshop_makespan(inst, neh_order(inst.processing))
        gen = np.random.default_rng(0)
        random_best = min(
            flowshop_makespan(inst, gen.permutation(10)) for _ in range(50))
        assert neh_val <= random_best

    def test_heuristic_order_counts_neh_evaluations(self):
        problem = Problem(HybridFlowShopEncoding(
            flexible_flow_shop(5, (2, 2), seed=7)))
        order, n_evals = heuristic_order("neh", problem)
        assert sorted(order.tolist()) == list(range(5))
        assert n_evals == sum(range(1, 6))  # insertion scans: 1+2+3+4+5
        for rule in ("johnson", "spt", "edd"):
            _, zero = heuristic_order(rule, problem)
            assert zero == 0

    def test_unknown_heuristic_raises(self):
        problem = Problem(HybridFlowShopEncoding(
            flexible_flow_shop(4, (2,), seed=1)))
        with pytest.raises(ValueError, match="unknown heuristic"):
            heuristic_order("cds", problem)

    def test_genome_mapping_reproduces_order_makespan(self):
        # the HFS genome mapping records earliest-finish machine choices;
        # replaying them pinned must reproduce the identical schedule
        inst = flexible_flow_shop(7, (2, 3), seed=5, setups=True)
        problem = Problem(HybridFlowShopEncoding(inst))
        order, _ = heuristic_order("neh", problem)
        genome = heuristic_genome("neh", problem)
        direct = decode_hybrid_flowshop(inst, order, None)
        assert float(problem.evaluate(genome)) == direct.makespan


class TestHeuristicEnginesAndSeeding:
    def test_neh_engine_solves_hfs(self):
        report = solve(SolverSpec(instance="hfs-10x3x2-shaped", engine="neh",
                                  termination={"max_generations": 1}))
        assert report.engine == "neh"
        assert report.generations == 1
        assert report.extra["heuristic"] == "neh"
        sched = report.schedule()
        sched.audit(report.problem.encoding.instance)
        assert sched.makespan == report.best_objective

    def test_heuristic_engines_deterministic_across_seeds(self):
        for engine in ("johnson", "spt", "edd"):
            a = solve(SolverSpec(instance="hfs-10x3x2-shaped", engine=engine,
                                 termination={"max_generations": 1}, seed=1))
            b = solve(SolverSpec(instance="hfs-10x3x2-shaped", engine=engine,
                                 termination={"max_generations": 1}, seed=99))
            assert a.best_objective == b.best_objective
            assert a.to_dict()["best_genome"] == b.to_dict()["best_genome"]

    def test_neh_seeding_beats_random_init_on_paired_seeds(self):
        base = dict(instance="hfs-10x3x2-shaped",
                    ga={"population_size": 30},
                    termination={"max_generations": 15})
        wins = []
        for seed in range(4):
            random_init = solve(SolverSpec(**base, seed=seed))
            seeded = solve(SolverSpec(**dict(
                base, ga={"population_size": 30, "seeding": "neh"}),
                seed=seed))
            assert seeded.best_objective <= random_init.best_objective + 1e-9
            wins.append(seeded.best_objective < random_init.best_objective)
        assert any(wins), "NEH seeding never strictly improved the makespan"

    def test_seeding_works_on_array_substrate(self):
        spec = SolverSpec(instance="hfs-10x3x2-shaped", substrate="array",
                          ga={"population_size": 20, "seeding": "neh"},
                          termination={"max_generations": 5}, seed=3)
        neh_alone = solve(SolverSpec(instance="hfs-10x3x2-shaped",
                                     engine="neh",
                                     termination={"max_generations": 1}))
        report = solve(spec)
        assert report.best_objective <= neh_alone.best_objective

    def test_unknown_seeding_name_is_spec_error(self):
        from repro.api.registry import SpecError
        with pytest.raises(SpecError, match="seeding"):
            solve(SolverSpec(instance="ft06",
                             ga={"population_size": 8, "seeding": "cds"},
                             termination={"max_generations": 1}))

    def test_all_six_ga_engines_run_hfs_on_array_substrate(self):
        for engine, params in (("simple", {}),
                               ("master-slave", {"backend": "serial"}),
                               ("island", {"islands": 2}),
                               ("cellular", {"rows": 3, "cols": 3}),
                               ("hybrid", {"islands": 2, "rows": 3,
                                           "cols": 3}),
                               ("two-level", {"islands": 2})):
            report = solve(SolverSpec(
                instance="hfs-10x3x2-shaped", engine=engine,
                substrate="array", engine_params=params,
                ga={"population_size": 18},
                termination={"max_generations": 3}, seed=6))
            report.schedule().audit(report.problem.encoding.instance)
            assert report.extra.get("substrate") == "array"

    def test_all_six_ga_engines_run_fjsp_on_array_substrate(self):
        # the FJSP publishes part_spans, so its composite genome takes
        # the array substrate; machine choices stay in their domains
        for engine, params in (("simple", {}),
                               ("master-slave", {"backend": "serial"}),
                               ("island", {"islands": 2}),
                               ("cellular", {"rows": 3, "cols": 3}),
                               ("hybrid", {"islands": 2, "rows": 3,
                                           "cols": 3}),
                               ("two-level", {"islands": 2})):
            report = solve(SolverSpec(
                instance="fjsp-8x5-shaped", engine=engine,
                substrate="array", engine_params=params,
                ga={"population_size": 18},
                termination={"max_generations": 3}, seed=6))
            encoding = report.problem.encoding
            report.schedule().audit(encoding.instance)
            assert report.extra.get("substrate") == "array"
            assignment, _ = report.best_genome
            assert (assignment < encoding.assignment_domain_sizes()).all()

    @pytest.mark.parametrize("instance", ["hfs-10x3x2-shaped",
                                          "fjsp-8x5-shaped"])
    def test_repairing_crossover_on_assignment_part_is_refused(self,
                                                               instance):
        # the batch repair would rebuild parent A's multiset of machine
        # indices, moving them onto operations outside their domains
        from repro.encodings.assignment_sequence import (
            FlexibleJobShopEncoding)
        from repro.instances import get_instance
        from repro.operators import (CompositeCrossover, NPointCrossover,
                                     UniformCrossover)
        inst = get_instance(instance)
        encoding = (HybridFlowShopEncoding(inst) if instance.startswith("hfs")
                    else FlexibleJobShopEncoding(inst))
        problem = Problem(encoding)
        for part in (NPointCrossover(2), UniformCrossover()):
            cross = CompositeCrossover([part, None], encoding.part_spans)
            with pytest.raises(ValueError, match="assignment part"):
                SimpleGA(problem, GAConfig(substrate="array",
                                           crossover=cross),
                         MaxGenerations(2), seed=0)
        cross = CompositeCrossover([NPointCrossover(2, repair=False), None],
                                   encoding.part_spans)
        ga = SimpleGA(problem, GAConfig(population_size=20, substrate="array",
                                        crossover=cross, crossover_rate=1.0),
                      MaxGenerations(10), seed=0)
        ga.run()
        spans = encoding.part_spans
        domains = encoding.assignment_domain_sizes()
        genes = ga.arrays.matrix[:, :spans[0]]
        assert (genes < np.resize(domains, spans[0])).all()

    def test_composite_without_spans_or_part_twin_is_refused_up_front(self):
        # refused when the engine is built, not inside the first draw
        from repro.encodings.assignment_sequence import (
            FlexibleJobShopEncoding)
        from repro.instances import get_instance
        from repro.operators import (CompositeCrossover, CompositeMutation,
                                     LinearOrderCrossover, SwapMutation,
                                     UniformCrossover)
        encoding = FlexibleJobShopEncoding(get_instance("fjsp-8x5-shaped"))
        problem = Problem(encoding)
        spans = encoding.part_spans
        plain = UniformCrossover(repair=False)
        for kwargs, match in (
                ({"crossover": CompositeCrossover([plain, None])},
                 "no part spans"),
                ({"mutation": CompositeMutation([None, SwapMutation()])},
                 "no part spans"),
                ({"crossover": CompositeCrossover(
                    [plain, LinearOrderCrossover()], spans)},
                 "LinearOrderCrossover")):
            with pytest.raises(ValueError, match=match):
                SimpleGA(problem, GAConfig(substrate="array", **kwargs),
                         MaxGenerations(2), seed=0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fjsp_rate_zero_is_exact_across_substrates(self, seed):
        reports = []
        for substrate in ("object", "array"):
            with path(substrate):
                reports.append(solve(SolverSpec(
                    instance="fjsp-8x5-shaped", substrate=substrate,
                    seed=seed, ga={"population_size": 16,
                                   "crossover_rate": 0.0,
                                   "mutation_rate": 0.0,
                                   "immigration_rate": 0.25},
                    termination={"max_generations": 4})))
            assert reports[-1].extra["substrate"] == substrate
        assert reports[0].best_objective == reports[1].best_objective
        assert reports[0].evaluations == reports[1].evaluations
        for a, b in zip(*(r.best_genome for r in reports)):
            assert np.array_equal(a, b)
