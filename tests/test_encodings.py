"""Tests for every chromosome representation (Section III.A)."""

import numpy as np
import pytest

from repro.encodings import (DispatchRuleEncoding, FlexibleJobShopEncoding,
                             FlowShopPermutationEncoding, GenomeKind,
                             HybridFlowShopEncoding, LotStreamingEncoding,
                             OpenShopPermutationEncoding,
                             OperationBasedEncoding, Problem,
                             RandomKeysFlowShopEncoding,
                             RandomKeysJobShopEncoding, keys_to_permutation)
from repro.instances import (flexible_flow_shop, flexible_job_shop,
                             flow_shop, get_instance, job_shop, open_shop)
from repro.operators.repair import is_permutation, is_repetition_of
from repro.scheduling import Makespan, TotalWeightedCompletion


class TestFlowShopPermutation:
    def test_random_genome_valid(self, small_flowshop, rng):
        enc = FlowShopPermutationEncoding(small_flowshop)
        assert is_permutation(enc.random_genome(rng))

    def test_decode_feasible(self, small_flowshop, rng):
        enc = FlowShopPermutationEncoding(small_flowshop)
        sched = enc.decode(enc.random_genome(rng))
        sched.audit(small_flowshop)

    def test_fast_paths_consistent(self, small_flowshop, rng):
        enc = FlowShopPermutationEncoding(small_flowshop)
        genomes = [enc.random_genome(rng) for _ in range(8)]
        batch = Problem(enc).evaluate_many(genomes)
        for g, expected in zip(genomes, batch):
            assert enc.fast_makespan(g) == pytest.approx(expected)
            assert enc.decode(g).makespan == pytest.approx(expected)


class TestOpenShopPermutation:
    def test_repetition_genome(self, small_openshop, rng):
        enc = OpenShopPermutationEncoding(small_openshop)
        g = enc.random_genome(rng)
        counts = np.full(small_openshop.n_jobs, small_openshop.n_machines)
        assert is_repetition_of(g, counts)

    def test_both_decoders(self, small_openshop, rng):
        for decoder in ("lpt_task", "lpt_machine"):
            enc = OpenShopPermutationEncoding(small_openshop, decoder)
            sched = enc.decode(enc.random_genome(rng))
            sched.audit(small_openshop)

    def test_invalid_decoder(self, small_openshop):
        with pytest.raises(ValueError):
            OpenShopPermutationEncoding(small_openshop, "xxx")


class TestOperationBased:
    @pytest.mark.parametrize("mode", ["semi_active", "active", "blocking",
                                      "graph"])
    def test_all_modes_feasible(self, mode, small_jobshop, rng):
        enc = OperationBasedEncoding(small_jobshop, mode=mode)
        g = enc.random_genome(rng)
        sched = enc.decode(g)
        sched.audit(small_jobshop)
        assert enc.fast_makespan(g) == pytest.approx(sched.makespan)

    def test_invalid_mode(self, small_jobshop):
        with pytest.raises(ValueError):
            OperationBasedEncoding(small_jobshop, mode="warp")

    def test_graph_mode_equals_semi_active(self, small_jobshop, rng):
        semi = OperationBasedEncoding(small_jobshop, mode="semi_active")
        graph = OperationBasedEncoding(small_jobshop, mode="graph")
        for _ in range(5):
            g = semi.random_genome(rng)
            assert graph.fast_makespan(g) == pytest.approx(
                semi.fast_makespan(g))

    def test_active_mode_not_worse_on_average(self, ft06, rng):
        semi = OperationBasedEncoding(ft06, mode="semi_active")
        act = OperationBasedEncoding(ft06, mode="active")
        gs = [semi.random_genome(rng) for _ in range(10)]
        assert np.mean([act.fast_makespan(g) for g in gs]) <= \
            np.mean([semi.fast_makespan(g) for g in gs])


class TestRandomKeys:
    def test_keys_to_permutation(self):
        assert np.array_equal(keys_to_permutation(np.array([0.3, 0.1, 0.9])),
                              [1, 0, 2])

    def test_flow_shop_keys_match_permutation_decode(self, small_flowshop,
                                                     rng):
        enc = RandomKeysFlowShopEncoding(small_flowshop)
        keys = enc.random_genome(rng)
        perm_enc = FlowShopPermutationEncoding(small_flowshop)
        assert enc.fast_makespan(keys) == pytest.approx(
            perm_enc.fast_makespan(enc.permutation(keys)))

    def test_batch(self, small_flowshop, rng):
        enc = RandomKeysFlowShopEncoding(small_flowshop)
        genomes = [enc.random_genome(rng) for _ in range(6)]
        batch = Problem(enc).evaluate_many(genomes)
        singles = [enc.fast_makespan(g) for g in genomes]
        assert np.allclose(batch, singles)

    def test_jobshop_keys_decode_feasible(self, small_jobshop, rng):
        enc = RandomKeysJobShopEncoding(small_jobshop)
        sched = enc.decode(enc.random_genome(rng))
        sched.audit(small_jobshop)


class TestDispatchRules:
    def test_genome_and_decode(self, small_jobshop, rng):
        enc = DispatchRuleEncoding(small_jobshop)
        g = enc.random_genome(rng)
        assert g.size == small_jobshop.total_operations
        sched = enc.decode(g)
        sched.audit(small_jobshop)

    def test_rule_names_wrap_modulo(self, small_jobshop):
        enc = DispatchRuleEncoding(small_jobshop, rules=("SPT", "LPT"))
        names = enc.rule_names(np.array([0, 1, 2, 3] * 100)[
            :small_jobshop.total_operations])
        assert set(names) <= {"SPT", "LPT"}

    def test_unknown_rule_rejected(self, small_jobshop):
        with pytest.raises(ValueError):
            DispatchRuleEncoding(small_jobshop, rules=("SPT", "???"))


class TestFlexibleEncodings:
    def test_fjsp_encoding(self, rng):
        inst = flexible_job_shop(3, 3, seed=41, stages=2)
        enc = FlexibleJobShopEncoding(inst)
        g = enc.random_genome(rng)
        assert isinstance(g, tuple) and len(g) == 2
        enc.decode(g).audit(inst)
        assert enc.assignment_domain_sizes().size == inst.total_operations

    def test_hfs_encoding_with_and_without_assignment(self, rng):
        inst = flexible_flow_shop(4, (2, 2), seed=42)
        for use in (True, False):
            enc = HybridFlowShopEncoding(inst, use_assignment=use)
            g = enc.random_genome(rng)
            enc.decode(g).audit(inst)

    def test_lot_streaming_encoding(self, rng):
        inst = flexible_flow_shop(4, (2, 1), seed=43)
        enc = LotStreamingEncoding(inst, sublots=3)
        g = enc.random_genome(rng)
        plan = enc.plan(g)
        assert all(f.size == 3 for f in plan.fractions)
        assert enc.fast_makespan(g) > 0

    def test_lot_streaming_validates_sublots(self):
        inst = flexible_flow_shop(4, (2, 1), seed=43)
        with pytest.raises(ValueError):
            LotStreamingEncoding(inst, sublots=0)


class TestProblem:
    def test_default_objective_is_makespan(self, ft06_problem):
        assert isinstance(ft06_problem.objective, Makespan)

    def test_evaluate_uses_fast_path(self, small_flowshop, rng):
        problem = Problem(FlowShopPermutationEncoding(small_flowshop))
        g = problem.random_genome(rng)
        assert problem.evaluate(g) == pytest.approx(
            problem.decode(g).makespan)

    def test_evaluate_many_batches(self, small_flowshop, rng):
        problem = Problem(FlowShopPermutationEncoding(small_flowshop))
        gs = [problem.random_genome(rng) for _ in range(5)]
        out = problem.evaluate_many(gs)
        assert out.shape == (5,)

    @pytest.mark.parametrize("make", [
        lambda: FlowShopPermutationEncoding(get_instance("ta-fs-20x5-shaped")),
        lambda: RandomKeysFlowShopEncoding(get_instance("ta-fs-20x5-shaped")),
        lambda: OperationBasedEncoding(get_instance("ft06")),
        lambda: RandomKeysJobShopEncoding(get_instance("ft06"))],
        ids=["flow-shop", "random-keys-flow-shop", "job-shop",
             "random-keys-job-shop"])
    def test_evaluate_many_of_nothing_is_empty(self, make):
        out = Problem(make()).evaluate_many([])
        assert out.dtype == np.float64 and out.shape == (0,)

    @pytest.mark.parametrize("case", ["flow-shop", "job-shop",
                                      "hfs-composite-eval-cost"])
    def test_matrix_list_and_loop_score_alike(self, case, rng):
        if case == "flow-shop":
            problem = Problem(FlowShopPermutationEncoding(
                get_instance("ta-fs-20x5-shaped")))
        elif case == "job-shop":
            problem = Problem(OperationBasedEncoding(get_instance("ft06")))
        else:
            # composite genomes with an eval cost: no batch decoder, so
            # matrix rows are un-stacked and scored one by one
            problem = Problem(HybridFlowShopEncoding(
                get_instance("hfs-10x3x2-shaped")), eval_cost=1e-6)
            assert problem.batch_evaluator() is None
        genomes = [problem.random_genome(rng) for _ in range(7)]
        matrix = problem.stack_genomes(genomes)
        assert matrix is not None and matrix.ndim == 2
        loop = np.array([problem.evaluate(g) for g in genomes])
        assert np.array_equal(problem.evaluate_many(matrix), loop)
        assert np.array_equal(problem.evaluate_batch(matrix), loop)
        assert np.array_equal(problem.evaluate_many(genomes), loop)

    def test_non_makespan_objective_decodes(self, small_flowshop, rng):
        problem = Problem(FlowShopPermutationEncoding(small_flowshop),
                          objective=TotalWeightedCompletion())
        g = problem.random_genome(rng)
        sched = problem.decode(g)
        assert problem.evaluate(g) == pytest.approx(
            TotalWeightedCompletion()(sched, small_flowshop))

    def test_objective_vector_scalar_fallback(self, ft06_problem, rng):
        g = ft06_problem.random_genome(rng)
        vec = ft06_problem.objective_vector(g)
        assert len(vec) == 1

    def test_eval_cost_burns_time(self, small_flowshop, rng):
        import time
        problem = Problem(FlowShopPermutationEncoding(small_flowshop),
                          eval_cost=0.01)
        g = problem.random_genome(rng)
        t0 = time.perf_counter()
        problem.evaluate(g)
        assert time.perf_counter() - t0 >= 0.009
