"""Tests for flow/job/open shop decoders against the feasibility oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.extensions.fuzzy import (TFN, FuzzyFlowShopInstance,
                                    fuzzy_completion_population)
from repro.instances import FT06_OPTIMUM, flow_shop, get_instance, job_shop, open_shop
from repro.scheduling import (DISPATCH_RULES, FeasibilityError, Schedule,
                              decode_blocking, decode_job_repetition_lpt_machine,
                              decode_job_repetition_lpt_task,
                              decode_operation_sequence, decode_pair_sequence,
                              FlowShopInstance, flowshop_completion,
                              flowshop_completion_population,
                              flowshop_makespan,
                              flowshop_makespan_population, flowshop_schedule,
                              giffler_thompson, neh_heuristic,
                              operation_sequence_makespan,
                              priority_rule_schedule)
from repro.scheduling.flowshop import flowshop_completion_tensor


def random_op_sequence(instance, rng):
    seq = np.repeat(np.arange(instance.n_jobs), instance.n_stages)
    rng.shuffle(seq)
    return seq


class TestFlowShop:
    def test_single_job_single_machine(self):
        inst = flow_shop(1, 1, seed=1)
        assert flowshop_makespan(inst, np.array([0])) == inst.processing[0, 0]

    def test_completion_matrix_monotone(self, small_flowshop):
        c = flowshop_completion(small_flowshop, np.arange(6))
        assert np.all(np.diff(c, axis=0) > 0)   # later jobs finish later
        assert np.all(np.diff(c, axis=1) > 0)   # later machines finish later

    def test_known_two_by_two(self):
        from repro.scheduling import FlowShopInstance
        inst = FlowShopInstance(processing=np.array([[2.0, 3.0],
                                                     [4.0, 1.0]]))
        # order (0,1): C = 2,5 ; 6,7 -> makespan 7
        assert flowshop_makespan(inst, np.array([0, 1])) == 7.0
        # order (1,0): C = 4,5 ; 6,9 -> makespan 9
        assert flowshop_makespan(inst, np.array([1, 0])) == 9.0

    def test_release_times_respected(self):
        from repro.scheduling import FlowShopInstance
        inst = FlowShopInstance(processing=np.array([[1.0], [1.0]]),
                                release=np.array([0.0, 10.0]))
        sched = flowshop_schedule(inst, np.array([0, 1]))
        sched.audit(inst)
        assert sched.makespan == 11.0

    def test_batch_matches_scalar(self, small_flowshop, rng):
        perms = np.stack([rng.permutation(6) for _ in range(40)])
        batch = flowshop_makespan_population(small_flowshop, perms)
        scalar = [flowshop_makespan(small_flowshop, p) for p in perms]
        np.testing.assert_array_equal(batch, scalar)

    def test_batch_rejects_bad_shape(self, small_flowshop):
        with pytest.raises(ValueError):
            flowshop_makespan_population(small_flowshop, np.arange(6))

    def test_schedule_feasible_and_consistent(self, small_flowshop, rng):
        perm = rng.permutation(6)
        sched = flowshop_schedule(small_flowshop, perm)
        sched.audit(small_flowshop)
        assert sched.makespan == flowshop_makespan(small_flowshop, perm)

    def test_neh_beats_random_on_average(self):
        inst = flow_shop(12, 5, seed=3)
        rng = np.random.default_rng(0)
        neh = flowshop_makespan(inst, neh_heuristic(inst))
        random_mean = np.mean([
            flowshop_makespan(inst, rng.permutation(12)) for _ in range(30)])
        assert neh < random_mean
        assert neh >= inst.makespan_lower_bound()

    @given(st.integers(min_value=0, max_value=2**31 - 2))
    @settings(max_examples=15, deadline=None)
    def test_makespan_at_least_lower_bound(self, seed_offset):
        inst = flow_shop(5, 3, seed=7)
        rng = np.random.default_rng(seed_offset)
        perm = rng.permutation(5)
        assert flowshop_makespan(inst, perm) >= inst.makespan_lower_bound() - 1e-9


class TestFlowShopKernel:
    """The four population entry points of the anti-diagonal kernel agree
    bit for bit with the row-by-row scalar recurrences, on real-valued
    durations and release dates, for every shape from one job or one
    machine to an empty population."""

    @given(n=st.integers(1, 7), m=st.integers(1, 7), pop=st.integers(0, 4),
           seed=st.integers(0, 2**31 - 1))
    @example(n=1, m=1, pop=1, seed=0)
    @example(n=1, m=5, pop=3, seed=1)
    @example(n=6, m=1, pop=3, seed=2)
    @example(n=2, m=6, pop=2, seed=3)
    @example(n=7, m=3, pop=0, seed=4)
    @settings(max_examples=60, deadline=None)
    def test_entry_points_match_scalar_bit_for_bit(self, n, m, pop, seed):
        rng = np.random.default_rng(seed)
        inst = FlowShopInstance(processing=rng.random((n, m)) * 97.3,
                                release=rng.random(n) * 41.7)
        perms = np.array([rng.permutation(n) for _ in range(pop)],
                         dtype=np.int64).reshape(pop, n)
        scalar = [flowshop_completion(inst, perm) for perm in perms]
        makespan = flowshop_makespan_population(inst, perms)
        completion = flowshop_completion_population(inst, perms)
        tensor = flowshop_completion_tensor(inst, perms)
        assert makespan.shape == (pop,)
        assert completion.shape == (pop, n)
        assert tensor.shape == (pop, n, m)
        for row, (perm, c) in enumerate(zip(perms, scalar)):
            assert makespan[row] == c[-1, -1]
            np.testing.assert_array_equal(completion[row, perm], c[:, -1])
            np.testing.assert_array_equal(tensor[row], c)

        lo = rng.random((n, m)) * 50.1
        mid = lo + rng.random((n, m)) * 10.3
        hi = mid + rng.random((n, m)) * 10.7
        fuzzy = FuzzyFlowShopInstance(
            [[TFN(lo[j, k], mid[j, k], hi[j, k]) for k in range(m)]
             for j in range(n)], [TFN(0.0, 1.0, 2.0)] * n)
        tfn = fuzzy_completion_population(fuzzy, perms)
        assert tfn.shape == (pop, n, 3)
        for row, perm in enumerate(perms):
            expected = [[t.a, t.b, t.c]
                        for t in fuzzy.completion_times(perm)]
            np.testing.assert_array_equal(tfn[row], expected)


class TestJobShopSemiActive:
    def test_ft06_feasible(self, ft06, rng):
        seq = random_op_sequence(ft06, rng)
        sched = decode_operation_sequence(ft06, seq, validate=True)
        sched.audit(ft06)
        assert sched.makespan >= FT06_OPTIMUM

    def test_fast_path_matches_schedule(self, ft06, rng):
        for _ in range(10):
            seq = random_op_sequence(ft06, rng)
            assert operation_sequence_makespan(ft06, seq) == \
                decode_operation_sequence(ft06, seq).makespan

    def test_validation_rejects_bad_multiset(self, ft06):
        bad = np.zeros(36, dtype=np.int64)
        with pytest.raises(ValueError):
            decode_operation_sequence(ft06, bad, validate=True)

    def test_release_respected(self, small_jobshop, rng):
        small_jobshop.release = np.array([50.0, 0.0, 0.0, 0.0, 0.0])
        seq = random_op_sequence(small_jobshop, rng)
        sched = decode_operation_sequence(small_jobshop, seq)
        sched.audit(small_jobshop)
        job0 = [op for op in sched.operations if op.job == 0]
        assert min(op.start for op in job0) >= 50.0


class TestGifflerThompson:
    def test_produces_feasible_schedule(self, ft06, rng):
        prio = rng.random(36)
        sched = giffler_thompson(ft06, prio)
        sched.audit(ft06)
        assert len(sched.operations) == 36

    def test_active_schedules_at_least_as_good_on_average(self, ft06, rng):
        """G&T active schedules dominate semi-active ones on average."""
        semis, actives = [], []
        for _ in range(12):
            seq = random_op_sequence(ft06, rng)
            semis.append(operation_sequence_makespan(ft06, seq))
            actives.append(giffler_thompson(ft06, rng.random(36)).makespan)
        assert np.mean(actives) <= np.mean(semis)

    def test_callable_priority(self, ft06):
        sched = giffler_thompson(ft06, lambda j, s: j * 10 + s)
        sched.audit(ft06)


class TestBlockingJobShop:
    def test_feasible_as_ordinary_schedule(self, small_jobshop, rng):
        seq = random_op_sequence(small_jobshop, rng)
        sched = decode_blocking(small_jobshop, seq)
        sched.audit(small_jobshop)

    def test_blocking_never_faster_than_unconstrained(self, rng):
        inst = job_shop(5, 4, seed=9, blocking=True)
        for _ in range(10):
            seq = random_op_sequence(inst, rng)
            blocked = decode_blocking(inst, seq).makespan
            free = operation_sequence_makespan(inst, seq)
            assert blocked >= free - 1e-9

    def test_machine_blocked_until_successor_starts(self):
        """Two jobs crossing one machine: job 0 blocks m0 until m1 frees."""
        from repro.scheduling import JobShopInstance
        inst = JobShopInstance(routing=np.array([[0, 1], [0, 1]]),
                               processing=np.array([[1.0, 10.0],
                                                    [1.0, 1.0]]),
                               blocking=True)
        # schedule: j0 on m0, j0 on m1, j1 on m0, j1 on m1
        sched = decode_blocking(inst, np.array([0, 0, 1, 1]))
        ops = {(op.job, op.stage): op for op in sched.operations}
        # job 1 cannot start on m0 before job 0 left it (start of j0 stage 1)
        assert ops[(1, 0)].start >= ops[(0, 1)].start


class TestDispatchRules:
    def test_all_rules_known(self):
        assert set(DISPATCH_RULES) == {"SPT", "LPT", "MWR", "LWR", "FIFO",
                                       "EDD"}

    def test_feasible_for_each_rule(self, small_jobshop):
        n = small_jobshop.total_operations
        for rule in DISPATCH_RULES:
            sched = priority_rule_schedule(small_jobshop, [rule] * n)
            sched.audit(small_jobshop)
            assert len(sched.operations) == n

    def test_rejects_wrong_length(self, small_jobshop):
        with pytest.raises(ValueError):
            priority_rule_schedule(small_jobshop, ["SPT"])

    def test_rejects_unknown_rule(self, small_jobshop):
        n = small_jobshop.total_operations
        with pytest.raises(ValueError):
            priority_rule_schedule(small_jobshop, ["XXX"] * n)


class TestOpenShopDecoders:
    def _seq(self, inst, rng):
        seq = np.repeat(np.arange(inst.n_jobs), inst.n_machines)
        rng.shuffle(seq)
        return seq

    def test_lpt_task_feasible(self, small_openshop, rng):
        sched = decode_job_repetition_lpt_task(small_openshop,
                                               self._seq(small_openshop, rng))
        sched.audit(small_openshop)
        assert len(sched.operations) == small_openshop.total_operations

    def test_lpt_machine_feasible(self, small_openshop, rng):
        sched = decode_job_repetition_lpt_machine(
            small_openshop, self._seq(small_openshop, rng))
        sched.audit(small_openshop)

    def test_each_job_visits_every_machine_once(self, small_openshop, rng):
        sched = decode_job_repetition_lpt_task(small_openshop,
                                               self._seq(small_openshop, rng))
        for j, ops in enumerate(sched.job_sequences()):
            machines = sorted(op.machine for op in ops)
            assert machines == list(range(small_openshop.n_machines))

    def test_lpt_task_picks_longest_first(self):
        from repro.scheduling import OpenShopInstance
        inst = OpenShopInstance(processing=np.array([[1.0, 9.0, 3.0]]))
        sched = decode_job_repetition_lpt_task(inst, np.array([0, 0, 0]))
        first = min(sched.operations, key=lambda op: op.start)
        assert first.machine == 1  # the 9.0 task

    def test_overfull_sequence_rejected(self, small_openshop):
        bad = np.zeros(small_openshop.total_operations, dtype=np.int64)
        with pytest.raises(ValueError):
            decode_job_repetition_lpt_task(small_openshop, bad)

    def test_pair_sequence_roundtrip(self, small_openshop, rng):
        pairs = np.array([(j, m) for j in range(small_openshop.n_jobs)
                          for m in range(small_openshop.n_machines)])
        rng.shuffle(pairs)
        sched = decode_pair_sequence(small_openshop, pairs)
        sched.audit(small_openshop)

    def test_pair_sequence_rejects_duplicates(self, small_openshop):
        n = small_openshop.total_operations
        pairs = np.zeros((n, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            decode_pair_sequence(small_openshop, pairs)

    def test_makespan_at_least_lower_bound(self, small_openshop, rng):
        for _ in range(5):
            seq = self._seq(small_openshop, rng)
            cmax = decode_job_repetition_lpt_task(small_openshop, seq).makespan
            assert cmax >= small_openshop.makespan_lower_bound() - 1e-9
