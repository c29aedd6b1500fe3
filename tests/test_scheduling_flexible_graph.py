"""Tests for flexible-shop decoders and the disjunctive graph."""

import sys

import numpy as np
import pytest

from repro.instances import (flexible_flow_shop, flexible_job_shop, job_shop)
from repro.scheduling import (CyclicSelectionError, DisjunctiveGraph,
                              JobShopInstance, LotStreamingPlan, decode_fjsp,
                              decode_hybrid_flowshop, decode_lot_streaming,
                              decode_operation_sequence, fjsp_random_genome,
                              operation_sequence_makespan)


@pytest.fixture
def fjsp():
    return flexible_job_shop(4, 3, seed=21, stages=3, flexibility=2)


@pytest.fixture
def hfs():
    return flexible_flow_shop(5, (2, 1, 2), seed=22)


class TestFJSPDecode:
    def test_feasible(self, fjsp, rng):
        assign, seq = fjsp_random_genome(fjsp, rng)
        sched = decode_fjsp(fjsp, assign, seq, validate=True)
        sched.audit(fjsp)
        assert len(sched.operations) == fjsp.total_operations

    def test_validate_rejects_bad_genome(self, fjsp):
        with pytest.raises(ValueError):
            decode_fjsp(fjsp, np.zeros(3), np.zeros(3, dtype=np.int64),
                        validate=True)

    def test_assignment_changes_schedule(self, fjsp, rng):
        assign, seq = fjsp_random_genome(fjsp, rng)
        a2 = (assign + 1)
        m1 = decode_fjsp(fjsp, assign, seq).makespan
        m2 = decode_fjsp(fjsp, a2, seq).makespan
        # schedules decode fine either way; often different makespans
        assert m1 > 0 and m2 > 0

    def test_setups_extend_makespan(self, rng):
        no_setup = flexible_job_shop(4, 3, seed=5, stages=3, setups=False)
        with_setup = flexible_job_shop(4, 3, seed=5, stages=3, setups=True,
                                       setup_hi=30)
        assign, seq = fjsp_random_genome(no_setup, rng)
        m_plain = decode_fjsp(no_setup, assign, seq).makespan
        m_setup = decode_fjsp(with_setup, assign, seq).makespan
        assert m_setup > m_plain

    def test_detached_setup_no_slower_than_attached(self, rng):
        att = flexible_job_shop(4, 3, seed=6, stages=3, setups=True,
                                setup_attached=True)
        det = flexible_job_shop(4, 3, seed=6, stages=3, setups=True,
                                setup_attached=False)
        assign, seq = fjsp_random_genome(att, rng)
        m_att = decode_fjsp(att, assign, seq).makespan
        m_det = decode_fjsp(det, assign, seq).makespan
        assert m_det <= m_att + 1e-9

    def test_machine_release_dates_respected(self, rng):
        inst = flexible_job_shop(3, 2, seed=7, stages=2,
                                 machine_release_hi=40)
        assign, seq = fjsp_random_genome(inst, rng)
        sched = decode_fjsp(inst, assign, seq)
        for op in sched.operations:
            assert op.start >= inst.machine_release[op.machine] - 1e-9

    def test_time_lags_respected(self, rng):
        inst = flexible_job_shop(3, 2, seed=8, stages=2, time_lag_hi=25)
        assign, seq = fjsp_random_genome(inst, rng)
        sched = decode_fjsp(inst, assign, seq)
        for j, ops in enumerate(sched.job_sequences()):
            for a, b in zip(ops, ops[1:]):
                assert b.start >= a.end + inst.lag(j, a.stage) - 1e-9


class TestHybridFlowShop:
    def test_feasible_without_assignment(self, hfs, rng):
        sched = decode_hybrid_flowshop(hfs, rng.permutation(5))
        sched.audit(hfs)
        assert len(sched.operations) == hfs.total_operations

    def test_machines_stay_in_stage_blocks(self, hfs, rng):
        sched = decode_hybrid_flowshop(hfs, rng.permutation(5))
        base = np.concatenate([[0], np.cumsum(hfs.machines_per_stage)])
        for op in sched.operations:
            assert base[op.stage] <= op.machine < base[op.stage + 1]

    def test_assignment_chromosome_respected(self, hfs, rng):
        assign = np.zeros((5, 3), dtype=np.int64)  # always local machine 0
        sched = decode_hybrid_flowshop(hfs, rng.permutation(5), assign)
        base = np.concatenate([[0], np.cumsum(hfs.machines_per_stage)])
        for op in sched.operations:
            assert op.machine == base[op.stage]

    def test_more_parallel_machines_never_hurt(self, rng):
        narrow = flexible_flow_shop(6, (1, 1), seed=30)
        wide = flexible_flow_shop(6, (3, 3), seed=30)
        perm = rng.permutation(6)
        assert (decode_hybrid_flowshop(wide, perm).makespan
                <= decode_hybrid_flowshop(narrow, perm).makespan + 1e-9)

    def test_unrelated_machines_used(self, rng):
        inst = flexible_flow_shop(4, (2, 2), seed=31, unrelated=True)
        sched = decode_hybrid_flowshop(inst, rng.permutation(4))
        sched.audit(inst)


class TestLotStreaming:
    def test_plan_normalises(self):
        plan = LotStreamingPlan([np.array([2.0, 2.0])])
        assert np.allclose(plan.fractions[0], [0.5, 0.5])

    def test_plan_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LotStreamingPlan([np.array([1.0, 0.0])])

    def test_equal_plan(self):
        plan = LotStreamingPlan.equal(3, 4)
        assert len(plan.fractions) == 3
        assert np.allclose(plan.fractions[0], 0.25)

    def test_from_genome_shapes(self):
        plan = LotStreamingPlan.from_genome(np.ones(6), n_jobs=3, sublots=2)
        assert len(plan.fractions) == 3

    def test_lot_streaming_reduces_or_matches_makespan(self, hfs, rng):
        """Splitting lots can only help a permutation schedule."""
        perm = rng.permutation(5)
        single = decode_lot_streaming(hfs, perm, LotStreamingPlan.equal(5, 1))
        split = decode_lot_streaming(hfs, perm, LotStreamingPlan.equal(5, 3))
        assert split.makespan <= single.makespan + 1e-9

    def test_sublots_keep_stage_order(self, hfs, rng):
        perm = rng.permutation(5)
        sched = decode_lot_streaming(hfs, perm, LotStreamingPlan.equal(5, 2))
        # per (job, stage) there are exactly 2 operations (the sublots)
        from collections import Counter
        counts = Counter((op.job, op.stage) for op in sched.operations)
        assert set(counts.values()) == {2}

    def test_machine_capacity_respected(self, hfs, rng):
        sched = decode_lot_streaming(hfs, rng.permutation(5),
                                     LotStreamingPlan.equal(5, 2))
        for seq in sched.machine_sequences():
            for a, b in zip(seq, seq[1:]):
                assert b.start >= a.end - 1e-9


class TestDisjunctiveGraph:
    def _instance(self):
        return job_shop(4, 3, seed=77)

    def test_graph_makespan_matches_semi_active(self, rng):
        """Longest-path evaluation == greedy decode for the same sequence."""
        inst = self._instance()
        dg = DisjunctiveGraph(inst)
        for _ in range(8):
            seq = np.repeat(np.arange(4), 3)
            rng.shuffle(seq)
            assert dg.makespan_of_sequence(seq) == pytest.approx(
                operation_sequence_makespan(inst, seq))

    def test_schedule_of_sequence_feasible(self, rng):
        inst = self._instance()
        dg = DisjunctiveGraph(inst)
        seq = np.repeat(np.arange(4), 3)
        rng.shuffle(seq)
        dg.schedule_of_sequence(seq).audit(inst)

    def test_cycle_detection(self, monkeypatch):
        """A selection against the job order is cyclic -- found by the
        list-based sort, which needs no networkx."""
        monkeypatch.setitem(sys.modules, "networkx", None)
        # job 0 visits machines 0 then 1, job 1 visits 1 then 0
        inst = JobShopInstance(name="crossed",
                               routing=np.array([[0, 1], [1, 0]]),
                               processing=np.ones((2, 2)))
        dg = DisjunctiveGraph(inst)
        # (0,0) -> (0,1) -> (1,0) -> (1,1) -> (0,0)
        cyclic = [[dg.op_id(1, 1), dg.op_id(0, 0)],
                  [dg.op_id(0, 1), dg.op_id(1, 0)]]
        with pytest.raises(CyclicSelectionError):
            dg.topological_order(cyclic)
        with pytest.raises(CyclicSelectionError):
            dg.critical_path(cyclic)
        feasible = [[dg.op_id(0, 0), dg.op_id(1, 1)],
                    [dg.op_id(1, 0), dg.op_id(0, 1)]]
        assert len(dg.topological_order(feasible)) == dg.n_ops + 2
        assert dg.longest_path_start_times(feasible)[1] == 2.0

    def test_critical_path_nonempty_and_connected(self, rng):
        inst = self._instance()
        dg = DisjunctiveGraph(inst)
        seq = np.repeat(np.arange(4), 3)
        rng.shuffle(seq)
        selection = dg.selection_from_sequence(seq)
        path = dg.critical_path(selection)
        assert path, "critical path must contain at least one operation"
        _, cmax = dg.longest_path_start_times(selection)
        # path durations sum to the makespan
        total = sum(dg.duration(op) for op in path)
        assert total == pytest.approx(cmax)
