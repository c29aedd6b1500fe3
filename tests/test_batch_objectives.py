"""Batch completion-time engine: every Section-II objective, every class.

The batch objective layer promises that for each of the seven Section-II
criteria and each vectorised problem class (job shop, flow shop, flexible
job shop, open shop) the batch path -- ``batch_completion_*`` matrices
reduced by ``objective.batch`` -- is *bit-identical* to decoding each
chromosome into a :class:`Schedule` and applying the scalar objective.
These property-style tests enforce that promise on randomised instances,
due dates, weights and populations, plus the degenerate corners (empty
population, single job, zero durations, everything tardy) and the
dtype/shape contract of the empty-population early returns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GAConfig, MaxGenerations, Problem, SimpleGA
from repro.core.rng import make_rng, spawn_rngs
from repro.encodings import (FlexibleJobShopEncoding,
                             OpenShopPairSequenceEncoding,
                             OperationBasedEncoding)
from repro.encodings.base import CompletionObjectiveEvaluator
from repro.encodings.permutation import FlowShopPermutationEncoding
from repro.instances import flexible_job_shop, flow_shop, job_shop, open_shop
from repro.instances.generators import with_due_dates_twk, with_weights
from repro.parallel.executors import ProcessPoolEvaluator
from repro.scheduling import (FlowShopInstance, Makespan, MaximumTardiness,
                              TotalFlowTime, TotalWeightedCompletion,
                              TotalWeightedTardiness, TotalWeightedUnitPenalty,
                              WeightedCombination,
                              batch_completion_fjsp,
                              batch_completion_operation_sequence,
                              batch_completion_pair_sequence,
                              batch_completion_permutation,
                              batch_makespan_operation_sequence,
                              batch_makespan_permutation, batch_objective)


def all_objectives():
    return [Makespan(), TotalFlowTime(), TotalWeightedCompletion(),
            TotalWeightedTardiness(), TotalWeightedUnitPenalty(),
            MaximumTardiness(),
            WeightedCombination([(0.55, Makespan()),
                                 (0.25, TotalWeightedTardiness()),
                                 (0.2, TotalWeightedUnitPenalty())])]


def decorate(instance, rng):
    """Random due dates (some tight, some loose, some infinite) + weights."""
    n = instance.n_jobs
    tau = float(rng.uniform(0.3, 2.5))
    with_due_dates_twk(instance, tau=tau, seed=int(rng.integers(1, 10**6)))
    with_weights(instance, seed=int(rng.integers(1, 10**6)))
    inf_mask = rng.random(n) < 0.2
    instance.due = np.where(inf_mask, np.inf, instance.due)
    return instance


def assert_batch_matches_scalar(encoding, genomes, completion):
    """Every objective: batch reduction == per-genome scalar decode."""
    instance = encoding.instance
    schedules = [encoding.decode(g) for g in genomes]
    scalar_completion = np.stack([s.completion_times for s in schedules])
    assert completion.dtype == np.float64
    assert np.array_equal(completion, scalar_completion)
    for obj in all_objectives():
        batch_fn = batch_objective(obj)
        assert batch_fn is not None
        vec = batch_fn(completion, instance)
        scalar = np.array([obj(s, instance) for s in schedules])
        assert np.array_equal(vec, scalar), obj.name


# ---------------------------------------------------------------------------
# randomised equivalence per problem class
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 2))
def test_jobshop_all_objectives_randomised(seed):
    inst_rng, chrom_rng = spawn_rngs(seed, 2)
    n = int(inst_rng.integers(1, 8))
    m = int(inst_rng.integers(1, 6))
    instance = decorate(job_shop(n, m, seed=int(inst_rng.integers(1, 10**6))),
                        inst_rng)
    enc = OperationBasedEncoding(instance)
    genomes = [enc.random_genome(chrom_rng)
               for _ in range(int(chrom_rng.integers(1, 13)))]
    completion = batch_completion_operation_sequence(
        instance, np.stack(genomes), validate=True)
    assert_batch_matches_scalar(enc, genomes, completion)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 2))
def test_flowshop_all_objectives_randomised(seed):
    inst_rng, chrom_rng = spawn_rngs(seed, 2)
    n = int(inst_rng.integers(1, 11))
    m = int(inst_rng.integers(1, 7))
    instance = decorate(flow_shop(n, m, seed=int(inst_rng.integers(1, 10**6))),
                        inst_rng)
    instance.release = inst_rng.integers(0, 40, size=n).astype(float)
    enc = FlowShopPermutationEncoding(instance)
    genomes = [enc.random_genome(chrom_rng)
               for _ in range(int(chrom_rng.integers(1, 13)))]
    completion = batch_completion_permutation(instance, np.stack(genomes))
    assert_batch_matches_scalar(enc, genomes, completion)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 2))
def test_openshop_all_objectives_randomised(seed):
    inst_rng, chrom_rng = spawn_rngs(seed, 2)
    n = int(inst_rng.integers(1, 8))
    m = int(inst_rng.integers(1, 6))
    instance = decorate(open_shop(n, m, seed=int(inst_rng.integers(1, 10**6))),
                        inst_rng)
    enc = OpenShopPairSequenceEncoding(instance)
    genomes = [enc.random_genome(chrom_rng)
               for _ in range(int(chrom_rng.integers(1, 13)))]
    completion = batch_completion_pair_sequence(
        instance, np.stack(genomes), validate=True)
    assert_batch_matches_scalar(enc, genomes, completion)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 2))
def test_fjsp_all_objectives_randomised(seed):
    inst_rng, chrom_rng = spawn_rngs(seed, 2)
    n = int(inst_rng.integers(1, 6))
    m = int(inst_rng.integers(2, 5))
    instance = decorate(flexible_job_shop(
        n, m, seed=int(inst_rng.integers(1, 10**6)),
        flexibility=int(inst_rng.integers(1, 4)),
        setups=bool(inst_rng.integers(0, 2)),
        setup_attached=bool(inst_rng.integers(0, 2)),
        machine_release_hi=int(inst_rng.integers(0, 15)),
        time_lag_hi=int(inst_rng.integers(0, 8))), inst_rng)
    enc = FlexibleJobShopEncoding(instance)
    genomes = [enc.random_genome(chrom_rng)
               for _ in range(int(chrom_rng.integers(1, 10)))]
    matrix = enc.stack_genomes(genomes)
    completion = enc.batch_completion(matrix)
    assert_batch_matches_scalar(enc, genomes, completion)


# ---------------------------------------------------------------------------
# degenerate corners
# ---------------------------------------------------------------------------

def test_single_job_single_machine():
    instance = decorate(job_shop(1, 1, seed=4), make_rng(0))
    enc = OperationBasedEncoding(instance)
    genomes = [np.zeros(1, dtype=np.int64)]
    completion = batch_completion_operation_sequence(instance,
                                                     np.stack(genomes))
    assert completion.shape == (1, 1)
    assert_batch_matches_scalar(enc, genomes, completion)


def test_zero_durations():
    instance = FlowShopInstance(processing=np.zeros((4, 3)),
                                due=np.array([0.0, 1.0, np.inf, -0.0]),
                                weights=np.array([2.0, 0.0, 1.0, 3.0]))
    enc = FlowShopPermutationEncoding(instance)
    rng = make_rng(1)
    genomes = [enc.random_genome(rng) for _ in range(5)]
    completion = batch_completion_permutation(instance, np.stack(genomes))
    assert np.array_equal(completion, np.zeros((5, 4)))
    assert_batch_matches_scalar(enc, genomes, completion)


def test_all_jobs_tardy():
    instance = job_shop(5, 3, seed=9)
    instance.due = np.full(5, -1.0)        # every completion is late
    instance.weights = np.arange(1.0, 6.0)
    enc = OperationBasedEncoding(instance)
    rng = make_rng(2)
    genomes = [enc.random_genome(rng) for _ in range(6)]
    completion = batch_completion_operation_sequence(instance,
                                                     np.stack(genomes))
    unit = TotalWeightedUnitPenalty().batch(completion, instance)
    assert np.array_equal(unit, np.full(6, instance.weights.sum()))
    assert_batch_matches_scalar(enc, genomes, completion)


def test_empty_population_shapes_and_dtypes():
    """Satellite: empty early-returns carry explicit float64 + shape."""
    js = job_shop(4, 3, seed=2)
    fs = flow_shop(4, 3, seed=2)
    osh = open_shop(4, 3, seed=2)
    fj = flexible_job_shop(3, 3, seed=2)
    n_ops = fj.total_operations
    cases = [
        (batch_makespan_operation_sequence(
            js, np.empty((0, 12), dtype=np.int64)), (0,)),
        (batch_makespan_permutation(
            fs, np.empty((0, 4), dtype=np.int64)), (0,)),
        (batch_completion_operation_sequence(
            js, np.empty((0, 12), dtype=np.int64)), (0, 4)),
        (batch_completion_permutation(
            fs, np.empty((0, 4), dtype=np.int64)), (0, 4)),
        (batch_completion_pair_sequence(
            osh, np.empty((0, 12), dtype=np.int64)), (0, 4)),
        (batch_completion_fjsp(
            fj, np.empty((0, n_ops), dtype=np.int64),
            np.empty((0, n_ops), dtype=np.int64)), (0, 3)),
    ]
    for out, shape in cases:
        assert out.shape == shape
        assert out.dtype == np.float64
    # objective reductions accept the empty matrices
    for obj in all_objectives():
        vec = batch_objective(obj)(np.zeros((0, 4)), js)
        assert vec.shape == (0,) and vec.dtype == np.float64


def test_fjsp_validate_rejects_bad_sequence():
    fj = flexible_job_shop(3, 3, seed=5)
    n_ops = fj.total_operations
    rng = make_rng(3)
    assignment = np.zeros((1, n_ops), dtype=np.int64)
    bad = np.zeros((1, n_ops), dtype=np.int64)   # job 0 repeated n_ops times
    with pytest.raises(ValueError, match="rows \\[0\\]"):
        batch_completion_fjsp(fj, assignment, bad, validate=True)


def test_pair_sequence_validate_rejects_duplicates():
    osh = open_shop(3, 2, seed=5)
    dup = np.zeros((1, 6), dtype=np.int64)       # op 0 six times
    with pytest.raises(ValueError, match="rows \\[0\\]"):
        batch_completion_pair_sequence(osh, dup, validate=True)


def test_pair_sequence_two_operation_instance_layouts():
    # n_jobs * n_machines == 2 makes the (L, 2) pair layout and a (pop, 2)
    # op-id matrix the same shape; content must disambiguate both ways
    from repro.scheduling.openshop import decode_pair_sequence
    osh21 = open_shop(2, 1, seed=6)
    pairs = np.array([[0, 0], [1, 0]])           # one individual, as pairs
    out = batch_completion_pair_sequence(osh21, pairs, validate=True)
    expected = decode_pair_sequence(osh21, pairs).completion_times
    assert out.shape == (1, 2)
    assert np.array_equal(out[0], expected)
    op_ids = np.array([[0, 1], [1, 0]])          # two op-id chromosomes
    out = batch_completion_pair_sequence(osh21, op_ids, validate=True)
    assert out.shape == (2, 2)
    for row, ids in zip(out, op_ids):
        ref = decode_pair_sequence(
            osh21, np.column_stack([ids // 1, ids % 1])).completion_times
        assert np.array_equal(row, ref)


# ---------------------------------------------------------------------------
# wiring: discovery, engines, executors
# ---------------------------------------------------------------------------

def test_batch_evaluator_discovery_non_makespan():
    js = decorate(job_shop(5, 3, seed=7), make_rng(4))
    fj = decorate(flexible_job_shop(4, 3, seed=7), make_rng(5))
    osh = decorate(open_shop(4, 3, seed=7), make_rng(6))
    for enc in (OperationBasedEncoding(js), FlexibleJobShopEncoding(fj),
                OpenShopPairSequenceEncoding(osh)):
        for obj in all_objectives():
            ev = Problem(enc, obj).batch_evaluator()
            assert ev is not None, (type(enc).__name__, obj.name)
    # makespan keeps the direct fast path where one exists
    assert not isinstance(Problem(OperationBasedEncoding(js)).batch_evaluator(),
                          CompletionObjectiveEvaluator)
    assert isinstance(
        Problem(OperationBasedEncoding(js),
                TotalFlowTime()).batch_evaluator(),
        CompletionObjectiveEvaluator)
    # non-batchable pieces keep the scalar path authoritative
    assert Problem(OperationBasedEncoding(js, mode="active"),
                   TotalFlowTime()).batch_evaluator() is None
    assert Problem(OperationBasedEncoding(js), TotalFlowTime(),
                   eval_cost=1e-9).batch_evaluator() is None

    class NoBatchObjective:
        name = "opaque"

        def __call__(self, schedule, instance):
            return 0.0

    assert Problem(OperationBasedEncoding(js),
                   NoBatchObjective()).batch_evaluator() is None
    combo = WeightedCombination([(1.0, Makespan()),
                                 (1.0, NoBatchObjective())])
    assert not combo.supports_batch
    assert Problem(OperationBasedEncoding(js), combo).batch_evaluator() is None


def test_simple_ga_batch_path_fjsp_weighted_tardiness():
    instance = decorate(flexible_job_shop(5, 4, seed=11, setups=True),
                        make_rng(7))
    problem = Problem(FlexibleJobShopEncoding(instance),
                      TotalWeightedTardiness())
    cfg = GAConfig(population_size=16)
    batch_ga = SimpleGA(problem, cfg, MaxGenerations(5), seed=77)
    assert batch_ga.uses_batch_path
    scalar_ga = SimpleGA(
        problem, cfg, MaxGenerations(5), seed=77,
        evaluator=lambda matrix: np.array(
            [problem.evaluate(problem.unstack_row(row)) for row in matrix]))
    rb, rs = batch_ga.run(), scalar_ga.run()
    assert rb.best_objective == rs.best_objective
    assert [r.best for r in rb.history.records] == \
        [r.best for r in rs.history.records]


def test_process_pool_ships_fjsp_matrices():
    instance = decorate(flexible_job_shop(4, 3, seed=13), make_rng(8))
    problem = Problem(FlexibleJobShopEncoding(instance),
                      TotalWeightedTardiness())
    rng = make_rng(9)
    genomes = [problem.random_genome(rng) for _ in range(10)]
    scalar = np.array([problem.evaluate(g) for g in genomes])
    with ProcessPoolEvaluator(problem, n_workers=2) as ev:
        out = ev(genomes)
    assert np.array_equal(out, scalar)
    assert ev.stats.batch_calls == 1   # composite genomes shipped as matrix


def test_evaluate_batch_unstacks_composite_rows_without_batch_decoder():
    # eval_cost forces the per-genome path; stacked FJSP rows must be
    # split back into (assignment, sequence) tuples before evaluation
    instance = flexible_job_shop(4, 3, seed=17)
    problem = Problem(FlexibleJobShopEncoding(instance), eval_cost=1e-9)
    assert problem.batch_evaluator() is None
    rng = make_rng(10)
    genomes = [problem.random_genome(rng) for _ in range(4)]
    matrix = problem.stack_genomes(genomes)
    assert matrix is not None
    out = problem.evaluate_batch(matrix)
    scalar = np.array([problem.evaluate(g) for g in genomes])
    assert np.array_equal(out, scalar)


def test_fjsp_stack_rejects_malformed_genomes():
    enc = FlexibleJobShopEncoding(flexible_job_shop(3, 3, seed=19))
    n_ops = enc.instance.total_operations
    good = (np.zeros(n_ops, dtype=np.int64),
            np.repeat(np.arange(3, dtype=np.int64),
                      [enc.instance.stages_of(j) for j in range(3)]))
    assert enc.stack_genomes([good]) is not None
    assert enc.stack_genomes([]) is None
    assert enc.stack_genomes([np.zeros(n_ops, dtype=np.int64)]) is None
    assert enc.stack_genomes([(good[0], good[1][:-1])]) is None
    a, s = enc.unstack_row(enc.stack_genomes([good])[0])
    assert np.array_equal(a, good[0]) and np.array_equal(s, good[1])


def test_objective_vectors_batch_matches_scalar():
    instance = decorate(open_shop(5, 4, seed=23), make_rng(11))
    combo = WeightedCombination([(0.5, Makespan()),
                                 (0.5, MaximumTardiness())])
    problem = Problem(OpenShopPairSequenceEncoding(instance), combo)
    rng = make_rng(12)
    genomes = [problem.random_genome(rng) for _ in range(8)]
    batch = problem.objective_vectors(genomes)
    scalar = np.array([problem.objective_vector(g) for g in genomes])
    assert batch.shape == (8, 2)
    assert np.array_equal(batch, scalar)
    assert problem.objective_vectors([]).shape == (0, 2)
    # single-criterion objective: one column
    single = Problem(OpenShopPairSequenceEncoding(instance), Makespan())
    assert single.objective_vectors(genomes).shape == (8, 1)
    assert single.objective_vectors([]).shape == (0, 1)


def test_objective_vectors_multicriteria_without_batch_vector():
    # an objective exposing vector() but no batch_vector() must keep its
    # criteria count on both paths (per-genome fallback, never a 1-column
    # collapse through its scalar batch form)
    instance = decorate(job_shop(4, 3, seed=29), make_rng(13))

    class TwoCriteria:
        name = "two_criteria"
        n_criteria = 2

        def __call__(self, schedule, inst):
            return schedule.makespan

        def batch(self, completion, inst):
            return completion.max(axis=1)

        def vector(self, schedule, inst):
            return (schedule.makespan, float(schedule.completion_times.sum()))

    problem = Problem(OperationBasedEncoding(instance), TwoCriteria())
    rng = make_rng(14)
    genomes = [problem.random_genome(rng) for _ in range(3)]
    vectors = problem.objective_vectors(genomes)
    scalar = np.array([problem.objective_vector(g) for g in genomes])
    assert vectors.shape == (3, 2)
    assert np.array_equal(vectors, scalar)
    # empty input keeps the criteria count via n_criteria
    assert problem.objective_vectors([]).shape == (0, 2)
