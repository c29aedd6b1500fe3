"""Batch-evaluation engine: vectorised decoders vs the scalar references.

The batch decoders in ``repro.scheduling.batch`` promise *bit-identical*
objectives to the scalar decoders -- these tests enforce that promise on
randomised instances and chromosomes, plus the wiring: ``Problem``
discovery, ``SimpleGA`` batch preference, executor matrix shipping, and
the array-in/array-out fitness path.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GAConfig, MaxGenerations, Problem, SimpleGA
from repro.core.backend import active_namespace
from repro.core.fitness import (RankFitness, ReciprocalFitness,
                                apply_fitness, apply_fitness_array)
from repro.core.individual import Individual
from repro.core.rng import make_rng, spawn_rngs
from repro.encodings import (FlowShopPermutationEncoding,
                             OperationBasedEncoding,
                             RandomKeysFlowShopEncoding, stack_genomes)
from repro.instances import flow_shop, job_shop
from repro.parallel.executors import (ChunkedEvaluator, ProcessPoolEvaluator,
                                      SerialEvaluator)
from repro.scheduling import (batch_makespan_operation_sequence,
                              batch_makespan_permutation, flowshop_makespan,
                              operation_sequence_makespan, operation_stages)


def random_op_sequences(instance, pop, rng):
    base = np.repeat(np.arange(instance.n_jobs, dtype=np.int64),
                     instance.n_stages)
    return np.stack([rng.permutation(base) for _ in range(pop)])


# ---------------------------------------------------------------------------
# decoder equivalence (property-style over random instances + chromosomes)
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 2))
def test_jobshop_batch_matches_scalar_randomised(seed):
    inst_rng, chrom_rng = spawn_rngs(seed, 2)
    n = int(inst_rng.integers(2, 9))
    m = int(inst_rng.integers(2, 7))
    instance = job_shop(n, m, seed=int(inst_rng.integers(1, 10**6)))
    seqs = random_op_sequences(instance, pop=int(chrom_rng.integers(1, 17)),
                               rng=chrom_rng)
    batch = batch_makespan_operation_sequence(instance, seqs, validate=True)
    scalar = np.array([operation_sequence_makespan(instance, s)
                       for s in seqs])
    assert np.array_equal(batch, scalar)  # bit-identical, not just close


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 2))
def test_flowshop_batch_matches_scalar_randomised(seed):
    inst_rng, chrom_rng = spawn_rngs(seed, 2)
    n = int(inst_rng.integers(2, 13))
    m = int(inst_rng.integers(2, 9))
    instance = flow_shop(n, m, seed=int(inst_rng.integers(1, 10**6)))
    perms = np.stack([chrom_rng.permutation(n)
                      for _ in range(int(chrom_rng.integers(1, 17)))])
    batch = batch_makespan_permutation(instance, perms)
    scalar = np.array([flowshop_makespan(instance, p) for p in perms])
    assert np.array_equal(batch, scalar)


def test_jobshop_batch_with_release_times():
    rng = make_rng(5)
    instance = job_shop(6, 4, seed=9)
    instance.release = rng.integers(0, 50, size=6).astype(float)
    seqs = random_op_sequences(instance, 8, rng)
    batch = batch_makespan_operation_sequence(instance, seqs)
    scalar = np.array([operation_sequence_makespan(instance, s)
                       for s in seqs])
    assert np.array_equal(batch, scalar)


def test_operation_stages_counts_occurrences():
    instance = job_shop(3, 2, seed=1)
    seqs = np.array([[0, 1, 0, 2, 1, 2],
                     [2, 2, 1, 1, 0, 0]])
    stages = operation_stages(instance, seqs)
    assert stages.tolist() == [[0, 0, 1, 0, 1, 1],
                               [0, 1, 0, 1, 0, 1]]


def wide_key_stages(seqs, n_stages):
    """Stage indices from a stable argsort of the int64 genes."""
    order = np.argsort(seqs.astype(np.int64), axis=1, kind="stable")
    stages = np.empty(seqs.shape, dtype=np.int64)
    within = np.broadcast_to(np.arange(seqs.shape[1]) % n_stages, seqs.shape)
    np.put_along_axis(stages, order, within, axis=1)
    return stages


@pytest.fixture
def argsort_key_dtypes(monkeypatch):
    """Record the key dtype of every stable argsort the kernels run."""
    xp = active_namespace()
    argsort = xp.stable_argsort
    dtypes = []

    def spy(x, axis=-1):
        dtypes.append(x.dtype)
        return argsort(x, axis=axis)

    monkeypatch.setattr(xp, "stable_argsort", spy)
    return dtypes


@pytest.mark.parametrize("n_jobs,n_stages", [(1, 1), (3, 2), (10, 10),
                                             (20, 5), (50, 3)])
def test_operation_stages_narrow_keys_match_wide_keys(argsort_key_dtypes,
                                                      n_jobs, n_stages):
    instance = job_shop(n_jobs, n_stages, seed=n_jobs)
    seqs = random_op_sequences(instance, 25, make_rng(n_stages))
    stages = operation_stages(instance, seqs, validate=True)
    assert np.array_equal(stages, wide_key_stages(seqs, n_stages))
    assert argsort_key_dtypes == [np.int16]


def test_operation_stages_wide_path_beyond_int16(argsort_key_dtypes):
    # only n_jobs and n_stages are read; job ids past 2**15 would wrap in
    # int16, put the sort out of job order and fail validation
    n_jobs = 40000
    instance = SimpleNamespace(n_jobs=n_jobs, n_stages=1)
    rng = make_rng(3)
    seqs = np.stack([rng.permutation(n_jobs) for _ in range(2)])
    stages = operation_stages(instance, seqs, validate=True)
    assert argsort_key_dtypes == [np.int64]
    assert stages.dtype == np.int64
    assert np.array_equal(stages, wide_key_stages(seqs, 1))


def test_batch_jobshop_single_row_and_empty():
    instance = job_shop(4, 3, seed=2)
    rng = make_rng(0)
    seqs = random_op_sequences(instance, 1, rng)
    out = batch_makespan_operation_sequence(instance, seqs[0])  # 1-D input
    assert out.shape == (1,)
    assert out[0] == operation_sequence_makespan(instance, seqs[0])
    empty = batch_makespan_operation_sequence(
        instance, np.empty((0, 12), dtype=np.int64))
    assert empty.shape == (0,)


def test_batch_jobshop_validate_rejects_bad_multiset():
    instance = job_shop(3, 2, seed=3)
    bad = np.array([[0, 0, 0, 0, 1, 2],      # job 0 four times
                    [0, 0, 1, 1, 2, 2]])     # valid row
    with pytest.raises(ValueError, match="rows \\[0\\]"):
        batch_makespan_operation_sequence(instance, bad, validate=True)
    with pytest.raises(ValueError, match="columns"):
        batch_makespan_operation_sequence(instance, bad[:, :4])


def test_random_keys_batch_matches_scalar():
    instance = flow_shop(10, 4, seed=4)
    enc = RandomKeysFlowShopEncoding(instance)
    rng = make_rng(7)
    keys = np.stack([enc.random_genome(rng) for _ in range(12)])
    batch = enc.batch_makespan(keys)
    scalar = np.array([enc.fast_makespan(k) for k in keys])
    assert np.array_equal(batch, scalar)


# ---------------------------------------------------------------------------
# Problem discovery + genome stacking
# ---------------------------------------------------------------------------

def test_problem_batch_evaluator_discovery():
    js = job_shop(5, 3, seed=1)
    fs = flow_shop(5, 3, seed=1)
    assert Problem(OperationBasedEncoding(js)).batch_evaluator() is not None
    assert Problem(FlowShopPermutationEncoding(fs)).batch_evaluator() is not None
    # non-vectorisable decoding modes keep the scalar decoders authoritative
    assert Problem(
        OperationBasedEncoding(js, mode="active")).batch_evaluator() is None
    # artificial eval cost must run per genome (it models slow fitness)
    assert Problem(
        OperationBasedEncoding(js), eval_cost=1e-9).batch_evaluator() is None


def test_problem_evaluate_batch_matches_evaluate():
    instance = job_shop(6, 4, seed=11)
    problem = Problem(OperationBasedEncoding(instance))
    rng = make_rng(3)
    seqs = random_op_sequences(instance, 10, rng)
    batch = problem.evaluate_batch(seqs)
    scalar = np.array([problem.evaluate(s) for s in seqs])
    assert np.array_equal(batch, scalar)
    assert np.array_equal(problem.evaluate_many(list(seqs)), scalar)


def test_stack_genomes_shapes():
    a, b = np.arange(4), np.arange(4) + 1
    assert stack_genomes([a, b]).shape == (2, 4)
    matrix = np.zeros((3, 5))
    assert stack_genomes(matrix) is matrix
    assert stack_genomes([]) is None
    assert stack_genomes([a, np.arange(5)]) is None          # ragged
    assert stack_genomes([(a, b), (a, b)]) is None           # composite
    assert stack_genomes(np.zeros(4)) is None                # not a matrix


# ---------------------------------------------------------------------------
# executor equivalence
# ---------------------------------------------------------------------------

def test_serial_evaluator_matches_batch_path():
    instance = job_shop(6, 4, seed=21)
    problem = Problem(OperationBasedEncoding(instance))
    rng = make_rng(1)
    seqs = random_op_sequences(instance, 16, rng)
    ev = SerialEvaluator(problem)
    via_list = ev(list(seqs))
    via_matrix = ev(seqs)
    scalar = np.array([problem.evaluate(s) for s in seqs])
    assert np.array_equal(via_list, scalar)
    assert np.array_equal(via_matrix, scalar)
    assert ev.stats.batch_calls == 1 and ev.stats.calls == 2


def test_chunked_evaluator_batch_path():
    instance = flow_shop(8, 3, seed=2)
    problem = Problem(FlowShopPermutationEncoding(instance))
    rng = make_rng(2)
    perms = np.stack([rng.permutation(8) for _ in range(11)])
    ev = ChunkedEvaluator(SerialEvaluator(problem), batch_size=4)
    out = ev(perms)
    scalar = np.array([problem.evaluate(p) for p in perms])
    assert np.array_equal(out, scalar)


def test_process_pool_ships_matrices():
    instance = job_shop(5, 3, seed=31)
    problem = Problem(OperationBasedEncoding(instance))
    rng = make_rng(4)
    seqs = random_op_sequences(instance, 12, rng)
    scalar = np.array([problem.evaluate(s) for s in seqs])
    with ProcessPoolEvaluator(problem, n_workers=2) as ev:
        out_list = ev(list(seqs))       # stacks internally -> matrix path
        out_matrix = ev.evaluate_batch(seqs)
    assert np.array_equal(out_list, scalar)
    assert np.array_equal(out_matrix, scalar)
    assert ev.stats.batch_calls == 2
    assert ev.stats.bytes_shipped >= seqs.nbytes


# ---------------------------------------------------------------------------
# engine wiring: batch path on by default, bit-identical to scalar
# ---------------------------------------------------------------------------

def test_simple_ga_batch_path_bit_identical():
    instance = job_shop(6, 4, seed=41)
    problem = Problem(OperationBasedEncoding(instance))
    cfg = GAConfig(population_size=20)
    batch_ga = SimpleGA(problem, cfg, MaxGenerations(6), seed=99)
    assert batch_ga.uses_batch_path
    scalar_ga = SimpleGA(
        problem, cfg, MaxGenerations(6), seed=99,
        evaluator=lambda genomes: np.array(
            [problem.evaluate(g) for g in genomes]))
    rb, rs = batch_ga.run(), scalar_ga.run()
    assert rb.best_objective == rs.best_objective
    assert rb.evaluations == rs.evaluations
    assert [r.best for r in rb.history.records] == \
        [r.best for r in rs.history.records]


# ---------------------------------------------------------------------------
# fitness: array path + vectorised rank ties
# ---------------------------------------------------------------------------

def test_apply_fitness_array_matches_boxed_path():
    obj = np.array([30.0, 10.0, 20.0, 10.0])
    pop = [Individual(np.arange(3), objective=v) for v in obj]
    apply_fitness(pop, ReciprocalFitness())
    arr = apply_fitness_array(obj, ReciprocalFitness())
    assert np.array_equal(arr, [ind.fitness for ind in pop])


def test_apply_fitness_array_rejects_bad_shapes():
    with pytest.raises(ValueError, match="1-D"):
        apply_fitness_array(np.zeros((2, 2)), ReciprocalFitness())
    with pytest.raises(ValueError, match="shape"):
        apply_fitness_array(np.arange(3.0), lambda o: o[:2])


def _rank_fitness_reference(obj):
    """The original O(n*u) per-unique-value loop, kept as the oracle."""
    obj = np.asarray(obj, dtype=float)
    n = obj.size
    order = np.argsort(obj, kind="stable")
    ranks = np.empty(n, dtype=float)
    ranks[order] = np.arange(n, dtype=float)
    fitness = n - ranks
    for val in np.unique(obj):
        mask = obj == val
        if mask.sum() > 1:
            fitness[mask] = fitness[mask].mean()
    return fitness


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=8), min_size=1,
                max_size=40))
def test_rank_fitness_tie_averaging_identical(values):
    obj = np.asarray(values, dtype=float)
    assert np.array_equal(RankFitness()(obj), _rank_fitness_reference(obj))


def test_rank_fitness_nan_objectives_keep_own_rank():
    # NaN never compares equal, so NaNs are not a tie group: each keeps
    # the fitness of its own rank slot (the pre-vectorisation behaviour)
    obj = np.array([3.0, np.nan, 1.0, np.nan])
    assert np.array_equal(RankFitness()(obj), _rank_fitness_reference(obj))
    assert np.array_equal(RankFitness()(obj), np.array([3.0, 2.0, 4.0, 1.0]))


def test_rank_fitness_all_distinct_and_all_tied():
    assert np.array_equal(RankFitness()(np.array([3.0, 1.0, 2.0])),
                          np.array([1.0, 3.0, 2.0]))
    tied = RankFitness()(np.full(5, 7.0))
    assert np.array_equal(tied, np.full(5, 3.0))  # mean of 1..5
