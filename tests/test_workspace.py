"""The generation loop reuses its buffers, safely.

Decoders, crossover kernels, the elitist merge and the cellular step
take their large temporaries from reused buffers
(:mod:`repro.core.workspace`): thread-local scratch for what never
leaves a call, the :class:`~repro.core.substrate.ArrayState`'s own
workspace for a generation's brood.  These tests pin both halves of
that bargain: a generation no longer faults its temporaries in from the
OS, and reuse never leaks between calls, row counts or threads.
"""

import resource
import sys
import threading

import numpy as np
import pytest

import scalar_reference
from repro import GAConfig, MaxGenerations, Problem, SolverSpec
from repro.api.components import resolve_problem
from repro.core.ga import SimpleGA
from repro.core.workspace import Workspace, scratch
from repro.encodings import OperationBasedEncoding
from repro.heuristics import heuristic_order
from repro.instances import get_instance
from repro.operators.batch import jox_kernel, ox_kernel
from repro.parallel.fine_grained import CellularGA
from repro.parallel.island import IslandGA
from repro.scheduling import (OpenShopInstance,
                              batch_completion_operation_sequence,
                              batch_completion_pair_sequence,
                              operation_stages)
from repro.scheduling.batch import \
    batch_completion_operation_sequence_scenarios

FT10 = get_instance("ft10-shaped")


def _sequences(instance, pop, seed):
    rng = np.random.default_rng(seed)
    genes = np.repeat(np.arange(instance.n_jobs), instance.n_stages)
    return np.stack([rng.permutation(genes) for _ in range(pop)])


# -- faults per generation ---------------------------------------------------------

def _ft10_problem():
    return Problem(OperationBasedEncoding(FT10))


def _faults_per_generation(step, warmup=10, window=10, windows=3):
    """Fewest minor faults per generation over a few windows of steps."""
    for _ in range(warmup):
        step()
    counts = []
    for _ in range(windows):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(window):
            step()
        after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        counts.append((after - before) / window)
    return min(counts)


def _simple():
    ga = SimpleGA(_ft10_problem(),
                  GAConfig(population_size=200, substrate="array"),
                  MaxGenerations(10**6), seed=1)
    ga.initialize()
    return ga.step


def _island():
    ga = IslandGA(_ft10_problem(), n_islands=4,
                  config=GAConfig(population_size=50, substrate="array"),
                  termination=MaxGenerations(10**6), seed=1)
    ga.initialize()
    assert ga._tensor is not None  # lockstep over the bound tensor
    return lambda: ga._advance_serial(1)


def _cellular():
    ga = CellularGA(_ft10_problem(), rows=10, cols=20,
                    config=GAConfig(substrate="array"),
                    termination=MaxGenerations(10**6), seed=1)
    ga.initialize()
    return ga.step


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor-fault counts are read the Linux way")
@pytest.mark.parametrize("engine,limit", [
    # a tenth of what fresh per-generation temporaries cost: 165-200
    # faults per generation for simple, 200-285 island, 200-335 cellular
    # (in a fresh process and inside a full pytest run)
    (_simple, 16), (_island, 20), (_cellular, 20)])
def test_generation_faults_stay_low(engine, limit):
    assert _faults_per_generation(engine()) <= limit


# -- workspace safety ----------------------------------------------------------------

def test_workspace_views_grow_and_shrink_with_the_request():
    ws = Workspace()
    big = ws.get("rows", (4, 5), np.int64)
    small = ws.get("rows", (2, 5), np.int64)
    assert small.shape == (2, 5) and np.shares_memory(big, small)
    bigger = ws.get("rows", (8, 5), np.int64)
    assert bigger.shape == (8, 5) and not np.shares_memory(big, bigger)
    assert ws.get("rows", (3,), np.float64).dtype == np.float64


def test_scratch_is_per_thread():
    mine = scratch("test.per-thread", (16,), np.int64)
    theirs = []
    worker = threading.Thread(target=lambda: theirs.append(
        scratch("test.per-thread", (16,), np.int64)))
    worker.start()
    worker.join()
    assert not np.shares_memory(mine, theirs[0])


def test_two_threads_decode_like_one():
    batches = [_sequences(FT10, pop, seed)
               for seed, pop in enumerate((200, 37, 1, 120, 64, 200))]
    serial = [batch_completion_operation_sequence(FT10, seqs)
              for seqs in batches]
    barrier = threading.Barrier(2)
    results, errors = {}, []

    def decode(name, order):
        try:
            barrier.wait()
            got = []
            for _ in range(20):
                for i in order:
                    got.append((i, batch_completion_operation_sequence(
                        FT10, batches[i])))
            results[name] = got
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=decode, args=("a", range(6))),
               threading.Thread(target=decode, args=("b", range(5, -1, -1)))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    for got in results.values():
        for i, completion in got:
            np.testing.assert_array_equal(completion, serial[i])


def test_decoder_results_survive_the_next_call():
    first, second = _sequences(FT10, 50, 1), _sequences(FT10, 80, 2)
    stack = FT10.processing[None] * np.linspace(0.5, 1.5, 3)[:, None, None]
    calls = [
        lambda s: batch_completion_operation_sequence(FT10, s),
        lambda s: batch_completion_operation_sequence_scenarios(
            FT10, s, stack),
        lambda s: operation_stages(FT10, s),
    ]
    for call in calls:
        kept = call(first)
        snapshot = kept.copy()
        call(second)
        np.testing.assert_array_equal(kept, snapshot)

    osh = OpenShopInstance(processing=np.arange(1.0, 13.0).reshape(3, 4))
    rng = np.random.default_rng(3)
    kept = batch_completion_pair_sequence(
        osh, np.stack([rng.permutation(12) for _ in range(6)]))
    snapshot = kept.copy()
    batch_completion_pair_sequence(
        osh, np.stack([rng.permutation(12) for _ in range(9)]))
    np.testing.assert_array_equal(kept, snapshot)


def test_kernel_results_survive_the_next_call():
    A, B = _sequences(FT10, 30, 4), _sequences(FT10, 30, 5)
    rng = np.random.default_rng(6)
    lo = rng.integers(0, 50, 30)
    hi = lo + rng.integers(1, 50, 30)
    keep = rng.random((30, FT10.n_jobs)) < 0.5
    for call in (lambda a, b: ox_kernel(a, b, lo, hi),
                 lambda a, b: jox_kernel(a, b, keep)):
        kept = call(A, B)
        snapshot = kept.copy()
        call(B, A)
        np.testing.assert_array_equal(kept, snapshot)


def test_neh_after_a_larger_decode_equals_the_oracle():
    # a population-sized decode first, so every NEH step (1..n
    # candidates) reads a front slice of larger buffers
    batch_completion_operation_sequence(FT10, _sequences(FT10, 200, 7))
    problem = resolve_problem(SolverSpec(instance="ft10-shaped",
                                         engine="neh"))
    order, n_evals = heuristic_order("neh", problem)
    want_order, want_evals = scalar_reference.neh_reference(problem)
    assert order.tolist() == want_order.tolist()
    assert n_evals == want_evals


@pytest.mark.parametrize("bad", [FT10.n_jobs, -1])
def test_out_of_range_gene_raises(bad):
    seqs = _sequences(FT10, 4, 8)
    seqs[2, 17] = bad
    with pytest.raises(IndexError):
        batch_completion_operation_sequence(FT10, seqs)
    with pytest.raises(IndexError):
        batch_completion_operation_sequence_scenarios(
            FT10, seqs, FT10.processing[None])
    osh = OpenShopInstance(processing=np.ones((2, 3)))
    ops = np.stack([np.arange(6), np.arange(6)[::-1]])
    ops[1, 4] = 6 if bad > 0 else -1
    with pytest.raises(IndexError):
        batch_completion_pair_sequence(osh, ops)
