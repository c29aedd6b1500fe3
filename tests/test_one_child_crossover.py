"""The one-child crossover kernels and the cellular grid that uses them.

A cellular cell keeps only the first child of its pair, so every batch
crossover twin carries a one-child kernel, ``child(op, A, B, params)``,
that must equal ``kernel(op, A, B, params)[0]`` byte for byte, in dtype
and shape.  The grid makes the pair's draw and then calls it, so a run
is pinned against the results the pair kernel gave: best objective,
evaluations and a sha256 of the final grid.
"""

import hashlib

import numpy as np
import pytest

from repro import GAConfig, MaxGenerations, SolverSpec
from repro.api.components import resolve_problem
from repro.operators import (ArithmeticCrossover, CompositeCrossover,
                             JobBasedCrossover, NPointCrossover,
                             OrderCrossover, ParameterizedUniformCrossover,
                             PMXCrossover, UniformCrossover,
                             register_batch_crossover)
from repro.operators import batch
from repro.operators.batch import (batch_crossover_for, row_bincount,
                                   split_crossover_for)
from repro.operators.crossover import Crossover
from repro.parallel.fine_grained import CellularGA


def perm_population(m, n, seed):
    rng = np.random.default_rng(seed)
    return np.stack([rng.permutation(n) for _ in range(m)]).astype(np.int64)


def perm_rows(m, seed):
    return perm_population(m, 10, seed)


def rep_rows(m, seed):
    """Job-shop-shaped rows: 4 jobs, each 3 times."""
    rng = np.random.default_rng(seed)
    base = np.repeat(np.arange(4, dtype=np.int64), 3)
    return np.stack([rng.permutation(base) for _ in range(m)])


def other_multiset_rows(m, seed):
    """Job-shop-shaped rows whose value counts differ from ``rep_rows``."""
    return np.random.default_rng(seed).integers(0, 5, size=(m, 12))


def real_rows(m, seed):
    return np.random.default_rng(seed).random((m, 9))


def mixed_rows(m, seed):
    """Permutation part (10 columns) + assignment part (6 columns)."""
    rng = np.random.default_rng(seed)
    return np.concatenate([perm_population(m, 10, seed),
                           rng.integers(0, 3, size=(m, 6))], axis=1)


# (operator, rows of parent A, rows of parent B)
CASES = [
    (OrderCrossover(), perm_rows, perm_rows),
    (OrderCrossover(), rep_rows, rep_rows),
    (PMXCrossover(), perm_rows, perm_rows),
    (JobBasedCrossover(), rep_rows, rep_rows),
    (NPointCrossover(points=2), rep_rows, other_multiset_rows),
    (NPointCrossover(points=40), perm_rows, perm_rows),
    (NPointCrossover(points=2, repair=False), rep_rows, other_multiset_rows),
    (UniformCrossover(), rep_rows, other_multiset_rows),
    (UniformCrossover(), rep_rows, rep_rows),
    (UniformCrossover(repair=False), real_rows, real_rows),
    (ParameterizedUniformCrossover(bias=0.7), real_rows, real_rows),
    (ParameterizedUniformCrossover(bias=0.7), rep_rows, rep_rows),
    (ArithmeticCrossover(), real_rows, real_rows),
    (ArithmeticCrossover(0.25), real_rows, real_rows),
    (CompositeCrossover([OrderCrossover(), UniformCrossover(repair=False)],
                        spans=(10, 6)), mixed_rows, mixed_rows),
    (CompositeCrossover([PMXCrossover(), None], spans=(10, 6)),
     mixed_rows, mixed_rows),
]


def case_id(case):
    op, a_rows, b_rows = case
    return f"{type(op).__name__}-{a_rows.__name__}-{b_rows.__name__}"


def assert_bytes_equal(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_every_built_in_crossover_twin_is_covered():
    built_in = {cls for cls in batch._BATCH_CROSSOVERS
                if cls.__module__ == OrderCrossover.__module__}
    assert built_in == {type(op) for op, _, _ in CASES}


@pytest.mark.parametrize("case", CASES, ids=case_id)
@pytest.mark.parametrize("seed", range(3))
def test_child_is_the_first_of_the_pair(case, seed):
    op, a_rows, b_rows = case
    A, B = a_rows(13, seed), b_rows(13, seed + 50)
    twin = split_crossover_for(op)
    params = twin.draw(op, A, B, np.random.default_rng(seed))
    pair = twin.kernel(op, A, B, params)
    assert_bytes_equal(twin.child(op, A, B, params), pair[0])


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_one_child_twin_makes_the_pairs_draw(case):
    op, a_rows, b_rows = case
    A, B = a_rows(9, 3), b_rows(9, 4)
    rng, ref_rng = (np.random.default_rng(5) for _ in range(2))
    child = batch_crossover_for(op, pair=False)(A, B, rng)
    pair = batch_crossover_for(op)(A, B, ref_rng)
    assert_bytes_equal(child, pair[0])
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("op", [NPointCrossover(points=2),
                                UniformCrossover()],
                         ids=lambda op: type(op).__name__)
def test_repairing_pair_restores_parent_a_multiset_in_both_children(op):
    """The pair of a repairing exchange is not the one child with the
    parents swapped: B's child is repaired to A's multiset too."""
    A, B = rep_rows(11, 1), other_multiset_rows(11, 2)
    twin = split_crossover_for(op)
    params = twin.draw(op, A, B, np.random.default_rng(0))
    CA, CB = twin.kernel(op, A, B, params)
    want = row_bincount(A, 5)
    assert np.array_equal(row_bincount(CA, 5), want)
    assert np.array_equal(row_bincount(CB, 5), want)
    assert not np.array_equal(CB, twin.child(op, B, A, params))


def test_one_shot_twin_keeps_the_first_child():
    class Flip(Crossover):
        def __call__(self, a, b, rng):  # pragma: no cover - never called
            raise AssertionError

    @register_batch_crossover(Flip)
    def _batch_flip(op, A, B, rng):
        mask = rng.random(A.shape) < 0.5
        return np.where(mask, B, A), np.where(mask, A, B)

    op = Flip()
    A, B = rep_rows(6, 1), rep_rows(6, 2)
    try:
        twin = split_crossover_for(op)
        params = twin.draw(op, A, B, np.random.default_rng(3))
        assert_bytes_equal(twin.child(op, A, B, params),
                           twin.kernel(op, A, B, params)[0])
        rng, ref_rng = (np.random.default_rng(3) for _ in range(2))
        assert_bytes_equal(batch_crossover_for(op, pair=False)(A, B, rng),
                           _batch_flip(op, A, B, ref_rng)[0])
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    finally:
        del batch._BATCH_CROSSOVERS[Flip]


# -- cellular runs, pinned at the results of the pair kernel ---------------------

def grid_digest(population):
    digest = hashlib.sha256()
    for member in population:
        parts = (member.genome if isinstance(member.genome, tuple)
                 else (member.genome,))
        for part in parts:
            digest.update(np.ascontiguousarray(part, dtype=np.int64)
                          .tobytes())
    return digest.hexdigest()


PINS = {
    ("ta-fs-20x5-shaped", OrderCrossover, 1): (
        1343.0, "e981fad6a5084a0c6b42231d384e1d6d"
                "bf6f0952c710e6f98fb4f62a8841f275"),
    ("ta-fs-20x5-shaped", OrderCrossover, 2): (
        1378.0, "c8d62858bea24b687e6e9cefb11acb95"
                "81460d71322064ef960c04829187dfa1"),
    ("ta-fs-20x5-shaped", PMXCrossover, 1): (
        1386.0, "bc186138db01958792a542c33e8d3230"
                "c40d1dd803a4a1646ac84dcecb16a32c"),
    ("ta-fs-20x5-shaped", PMXCrossover, 2): (
        1378.0, "6b6b1c20c8c8334cadc156841009308"
                "552fd16f59204059424d22985ea7c44c1"),
    ("ft06", JobBasedCrossover, 1): (
        60.0, "114f5b40c4c4bfeda1ab67fa2047146b"
              "72dac2256bf4a6fef37a3612fb94c375"),
    ("ft06", JobBasedCrossover, 2): (
        60.0, "a6232cede7f5c71e0e221244f8f629a2"
              "9a92c77b0ba378ccc0ad1fc402003f95"),
    # the instance's default composite: uniform on the machine
    # assignment, OX on the job permutation
    ("hfs-10x3x2-shaped", None, 1): (
        332.0, "aba0853a6acfca5581781514cb1d6549"
               "70b3b4b74b8fb4f74901c8245d468c63"),
    ("hfs-10x3x2-shaped", None, 2): (
        334.0, "8d946d835cf414f868b53127c6fef7cf"
               "262e91d0492f0f479403967376706a98"),
}


@pytest.mark.parametrize("substrate", ["object", "array"])
@pytest.mark.parametrize("key", PINS, ids=lambda key: "-".join(
    [key[0], getattr(key[1], "__name__", "default"), str(key[2])]))
def test_cellular_run_is_pinned(key, substrate):
    instance, crossover, seed = key
    best, digest = PINS[key]
    problem = resolve_problem(SolverSpec(instance=instance))
    config = GAConfig(crossover=crossover() if crossover else None,
                      substrate=substrate)
    result = CellularGA(problem, rows=5, cols=6, config=config,
                        termination=MaxGenerations(12), seed=seed).run()
    assert result.best.objective == best
    assert result.evaluations == 390
    assert grid_digest(result.population) == digest
