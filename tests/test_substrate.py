"""Conformance suite for the array-native variation substrate.

Three layers of guarantees (see ``docs/architecture.md``, "One
generation per input"):

1. **kernel equality** -- each deterministic batch kernel reproduces the
   scalar loop it replaced (transcribed in ``scalar_reference``)
   bit-for-bit given the same cuts/masks;
2. **closure** -- every batch crossover/mutation preserves row multisets
   (hence permutation validity) like the scalar operators do;
3. **engine equivalence** -- a selection call is its batch twin, and both
   consume the RNG exactly like the scalar loops they replaced
   (transcribed in ``scalar_reference``), so whole array generations are
   *exactly* equal to the per-pair loop (``scalar_reference.per_pair``)
   at the crossover/mutation rate extremes under a shared seed, and
   quality stays on par at intermediate rates (per-draw bit-identity
   there is impossible: batching reorders the stream).
"""

import numpy as np
import pytest

import repro
import scalar_reference
from scalar_reference import path, per_pair
from repro import GAConfig, IslandGA, MaxGenerations, Population, SimpleGA
from repro.core.substrate import (ArrayPopulationView, ArrayState,
                                  available_substrates, elitist_merge_arrays,
                                  make_offspring_matrix, stable_topk)
from repro.encodings import (FlowShopPermutationEncoding,
                             OperationBasedEncoding, Problem,
                             RandomKeysFlowShopEncoding)
from repro.instances import flow_shop, get_instance
from repro.operators import (ArithmeticCrossover, AssignmentMutation,
                             CompositeCrossover, CompositeMutation,
                             ElitistRouletteSelection,
                             GaussianKeyMutation, InversionMutation,
                             JobBasedCrossover, NPointCrossover,
                             OrderCrossover, ParameterizedUniformCrossover,
                             PMXCrossover, RandomSelection, RankSelection,
                             RouletteWheelSelection, ShiftMutation,
                             StochasticUniversalSampling, SwapMutation,
                             TournamentSelection, UniformCrossover,
                             batch_crossover_for, batch_mutation_for,
                             register_batch_mutation)
from repro.operators.batch import (_BATCH_SELECTIONS,
                                   batch_repair_to_multiset,
                                   inversion_kernel, jox_kernel,
                                   npoint_kernel, ox_kernel, pmx_kernel,
                                   row_bincount, row_occurrence,
                                   shift_kernel, split_crossover_for,
                                   split_mutation_for, stack_params)


def perm_population(m, n, seed=0):
    rng = np.random.default_rng(seed)
    return np.stack([rng.permutation(n) for _ in range(m)]).astype(np.int64)


def repetition_population(m, n_jobs, repeats, seed=0):
    rng = np.random.default_rng(seed)
    base = np.repeat(np.arange(n_jobs, dtype=np.int64), repeats)
    return np.stack([rng.permutation(base) for _ in range(m)])


def same_multiset_rows(A, B):
    for a, b in zip(A, B):
        if not np.array_equal(np.sort(a), np.sort(b)):
            return False
    return True


def ox_by_occurrence(A, B, lo, hi):
    """OX children with the occurrence count taken on every row."""
    m, n = A.shape
    n_values = int(max(A.max(), B.max())) + 1
    rows, pos = np.arange(m)[:, None], np.arange(n)
    seg = (pos >= lo[:, None]) & (pos < hi[:, None])
    need = row_bincount(A, n_values) - row_bincount(A, n_values, mask=seg)
    rot = (hi[:, None] + pos) % n
    B_rot = np.take_along_axis(B, rot, axis=1)
    take = row_occurrence(B_rot, n_values) < need[rows, B_rot]
    fill = pos < (n - (hi - lo))[:, None]
    child = A.copy()
    child[np.nonzero(fill)[0], rot[fill]] = B_rot[take]
    return child


# -- layer 1: kernels vs the transcribed scalar loops ----------------------------

class TestKernelEquality:
    def test_row_occurrence_counts_left_to_right(self):
        X = np.array([[1, 1, 0, 1], [2, 0, 2, 2]], dtype=np.int64)
        expect = np.array([[0, 1, 0, 2], [0, 0, 1, 2]])
        assert np.array_equal(row_occurrence(X, 3), expect)

    def test_row_bincount_plain_and_masked(self):
        X = np.array([[0, 1, 1], [2, 2, 0]], dtype=np.int64)
        assert np.array_equal(row_bincount(X, 3),
                              [[1, 2, 0], [1, 0, 2]])
        mask = np.array([[True, False, True], [True, True, False]])
        assert np.array_equal(row_bincount(X, 3, mask=mask),
                              [[1, 1, 0], [0, 0, 2]])

    @pytest.mark.parametrize("seed", range(5))
    def test_ox_kernel_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        A = repetition_population(16, 5, 3, seed=seed)
        B = repetition_population(16, 5, 3, seed=seed + 100)
        n = A.shape[1]
        lo_hi = np.sort(np.stack(
            [rng.choice(n, size=2, replace=False) for _ in range(16)]), axis=1)
        lo, hi = lo_hi[:, 0], lo_hi[:, 1] + 1
        batch = ox_kernel(A, B, lo, hi)
        for k in range(16):
            scalar = scalar_reference.ox_child(A[k], B[k], int(lo[k]),
                                               int(hi[k]))
            assert np.array_equal(batch[k], scalar)

    @pytest.mark.parametrize("rows", ["permutation", "multiset", "mixed"])
    @pytest.mark.parametrize("seed", range(3))
    def test_ox_fill_matches_occurrence_formula_and_scalar(self, rows, seed):
        """The sort-free fill for permutation rows changes no child."""
        rng = np.random.default_rng(seed)
        perm = [perm_population(10, 12, seed=seed + k) for k in (0, 1)]
        rep = [repetition_population(10, 4, 3, seed=seed + k)
               for k in (2, 3)]
        pick = {"permutation": perm, "multiset": rep,
                "mixed": [np.concatenate([p, r]) for p, r in zip(perm, rep)]}
        A, B = pick[rows]
        m, n = A.shape
        lo_hi = np.sort(np.stack(
            [rng.choice(n, size=2, replace=False) for _ in range(m)]), axis=1)
        lo, hi = lo_hi[:, 0], lo_hi[:, 1] + 1
        batch = ox_kernel(A, B, lo, hi)
        assert np.array_equal(batch, ox_by_occurrence(A, B, lo, hi))
        for k in range(m):
            scalar = scalar_reference.ox_child(A[k], B[k], int(lo[k]),
                                               int(hi[k]))
            assert np.array_equal(batch[k], scalar)

    @pytest.mark.parametrize("seed", range(5))
    def test_pmx_kernel_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        A = perm_population(16, 9, seed=seed)
        B = perm_population(16, 9, seed=seed + 100)
        lo_hi = np.sort(np.stack(
            [rng.choice(9, size=2, replace=False) for _ in range(16)]), axis=1)
        lo, hi = lo_hi[:, 0], lo_hi[:, 1] + 1
        batch = pmx_kernel(A, B, lo, hi)
        for k in range(16):
            scalar = scalar_reference.pmx_child(A[k], B[k], int(lo[k]),
                                                int(hi[k]))
            assert np.array_equal(batch[k], scalar)

    @pytest.mark.parametrize("seed", range(5))
    def test_jox_kernel_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        A = repetition_population(16, 6, 4, seed=seed)
        B = repetition_population(16, 6, 4, seed=seed + 100)
        keep = rng.random((16, 6)) < 0.5
        batch = jox_kernel(A, B, keep)
        for k in range(16):
            scalar = scalar_reference.jox_child(A[k], B[k], keep[k])
            assert np.array_equal(batch[k], scalar)

    @pytest.mark.parametrize("seed", range(5))
    def test_batch_repair_matches_scalar(self, seed):
        # corrupt children by a positionwise mix, then repair toward the
        # parents' shared multiset with the other parent as donor
        A = repetition_population(12, 4, 3, seed=seed)
        B = repetition_population(12, 4, 3, seed=seed + 100)
        rng = np.random.default_rng(seed)
        mask = rng.random(A.shape) < 0.5
        child = np.where(mask, B, A)
        counts = row_bincount(A, 4)
        batch = batch_repair_to_multiset(child, counts, B)
        for k in range(12):
            scalar = scalar_reference.repair_to_multiset(child[k], counts[k], donor=B[k])
            assert np.array_equal(batch[k], scalar)

    @pytest.mark.parametrize("seed", range(5))
    def test_batch_repair_matches_scalar_for_foreign_donors(self, seed):
        # parents with different multisets (e.g. dispatch-rule genomes):
        # values the donor cannot cover follow its own, ascending
        rng = np.random.default_rng(seed)
        A = rng.integers(0, 4, size=(12, 9))
        B = rng.integers(0, 4, size=(12, 9))
        child = np.where(rng.random(A.shape) < 0.5, B, A)
        counts = row_bincount(A, 4)
        batch = batch_repair_to_multiset(child, counts, B)
        for k in range(12):
            scalar = scalar_reference.repair_to_multiset(child[k], counts[k], donor=B[k])
            assert np.array_equal(batch[k], scalar)

    def test_npoint_kernel_matches_manual_mask(self):
        A = np.zeros((3, 8), dtype=np.int64)
        B = np.ones((3, 8), dtype=np.int64)
        cuts = np.array([[2, 5], [1, 7], [3, 4]])
        ca, cb = npoint_kernel(A, B, cuts)
        # parity starts at A, flips at every cut
        assert np.array_equal(ca[0], [0, 0, 1, 1, 1, 0, 0, 0])
        assert np.array_equal(cb[0], [1, 1, 0, 0, 0, 1, 1, 1])
        assert np.array_equal(ca[1], [0, 1, 1, 1, 1, 1, 1, 0])
        assert np.array_equal(ca[2], [0, 0, 0, 1, 0, 0, 0, 0])

    @pytest.mark.parametrize("seed", range(4))
    def test_shift_kernel_matches_delete_insert(self, seed):
        rng = np.random.default_rng(seed)
        X = perm_population(10, 7, seed=seed)
        src = rng.integers(0, 7, size=10)
        dst = rng.integers(0, 6, size=10)
        batch = shift_kernel(X, src, dst)
        for k in range(10):
            v = X[k, src[k]]
            scalar = np.insert(np.delete(X[k], src[k]), dst[k], v)
            assert np.array_equal(batch[k], scalar)

    @pytest.mark.parametrize("seed", range(4))
    def test_inversion_kernel_matches_slice_reverse(self, seed):
        rng = np.random.default_rng(seed)
        X = perm_population(10, 7, seed=seed)
        lo_hi = np.sort(np.stack(
            [rng.choice(7, size=2, replace=False) for _ in range(10)]), axis=1)
        lo, hi = lo_hi[:, 0], lo_hi[:, 1]
        batch = inversion_kernel(X, lo, hi)
        for k in range(10):
            scalar = X[k].copy()
            scalar[lo[k]:hi[k] + 1] = scalar[lo[k]:hi[k] + 1][::-1]
            assert np.array_equal(batch[k], scalar)


# -- layer 1b: draw/kernel split of the batch twins -------------------------------
#
# ``old_*`` below are the one-shot twins as they were before the split
# (draws interleaved with kernel calls); the split twins must reproduce
# them and leave the RNG in the same state.

def draw_pairs(n, m, rng):
    i = rng.integers(0, n, size=m)
    j = rng.integers(0, n - 1, size=m)
    j = j + (j >= i)
    return np.minimum(i, j), np.maximum(i, j)


def old_segment(kernel):
    def run(op, A, B, rng):
        lo, hi = draw_pairs(A.shape[1], A.shape[0], rng)
        return kernel(A, B, lo, hi + 1), kernel(B, A, lo, hi + 1)
    return run


def old_repair(A, B, CA, CB):
    counts = row_bincount(A, int(max(A.max(), B.max())) + 1)
    return (batch_repair_to_multiset(CA, counts, B),
            batch_repair_to_multiset(CB, counts, A))


def old_jox(op, A, B, rng):
    keep = rng.random((A.shape[0], int(max(A.max(), B.max())) + 1)) < 0.5
    return jox_kernel(A, B, keep), jox_kernel(B, A, keep)


def old_npoint(op, A, B, rng):
    m, n = A.shape
    k = min(op.points, n - 1)
    if k == n - 1:
        cuts = np.tile(np.arange(1, n), (m, 1))
    else:
        keys = rng.random((m, n - 1))
        cuts = np.sort(np.argpartition(keys, k - 1, axis=1)[:, :k],
                       axis=1) + 1
    return old_repair(A, B, *npoint_kernel(A, B, cuts))


def old_uniform(op, A, B, rng):
    mask = rng.random(A.shape) < op.swap_prob
    CA, CB = np.where(mask, B, A), np.where(mask, A, B)
    return old_repair(A, B, CA, CB) if op.repair else (CA, CB)


def old_param_uniform(op, A, B, rng):
    take_a = rng.random(A.shape) < op.bias
    return np.where(take_a, A, B), np.where(take_a, B, A)


def old_arithmetic(op, A, B, rng):
    w = (op.fixed_weight if op.fixed_weight is not None
         else rng.random((A.shape[0], 1)))
    return w * A + (1 - w) * B, (1 - w) * A + w * B


def old_composite_crossover(op, A, B, rng):
    CA, CB = A.copy(), B.copy()
    col = 0
    for part, width, old in zip(op.parts, op.spans, op.old_parts):
        cols = slice(col, col + width)
        CA[:, cols], CB[:, cols] = old(part, A[:, cols], B[:, cols], rng)
        col += width
    return CA, CB


def old_swap(op, X, rng):
    out = X.copy()
    rows = np.arange(X.shape[0])
    for _ in range(op.pairs):
        i, j = draw_pairs(X.shape[1], X.shape[0], rng)
        out[rows, i], out[rows, j] = out[rows, j], out[rows, i].copy()
    return out


def old_shift(op, X, rng):
    m, n = X.shape
    src = rng.integers(0, n, size=m)
    return shift_kernel(X, src, rng.integers(0, n - 1, size=m))


def old_inversion(op, X, rng):
    return inversion_kernel(X, *draw_pairs(X.shape[1], X.shape[0], rng))


def old_assignment(op, X, rng):
    out = X.copy()
    mask = rng.random(X.shape) < op.rate
    if mask.any():
        sizes = np.maximum(np.asarray(op.domain_sizes), 1)
        hi = sizes[np.arange(X.shape[1]) % sizes.size]
        out[mask] = rng.integers(0, np.broadcast_to(hi, X.shape)[mask])
    return out


def old_gaussian(op, X, rng):
    out = X.astype(np.float64)
    mask = rng.random(X.shape) < op.rate
    hits = int(mask.sum())
    if hits:
        out[mask] = np.clip(out[mask] + rng.normal(0, op.sigma, hits),
                            0.0, 1.0 - 1e-12)
    return out


def old_composite_mutation(op, X, rng):
    out = X.copy()
    col = 0
    for part, width, old in zip(op.parts, op.spans, op.old_parts):
        out[:, col:col + width] = old(part, X[:, col:col + width], rng)
        col += width
    return out


def composite(cls, parts, spans, olds):
    op = cls(parts, spans=spans)
    op.old_parts = olds  # reference-only attribute, read by the old_* twins
    return op


def perm_rows(m, seed):
    return perm_population(m, 10, seed=seed)


def rep_rows(m, seed):
    return repetition_population(m, 4, 3, seed=seed)


def real_rows(m, seed):
    return np.random.default_rng(seed).random((m, 9))


def mixed_rows(m, seed):
    """Permutation part (10 columns) + assignment part (6 columns)."""
    rng = np.random.default_rng(seed)
    return np.concatenate([perm_population(m, 10, seed=seed),
                           rng.integers(0, 3, size=(m, 6))], axis=1)


SPLIT_CROSSOVERS = [
    (OrderCrossover(), perm_rows, old_segment(ox_kernel)),
    (OrderCrossover(), rep_rows, old_segment(ox_kernel)),
    (PMXCrossover(), perm_rows, old_segment(pmx_kernel)),
    (JobBasedCrossover(), rep_rows, old_jox),
    (NPointCrossover(points=2), rep_rows, old_npoint),
    (NPointCrossover(points=40), perm_rows, old_npoint),
    (UniformCrossover(), rep_rows, old_uniform),
    (UniformCrossover(repair=False), real_rows, old_uniform),
    (ParameterizedUniformCrossover(bias=0.7), real_rows, old_param_uniform),
    (ArithmeticCrossover(), real_rows, old_arithmetic),
    (ArithmeticCrossover(0.25), real_rows, old_arithmetic),
    (composite(CompositeCrossover, [OrderCrossover(),
                                    UniformCrossover(repair=False)],
               (10, 6), [old_segment(ox_kernel), old_uniform]),
     mixed_rows, old_composite_crossover),
]
SPLIT_MUTATIONS = [
    (SwapMutation(), rep_rows, old_swap),
    (SwapMutation(pairs=3), perm_rows, old_swap),
    (ShiftMutation(), perm_rows, old_shift),
    (InversionMutation(), rep_rows, old_inversion),
    (AssignmentMutation(np.array([3, 4, 5]), rate=0.3), rep_rows,
     old_assignment),
    (AssignmentMutation(np.array([3]), rate=0.0), rep_rows, old_assignment),
    (GaussianKeyMutation(sigma=0.1, rate=0.5), real_rows, old_gaussian),
    (composite(CompositeMutation, [SwapMutation(),
                                   AssignmentMutation(np.array([3]), 0.4)],
               (10, 6), [old_swap, old_assignment]),
     mixed_rows, old_composite_mutation),
]


def case_id(case):
    return f"{type(case[0]).__name__}-{case[1].__name__}"


def assert_same(got, expect):
    if isinstance(expect, tuple):
        for g, e in zip(got, expect):
            assert np.array_equal(g, e)
    else:
        assert np.array_equal(got, expect)


class TestDrawKernelSplit:
    @pytest.mark.parametrize("case", SPLIT_CROSSOVERS, ids=case_id)
    @pytest.mark.parametrize("seed", range(3))
    def test_crossover_kernel_of_draw_is_the_old_one_shot(self, case, seed):
        op, rows, old = case
        A, B = rows(13, seed), rows(13, seed + 50)
        twin = split_crossover_for(op)
        rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
        got = twin.kernel(op, A, B, twin.draw(op, A, B, rng))
        assert_same(got, old(op, A, B, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert_same(batch_crossover_for(op)(A, B,
                                            np.random.default_rng(seed)),
                    got)

    @pytest.mark.parametrize("case", SPLIT_MUTATIONS, ids=case_id)
    @pytest.mark.parametrize("seed", range(3))
    def test_mutation_kernel_of_draw_is_the_old_one_shot(self, case, seed):
        op, rows, old = case
        X = rows(13, seed)
        twin = split_mutation_for(op)
        rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
        got = twin.kernel(op, X, twin.draw(op, X, rng))
        assert_same(got, old(op, X, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert_same(batch_mutation_for(op)(X, np.random.default_rng(seed)),
                    got)

    @pytest.mark.parametrize("case", SPLIT_CROSSOVERS, ids=case_id)
    def test_stacked_crossover_params_equal_separate_calls(self, case):
        op, rows, _ = case
        twin = split_crossover_for(op)
        rng = np.random.default_rng(8)
        blocks = [(rows(7, 1), rows(7, 2)), (rows(5, 3), rows(5, 4))]
        params = [twin.draw(op, A, B, rng) for A, B in blocks]
        alone = [twin.kernel(op, A, B, p) for (A, B), p in zip(blocks, params)]
        fused = twin.kernel(op, np.concatenate([A for A, _ in blocks]),
                            np.concatenate([B for _, B in blocks]),
                            stack_params(params))
        for k in range(2):
            assert np.array_equal(fused[k], np.concatenate(
                [children[k] for children in alone]))

    @pytest.mark.parametrize("case", SPLIT_MUTATIONS, ids=case_id)
    def test_stacked_mutation_params_equal_separate_calls(self, case):
        op, rows, _ = case
        twin = split_mutation_for(op)
        rng = np.random.default_rng(8)
        blocks = [rows(7, 1), rows(5, 2)]
        params = [twin.draw(op, X, rng) for X in blocks]
        alone = [twin.kernel(op, X, p) for X, p in zip(blocks, params)]
        fused = twin.kernel(op, np.concatenate(blocks), stack_params(params))
        assert np.array_equal(fused, np.concatenate(alone))

    def test_jox_masks_of_different_job_counts_pad_with_false(self):
        """Blocks whose parents hold different job counts draw keep masks
        of different widths; the stacked mask pads the narrow one."""
        op = JobBasedCrossover()
        twin = split_crossover_for(op)
        rng = np.random.default_rng(2)
        blocks = [(repetition_population(6, 4, 3, seed=1),
                   repetition_population(6, 4, 3, seed=2)),
                  (repetition_population(4, 6, 2, seed=3),
                   repetition_population(4, 6, 2, seed=4))]
        params = [twin.draw(op, A, B, rng) for A, B in blocks]
        assert [p.shape[1] for p in params] == [4, 6]
        stacked = stack_params(params)
        assert stacked.shape == (10, 6) and not stacked[:6, 4:].any()
        fused = twin.kernel(op, np.concatenate([A for A, _ in blocks]),
                            np.concatenate([B for _, B in blocks]), stacked)
        alone = [twin.kernel(op, A, B, p) for (A, B), p in zip(blocks, params)]
        assert np.array_equal(fused[0], np.concatenate([a for a, _ in alone]))

    @pytest.mark.parametrize("op", [OrderCrossover(), PMXCrossover(),
                                    NPointCrossover()],
                             ids=lambda o: type(o).__name__)
    def test_one_gene_rows_cross_to_copies_without_draws(self, op):
        A, B = np.zeros((4, 1), dtype=np.int64), np.ones((4, 1),
                                                          dtype=np.int64)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        ca, cb = batch_crossover_for(op)(A, B, rng)
        assert np.array_equal(ca, A) and np.array_equal(cb, B)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("op", [SwapMutation(), ShiftMutation(),
                                    InversionMutation()],
                             ids=lambda o: type(o).__name__)
    def test_one_gene_rows_mutate_to_copies_without_draws(self, op):
        X = np.arange(4, dtype=np.int64)[:, None]
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        out = batch_mutation_for(op)(X, rng)
        assert np.array_equal(out, X) and out is not X
        assert rng.bit_generator.state == state

    def test_composites_without_spans_are_refused(self):
        X = mixed_rows(3, 0)
        with pytest.raises(ValueError, match="no part spans"):
            batch_crossover_for(CompositeCrossover([OrderCrossover()]))(
                X, X, np.random.default_rng(0))
        with pytest.raises(ValueError, match="no part spans"):
            batch_mutation_for(CompositeMutation([SwapMutation()]))(
                X, np.random.default_rng(0))

    def test_one_shot_twin_wraps_as_draw_plus_pass_through(self):
        class Stub:
            pass

        @register_batch_mutation(Stub)
        def _batch_stub(op, X, rng):
            return X + rng.integers(0, 2, size=X.shape)

        X = rep_rows(5, 0)
        twin = split_mutation_for(Stub())
        rng, ref_rng = (np.random.default_rng(1) for _ in range(2))
        params = twin.draw(Stub(), X, rng)
        assert np.array_equal(twin.kernel(Stub(), X, params),
                              _batch_stub(Stub(), X, ref_rng))


# -- layer 2: closure per batch operator -----------------------------------------

PERM_CROSSOVERS = [OrderCrossover(), PMXCrossover(),
                   NPointCrossover(points=2), UniformCrossover()]
REP_CROSSOVERS = [OrderCrossover(), JobBasedCrossover(),
                  NPointCrossover(points=3), UniformCrossover()]
INT_MUTATIONS = [SwapMutation(), SwapMutation(pairs=3), ShiftMutation(),
                 InversionMutation()]


class TestClosure:
    @pytest.mark.parametrize("op", PERM_CROSSOVERS,
                             ids=lambda o: type(o).__name__)
    @pytest.mark.parametrize("seed", range(3))
    def test_permutation_crossovers_stay_permutations(self, op, seed):
        A = perm_population(24, 11, seed=seed)
        B = perm_population(24, 11, seed=seed + 50)
        ca, cb = batch_crossover_for(op)(A, B, np.random.default_rng(seed))
        for child in (ca, cb):
            assert same_multiset_rows(child, A)

    @pytest.mark.parametrize("op", REP_CROSSOVERS,
                             ids=lambda o: type(o).__name__)
    @pytest.mark.parametrize("seed", range(3))
    def test_repetition_crossovers_preserve_multisets(self, op, seed):
        A = repetition_population(24, 5, 4, seed=seed)
        B = repetition_population(24, 5, 4, seed=seed + 50)
        ca, cb = batch_crossover_for(op)(A, B, np.random.default_rng(seed))
        for child in (ca, cb):
            assert same_multiset_rows(child, A)

    @pytest.mark.parametrize("op", INT_MUTATIONS,
                             ids=["swap", "swap3", "shift", "inversion"])
    @pytest.mark.parametrize("seed", range(3))
    def test_integer_mutations_preserve_multisets(self, op, seed):
        X = repetition_population(24, 5, 4, seed=seed)
        out = batch_mutation_for(op)(X, np.random.default_rng(seed))
        assert same_multiset_rows(out, X)
        assert out is not X  # never in place

    @pytest.mark.parametrize("domains", [None, (1, 2, 5)],
                             ids=["hfs-stages", "unequal"])
    @pytest.mark.parametrize("seed", range(3))
    def test_assignment_mutation_twins_keep_hfs_stage_domains(self, domains,
                                                              seed):
        """Scalar operator on the (n_jobs, n_stages) HFS assignment part,
        batch twin on its flattened row: both keep every gene in its
        stage's domain."""
        from repro.encodings.assignment_sequence import \
            HybridFlowShopEncoding
        instance = get_instance("hfs-10x3x2-shaped")
        enc = HybridFlowShopEncoding(instance)
        sizes = np.asarray(domains if domains is not None
                           else enc.assignment_domain_sizes())
        op = AssignmentMutation(sizes, rate=0.5)
        rng = np.random.default_rng(seed)
        parts = [enc.random_genome(rng)[0] % sizes for _ in range(12)]
        for part in parts:
            out = op(part, rng)
            assert out.shape == part.shape
            assert ((out >= 0) & (out < sizes)).all()
        X = np.stack([part.ravel() for part in parts])
        out = batch_mutation_for(op)(X, rng)
        assert out.shape == X.shape
        grid = out.reshape(len(parts), *parts[0].shape)
        assert ((grid >= 0) & (grid < sizes)).all()

    def test_real_crossovers_stay_in_bounds(self):
        rng = np.random.default_rng(3)
        A, B = rng.random((20, 9)), rng.random((20, 9))
        for op in (ParameterizedUniformCrossover(bias=0.7),
                   ArithmeticCrossover(), ArithmeticCrossover(0.25)):
            ca, cb = batch_crossover_for(op)(A, B, rng)
            for child in (ca, cb):
                assert child.shape == A.shape
                assert (child >= 0).all() and (child <= 1).all()

    def test_param_uniform_children_complement(self):
        rng = np.random.default_rng(4)
        A, B = rng.random((10, 6)), rng.random((10, 6))
        ca, cb = batch_crossover_for(
            ParameterizedUniformCrossover(bias=0.6))(A, B, rng)
        took_a = ca == A
        assert np.array_equal(cb, np.where(took_a, B, A))

    def test_gaussian_mutation_keeps_keys_valid(self):
        rng = np.random.default_rng(5)
        X = rng.random((30, 12))
        out = batch_mutation_for(GaussianKeyMutation(rate=0.8))(X, rng)
        assert (out >= 0).all() and (out < 1).all()
        assert (out != X).any()

    def test_unsupported_operator_raises_actionable_error(self):
        from repro.operators import CycleCrossover
        with pytest.raises(ValueError, match="no batch crossover.*supports"):
            batch_crossover_for(CycleCrossover())


# -- layer 3a: selection stream equality -----------------------------------------

SELECTIONS = [RouletteWheelSelection(), StochasticUniversalSampling(),
              TournamentSelection(size=3), ElitistRouletteSelection(0.2),
              RandomSelection(), RankSelection()]


class TestSelectionStreamEquality:
    """Each selection call is its index twin; both must still equal the
    scalar loop it replaced, in members and in RNG state."""

    @staticmethod
    def population(problem):
        rng = np.random.default_rng(7)
        pop = Population(
            repro.Individual(problem.random_genome(rng)) for _ in range(12))
        for i, ind in enumerate(pop):
            ind.objective = float(50 + (i % 4))   # ties included
            ind.fitness = float(10 - (i % 4))
        return pop

    @pytest.mark.parametrize("sel", SELECTIONS,
                             ids=lambda s: type(s).__name__)
    @pytest.mark.parametrize("k", [0, 5, 20])
    def test_selection_matches_scalar_oracle(self, sel, k, ft06_problem):
        pop = self.population(ft06_problem)
        oracle = scalar_reference.reference(sel)
        got_rng, want_rng = (np.random.default_rng(99),
                             np.random.default_rng(99))
        if k == 0 and isinstance(sel, StochasticUniversalSampling):
            # SUS spaces its pointers 1/k apart: both refuse k = 0
            for fn, rng in ((sel, got_rng), (oracle, want_rng)):
                with pytest.raises(ZeroDivisionError):
                    fn(pop, k, rng)
        else:
            got, want = sel(pop, k, got_rng), oracle(pop, k, want_rng)
            assert len(got) == len(want) == k
            assert all(a is b for a, b in zip(got, want))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_every_built_in_selection_is_transcribed(self):
        built_in = {cls for cls in _BATCH_SELECTIONS
                    if cls.__module__.startswith("repro.")}
        assert built_in == {type(sel) for sel in SELECTIONS}
        assert built_in <= set(scalar_reference.TRANSCRIBED)


# -- layer 3b: rate-extreme exact equivalence ------------------------------------

def run_pair(problem, seed=11, gens=5, **cfg_kwargs):
    """Run the per-pair and the array engine with one config and seed."""
    with per_pair():
        obj_ga = SimpleGA(problem, GAConfig(**cfg_kwargs),
                          MaxGenerations(gens), seed=seed)
    arr_ga = SimpleGA(problem, GAConfig(substrate="array", **cfg_kwargs),
                      MaxGenerations(gens), seed=seed)
    for ga in (obj_ga, arr_ga):
        ga.run()
    assert (obj_ga.substrate, arr_ga.substrate) == ("object", "array")
    return obj_ga, arr_ga


def assert_populations_equal(obj_ga, arr_ga):
    matrix, objectives = obj_ga.population.to_arrays(obj_ga.problem)
    assert np.array_equal(arr_ga.arrays.matrix, matrix)
    assert np.array_equal(arr_ga.arrays.objectives, objectives)
    assert obj_ga.state.evaluations == arr_ga.state.evaluations


class TestRateExtremeEquivalence:
    @pytest.mark.parametrize("sel", SELECTIONS,
                             ids=lambda s: type(s).__name__)
    def test_rate_zero_is_exact_for_every_selection(self, sel, ft06_problem):
        obj_ga, arr_ga = run_pair(
            ft06_problem, population_size=14, crossover_rate=0.0,
            mutation_rate=0.0, selection=sel)
        assert_populations_equal(obj_ga, arr_ga)

    def test_rate_zero_with_immigration_and_gap(self, ft06_problem):
        obj_ga, arr_ga = run_pair(
            ft06_problem, population_size=15, crossover_rate=0.0,
            mutation_rate=0.0, immigration_rate=0.25, generation_gap=0.6,
            n_elites=3)
        assert_populations_equal(obj_ga, arr_ga)

    def test_crossover_rate_one_exact_with_drawless_operator(self):
        # ArithmeticCrossover with a fixed weight consumes no RNG, so the
        # stream stays aligned even though every pair crosses
        problem = Problem(RandomKeysFlowShopEncoding(flow_shop(8, 4, seed=2)))
        obj_ga, arr_ga = run_pair(
            problem, population_size=12, crossover_rate=1.0,
            mutation_rate=0.0, crossover=ArithmeticCrossover(0.3))
        assert_populations_equal(obj_ga, arr_ga)

    def test_mutation_rate_one_exact_with_drawless_operator(self,
                                                            ft06_problem):
        class ReverseMutation:
            def __call__(self, genome, rng):
                return np.asarray(genome)[::-1].copy()

        @register_batch_mutation(ReverseMutation)
        def _batch_reverse(op, X, rng):
            return X[:, ::-1].copy()

        obj_ga, arr_ga = run_pair(
            ft06_problem, population_size=12, crossover_rate=0.0,
            mutation_rate=1.0, mutation=ReverseMutation())
        assert_populations_equal(obj_ga, arr_ga)


class TestEngineRateExtremeEquivalence:
    """Per-pair and array runs of every multi-population engine are equal
    at crossover and mutation rate 0: selection, immigration, merges and
    migration consume one stream on both paths."""

    ENGINES = {
        "master-slave": {"backend": "serial"},
        "island": {"islands": 3},
        "hybrid": {"islands": 2, "rows": 3, "cols": 3,
                   "migration_interval": 2},
        "two-level": {"islands": 2, "migration_interval": 2,
                      "broadcast_interval": 4},
    }

    @staticmethod
    def assert_reports_equal(spec):
        with per_pair():
            reference = repro.solve(spec)
        reports = [reference, repro.solve(spec.replace(substrate="array"))]
        assert [r.extra["substrate"] for r in reports] == ["object", "array"]
        assert reports[0].best_objective == reports[1].best_objective
        assert reports[0].evaluations == reports[1].evaluations
        genomes = [r.best_genome if isinstance(r.best_genome, tuple)
                   else (r.best_genome,) for r in reports]
        for a, b in zip(*genomes):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("instance", ["ft06", "hfs-10x3x2-shaped",
                                          "fjsp-8x5-shaped"])
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_rate_zero_is_exact(self, engine, instance):
        self.assert_reports_equal(repro.SolverSpec(
            instance=instance, engine=engine,
            engine_params=self.ENGINES[engine], seed=1,
            ga={"population_size": 12, "crossover_rate": 0.0,
                "mutation_rate": 0.0, "immigration_rate": 0.2},
            termination={"max_generations": 8}))

    def test_process_master_slave_rate_zero_is_exact(self):
        self.assert_reports_equal(repro.SolverSpec(
            instance="ft06", engine="master-slave",
            engine_params={"backend": "process", "workers": 2}, seed=1,
            ga={"population_size": 12, "crossover_rate": 0.0,
                "mutation_rate": 0.0},
            termination={"max_generations": 4}))


# -- layer 3c: quality parity + engine integration -------------------------------

class TestQualityParity:
    def test_ta_style_flowshop_parity(self):
        """Array search quality tracks the per-pair loop on ta-fs-20x5."""
        bests = {"object": [], "array": []}
        for substrate in bests:
            for seed in (1, 2, 3):
                with path(substrate):
                    report = repro.solve(repro.SolverSpec(
                        instance="ta-fs-20x5-shaped", substrate=substrate,
                        ga={"population_size": 40},
                        termination={"max_generations": 40}, seed=seed))
                assert report.extra["substrate"] == substrate
                bests[substrate].append(report.best_objective)
        mean_obj = np.mean(bests["object"])
        mean_arr = np.mean(bests["array"])
        assert mean_arr <= 1.1 * mean_obj
        assert mean_obj <= 1.1 * mean_arr

    def test_array_improves_over_random(self, ft06_problem):
        ga = SimpleGA(ft06_problem,
                      GAConfig(population_size=30, substrate="array"),
                      MaxGenerations(25), seed=1)
        initial = ga.initialize().best().objective
        assert ga.run().best_objective <= initial


class TestEnginesAndApi:
    # NOTE: per-engine x substrate end-to-end smoke lives in the
    # conformance sweep (tests/test_api_solve.py::TestEngineSubstrateSweep)

    def test_island_tensor_mode_and_migration(self, ft06_problem):
        ga = IslandGA(ft06_problem, n_islands=3,
                      config=GAConfig(population_size=10, substrate="array"),
                      termination=MaxGenerations(15), seed=5)
        result = ga.run()
        assert result.extra["tensor_mode"] is True
        assert ga._tensor.shape == (3, 10, 36)
        for i, isl in enumerate(ga.islands):
            assert isl.arrays.matrix.base is ga._tensor
        # migration moved something: islands share their best eventually
        assert result.best_objective <= 70

    def test_cellular_array_rejects_asynchronous_update(self, ft06_problem):
        from repro.parallel.fine_grained import CellularGA
        with pytest.raises(ValueError, match="asynchronous"):
            CellularGA(ft06_problem, rows=3, cols=3,
                       config=GAConfig(substrate="array"),
                       update="asynchronous")

    def test_cli_list_derives_array_engines_from_registry(self, capsys):
        from repro.cli import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "array: matrix-kernel generations" in out
        assert "island" in out and "two-level" in out

    def test_view_member_cache_tracks_in_place_mutation(self, ft06_problem):
        from repro.parallel.migration import integrate_immigrant_rows
        from repro import MigrationPolicy
        ga = SimpleGA(ft06_problem,
                      GAConfig(population_size=6, substrate="array"),
                      MaxGenerations(1), seed=0)
        ga.initialize()
        view = ga.population
        before = [ind.genome.copy() for ind in view]   # materialise cache
        rows = np.stack([ft06_problem.random_genome(np.random.default_rng(1))
                         for _ in range(2)])
        integrate_immigrant_rows(ga.arrays, rows, np.array([1.0, 2.0]),
                                 MigrationPolicy(rate=2),
                                 np.random.default_rng(2))
        # live view: members rebuild after the in-place write, matching
        # best()/stats() instead of serving the stale cache
        after = [ind.genome for ind in view]
        assert any(not np.array_equal(a, b) for a, b in zip(before, after))
        assert view.best().objective == 1.0

    def test_island_rejects_mixed_substrates(self, ft06_problem):
        with pytest.raises(ValueError, match="share one substrate"):
            IslandGA(ft06_problem, n_islands=2,
                     config=[GAConfig(substrate="array"), GAConfig()])

    def test_island_array_rejects_merge_on_stagnation(self, ft06_problem):
        with pytest.raises(ValueError, match="object"):
            IslandGA(ft06_problem, n_islands=2,
                     config=GAConfig(substrate="array"),
                     merge_on_stagnation=5)

    def test_untagged_engines_gated_by_spec_validation(self):
        # all six shipped engines now accept the array substrate; the
        # object-only gate still protects third-party engines registered
        # without the array_substrate tag
        from repro.api.registry import ENGINES, RegistryEntry
        ENGINES._entries["object-only-test"] = RegistryEntry(
            name="object-only-test", factory=lambda *a, **k: None)
        try:
            with pytest.raises(repro.SpecError,
                               match="object substrate only"):
                repro.SolverSpec(instance="ft06", engine="object-only-test",
                                 substrate="array").validate()
        finally:
            del ENGINES._entries["object-only-test"]
        with pytest.raises(repro.SpecError, match="unknown substrate"):
            repro.SolverSpec(instance="ft06", substrate="tensor").validate()

    def test_composite_genomes_gated(self):
        # lot streaming publishes no part_spans: its composite genome
        # has no fixed row layout for the composite kernels
        with pytest.raises(repro.SpecError, match="composite"):
            repro.solve(repro.SolverSpec(
                instance="hfs-10x3x2-shaped", encoding="lot-streaming",
                substrate="array", termination={"max_generations": 2}))

    def test_spec_json_round_trip_carries_substrate(self):
        spec = repro.SolverSpec(instance="ft06", substrate="array")
        again = repro.SolverSpec.from_json(spec.to_json())
        assert again == spec
        assert again.substrate == "array"

    def test_available_substrates(self):
        assert available_substrates() == ("object", "array")

    def test_cli_solve_substrate_flag(self, capsys):
        from repro.cli import main
        code = main(["solve", "ft06", "--substrate", "array",
                     "--generations", "3", "--population", "12"])
        assert code == 0
        assert "best=" in capsys.readouterr().out

    def test_cli_solve_island_substrate_flag(self, capsys):
        from repro.cli import main
        code = main(["solve", "ft06", "--engine", "island", "--substrate",
                     "array", "--generations", "3", "--population", "16"])
        assert code == 0
        assert "engine=island" in capsys.readouterr().out


# -- support structures ----------------------------------------------------------

class TestSupportStructures:
    def test_stable_topk_matches_stable_argsort(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            values = rng.integers(0, 6, size=rng.integers(1, 40)).astype(float)
            k = int(rng.integers(0, values.size + 2))
            expect = np.argsort(values, kind="stable")[:k]
            assert np.array_equal(stable_topk(values, k), expect)

    def test_elitist_merge_arrays_matches_object_merge(self, ft06_problem):
        rng = np.random.default_rng(3)
        ga = SimpleGA(ft06_problem, GAConfig(population_size=12),
                      MaxGenerations(1), seed=3)
        pop = ga.initialize()
        offspring = ga.make_offspring(pop, 8)
        ga._evaluate(offspring)
        for n_keep in (0, 2, 4, 12):
            merged = pop.elitist_merge(offspring, n_keep)
            expect_m, expect_o = merged.to_arrays(ft06_problem)
            state = ArrayState(*pop.to_arrays(ft06_problem))
            off_m = np.stack([ind.genome for ind in offspring])
            off_o = np.array([ind.objective for ind in offspring])
            got_m, got_o = elitist_merge_arrays(state, off_m, off_o,
                                                n_keep, 12)
            assert np.array_equal(got_m, expect_m)
            assert np.array_equal(got_o, expect_o)

    def test_array_population_view_is_population_compatible(self,
                                                            ft06_problem):
        ga = SimpleGA(ft06_problem,
                      GAConfig(population_size=9, substrate="array"),
                      MaxGenerations(2), seed=8)
        ga.run()
        view = ga.population
        assert isinstance(view, ArrayPopulationView)
        assert len(view) == 9
        materialized = Population(ind.copy() for ind in view)
        assert materialized.stats().as_dict() == \
            pytest.approx(view.stats().as_dict())
        assert view.unique_fraction() == materialized.unique_fraction()
        assert view.best().objective == materialized.best().objective
        assert view.worst().objective == materialized.worst().objective
        with pytest.raises(TypeError, match="read-only"):
            view[0] = materialized[0]
        with pytest.raises(TypeError, match="read-only"):
            view.append(materialized[0])

    def test_view_best_and_worst_copy_the_state_rows(self, ft06_problem):
        rng = np.random.default_rng(5)
        matrix = np.stack([ft06_problem.random_genome(rng) for _ in range(4)])
        state = ArrayState(matrix.copy(), np.asarray([3.0, 1.0, 4.0, 2.0]))
        view = ArrayPopulationView(ft06_problem, state)
        best, worst = view.best(), view.worst()
        np.testing.assert_array_equal(best.genome, matrix[1])
        np.testing.assert_array_equal(worst.genome, matrix[2])
        assert (best.objective, worst.objective) == (1.0, 4.0)
        best.genome[:] = 0
        worst.genome[:] = 0
        view[0].genome[:] = 0
        np.testing.assert_array_equal(state.matrix, matrix)

    def test_view_unique_fraction_counts_duplicate_rows(self, ft06_problem):
        rng = np.random.default_rng(2)
        rows = [ft06_problem.random_genome(rng) for _ in range(3)]
        matrix = np.stack([rows[0], rows[1], rows[0], rows[2], rows[0]])
        view = ArrayPopulationView(ft06_problem, ArrayState(
            matrix, np.arange(5, dtype=float)))
        snapshot = Population(ind.copy() for ind in view)
        assert view.unique_fraction() == snapshot.unique_fraction() == 0.6

    @pytest.mark.parametrize("substrate", ["object", "array"])
    @pytest.mark.parametrize("engine,params", [
        ("simple", {}), ("island", {"islands": 2}),
        ("cellular", {"rows": 4, "cols": 4})])
    def test_generation_loop_never_computes_diversity(self, monkeypatch,
                                                      engine, params,
                                                      substrate):
        def forbidden(self):
            raise AssertionError("unique_fraction() ran inside a solve")

        # the array view inherits the method, so this covers both substrates
        monkeypatch.setattr(Population, "unique_fraction", forbidden)
        with path(substrate):
            report = repro.solve(repro.SolverSpec(
                instance="ft06", engine=engine, substrate=substrate,
                engine_params=params, ga={"population_size": 16},
                termination={"max_generations": 10}, seed=3))
        assert report.extra["substrate"] == substrate
        assert report.generations == 10

    def test_population_array_adapters_round_trip(self, ft06_problem):
        rng = np.random.default_rng(1)
        pop = Population(
            repro.Individual(ft06_problem.random_genome(rng), objective=float(i))
            for i in range(6))
        matrix, objectives = pop.to_arrays(ft06_problem)
        again = Population.from_arrays(ft06_problem, matrix, objectives)
        for a, b in zip(pop, again):
            assert np.array_equal(a.genome, b.genome)
            assert a.objective == b.objective

    def test_random_matrix_draws_match_random_genome(self, ft06_problem):
        a = ft06_problem.random_matrix(5, np.random.default_rng(6))
        rng = np.random.default_rng(6)
        expect = np.stack([ft06_problem.random_genome(rng)
                           for _ in range(5)])
        assert np.array_equal(a, expect)
