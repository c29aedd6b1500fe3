"""Batch (array-native) forms of the variation operators.

The scalar operators in :mod:`repro.operators` act on one genome (or one
parent pair) per call; this module provides their population-wide twins
for the array substrate (:mod:`repro.core.substrate`): every function
takes whole ``(rows, n_genes)`` chromosome matrices and performs the
same transformation as ``rows`` scalar calls, with all per-gene work as
array operations -- the "keep the entire generation in flat array
form" substrate of Luo & El Baz's island/GPU follow-up papers
(arXiv:1903.10722, arXiv:1903.10741).

Every kernel routes its array math through the active backend namespace
(:func:`repro.core.backend.active_namespace`), so the same code runs on
``numpy`` (the default, byte-identical to calling NumPy directly), the
CI ``instrumented`` backend (which enforces the Array-API subset), or a
device namespace.  RNG draws stay on the ``np.random.Generator``-shaped
``rng`` argument -- the stream contracts below are defined in terms of
its call sequence, backend-independently.

Three conformance contracts hold throughout (pinned by
``tests/test_substrate.py``):

* **closure** -- every batch crossover/mutation preserves each row's
  multiset (and hence permutation validity) exactly as its scalar twin
  does;
* **kernel equality** -- a scalar operator with a twin here *is* its
  kernel on a one-row block, after a per-pair draw of the same cut
  points / masks (:class:`~repro.operators.crossover.KernelCrossover`);
  the tests pin each against a transcription of its former scalar loop,
  and ``batch_repair_to_multiset`` against the one-genome repair loop;
* **selection stream equality** -- a built-in selection *is* its index
  twin here on one population
  (:class:`~repro.operators.selection.IndexSelection`), so both paths
  make the same RNG calls and choose the same members; the tests pin
  each twin against its former scalar loop.  This is what makes the
  array substrate's rate-0 generations *exactly* equal to the per-pair
  loop's under a shared RNG.

The array substrate's *parameter drawing* is vectorised (one call for
all rows), so it is distribution-equivalent but not stream-identical to
the per-pair draws of the scalar operators -- the documented limit of
array conformance (see ``docs/architecture.md``, "One generation per
input").

Dispatch is by operator class: :func:`batch_selection_for` /
:func:`batch_crossover_for` / :func:`batch_mutation_for` map a
configured scalar operator instance to its batch twin, honouring the
instance's parameters.  Every built-in crossover and mutation twin is a
:class:`SplitTwin` -- a draw step that makes all RNG calls and a
row-wise kernel step that makes none -- so the island engine can draw
per island and vary every island's rows with one kernel call
(:func:`split_crossover_for` / :func:`split_mutation_for`,
:func:`stack_params`).  Third-party operators join via the
``register_batch_*`` hooks as one-shot twins.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from ..core.backend import active_namespace as _xp
from ..core.workspace import scratch
from .crossover import (ArithmeticCrossover, CompositeCrossover, Crossover,
                        JobBasedCrossover, NPointCrossover, OrderCrossover,
                        ParameterizedUniformCrossover, PMXCrossover,
                        UniformCrossover)
from .mutation import (AssignmentMutation, CompositeMutation,
                       GaussianKeyMutation, InversionMutation, Mutation,
                       ShiftMutation, SwapMutation)
from .selection import (ElitistRouletteSelection, RandomSelection,
                        RankSelection, RouletteWheelSelection, Selection,
                        StochasticUniversalSampling, TournamentSelection,
                        _normalised_probs)

__all__ = [
    "batch_selection_for", "batch_crossover_for", "batch_mutation_for",
    "register_batch_selection", "register_batch_crossover",
    "register_batch_mutation",
    "SplitTwin", "split_crossover_for", "split_mutation_for", "stack_params",
    "supported_batch_operators",
    "row_occurrence", "row_bincount", "batch_repair_to_multiset",
    "ox_kernel", "pmx_kernel", "jox_kernel", "npoint_kernel",
    "inversion_kernel", "shift_kernel",
]

Array = np.ndarray
Generator = np.random.Generator

_BATCH_SELECTIONS: dict[type, Callable] = {}
_BATCH_CROSSOVERS: dict[type, Callable | SplitTwin] = {}
_BATCH_MUTATIONS: dict[type, Callable | SplitTwin] = {}


# -- shared integer-genome machinery ---------------------------------------------

def row_occurrence(X: np.ndarray, n_values: int) -> np.ndarray:
    """``occ[i, j]`` = earlier occurrences of ``X[i, j]`` within row ``i``.

    The building block behind every vectorised order-preserving fill
    (repair, OX, JOX): a stable argsort groups equal ``(row, value)``
    keys while keeping positions in order, so the index within each
    group is exactly the left-to-right occurrence counter the scalar
    operators maintain one element at a time.
    """
    xp = _xp()
    m, n = X.shape
    keys = (X + xp.arange(m, dtype=xp.int64)[:, None] * n_values).ravel()
    order = xp.stable_argsort(keys)
    sorted_keys = keys[order]
    pos = xp.arange(keys.size, dtype=xp.int64)
    starts = xp.empty(keys.size, dtype=bool)
    starts[0] = True
    starts[1:] = sorted_keys[1:] != sorted_keys[:-1]
    group_start = xp.maximum_accumulate(xp.where(starts, pos, 0))
    occ = xp.empty(keys.size, dtype=xp.int64)
    occ[order] = pos - group_start
    return occ.reshape(m, n)


def row_bincount(X: np.ndarray, n_values: int,
                 mask: np.ndarray | None = None) -> np.ndarray:
    """Per-row value counts: ``out[i, v]`` = occurrences of v in row i.

    ``mask`` restricts counting to selected positions.
    """
    xp = _xp()
    m, n = X.shape
    keys = xp.add(X, xp.arange(m, dtype=xp.int64)[:, None] * n_values,
                  out=scratch("bincount.keys", (m, n), xp.int64))
    keys = keys[mask] if mask is not None else xp.reshape(keys, (-1,))
    return xp.reshape(xp.bincount(keys, minlength=m * n_values),
                      (m, n_values))


def _value_range(A: np.ndarray, B: np.ndarray) -> int:
    return int(max(A.max(initial=0), B.max(initial=0))) + 1


def batch_repair_to_multiset(children: np.ndarray, counts: np.ndarray,
                             donors: np.ndarray) -> np.ndarray:
    """Rewrite each row so value v appears ``counts[row, v]`` times.

    Scanning left to right, a row keeps each gene still within its
    value's quota and rewrites the surplus with the missing values.
    ``counts`` is ``(rows, n_values)`` -- the target multiset per row;
    ``donors`` supplies the missing values in donor order, and values a
    donor row cannot cover (parents with different multisets) follow in
    ascending order (:mod:`repro.operators.repair`).
    """
    xp = _xp()
    m, n = children.shape
    n_values = counts.shape[1]
    occ_child = row_occurrence(children, n_values)
    rows = xp.arange(m, dtype=xp.int64)[:, None]
    legal = occ_child < counts[rows, children]
    if legal.all():
        return children.copy()
    child_counts = row_bincount(children, n_values)
    missing = counts - xp.minimum(child_counts, counts)
    occ_donor = row_occurrence(donors, n_values)
    take = occ_donor < missing[rows, donors]
    fill = donors[take]
    short = missing - row_bincount(donors, n_values, mask=take)
    if short.any():
        # per row: the donor's values, then the uncovered ones ascending
        extra = xp.repeat(xp.tile(xp.arange(n_values, dtype=xp.int64), m),
                          short.ravel())
        owner = xp.concatenate([
            xp.nonzero(take)[0],
            xp.repeat(xp.arange(m, dtype=xp.int64), xp.sum(short, axis=1))])
        fill = xp.concatenate([fill, extra])[xp.stable_argsort(owner)]
    out = children.copy()
    # both masks enumerate row-major with equal per-row counts, so the
    # k-th surplus position and the k-th filler share a row
    out[~legal] = fill
    return out


def _sorted_distinct_pairs(n: int, rows: int, rng: np.random.Generator,
                           high: int | None = None
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Per-row uniform distinct index pairs ``lo < hi`` in ``[0, n)``."""
    xp = _xp()
    high = n if high is None else high
    i = rng.integers(0, high, size=rows)
    j = rng.integers(0, high - 1, size=rows)
    j = j + (j >= i)
    return xp.minimum(i, j), xp.maximum(i, j)


# -- crossover kernels (deterministic given cuts/masks) --------------------------

def ox_kernel(A: np.ndarray, B: np.ndarray, lo: np.ndarray,
              hi: np.ndarray) -> np.ndarray:
    """Row-wise OX child: keep ``A[lo:hi)``, fill from B wrapped at hi.

    The whole of ``OrderCrossover`` (multiset-safe, wrap-around fill
    order), which calls it on one-row blocks.  B's value at a fill slot
    is taken while its occurrence count in the wrapped order is below
    what A's segment left missing; when every row of A is a permutation,
    all counts are zero, so the sort behind :func:`row_occurrence` is
    skipped.  The row-sized index tables are this thread's scratch.
    """
    xp = _xp()
    m, n = A.shape
    n_values = _value_range(A, B)
    rows = xp.arange(m, dtype=xp.int64)[:, None]
    pos = xp.arange(n, dtype=xp.int64)
    seg = (pos >= lo[:, None]) & (pos < hi[:, None])
    need = row_bincount(A, n_values)
    distinct = int(xp.max(need)) <= 1
    need -= row_bincount(A, n_values, mask=seg)
    # rotated frame: slot t holds original position (hi + t) mod n, so
    # slots 0 .. n-seg_len-1 enumerate hi..n-1, 0..lo-1 -- the OX fill
    # order; rot holds the flat index row * n + that position
    rot = scratch("ox.rotation", (m, n), xp.int64)
    xp.add(hi[:, None], pos, out=rot)
    xp.remainder(rot, n, out=rot)
    rot += rows * n
    B_rot = xp.take_into(B, rot, out=scratch("ox.donor", (m, n), B.dtype))
    lookup = scratch("ox.lookup", (m, n), xp.int64)
    xp.add(B_rot, rows * n_values, out=lookup)
    need_rot = xp.take_into(need, lookup,
                            out=scratch("ox.need", (m, n), xp.int64))
    if distinct:
        take = need_rot > 0
    else:
        take = row_occurrence(B_rot, n_values) < need_rot
    seg_len = hi - lo
    fill_slots = pos < (n - seg_len)[:, None]
    child = xp.copy(A)
    xp.reshape(child, (-1,))[rot[fill_slots]] = B_rot[take]
    return child


def pmx_kernel(A: np.ndarray, B: np.ndarray, lo: np.ndarray,
               hi: np.ndarray) -> np.ndarray:
    """Row-wise PMX child (strict permutations of ``range(n)``).

    The whole of ``PMXCrossover``: the copied B segment induces a value
    mapping that outside positions follow until they leave the segment's
    value set (chains resolved iteratively, all rows at once).
    """
    xp = _xp()
    m, n = A.shape
    rows = xp.arange(m, dtype=xp.int64)[:, None]
    pos = xp.arange(n, dtype=xp.int64)
    seg = (pos >= lo[:, None]) & (pos < hi[:, None])
    seg_rows = xp.nonzero(seg)[0]
    mapping = xp.tile(xp.arange(n, dtype=xp.int64), (m, 1))
    mapping[seg_rows, B[seg]] = A[seg]
    in_b_seg = xp.zeros((m, n), dtype=bool)
    in_b_seg[seg_rows, B[seg]] = True
    values = A.copy()
    conflict = in_b_seg[rows, values] & ~seg
    for _ in range(n):
        if not conflict.any():
            break
        values = xp.where(conflict, mapping[rows, values], values)
        conflict = in_b_seg[rows, values] & ~seg
    return xp.where(seg, B, values)


def jox_kernel(A: np.ndarray, B: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Row-wise JOX child: jobs with ``keep[row, job]`` hold A's positions,
    the rest are filled with B's occurrences in B order.

    The whole of ``JobBasedCrossover``.  The keep lookups run through
    this thread's scratch.
    """
    xp = _xp()
    m, n = A.shape
    offsets = xp.arange(m, dtype=xp.int64)[:, None] * keep.shape[1]
    lookup = scratch("jox.lookup", (m, n), xp.int64)
    kept_a = xp.take_into(keep, xp.add(A, offsets, out=lookup),
                          out=scratch("jox.kept_a", (m, n), bool))
    child = xp.where(kept_a, A, -1)
    free_b = xp.take_into(keep, xp.add(B, offsets, out=lookup),
                          out=scratch("jox.free_b", (m, n), bool))
    xp.logical_not(kept_a, out=kept_a)
    xp.logical_not(free_b, out=free_b)
    child[kept_a] = B[free_b]
    return child


def _cut_mask(shape: tuple[int, int], cuts: np.ndarray) -> np.ndarray:
    """Row-wise n-point exchange mask from sorted ``(rows, k)`` cuts:
    ``True`` where the child takes parent B's gene."""
    xp = _xp()
    m, n = shape
    delta = xp.zeros((m, n), dtype=xp.int64)
    xp.scatter_add(delta, (xp.arange(m, dtype=xp.int64)[:, None], cuts), 1)
    return (xp.cumsum(delta, axis=1) % 2).astype(bool)


def npoint_kernel(A: np.ndarray, B: np.ndarray,
                  cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise n-point exchange from sorted ``(rows, k)`` cuts.

    Returns the raw (pre-repair) children; segment parity starts at
    parent A exactly like ``NPointCrossover``.
    """
    xp = _xp()
    mask = _cut_mask(A.shape, cuts)
    return xp.where(mask, B, A), xp.where(mask, A, B)


def inversion_kernel(X: np.ndarray, lo: np.ndarray,
                     hi: np.ndarray) -> np.ndarray:
    """Reverse the inclusive segment ``[lo, hi]`` of every row."""
    xp = _xp()
    pos = xp.arange(X.shape[1], dtype=xp.int64)
    seg = (pos >= lo[:, None]) & (pos <= hi[:, None])
    idx = xp.where(seg, lo[:, None] + hi[:, None] - pos, pos)
    return xp.take_along_axis(X, idx, axis=1)


def shift_kernel(X: np.ndarray, src: np.ndarray,
                 dst: np.ndarray) -> np.ndarray:
    """Remove gene ``src`` and reinsert at ``dst`` (of the n-1 list), rowwise.

    ``ShiftMutation``'s delete-then-insert, row by row.
    """
    xp = _xp()
    m, n = X.shape
    pos = xp.arange(n, dtype=xp.int64)[None, :]
    s, d = src[:, None], dst[:, None]
    after_delete = pos - (pos > s)
    dest = after_delete + (after_delete >= d)
    dest = xp.where(pos == s, d, dest)
    out = xp.empty_like(X)
    out[xp.arange(m, dtype=xp.int64)[:, None], dest] = X
    return out


# -- split twins -----------------------------------------------------------------
#
# Every built-in crossover and mutation twin comes in two halves: ``draw``
# makes all of the twin's RNG calls and returns its parameters (cut
# points, masks, redrawn values) with rows on axis 0, and ``kernel``
# applies them row by row without touching the RNG.  The one-shot twin
# that ``batch_*_for`` returns is draw-then-kernel, so both forms share
# one implementation -- and because kernels never draw, the parameters
# of several populations' rows can be stacked (:func:`stack_params`) and
# varied by one kernel call while each population keeps its own stream.
# A crossover twin also has a one-child kernel: a cellular cell keeps
# only its first child, and computing the second would double the work.
# Symmetric crossovers are written once, as that child, and their pair
# kernel swaps the parents.

class SplitTwin(NamedTuple):
    """A batch twin as a draw step plus a row-wise, draw-free kernel step.

    Crossover: ``draw(op, A, B, rng) -> params``,
    ``kernel(op, A, B, params) -> (CA, CB)`` and the one-child kernel
    ``child(op, A, B, params) -> CA``, byte-equal to ``kernel(...)[0]``
    (what a cellular cell keeps; :func:`split_crossover_for` derives it
    from ``kernel`` for a twin registered without one).  Mutation:
    ``draw(op, X, rng) -> params`` (the built-ins read only ``X.shape``)
    and ``kernel(op, X, params) -> X'``; ``child`` stays ``None``.
    """

    draw: Callable
    kernel: Callable
    child: Callable | None = None


def _pass_through(op, *args):
    """Kernel half of a one-shot twin: its draw already made the result."""
    return args[-1]


def _as_split(twin: Callable | SplitTwin) -> SplitTwin:
    """A registered twin as a :class:`SplitTwin`.

    A one-shot third-party twin (``fn(op, *rows, rng)``) has the draw
    signature already: it becomes a draw that makes the whole call and a
    kernel that passes its result through.
    """
    return twin if isinstance(twin, SplitTwin) else SplitTwin(twin,
                                                              _pass_through)


def stack_params(blocks: Sequence[Any]) -> Any:
    """Concatenate several row blocks' draw params along the row axis.

    ``kernel(op, concat(rows), stack_params(params))`` equals the
    concatenation of the blocks' own kernel calls.  Params are ``None``,
    arrays with rows on axis 0 (1-D redraw lists, taken in row-major mask
    order, concatenate the same way) or tuples/lists of params.  2-D
    params of unequal width -- JOX keep masks over job ids, when blocks
    see different job counts -- are padded with zero (``False``) columns,
    which the kernels never index.
    """
    first = blocks[0]
    if len(blocks) == 1 or first is None:
        return first
    if isinstance(first, (tuple, list)):
        return type(first)(stack_params(part) for part in zip(*blocks))
    xp = _xp()
    if first.ndim == 2:
        width = max(block.shape[1] for block in blocks)
        blocks = [block if block.shape[1] == width
                  else xp.concatenate([block, xp.zeros(
                      (block.shape[0], width - block.shape[1]),
                      dtype=block.dtype)], axis=1)
                  for block in blocks]
    return xp.concatenate(blocks)


def _live_parts(op, what: str) -> list[tuple[Any, slice]]:
    """``(part_op, columns)`` of a composite operator's non-empty parts."""
    if op.spans is None:
        raise ValueError(
            f"composite {what} has no part spans; the encoding must "
            f"publish part_spans for the array substrate (or use "
            f"substrate='object')")
    parts, col = [], 0
    for part_op, width in zip(op.parts, op.spans):
        if part_op is not None and width > 0:
            parts.append((part_op, slice(col, col + width)))
        col += width
    return parts


# -- batch crossovers ------------------------------------------------------------

def register_batch_crossover(scalar_cls: type):
    """Register ``fn(op, A, B, rng) -> (CA, CB)`` as the batch twin.

    A one-shot twin has no draw/kernel split; the island engine's fused
    generation calls it once per island, and a cellular grid keeps the
    first child of its pair.
    """
    def deco(fn):
        _BATCH_CROSSOVERS[scalar_cls] = fn
        return fn
    return deco


def _split_crossover(scalar_cls: type, draw: Callable, child: Callable):
    """Register the decorated pair ``kernel(op, A, B, params)`` with
    ``draw`` and the one-child ``child``."""
    def deco(kernel):
        _BATCH_CROSSOVERS[scalar_cls] = SplitTwin(draw, kernel, child)
        return kernel
    return deco


def _symmetric_crossover(scalar_cls: type, draw: Callable):
    """Register the decorated one-child ``child(op, A, B, params)`` with
    ``draw``; the pair is ``child(A, B), child(B, A)`` under one draw,
    the parents swapping roles."""
    def deco(child):
        def kernel(op, A: Array, B: Array, params) -> tuple[Array, Array]:
            return child(op, A, B, params), child(op, B, A, params)
        _BATCH_CROSSOVERS[scalar_cls] = SplitTwin(draw, kernel, child)
        return child
    return deco


def _draw_segment(op, A: Array, B: Array, rng: Generator):
    """Per-row segment ``[lo, hi)`` of at least two genes (OX, PMX)."""
    m, n = A.shape
    if n < 2:
        return None
    lo, hi = _sorted_distinct_pairs(n, m, rng)
    return lo, hi + 1


@_symmetric_crossover(OrderCrossover, _draw_segment)
def _ox_child(op, A: Array, B: Array, params) -> Array:
    return A.copy() if params is None else ox_kernel(A, B, *params)


@_symmetric_crossover(PMXCrossover, _draw_segment)
def _pmx_child(op, A: Array, B: Array, params) -> Array:
    return A.copy() if params is None else pmx_kernel(A, B, *params)


def _draw_jox(op, A: Array, B: Array, rng: Generator) -> Array:
    """Keep mask over job ids, as wide as these parents' job count."""
    return rng.random((A.shape[0], _value_range(A, B))) < 0.5


@_symmetric_crossover(JobBasedCrossover, _draw_jox)
def _jox_child(op, A: Array, B: Array, keep: Array) -> Array:
    return jox_kernel(A, B, keep)


def _repairs(op, A: Array) -> bool:
    return op.repair and np.issubdtype(A.dtype, np.integer)


def _exchange_child(op, A: Array, B: Array, mask: Array) -> Array:
    """A with B's genes where ``mask``, repaired to A's multiset from
    donor B when ``op`` repairs."""
    child = _xp().where(mask, B, A)
    if _repairs(op, A):
        child = batch_repair_to_multiset(
            child, row_bincount(A, _value_range(A, B)), B)
    return child


def _exchange_pair(op, A: Array, B: Array,
                   mask: Array) -> tuple[Array, Array]:
    """:func:`_exchange_child` and B's child, also repaired to A's
    multiset (from donor A).

    Both children of n-point and uniform crossover keep A's multiset, so
    once the parents' multisets differ B's child is not the one child
    with the parents swapped.
    """
    xp = _xp()
    CA, CB = xp.where(mask, B, A), xp.where(mask, A, B)
    if _repairs(op, A):
        counts = row_bincount(A, _value_range(A, B))
        CA = batch_repair_to_multiset(CA, counts, B)
        CB = batch_repair_to_multiset(CB, counts, A)
    return CA, CB


def _draw_npoint(op: NPointCrossover, A: Array, B: Array,
                 rng: Generator):
    """Sorted ``(rows, k)`` cut positions in ``1 .. n-1``."""
    xp = _xp()
    m, n = A.shape
    if n < 2:
        return None
    k = min(op.points, n - 1)
    if k == n - 1:
        return xp.tile(xp.arange(1, n, dtype=xp.int64), (m, 1))
    # k smallest random keys over positions 1..n-1 = a uniform k-subset
    # without replacement, like the scalar rng.choice
    keys = rng.random((m, n - 1))
    return xp.sort(xp.argpartition(keys, k - 1, axis=1)[:, :k],
                   axis=1).astype(xp.int64) + 1


def _npoint_child(op: NPointCrossover, A: Array, B: Array, cuts) -> Array:
    if cuts is None:
        return A.copy()
    return _exchange_child(op, A, B, _cut_mask(A.shape, cuts))


@_split_crossover(NPointCrossover, _draw_npoint, _npoint_child)
def _batch_npoint(op: NPointCrossover, A: Array, B: Array,
                  cuts) -> tuple[Array, Array]:
    if cuts is None:
        return A.copy(), B.copy()
    return _exchange_pair(op, A, B, _cut_mask(A.shape, cuts))


def _draw_uniform(op: UniformCrossover, A: Array, B: Array,
                  rng: Generator) -> Array:
    return rng.random(A.shape) < op.swap_prob


_BATCH_CROSSOVERS[UniformCrossover] = SplitTwin(
    _draw_uniform, _exchange_pair, _exchange_child)


def _draw_param_uniform(op: ParameterizedUniformCrossover, A: Array,
                        B: Array, rng: Generator) -> Array:
    return rng.random(A.shape) < op.bias


@_symmetric_crossover(ParameterizedUniformCrossover, _draw_param_uniform)
def _param_uniform_child(op: ParameterizedUniformCrossover, A: Array,
                         B: Array, take_a: Array) -> Array:
    xp = _xp()
    return xp.where(take_a, xp.asarray(A, dtype=xp.float64),
                    xp.asarray(B, dtype=xp.float64))


def _draw_arithmetic(op: ArithmeticCrossover, A: Array, B: Array,
                     rng: Generator):
    """Per-row blend weights; ``None`` for a fixed weight."""
    if op.fixed_weight is not None:
        return None
    return rng.random((A.shape[0], 1))


@_symmetric_crossover(ArithmeticCrossover, _draw_arithmetic)
def _arithmetic_child(op: ArithmeticCrossover, A: Array, B: Array,
                      w) -> Array:
    """``w * A + (1 - w) * B``; with the parents swapped it adds the same
    two products in the other order, which IEEE addition does exactly."""
    xp = _xp()
    if w is None:
        w = op.fixed_weight
    return (w * xp.asarray(A, dtype=xp.float64)
            + (1 - w) * xp.asarray(B, dtype=xp.float64))


def _draw_composite_crossover(op: CompositeCrossover, A: Array, B: Array,
                              rng: Generator) -> list:
    return [split_crossover_for(part).draw(part, A[:, cols], B[:, cols],
                                           rng)
            for part, cols in _live_parts(op, "crossover")]


def _composite_child(op: CompositeCrossover, A: Array, B: Array,
                     params: list) -> Array:
    """The first child of :func:`_batch_composite_crossover`: each part's
    one-child kernel on its span."""
    CA = A.copy()
    for (part, cols), part_params in zip(_live_parts(op, "crossover"),
                                         params):
        CA[:, cols] = split_crossover_for(part).child(
            part, A[:, cols], B[:, cols], part_params)
    return CA


@_split_crossover(CompositeCrossover, _draw_composite_crossover,
                  _composite_child)
def _batch_composite_crossover(op: CompositeCrossover, A: Array, B: Array,
                               params: list) -> tuple[Array, Array]:
    """Column-sliced composite: each part's registered twin on its span.

    Needs ``op.spans`` (the encoding's ``part_spans``) to know where each
    part lives in the stacked row; ``None`` parts copy through.  Part
    twins must preserve their slice's dtype (true for all integer-genome
    operators -- the composite encodings stack to int64 rows).
    """
    CA, CB = A.copy(), B.copy()
    for (part, cols), part_params in zip(_live_parts(op, "crossover"),
                                         params):
        CA[:, cols], CB[:, cols] = split_crossover_for(part).kernel(
            part, A[:, cols], B[:, cols], part_params)
    return CA, CB


# -- batch mutations -------------------------------------------------------------

def register_batch_mutation(scalar_cls: type):
    """Register ``fn(op, X, rng) -> X'`` as the batch twin.

    Like a one-shot crossover twin, it is called once per island.
    """
    def deco(fn):
        _BATCH_MUTATIONS[scalar_cls] = fn
        return fn
    return deco


def _split_mutation(scalar_cls: type, draw: Callable):
    """Register the decorated ``kernel(op, X, params)`` with ``draw``."""
    def deco(kernel):
        _BATCH_MUTATIONS[scalar_cls] = SplitTwin(draw, kernel)
        return kernel
    return deco


def _draw_swap(op: SwapMutation, X: Array, rng: Generator):
    """One ``(i, j)`` position pair per row for each of ``op.pairs`` swaps."""
    m, n = X.shape
    if n < 2:
        return None
    return tuple(_sorted_distinct_pairs(n, m, rng) for _ in range(op.pairs))


@_split_mutation(SwapMutation, _draw_swap)
def _batch_swap(op: SwapMutation, X: Array, pairs) -> Array:
    xp = _xp()
    out = X.copy()
    if pairs is None:
        return out
    rows = xp.arange(X.shape[0], dtype=xp.int64)
    for i, j in pairs:
        vi = out[rows, i].copy()
        out[rows, i] = out[rows, j]
        out[rows, j] = vi
    return out


def _draw_shift(op: ShiftMutation, X: Array, rng: Generator):
    m, n = X.shape
    if n < 2:
        return None
    src = rng.integers(0, n, size=m)
    return src, rng.integers(0, n - 1, size=m)


@_split_mutation(ShiftMutation, _draw_shift)
def _batch_shift(op: ShiftMutation, X: Array, params) -> Array:
    return X.copy() if params is None else shift_kernel(X, *params)


def _draw_inversion(op: InversionMutation, X: Array, rng: Generator):
    m, n = X.shape
    return None if n < 2 else _sorted_distinct_pairs(n, m, rng)


@_split_mutation(InversionMutation, _draw_inversion)
def _batch_inversion(op: InversionMutation, X: Array, params) -> Array:
    return X.copy() if params is None else inversion_kernel(X, *params)


def _draw_assignment(op: AssignmentMutation, X: Array,
                     rng: Generator) -> tuple[Array, Array]:
    """Mutated-gene mask plus the redrawn values in row-major mask order.

    Gene ``j`` belongs to domain ``domain_sizes[j % len(domain_sizes)]``,
    the same modulo the scalar operator applies; the redraw itself is
    vectorised (distribution-equivalent, like every batch mutation).
    """
    xp = _xp()
    mask = rng.random(X.shape) < op.rate
    if not mask.any():
        return mask, xp.empty(0, dtype=xp.int64)
    # domain table is host-side operator state, like op.domain_sizes
    sizes = np.maximum(np.asarray(op.domain_sizes, dtype=np.int64), 1)
    hi = sizes[np.arange(X.shape[1]) % sizes.size]
    return mask, rng.integers(0, np.broadcast_to(hi, X.shape)[mask])


@_split_mutation(AssignmentMutation, _draw_assignment)
def _batch_assignment(op: AssignmentMutation, X: Array, params) -> Array:
    """Row-wise assignment reset: mutated genes take their redrawn values."""
    mask, values = params
    out = X.copy()
    if values.size:
        out[mask] = values
    return out


def _draw_gaussian(op: GaussianKeyMutation, X: Array,
                   rng: Generator) -> tuple[Array, Array]:
    xp = _xp()
    mask = rng.random(X.shape) < op.rate
    hits = int(mask.sum())
    noise = (rng.normal(0, op.sigma, hits) if hits
             else xp.empty(0, dtype=xp.float64))
    return mask, noise


@_split_mutation(GaussianKeyMutation, _draw_gaussian)
def _batch_gaussian(op: GaussianKeyMutation, X: Array, params) -> Array:
    xp = _xp()
    mask, noise = params
    out = xp.asarray(X, dtype=xp.float64).copy()
    if noise.size:
        out[mask] = xp.clip(out[mask] + noise, 0.0, 1.0 - 1e-12)
    return out


def _draw_composite_mutation(op: CompositeMutation, X: Array,
                             rng: Generator) -> list:
    return [split_mutation_for(part).draw(part, X[:, cols], rng)
            for part, cols in _live_parts(op, "mutation")]


@_split_mutation(CompositeMutation, _draw_composite_mutation)
def _batch_composite_mutation(op: CompositeMutation, X: Array,
                              params: list) -> Array:
    """Column-sliced composite: each part's registered twin on its span."""
    out = X.copy()
    for (part, cols), part_params in zip(_live_parts(op, "mutation"),
                                         params):
        out[:, cols] = split_mutation_for(part).kernel(part, X[:, cols],
                                                       part_params)
    return out


# -- batch selections ------------------------------------------------------------
#
# Each twin maps ``(fitness, objectives, k, rng)`` to the chosen
# indices.  The built-in selections' calls run these twins
# (IndexSelection), so per-pair and array generations select alike.

def register_batch_selection(scalar_cls: type):
    """Register ``fn(op, fitness, objectives, k, rng) -> idx`` as twin."""
    def deco(fn):
        _BATCH_SELECTIONS[scalar_cls] = fn
        return fn
    return deco


@register_batch_selection(RouletteWheelSelection)
def _batch_roulette(op, fitness, objectives, k, rng) -> np.ndarray:
    xp = _xp()
    probs = _normalised_probs(fitness)
    return xp.asarray(
        rng.choice(fitness.size, size=k, replace=True, p=probs),
        dtype=xp.int64)


@register_batch_selection(StochasticUniversalSampling)
def _batch_sus(op, fitness, objectives, k, rng) -> np.ndarray:
    xp = _xp()
    probs = _normalised_probs(fitness)
    cum = xp.cumsum(probs)
    start = rng.random() / k
    pointers = start + xp.arange(k, dtype=xp.int64) / k
    idx = xp.searchsorted(cum, pointers, side="right")
    idx = xp.clip(idx, 0, fitness.size - 1)
    # shuffle a Python list, as the scalar loop shuffled its list of
    # chosen individuals, so the Fisher-Yates draws (and permutation) match
    chosen = [int(i) for i in idx]
    rng.shuffle(chosen)
    return xp.asarray(chosen, dtype=xp.int64)


@register_batch_selection(TournamentSelection)
def _batch_tournament(op: TournamentSelection, fitness, objectives, k,
                      rng) -> np.ndarray:
    xp = _xp()
    n = fitness.size
    entrants = rng.integers(0, n, size=(k, op.size))
    winners = entrants[xp.arange(k, dtype=xp.int64),
                       xp.argmax(fitness[entrants], axis=1)]
    return winners.astype(xp.int64)


@register_batch_selection(ElitistRouletteSelection)
def _batch_elitist_roulette(op: ElitistRouletteSelection, fitness,
                            objectives, k, rng) -> np.ndarray:
    xp = _xp()
    n_elite = min(k, int(round(op.elite_fraction * k)))
    elites = xp.stable_argsort(objectives)[:n_elite]
    rest = _batch_roulette(op, fitness, objectives, k - n_elite, rng)
    return xp.concatenate([elites.astype(xp.int64), rest])


@register_batch_selection(RandomSelection)
def _batch_random(op, fitness, objectives, k, rng) -> np.ndarray:
    xp = _xp()
    return xp.asarray(rng.integers(0, fitness.size, size=k), dtype=xp.int64)


@register_batch_selection(RankSelection)
def _batch_rank(op, fitness, objectives, k, rng) -> np.ndarray:
    xp = _xp()
    order = xp.argsort(xp.argsort(fitness))  # 0 = worst
    weights = (order + 1).astype(xp.float64)
    probs = weights / weights.sum()
    return xp.asarray(
        rng.choice(fitness.size, size=k, replace=True, p=probs),
        dtype=xp.int64)


# -- dispatch --------------------------------------------------------------------

def _lookup(registry: dict[type, Callable], op, what: str) -> Callable:
    for cls in type(op).__mro__:
        if cls in registry:
            if isinstance(op, (CompositeCrossover, CompositeMutation)):
                for part, _ in _live_parts(op, what):  # spans + part twins
                    _lookup(registry, part, what)
            return registry[cls]
    supported = sorted(c.__name__ for c in registry)
    raise ValueError(
        f"no batch {what} registered for {type(op).__name__}; the array "
        f"substrate supports: {supported} (register one via "
        f"repro.operators.batch.register_batch_{what})")


def batch_selection_for(op: Selection) -> Callable:
    """``(fitness, objectives, k, rng) -> idx`` twin of scalar ``op``."""
    fn = _lookup(_BATCH_SELECTIONS, op, "selection")
    return lambda fitness, objectives, k, rng: fn(op, fitness, objectives,
                                                  k, rng)


def split_crossover_for(op: Crossover) -> SplitTwin:
    """Draw, pair-kernel and one-child halves of scalar ``op``'s batch
    crossover twin.

    A twin registered without a one-child kernel (a one-shot twin) gets
    one that keeps the first child of its pair.
    """
    twin = _as_split(_lookup(_BATCH_CROSSOVERS, op, "crossover"))
    if twin.child is not None:
        return twin
    pair = twin.kernel
    return twin._replace(
        child=lambda op, A, B, params: pair(op, A, B, params)[0])


def split_mutation_for(op: Mutation) -> SplitTwin:
    """Draw and kernel halves of scalar ``op``'s batch mutation twin."""
    return _as_split(_lookup(_BATCH_MUTATIONS, op, "mutation"))


def batch_crossover_for(op: Crossover, pair: bool = True) -> Callable:
    """``(A, B, rng) -> (CA, CB)`` twin of scalar ``op``: draw, then kernel.

    ``pair=False`` gives ``(A, B, rng) -> CA``: the same draw, then the
    one-child kernel, so the second child is never computed.
    """
    twin = split_crossover_for(op)
    kernel = twin.kernel if pair else twin.child
    return lambda A, B, rng: kernel(op, A, B, twin.draw(op, A, B, rng))


def batch_mutation_for(op: Mutation) -> Callable:
    """``(X, rng) -> X'`` twin of scalar ``op``: draw, then kernel."""
    twin = split_mutation_for(op)
    return lambda X, rng: twin.kernel(op, X, twin.draw(op, X, rng))


def supported_batch_operators() -> dict[str, list[str]]:
    """Scalar operator class names with a registered batch twin."""
    return {
        "selection": sorted(c.__name__ for c in _BATCH_SELECTIONS),
        "crossover": sorted(c.__name__ for c in _BATCH_CROSSOVERS),
        "mutation": sorted(c.__name__ for c in _BATCH_MUTATIONS),
    }
