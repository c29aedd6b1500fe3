"""Crossover operators.

Covers every crossover named in the survey:

========================  =======================================  ==========
operator                  surveyed source                          genome kind
==========================================================================
n-point (+repair)         classic [1]                              perm/rep
uniform (+repair)         classic; Belkadi [37]                    perm/rep
parameterised uniform     Huang [24] (random keys)                 real
arithmetic                Zajicek [25]                             real
PMX (partially matched)   Asadzadeh [27]                           permutation
OX  (order)               classic                                  permutation
LOX (linear order)        Kokosinski [32]                          perm/rep
CX  (cycle)               Akhshabi [18], Gu [28]                   permutation
position-based            Park [26]                                permutation
job-based (JOX)           job shop op-encodings                    repetition
MSXF (multi-step fusion)  Bozejko [30]                             perm/rep
path relinking            Spanos [29]                              perm/rep
THX (time-horizon-like)   Lin [21]                                 repetition
composite                 flexible shops [36][37]                  composite
==========================================================================

All operators are classes with signature
``xover(parent_a, parent_b, rng) -> (child_a, child_b)`` acting on raw
genomes (ndarrays / tuples).  Permutation operators assume int genomes;
repetition-safe ones accept any multiset and preserve it exactly (tested
property: multiset closure).

Every operator with a row-wise kernel in :mod:`repro.operators.batch`
is a :class:`KernelCrossover`: a per-pair :meth:`~KernelCrossover.draw`
makes the RNG calls its replaced scalar loop made, and the call is that
draw plus the kernel on a one-row block -- the operator has no scalar
child loop of its own.  Multi-dimensional genomes reach the kernel
flattened in row-major order.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Sequence

import numpy as np

__all__ = [
    "Crossover",
    "KernelCrossover",
    "NPointCrossover",
    "UniformCrossover",
    "ParameterizedUniformCrossover",
    "ArithmeticCrossover",
    "PMXCrossover",
    "OrderCrossover",
    "LinearOrderCrossover",
    "CycleCrossover",
    "PositionBasedCrossover",
    "JobBasedCrossover",
    "MultiStepCrossoverFusion",
    "PathRelinkingCrossover",
    "TimeHorizonCrossover",
    "CompositeCrossover",
    "default_crossover_for",
]

Crossover = Callable[[np.ndarray, np.ndarray, np.random.Generator],
                     tuple[np.ndarray, np.ndarray]]


class KernelCrossover:
    """A crossover that is a per-pair draw plus a row-wise batch kernel.

    Subclasses implement :meth:`draw`; the call runs the kernel their
    class registers in :mod:`repro.operators.batch` on the one-row
    blocks of the two parents.  ``dtype`` is the dtype parents reach the
    kernel in (``None``: their own).
    """

    dtype: type | None = None

    def kernel_input(self, genome: np.ndarray
                     ) -> tuple["KernelCrossover", np.ndarray]:
        """``(operator, array)``: the operator whose kernel reproduces
        this one on ``genome``, and the genome as that kernel reads it."""
        return self, np.asarray(genome, dtype=self.dtype)

    def draw(self, a: np.ndarray, b: np.ndarray,
             rng: np.random.Generator) -> Any:
        """Kernel params for the pair ``(a, b)`` as a one-row block.

        Makes exactly this operator's RNG calls for one pair; ``a`` and
        ``b`` come as :meth:`kernel_input` returns them.
        """
        raise NotImplementedError

    def __call__(self, a, b, rng):
        from .batch import split_crossover_for
        op, a = self.kernel_input(a)
        b = self.kernel_input(b)[1]
        params = self.draw(a, b, rng)
        child_a, child_b = split_crossover_for(op).kernel(
            op, a.reshape(1, -1), b.reshape(1, -1), params)
        return child_a.reshape(a.shape), child_b.reshape(b.shape)


def _draw_segment(n: int, rng: np.random.Generator):
    """One pair's segment ``[lo, hi)`` of at least two genes (OX, PMX)."""
    if n < 2:
        return None
    pair = rng.choice(n, size=2, replace=False)
    pair.sort()
    return pair[:1], pair[1:] + 1


class _Repairing(KernelCrossover):
    """Exchange crossovers whose children are repaired to A's multiset.

    The object rule repairs 1-D integer genomes only, into int64; the
    kernel repairs every integer row, so a multi-dimensional integer
    genome runs through a repair-free copy of the operator.
    """

    repair: bool

    def kernel_input(self, genome):
        a = np.asarray(genome)
        if not (self.repair and np.issubdtype(a.dtype, np.integer)):
            return self, a
        if a.ndim == 1:
            return self, a.astype(np.int64, copy=False)
        plain = copy.copy(self)
        plain.repair = False
        return plain, a


class NPointCrossover(_Repairing):
    """Classic n-point crossover with multiset repair."""

    def __init__(self, points: int = 1, repair: bool = True):
        if points < 1:
            raise ValueError("need at least one cut point")
        self.points = points
        self.repair = repair

    def draw(self, a, b, rng):
        """Sorted cut positions in ``1 .. n-1`` over the flattened genome."""
        n = a.size
        if n < 2:
            return None
        k = min(self.points, n - 1)
        return np.sort(rng.choice(np.arange(1, n), size=k,
                                  replace=False)).reshape(1, -1)


class UniformCrossover(_Repairing):
    """Uniform crossover (gene-wise coin flips) with multiset repair."""

    def __init__(self, swap_prob: float = 0.5, repair: bool = True):
        if not 0.0 <= swap_prob <= 1.0:
            raise ValueError("swap_prob must be in [0, 1]")
        self.swap_prob = swap_prob
        self.repair = repair

    def draw(self, a, b, rng):
        return (rng.random(a.shape) < self.swap_prob).reshape(1, -1)


class ParameterizedUniformCrossover(KernelCrossover):
    """Biased uniform crossover on real vectors (Huang et al. [24]).

    Each gene of child A comes from parent A with probability ``bias``
    (> 0.5 keeps children close to the better parent, the [24] setting).
    No repair needed: random keys are always feasible.
    """

    dtype = np.float64

    def __init__(self, bias: float = 0.7):
        if not 0.0 <= bias <= 1.0:
            raise ValueError("bias must be in [0, 1]")
        self.bias = bias

    def draw(self, a, b, rng):
        return (rng.random(a.size) < self.bias).reshape(1, -1)


class ArithmeticCrossover(KernelCrossover):
    """Blend crossover on real vectors (Zajicek & Sucha [25]).

    ``child = w*a + (1-w)*b`` with a fresh random weight per call.
    """

    dtype = np.float64

    def __init__(self, fixed_weight: float | None = None):
        self.fixed_weight = fixed_weight

    def draw(self, a, b, rng):
        if self.fixed_weight is not None:
            return None
        return np.array([[rng.random()]])


class PMXCrossover(KernelCrossover):
    """Partially matched crossover (Asadzadeh & Zamanifar [27]).

    Strict permutation operator (genomes permute ``range(n)``): swaps a
    segment and resolves conflicts through the induced mapping.
    """

    dtype = np.int64

    def draw(self, a, b, rng):
        return _draw_segment(a.size, rng)


class OrderCrossover(KernelCrossover):
    """OX: keep a slice from parent A, fill the rest in parent-B order.

    Multiset-safe: works for permutations *and* permutations with
    repetition (occurrences are matched by count).
    """

    dtype = np.int64

    def draw(self, a, b, rng):
        return _draw_segment(a.size, rng)


class LinearOrderCrossover:
    """LOX (Kokosinski & Studzienny [32]): like OX but without wrap-around.

    The child keeps a slice of parent A in place and fills remaining
    positions left-to-right with parent B's genes in B's order.
    """

    def __call__(self, a, b, rng):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        n = a.size
        if n < 2:
            return a.copy(), b.copy()
        lo, hi = np.sort(rng.choice(n, size=2, replace=False))
        hi += 1
        return self._lox_child(a, b, lo, hi), self._lox_child(b, a, lo, hi)

    @staticmethod
    def _lox_child(a: np.ndarray, b: np.ndarray, lo: int, hi: int) -> np.ndarray:
        n = a.size
        counts = np.bincount(a, minlength=int(max(a.max(), b.max())) + 1)
        child = np.full(n, -1, dtype=np.int64)
        child[lo:hi] = a[lo:hi]
        used = np.bincount(a[lo:hi], minlength=counts.size)
        fill = []
        for v in b:
            if used[v] < counts[v]:
                fill.append(int(v))
                used[v] += 1
        positions = [i for i in range(n) if not lo <= i < hi]
        for pos, v in zip(positions, fill):
            child[pos] = v
        return child


class CycleCrossover:
    """CX (Akhshabi [18], Gu [28]): alternate parent cycles, no repair needed.

    Strict permutation operator (requires distinct genes).
    """

    def __call__(self, a, b, rng):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        n = a.size
        pos_in_a = np.empty(n, dtype=np.int64)
        pos_in_a[a] = np.arange(n)
        child_a = np.full(n, -1, dtype=np.int64)
        child_b = np.full(n, -1, dtype=np.int64)
        visited = np.zeros(n, dtype=bool)
        take_from_a = True
        for start in range(n):
            if visited[start]:
                continue
            cycle = []
            i = start
            while not visited[i]:
                visited[i] = True
                cycle.append(i)
                i = pos_in_a[b[i]]
            src_a, src_b = (a, b) if take_from_a else (b, a)
            for i in cycle:
                child_a[i] = src_a[i]
                child_b[i] = src_b[i]
            take_from_a = not take_from_a
        return child_a, child_b


class PositionBasedCrossover:
    """Position-based crossover (one of Park et al. [26]'s operators).

    A random subset of positions is inherited from parent A; remaining
    genes come from parent B in order.  Multiset-safe.
    """

    def __init__(self, keep_prob: float = 0.5):
        self.keep_prob = keep_prob

    def __call__(self, a, b, rng):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        mask = rng.random(a.size) < self.keep_prob
        return (self._pbx_child(a, b, mask), self._pbx_child(b, a, mask))

    @staticmethod
    def _pbx_child(a, b, mask):
        n = a.size
        counts = np.bincount(a, minlength=int(max(a.max(), b.max())) + 1)
        child = np.full(n, -1, dtype=np.int64)
        child[mask] = a[mask]
        used = np.bincount(a[mask], minlength=counts.size)
        fill = []
        for v in b:
            if used[v] < counts[v]:
                fill.append(int(v))
                used[v] += 1
        child[~mask] = fill
        return child


class JobBasedCrossover(KernelCrossover):
    """Job-based crossover (JOX) for operation-based JSSP chromosomes.

    A random subset of *jobs* keeps all its gene positions from parent A;
    the other jobs' occurrences are filled in parent-B order.  Preserves
    each job's occurrence count by construction.
    """

    dtype = np.int64

    def draw(self, a, b, rng):
        """Keep mask over the pair's job ids."""
        n_jobs = int(max(a.max(), b.max())) + 1
        return (rng.random(n_jobs) < 0.5).reshape(1, -1)


class MultiStepCrossoverFusion:
    """MSXF (Bozejko & Wodecki [30]).

    A stochastic local search biased toward the second parent: starting
    from parent A, repeatedly propose swap neighbours and prefer those
    reducing distance to parent B.  Needs an objective callable to accept /
    reject on quality; we use plain distance descent plus random tie
    breaking, the standard simplification when the fitness surface is
    expensive.  Returns (child, copy-of-better-parent).
    """

    def __init__(self, steps: int = 8):
        self.steps = steps

    @staticmethod
    def _distance(x: np.ndarray, y: np.ndarray) -> int:
        return int(np.count_nonzero(x != y))

    def __call__(self, a, b, rng):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        current = a.copy()
        for _ in range(self.steps):
            if self._distance(current, b) == 0:
                break
            i, j = rng.integers(0, current.size, size=2)
            cand = current.copy()
            cand[i], cand[j] = cand[j], cand[i]
            if self._distance(cand, b) <= self._distance(current, b):
                current = cand
        return current, b.copy()


class PathRelinkingCrossover:
    """Path relinking (Spanos et al. [29]).

    Walks from parent A toward parent B by repairing one mismatched
    position per step (swapping in the gene B has there); a random
    intermediate point of the path is the child.  Multiset-safe whenever
    both parents share a multiset, since every step is a swap within the
    chromosome.
    """

    def __call__(self, a, b, rng):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        path = [a.copy()]
        current = a.copy()
        mismatch = [i for i in range(a.size) if current[i] != b[i]]
        rng.shuffle(mismatch)
        for i in mismatch:
            if current[i] == b[i]:
                continue
            js = np.nonzero(current == b[i])[0]
            js = js[js != i]
            if js.size == 0:
                continue
            j = int(js[0])
            current[i], current[j] = current[j], current[i]
            path.append(current.copy())
        if len(path) <= 2:
            return current, b.copy()
        k = int(rng.integers(1, len(path) - 1))
        return path[k], path[max(1, len(path) - 1 - k)]


class TimeHorizonCrossover:
    """THX-style crossover (Lin et al. [21]).

    The original THX swaps the portions of two schedules before/after a
    random time horizon.  On operation-based chromosomes the faithful
    analogue is a cut at a random *scheduling position* (the decoder maps
    chromosome position to construction time): the child keeps parent A's
    prefix and completes with parent B's remaining operations in B's order
    -- i.e. a one-point version of job-based order crossover.
    """

    def __call__(self, a, b, rng):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        n = a.size
        if n < 2:
            return a.copy(), b.copy()
        cut = int(rng.integers(1, n))
        return self._thx_child(a, b, cut), self._thx_child(b, a, cut)

    @staticmethod
    def _thx_child(a, b, cut):
        counts = np.bincount(a, minlength=int(max(a.max(), b.max())) + 1)
        child = np.empty(a.size, dtype=np.int64)
        child[:cut] = a[:cut]
        used = np.bincount(a[:cut], minlength=counts.size)
        fill = []
        for v in b:
            if used[v] < counts[v]:
                fill.append(int(v))
                used[v] += 1
        child[cut:] = fill
        return child


class CompositeCrossover:
    """Apply one crossover per part of a tuple genome (flexible shops).

    ``parts[k]`` may be ``None`` to copy part k from the parents unchanged.
    ``spans`` (optional) records each part's column width in a stacked
    chromosome row; the batch twin slices the population matrix with it,
    so composites whose encodings publish ``part_spans`` can run on the
    array substrate.
    """

    def __init__(self, parts: Sequence[Crossover | None],
                 spans: Sequence[int] | None = None):
        self.parts = list(parts)
        self.spans = None if spans is None else tuple(int(w) for w in spans)
        if self.spans is not None and len(self.spans) != len(self.parts):
            raise ValueError("spans must give one column width per part")

    def __call__(self, a, b, rng):
        if not isinstance(a, tuple) or len(a) != len(self.parts):
            raise ValueError("composite crossover needs tuple genomes "
                             "matching the configured part count")
        outs_a, outs_b = [], []
        for op, pa, pb in zip(self.parts, a, b):
            if op is None:
                outs_a.append(np.asarray(pa).copy())
                outs_b.append(np.asarray(pb).copy())
            else:
                ca, cb = op(pa, pb, rng)
                outs_a.append(ca)
                outs_b.append(cb)
        return tuple(outs_a), tuple(outs_b)


def default_crossover_for(kind: str, part_kinds: tuple[str, ...] = (),
                          part_spans: tuple[int, ...] | None = None
                          ) -> Crossover:
    """A sensible default crossover per genome kind.

    ``part_spans`` (composite kinds only) forwards the encoding's stacked
    column widths so the composite operator is array-substrate capable.
    """
    from ..encodings.base import GenomeKind
    if kind == GenomeKind.PERMUTATION:
        return OrderCrossover()
    if kind == GenomeKind.REPETITION:
        return JobBasedCrossover()
    if kind == GenomeKind.REAL:
        return ParameterizedUniformCrossover(bias=0.6)
    if kind == GenomeKind.COMPOSITE:
        sub = []
        for pk in part_kinds:
            if pk == "permutation":
                sub.append(OrderCrossover())
            elif pk == "repetition":
                sub.append(JobBasedCrossover())
            elif pk == "assignment":
                sub.append(UniformCrossover(repair=False))
            elif pk == "frozen":  # dead placeholder part: copy through
                sub.append(None)
            else:  # real
                sub.append(ParameterizedUniformCrossover(bias=0.6))
        return CompositeCrossover(sub, spans=part_spans)
    raise ValueError(f"unknown genome kind {kind!r}")
