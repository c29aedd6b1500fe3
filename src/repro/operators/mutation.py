"""Mutation operators.

"Different from the binary encoding, the mutation for shop scheduling
problems works often based on the neighborhoods e.g. shift mutation
(insertion neighborhood) or pairwise interchange mutation (swap
neighborhood) to respect feasible solutions" (survey, Section III.A).

All operators are classes with signature ``mut(genome, rng) -> genome``
returning a *new* genome (inputs are never modified in place).

As with crossovers, every operator with a row-wise kernel in
:mod:`repro.operators.batch` is a :class:`KernelMutation`: a per-genome
:meth:`~KernelMutation.draw` that makes the RNG calls, and a call that is
that draw plus the kernel on a one-row block.  Draws read only the
genome's shape, never its values.  Multi-dimensional genomes are mutated
in row-major gene order and keep their shape.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

__all__ = [
    "Mutation",
    "KernelMutation",
    "SwapMutation",
    "ShiftMutation",
    "InversionMutation",
    "ScrambleMutation",
    "GaussianKeyMutation",
    "ResampleKeyMutation",
    "AssignmentMutation",
    "IntegerResetMutation",
    "CompositeMutation",
    "default_mutation_for",
]

Mutation = Callable[[np.ndarray, np.random.Generator], np.ndarray]


class KernelMutation:
    """A mutation that is a per-genome draw plus a row-wise batch kernel.

    Subclasses implement :meth:`draw`; the call runs the kernel their
    class registers in :mod:`repro.operators.batch` on the genome's
    one-row block.  ``dtype`` is the dtype genomes reach the kernel in
    (``None``: their own).
    """

    dtype: type | None = None

    def draw(self, genome: np.ndarray, rng: np.random.Generator) -> Any:
        """Kernel params for ``genome`` as a one-row block.

        Makes exactly this operator's RNG calls for one genome and reads
        only ``genome.shape``.
        """
        raise NotImplementedError

    def __call__(self, genome: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
        from .batch import split_mutation_for
        g = np.asarray(genome, dtype=self.dtype)
        params = self.draw(g, rng)
        out = split_mutation_for(self).kernel(self, g.reshape(1, -1), params)
        return out.reshape(g.shape)


def _draw_pair(n: int, rng: np.random.Generator):
    """Two distinct positions ``lo < hi`` as one-row index arrays."""
    pair = rng.choice(n, size=2, replace=False)
    pair.sort()
    return pair[:1], pair[1:]


class SwapMutation(KernelMutation):
    """Pairwise interchange (swap neighbourhood); ``pairs`` swaps per call."""

    def __init__(self, pairs: int = 1):
        if pairs < 1:
            raise ValueError("pairs must be positive")
        self.pairs = pairs

    def draw(self, genome, rng):
        n = genome.size
        if n < 2:
            return None
        return tuple(_draw_pair(n, rng) for _ in range(self.pairs))


class ShiftMutation(KernelMutation):
    """Shift / insertion neighbourhood: remove one gene, reinsert elsewhere."""

    def draw(self, genome, rng):
        n = genome.size
        if n < 2:
            return None
        src = rng.integers(0, n, size=1)
        return src, rng.integers(0, n - 1, size=1)


class InversionMutation(KernelMutation):
    """Invert a random segment (Kokosinski's invert mutation [32])."""

    def draw(self, genome, rng):
        return None if genome.size < 2 else _draw_pair(genome.size, rng)


class ScrambleMutation:
    """Shuffle a random segment."""

    def __call__(self, genome: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        g = np.asarray(genome).copy()
        n = g.size
        if n < 2:
            return g
        lo, hi = np.sort(rng.choice(n, size=2, replace=False))
        segment = g[lo:hi + 1].copy()
        rng.shuffle(segment)
        g[lo:hi + 1] = segment
        return g


class GaussianKeyMutation(KernelMutation):
    """Gaussian perturbation of random keys (Zajicek & Sucha [25]).

    Each gene is perturbed with probability ``rate``; results are clipped
    to [0, 1) so the genome stays a valid key vector.
    """

    dtype = np.float64

    def __init__(self, sigma: float = 0.1, rate: float = 0.2):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        if not 0 <= rate <= 1:
            raise ValueError("rate must be in [0, 1]")
        self.sigma = sigma
        self.rate = rate

    def draw(self, genome, rng):
        """Perturbed-gene mask plus the noise, in gene order."""
        mask = rng.random(genome.size) < self.rate
        return mask.reshape(1, -1), rng.normal(0, self.sigma, mask.sum())


class ResampleKeyMutation:
    """Redraw a fraction of keys uniformly (the "immigration" per-gene form)."""

    def __init__(self, rate: float = 0.1):
        self.rate = rate

    def __call__(self, genome: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        g = np.asarray(genome, dtype=float).copy()
        mask = rng.random(g.size) < self.rate
        g[mask] = rng.random(int(mask.sum()))
        return g


class AssignmentMutation(KernelMutation):
    """Reassign operations to random eligible machines (flexible shops).

    ``domain_sizes[k]`` bounds gene k; mutated genes are redrawn uniformly
    in their own domain (Defersha & Chen's assignment operators [36]).
    Multi-dimensional parts (the HFS ``(n_jobs, n_stages)`` assignment)
    are mutated in row-major gene order and keep their shape.
    """

    dtype = np.int64

    def __init__(self, domain_sizes: np.ndarray, rate: float = 0.1):
        self.domain_sizes = np.asarray(domain_sizes, dtype=np.int64)
        self.rate = rate

    def draw(self, genome, rng):
        """Mutated-gene mask plus each gene's redraw, one call per gene."""
        mask = rng.random(genome.size) < self.rate
        sizes = self.domain_sizes
        values = [rng.integers(0, max(1, int(sizes[i % sizes.size])))
                  for i in np.nonzero(mask)[0]]
        return mask.reshape(1, -1), np.array(values, dtype=np.int64)


class IntegerResetMutation:
    """Redraw integer genes uniformly in [0, alphabet) (dispatch rules)."""

    def __init__(self, alphabet: int, rate: float = 0.1):
        if alphabet < 1:
            raise ValueError("alphabet must be positive")
        self.alphabet = alphabet
        self.rate = rate

    def __call__(self, genome: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        g = np.asarray(genome, dtype=np.int64).copy()
        mask = rng.random(g.size) < self.rate
        g[mask] = rng.integers(0, self.alphabet, int(mask.sum()))
        return g


class CompositeMutation:
    """One mutation per part of a tuple genome; ``None`` copies the part.

    ``spans`` (optional) records each part's column width in a stacked
    chromosome row for the batch twin (see
    :class:`~repro.operators.crossover.CompositeCrossover`).
    """

    def __init__(self, parts: Sequence[Mutation | None],
                 spans: Sequence[int] | None = None):
        self.parts = list(parts)
        self.spans = None if spans is None else tuple(int(w) for w in spans)
        if self.spans is not None and len(self.spans) != len(self.parts):
            raise ValueError("spans must give one column width per part")

    def __call__(self, genome, rng):
        if not isinstance(genome, tuple) or len(genome) != len(self.parts):
            raise ValueError("composite mutation needs a matching tuple genome")
        out = []
        for op, part in zip(self.parts, genome):
            out.append(np.asarray(part).copy() if op is None else op(part, rng))
        return tuple(out)


def default_mutation_for(kind: str, part_kinds: tuple[str, ...] = (),
                         part_spans: tuple[int, ...] | None = None
                         ) -> Mutation:
    """A sensible default mutation per genome kind.

    ``part_spans`` (composite kinds only) forwards the encoding's stacked
    column widths so the composite operator is array-substrate capable.
    """
    from ..encodings.base import GenomeKind
    if kind in (GenomeKind.PERMUTATION, GenomeKind.REPETITION):
        return SwapMutation()
    if kind == GenomeKind.REAL:
        return GaussianKeyMutation()
    if kind == GenomeKind.COMPOSITE:
        sub: list[Mutation | None] = []
        for pk in part_kinds:
            if pk in ("permutation", "repetition"):
                sub.append(SwapMutation())
            elif pk == "assignment":
                sub.append(None)  # caller should supply AssignmentMutation
            elif pk == "frozen":  # dead placeholder part: copy through
                sub.append(None)
            else:
                sub.append(GaussianKeyMutation())
        return CompositeMutation(sub, spans=part_spans)
    raise ValueError(f"unknown genome kind {kind!r}")
