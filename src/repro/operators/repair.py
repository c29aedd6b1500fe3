"""Offspring repair for permutation-family encodings.

"Due to particular requirements of different shop scheduling problems,
additional steps may be required to repair the illegal offspring caused by
the crossover" (survey, Section III.A).  Point and uniform crossovers on
permutations (or permutations with repetition) generally produce strings
with wrong gene multiplicities; the canonical fix keeps each position that
is still legal and rewrites surplus genes with the missing ones in the
order they appear in the donor parent.

That rule runs row-wise, inside the repairing crossovers' kernels, as
:func:`repro.operators.batch.batch_repair_to_multiset`; the one-genome
loop it replaced is the tests' oracle (``tests/scalar_reference.py``).
This module keeps the validity predicates the repair restores.
"""

from __future__ import annotations

import numpy as np

__all__ = ["is_permutation", "is_repetition_of"]


def is_permutation(genome: np.ndarray) -> bool:
    """True iff ``genome`` is a permutation of ``range(len(genome))``."""
    g = np.asarray(genome)
    return bool(np.array_equal(np.sort(g), np.arange(g.size)))


def is_repetition_of(genome: np.ndarray, counts: np.ndarray) -> bool:
    """True iff ``genome`` contains value v exactly ``counts[v]`` times."""
    g = np.asarray(genome, dtype=np.int64)
    if g.size != int(np.sum(counts)):
        return False
    actual = np.bincount(g, minlength=len(counts))
    return bool(np.array_equal(actual, counts))
