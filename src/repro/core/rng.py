"""Deterministic random-number management.

Every stochastic component in :mod:`repro` draws from a
:class:`numpy.random.Generator` handed to it explicitly; there is no module
level or global RNG state.  Parallel components (islands, cellular cells,
slave evaluators) need *independent but reproducible* streams, which NumPy's
:class:`numpy.random.SeedSequence` spawning mechanism provides: child streams
are statistically independent and the whole tree is a pure function of the
root seed.

The helpers here are deliberately tiny -- they exist so the rest of the code
base shares one idiom instead of re-inventing seed plumbing per module.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "make_rng",
    "spawn_rngs",
    "spawn_seeds",
    "derive_rng",
    "random_permutation",
    "cell_draws",
    "RngStream",
]


def make_rng(seed: int | None | np.random.Generator = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` for OS entropy.  All public entry points of the library funnel
    their ``seed`` argument through this function.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_seeds(seed: int | None, n: int) -> list[np.random.SeedSequence]:
    """Spawn ``n`` independent child seed sequences from a root ``seed``."""
    root = np.random.SeedSequence(seed)
    return root.spawn(n)


def spawn_rngs(seed: int | None, n: int) -> list[np.random.Generator]:
    """Spawn ``n`` independent generators from a root ``seed``.

    Used to give each island / cell / worker its own stream so that the
    composite algorithm is reproducible regardless of execution order.
    """
    return [np.random.default_rng(ss) for ss in spawn_seeds(seed, n)]


def derive_rng(rng: np.random.Generator, *, jumps: int = 1) -> np.random.Generator:
    """Derive a fresh, independent generator from an existing one.

    Unlike :func:`spawn_rngs` this does not need the root seed: it draws a
    64-bit state from ``rng`` and seeds a child.  ``jumps`` simply advances
    the parent several draws, which is occasionally useful to decorrelate a
    family of children derived in a loop.
    """
    state = None
    for _ in range(max(1, jumps)):
        state = int(rng.integers(0, 2**63 - 1))
    return np.random.default_rng(state)


def random_permutation(rng: np.random.Generator, n: int) -> np.ndarray:
    """A random permutation of ``range(n)`` as an int64 array."""
    return rng.permutation(n).astype(np.int64)


def cell_draws(rng: np.random.Generator, n: int,
               k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws of ``n`` cells in a row, each a mate pair and two gates.

    Returns ``(mates, cross_u, mut_u)`` -- an ``(n, 2)`` int64 matrix and
    two ``(n,)`` float64 vectors -- equal to ``n`` iterations of::

        mates[i] = rng.integers(0, k, size=2)
        cross_u[i] = rng.random()
        mut_u[i] = rng.random()

    and leaves ``rng`` in the state that loop leaves it in.  On a ``PCG64``
    generator the ``3 * n`` 64-bit outputs come as one ``random_raw``
    block and NumPy's arithmetic is rebuilt on them: a mate index is a
    Lemire draw ``(u * k) >> 32`` on a 32-bit half, a gate is
    ``(raw >> 11) * 2**-53``.  ``PCG64`` serves 32-bit draws in halves
    of one output (low half first, high half cached), so with the cache
    empty on entry cell ``i`` pairs the two halves of its first output;
    with a cached half on entry it pairs the cache (or the previous
    cell's high half) with its own low half.  Either way the last high
    half is what the loop leaves in the cache.  Any Lemire leftover
    below ``k`` (a possible rejection, which would draw again), any
    other bit generator and any ``k`` outside the 32-bit Lemire path
    replay the loop itself from the saved state.
    """
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64 or not 1 < k < 2**32 or n < 1:
        return _cell_draws_loop(rng, n, k)
    saved = bitgen.state
    raw = bitgen.random_raw(3 * n).reshape(n, 3)
    first = raw[:, 0]
    low, high = first & np.uint64(0xFFFFFFFF), first >> np.uint64(32)
    if saved["has_uint32"]:
        cached = np.uint64(saved["uinteger"])
        pairs = np.stack([np.concatenate([[cached], high[:-1]]), low], axis=1)
    else:
        pairs = np.stack([low, high], axis=1)
    scaled = pairs * np.uint64(k)
    if ((scaled & np.uint64(0xFFFFFFFF)) < k).any():
        bitgen.state = saved
        return _cell_draws_loop(rng, n, k)
    state = bitgen.state
    state["uinteger"] = int(high[-1])
    bitgen.state = state
    gates = (raw[:, 1:] >> np.uint64(11)) * 2.0**-53
    return (scaled >> np.uint64(32)).astype(np.int64), gates[:, 0], gates[:, 1]


def _cell_draws_loop(rng: np.random.Generator, n: int,
                     k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mates = np.empty((n, 2), dtype=np.int64)
    gates = np.empty((n, 2))
    for i in range(n):
        mates[i] = rng.integers(0, k, size=2)
        gates[i, 0] = rng.random()
        gates[i, 1] = rng.random()
    return mates, gates[:, 0], gates[:, 1]


class RngStream:
    """An endless iterator of independent generators rooted at one seed.

    Convenient for components that create sub-workers lazily (e.g. the
    merge-on-stagnation island model whose island count shrinks over time).
    """

    def __init__(self, seed: int | None):
        self._root = np.random.SeedSequence(seed)
        self._count = 0

    def __iter__(self) -> Iterator[np.random.Generator]:
        return self

    def __next__(self) -> np.random.Generator:
        return self.take()

    def take(self) -> np.random.Generator:
        """Return the next independent generator in the stream."""
        # SeedSequence.spawn advances an internal counter, so successive
        # calls yield distinct, independent children.
        child = self._root.spawn(1)[0]
        self._count += 1
        return np.random.default_rng(child)

    def take_many(self, n: int) -> Sequence[np.random.Generator]:
        """Return the next ``n`` independent generators."""
        return [self.take() for _ in range(n)]
