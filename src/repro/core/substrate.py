"""The array-native generation substrate.

The object substrate (the default) evolves a list of
:class:`~repro.core.individual.Individual`; every variation operator is
called per genome or per parent pair.  This module implements the second
substrate the GPU/island follow-ups of the survey are built on (Luo & El
Baz, arXiv:1903.10722 / 1903.10741): the population lives as one
``(pop, n_genes)`` chromosome matrix with a parallel ``(pop,)``
objectives vector, and a whole generation -- selection, crossover,
mutation, immigration, partial replacement, elitist merge -- is a handful
of matrix kernels from :mod:`repro.operators.batch`.

Engines select the substrate through ``GAConfig.substrate``
(``"object"`` | ``"array"``); :class:`~repro.core.ga.SimpleGA` threads it
through ``initialize``/``step``, the island engine stacks the per-island
matrices into one ``(n_islands, pop, n_genes)`` tensor whose migration is
pure slice assignment, and the declarative API exposes it as
``SolverSpec.substrate`` / ``--substrate array``.

Conformance contract (see ``tests/test_substrate.py``): closure per
batch operator, *exact* equality with the object substrate at the
crossover/mutation rate extremes under a shared RNG, and quality parity
on a fixed ta-style scenario -- per-draw bit-identity at intermediate
rates is out of scope because batching reorders the RNG stream.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..operators.batch import (batch_crossover_for, batch_mutation_for,
                               batch_selection_for)
from .backend import active_backend
from .backend import active_namespace as _xp
from .fitness import apply_fitness_array
from .individual import Individual
from .population import Population

__all__ = [
    "SUBSTRATES", "available_substrates",
    "ArrayState", "GridState", "ArrayPopulationView",
    "check_array_support", "stable_topk",
    "make_offspring_matrix", "elitist_merge_arrays",
    "random_matrix",
]

#: The two generation substrates engines can run on.
SUBSTRATES = ("object", "array")


def available_substrates() -> tuple[str, ...]:
    """Names of the generation substrates (``object`` is the default)."""
    return SUBSTRATES


#: Genome kinds the array substrate can evolve: one fixed-length ndarray
#: per individual.  Composite (tuple) genomes qualify only when their
#: encoding publishes ``part_spans`` (fixed per-part column widths in the
#: stacked row) so composite operators can slice the matrix per part;
#: ragged composites (e.g. the FJSP's padded eligible-machine lists) stay
#: on the object substrate.
_ARRAY_KINDS = ("permutation", "repetition", "real")


def check_array_support(problem: Any, config: Any,
                        selection: bool = True) -> None:
    """Raise ``ValueError`` when ``problem``/``config`` cannot run array-native.

    Checks the genome kind (single fixed-length array, or a composite
    whose encoding publishes ``part_spans`` column widths) and that every
    resolved operator has a registered batch twin.  ``config`` must be a
    resolved :class:`~repro.core.ga.GAConfig` (operators filled in).
    ``selection=False`` skips the selection twin -- the cellular engines
    never call ``config.selection`` (mate choice is the neighbourhood
    tournament), so a custom selection without a batch twin must not
    block their grid path.
    """
    composite_ok = (problem.kind == "composite"
                    and getattr(problem.encoding, "part_spans", None)
                    is not None)
    if problem.kind not in _ARRAY_KINDS and not composite_ok:
        raise ValueError(
            f"substrate='array' supports genome kinds {_ARRAY_KINDS}, but "
            f"the {type(problem.encoding).__name__} encoding is "
            f"{problem.kind!r}; use substrate='object' for composite/"
            f"ragged genomes")
    if selection:
        batch_selection_for(config.selection)
    batch_crossover_for(config.crossover)
    batch_mutation_for(config.mutation)


def stable_topk(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest values, ascending, ties by index.

    Equivalent to ``np.argsort(values, kind="stable")[:k]`` -- and hence
    to the object substrate's ``sorted(..., key=objective)`` truncations,
    which Python's stable sort makes tie-stable -- but selects via
    ``argpartition`` first so the common ``k << n`` elite case stays
    ``O(n + k log k)``.
    """
    xp = _xp()
    values = xp.asarray(values)
    n = values.size
    if k <= 0:
        return xp.empty(0, dtype=xp.int64)
    if k >= n:
        return xp.stable_argsort(values)
    threshold = xp.partition(values, k - 1)[k - 1]
    below = xp.nonzero(values < threshold)[0]
    at = xp.nonzero(values == threshold)[0]
    idx = xp.concatenate([below, at[:k - below.size]])
    # gathers via xp.take: strict Array-API namespaces have no integer
    # fancy indexing (this helper runs on the array-api-strict CI leg)
    return xp.take(idx, xp.stable_argsort(xp.take(values, idx, axis=0)),
                   axis=0)


def random_matrix(problem: Any, count: int,
                  rng: np.random.Generator) -> np.ndarray:
    """``count`` random genomes stacked into a chromosome matrix.

    Draws with the exact same ``problem.random_genome`` calls as the
    object substrate, via ``Problem.random_matrix``.  Raises when the
    genomes cannot form a matrix.
    """
    matrix = problem.random_matrix(count, rng)
    if matrix is None:
        raise ValueError(
            f"substrate='array' needs genomes that stack into a matrix; "
            f"{type(problem.encoding).__name__} genomes do not")
    return matrix


class ArrayState:
    """A population as flat arrays: chromosome matrix + objectives vector.

    The matrix buffer is stable: :meth:`update` copies in place whenever
    shapes match, so views into it (e.g. slices of the island engine's
    ``(n_islands, pop, n_genes)`` tensor) survive generations.  Every
    in-place mutation bumps :attr:`version` (call :meth:`touch` after
    writing into the arrays directly) so derived caches such as
    :class:`ArrayPopulationView`'s materialised members know to rebuild.
    """

    __slots__ = ("matrix", "objectives", "version")

    def __init__(self, matrix: np.ndarray, objectives: np.ndarray):
        self.matrix = np.asarray(matrix)
        self.objectives = np.asarray(objectives, dtype=float)
        self.version = 0
        if self.matrix.ndim != 2 or self.objectives.shape != \
                (self.matrix.shape[0],):
            raise ValueError("need a (pop, n_genes) matrix and a matching "
                             "(pop,) objectives vector")

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def touch(self) -> None:
        """Mark the arrays as mutated (invalidates derived caches)."""
        self.version += 1

    def update(self, matrix: np.ndarray, objectives: np.ndarray) -> None:
        """Adopt the next generation, in place when shapes allow."""
        if matrix.shape == self.matrix.shape \
                and matrix.dtype == self.matrix.dtype:
            xp = _xp()
            xp.copyto(self.matrix, matrix)
            xp.copyto(self.objectives, objectives)
        else:  # population size changed (not done by current engines)
            self.matrix = np.asarray(matrix)
            self.objectives = np.asarray(objectives, dtype=float)
        self.touch()

    def copy(self) -> "ArrayState":
        return ArrayState(self.matrix.copy(), self.objectives.copy())


class GridState(ArrayState):
    """An :class:`ArrayState` with a 2-D spatial layout on top.

    The cellular (fine-grained) engine's population is a toroidal grid:
    one individual per cell.  :class:`GridState` stores it as the same
    flat ``(rows*cols, n_genes)`` chromosome matrix every other array
    engine uses -- cells flattened row-major, so cell ``(r, c)`` is row
    ``r*cols + c`` -- and exposes :attr:`tensor` / :attr:`objective_grid`
    reshaped *views* of the very same buffers.  Everything written for
    :class:`ArrayState` (population views, migration row gather/scatter,
    island tensor binding) therefore works on grids unchanged, while the
    cellular step indexes neighbourhoods through precomputed flat offset
    tables (:func:`repro.parallel.fine_grained.grid_neighbor_table`).
    """

    __slots__ = ("rows", "cols")

    def __init__(self, tensor: np.ndarray, objectives: np.ndarray):
        xp = _xp()
        tensor = xp.ascontiguousarray(tensor)
        objectives = xp.ascontiguousarray(
            xp.asarray(objectives, dtype=xp.float64))
        if tensor.ndim != 3 or objectives.shape != tensor.shape[:2]:
            raise ValueError("need a (rows, cols, n_genes) tensor and a "
                             "matching (rows, cols) objective grid")
        self.rows, self.cols = int(tensor.shape[0]), int(tensor.shape[1])
        super().__init__(tensor.reshape(self.rows * self.cols, -1),
                         objectives.reshape(-1))

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, objectives: np.ndarray,
                    rows: int, cols: int) -> "GridState":
        """Grid over an already-flat (row-major) population matrix."""
        matrix = np.asarray(matrix)
        return cls(matrix.reshape(rows, cols, matrix.shape[-1]),
                   np.asarray(objectives, dtype=float).reshape(rows, cols))

    @property
    def tensor(self) -> np.ndarray:
        """``(rows, cols, n_genes)`` chromosome tensor (a live view)."""
        return self.matrix.reshape(self.rows, self.cols, -1)

    @property
    def objective_grid(self) -> np.ndarray:
        """``(rows, cols)`` objective grid (a live view)."""
        return self.objectives.reshape(self.rows, self.cols)

    def copy(self) -> "GridState":
        return GridState(self.tensor.copy(), self.objective_grid.copy())


class ArrayPopulationView(Population):
    """Read-only :class:`Population` facade over an :class:`ArrayState`.

    Observers and result plumbing written against the object substrate
    keep working: ``best()``/``stats()``/``objectives()`` read the arrays
    directly (vectorised -- no per-individual boxing in the per-generation
    hot path), while iteration/indexing materialise real ``Individual``
    objects lazily, one copy per member, on first access (rebuilt when
    the state's :attr:`~ArrayState.version` moves on).

    Views are *live*: the underlying state mutates in place across
    generations and migrations, so a retained view always shows the
    current arrays.  Take a snapshot with ``Population(view)`` (or
    ``view.copy()``) when a frozen generation is needed.
    """

    def __init__(self, problem: Any, state: ArrayState):
        self._problem = problem
        self._state = state
        self._cache: list[Individual] | None = None
        self._cache_version = -1

    @property
    def _members(self) -> list[Individual]:  # type: ignore[override]
        if self._cache is None or self._cache_version != self._state.version:
            backend = active_backend()
            matrix = backend.asnumpy(self._state.matrix)
            objectives = backend.asnumpy(self._state.objectives)
            self._cache = [
                Individual.from_row(self._problem, matrix[i], objectives[i])
                for i in range(matrix.shape[0])
            ]
            self._cache_version = self._state.version
        return self._cache

    def __len__(self) -> int:
        return len(self._state)

    def objectives(self) -> np.ndarray:
        return self._state.objectives.copy()

    def best(self) -> Individual:
        backend = active_backend()
        i = int(np.argmin(self._state.objectives))
        return Individual.from_row(self._problem,
                                   backend.asnumpy(self._state.matrix[i]),
                                   self._state.objectives[i])

    def worst(self) -> Individual:
        backend = active_backend()
        i = int(np.argmax(self._state.objectives))
        return Individual.from_row(self._problem,
                                   backend.asnumpy(self._state.matrix[i]),
                                   self._state.objectives[i])

    def stats(self):
        from .population import PopulationStats
        obj = self._state.objectives
        if obj.size == 0 or np.isnan(obj).any():
            raise ValueError("stats() requires a fully evaluated population")
        return PopulationStats(
            size=int(obj.size),
            best=float(obj.min()),
            worst=float(obj.max()),
            mean=float(obj.mean()),
            std=float(obj.std()),
        )

    def _read_only(self, *_args, **_kwargs):
        raise TypeError(
            "array-substrate population views are read-only; mutate the "
            "underlying ArrayState (or convert via Population(view))")

    __setitem__ = _read_only
    append = _read_only
    extend = _read_only


def make_offspring_matrix(state: ArrayState, config: Any, problem: Any,
                          rng: np.random.Generator, count: int) -> np.ndarray:
    """Selection + crossover + mutation + immigration, all as matrices.

    The array twin of ``SimpleGA.make_offspring``: same stage order, same
    rate arithmetic, same number of gate draws -- only the per-pair
    operator applications are batched.  Returns the ``(count, n_genes)``
    offspring matrix (unevaluated).
    """
    xp = _xp()
    matrix, objectives = state.matrix, state.objectives
    fitness = apply_fitness_array(objectives, config.fitness_transform)
    n_immigrants = int(round(config.immigration_rate * count))
    n_bred = count - n_immigrants
    parts = []
    if n_bred > 0:
        select = batch_selection_for(config.selection)
        parent_idx = select(fitness, objectives, n_bred + (n_bred % 2), rng)
        parents = matrix[parent_idx]
        A, B = parents[0::2], parents[1::2]
        gates = rng.random(A.shape[0]) < config.crossover_rate
        child_a, child_b = xp.copy(A), xp.copy(B)
        if gates.any():
            cross = batch_crossover_for(config.crossover)
            xa, xb = cross(A[gates], B[gates], rng)
            child_a[gates] = xa
            child_b[gates] = xb
        bred = xp.empty((2 * A.shape[0], matrix.shape[1]),
                        dtype=matrix.dtype)
        bred[0::2] = child_a
        bred[1::2] = child_b
        bred = bred[:n_bred]
        mut_gates = rng.random(n_bred) < config.mutation_rate
        if mut_gates.any():
            mutate = batch_mutation_for(config.mutation)
            bred[mut_gates] = mutate(bred[mut_gates], rng)
        parts.append(bred)
    if n_immigrants > 0:
        parts.append(random_matrix(problem, n_immigrants, rng)
                     .astype(matrix.dtype, copy=False))
    if not parts:
        return xp.empty((0, matrix.shape[1]), dtype=matrix.dtype)
    return parts[0] if len(parts) == 1 else xp.concatenate(parts)


def elitist_merge_arrays(state: ArrayState, offspring: np.ndarray,
                         offspring_objectives: np.ndarray, n_elites: int,
                         size: int) -> tuple[np.ndarray, np.ndarray]:
    """Array twin of ``Population.elitist_merge``.

    Next generation = ``n_elites`` best parents + best offspring fill
    (+ next-best parents when offspring run short), in the same
    best-first, tie-stable order as the object substrate.
    """
    xp = _xp()
    parent_obj = state.objectives
    elite_idx = stable_topk(parent_obj, min(n_elites, len(state)))
    n_fill = min(size - elite_idx.size, offspring.shape[0])
    fill_idx = stable_topk(offspring_objectives, n_fill)
    rows = [state.matrix[elite_idx], offspring[fill_idx]]
    objs = [parent_obj[elite_idx], offspring_objectives[fill_idx]]
    short = size - elite_idx.size - fill_idx.size
    if short > 0:  # offspring shortage: pad with next-best parents
        order = stable_topk(parent_obj, len(state))
        backfill = order[elite_idx.size:elite_idx.size + short]
        rows.append(state.matrix[backfill])
        objs.append(parent_obj[backfill])
    return xp.concatenate(rows), xp.concatenate(objs)
