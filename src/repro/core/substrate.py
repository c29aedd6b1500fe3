"""The array-native generation substrate.

The GPU/island follow-ups of the survey (Luo & El Baz, arXiv:1903.10722
/ 1903.10741) keep a population as one ``(pop, n_genes)`` chromosome
matrix with a parallel ``(pop,)`` objectives vector, and a whole
generation -- selection, crossover, mutation, immigration, partial
replacement, elitist merge -- is a handful of matrix kernels from
:mod:`repro.operators.batch`.  This module is that generation.

Every engine runs it whenever the input stacks into a matrix
(:func:`takes_arrays`: a fixed-length genome and a batch twin for every
operator); only inputs that cannot stack -- lot streaming, operators
without a batch twin, the asynchronous cellular sweep, island merging
-- breed ``Individual`` objects pair by pair.  ``GAConfig.substrate`` /
``SolverSpec.substrate`` = ``"array"`` refuses those inputs up front;
the island engine binds its island matrices into one
``(n_islands, pop, n_genes)`` tensor whose migration is pure slice
assignment.

A generation's variation is a :class:`Brood`: construction makes the
population's draws on its own RNG, :func:`vary_broods` runs the kernels.
Because kernels never draw, the island engine breeds every island, varies
all broods with one kernel call per operator, decodes all offspring as
one matrix and merges with a row-wise top-k over the stacked objectives
(:func:`elitist_merge_rows`) -- the same results as stepping each island
alone.

Conformance contract (see ``tests/test_substrate.py``): closure per
batch operator, *exact* equality with the per-pair loop
(``SimpleGA.make_offspring``) at the crossover/mutation rate extremes
under a shared RNG, and quality parity on a fixed ta-style scenario --
per-draw bit-identity at intermediate rates is out of scope because
batching reorders the RNG stream.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..operators.batch import (batch_crossover_for, batch_mutation_for,
                               batch_selection_for, split_crossover_for,
                               split_mutation_for, stack_params)
from .backend import active_namespace as _xp
from .fitness import apply_fitness_array
from .individual import Individual
from .population import Population
from .workspace import Workspace

Array = np.ndarray
Generator = np.random.Generator

__all__ = [
    "SUBSTRATES", "available_substrates",
    "ArrayState", "ArrayPopulationView",
    "check_array_support", "check_assignment_crossover", "takes_arrays",
    "stable_topk",
    "Brood", "vary_broods", "make_offspring_matrix",
    "elitist_merge_rows", "elitist_merge_arrays", "random_matrix",
]

#: The two generation substrates engines can run on.
SUBSTRATES = ("object", "array")


def available_substrates() -> tuple[str, ...]:
    """Names of the generation substrates (``object`` is the default)."""
    return SUBSTRATES


#: Genome kinds the array substrate can evolve: one fixed-length ndarray
#: per individual.  Composite (tuple) genomes qualify only when their
#: encoding publishes ``part_spans`` (fixed per-part column widths in the
#: stacked row) so composite operators can slice the matrix per part.
_ARRAY_KINDS = ("permutation", "repetition", "real")


def check_assignment_crossover(problem: Any, config: Any) -> None:
    """Raise ``ValueError`` for a repairing crossover on an assignment part.

    The repair rebuilds parent A's multiset of machine indices, which
    moves them onto operations outside their domains.  Checked for every
    engine path by :meth:`~repro.core.ga.GAConfig.resolved`.
    """
    part_kinds = getattr(problem.encoding, "part_kinds", ())
    for kind, op in zip(part_kinds, getattr(config.crossover, "parts", ())):
        if kind == "assignment" and getattr(op, "repair", False):
            raise ValueError(
                f"a repairing {type(op).__name__} on an assignment part "
                f"would move machine indices between operations (out of "
                f"their domains where those differ); pass repair=False")


def check_array_support(problem: Any, config: Any,
                        selection: bool = True) -> None:
    """Raise ``ValueError`` when ``problem``/``config`` cannot run array-native.

    Checks the genome kind (single fixed-length array, or a composite
    whose encoding publishes ``part_spans`` column widths) and that every
    resolved operator has a registered batch twin (a composite's parts
    included).  ``config`` must be a resolved
    :class:`~repro.core.ga.GAConfig` (operators filled in).
    ``selection=False`` skips the selection twin, for engines whose
    generation never calls ``config.selection`` (the cellular grid, whose
    mate choice is the neighbourhood tournament).
    """
    composite_ok = (problem.kind == "composite"
                    and getattr(problem.encoding, "part_spans", None)
                    is not None)
    if problem.kind not in _ARRAY_KINDS and not composite_ok:
        raise ValueError(
            f"substrate='array' supports genome kinds {_ARRAY_KINDS}, but "
            f"the {type(problem.encoding).__name__} encoding is "
            f"{problem.kind!r}; a composite genome needs its encoding to "
            f"publish part_spans, otherwise use substrate='object'")
    if selection:
        batch_selection_for(config.selection)
    batch_crossover_for(config.crossover)
    batch_mutation_for(config.mutation)


def takes_arrays(problem: Any, config: Any, selection: bool = True) -> bool:
    """Whether :func:`check_array_support` passes: the input stacks.

    Engines run the array generation whenever it does, whatever
    ``config.substrate`` says; ``substrate="array"`` only adds the
    refusal of inputs that do not stack.
    """
    try:
        check_array_support(problem, config, selection)
    except ValueError:
        return False
    return True


def stable_topk(values: Array, k: int) -> Array:
    """Indices of the ``k`` smallest values, ascending, ties by index.

    Equivalent to ``np.argsort(values, kind="stable")[:k]`` -- and hence
    to the per-pair path's ``sorted(..., key=objective)`` truncations,
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
                  rng: Generator) -> Array:
    """``count`` random genomes stacked into a chromosome matrix.

    Draws with the exact same ``problem.random_genome`` calls as the
    per-pair path, via ``Problem.random_matrix``.  Raises when the
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
    Its :attr:`workspace` holds the buffers a generation of this
    population breeds into (:class:`Brood`), so they are allocated once
    per run rather than once per generation.
    """

    __slots__ = ("matrix", "objectives", "version", "workspace")

    def __init__(self, matrix: Array, objectives: Array):
        self.matrix = np.asarray(matrix)
        self.objectives = np.asarray(objectives, dtype=float)
        self.version = 0
        self.workspace = Workspace()
        if self.matrix.ndim != 2 or self.objectives.shape != \
                (self.matrix.shape[0],):
            raise ValueError("need a (pop, n_genes) matrix and a matching "
                             "(pop,) objectives vector")

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def touch(self) -> None:
        """Mark the arrays as mutated (invalidates derived caches)."""
        self.version += 1

    def update(self, matrix: Array, objectives: Array) -> None:
        """Adopt the next generation, in place when shapes allow."""
        if matrix.shape == self.matrix.shape \
                and matrix.dtype == self.matrix.dtype:
            xp = _xp()
            xp.copyto(self.matrix, matrix)
            xp.copyto(self.objectives, objectives)
        else:  # population size changed (not done by current engines);
            # copied, as ``matrix`` may be a caller's reused buffer
            self.matrix = np.array(matrix)
            self.objectives = np.array(objectives, dtype=float)
        self.touch()

    def copy(self) -> "ArrayState":
        return ArrayState(self.matrix.copy(), self.objectives.copy())


class ArrayPopulationView(Population):
    """Read-only :class:`Population` facade over an :class:`ArrayState`.

    Observers and result plumbing written against ``Population``
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
            matrix, objectives = self._state.matrix, self._state.objectives
            self._cache = [
                Individual.from_row(self._problem, matrix[i], objectives[i])
                for i in range(matrix.shape[0])
            ]
            self._cache_version = self._state.version
        return self._cache

    def __len__(self) -> int:
        return len(self._state)

    def objectives(self) -> Array:
        return self._state.objectives.copy()

    def best(self) -> Individual:
        i = int(np.argmin(self._state.objectives))
        return Individual.from_row(self._problem, self._state.matrix[i],
                                   self._state.objectives[i])

    def best_objective(self) -> float:
        return float(self._state.objectives.min())

    def worst(self) -> Individual:
        i = int(np.argmax(self._state.objectives))
        return Individual.from_row(self._problem, self._state.matrix[i],
                                   self._state.objectives[i])

    def _read_only(self, *_args, **_kwargs):
        raise TypeError(
            "array-substrate population views are read-only; mutate the "
            "underlying ArrayState (or convert via Population(view))")

    __setitem__ = _read_only
    append = _read_only
    extend = _read_only


class Brood:
    """One population's offspring for one generation, bred in stages.

    Construction makes the generation's first draws on the population's
    own RNG, in the per-pair path's stage order: fitness, selection,
    crossover gates, crossover draws, mutation gates.
    :func:`vary_broods` then runs the crossover kernels, makes each
    brood's mutation draws and immigrants (the rest of the stage order)
    and runs the mutation kernels.  Kernels never draw, so the broods of
    several populations -- one per island -- share one kernel call per
    operator, and every RNG still sees exactly the calls that varying
    its population alone makes.

    The selected parents are kept interleaved (``A`` rows even, ``B``
    rows odd) in the state's brood buffer; crossover writes the children
    over them in place, so their first ``n_bred`` rows become the bred
    offspring.  One brood per state is in flight at a time: the next
    brood of the same state breeds into the same buffer.
    """

    __slots__ = ("config", "problem", "rng", "n_bred", "n_immigrants",
                 "parents", "gates", "mut_gates", "crossover", "mutation",
                 "immigrants")

    def __init__(self, state: ArrayState, config: Any, problem: Any,
                 rng: Generator, count: int):
        xp = _xp()
        matrix, objectives = state.matrix, state.objectives
        self.config, self.problem, self.rng = config, problem, rng
        self.n_immigrants = int(round(config.immigration_rate * count))
        self.n_bred = count - self.n_immigrants
        #: pending kernels: ``(twin, *input rows, params)``, None when done
        self.crossover = self.mutation = None
        self.immigrants = None
        self.mut_gates = None
        if self.n_bred == 0:
            self.parents = xp.empty((0, matrix.shape[1]), dtype=matrix.dtype)
            return
        fitness = apply_fitness_array(objectives, config.fitness_transform)
        select = batch_selection_for(config.selection)
        rows = self.n_bred + (self.n_bred % 2)
        parent_idx = select(fitness, objectives, rows, rng)
        self.parents = xp.take_into(
            matrix, parent_idx, axis=0, out=state.workspace.get(
                "brood", (rows, matrix.shape[1]), matrix.dtype))
        self.gates = rng.random(self.parents.shape[0] // 2) \
            < config.crossover_rate
        if self.gates.any():
            op = config.crossover
            twin = split_crossover_for(op)
            A = self.parents[0::2][self.gates]
            B = self.parents[1::2][self.gates]
            self.crossover = (twin, A, B, twin.draw(op, A, B, rng))
        self.mut_gates = rng.random(self.n_bred) < config.mutation_rate

    @property
    def bred(self) -> Array:
        """The bred rows (a live view: kernels write into it)."""
        return self.parents[:self.n_bred]

    def draw_mutation(self) -> None:
        """Mutation draws, then immigrants: the stages after crossover."""
        if self.mut_gates is not None and self.mut_gates.any():
            op = self.config.mutation
            twin = split_mutation_for(op)
            rows = self.bred[self.mut_gates]
            self.mutation = (twin, rows, twin.draw(op, rows, self.rng))
        if self.n_immigrants > 0:
            self.immigrants = random_matrix(
                self.problem, self.n_immigrants, self.rng).astype(
                    self.parents.dtype, copy=False)

    def offspring(self) -> Array:
        """``(count, n_genes)``: bred rows, then immigrants."""
        if self.immigrants is None:
            return self.bred
        return _xp().concatenate([self.bred, self.immigrants])


def _operator_groups(broods: Sequence[Brood], stage: str) -> list:
    """Broods with a pending ``stage`` kernel, grouped by operator object."""
    groups: dict[int, list[Brood]] = {}
    for brood in broods:
        if getattr(brood, stage) is not None:
            op = getattr(brood.config, stage)
            groups.setdefault(id(op), []).append(brood)
    return list(groups.values())


def _concat(blocks: list) -> Array:
    return blocks[0] if len(blocks) == 1 else _xp().concatenate(blocks)


def vary_broods(broods: Sequence[Brood]) -> list[Array]:
    """Finish the broods; returns each one's ``(count, n_genes)`` offspring.

    One crossover kernel call, then one mutation kernel call, per distinct
    operator object covers the gated rows of every brood; a row's result
    does not depend on the rows stacked next to it, so each brood's
    offspring equal what varying it alone gives.  Without immigrants the
    offspring are rows of the brood's buffer, valid until its state
    breeds again.
    """
    for group in _operator_groups(broods, "crossover"):
        twin = group[0].crossover[0]
        CA, CB = twin.kernel(group[0].config.crossover,
                             _concat([b.crossover[1] for b in group]),
                             _concat([b.crossover[2] for b in group]),
                             stack_params([b.crossover[3] for b in group]))
        at = 0
        for brood in group:
            k = brood.crossover[1].shape[0]
            brood.parents[0::2][brood.gates] = CA[at:at + k]
            brood.parents[1::2][brood.gates] = CB[at:at + k]
            brood.crossover = None
            at += k
    for brood in broods:
        brood.draw_mutation()
    for group in _operator_groups(broods, "mutation"):
        twin = group[0].mutation[0]
        out = twin.kernel(group[0].config.mutation,
                          _concat([b.mutation[1] for b in group]),
                          stack_params([b.mutation[2] for b in group]))
        at = 0
        for brood in group:
            k = brood.mutation[1].shape[0]
            brood.bred[brood.mut_gates] = out[at:at + k]
            brood.mutation = None
            at += k
    return [brood.offspring() for brood in broods]


def make_offspring_matrix(state: ArrayState, config: Any, problem: Any,
                          rng: Generator, count: int) -> Array:
    """Selection + crossover + mutation + immigration, all as matrices.

    The array twin of ``SimpleGA.make_offspring``: same stage order, same
    rate arithmetic, same number of gate draws -- only the per-pair
    operator applications are batched.  Returns the ``(count, n_genes)``
    offspring matrix (unevaluated); a :class:`Brood` of one population,
    so the rows live in ``state``'s brood buffer until it breeds again.
    """
    return vary_broods([Brood(state, config, problem, rng, count)])[0]


def elitist_merge_rows(parents: Array, parent_objectives: Array,
                       offspring: Array,
                       offspring_objectives: Array, n_elites: int,
                       size: int, out: tuple[Array, Array] | None = None
                       ) -> tuple[Array, Array]:
    """:func:`elitist_merge_arrays` over a stack of populations at once.

    ``parents`` is ``(k, pop, n_genes)`` with ``(k, pop)`` objectives,
    ``offspring`` ``(k, count, n_genes)`` with ``(k, count)``; returns the
    ``(k, size, n_genes)`` next generations and their objectives, written
    into ``out`` when given (C-contiguous buffers of those shapes).  Every
    population is merged exactly as alone: the selections are row-wise
    stable top-k over the objective matrices.
    """
    xp = _xp()
    k = parent_objectives.shape[0]
    n_elite = min(n_elites, parent_objectives.shape[1])
    n_fill = max(0, min(size - n_elite, offspring_objectives.shape[1]))
    short = size - n_elite - n_fill
    order = xp.stable_argsort(parent_objectives, axis=1)
    picks = [(parents, parent_objectives, order[:, :n_elite]),
             (offspring, offspring_objectives,
              xp.stable_argsort(offspring_objectives, axis=1)[:, :n_fill])]
    if short > 0:  # offspring shortage: pad with next-best parents
        picks.append((parents, parent_objectives,
                      order[:, n_elite:n_elite + short]))
    if out is None:
        out = (xp.empty((k, size, parents.shape[2]),
                        dtype=xp.result_type(parents, offspring)),
               xp.empty((k, size), dtype=xp.result_type(
                   parent_objectives, offspring_objectives)))
    rows, objs = out
    at = 0
    for matrix, objectives, idx in picks:
        width = idx.shape[1]
        for j in range(k):
            xp.take_into(matrix[j], idx[j], axis=0,
                         out=rows[j, at:at + width])
            xp.take_into(objectives[j], idx[j], out=objs[j, at:at + width])
        at += width
    return rows, objs


def elitist_merge_arrays(state: ArrayState, offspring: Array,
                         offspring_objectives: Array, n_elites: int,
                         size: int, out: tuple[Array, Array] | None = None
                         ) -> tuple[Array, Array]:
    """Array twin of ``Population.elitist_merge``.

    Next generation = ``n_elites`` best parents + best offspring fill
    (+ next-best parents when offspring run short), in the same
    best-first, tie-stable order as the per-pair path.  Returns the
    ``(size, n_genes)`` rows and ``(size,)`` objectives, written into
    ``out`` when given.
    """
    stacked = None if out is None else (out[0][None], out[1][None])
    rows, objs = elitist_merge_rows(
        state.matrix[None], state.objectives[None], offspring[None],
        offspring_objectives[None], n_elites, size, stacked)
    return rows[0], objs[0]
