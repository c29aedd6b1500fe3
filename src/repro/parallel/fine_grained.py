"""Fine-grained (cellular / diffusion / massively parallel) GA -- Table IV.

::

    1: Initialize();
    2: while (termination criteria are not satisfied) do
    3:   Generation++
    4:   Parallel_NeighborhoodSelection_Individuals();
    5:   Parallel_NeighborhoodCrossover_Individuals();
    6:   Parallel_Mutation_Individuals();
    7:   Parallel_FitnessValueEvaluation_Individuals();
    8: end while

"The main idea is to map individuals of a single GA population on a
spatial structure.  An individual is limited to compete and mate with its
neighbors, while the neighborhoods overlapping makes good solutions
disseminate through the entire population."

:class:`CellularGA` places one individual per cell of a 2-D toroidal grid
(the natural GPU/Transputer layout, Section IV) and performs a
*synchronous* update: all cells compute their offspring against the old
grid, then the grid is replaced at once -- exactly the lock-step semantics
of a SIMD device, and the reason results are independent of cell visit
order (a tested property).

Neighbourhood shapes follow the cellular-GA literature (Alba & Dorronsoro
[23]): ``L5`` (von Neumann), ``L9`` (axial radius 2), ``C9`` (Moore),
``C13`` (Moore + axial radius 2).

A :class:`CellularGA` is a :class:`~repro.core.ga.SimpleGA` whose
population is the grid, cells flattened row-major (cell ``(r, c)`` is
member ``r*cols + c``): it inherits the setup, the initialisation, the
evaluation, the observers and the run loop, and replaces only the
generation, where each cell takes its mate from its neighbourhood.

A synchronous generation of an input that stacks into a matrix runs on
the population's :class:`~repro.core.substrate.ArrayState` -- the
``(rows*cols, n_genes)`` chromosome matrix and its objectives -- as
batched kernels: neighbourhood selection is a gather through the
precomputed toroidal offset table of :func:`grid_neighbor_table`,
crossover/mutation reuse the :mod:`repro.operators.batch` kernels on the
gated row subsets, and evaluation goes through the problem's vectorised
batch decoder.  A cell mates once and makes one offspring, so the
crossover makes its pair's draw and then computes only that first child
(the twin's one-child kernel).  This is the cell-per-thread layout of
Luo & El Baz's GPU papers (arXiv:1903.10722, 1903.10741) expressed as
NumPy arrays.
Per-cell RNG draws (mate pair + the two rate gates) come from one raw
block that reproduces the per-cell call order of
:meth:`CellularGA._breed_cell` exactly, so grid generations equal the
per-cell loop at the rate extremes under a shared seed.  Inputs that do
not stack, and the asynchronous line sweep, keep a
:class:`~repro.core.population.Population` of cells and breed cell by
cell.

Being a ``SimpleGA``, a grid can be an island:
:class:`~repro.parallel.hybrid.IslandOfCellularGA` is a ring of them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.backend import active_namespace as _xp
from ..core.ga import GAConfig, GAResult, SimpleGA
from ..core.individual import Individual
from ..core.observers import Observer
from ..core.population import Population
from ..core.rng import cell_draws
from ..core.termination import Termination
from ..core.workspace import scratch
from ..encodings.base import Problem
from ..operators.batch import batch_crossover_for, batch_mutation_for

__all__ = ["NEIGHBORHOODS", "CellularGA", "neighborhood_offsets",
           "grid_neighbor_table"]

NEIGHBORHOODS: dict[str, list[tuple[int, int]]] = {
    # offsets exclude the centre cell (the current individual)
    "L5": [(-1, 0), (1, 0), (0, -1), (0, 1)],
    "L9": [(-1, 0), (1, 0), (0, -1), (0, 1),
           (-2, 0), (2, 0), (0, -2), (0, 2)],
    "C9": [(-1, -1), (-1, 0), (-1, 1), (0, -1),
           (0, 1), (1, -1), (1, 0), (1, 1)],
    "C13": [(-1, -1), (-1, 0), (-1, 1), (0, -1),
            (0, 1), (1, -1), (1, 0), (1, 1),
            (-2, 0), (2, 0), (0, -2), (0, 2)],
}


def neighborhood_offsets(name: str) -> list[tuple[int, int]]:
    """Offsets of a named neighbourhood (excluding the centre)."""
    if name not in NEIGHBORHOODS:
        raise ValueError(f"unknown neighbourhood {name!r}; "
                         f"options: {sorted(NEIGHBORHOODS)}")
    return NEIGHBORHOODS[name]


def grid_neighbor_table(rows: int, cols: int,
                        offsets: Sequence[tuple[int, int]]) -> np.ndarray:
    """Flat toroidal neighbour indices per cell: ``(rows*cols, n_offsets)``.

    Row ``r*cols + c`` lists, in offset order, the row-major flat index
    of every neighbour of cell ``(r, c)`` -- the same coordinates
    :meth:`CellularGA.neighbors` produces one cell at a time.  The grid
    substrate turns neighbourhood selection into one gather through this
    table; it is position-only, so one table serves the whole run.
    """
    xp = _xp()
    r = xp.arange(rows, dtype=xp.int64)[:, None, None]
    c = xp.arange(cols, dtype=xp.int64)[None, :, None]
    dr = xp.asarray([o[0] for o in offsets], dtype=xp.int64)
    dc = xp.asarray([o[1] for o in offsets], dtype=xp.int64)
    flat = ((r + dr) % rows) * cols + (c + dc) % cols
    return flat.reshape(rows * cols, len(offsets))


class CellularGA(SimpleGA):
    """Synchronous cellular GA on a toroidal grid.

    Parameters
    ----------
    problem:
        encoding + objective.
    rows, cols:
        grid dimensions; population size = rows * cols.
    neighborhood:
        shape name from :data:`NEIGHBORHOODS`.
    config:
        reuses GAConfig for operator choices, rates and seeding
        (population_size is ignored -- the grid defines it).  A
        synchronous generation of an input that stacks runs on the
        population's chromosome matrix, every stage as one batched kernel
        pass; other inputs breed cell by cell.
        ``config.substrate="array"`` refuses the latter up front.
    replacement:
        ``"if_better"`` (offspring replaces the cell only when strictly
        better -- elitist local replacement, the common cGA choice) or
        ``"always"``.
    update:
        ``"synchronous"`` (SIMD lock-step: all offspring computed against
        the old grid, then replaced at once -- the GPU/Transputer
        semantics) or ``"asynchronous"`` (fixed line sweep: cells update
        in place row-major, so information diffuses within a generation --
        the uniprocessor emulation Kohlmorgen et al. [19] discuss).  The
        line sweep is sequential by definition (each cell must see its
        left neighbour's update), so it always breeds cell by cell.
    """

    #: mate choice is the neighbourhood tournament, so a selection
    #: operator without a batch twin does not block the grid path
    uses_selection = False

    def __init__(self, problem: Problem, rows: int = 8, cols: int = 8,
                 neighborhood: str = "L5",
                 config: GAConfig | None = None,
                 termination: Termination | None = None,
                 seed: int | np.random.Generator | None = None,
                 replacement: str = "if_better",
                 update: str = "synchronous",
                 observers: Sequence[Observer] = ()):  # noqa: D401
        if rows < 1 or cols < 1:
            raise ValueError("grid dimensions must be positive")
        if replacement not in ("if_better", "always"):
            raise ValueError("replacement must be 'if_better' or 'always'")
        if update not in ("synchronous", "asynchronous"):
            raise ValueError("update must be 'synchronous' or 'asynchronous'")
        self.offsets = neighborhood_offsets(neighborhood)
        config = config or GAConfig()
        if config.substrate == "array" and update == "asynchronous":
            raise ValueError(
                "the asynchronous line sweep updates cells in place "
                "(inherently sequential); substrate='array' supports "
                "update='synchronous' only")
        super().__init__(problem, config, termination, seed,
                         observers=observers)
        # the grid sets the size, past GAConfig's checks: a 1x1 grid or
        # more elites than cells (the grid keeps no elites) still run
        self.config.population_size = rows * cols
        self.rows, self.cols = rows, cols
        self.neighborhood = neighborhood
        self.replacement = replacement
        self.update = update
        if update == "asynchronous":
            self.substrate = "object"
        self._neighbor_table: np.ndarray | None = None

    def neighbors(self, r: int, c: int) -> list[tuple[int, int]]:
        """Toroidal neighbour coordinates of cell (r, c)."""
        return [((r + dr) % self.rows, (c + dc) % self.cols)
                for dr, dc in self.offsets]

    def _local_mate(self, r: int, c: int) -> Individual:
        """Pick a mate from (r, c)'s neighbourhood by local tournament."""
        coords = self.neighbors(r, c)
        pool = [self.population[rr * self.cols + cc] for rr, cc in coords]
        i, j = self.rng.integers(0, len(pool), size=2)
        a, b = pool[int(i)], pool[int(j)]
        return a if a.objective <= b.objective else b

    def _breed_cell(self, r: int, c: int) -> Individual:
        cfg = self.config
        centre = self.population[r * self.cols + c]
        mate = self._local_mate(r, c)
        if self.rng.random() < cfg.crossover_rate:
            ga, _gb = cfg.crossover(centre.genome, mate.genome, self.rng)
        else:
            ga = centre.copy().genome
        child = Individual(ga)
        if self.rng.random() < cfg.mutation_rate:
            child = Individual(cfg.mutation(child.genome, self.rng))
        return child

    def _replace_cell(self, i: int, child: Individual) -> None:
        if (self.replacement == "always"
                or child.objective < self.population[i].objective):
            self.population[i] = child

    def _step_grid(self) -> None:
        """One synchronous generation as tensor kernels (lines 4-7 batched).

        Stage order, rate arithmetic and per-cell RNG draws (mate pair,
        crossover gate, mutation gate -- in exactly the per-cell loop's
        row-major order, rebuilt from one raw block by
        :func:`~repro.core.rng.cell_draws`) are identical to
        :meth:`_breed_cell`'s; the per-cell work is batched too:
        neighbourhood selection is one gather
        through the offset table, crossover/mutation run on the gated row
        subsets via the :mod:`repro.operators.batch` kernels (crossover
        computing only the child a cell keeps), evaluation
        decodes all candidates as one matrix, and replacement is one
        masked assignment against the *old* objectives -- synchronous
        lock-step (visit-order independence) by construction.
        """
        cfg = self.config
        state = self.arrays
        matrix, objectives = state.matrix, state.objectives
        if self._neighbor_table is None:
            self._neighbor_table = grid_neighbor_table(
                self.rows, self.cols, self.offsets)
        table = self._neighbor_table
        n, n_nbr = table.shape
        rng = self.rng
        mate_rows, cross_draws, mut_draws = cell_draws(rng, n, n_nbr)
        xp = _xp()
        mates = xp.asarray(mate_rows, dtype=xp.int64)
        cross_gate = xp.asarray(cross_draws) < cfg.crossover_rate
        mut_gate = xp.asarray(mut_draws) < cfg.mutation_rate
        cand = xp.take_along_axis(table, mates, axis=1)
        a, b = cand[:, 0], cand[:, 1]
        mate_idx = xp.where(objectives[a] <= objectives[b], a, b)
        # the children and the gathered rows are this thread's scratch:
        # the generation is over before the next one asks for them
        shape = matrix.shape
        children = scratch("cellular.children", shape, matrix.dtype)
        children[...] = matrix
        if cross_gate.any():
            # a cell keeps one child, the first of its pair: the twin
            # makes the pair's draw and computes that child alone
            cross = batch_crossover_for(cfg.crossover, pair=False)
            cells = xp.nonzero(cross_gate)[0]
            rows = (cells.shape[0], shape[1])
            children[cross_gate] = cross(
                xp.take_into(matrix, cells, axis=0, out=scratch(
                    "cellular.centres", rows, matrix.dtype)),
                xp.take_into(matrix, mate_idx[cells], axis=0, out=scratch(
                    "cellular.mates", rows, matrix.dtype)), rng)
        if mut_gate.any():
            mutate = batch_mutation_for(cfg.mutation)
            cells = xp.nonzero(mut_gate)[0]
            children[mut_gate] = mutate(xp.take_into(
                children, cells, axis=0, out=scratch(
                    "cellular.mutants", (cells.shape[0], shape[1]),
                    matrix.dtype)), rng)
        child_objectives = self._evaluate_matrix(children)
        if self.replacement == "always":
            accept = xp.ones(n, dtype=bool)
        else:
            accept = child_objectives < objectives
        matrix[accept] = children[accept]
        objectives[accept] = child_objectives[accept]
        state.touch()

    def step(self) -> Population:
        """One generation (lines 4-7 of Table IV)."""
        if self.population is None:
            self.initialize()
        self.state.generation += 1
        if self.substrate == "array":
            self._step_grid()
        elif self.update == "synchronous":
            # every cell breeds against the *old* grid, row-major
            flat = [self._breed_cell(r, c) for r in range(self.rows)
                    for c in range(self.cols)]
            self._evaluate(flat)
            for i, child in enumerate(flat):
                self._replace_cell(i, child)
        else:  # asynchronous fixed line sweep: updates visible immediately
            for r in range(self.rows):
                for c in range(self.cols):
                    child = self._breed_cell(r, c)
                    self._evaluate([child])
                    self._replace_cell(r * self.cols + c, child)
        return self.population

    def run(self) -> GAResult:
        """Run Table IV until termination."""
        result = super().run()
        result.extra.update(rows=self.rows, cols=self.cols,
                            neighborhood=self.neighborhood,
                            update=self.update)
        return result
