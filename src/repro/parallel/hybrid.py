"""Hybrid parallel GA models.

"The hybrid model combines any two of the above methods" (survey,
Section I).  Implemented hybrids and their sources:

* :class:`IslandOfCellularGA` -- Lin et al. [21], first model: "an
  embedding of the fine-grained GA into the island GA, in which each
  subpopulation on the ring was a torus.  The migration on the ring was
  much less frequent than within the torus."
* :func:`island_with_torus_topology` -- Lin et al. [21], second model:
  an island GA whose connection topology is the fine-grained torus, with
  "a relatively large number of nodes".
* :class:`TwoLevelIslandGA` -- Harmanani et al. [33]: "neighboring islands
  shared their best chromosomes every GN generations and all islands
  broadcasted their best chromosome to all other islands every LN
  generations, where GN << LN."
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from ..core.backend import active_namespace as _xp
from ..core.ga import GAConfig
from ..core.individual import Individual
from ..core.observers import HistoryRecorder
from ..core.population import Population
from ..core.rng import spawn_rngs
from ..core.termination import MaxGenerations, Termination, TerminationState
from ..encodings.base import Problem
from .fine_grained import CellularGA
from .island import IslandGA, IslandGAResult, epoch_length
from .migration import (MigrationPolicy, integrate_immigrant_rows,
                        integrate_immigrants, replacement_targets,
                        select_emigrant_rows, select_emigrants)
from .topology import RingTopology, Topology, TorusTopology

__all__ = ["IslandOfCellularGA", "island_with_torus_topology",
           "TwoLevelIslandGA"]


class IslandOfCellularGA:
    """Ring of islands, each island a toroidal cellular GA (Lin [21], model 1).

    Ring migration every ``migration.interval`` cellular generations; the
    emigrant is each island's best cell (``migration.emigrant`` /
    ``migration.rate`` configurable), always integrated by replacing the
    target island's worst cells -- on both substrates.

    When the input stacks into a matrix every island evolves on the grid
    tensor of :class:`~repro.parallel.fine_grained.CellularGA` and the
    island grids are bound as slices of one
    ``(n_islands, rows*cols, n_genes)`` tensor, so the whole hybrid --
    cellular generations *and* ring migration -- runs as array kernels
    (migration is row gather/scatter on the shared tensor, exactly like
    the coarse-grained island engine).
    """

    def __init__(self, problem: Problem, n_islands: int = 4,
                 rows: int = 5, cols: int = 5, neighborhood: str = "L5",
                 config: GAConfig | None = None,
                 migration: MigrationPolicy | None = None,
                 termination: Termination | None = None,
                 seed: int | None = None):
        self.problem = problem
        self.n_islands = n_islands
        self.topology = RingTopology(n_islands)
        self.migration = migration or MigrationPolicy(interval=10)
        # immigrants always displace the worst cells, whatever the
        # policy's replacement says
        self._integrate = replace(self.migration, replacement="worst")
        self.termination = termination or MaxGenerations(100)
        self._tensor: np.ndarray | None = None
        self._tensor_objectives: np.ndarray | None = None
        rngs = spawn_rngs(seed, n_islands + 1)
        self._migration_rng = rngs[-1]
        self.islands = [
            CellularGA(problem, rows=rows, cols=cols,
                       neighborhood=neighborhood, config=config,
                       seed=rngs[i])
            for i in range(n_islands)
        ]
        # the path the islands chose (they share one config)
        self.substrate = self.islands[0].substrate
        self.state = TerminationState()
        self.global_history = HistoryRecorder()

    def _bind_tensor(self) -> None:
        """Stack the island grids into one (n_islands, cells, n_genes) tensor.

        Mirrors :meth:`repro.parallel.island.IslandGA._bind_tensor`: each
        island's :class:`~repro.core.substrate.GridState` is rebound to a
        slice view, per-generation updates copy in place, and migration
        becomes row assignment on the shared tensor.
        """
        xp = _xp()
        self._tensor = xp.stack([isl.grid_state.matrix
                                 for isl in self.islands])
        self._tensor_objectives = xp.stack([isl.grid_state.objectives
                                            for isl in self.islands])
        for i, isl in enumerate(self.islands):
            isl.grid_state.matrix = self._tensor[i]
            isl.grid_state.objectives = self._tensor_objectives[i]

    def _sync(self) -> None:
        self.state.evaluations = sum(isl.state.evaluations
                                     for isl in self.islands)
        if self.substrate == "array":
            from ..core.substrate import ArrayPopulationView, ArrayState
            # run() binds the tensor before the first sync, so the merged
            # population is already contiguous in it -- view it, no copies
            merged = ArrayPopulationView(self.problem, ArrayState(
                self._tensor.reshape(-1, self._tensor.shape[-1]),
                self._tensor_objectives.reshape(-1)))
        else:
            merged = Population([ind for isl in self.islands
                                 for ind in isl.population])
        self.state.record_best(float(merged.best().objective))
        self.global_history.observe(self.state.generation, merged,
                                    self.state.evaluations,
                                    self.state.elapsed())

    def _migrate(self, epoch: int) -> None:
        """Ring exchange: each island's emigrants replace the worst cells
        of its targets, picked by
        :func:`~repro.parallel.migration.replacement_targets` over the
        row-major cells -- the rule the array twin applies, so the two
        substrates break ties alike."""
        if self.substrate == "array":
            self._migrate_arrays(epoch)
            return
        boxes: dict[int, list[Individual]] = {i: [] for i in range(self.n_islands)}
        for i in range(self.n_islands):
            for tgt in self.topology.neighbors_out(i, epoch):
                boxes[tgt].extend(select_emigrants(
                    self.islands[i].population, self.migration,
                    self._migration_rng))
        for tgt, immigrants in boxes.items():
            if not immigrants:
                continue
            isl = self.islands[tgt]
            objectives = [ind.objective for row in isl.grid for ind in row]
            targets = replacement_targets(
                objectives, min(len(immigrants), len(objectives)),
                self._integrate, self._migration_rng)
            for pos, ind in zip(targets.tolist(), immigrants):
                isl.grid[pos // isl.cols][pos % isl.cols] = ind.copy()

    def _migrate_arrays(self, epoch: int) -> None:
        """Array-substrate ring exchange: emigrant rows gathered per edge,
        scattered over the worst cells of each target grid."""
        shipments: dict[int, list] = {i: [] for i in range(self.n_islands)}
        for i in range(self.n_islands):
            for tgt in self.topology.neighbors_out(i, epoch):
                shipments[tgt].append(select_emigrant_rows(
                    self.islands[i].grid_state, self.migration,
                    self._migration_rng))
        for tgt, ship in shipments.items():
            if not ship:
                continue
            xp = _xp()
            rows = xp.concatenate([r for r, _ in ship])
            objs = xp.concatenate([o for _, o in ship])
            integrate_immigrant_rows(self.islands[tgt].grid_state, rows,
                                     objs, self._integrate,
                                     self._migration_rng)

    def run(self) -> IslandGAResult:
        for isl in self.islands:
            isl.initialize()
        if self.substrate == "array":
            self._bind_tensor()
        self._sync()
        epoch = 0
        while not self.termination.done(self.state):
            gens = epoch_length(self.termination, self.state,
                                self.migration.interval)
            for _ in range(gens):
                for isl in self.islands:
                    isl.step()
            self.state.generation += gens
            epoch += 1
            self._migrate(epoch)
            self._sync()
        best_isl = min(self.islands,
                       key=lambda isl: isl.population.best().objective)
        return IslandGAResult(
            best=best_isl.population.best().copy(),
            histories=[isl.history for isl in self.islands],
            global_history=self.global_history,
            generations=self.state.generation,
            evaluations=self.state.evaluations,
            elapsed=self.state.elapsed(),
            termination_reason=self.termination.reason(),
            n_islands_final=self.n_islands,
            extra={"model": "island_of_cellular",
                   "substrate": self.substrate,
                   "tensor_mode": self._tensor is not None},
        )


def island_with_torus_topology(problem: Problem, n_islands: int = 16,
                               config: GAConfig | None = None,
                               migration: MigrationPolicy | None = None,
                               termination: Termination | None = None,
                               seed: int | None = None,
                               subpop_size: int = 10) -> IslandGA:
    """Lin et al. [21], model 2: many small islands on a torus topology.

    "The connection topology used in the island GA was one which is
    typically found in the fine-grained GA, and a relatively large number
    of nodes were used.  The migration frequency kept the same."
    """
    cfg = config or GAConfig(population_size=subpop_size)
    return IslandGA(problem, n_islands=n_islands, config=cfg,
                    topology=TorusTopology(n_islands),
                    migration=migration or MigrationPolicy(interval=5),
                    termination=termination, seed=seed)


class TwoLevelIslandGA:
    """Harmanani et al. [33]: frequent local + rare global migration.

    Wraps a standard :class:`IslandGA` on a ring but layers a second,
    much rarer broadcast exchange on top: every ``broadcast_interval``
    generations (``LN``), every island's best is broadcast to all others
    (replacing their worst member), while ring sharing happens every
    ``migration.interval`` generations (``GN``), with GN << LN.
    """

    def __init__(self, problem: Problem, n_islands: int = 5,
                 config: GAConfig | None = None,
                 migration: MigrationPolicy | None = None,
                 broadcast_interval: int = 50,
                 termination: Termination | None = None,
                 seed: int | None = None):
        self.migration = migration or MigrationPolicy(interval=5)
        if broadcast_interval <= self.migration.interval:
            raise ValueError("broadcast interval LN must exceed the local "
                             "migration interval GN (GN << LN)")
        self.broadcast_interval = broadcast_interval
        self.inner = IslandGA(problem, n_islands=n_islands, config=config,
                              topology=RingTopology(n_islands),
                              migration=self.migration,
                              termination=termination, seed=seed)

    def run(self) -> IslandGAResult:
        """Run with the extra broadcast level injected between epochs."""
        inner = self.inner
        t0 = time.perf_counter()
        inner.initialize()
        epoch = 0
        last_broadcast = 0
        while not inner.termination.done(inner.state):
            gens = epoch_length(inner.termination, inner.state,
                                inner.migration.interval)
            inner._advance_serial(gens)
            inner.state.generation += gens
            epoch += 1
            inner.migrate(epoch)
            if inner.state.generation - last_broadcast >= self.broadcast_interval:
                self._broadcast()
                last_broadcast = inner.state.generation
            inner._sync_state()
            inner._record_global()
        best_isl = min((inner.islands[i] for i in inner._active),
                       key=lambda isl: isl.population.best().objective)
        return IslandGAResult(
            best=best_isl.population.best().copy(),
            histories=[isl.history for isl in inner.islands],
            global_history=inner.global_history,
            generations=inner.state.generation,
            evaluations=sum(isl.state.evaluations for isl in inner.islands),
            elapsed=time.perf_counter() - t0,
            termination_reason=inner.termination.reason(),
            n_islands_final=len(inner._active),
            extra={"model": "two_level", "GN": self.migration.interval,
                   "LN": self.broadcast_interval,
                   "substrate": inner.substrate},
        )

    def _broadcast(self) -> None:
        """Every island's best goes to every other island (replace worst)."""
        inner = self.inner
        if inner.substrate == "array":
            self._broadcast_arrays()
            return
        bests = [inner.islands[i].population.best().copy()
                 for i in inner._active]
        for k, i in enumerate(inner._active):
            immigrants = [b.copy() for j, b in enumerate(bests) if j != k]
            integrate_immigrants(
                inner.islands[i].population, immigrants,
                MigrationPolicy(interval=1, rate=len(immigrants),
                                emigrant="best", replacement="worst"),
                inner._migration_rng)

    def _broadcast_arrays(self) -> None:
        """Array-substrate broadcast: best rows gathered, worst replaced."""
        inner = self.inner
        xp = _xp()
        states = [inner.islands[i].arrays for i in inner._active]
        best_idx = [int(np.argmin(s.objectives)) for s in states]
        rows = xp.stack([xp.copy(s.matrix[b])
                         for s, b in zip(states, best_idx)])
        objs = xp.asarray([float(s.objectives[b])
                           for s, b in zip(states, best_idx)])
        keep = xp.arange(len(states), dtype=xp.int64)
        for k, i in enumerate(inner._active):
            others = keep != k
            integrate_immigrant_rows(
                inner.islands[i].arrays, rows[others], objs[others],
                MigrationPolicy(interval=1, rate=int(others.sum()),
                                emigrant="best", replacement="worst"),
                inner._migration_rng)
