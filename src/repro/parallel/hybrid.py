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

Both hybrid classes are :class:`~repro.parallel.island.IslandGA` subclasses:
the island engine's run loop, tensor binding, history and migration
serve them, and they change only the island or add an exchange.  A
:class:`~repro.parallel.fine_grained.CellularGA` island is itself a
:class:`~repro.core.ga.SimpleGA` over an ``ArrayState`` of cells, and
like every island it is stepped, so it records no history of its own.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..core.ga import GAConfig
from ..core.termination import Termination
from ..encodings.base import Problem
from .fine_grained import CellularGA
from .island import IslandGA, IslandGAResult
from .migration import MigrationPolicy
from .topology import FullyConnectedTopology, RingTopology, TorusTopology

__all__ = ["IslandOfCellularGA", "island_with_torus_topology",
           "TwoLevelIslandGA"]


class IslandOfCellularGA(IslandGA):
    """Ring of islands, each island a toroidal cellular GA (Lin [21], model 1).

    Ring migration every ``migration.interval`` cellular generations; the
    emigrant is each island's best cell (``migration.emigrant`` /
    ``migration.rate`` configurable), always integrated by replacing the
    target island's worst cells: the policy's ``replacement`` is forced
    to ``"worst"``, and ``self.migration`` holds the policy in effect.

    An :class:`~repro.parallel.island.IslandGA` whose islands are
    :class:`~repro.parallel.fine_grained.CellularGA` grids: the island
    engine's run loop, tensor binding and migration serve it unchanged.
    When the input stacks into a matrix the island grids are bound as
    slices of one ``(n_islands, rows*cols, n_genes)`` tensor, so cellular
    generations *and* ring migration run as array kernels.
    """

    def __init__(self, problem: Problem, n_islands: int = 4,
                 rows: int = 5, cols: int = 5, neighborhood: str = "L5",
                 config: GAConfig | None = None,
                 migration: MigrationPolicy | None = None,
                 termination: Termination | None = None,
                 seed: int | None = None):
        self.rows, self.cols = rows, cols
        self.neighborhood = neighborhood
        super().__init__(
            problem, n_islands=n_islands, config=config,
            topology=RingTopology(n_islands),
            migration=replace(migration or MigrationPolicy(interval=10),
                              replacement="worst"),
            termination=termination, seed=seed)

    def _new_island(self, config: GAConfig,
                    rng: np.random.Generator) -> CellularGA:
        return CellularGA(self.problem, rows=self.rows, cols=self.cols,
                          neighborhood=self.neighborhood, config=config,
                          seed=rng)

    def _advance_serial(self, gens: int) -> None:
        """Step each grid ``gens`` generations; the islands do not meet
        between migrations, so island by island equals generation by
        generation."""
        for isl in self.islands:
            for _ in range(gens):
                isl.step()

    def run(self) -> IslandGAResult:
        result = super().run()
        result.extra["model"] = "island_of_cellular"
        return result


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


#: the two-level broadcast: each island's best displaces the worst member
#: of every other island (no migration-RNG draw)
_BROADCAST = MigrationPolicy(interval=1, rate=1, emigrant="best",
                             replacement="worst")


class TwoLevelIslandGA(IslandGA):
    """Harmanani et al. [33]: frequent local + rare global migration.

    A standard :class:`IslandGA` on a ring with a second, much rarer
    broadcast exchange on top: every ``broadcast_interval`` generations
    (``LN``), every island's best is broadcast to all others (replacing
    their worst member), while ring sharing happens every
    ``migration.interval`` generations (``GN``), with GN << LN.
    """

    def __init__(self, problem: Problem, n_islands: int = 5,
                 config: GAConfig | None = None,
                 migration: MigrationPolicy | None = None,
                 broadcast_interval: int = 50,
                 termination: Termination | None = None,
                 seed: int | None = None):
        migration = migration or MigrationPolicy(interval=5)
        if broadcast_interval <= migration.interval:
            raise ValueError("broadcast interval LN must exceed the local "
                             "migration interval GN (GN << LN)")
        self.broadcast_interval = broadcast_interval
        self._last_broadcast = 0
        super().__init__(problem, n_islands=n_islands, config=config,
                         topology=RingTopology(n_islands),
                         migration=migration, termination=termination,
                         seed=seed)

    def migrate(self, epoch: int) -> int:
        """Ring migration, plus the broadcast once LN generations passed."""
        moved = super().migrate(epoch)
        if self.state.generation - self._last_broadcast \
                >= self.broadcast_interval:
            moved += self._broadcast(epoch)
            self._last_broadcast = self.state.generation
        return moved

    def _broadcast(self, epoch: int = 0) -> int:
        """Every island's best goes to every other island (replace worst)."""
        return self._exchange(FullyConnectedTopology(len(self._active)),
                              _BROADCAST, epoch)

    def run(self) -> IslandGAResult:
        result = super().run()
        result.extra.update(model="two_level", GN=self.migration.interval,
                            LN=self.broadcast_interval)
        return result
