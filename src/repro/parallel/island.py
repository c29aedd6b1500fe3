"""Island (coarse-grained) parallel GA -- Table V of the survey.

::

    1: Initialize();
    2: while (termination criteria are not satisfied) do
    3:   Generation++
    4:   Parallel_SubSelection_Islands();
    5:   Parallel_SubCrossover_Islands();
    6:   Parallel_SubMutation_Individuals();
    7:   Parallel_FitnessValueEvaluation_Individuals();
    8:   if (generation % migration interval == 0)
    9:     Parallel_Migration_Islands();
    10:  end if
    11: end while

Every island is a full :class:`~repro.core.ga.SimpleGA` over its own
subpopulation; a :class:`~repro.parallel.topology.Topology` plus a
:class:`~repro.parallel.migration.MigrationPolicy` drive the exchange.
The engine steps its islands and never runs them, so they notify no
observers: the one history is the engine's ``global_history``.
One loop, :meth:`IslandGA._exchange`, runs every exchange on both
substrates.  The hybrids of :mod:`repro.parallel.hybrid` are subclasses:
:class:`~repro.parallel.hybrid.IslandOfCellularGA` swaps the island for
a cellular grid (``_new_island``), and
:class:`~repro.parallel.hybrid.TwoLevelIslandGA` adds a broadcast
exchange over a fully connected topology.

Features mapped to surveyed papers:

* heterogeneous islands -- per-island GAConfig (operators, rates): Park
  et al. [26] ("different subpopulations were equipped with different
  settings"), Bozejko & Wodecki [30] (different crossovers per island);
* shared vs. distinct initial subpopulations, cooperation on/off --
  the three strategy axes of [30];
* merge-on-stagnation -- Spanos et al. [29]: an island whose population
  collapses (more than half of pairs within a Hamming threshold) merges
  into its neighbour until one island remains;
* ``parallel="process"`` -- epochs between migrations run in real OS
  processes (one task per island); results are identical to the serial
  schedule because island evolution between migration points is
  independent by construction.

Each island evaluates its sub-population through the vectorised batch path
(:meth:`repro.encodings.base.Problem.batch_evaluator`) whenever the
encoding ships a batch decoder.

When every island's input stacks into a matrix the islands evolve on the
array substrate (:mod:`repro.core.substrate`); the serial engine then
binds all island populations as slices of one
``(n_islands, pop, n_genes)`` tensor, steps the islands in lockstep and
makes migration pure row slice assignment
(:func:`repro.parallel.migration.integrate_immigrant_rows`) -- no
``Individual`` boxing anywhere in the generation loop.  Each island
makes its own draws on its own RNG, then all islands' offspring are
varied by one kernel call per operator and decoded as one matrix per
generation, exactly the sub-population array decoding of the dual
heterogeneous island GA (Luo & El Baz, 2019); results equal stepping
every island alone.  Process-parallel islands and islands of unequal
size step each island on its own.  Islands whose inputs do not all
stack (an operator without a batch twin on one island, say) and island
merging, which resizes populations, breed ``Individual`` objects pair by
pair.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..core.backend import active_namespace as _xp
from ..core.ga import GAConfig, SimpleGA, lockstep
from ..core.individual import Individual
from ..core.observers import HistoryRecorder
from ..core.population import Population
from ..core.rng import spawn_rngs
from ..core.termination import (MaxGenerations, Termination, TerminationState)
from ..encodings.base import Problem
from .migration import (MigrationPolicy, integrate_immigrant_rows,
                        integrate_immigrants, select_emigrant_rows,
                        select_emigrants)
from .topology import RingTopology, Topology

__all__ = ["IslandGA", "IslandGAResult", "default_island_population",
           "epoch_length"]


def default_island_population(total_population: int, n_islands: int) -> int:
    """Per-island subpopulation size for a given *total* population.

    The documented project-wide default for splitting one population
    budget across ``n_islands`` subpopulations: an even share, floored at
    4 so every island keeps enough individuals for selection + crossover
    to act (``GAConfig`` requires >= 2; 4 leaves room for elites).  Spec
    resolution (:mod:`repro.api.engines`) and every island-style engine
    default use this one heuristic -- do not re-derive it inline.
    """
    if n_islands < 1:
        raise ValueError("need at least one island")
    return max(4, int(total_population) // int(n_islands))


@dataclass
class IslandGAResult:
    """Outcome of an island GA run.

    ``extra`` holds ``batch_path``, ``substrate`` and ``tensor_mode`` for
    every island engine; the hybrid adds ``model`` and the two-level GA
    ``model``, ``GN`` and ``LN``.  Global-history records carry the
    active island count as ``extra["n_islands"]``.
    """

    best: Individual
    global_history: HistoryRecorder
    generations: int
    evaluations: int
    elapsed: float
    termination_reason: str
    n_islands_final: int
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def best_objective(self) -> float:
        return float(self.best.objective)


def epoch_length(termination: Termination, state: TerminationState,
                 interval: int) -> int:
    """Generations to run before the next migration.

    A whole migration interval, clamped so a generation limit is never
    overrun; at least one generation.
    """
    if isinstance(termination, MaxGenerations):
        return max(1, min(interval, termination.limit - state.generation))
    return interval


def _advance_island(payload: bytes) -> bytes:
    """Process-pool task: run one island for ``gens`` generations."""
    engine, gens = pickle.loads(payload)
    for _ in range(gens):
        engine.step()
    return pickle.dumps(engine)


class IslandGA:
    """Multi-population GA with migration.

    Parameters
    ----------
    problem:
        shared problem definition.
    n_islands:
        subpopulation count.
    config:
        one GAConfig for all islands, or a sequence of per-island configs
        (heterogeneous islands).
    topology:
        island connectivity (default: unidirectional ring, the most
        frequent choice per Section IV).
    migration:
        migration policy; ``rate=0`` or ``cooperation=False`` yields
        independent search islands (strategy axis of Bozejko [30]).
    termination:
        global criterion, evaluated against total generations (epochs *
        island generations are synchronous) and the best across islands.
    shared_start:
        if True all islands start from one common random subpopulation
        (the "same start subpopulations" strategy of [30]).
    cooperation:
        if False, migration is disabled entirely.
    merge_on_stagnation:
        Hamming-distance threshold that triggers island merging (Spanos
        [29]); ``None`` disables merging.
    parallel:
        ``"serial"`` (default) or ``"process"``: run inter-migration
        epochs in a process pool, one task per island.
    """

    def __init__(self, problem: Problem, n_islands: int = 4,
                 config: GAConfig | Sequence[GAConfig] | None = None,
                 topology: Topology | None = None,
                 migration: MigrationPolicy | None = None,
                 termination: Termination | None = None,
                 seed: int | None = None,
                 shared_start: bool = False,
                 cooperation: bool = True,
                 merge_on_stagnation: int | None = None,
                 parallel: str = "serial",
                 n_workers: int | None = None):
        if n_islands < 1:
            raise ValueError("need at least one island")
        if parallel not in ("serial", "process"):
            raise ValueError("parallel must be 'serial' or 'process'")
        self.problem = problem
        self.n_islands = n_islands
        self.topology = topology or RingTopology(n_islands)
        if self.topology.n != n_islands:
            raise ValueError("topology size must equal island count")
        self.migration = migration or MigrationPolicy()
        self.termination = termination or MaxGenerations(100)
        self.cooperation = cooperation
        self.merge_on_stagnation = merge_on_stagnation
        self.parallel = parallel
        self.n_workers = n_workers

        if config is None:
            configs = [GAConfig()] * n_islands
        elif isinstance(config, GAConfig):
            configs = [config] * n_islands
        else:
            configs = list(config)
            if len(configs) != n_islands:
                raise ValueError("need one config per island")
        # resolve each distinct config once: islands sharing a config then
        # share its operator objects, which lockstep varies in one call
        resolved = {id(cfg): cfg.resolved(problem) for cfg in configs}
        configs = [resolved[id(cfg)] for cfg in configs]
        substrates = {cfg.substrate for cfg in configs}
        if len(substrates) > 1:
            raise ValueError("all islands must share one substrate, got "
                             f"{sorted(substrates)}")
        if substrates == {"array"} and merge_on_stagnation is not None:
            raise ValueError("merge_on_stagnation needs the object "
                             "substrate (island merging resizes "
                             "populations); use substrate='object'")
        self._tensor: np.ndarray | None = None
        self._tensor_objectives: np.ndarray | None = None
        rngs = spawn_rngs(seed, n_islands + 1)
        self._migration_rng = rngs[-1]
        self.islands: list[SimpleGA] = [
            self._new_island(cfg, rngs[i]) for i, cfg in enumerate(configs)]
        # one path for every island: arrays only when all inputs stack
        if merge_on_stagnation is None and all(
                isl.substrate == "array" for isl in self.islands):
            self.substrate = "array"
        else:
            self.substrate = "object"
        for isl in self.islands:
            isl.substrate = self.substrate
        self._shared_start = shared_start
        self.state = TerminationState()
        self.global_history = HistoryRecorder()
        self._active = list(range(n_islands))

    def _new_island(self, config: GAConfig,
                    rng: np.random.Generator) -> SimpleGA:
        """One island engine; subclasses override it to change the island."""
        return SimpleGA(self.problem, config, termination=MaxGenerations(0),
                        seed=rng)

    # -- lifecycle ---------------------------------------------------------------
    def initialize(self) -> None:
        """Create and evaluate all subpopulations."""
        if self._shared_start:
            first = self.islands[0].initialize()
            for isl in self.islands[1:]:
                if self.substrate == "array":
                    src = self.islands[0].arrays
                    isl.adopt_arrays(src.matrix.copy(),
                                     src.objectives.copy())
                else:
                    isl.population = first.copy()
        else:
            for isl in self.islands:
                isl.initialize()
        if self.substrate == "array" and self.parallel == "serial":
            self._bind_tensor()
        self._sync_state()
        self._record_global()

    def _bind_tensor(self) -> None:
        """Stack the island matrices into one (n_islands, pop, n_genes) tensor.

        Each island's :class:`~repro.core.substrate.ArrayState` is rebound
        to a slice view; per-generation updates copy in place, so the
        binding survives the whole run and migration becomes pure slice
        assignment on the tensor.  Heterogeneous island sizes (possible
        with per-island configs) keep separate per-island arrays --
        migration still runs on rows, just not through one tensor.
        """
        shapes = {isl.arrays.matrix.shape for isl in self.islands}
        if len(shapes) != 1:
            return
        xp = _xp()
        self._tensor = xp.stack([isl.arrays.matrix for isl in self.islands])
        self._tensor_objectives = xp.stack(
            [isl.arrays.objectives for isl in self.islands])
        for i, isl in enumerate(self.islands):
            isl.arrays.matrix = self._tensor[i]
            isl.arrays.objectives = self._tensor_objectives[i]

    def _sync_state(self) -> None:
        self.state.evaluations = sum(isl.state.evaluations
                                     for isl in self.islands)
        self.state.record_best(min(isl.population.best_objective()
                                   for isl in self.islands
                                   if isl.population is not None))

    def _record_global(self) -> None:
        # the recorder reads objectives only: concatenate the active
        # islands' vectors, not their members or genome matrices (a merged
        # island's best members already live on in its target)
        active = [self.islands[i] for i in self._active]
        if self.substrate == "array":
            parts = [isl.arrays.objectives for isl in active]
        else:
            parts = [isl.population.objectives() for isl in active]
        self.global_history.record(self.state.generation,
                                   _xp().concatenate(parts),
                                   self.state.evaluations,
                                   self.state.elapsed(),
                                   n_islands=len(self._active))

    # -- evolution ---------------------------------------------------------------
    def _advance_serial(self, gens: int) -> None:
        """Advance the active islands ``gens`` generations in this process.

        With the island tensor bound, all islands step in lockstep: one
        variation kernel call per operator and one decode per generation
        (:func:`~repro.core.ga.lockstep`).  Otherwise each island steps
        on its own.
        """
        if self._tensor is not None:
            family = [self.islands[i] for i in self._active]
            stacked = None
            if len(family) == len(self.islands):
                stacked = (self._tensor, self._tensor_objectives)
            for _ in range(gens):
                lockstep(family, stacked)
            return
        for i in self._active:
            isl = self.islands[i]
            for _ in range(gens):
                isl.step()

    def _advance_process(self, gens: int) -> None:
        from concurrent.futures import ProcessPoolExecutor
        payloads = [pickle.dumps((self.islands[i], gens))
                    for i in self._active]
        workers = self.n_workers or min(len(self._active), 8)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_advance_island, payloads))
        for i, blob in zip(self._active, results):
            self.islands[i] = pickle.loads(blob)

    def migrate(self, epoch: int) -> int:
        """One migration event; returns the number of migrants moved."""
        if (not self.cooperation or self.migration.rate == 0
                or len(self._active) < 2):
            return 0
        return self._exchange(self.topology, self.migration, epoch)

    def _exchange(self, topology: Topology, policy: MigrationPolicy,
                  epoch: int) -> int:
        """Send emigrants along ``topology`` under ``policy``; returns
        the number of migrants moved.

        Every emigrant is chosen and copied before any island takes
        immigrants, so a bidirectional exchange never ships a fresh
        arrival.  Topology positions index the active islands, so a
        shrunken (merged) system reuses the topology over the islands
        left.  On the array substrate emigrants are row copies and each
        target takes its arrivals as one row scatter (in the serial
        engine, slice assignment on the island tensor); otherwise they
        are ``Individual`` copies.  Both make the same migration-RNG
        calls.
        """
        arrays = self.substrate == "array"
        rng = self._migration_rng
        active = self._active
        pos_of = {isl: k for k, isl in enumerate(active)}
        outbox: dict[int, list] = {i: [] for i in active}
        moved = 0
        for i in active:
            for tgt_pos in topology.neighbors_out(pos_of[i], epoch, rng):
                tgt = active[tgt_pos % len(active)]
                if tgt == i:
                    continue
                if arrays:
                    rows, objs = select_emigrant_rows(self.islands[i].arrays,
                                                      policy, rng)
                    outbox[tgt].append((rows, objs))
                    moved += rows.shape[0]
                else:
                    emigrants = select_emigrants(self.islands[i].population,
                                                 policy, rng)
                    outbox[tgt].extend(emigrants)
                    moved += len(emigrants)
        for tgt, inbox in outbox.items():
            if not inbox:
                continue
            if arrays:
                xp = _xp()
                integrate_immigrant_rows(
                    self.islands[tgt].arrays,
                    xp.concatenate([rows for rows, _ in inbox]),
                    xp.concatenate([objs for _, objs in inbox]), policy, rng)
            else:
                integrate_immigrants(self.islands[tgt].population, inbox,
                                     policy, rng)
        return moved

    def _maybe_merge(self) -> None:
        """Spanos [29]: merge stagnated islands into their ring successor."""
        if self.merge_on_stagnation is None or len(self._active) < 2:
            return
        threshold = self.merge_on_stagnation
        for i in list(self._active):
            if len(self._active) < 2:
                break
            pop = self.islands[i].population
            if pop.stagnation_fraction(threshold) > 0.5:
                pos = self._active.index(i)
                tgt = self._active[(pos + 1) % len(self._active)]
                # absorb: target keeps its size, taking the best of the union
                union = list(self.islands[tgt].population) + list(pop)
                union.sort(key=lambda ind: ind.objective)
                size = len(self.islands[tgt].population)
                self.islands[tgt].population = Population(
                    ind.copy() for ind in union[:size])
                self._active.remove(i)

    def run(self) -> IslandGAResult:
        """Run Table V until the global termination criterion fires."""
        t0 = time.perf_counter()
        self.initialize()
        epoch = 0
        while not self.termination.done(self.state):
            gens = epoch_length(self.termination, self.state,
                                self.migration.interval)
            if self.parallel == "process" and len(self._active) > 1:
                self._advance_process(gens)
            else:
                self._advance_serial(gens)
            self.state.generation += gens
            epoch += 1
            self.migrate(epoch)
            self._maybe_merge()
            self._sync_state()
            self._record_global()
        best_island = min((self.islands[i] for i in self._active),
                          key=lambda isl: isl.population.best_objective())
        return IslandGAResult(
            best=best_island.population.best().copy(),
            global_history=self.global_history,
            generations=self.state.generation,
            evaluations=self.state.evaluations,
            elapsed=time.perf_counter() - t0,
            termination_reason=self.termination.reason(),
            n_islands_final=len(self._active),
            extra={"batch_path": all(isl.uses_batch_path
                                     for isl in self.islands),
                   "substrate": self.substrate,
                   "tensor_mode": self._tensor is not None},
        )
