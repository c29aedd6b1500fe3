"""Engine adapters: every parallel model of the survey, by name.

Registers all six engines -- the serial Table-II GA, the master-slave
model (Table III), the island model (Table V), the fine-grained cellular
model (Table IV), and the two hybrids (island-of-cellular, two-level
island) -- behind one uniform adapter signature::

    factory(problem, config, termination, seed, **engine_params) -> result

where ``result`` is the engine's native ``GAResult`` /
``IslandGAResult``.  The facade normalises these into a
:class:`~repro.api.facade.SolveReport`.

Population semantics: ``spec.ga.population_size`` is always the *total*
population budget.  Multi-population engines split it with
:func:`repro.parallel.island.default_island_population` unless
``engine_params.island_population`` pins the per-island size explicitly;
the cellular engines derive a near-square grid from it unless
``rows``/``cols`` are given (the same ``max(2, floor(sqrt(pop)))``
heuristic the old CLI used).
"""

from __future__ import annotations

import math
from dataclasses import replace

from ..core.ga import GAConfig, SimpleGA
from ..core.termination import Termination
from ..encodings.base import Problem
from ..parallel.fine_grained import NEIGHBORHOODS, CellularGA
from ..parallel.hybrid import IslandOfCellularGA, TwoLevelIslandGA
from ..parallel.island import IslandGA, default_island_population
from ..parallel.master_slave import MasterSlaveGA
from ..parallel.migration import MigrationPolicy
from ..parallel.topology import topology_by_name
from .registry import SpecError, register_engine

__all__ = ["grid_shape_for"]

_TOPOLOGIES = ("ring", "bidirectional_ring", "mesh", "torus", "hypercube",
               "full", "fully_connected", "star", "random")


def grid_shape_for(population_size: int,
                   rows: int | None, cols: int | None) -> tuple[int, int]:
    """Cellular grid dimensions from a total population budget.

    Explicit ``rows``/``cols`` win (a missing one mirrors the other);
    otherwise the grid is the near-square ``side x side`` with
    ``side = max(2, floor(sqrt(population_size)))``.
    """
    if rows is not None or cols is not None:
        r = int(rows if rows is not None else cols)
        c = int(cols if cols is not None else rows)
        if r < 1 or c < 1:
            raise SpecError(f"engine_params: grid dimensions must be "
                            f"positive, got rows={r} cols={c}")
        return r, c
    side = max(2, int(math.isqrt(int(population_size))))
    return side, side


def _check_topology(params: dict) -> None:
    if params.get("topology") not in _TOPOLOGIES:
        raise SpecError(
            f"engine_params: unknown topology {params.get('topology')!r}; "
            f"options: {sorted(set(_TOPOLOGIES))}")


def _check_neighborhood(params: dict) -> None:
    if params.get("neighborhood") not in NEIGHBORHOODS:
        raise SpecError(
            f"engine_params: unknown neighborhood "
            f"{params.get('neighborhood')!r}; options: "
            f"{sorted(NEIGHBORHOODS)}")


def _island_config(config: GAConfig, n_islands: int,
                   island_population: int | None) -> GAConfig:
    """Per-island GAConfig from the total population budget."""
    per_island = (int(island_population) if island_population is not None
                  else default_island_population(config.population_size,
                                                 n_islands))
    n_elites = min(config.n_elites, per_island)
    return replace(config, population_size=per_island, n_elites=n_elites)


@register_engine(
    "simple", aliases=("serial",),
    description="Serial GA of Table II (the panmictic baseline)",
    params={}, array_substrate=True, observers=True)
def _run_simple(problem: Problem, config: GAConfig,
                termination: Termination, seed: int, *,
                observers=()):
    return SimpleGA(problem, config, termination, seed=seed,
                    observers=observers).run()


@register_engine(
    "master-slave", aliases=("master_slave",),
    description="Master-slave parallel evaluation, Table III "
                "(bit-identical to the serial GA); at most `workers` "
                "slaves, sized from measured evaluation and "
                "communication costs",
    params={"workers": 4, "backend": "process", "batch_size": 16,
            "chunks_per_worker": 1},
    array_substrate=True, observers=True)
def _run_master_slave(problem: Problem, config: GAConfig,
                      termination: Termination, seed: int, *,
                      workers: int = 4, backend: str = "process",
                      batch_size: int = 16, chunks_per_worker: int = 1,
                      observers=()):
    return MasterSlaveGA(problem, config, termination, seed=seed,
                         n_workers=int(workers), backend=backend,
                         batch_size=int(batch_size),
                         chunks_per_worker=int(chunks_per_worker),
                         observers=observers).run()


@register_engine(
    "island", aliases=("coarse-grained", "coarse_grained"),
    description="Island model with migration, Table V "
                "(population split across islands)",
    params={"islands": 4, "island_population": None, "topology": "ring",
            "migration_interval": 5, "migration_rate": 1,
            "emigrant": "best", "replacement": "worst",
            "shared_start": False, "cooperation": True,
            "merge_on_stagnation": None, "parallel": "serial",
            "workers": None},
    check_params=_check_topology, array_substrate=True)
def _run_island(problem: Problem, config: GAConfig,
                termination: Termination, seed: int, *,
                islands: int = 4, island_population: int | None = None,
                topology: str = "ring", migration_interval: int = 5,
                migration_rate: int = 1, emigrant: str = "best",
                replacement: str = "worst", shared_start: bool = False,
                cooperation: bool = True,
                merge_on_stagnation: int | None = None,
                parallel: str = "serial", workers: int | None = None):
    n_islands = int(islands)
    return IslandGA(
        problem, n_islands=n_islands,
        config=_island_config(config, n_islands, island_population),
        topology=topology_by_name(topology, n_islands),
        migration=MigrationPolicy(interval=int(migration_interval),
                                  rate=int(migration_rate),
                                  emigrant=emigrant,
                                  replacement=replacement),
        termination=termination, seed=seed, shared_start=shared_start,
        cooperation=cooperation, merge_on_stagnation=merge_on_stagnation,
        parallel=parallel, n_workers=workers).run()


@register_engine(
    "cellular", aliases=("fine-grained", "fine_grained"),
    description="Fine-grained cellular GA on a toroidal grid, Table IV",
    params={"rows": None, "cols": None, "neighborhood": "L5",
            "replacement": "if_better", "update": "synchronous"},
    check_params=_check_neighborhood, array_substrate=True, observers=True)
def _run_cellular(problem: Problem, config: GAConfig,
                  termination: Termination, seed: int, *,
                  rows: int | None = None, cols: int | None = None,
                  neighborhood: str = "L5", replacement: str = "if_better",
                  update: str = "synchronous", observers=()):
    r, c = grid_shape_for(config.population_size, rows, cols)
    return CellularGA(problem, rows=r, cols=c, neighborhood=neighborhood,
                      config=config, termination=termination, seed=seed,
                      replacement=replacement, update=update,
                      observers=observers).run()


@register_engine(
    "hybrid", aliases=("island-of-cellular", "island_of_cellular"),
    description="Hybrid: ring of islands, each a cellular torus "
                "(Lin et al. [21])",
    params={"islands": 4, "rows": None, "cols": None, "neighborhood": "L5",
            "migration_interval": 10, "migration_rate": 1},
    check_params=_check_neighborhood, array_substrate=True)
def _run_hybrid(problem: Problem, config: GAConfig,
                termination: Termination, seed: int, *,
                islands: int = 4, rows: int | None = None,
                cols: int | None = None, neighborhood: str = "L5",
                migration_interval: int = 10, migration_rate: int = 1):
    n_islands = int(islands)
    per_island = default_island_population(config.population_size, n_islands)
    r, c = grid_shape_for(per_island, rows, cols)
    return IslandOfCellularGA(
        problem, n_islands=n_islands, rows=r, cols=c,
        neighborhood=neighborhood, config=config,
        migration=MigrationPolicy(interval=int(migration_interval),
                                  rate=int(migration_rate)),
        termination=termination, seed=seed).run()


@register_engine(
    "exact", aliases=("bnb", "branch-and-bound"),
    description="Exact branch-and-bound oracle: proves optimal makespans "
                "for small instances (pure Python, always available)",
    params={"node_limit": 2_000_000, "time_limit": None},
    array_substrate=True)
def _run_exact(problem: Problem, config: GAConfig,
               termination: Termination, seed: int, *,
               node_limit: int | None = 2_000_000,
               time_limit: float | None = None):
    from ..exact.engine import run_exact_engine
    return run_exact_engine(problem, config, termination, seed,
                            backend="bnb",
                            node_limit=(None if node_limit is None
                                        else int(node_limit)),
                            time_limit=time_limit)


@register_engine(
    "cpsat", aliases=("cp-sat", "ortools"),
    description="OR-Tools CP-SAT exact backend (optional dependency; "
                "adds flexible job shops)",
    params={"time_limit": 60.0}, array_substrate=True)
def _run_cpsat(problem: Problem, config: GAConfig,
               termination: Termination, seed: int, *,
               time_limit: float | None = 60.0):
    from ..exact.engine import run_exact_engine
    return run_exact_engine(problem, config, termination, seed,
                            backend="cpsat", time_limit=time_limit)


def _register_heuristic(name: str, aliases: tuple[str, ...],
                        description: str) -> None:
    """Register one constructive rule as a deterministic engine.

    Heuristic engines accept any substrate (they never iterate a
    population, so the flag is vacuous but valid) and carry the
    ``heuristic=True`` tag the solver service's fast-answer tier keys
    on: deterministic single-shot solves are answered inline instead of
    paying a worker-pool round trip.
    """
    @register_engine(name, aliases=aliases, description=description,
                     params={}, array_substrate=True, heuristic=True)
    def _run(problem: Problem, config: GAConfig,
             termination: Termination, seed: int, *, _rule=name):
        from ..heuristics import run_heuristic_engine
        return run_heuristic_engine(problem, config, termination, seed,
                                    rule=_rule)


for _name, _aliases, _desc in (
    ("neh", ("nawaz-enscore-ham",),
     "NEH insertion heuristic: decreasing-work seed, best-position "
     "insertion (the classical flow shop baseline)"),
    ("johnson", (),
     "Johnson's rule: optimal for 2-machine flow shops; modified "
     "virtual-machine variant for 3+ stages"),
    ("spt", ("shortest-processing-time",),
     "Shortest total processing time dispatch order"),
    ("edd", ("earliest-due-date",),
     "Earliest due date dispatch order (identity order without due "
     "dates)"),
):
    _register_heuristic(_name, _aliases, _desc)


@register_engine(
    "two-level", aliases=("two_level", "two-level-island"),
    description="Two-level island hybrid: frequent ring + rare broadcast "
                "migration (Harmanani et al. [33])",
    params={"islands": 5, "island_population": None,
            "migration_interval": 5, "migration_rate": 1,
            "broadcast_interval": 50},
    array_substrate=True)
def _run_two_level(problem: Problem, config: GAConfig,
                   termination: Termination, seed: int, *,
                   islands: int = 5, island_population: int | None = None,
                   migration_interval: int = 5, migration_rate: int = 1,
                   broadcast_interval: int = 50):
    n_islands = int(islands)
    return TwoLevelIslandGA(
        problem, n_islands=n_islands,
        config=_island_config(config, n_islands, island_population),
        migration=MigrationPolicy(interval=int(migration_interval),
                                  rate=int(migration_rate)),
        broadcast_interval=int(broadcast_interval),
        termination=termination, seed=seed).run()
