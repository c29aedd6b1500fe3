"""Scenario sweeps: batches of specs executed concurrently.

The ROADMAP's config-driven job submission layer: a
:class:`ScenarioSweep` expands a base :class:`~repro.api.spec.SolverSpec`
over the product of instances x engines x objectives x seeds, and a
:class:`SolverService` executes any batch of specs concurrently on the
supervised :class:`~repro.service.pool.WorkerPool` that also serves
``repro serve`` (a worker that dies costs only the spec that killed it),
streaming structured :class:`SweepResult` records as runs finish.

Because specs and reports are plain data, the worker boundary is two
JSON-safe dicts -- a spec in, a report out -- so the service doubles as
the in-process model of a distributed job queue: any transport that can
move JSON can move this workload.

::

    sweep = ScenarioSweep(base=SolverSpec(instance="ft06",
                                          termination={"max_generations": 30}),
                          instances=("ft06", "la01-shaped"),
                          engines=("simple", "island"),
                          seeds=(1, 2, 3))
    for res in SolverService(n_workers=4).run(sweep.specs()):
        print(res.summary())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

from .registry import SpecError
from .spec import SolverSpec

__all__ = ["ScenarioSweep", "SolverService", "SweepResult"]


@dataclass
class SweepResult:
    """Outcome of one spec within a sweep (success or structured failure)."""

    index: int
    spec: dict[str, Any]
    ok: bool
    report: dict[str, Any] | None = None
    error: str | None = None
    elapsed: float = 0.0

    def summary(self) -> str:
        """One status line (what the CLI ``sweep`` subcommand prints)."""
        s = self.spec
        head = (f"[{self.index:>3}] {s.get('instance', '?'):<20} "
                f"{s.get('engine', '?'):<13} seed={s.get('seed', '?'):<6}")
        if not self.ok:
            return f"{head} ERROR: {self.error}"
        r = self.report
        return (f"{head} best={r['best_objective']:g} "
                f"evals={r['evaluations']} "
                f"[{r['spec']['objective']}] {self.elapsed:.2f}s")


@dataclass(frozen=True)
class ScenarioSweep:
    """Product expansion of a base spec over scenario axes.

    Empty axes keep the base spec's own value, so a sweep varies exactly
    the axes you name.  Expansion order is deterministic:
    instances (outer) x engines x objectives x seeds (inner).
    """

    base: SolverSpec
    instances: tuple[str, ...] = ()
    engines: tuple[str, ...] = ()
    objectives: tuple[str, ...] = ()
    seeds: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.base, SolverSpec):
            object.__setattr__(self, "base",
                               SolverSpec.from_dict(self.base))
        for axis in ("instances", "engines", "objectives", "seeds"):
            object.__setattr__(self, axis, tuple(getattr(self, axis)))

    def specs(self) -> list[SolverSpec]:
        """The expanded, deduplicated spec list (validated lazily by ``solve``).

        Expansions that resolve to the same :meth:`SolverSpec.cache_key`
        -- a repeated axis value, or an engine alias next to its
        canonical name -- are dropped (first occurrence wins): solver
        runs are deterministic in their resolved spec, so duplicates
        could only re-compute identical reports.
        """
        out, seen = [], set()
        for instance in self.instances or (self.base.instance,):
            for engine in self.engines or (self.base.engine,):
                for objective in self.objectives or (self.base.objective,):
                    for seed in self.seeds or (self.base.seed,):
                        spec = self.base.replace(
                            instance=instance, engine=engine,
                            objective=objective, seed=int(seed))
                        key = spec.cache_key()
                        if key not in seen:
                            seen.add(key)
                            out.append(spec)
        return out

    def __len__(self) -> int:
        """Size of the raw product (an upper bound on ``len(specs())``)."""
        return (max(1, len(self.instances)) * max(1, len(self.engines))
                * max(1, len(self.objectives)) * max(1, len(self.seeds)))

    def to_dict(self) -> dict[str, Any]:
        return {"base": self.base.to_dict(),
                "instances": list(self.instances),
                "engines": list(self.engines),
                "objectives": list(self.objectives),
                "seeds": list(self.seeds)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSweep":
        known = {"base", "instances", "engines", "objectives", "seeds"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(f"sweep: unknown field(s) {unknown}; "
                            f"valid fields: {sorted(known)}")
        if "base" not in data:
            raise SpecError("sweep: missing required 'base' spec")
        return cls(base=SolverSpec.from_dict(data["base"]),
                   instances=_axis(data, "instances"),
                   engines=_axis(data, "engines"),
                   objectives=_axis(data, "objectives"),
                   seeds=_axis(data, "seeds", coerce=int))


def _axis(data: Mapping[str, Any], name: str, coerce=None) -> tuple:
    """One sweep axis from a JSON payload; bad shapes are SpecErrors.

    ``null`` and a missing key both mean "don't vary this axis".
    """
    values = data.get(name)
    if values is None:
        return ()
    if isinstance(values, str) or not isinstance(values, (list, tuple)):
        raise SpecError(f"sweep: {name} must be a list, got {values!r}")
    if coerce is None:
        return tuple(values)
    try:
        return tuple(coerce(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"sweep: {name}: {exc}") from exc


class SolverService:
    """Concurrent executor for batches of solver specs.

    Parameters
    ----------
    n_workers:
        process count; ``0`` or ``1`` runs in-process (serial) -- the
        right choice for tiny sweeps, tests, and engines that spawn
        their own pools (``parallel="process"`` islands, master-slave).
    ordered:
        yield results in submission order (default) or as completed
        (lower latency to the first result on heterogeneous batches).
    """

    def __init__(self, n_workers: int | None = None, ordered: bool = True):
        import os
        if n_workers is None:
            n_workers = min(8, os.cpu_count() or 1)
        self.n_workers = int(n_workers)
        self.ordered = ordered

    def run(self, specs: Iterable[SolverSpec | Mapping[str, Any]]
            ) -> Iterator[SweepResult]:
        """Execute every spec; yields a :class:`SweepResult` per spec.

        Failures are streamed as ``ok=False`` results, never raised --
        one bad scenario must not abort the remaining ones.
        """
        from concurrent.futures import as_completed

        from ..service.pool import WorkerPool, run_job
        payloads = [(i, spec.to_dict() if isinstance(spec, SolverSpec)
                     else dict(spec)) for i, spec in enumerate(specs)]
        if not payloads:
            return
        if self.n_workers <= 1:
            for index, spec in payloads:
                yield SweepResult(index=index, spec=spec,
                                  **run_job(str(index), spec))
            return
        pool = WorkerPool(workers=self.n_workers, queue_depth=len(payloads))
        try:
            futures = {pool.submit(str(index), spec): (index, spec)
                       for index, spec in payloads}
            done = futures if self.ordered else as_completed(futures)
            for fut in done:
                index, spec = futures[fut]
                yield SweepResult(index=index, spec=spec, **fut.result())
        finally:
            pool.shutdown()

    def run_sweep(self, sweep: ScenarioSweep) -> Iterator[SweepResult]:
        """Expand and execute a :class:`ScenarioSweep`."""
        return self.run(sweep.specs())
