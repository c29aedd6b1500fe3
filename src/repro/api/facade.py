"""``repro.solve(spec) -> SolveReport``: the one entry point for solving.

Replaces the per-engine constructor zoo (and the CLI's old if/elif
dispatch chain) with a single declarative call::

    from repro import SolverSpec, solve

    report = solve(SolverSpec(instance="ft06", engine="island",
                              ga={"population_size": 60},
                              termination={"max_generations": 100},
                              seed=42))
    print(report.best_objective, report.evaluations)
    print(report.gantt())

``solve`` accepts a :class:`~repro.api.spec.SolverSpec` or a plain dict
(convenient for JSON job submission), validates it, resolves names
through the registries, runs the named engine, and normalises the
engine's native result into a :class:`SolveReport`.  Given equal specs,
``solve`` is bit-identical to constructing the engine directly -- the
facade adds dispatch, never behaviour (a property the test suite and
``benchmarks/bench_solve_overhead.py`` pin).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from ..core.backend import get_backend, use_backend
from ..core.termination import AnyOf, Termination
from ..core.ga import GAConfig
from ..encodings.base import Problem
from ..scheduling.schedule import Schedule
from .components import (default_encoding_name, resolve_instance,
                         resolve_problem)
from .registry import SpecError, engine_entry
from .spec import SolverSpec, _termination_builders

__all__ = ["SolveReport", "solve", "resolve_termination", "resolve_spec"]


def resolve_termination(termination: Mapping[str, Any],
                        instance=None) -> Termination:
    """Build the (possibly compound) termination criterion of a spec.

    Multiple criteria combine as a disjunction: the run stops when any
    fires, mirroring ``TargetObjective(...) | MaxGenerations(...)``.
    The vocabulary is :func:`repro.api.spec._termination_builders` --
    the same mapping ``SolverSpec.validate`` checks against.
    ``instance`` feeds instance-derived criteria (``proven_gap``
    resolves its lower bound from it).
    """
    builders = _termination_builders(instance)
    criteria = []
    for key, value in termination.items():
        if key not in builders:
            raise SpecError(f"termination: unknown criterion {key!r}; "
                            f"accepted: {sorted(builders)}")
        criteria.append(builders[key](value))
    if not criteria:
        raise SpecError("termination: at least one criterion required")
    return criteria[0] if len(criteria) == 1 else AnyOf(*criteria)


def resolve_spec(spec: SolverSpec, instance=None) -> SolverSpec:
    """Fully-explicit copy of ``spec``: canonical names, defaults merged.

    The returned spec has the concrete encoding name (defaults resolved
    per problem class), the canonical engine name (aliases normalised)
    and the engine's full parameter set (registry defaults merged under
    the spec's overrides).  It round-trips like any other spec and is
    what a :class:`SolveReport` carries, so a report is always exactly
    reproducible from its own ``spec``.  ``instance`` optionally reuses
    an already-resolved instance object.
    """
    entry = engine_entry(spec.engine)
    return spec.replace(
        encoding=spec.encoding or default_encoding_name(
            instance if instance is not None else spec.instance),
        engine=entry.name,
        engine_params=dict(entry.params, **spec.engine_params))


@dataclass
class SolveReport:
    """Normalised outcome of :func:`solve`.

    ``to_dict()`` is JSON-safe (genomes become nested lists; the live
    problem/history handles are dropped), which is what the sweep service
    streams between processes.
    """

    spec: SolverSpec
    engine: str
    best_objective: float
    objective_vector: tuple[float, ...]
    best_genome: Any
    generations: int
    evaluations: int
    elapsed: float
    timings: dict[str, float]
    termination_reason: str
    extra: dict[str, Any] = field(default_factory=dict)
    problem: Problem | None = field(default=None, repr=False, compare=False)
    history: Any = field(default=None, repr=False, compare=False)

    def schedule(self) -> Schedule:
        """Decode the best genome into a full schedule (audit/Gantt)."""
        if self.problem is None:
            raise ValueError("report was deserialised without a live "
                             "problem; rebuild via solve(report.spec)")
        return self.problem.decode(self.best_genome)

    def gantt(self) -> str:
        """Gantt chart of the best schedule."""
        return self.schedule().gantt()

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict (drops the live problem/history handles)."""
        return {
            "spec": self.spec.to_dict(),
            "engine": self.engine,
            "best_objective": self.best_objective,
            "objective_vector": list(self.objective_vector),
            "best_genome": _genome_to_jsonable(self.best_genome),
            "generations": self.generations,
            "evaluations": self.evaluations,
            "elapsed": self.elapsed,
            "timings": dict(self.timings),
            "termination_reason": self.termination_reason,
            "extra": _jsonable(self.extra),
        }


def _genome_to_jsonable(genome: Any) -> Any:
    if isinstance(genome, np.ndarray):
        return genome.tolist()
    if isinstance(genome, tuple):
        return [_genome_to_jsonable(part) for part in genome]
    return genome


def _jsonable(value: Any) -> Any:
    """Best-effort JSON coercion of engine ``extra`` payloads."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def solve(spec: SolverSpec | Mapping[str, Any],
          validate: bool = True, observers: Sequence[Any] = ()) -> SolveReport:
    """Run the solver a spec describes; the library's front door.

    Parameters
    ----------
    spec:
        a :class:`SolverSpec` or a plain dict (``SolverSpec.from_dict``
        applies, so JSON payloads work directly).
    validate:
        run :meth:`SolverSpec.validate` first (actionable errors before
        any work starts).  Disable only on specs you already validated.
    observers:
        extra :class:`~repro.core.observers.Observer` instances notified
        once per generation, forwarded to engines whose registry entry is
        tagged ``observers=True`` (simple, master-slave, cellular); other
        engines run unchanged and simply don't stream.  This is the
        progress seam the solver service's SSE endpoint rides -- observers
        are live objects, so they are call-site-only, never part of the
        (JSON-serializable) spec.
    """
    t_start = time.perf_counter()
    if not isinstance(spec, SolverSpec):
        spec = SolverSpec.from_dict(spec)
    # resolve the instance exactly once and thread it through validation,
    # spec resolution and problem construction (generated instances are
    # Python-level LCG loops -- rebuilding them per step is pure waste)
    instance = resolve_instance(spec)
    if validate:
        spec.validate(instance=instance)
    resolved = resolve_spec(spec, instance=instance)

    problem = resolve_problem(resolved, instance=instance)
    try:
        config = GAConfig(**resolved.ga, substrate=resolved.substrate)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"ga: {exc}") from exc
    if resolved.substrate == "array":
        # fail before any work with the spec path prefixed (the engine
        # would raise the same check from deeper inside otherwise)
        from ..core.substrate import check_array_support
        try:
            check_array_support(problem, config.resolved(problem))
        except ValueError as exc:
            raise SpecError(f"substrate: {exc}") from exc
    termination = resolve_termination(resolved.termination, instance)
    entry = engine_entry(resolved.engine)
    try:
        backend = get_backend(resolved.backend)
    except ValueError as exc:
        raise SpecError(f"backend: {exc}") from exc
    t_resolved = time.perf_counter()

    engine_kwargs = dict(resolved.engine_params)
    if observers and entry.tags.get("observers"):
        engine_kwargs["observers"] = tuple(observers)
    with use_backend(backend):
        result = entry.factory(problem, config, termination, resolved.seed,
                               **engine_kwargs)
    t_done = time.perf_counter()

    best = result.best
    history = getattr(result, "history", None)
    if history is None:
        history = getattr(result, "global_history", None)
    extra = dict(getattr(result, "extra", {}) or {})
    n_islands = getattr(result, "n_islands_final", None)
    if n_islands is not None:
        extra.setdefault("n_islands_final", n_islands)

    return SolveReport(
        spec=resolved,
        engine=entry.name,
        best_objective=float(best.objective),
        objective_vector=tuple(float(v) for v
                               in problem.objective_vector(best.genome)),
        best_genome=best.genome,
        generations=int(result.generations),
        evaluations=int(result.evaluations),
        elapsed=float(result.elapsed),
        timings={"resolve": t_resolved - t_start,
                 "run": t_done - t_resolved,
                 "total": t_done - t_start},
        termination_reason=str(result.termination_reason),
        extra=extra,
        problem=problem,
        history=history,
    )
