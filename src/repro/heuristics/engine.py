"""Adapter exposing the constructive heuristics as ``SolverSpec`` engines.

``repro.solve(SolverSpec(engine="neh"))`` runs the rule, expresses its
job order as a genome of the spec's encoding, and scores that genome
through the problem's normal evaluation path -- so the reported
objective is exactly what ``report.schedule().audit(...)`` verifies,
never a side-channel number.  The result is shaped like a ``GAResult``
(``best``, ``generations``, ``evaluations``, ``elapsed``,
``termination_reason``, ``extra``) and the facade normalises it like
any GA engine.

Heuristic engines are deterministic and single-shot, which is why their
registry entries carry the ``heuristic=True`` tag: the solver service
answers them inline (the fast tier) instead of paying a worker-pool
round trip.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from ..core.ga import GAConfig
from ..core.individual import Individual
from ..core.termination import Termination
from ..encodings.base import Problem
from .constructive import heuristic_order, order_to_genome

__all__ = ["HeuristicRunResult", "run_heuristic_engine"]


@dataclass
class HeuristicRunResult:
    """Engine-result shim the facade normalises like any ``GAResult``."""

    best: Individual
    generations: int
    evaluations: int
    elapsed: float
    termination_reason: str
    extra: dict[str, Any] = field(default_factory=dict)
    history: Any = None


def run_heuristic_engine(problem: Problem, config: GAConfig,
                         termination: Termination, seed: int, *,
                         rule: str) -> HeuristicRunResult:
    """Run constructive rule ``rule`` on ``problem`` as an engine.

    ``seed``, the GA hyper-parameters and the termination criterion are
    accepted (the adapter signature is uniform across engines) but
    ignored: the construction is deterministic and single-shot.  Rule
    and encoding mismatches surface as
    :class:`~repro.api.registry.SpecError` with the valid options named.
    """
    from ..api.registry import SpecError

    t0 = time.perf_counter()
    try:
        order, n_evals = heuristic_order(rule, problem)
        genome = order_to_genome(problem, order)
    except ValueError as exc:
        raise SpecError(f"engine: {exc}") from exc
    objective = float(problem.evaluate(genome))
    best = Individual(genome=genome, objective=objective)
    elapsed = time.perf_counter() - t0
    return HeuristicRunResult(
        best=best,
        generations=1,
        evaluations=n_evals + 1,
        elapsed=elapsed,
        termination_reason=f"constructive heuristic {rule!r} completed",
        extra={"heuristic": rule,
               "job_order": [int(j) for j in order],
               "substrate": config.substrate},
    )
