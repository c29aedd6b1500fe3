"""Pieces every workload shares: instances, seeds, references, checks."""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro import SolverSpec, solve
from repro.api.components import resolve_instance, resolve_problem
from repro.api.facade import resolve_spec
from repro.scheduling.schedule import FeasibilityError

#: One instance per shop class the array substrate covers: a job shop,
#: a permutation flow shop and a hybrid flow shop.
INSTANCES = ("ft10-shaped", "ta-fs-50x5-shaped", "hfs-10x3x2-shaped")


def seed_stream(workload: str, seed: int) -> random.Random:
    """Deterministic source of every spec seed of one run."""
    return random.Random(f"{workload}:{seed}")


@dataclass
class Percentile:
    """Nearest-rank percentile with the sample count behind it."""

    q: float
    value: float
    n: int
    beyond: int

    @property
    def reportable(self) -> bool:
        """At least ten samples lie beyond the percentile."""
        return self.beyond >= 10

    def describe(self) -> str:
        tag = "" if self.reportable else ", <10 beyond: indicative only"
        return (f"p{round(self.q * 100):d}={self.value:.4f} s "
                f"(n={self.n}, {self.beyond} beyond{tag})")


def percentile(values: Sequence[float], q: float) -> Percentile:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return Percentile(q, ordered[rank - 1], len(ordered),
                      len(ordered) - rank)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


class References:
    """Independent problems and NEH makespans to check results against.

    Built from the instance names alone, so a result is re-decoded by
    objects the solve under test never touched.
    """

    def __init__(self) -> None:
        self.problems = {}
        self.neh = {}
        for name in INSTANCES:
            spec = SolverSpec(instance=name)
            instance = resolve_instance(spec)
            problem = resolve_problem(resolve_spec(spec, instance=instance),
                                      instance=instance)
            # build the lazily memoised batch decode tables now
            problem.evaluate_batch(problem.random_matrix(
                2, np.random.default_rng(0)))
            self.problems[name] = problem
            self.neh[name] = solve(SolverSpec(instance=name,
                                              engine="neh")).best_objective

    def genome(self, instance: str, genome: Any) -> Any:
        """A genome as the decoder takes it (JSON lists become arrays)."""
        if self.problems[instance].kind == "composite":
            return tuple(np.asarray(part) for part in genome)
        return np.asarray(genome)

    def check(self, instance: str, genome: Any, objective: float) -> str | None:
        """Re-decode, audit and re-score; ``None`` when the result holds."""
        problem = self.problems[instance]
        try:
            schedule = problem.decode(self.genome(instance, genome))
            schedule.audit(problem.instance)
        except (FeasibilityError, ValueError, IndexError) as exc:
            return f"{instance}: infeasible best genome: {exc}"
        recomputed = float(problem.objective(schedule, problem.instance))
        if recomputed != float(objective):
            return (f"{instance}: reported objective {objective} but the "
                    f"decoded schedule scores {recomputed}")
        return None
