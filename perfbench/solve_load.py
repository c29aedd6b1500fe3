"""The two in-process workloads: ``repro.solve`` over a fixed spec list.

``array-engines`` runs simple, island and cellular GAs on the array
substrate; ``object-engines`` runs the same nine specs on the object
substrate plus one master-slave spec with a two-process pool.  One pass
solves every spec once, then answers twenty NEH requests through the
same ``solve`` call (the fast tier).  Passes repeat until the run's
seconds are used.

A spec's time is its fastest pass, and the fast tier's median is that of
its fastest pass: other tenants of a shared machine only ever add time,
in bursts of a few seconds, so the fastest of six to eight passes
estimates the solver's own cost.  Under such contention the per-spec
median moved 24% between runs, the minimum 6%.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import SolverSpec, solve

from common import INSTANCES, References, percentile, seed_stream
from tracer import SOLVER_LAYERS, Tracer

ENGINES = ("simple", "island", "cellular")
GA = {"population_size": 200}
#: generations per substrate: the object substrate runs half as many so a
#: run holds six passes rather than three
GENERATIONS = {"array-engines": 100, "object-engines": 50}
FAST_INSTANCE = "ft10-shaped"
FAST_PER_PASS = 20


def workload_specs(workload: str, seed: int) -> tuple[list, list]:
    """GA specs and fast-tier specs of one run; all seeds from ``seed``."""
    stream = seed_stream(workload, seed)
    substrate = "array" if workload == "array-engines" else "object"
    termination = {"max_generations": GENERATIONS[workload]}
    specs = [SolverSpec(instance=instance, engine=engine,
                        substrate=substrate, ga=dict(GA),
                        termination=dict(termination),
                        seed=stream.randrange(2 ** 31))
             for engine in ENGINES for instance in INSTANCES]
    if workload == "object-engines":
        specs.append(SolverSpec(
            instance="ft10-shaped", engine="master-slave",
            substrate="object", ga=dict(GA), termination=dict(termination),
            engine_params={"backend": "process", "workers": 2},
            seed=stream.randrange(2 ** 31)))
    fast = [SolverSpec(instance=FAST_INSTANCE, engine="neh",
                       seed=stream.randrange(2 ** 31))
            for _ in range(FAST_PER_PASS)]
    return specs, fast


@dataclass
class Solved:
    wall: float
    best: float
    genome: Any
    evaluations: int


def _fastest(passes: list[list[Solved | None]]) -> list[Solved | None]:
    """Per spec, its fastest successful run over the passes."""
    return [min((r for r in runs if r is not None), default=None,
                key=lambda r: r.wall) for runs in zip(*passes)]


def _same_genome(a: Any, b: Any) -> bool:
    if isinstance(a, tuple):
        return all(np.array_equal(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


class SolveWorkload:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.specs, self.fast = workload_specs(workload, seed)
        self.refs = References()
        self.attempted = 0
        self.failures: list[str] = []
        self.first: list[Solved | None] | None = None

    def close(self) -> None:
        pass

    # -- one pass --------------------------------------------------------------------
    def _solve(self, spec: SolverSpec,
               tracer: Tracer | None = None) -> Solved | None:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                report = solve(spec)
            else:
                with tracer.span("solve"):
                    report = solve(spec)
        except Exception as exc:  # noqa: BLE001 - counted as a failed request
            self.failures.append(f"{spec.engine}/{spec.instance}: "
                                 f"{type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - t0
        problem = self.refs.check(spec.instance, report.best_genome,
                                  report.best_objective)
        if problem is not None:
            self.failures.append(problem)
            return None
        return Solved(wall, report.best_objective, report.best_genome,
                      report.evaluations)

    def ga_pass(self, tracer: Tracer | None = None) -> list[Solved | None]:
        """Solve every GA spec once; results must repeat bit for bit."""
        solved = [self._solve(spec, tracer) for spec in self.specs]
        if self.first is None:
            self.first = solved
        else:
            for spec, ref, got in zip(self.specs, self.first, solved):
                if ref is None or got is None:
                    continue
                if got.best != ref.best or not _same_genome(got.genome,
                                                            ref.genome):
                    self.failures.append(
                        f"{spec.engine}/{spec.instance}: seed {spec.seed} "
                        f"gave {got.best}, earlier pass {ref.best}")
        return solved

    def fast_pass(self) -> list[float]:
        walls = []
        for spec in self.fast:
            solved = self._solve(spec)
            if solved is None:
                continue
            if solved.best != self.refs.neh[spec.instance]:
                self.failures.append(f"neh/{spec.instance}: {solved.best} "
                                     f"!= reference "
                                     f"{self.refs.neh[spec.instance]}")
            walls.append(solved.wall)
        return walls

    # -- the two kinds of run ------------------------------------------------------
    def measure(self, seconds: float) -> dict[str, float]:
        """End-to-end metrics, tracing off."""
        passes, fast_p50s = [], []
        t_start = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            passes.append(self.ga_pass())
            walls = self.fast_pass()
            if walls:
                fast_p50s.append(percentile(walls, 0.5))
            now = time.perf_counter()
            if now - t_start >= seconds - 0.5 * (now - t_pass):
                break
        spec_walls, evaluations, ratios = [], 0, []
        for spec, run in zip(self.specs, _fastest(passes)):
            if run is None:
                continue
            spec_walls.append(run.wall)
            evaluations += run.evaluations
            ratios.append(run.best / self.refs.neh[spec.instance])
        if not spec_walls or not fast_p50s:
            raise RuntimeError("no solve succeeded: "
                               + "; ".join(self.failures[:3]))
        # the percentiles rank specs by their fastest pass
        p50 = percentile(spec_walls, 0.5)
        p90 = percentile(spec_walls, 0.9)
        fast = min(fast_p50s, key=lambda p: p.value)
        print(f"# {len(passes)} passes; GA solve latency {p50.describe()}, "
              f"{p90.describe()}; fast tier {fast.describe()}")
        return {
            "evals_per_s": evaluations / sum(spec_walls),
            "quality_ratio": float(np.mean(ratios)),
            "latency_s.p50": p50.value,
            "latency_s.p90": p90.value,
            "fast_latency_s.p50": fast.value,
            "jobs_per_s": len(spec_walls) / sum(spec_walls),
        }

    def trace(self, seconds: float, dump_path: str) -> dict[str, float]:
        """Per-layer metrics: untraced and traced passes, alternating."""
        tracer = Tracer()
        untraced, traced = [], []
        t_start = time.perf_counter()
        while True:
            t_pair = time.perf_counter()
            untraced.append(self.ga_pass())
            tracer.install(SOLVER_LAYERS)
            try:
                traced.append(self.ga_pass(tracer))
            finally:
                tracer.uninstall()
            now = time.perf_counter()
            if now - t_start >= seconds - 0.5 * (now - t_pair):
                break
        n_traced = len(traced)
        pairs = [(u.wall, t.wall) for u, t in zip(_fastest(untraced),
                                                   _fastest(traced))
                 if u is not None and t is not None]
        self_times = tracer.self_times()
        solve_wall = sum(tracer.durations("solve"))
        remainder = self_times.pop("solve", 0.0)
        values = {f"{name}_s": t / n_traced for name, t in self_times.items()}
        values["parallel.fine_grained.step_self_s"] = values.pop(
            "parallel.fine_grained.step_s", 0.0)
        for name in ("encodings.evaluate.rows", "operators.selection.calls",
                     "operators.crossover.calls", "operators.mutation.calls",
                     "parallel.migration.migrants",
                     "parallel.executors.payload_bytes"):
            values[name] = tracer.counts.get(name, 0) / n_traced
        values["trace.coverage"] = 1.0 - remainder / solve_wall
        values["trace.overhead"] = (sum(t for _, t in pairs)
                                    / sum(u for u, _ in pairs) - 1.0)
        values["trace.remainder_s"] = remainder / n_traced
        print(f"# {n_traced} traced passes, {len(tracer.spans)} spans; "
              f"named layers cover {values['trace.coverage']:.1%} of "
              f"{solve_wall / n_traced:.3f} s solve time per pass; "
              f"tracing overhead {values['trace.overhead']:+.1%}")
        tracer.dump(dump_path, {"workload": self.workload,
                                "traced_passes": n_traced})
        return values
