"""Benchmark: object vs array variation substrate (selection -> merge).

PRs 1-2 vectorised *evaluation*; this benchmark tracks the other half of
the generation loop -- selection, crossover, mutation and the elitist
merge -- which the array substrate (``GAConfig.substrate="array"``,
:mod:`repro.core.substrate`) runs as matrix kernels end to end.  The
object substrate draws pair by pair and varies with one kernel call per
operator (:mod:`repro.operators.stages`), but still selects, wraps and
merges ``Individual`` objects.  It times one full variation+replacement
pass on the permutation flow shop (ta-style 50x10) across population
sizes and asserts

* the array offspring are valid permutations (closure holds under time
  pressure too), and
* the array path is at least 5x faster at population 1024 (the
  acceptance case; measured 6.0x on a shared 2-core VM, against 17.0x
  while the object substrate still called its operators pair by pair),
  env ``BENCH_MIN_SPEEDUP`` relaxing the gate on noisy shared runners.

Emits ``BENCH_variation.json`` next to this file -- the start of the
per-PR perf trajectory CI uploads as workflow artifacts.

Run with pytest (prints the table)::

    PYTHONPATH=src python -m pytest benchmarks/bench_variation.py -s -q

or standalone::

    PYTHONPATH=src python benchmarks/bench_variation.py
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro import GAConfig, MaxGenerations, Problem, SimpleGA
from repro.core.substrate import (ArrayState, elitist_merge_arrays,
                                  make_offspring_matrix)
from repro.encodings import FlowShopPermutationEncoding
from repro.instances import flow_shop

POPS = [64, 256, 1024]
N_JOBS, N_MACHINES = 50, 10
SEED = 7
REPS = 5
ACCEPTANCE_POP = 1024          # the >= 5x case
MIN_SPEEDUP = float(os.environ.get("BENCH_MIN_SPEEDUP", "5.0"))
OUT_PATH = Path(__file__).resolve().parent / "BENCH_variation.json"


def best_of(fn, reps=REPS):
    """Best-of-N wall time; the minimum is the least noisy estimator."""
    best = float("inf")
    out = None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def engines_for(pop_size):
    """Two initialised engines over the same evaluated population."""
    problem = Problem(FlowShopPermutationEncoding(
        flow_shop(N_JOBS, N_MACHINES, seed=SEED)))
    engines = {}
    for substrate in ("object", "array"):
        ga = SimpleGA(problem,
                      GAConfig(population_size=pop_size,
                               substrate=substrate),
                      MaxGenerations(1), seed=SEED)
        ga.initialize()
        engines[substrate] = ga
    return engines


def object_pass(ga):
    """Variation + merge on the object substrate (no evaluation)."""
    cfg = ga.config
    offspring = ga.make_offspring(ga.population, cfg.population_size)
    # merge needs evaluated offspring; reuse the parent objective vector
    # so timing stays a pure variation+replacement measurement
    objs = ga.population.objectives()
    for ind, obj in zip(offspring, objs):
        ind.objective = float(obj)
    return ga.population.elitist_merge(offspring, cfg.n_elites)


def array_pass(ga):
    """Variation + merge on the array substrate (no evaluation)."""
    cfg = ga.config
    offspring = make_offspring_matrix(ga.arrays, cfg, ga.problem, ga.rng,
                                      cfg.population_size)
    objs = ga.arrays.objectives[:offspring.shape[0]]
    return elitist_merge_arrays(ga.arrays, offspring, objs, cfg.n_elites,
                                cfg.population_size)


def run_case(pop_size):
    engines = engines_for(pop_size)
    t_obj, _ = best_of(lambda: object_pass(engines["object"]))
    t_arr, (matrix, _) = best_of(lambda: array_pass(engines["array"]))
    base = np.arange(N_JOBS)
    assert all(np.array_equal(np.sort(row), base) for row in matrix), \
        "array variation broke permutation closure"
    return t_obj, t_arr


def test_variation_speedup():
    rows = []
    print(f"\n{'pop':>6} {'object s':>10} {'array s':>10} {'speedup':>8}")
    for pop_size in POPS:
        t_obj, t_arr = run_case(pop_size)
        speedup = t_obj / t_arr
        rows.append({"population": pop_size, "object_s": t_obj,
                     "array_s": t_arr, "speedup": speedup})
        print(f"{pop_size:>6} {t_obj:>10.5f} {t_arr:>10.5f} {speedup:>7.1f}x")

    OUT_PATH.write_text(json.dumps({
        "scenario": f"permutation flow shop {N_JOBS}x{N_MACHINES} "
                    f"(ta-style), full variation+merge pass",
        "reps": REPS,
        "gate": {"population": ACCEPTANCE_POP, "min_speedup": MIN_SPEEDUP},
        "rows": rows,
    }, indent=2) + "\n")
    print(f"wrote {OUT_PATH.name}")

    gate = next(r for r in rows if r["population"] == ACCEPTANCE_POP)
    assert gate["speedup"] >= MIN_SPEEDUP, (
        f"array variation speedup {gate['speedup']:.1f}x at population "
        f"{ACCEPTANCE_POP} is below the {MIN_SPEEDUP:g}x gate")


if __name__ == "__main__":
    test_variation_speedup()
