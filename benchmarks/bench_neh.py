"""Benchmark: NEH with one scoring call per insertion step vs the old loop.

NEH scores every insertion position of a step at once: Taillard's heads
and tails on flow shops, one batch decode of the completed candidate
orders on job shops.  The loop it replaced built and decoded each
candidate on its own; ``tests/scalar_reference.py`` keeps that loop as
the oracle.  On ``ta-fs-50x5-shaped`` (flow shop) and ``la31-shaped``
(job shop) this benchmark asserts

* the same job order and evaluation count as the oracle, and
* a speedup of at least 4x over it (measured 5-7x on ``la31-shaped``
  and ~30x on ``ta-fs-50x5-shaped`` on a shared 2-core VM; env
  ``BENCH_MIN_SPEEDUP`` relaxes the gate on noisy shared runners).

``ft10-shaped`` -- the service's inline NEH request -- is timed and
checked for equality too, but not gated.

Emits ``BENCH_neh.json`` next to this file.

Run with pytest (prints the table)::

    PYTHONPATH=src python -m pytest benchmarks/bench_neh.py -s -q

or standalone::

    PYTHONPATH=src python benchmarks/bench_neh.py
"""

import json
import os
import sys
import time
from pathlib import Path

from repro import SolverSpec
from repro.api.components import resolve_problem
from repro.heuristics import heuristic_order

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import scalar_reference  # noqa: E402  (the oracle lives with the tests)

GATED = ("ta-fs-50x5-shaped", "la31-shaped")
CASES = GATED + ("ft10-shaped",)
REPS = 7
MIN_SPEEDUP = float(os.environ.get("BENCH_MIN_SPEEDUP", "4.0"))
OUT_PATH = Path(__file__).resolve().parent / "BENCH_neh.json"


def best_of_pair(fn_a, fn_b, reps=REPS):
    """Best-of-N wall times of two calls, interleaved rep by rep.

    The minimum is the least noisy estimator; interleaving spreads a
    burst of host noise over both sides instead of one.
    """
    best_a = best_b = float("inf")
    out_a = out_b = None
    for _ in range(reps):
        t0 = time.perf_counter()
        out_a = fn_a()
        t1 = time.perf_counter()
        out_b = fn_b()
        t2 = time.perf_counter()
        best_a, best_b = min(best_a, t1 - t0), min(best_b, t2 - t1)
    return (best_a, out_a), (best_b, out_b)


def _case(name):
    problem = resolve_problem(SolverSpec(instance=name, engine="neh"))
    (t_oracle, (want, want_evals)), (t_batch, (order, n_evals)) = \
        best_of_pair(lambda: scalar_reference.neh_reference(problem),
                     lambda: heuristic_order("neh", problem))
    assert order.tolist() == want.tolist(), f"{name}: order diverged"
    assert n_evals == want_evals, f"{name}: evaluation count diverged"
    return {"instance": name, "n_jobs": int(order.size),
            "evaluations": int(n_evals), "oracle_s": t_oracle,
            "batched_s": t_batch, "speedup": t_oracle / t_batch}


def test_neh_speedup():
    rows = [_case(name) for name in CASES]

    print()
    print(f"NEH: per-candidate oracle vs one scoring call per step "
          f"(best of {REPS})")
    print(f"{'instance':>20} {'evals':>6} {'oracle':>10} {'batched':>10} "
          f"{'speedup':>8}")
    for row in rows:
        print(f"{row['instance']:>20} {row['evaluations']:>6} "
              f"{row['oracle_s'] * 1e3:>8.2f}ms "
              f"{row['batched_s'] * 1e3:>8.2f}ms {row['speedup']:>7.1f}x")

    OUT_PATH.write_text(json.dumps({
        "reps": REPS,
        "min_speedup_gate": MIN_SPEEDUP,
        "gated": list(GATED),
        "cases": rows,
        "orders_identical": True,
    }, indent=2) + "\n")
    print(f"wrote {OUT_PATH.name}")

    for row in rows:
        if row["instance"] in GATED:
            assert row["speedup"] >= MIN_SPEEDUP, (
                f"batched NEH only {row['speedup']:.1f}x faster than the "
                f"oracle on {row['instance']} (need >= {MIN_SPEEDUP}x)")


if __name__ == "__main__":
    test_neh_speedup()
