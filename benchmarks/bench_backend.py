"""Benchmark: array-backend dispatch overhead.

Routing every batch kernel through the active Array-API namespace
(``repro.core.backend``) must be free on the default path: the numpy
namespace forwards attribute-for-attribute (cached after first touch),
so a ``backend="instrumented"`` solve -- which additionally enforces the
portable subset on every first attribute touch -- is the worst case the
indirection can cost.  This benchmark times the same array-substrate
configuration on the ``numpy`` and ``instrumented`` backends
interleaved, asserts bit-identity and gates the median per-pair overhead
at <=5% (env ``BENCH_MAX_BACKEND_OVERHEAD_PCT``).  Emits
``BENCH_backend.json`` next to this file.

Run with pytest (prints the table)::

    PYTHONPATH=src python -m pytest benchmarks/bench_backend.py -s -q

or standalone::

    PYTHONPATH=src python benchmarks/bench_backend.py
"""

import json
import os
import time
from pathlib import Path

from repro import SolverSpec, solve

POP = 64
GENERATIONS = 60
SEED = 42
REPS = 15
MAX_OVERHEAD_PCT = float(
    os.environ.get("BENCH_MAX_BACKEND_OVERHEAD_PCT", "5.0"))
OUT_PATH = Path(__file__).resolve().parent / "BENCH_backend.json"

BASE = SolverSpec(instance="ft06", substrate="array",
                  ga={"population_size": POP},
                  termination={"max_generations": GENERATIONS}, seed=SEED)


def _solve_on(backend_name):
    return solve(BASE.replace(backend=backend_name))


def timed_pairs(fn_a, fn_b, reps=REPS):
    """Interleaved (a, b) wall-time pairs; adjacency decorrelates drift."""
    pairs = []
    out_a = out_b = None
    for _ in range(reps):
        t0 = time.perf_counter()
        out_a = fn_a()
        ta = time.perf_counter() - t0
        t0 = time.perf_counter()
        out_b = fn_b()
        tb = time.perf_counter() - t0
        pairs.append((ta, tb))
    return pairs, out_a, out_b


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def test_backend_overhead():
    # warm both paths (imports, registries, namespace attribute caches)
    _solve_on("numpy")
    _solve_on("instrumented")

    pairs, on_numpy, on_instrumented = timed_pairs(
        lambda: _solve_on("numpy"), lambda: _solve_on("instrumented"))

    assert on_instrumented.best_objective == on_numpy.best_objective, \
        "instrumented backend must be bit-identical to numpy"
    assert on_instrumented.evaluations == on_numpy.evaluations

    t_numpy = min(ta for ta, _ in pairs)
    t_instrumented = min(tb for _, tb in pairs)
    # gate on the median of per-pair ratios: each ratio compares adjacent
    # runs, so a background-load spike poisons one pair, not the estimate
    overhead_pct = _median([100.0 * (tb - ta) / ta for ta, tb in pairs])

    print(f"\n{'backend':>14} {'best-of-' + str(REPS) + ' wall s':>18}")
    print(f"{'numpy':>14} {t_numpy:>18.4f}")
    print(f"{'instrumented':>14} {t_instrumented:>18.4f}")
    print(f"backend dispatch overhead (median of per-pair ratios): "
          f"{overhead_pct:+.2f}% (gate: <{MAX_OVERHEAD_PCT:g}%)")

    OUT_PATH.write_text(json.dumps({
        "instance": "ft06",
        "substrate": "array",
        "population": POP,
        "generations": GENERATIONS,
        "reps": REPS,
        "numpy_s": t_numpy,
        "instrumented_s": t_instrumented,
        "overhead_pct": overhead_pct,
        "gate_pct": MAX_OVERHEAD_PCT,
        "bit_identical": True,
    }, indent=2) + "\n")
    print(f"wrote {OUT_PATH.name}")

    assert overhead_pct < MAX_OVERHEAD_PCT, (
        f"backend dispatch overhead {overhead_pct:.2f}% exceeds "
        f"{MAX_OVERHEAD_PCT:g}% gate")


if __name__ == "__main__":
    test_backend_overhead()
