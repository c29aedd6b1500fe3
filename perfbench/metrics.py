"""Every metric the benchmark reports, with its unit and direction.

``END_TO_END`` is printed with ``--trace 0``; ``PER_LAYER`` with
``--trace 1``.  Each per-layer metric names the end-to-end metric and
workload it should move, so a change that claims a gain on one layer can
say beforehand where the gain must show.  ``BENCHMARK.json`` lists the
same names, units and directions.
"""

from __future__ import annotations

#: name -> (unit, better); perfbench/README.md defines each one
END_TO_END = {
    "setup_s": ("s", "lower"),
    "evals_per_s": ("1/s", "higher"),
    "quality_ratio": ("ratio", "lower"),
    "latency_s.p50": ("s", "lower"),
    "latency_s.p90": ("s", "lower"),
    "fast_latency_s.p50": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "ok_rate": ("ratio", "higher"),
}

#: name -> (unit, better, target end-to-end metric @ workload)
PER_LAYER = {
    "encodings.evaluate_s": (
        "s", "lower", "evals_per_s @ array-engines; less on object-engines"),
    "encodings.evaluate.rows": (
        "count", "lower", "evals_per_s @ array-engines, object-engines"),
    "operators.selection_s": ("s", "lower", "evals_per_s @ object-engines"),
    "operators.selection.calls": (
        "count", "lower", "evals_per_s @ object-engines"),
    "operators.crossover_s": ("s", "lower", "evals_per_s @ object-engines"),
    "operators.crossover.calls": (
        "count", "lower", "evals_per_s @ object-engines"),
    "operators.mutation_s": ("s", "lower", "evals_per_s @ object-engines"),
    "operators.mutation.calls": (
        "count", "lower", "evals_per_s @ object-engines"),
    "core.ga.variation_s": (
        "s", "lower", "evals_per_s @ array-engines, object-engines"),
    "core.substrate.merge_s": (
        "s", "lower", "evals_per_s @ array-engines, object-engines (minor)"),
    "core.observers.observe_s": (
        "s", "lower", "evals_per_s @ array-engines; ~5% on object-engines"),
    "parallel.island.migrate_s": (
        "s", "lower", "evals_per_s @ island cells (<1%, a control)"),
    "parallel.migration.migrants": (
        "count", "lower", "evals_per_s @ island cells (a control)"),
    "parallel.fine_grained.step_self_s": (
        "s", "lower", "evals_per_s @ array-engines (cellular RNG loop)"),
    "parallel.executors.dispatch_s": (
        "s", "lower", "evals_per_s @ object-engines (master-slave)"),
    "parallel.executors.payload_bytes": (
        "B", "lower", "evals_per_s @ object-engines (master-slave)"),
    "api.resolve_s": (
        "s", "lower", "setup_s; fast_latency_s.p50 @ service-closed-loop"),
    "service.admit_s": ("s", "lower", "latency_s.p90 @ service-closed-loop"),
    "service.queue_wait_s": (
        "s", "lower", "latency_s.p90 @ service-closed-loop"),
    "service.queue_wait_s.p90": (
        "s", "lower", "latency_s.p90 @ service-closed-loop"),
    "service.run_s": (
        "s", "lower", "latency_s.p50, jobs_per_s @ service-closed-loop"),
    "service.solve_s": (
        "s", "lower", "latency_s.p50, jobs_per_s @ service-closed-loop"),
    "service.handoff_s": (
        "s", "lower", "latency_s.p50, jobs_per_s @ service-closed-loop"),
    "service.progress.frames": (
        "count", "higher", "error_rate (ok_rate) @ service-closed-loop"),
    "service.progress.dropped": (
        "count", "lower", "error_rate (ok_rate) @ service-closed-loop"),
    "service.cache.hits": (
        "count", "higher", "fast_latency_s.p50 @ service-closed-loop"),
    "service.cache.misses": (
        "count", "lower", "fast_latency_s.p50 @ service-closed-loop"),
    "trace.coverage": (
        "ratio", "higher", "share of solve (request) wall time inside named "
        "layer spans; >= 0.9 on the solve workloads"),
    "trace.overhead": (
        "ratio", "lower", "traced / untraced wall time - 1 (service: p50 "
        "latency)"),
    "trace.remainder_s": (
        "s", "lower", "solve (request) time outside every named layer"),
}


def result_metrics(values: dict[str, float],
                   table: dict[str, tuple]) -> dict[str, dict]:
    """``{name: {"value", "unit"}}`` for every metric of ``table``.

    A per-layer metric the workload does not exercise reads 0; an
    end-to-end metric must always be measured.
    """
    out = {}
    for name, (unit, *_rest) in table.items():
        if name not in values and table is END_TO_END:
            raise KeyError(f"end-to-end metric {name} was not measured")
        out[name] = {"value": float(values.get(name, 0.0)), "unit": unit}
    return out
