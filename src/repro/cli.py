"""Command-line interface.

::

    repro list                          # experiments, instances, registries
    repro run E07 [--scale small]       # run one reproduced experiment
    repro run-all [--scale smoke]       # regenerate the whole evaluation
    repro solve ft06 [--engine island]  # solve an instance, print Gantt
    repro solve --spec job.json         # declarative JSON job submission
    repro dynamic ta-fs-20x5-shaped     # rolling-horizon warm vs cold
    repro sweep ft06 la01-shaped --engines simple island --seeds 1 2 3
    repro serve --port 8080 --workers 4 # async HTTP solver service

``solve`` and ``sweep`` are thin shells over the declarative API
(:mod:`repro.api`): flags assemble a :class:`~repro.api.SolverSpec`,
``--spec`` loads one from JSON (flags override it), and every engine /
encoding / objective the registries expose is addressable by name --
there is no per-engine dispatch here.
"""

from __future__ import annotations

import argparse
import json
import sys

from .api import (ScenarioSweep, SolverService, SolverSpec, SpecError,
                  available_backends, available_encodings, available_engines,
                  available_objectives, available_substrates,
                  encoding_entry, engine_entry, first_doc_line,
                  objective_entry, solve)
from .core.backend import BACKENDS
from .instances import available_instances

__all__ = ["main"]


def _cmd_list(_args) -> int:
    from .experiments import EXPERIMENTS
    print("experiments:")
    for key in sorted(EXPERIMENTS):
        print(f"  {key}: {first_doc_line(EXPERIMENTS[key])}")
    for kind, names, entry_of in (
            ("engines", available_engines(), engine_entry),
            ("encodings", available_encodings(), encoding_entry),
            ("objectives", available_objectives(), objective_entry)):
        print(f"\n{kind}:")
        for name in names:
            entry = entry_of(name)
            alias = (f" (aliases: {', '.join(entry.aliases)})"
                     if entry.aliases else "")
            print(f"  {name}: {entry.description}{alias}")
    array_engines = [name for name in available_engines()
                     if engine_entry(name).tags.get("array_substrate")]
    print("\nsubstrates:")
    print("  object: matrix-kernel generations when the input stacks, "
          "per-Individual operator calls otherwise (default, all engines)")
    print(f"  array: matrix-kernel generations; refuses inputs that do not "
          f"stack (engines: {', '.join(array_engines)})")
    print("\nbackends:")
    for name in available_backends():
        print(f"  {name}")
    print("\ninstances:")
    for name in available_instances():
        print(f"  {name}")
    return 0


def _cmd_run(args) -> int:
    from .experiments import run_experiment
    result = run_experiment(args.experiment, scale=args.scale)
    print(result.summary())
    return 0 if result.passed else 1


def _cmd_run_all(args) -> int:
    from .experiments import run_all
    results = run_all(scale=args.scale, verbose=True)
    failed = [k for k, r in results.items() if not r.passed]
    print(f"\n{len(results) - len(failed)}/{len(results)} shape checks OK")
    if failed:
        print("mismatches:", ", ".join(failed))
    return 0 if not failed else 1


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(f"--spec: cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"--spec: {path!r} is not valid JSON: {exc}") from exc


def _spec_from_args(args) -> SolverSpec:
    """Assemble the SolverSpec: ``--spec`` file first, flags override."""
    base = _load_json(args.spec) if args.spec else {}
    spec = SolverSpec.from_dict(base) if base else None
    overrides: dict = {}
    if args.instance is not None:
        overrides["instance"] = args.instance
    if args.engine is not None:
        overrides["engine"] = args.engine
    if args.encoding is not None:
        overrides["encoding"] = args.encoding
    if args.objective is not None:
        overrides["objective"] = args.objective
    if args.substrate is not None:
        overrides["substrate"] = args.substrate
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.seed is not None:
        overrides["seed"] = args.seed
    ga = dict(spec.ga) if spec else {}
    if args.population is not None:
        ga["population_size"] = args.population
    if ga:
        overrides["ga"] = ga
    if args.generations is not None:
        overrides["termination"] = dict(
            spec.termination if spec else {},
            max_generations=args.generations)
    if args.workers is not None:
        params = dict(spec.engine_params) if spec else {}
        engine = overrides.get("engine", spec.engine if spec else "simple")
        # one count flag, engine-appropriate meaning: processes for the
        # master-slave pool, island count for the multi-population models
        name = engine_entry(engine).name
        if name == "master-slave":
            params["workers"] = args.workers
        elif name in ("island", "hybrid", "two-level"):
            params["islands"] = args.workers
        overrides["engine_params"] = params
    if spec is None:
        if "instance" not in overrides:
            raise SpecError("solve needs an instance name or --spec FILE")
        return SolverSpec.from_dict(overrides)
    return spec.replace(**overrides)


def _cmd_solve(args) -> int:
    spec = _spec_from_args(args)
    report = solve(spec)
    print(f"instance={report.spec.instance} engine={report.engine} "
          f"objective={report.spec.objective} "
          f"best={report.best_objective:g} evaluations={report.evaluations}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"report written to {args.json}")
    print(report.gantt())
    return 0


def _cmd_dynamic(args) -> int:
    """Rolling-horizon predictive-reactive scenario (warm vs cold)."""
    from .core.ga import GAConfig
    from .extensions.dynamic import (PredictiveReactiveScheduler,
                                     demo_event_stream)
    from .instances import get_instance
    try:
        instance = get_instance(args.instance)
    except KeyError as exc:
        raise SpecError(f"dynamic: unknown instance {args.instance!r}") \
            from exc
    if type(instance).__name__ != "FlowShopInstance":
        raise SpecError(f"dynamic: {args.instance!r} is a "
                        f"{type(instance).__name__}; the rolling-horizon "
                        f"scenario needs a FlowShopInstance")
    config = GAConfig(population_size=args.population,
                      substrate=args.substrate or "object")
    runs: dict[str, dict] = {}
    for label, warm in (("warm", True), ("cold", False)):
        if args.mode != "both" and args.mode != label:
            continue
        scheduler = PredictiveReactiveScheduler(
            instance, config=config, generations=args.generations,
            seed=args.seed, warm_start=warm)
        events = demo_event_stream(instance, n_events=args.events,
                                   seed=args.seed)
        sequence, cmax = scheduler.run(events)
        runs[label] = {
            "realised_makespan": cmax,
            "sequence": [int(j) for j in sequence],
            "reschedules": [
                {"time": r.time, "event": type(r.trigger).__name__,
                 "jobs": r.jobs_remaining, "frozen": r.frozen,
                 "predicted_makespan": r.predicted_makespan}
                for r in scheduler.reschedules],
        }
        print(f"{label}: realised makespan {cmax:g} "
              f"({len(scheduler.reschedules)} reschedules, frozen per event: "
              f"{[r.frozen for r in scheduler.reschedules]})")
    if len(runs) == 2:
        gain = runs["cold"]["realised_makespan"] \
            - runs["warm"]["realised_makespan"]
        print(f"warm-start gain: {gain:+g}")
    if args.json:
        payload = {"instance": args.instance, "events": args.events,
                   "seed": args.seed, "population": args.population,
                   "generations": args.generations, "runs": runs}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"report written to {args.json}")
    return 0


def _cmd_serve(args) -> int:
    """Run the async HTTP solver service until interrupted."""
    import asyncio

    from .service.server import SolverServer
    server = SolverServer(host=args.host, port=args.port,
                          workers=args.workers,
                          queue_depth=args.queue_depth,
                          cache_size=args.cache_size)

    async def _serve() -> None:
        await server.start()
        print(f"repro service on http://{server.host}:{server.port} "
              f"({server.pool.workers} worker(s), queue depth "
              f"{server.pool.queue_depth}); POST /solve, GET /healthz, "
              f"GET /metrics", flush=True)
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _cmd_sweep(args) -> int:
    if args.spec:
        sweep = ScenarioSweep.from_dict(_load_json(args.spec))
        base = sweep.base
    else:
        if not args.instances:
            raise SpecError("sweep needs instance names or --spec FILE")
        sweep = ScenarioSweep(base=SolverSpec(
            instance=args.instances[0],
            termination={"max_generations": 50}))
        base = sweep.base
    # flags override the file (same contract as `solve`): scalar flags
    # rewrite the base spec, axis flags replace the corresponding axis
    changes: dict = {}
    if args.population is not None:
        changes["ga"] = dict(base.ga, population_size=args.population)
    if args.generations is not None:
        changes["termination"] = dict(base.termination,
                                      max_generations=args.generations)
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.substrate is not None:
        changes["substrate"] = args.substrate
    if args.backend is not None:
        changes["backend"] = args.backend
    if changes:
        base = base.replace(**changes)
    sweep = ScenarioSweep(
        base=base,
        instances=(tuple(args.instances) if args.instances
                   else sweep.instances),
        engines=(tuple(args.engines) if args.engines is not None
                 else sweep.engines),
        objectives=(tuple(args.objectives) if args.objectives is not None
                    else sweep.objectives),
        seeds=(tuple(args.seeds) if args.seeds is not None
               else sweep.seeds))
    specs = sweep.specs()
    print(f"sweep: {len(specs)} scenario(s), {args.workers} worker(s)")
    service = SolverService(n_workers=args.workers)
    stream = open(args.json, "w", encoding="utf-8") if args.json else None
    failures = 0
    try:
        for result in service.run(specs):
            print(result.summary())
            if stream is not None:
                stream.write(json.dumps({
                    "index": result.index, "ok": result.ok,
                    "spec": result.spec, "report": result.report,
                    "error": result.error,
                    "elapsed": result.elapsed}) + "\n")
            if not result.ok:
                failures += 1
    finally:
        if stream is not None:
            stream.close()
    print(f"{len(specs) - failures}/{len(specs)} scenarios OK")
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel GAs for shop scheduling (survey reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list",
                   help="list experiments, registries and instances") \
        .set_defaults(fn=_cmd_list)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("experiment")
    p_run.add_argument("--scale", default="small",
                       choices=("smoke", "small", "paper"))
    p_run.set_defaults(fn=_cmd_run)

    p_all = sub.add_parser("run-all", help="run every experiment")
    p_all.add_argument("--scale", default="small",
                       choices=("smoke", "small", "paper"))
    p_all.set_defaults(fn=_cmd_run_all)

    p_solve = sub.add_parser(
        "solve", help="solve a named instance via the declarative API")
    p_solve.add_argument("instance", nargs="?",
                         help="instance name (optional with --spec)")
    p_solve.add_argument("--spec", metavar="FILE",
                         help="JSON SolverSpec; flags override its fields")
    p_solve.add_argument("--engine", default=None,
                         help="engine name or alias "
                              f"({', '.join(available_engines())}; "
                              "default: simple)")
    p_solve.add_argument("--encoding", default=None,
                         help="encoding name (default: per problem class)")
    p_solve.add_argument("--objective", default=None,
                         help="objective name "
                              f"({', '.join(available_objectives())}; "
                              "default: makespan)")
    p_solve.add_argument("--substrate", default=None,
                         choices=available_substrates(),
                         help="object (default): matrix-kernel "
                              "generations when the input stacks, else "
                              "per-pair; array: refuse inputs that do not "
                              "stack")
    p_solve.add_argument("--backend", default=None, choices=sorted(BACKENDS),
                         help="array backend for the batch kernels "
                              "(default: numpy)")
    p_solve.add_argument("--population", type=int, default=None,
                         help="total population size (default: 60)")
    p_solve.add_argument("--generations", type=int, default=None,
                         help="generation budget (default: 100)")
    p_solve.add_argument("--workers", type=int, default=None,
                         help="pool size (master-slave) or island count "
                              "(island/hybrid/two-level)")
    p_solve.add_argument("--seed", type=int, default=None,
                         help="root RNG seed (default: 42)")
    p_solve.add_argument("--json", metavar="FILE",
                         help="also write the SolveReport as JSON")
    p_solve.set_defaults(fn=_cmd_solve)

    p_dyn = sub.add_parser(
        "dynamic",
        help="rolling-horizon predictive-reactive flow shop scenario")
    p_dyn.add_argument("instance", help="flow shop instance name")
    p_dyn.add_argument("--events", type=int, default=3,
                       help="number of arrival/breakdown events (default: 3)")
    p_dyn.add_argument("--mode", default="both",
                       choices=("both", "warm", "cold"),
                       help="warm-started re-solves, cold restarts, or both "
                            "(default: both, prints the warm-start gain)")
    p_dyn.add_argument("--substrate", default=None,
                       choices=available_substrates(),
                       help="generation substrate for the re-solve GAs")
    p_dyn.add_argument("--population", type=int, default=30,
                       help="GA population per (re)schedule (default: 30)")
    p_dyn.add_argument("--generations", type=int, default=15,
                       help="GA generations per (re)schedule (default: 15)")
    p_dyn.add_argument("--seed", type=int, default=0,
                       help="event-stream and GA seed (default: 0)")
    p_dyn.add_argument("--json", metavar="FILE",
                       help="write the scenario report as JSON")
    p_dyn.set_defaults(fn=_cmd_dynamic)

    p_sweep = sub.add_parser(
        "sweep", help="run a batch of scenarios concurrently")
    p_sweep.add_argument("instances", nargs="*",
                         help="instance names (axis 1 of the product)")
    p_sweep.add_argument("--spec", metavar="FILE",
                         help="JSON ScenarioSweep "
                              "({base, instances, engines, objectives, "
                              "seeds})")
    p_sweep.add_argument("--engines", nargs="*", default=None,
                         help="engine names (axis 2)")
    p_sweep.add_argument("--objectives", nargs="*", default=None,
                         help="objective names (axis 3)")
    p_sweep.add_argument("--seeds", nargs="*", type=int, default=None,
                         help="seeds (axis 4)")
    p_sweep.add_argument("--substrate", default=None,
                         choices=available_substrates(),
                         help="generation substrate for every scenario")
    p_sweep.add_argument("--backend", default=None, choices=sorted(BACKENDS),
                         help="array backend for every scenario")
    p_sweep.add_argument("--population", type=int, default=None)
    p_sweep.add_argument("--generations", type=int, default=None)
    p_sweep.add_argument("--seed", type=int, default=None,
                         help="base seed when --seeds is not given")
    p_sweep.add_argument("--workers", type=int, default=0,
                         help="parallel scenario processes (0 = in-process)")
    p_sweep.add_argument("--json", metavar="FILE",
                         help="stream results as JSON lines to FILE")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_serve = sub.add_parser(
        "serve", help="run the async HTTP solver service")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8080,
                         help="bind port; 0 picks an ephemeral one "
                              "(default: 8080)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="solver worker processes (default: 2)")
    p_serve.add_argument("--queue-depth", type=int, default=16,
                         help="jobs allowed to wait beyond the running "
                              "ones before 429 (default: 16)")
    p_serve.add_argument("--cache-size", type=int, default=256,
                         help="idempotent result-cache capacity "
                              "(default: 256)")
    p_serve.set_defaults(fn=_cmd_serve)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
