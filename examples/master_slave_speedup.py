"""Real master-slave speedup on this machine (survey Section III.B).

Runs the *same* GA (same seed, bit-identical results) with a serial
evaluator and with process pools of growing size, with an artificial
per-evaluation CPU cost emulating an expensive fitness function -- the
regime where the survey says master-slave parallelism pays off.  The
engine caps ``workers`` at the cores present and sizes its slaves from
the evaluation and communication costs it measures, so the ``slaves``
column shows how many it used.

Every configuration is the same declarative spec with only the engine
parameters swapped -- exactly the survey's point that the master-slave
model is a deployment choice, not an algorithmic one.

Run with::

    python examples/master_slave_speedup.py
"""

import time

import repro


def main() -> None:
    base = repro.SolverSpec(
        instance="la16-shaped",
        engine="master-slave",
        ga={"population_size": 48, "n_elites": 2},
        termination={"max_generations": 8},
        # eval_cost burns ~2 ms of CPU per fitness evaluation
        eval_cost=2e-3,
        seed=7,
    )

    print(f"{'backend':>10} {'workers':>7} {'slaves':>6} {'wall s':>8} "
          f"{'speedup':>8} {'best':>6}")
    base_time = None
    base_best = None
    for backend, workers in (("serial", 1), ("process", 2), ("process", 6),
                             ("process", 12)):
        spec = base.replace(engine_params={"backend": backend,
                                           "workers": workers})
        t0 = time.perf_counter()
        report = repro.solve(spec)
        wall = time.perf_counter() - t0
        if base_time is None:
            base_time, base_best = wall, report.best_objective
        assert report.best_objective == base_best, \
            "master-slave must not change the algorithm's behaviour"
        slaves = report.extra["sizing"]["slaves"]
        print(f"{backend:>10} {workers:>7} {slaves:>6} {wall:>8.2f} "
              f"{base_time / wall:>8.2f} {report.best_objective:>6g}")

    print("\nidentical best makespans across all backends confirm the "
          "survey's point: only wall-clock changes, never the search.")


if __name__ == "__main__":
    main()
