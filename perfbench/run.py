"""The repository benchmark: one workload, one run, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload array-engines --seed 1 \\
        --seconds 30 --trace 0

Workloads (see ``perfbench/README.md``):

* ``array-engines``  -- ``repro.solve`` of simple/island/cellular GAs on
  the array substrate over three instances;
* ``object-engines`` -- the same specs on the object substrate plus a
  master-slave GA on a two-process pool;
* ``service-closed-loop`` -- two closed-loop HTTP clients against an
  in-process ``repro serve`` with one worker process.

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics of a traced run (spans are
written to ``perfbench/out/``).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  Every returned
schedule is re-decoded and audited; failures count in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("array-engines", "object-engines", "service-closed-loop")
SETUP_PROBES = 2


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, tear down, print the seconds")
    return parser.parse_args(argv)


def _set_up(workload: str, seed: int):
    """Import the library and build the workload (the timed set-up)."""
    sys.path.insert(0, str(SRC))
    if workload == "service-closed-loop":
        from service_load import ServiceWorkload as Workload
    else:
        from solve_load import SolveWorkload as Workload
    return Workload(workload, seed)


def _probe(args: argparse.Namespace) -> float:
    """Set-up seconds of a fresh interpreter (same import + build)."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    if args.setup_probe:
        workload = _set_up(args.workload, args.seed)
        setup_s = time.perf_counter() - START
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workload = _set_up(args.workload, args.seed)
    setup_s = time.perf_counter() - START
    from common import median
    from metrics import END_TO_END, PER_LAYER, result_metrics
    try:
        if args.trace:
            dump = HERE / "out" / f"{args.workload}.trace.json"
            values = workload.trace(args.seconds, str(dump))
            table = PER_LAYER
        else:
            setups = [setup_s] + [_probe(args) for _ in range(SETUP_PROBES)]
            values = workload.measure(args.seconds)
            values["setup_s"] = median(setups)
            table = END_TO_END
    finally:
        workload.close()
    failed = min(len(workload.failures), workload.attempted)
    if args.trace == 0:
        values["ok_rate"] = 1.0 - failed / max(1, workload.attempted)
    for failure in workload.failures[:10]:
        print(f"# FAILED: {failure}")
    metrics = result_metrics(values, table)
    for name, metric in metrics.items():
        target = f"  -> {table[name][2]}" if table is PER_LAYER else ""
        print(f"{args.workload:>20} {name:<34} {metric['value']:>12.6g} "
              f"{metric['unit']:<5}{target}")
    print(json.dumps({"correct": not workload.failures,
                      "attempted": workload.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
