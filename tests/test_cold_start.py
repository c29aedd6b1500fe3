"""``import repro`` loads only what a solve runs.

Every fresh process (a CLI call, a spawned worker) pays for the modules
``import repro`` pulls in before its first evaluation.  Optional
subsystems -- networkx graph exports, the scenario extensions, the
experiments, the HTTP service, process pools -- are imported where they
are first used.  The probe below runs in a fresh interpreter so the
module set it reports is exactly what a cold solve loads.  It pins the
set, not a time: the set is deterministic and the timing is not.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro import SolverSpec, solve

SRC = str(Path(__file__).resolve().parents[1] / "src")

ENGINES = ("simple", "island", "cellular", "hybrid", "two-level", "neh")

# a prefix covers its submodules: concurrent.futures covers .process
OPTIONAL = ("networkx", "repro.extensions", "repro.experiments",
            "repro.service", "asyncio", "concurrent.futures")

PROBE = f"""
import json, sys
import repro
for engine in {ENGINES!r}:
    report = repro.solve(repro.SolverSpec(
        instance="ft06", engine=engine, ga={{"population_size": 16}},
        termination={{"max_generations": 2}}, seed=1))
    assert report.best_objective > 0
print(json.dumps(sorted(sys.modules)))
"""


def _loaded(modules, package):
    return [m for m in modules
            if m == package or m.startswith(package + ".")]


def test_cold_solve_loads_no_optional_subsystem():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "repro.api" in modules
    leaked = {name: _loaded(modules, name) for name in OPTIONAL}
    assert not any(leaked.values()), leaked


def test_service_import_loads_no_scenario_extension():
    """``import repro.service`` defers the dynamic scheduler to a session."""
    probe = ("import json, sys\nimport repro.service\n"
             "print(json.dumps(sorted(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "repro.service.sessions" in modules
    assert _loaded(modules, "repro.extensions") == []


def _spec(**fields):
    base = dict(instance="ft06", ga={"population_size": 8},
                termination={"max_generations": 2}, seed=3)
    base.update(fields)
    return SolverSpec(**base)


def test_master_slave_process_backend_still_runs():
    """The process pool, imported on first use, runs and matches serial."""
    serial = solve(_spec(engine="master-slave",
                         engine_params={"backend": "serial"}))
    process = solve(_spec(engine="master-slave",
                          engine_params={"backend": "process",
                                         "workers": 2}))
    assert process.best_objective == serial.best_objective
    assert np.array_equal(np.asarray(process.best_genome),
                          np.asarray(serial.best_genome))


def test_extension_components_still_resolve():
    """Fuzzy, stochastic and energy components import when first built."""
    for spec in (_spec(instance="ta-fs-20x5-shaped",
                       encoding="fuzzy-flowshop"),
                 _spec(encoding="stochastic-jobshop"),
                 _spec(instance="ta-fs-20x5-shaped",
                       objective="energy-capped-makespan")):
        report = solve(spec)
        assert np.isfinite(report.best_objective)
