"""Tests for the sweep service and the facade-backed CLI."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import ScenarioSweep, SolverService, SolverSpec, SpecError
from repro.service.pool import run_job as _real_run_job
from repro.cli import main

BASE = SolverSpec(instance="ft06", ga={"population_size": 10},
                  termination={"max_generations": 2}, seed=3)

#: a spec carrying this seed hard-kills its worker process (os._exit
#: skips all exception handling, modelling a segfault in native code)
POISON_SEED = 666


def _lethal_run_job(job_id, spec, *args):
    # module-level so the pooled future can pickle it by reference; the
    # forked worker inherits this module and resolves the same function
    if spec.get("seed") == POISON_SEED:
        os._exit(13)
    return _real_run_job(job_id, spec, *args)


class TestScenarioSweep:
    def test_product_expansion_order_and_count(self):
        sweep = ScenarioSweep(base=BASE, instances=("ft06", "la01-shaped"),
                              engines=("simple", "island"), seeds=(1, 2))
        specs = sweep.specs()
        assert len(specs) == len(sweep) == 8
        assert specs[0].instance == "ft06" and specs[0].engine == "simple"
        assert specs[0].seed == 1 and specs[1].seed == 2
        assert specs[-1].instance == "la01-shaped"
        assert specs[-1].engine == "island" and specs[-1].seed == 2

    def test_empty_axes_keep_base_values(self):
        specs = ScenarioSweep(base=BASE).specs()
        assert len(specs) == 1
        assert specs[0] == BASE

    def test_duplicate_expansions_are_deduplicated(self):
        """Satellite: expansions with equal cache keys -- a repeated axis
        value or an engine alias next to its canonical name -- collapse
        to the first occurrence; ``len(sweep)`` stays the raw product."""
        sweep = ScenarioSweep(base=BASE, engines=("simple", "serial"),
                              seeds=(1, 1, 2))
        specs = sweep.specs()
        assert len(sweep) == 6          # raw product, the upper bound
        assert len(specs) == 2          # 'serial' is an alias of 'simple'
        assert [s.seed for s in specs] == [1, 2]
        assert all(s.engine == "simple" for s in specs)
        assert len({s.cache_key() for s in specs}) == 2

    def test_round_trip(self):
        sweep = ScenarioSweep(base=BASE, engines=("simple", "cellular"),
                              seeds=(7,))
        again = ScenarioSweep.from_dict(
            json.loads(json.dumps(sweep.to_dict())))
        assert again == sweep

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(SpecError, match="unknown field"):
            ScenarioSweep.from_dict({"base": BASE.to_dict(),
                                     "instance": ["ft06"]})
        with pytest.raises(SpecError, match="base"):
            ScenarioSweep.from_dict({"engines": ["simple"]})

    def test_from_dict_malformed_axes_are_spec_errors(self):
        # null means "don't vary this axis"; bad shapes stay actionable
        sweep = ScenarioSweep.from_dict({"base": BASE.to_dict(),
                                         "seeds": None})
        assert sweep.seeds == ()
        with pytest.raises(SpecError, match="seeds"):
            ScenarioSweep.from_dict({"base": BASE.to_dict(),
                                     "seeds": ["a"]})
        with pytest.raises(SpecError, match="must be a list"):
            ScenarioSweep.from_dict({"base": BASE.to_dict(),
                                     "engines": "simple"})

    def test_null_component_names_stay_actionable(self):
        # a JSON spec can hold null where a name belongs; the error path
        # itself must not crash (suggest() guards non-strings)
        with pytest.raises(SpecError, match="unknown engine"):
            SolverSpec(instance="ft06", engine=None).validate()
        with pytest.raises(SpecError, match="unknown instance"):
            SolverSpec.from_dict({"instance": None}).validate()


class TestSolverService:
    def test_serial_run_streams_ordered_results(self):
        sweep = ScenarioSweep(base=BASE, engines=("simple", "island"),
                              seeds=(1, 2))
        results = list(SolverService(n_workers=0).run(sweep.specs()))
        assert [r.index for r in results] == [0, 1, 2, 3]
        assert all(r.ok for r in results)
        assert all(r.report["best_objective"] > 0 for r in results)
        assert "best=" in results[0].summary()

    def test_failures_streamed_not_raised(self):
        specs = [BASE, BASE.replace(instance="does-not-exist"), BASE]
        results = list(SolverService(n_workers=0).run(specs))
        assert [r.ok for r in results] == [True, False, True]
        assert "unknown instance" in results[1].error
        assert "ERROR" in results[1].summary()

    def test_process_pool_matches_serial(self):
        sweep = ScenarioSweep(base=BASE, engines=("simple", "cellular"))
        serial = list(SolverService(n_workers=0).run(sweep.specs()))
        pooled = list(SolverService(n_workers=2).run(sweep.specs()))
        assert [r.report["best_objective"] for r in pooled] == \
            [r.report["best_objective"] for r in serial]

    def test_unordered_mode_yields_every_result(self):
        sweep = ScenarioSweep(base=BASE, seeds=(1, 2, 3))
        results = list(SolverService(n_workers=2,
                                     ordered=False).run(sweep.specs()))
        assert sorted(r.index for r in results) == [0, 1, 2]

    def test_empty_batch(self):
        assert list(SolverService(n_workers=0).run([])) == []

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="worker poisoning relies on fork inheriting the patched "
               "module state")
    def test_worker_death_becomes_structured_failure(self, monkeypatch):
        """Satellite: a spec that kills its worker process poisons every
        future sharing the pool; the service must retry the bystanders in
        isolation and report the killer as a failed result -- the sweep
        never dies and never loses results."""
        from repro.service import pool as pool_mod
        monkeypatch.setattr(pool_mod, "run_job", _lethal_run_job)
        specs = [BASE.replace(seed=1), BASE.replace(seed=POISON_SEED),
                 BASE.replace(seed=2)]
        results = list(SolverService(n_workers=2).run(specs))
        assert [r.index for r in results] == [0, 1, 2]
        assert [r.ok for r in results] == [True, False, True]
        assert "worker process died" in results[1].error
        # the bystanders completed with their real reports
        assert results[0].report["best_objective"] > 0
        assert results[2].report["best_objective"] > 0


class TestCLISolve:
    @pytest.mark.parametrize("engine", ["hybrid", "two-level",
                                        "fine-grained"])
    def test_new_engines_reachable_by_name(self, engine, capsys):
        code = main(["solve", "ft06", "--engine", engine,
                     "--generations", "3", "--population", "16",
                     "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "best=" in out

    def test_objective_flag(self, capsys):
        code = main(["solve", "ft06", "--objective", "total-flow-time",
                     "--generations", "2", "--population", "8"])
        assert code == 0
        assert "objective=total-flow-time" in capsys.readouterr().out

    def test_spec_file_with_flag_overrides(self, tmp_path, capsys):
        spec_file = tmp_path / "job.json"
        spec_file.write_text(BASE.replace(engine="island").to_json())
        code = main(["solve", "--spec", str(spec_file),
                     "--generations", "3"])
        assert code == 0
        assert "engine=island" in capsys.readouterr().out

    def test_json_report_output(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code = main(["solve", "ft06", "--generations", "2",
                     "--population", "8", "--json", str(out_file)])
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["spec"]["instance"] == "ft06"
        assert payload["best_objective"] > 0

    def test_unknown_engine_exit_code_2(self, capsys):
        code = main(["solve", "ft06", "--engine", "teleport"])
        assert code == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_solve_without_instance_or_spec_errors(self, capsys):
        code = main(["solve"])
        assert code == 2
        assert "instance name or --spec" in capsys.readouterr().err


class TestCLIDynamic:
    def test_dynamic_warm_vs_cold_with_json(self, tmp_path, capsys):
        out_file = tmp_path / "dynamic.json"
        code = main(["dynamic", "ta-fs-20x5-shaped", "--events", "2",
                     "--generations", "3", "--population", "16",
                     "--seed", "5", "--json", str(out_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "warm:" in out and "cold:" in out
        assert "warm-start gain:" in out
        payload = json.loads(out_file.read_text())
        assert set(payload["runs"]) == {"warm", "cold"}
        for run in payload["runs"].values():
            assert len(run["reschedules"]) == 2
            assert run["realised_makespan"] > 0

    def test_dynamic_single_mode_array_substrate(self, capsys):
        code = main(["dynamic", "ta-fs-20x5-shaped", "--mode", "warm",
                     "--substrate", "array", "--events", "1",
                     "--generations", "2", "--population", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "warm:" in out and "cold:" not in out

    def test_dynamic_rejects_non_flowshop(self, capsys):
        assert main(["dynamic", "ft06"]) == 2
        assert "FlowShopInstance" in capsys.readouterr().err


class TestCLISweep:
    def test_sweep_end_to_end_on_ft06(self, capsys):
        code = main(["sweep", "ft06", "--engines", "simple", "island",
                     "--seeds", "1", "2", "--generations", "2",
                     "--population", "8", "--workers", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep: 4 scenario(s)" in out
        assert "4/4 scenarios OK" in out

    def test_sweep_spec_file_and_jsonl_stream(self, tmp_path, capsys):
        sweep_file = tmp_path / "sweep.json"
        sweep_file.write_text(json.dumps({
            "base": BASE.to_dict(),
            "engines": ["simple", "cellular"],
        }))
        out_file = tmp_path / "results.jsonl"
        code = main(["sweep", "--spec", str(sweep_file),
                     "--json", str(out_file)])
        assert code == 0
        lines = [json.loads(line) for line
                 in out_file.read_text().splitlines()]
        assert len(lines) == 2
        assert all(line["ok"] for line in lines)
        assert lines[1]["report"]["spec"]["engine"] == "cellular"

    def test_sweep_spec_file_composes_with_axis_flags(self, tmp_path,
                                                      capsys):
        """Flags override the file, same contract as `solve`."""
        sweep_file = tmp_path / "sweep.json"
        sweep_file.write_text(json.dumps({
            "base": BASE.to_dict(), "engines": ["simple"]}))
        code = main(["sweep", "--spec", str(sweep_file),
                     "--engines", "simple", "island",
                     "--seeds", "1", "2", "--generations", "2"])
        assert code == 0
        assert "sweep: 4 scenario(s)" in capsys.readouterr().out

    def test_missing_or_invalid_spec_file_is_actionable(self, tmp_path,
                                                        capsys):
        assert main(["solve", "--spec", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["sweep", "--spec", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_sweep_with_bad_scenario_exits_1(self, capsys):
        code = main(["sweep", "ft06", "nope-instance",
                     "--generations", "2", "--population", "8",
                     "--workers", "0"])
        assert code == 1
        out = capsys.readouterr().out
        assert "1/2 scenarios OK" in out

    def test_sweep_without_instances_errors(self, capsys):
        assert main(["sweep"]) == 2


class TestCLIList:
    def test_list_includes_registries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for needle in ("engines:", "encodings:", "objectives:",
                       "two-level", "openshop-pairs", "weighted",
                       "aliases: fine-grained"):
            assert needle in out

    def test_list_survives_missing_docstrings(self, capsys, monkeypatch):
        """Satellite: registry enumeration must not crash on components
        without docstrings -- it prints an em-dash placeholder."""
        from repro import cli

        def undocumented(scale):
            return None
        patched = dict(cli.EXPERIMENTS)
        patched["E99"] = undocumented
        monkeypatch.setattr(cli, "EXPERIMENTS", patched)
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E99: —" in out


class TestPythonDashM:
    def test_python_m_repro_matches_console_script(self):
        """Satellite: ``python -m repro`` behaves like the ``repro`` CLI."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "solve", "ft06",
             "--generations", "2", "--population", "8"],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stderr
        assert "best=" in proc.stdout
