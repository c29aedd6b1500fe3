"""The evaluation seam is one call: ``evaluator(genomes) -> objectives``.

An engine hands its evaluator one chromosome matrix per generation
whenever the genomes stack -- on the array path and on the per-pair path
alike -- and the genome list otherwise.  The master-slave statistics that
report the transport are pinned at their values from before the seam
became one call.
"""

import numpy as np
import pytest

from repro import GAConfig, MaxGenerations, SimpleGA, SolverSpec, solve
from repro.api.components import resolve_problem
from repro.operators import LinearOrderCrossover


class Recorder:
    """Custom evaluator that notes the type and size of every call."""

    def __init__(self, problem):
        self.problem = problem
        self.calls = []

    def __call__(self, genomes):
        self.calls.append((type(genomes), len(genomes)))
        return self.problem.evaluate_many(genomes)


CASES = {
    # array path: every stage a matrix kernel
    "ft10": (dict(instance="ft10-shaped"), None, np.ndarray),
    # per-pair path (LOX has no kernel) over genomes that stack
    "lox": (dict(instance="ta-fs-20x5-shaped"), LinearOrderCrossover,
            np.ndarray),
    # composite genomes with float parts: nothing stacks
    "lot": (dict(instance="hfs-10x3x2-shaped", encoding="lot-streaming"),
            None, list),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_custom_evaluator_gets_one_call_per_generation(case):
    spec, crossover, kind = CASES[case]
    problem = resolve_problem(SolverSpec(**spec))
    recorder = Recorder(problem)
    config = GAConfig(population_size=12,
                      crossover=crossover() if crossover else None)
    result = SimpleGA(problem, config, MaxGenerations(4), seed=1,
                      evaluator=recorder).run()
    assert [k for k, _ in recorder.calls] == [kind] * 5
    assert sum(n for _, n in recorder.calls) == result.evaluations
    reference = SimpleGA(problem, config, MaxGenerations(4), seed=1).run()
    assert result.best_objective == reference.best_objective
    assert [r.best for r in result.history.records] == \
        [r.best for r in reference.history.records]


MASTER_SLAVE = {
    "ft10": (dict(instance="ft10-shaped", ga={"population_size": 40},
                  termination={"max_generations": 10}, seed=3),
             (11, 11, True)),
    "lot": (dict(instance="hfs-10x3x2-shaped", encoding="lot-streaming",
                 ga={"population_size": 20},
                 termination={"max_generations": 5}, seed=4),
            (6, 0, False)),
}


@pytest.mark.parametrize("backend", ["serial", "process", "batched"])
@pytest.mark.parametrize("case", sorted(MASTER_SLAVE))
def test_master_slave_transport_stats(case, backend):
    spec, expected = MASTER_SLAVE[case]
    result = solve(SolverSpec(engine="master-slave",
                              engine_params={"backend": backend,
                                             "workers": 2}, **spec))
    extra = result.extra
    assert (extra["eval_calls"], extra["matrix_eval_calls"],
            extra["batch_path"]) == expected
