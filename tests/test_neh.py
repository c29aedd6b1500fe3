"""NEH scores each insertion step in one call, and equals the old loop.

Flow shops score every insertion position of a step with Taillard's
heads and tails (:func:`~repro.scheduling.flowshop.neh_insertion_makespans`);
job shops, FJSP and open shops score the completed candidate orders in
one ``evaluate_many`` call; hybrid flow shops decode each partial
candidate.  ``scalar_reference.neh_reference`` is the per-candidate loop
all three replaced: orders and evaluation counts must equal it.
"""

import numpy as np
import pytest

import scalar_reference
from repro import SolverSpec, solve
from repro.api.components import resolve_problem
from repro.heuristics import heuristic_order, neh_order
from repro.heuristics.constructive import order_to_genome
from repro.instances import available_instances, get_instance
from repro.scheduling import (FlowShopInstance, Makespan,
                              flowshop_completion, neh_heuristic)
from repro.scheduling.flowshop import neh_insert, neh_insertion_makespans

SMALL_LIBRARY = [name for name in available_instances()
                 if get_instance(name).n_jobs <= 50]


def _assert_matches_oracle(problem):
    order, n_evals = heuristic_order("neh", problem)
    want_order, want_evals = scalar_reference.neh_reference(problem)
    assert order.tolist() == want_order.tolist()
    assert n_evals == want_evals
    return order


def test_small_library_covers_every_class():
    classes = {type(get_instance(name)).__name__ for name in SMALL_LIBRARY}
    assert classes == {"JobShopInstance", "FlowShopInstance",
                       "OpenShopInstance", "FlexibleJobShopInstance",
                       "FlexibleFlowShopInstance"}


@pytest.mark.parametrize("name", SMALL_LIBRARY)
def test_neh_equals_per_candidate_oracle(name):
    problem = resolve_problem(SolverSpec(instance=name, engine="neh"))
    _assert_matches_oracle(problem)


@pytest.mark.parametrize("instance,encoding,params", [
    ("ta-fs-20x5-shaped", "random-keys-flowshop", {}),
    ("ta-os-7x7-shaped", "openshop-pairs", {}),
    ("ft06", "operation-based", {"mode": "active"}),
    ("hfs-10x3x2-shaped", "hybrid-flow-shop", {"use_assignment": False}),
])
def test_neh_equals_oracle_on_other_encodings(instance, encoding, params):
    problem = resolve_problem(SolverSpec(instance=instance, engine="neh",
                                         encoding=encoding,
                                         encoding_params=params))
    _assert_matches_oracle(problem)


def test_neh_equals_oracle_under_a_batch_objective():
    # a non-makespan criterion scores every step through the batch
    # completion decoder plus the objective's batch reduction
    problem = resolve_problem(SolverSpec(
        instance="la06-shaped", engine="neh",
        objective="total-weighted-tardiness",
        instance_params={"due_tau": 1.3, "weights": True}))
    assert not isinstance(problem.objective, Makespan)
    assert problem.batch_evaluator() is not None
    _assert_matches_oracle(problem)


def test_neh_equals_oracle_on_the_per_row_fallback():
    # eval_cost > 0 disables the batch path: evaluate_many scores row by
    # row, and every row pays the artificial cost exactly as before
    problem = resolve_problem(SolverSpec(instance="tiny-js-5x5",
                                         engine="neh", eval_cost=1e-5))
    assert problem.batch_evaluator() is None
    _assert_matches_oracle(problem)


def test_engine_reports_oracle_objective_and_count():
    for name in ("ft10-shaped", "fjsp-8x5-shaped", "ta-os-5x5-shaped",
                 "hfs-10x3x2-shaped"):
        report = solve(SolverSpec(instance=name, engine="neh"))
        problem = report.problem
        want_order, want_evals = scalar_reference.neh_reference(problem)
        assert report.evaluations == want_evals + 1
        assert report.best_objective == problem.evaluate(
            order_to_genome(problem, want_order))


def test_large_flow_shop_is_pinned():
    report = solve(SolverSpec(instance="ta-fs-200x10-shaped", engine="neh"))
    assert report.best_objective == 10540
    assert report.evaluations == 20101


def test_neh_order_and_neh_heuristic_share_one_loop():
    inst = FlowShopInstance(processing=np.random.default_rng(4)
                            .integers(1, 60, size=(15, 6)).astype(float))
    want, calls = scalar_reference.neh_loop(
        inst.processing,
        lambda cand: scalar_reference.flowshop_partial_makespan(inst, cand))
    assert calls == 15 * 16 // 2
    assert neh_order(inst.processing).tolist() == want.tolist()
    assert neh_heuristic(inst).tolist() == want.tolist()


def _candidate_makespans(inst, seq, job):
    return np.array([
        flowshop_completion(inst, np.insert(seq, pos, job))[-1, -1]
        for pos in range(seq.size + 1)])


def _random_flow_shop(gen, integer):
    n, m = int(gen.integers(2, 9)), int(gen.integers(1, 6))
    if integer:
        p = gen.integers(0, 20, size=(n, m)).astype(float)
        # releases up to the whole work content, so a late release can
        # start the critical path anywhere in the sequence
        release = gen.integers(1, max(2, int(p.sum())), size=n).astype(float)
    else:
        p = gen.uniform(0.1, 20.0, size=(n, m))
        release = gen.uniform(0.0, p.sum(), size=n)
    return FlowShopInstance(processing=p, release=release)


def test_taillard_scores_equal_decodes_with_release_dates():
    gen = np.random.default_rng(2024)
    delayed = 0
    for _ in range(250):
        inst = _random_flow_shop(gen, integer=True)

        def checked(seq, job):
            got = neh_insertion_makespans(inst, seq, job)
            want = _candidate_makespans(inst, seq, job)
            assert np.array_equal(got, want)
            return got

        order = neh_insert(gen.permutation(inst.n_jobs), checked)
        full = flowshop_completion(inst, order)
        # count shops where a release date, not a predecessor, delays a
        # non-first job: the case heads and tails alone get wrong
        starts = full[:, 0] - inst.processing[order, 0]
        delayed += bool((starts[1:] > full[:-1, 0]).any())
    assert delayed >= 100


def test_taillard_choice_matches_decodes_on_real_durations():
    gen = np.random.default_rng(7)
    for _ in range(200):
        inst = _random_flow_shop(gen, integer=False)

        def checked(seq, job):
            got = neh_insertion_makespans(inst, seq, job)
            want = _candidate_makespans(inst, seq, job)
            np.testing.assert_allclose(got, want, rtol=1e-9)
            assert want[int(np.argmin(got))] == pytest.approx(
                want.min(), rel=1e-9)
            return got

        neh_insert(gen.permutation(inst.n_jobs), checked)
