"""Constructive order rules and their genome mappings.

Every rule here produces a *job order*; :func:`heuristic_genome` then
expresses that order in whatever chromosome encoding the problem uses
(direct permutation, random keys, operation repetition, two-part
flexible-shop tuples).  Keeping the two steps separate means one NEH
implementation seeds every encoding of the same instance.

Rules
-----
``johnson``
    Johnson's rule: provably optimal for 2-machine flow shops; for
    ``m > 2`` machines the modified (Campbell--Dudek--Smith-style)
    variant runs Johnson on two virtual machines -- the sum of the first
    ``m - 1`` columns vs. the sum of the last ``m - 1`` -- which at
    ``m = 3`` is the classic ``p1 + p2`` vs. ``p2 + p3`` 3-machine rule.
``neh``
    Nawaz--Enscore--Ham insertion: jobs sorted by decreasing total work,
    inserted one at a time at the makespan-minimising position.  Each
    step scores all its positions in one call: Taillard's heads and
    tails on flow shops (O(n^2 m) in all), one ``evaluate_many`` over
    the completed candidate orders on job shops, FJSP and open shops,
    and one partial-order decode per candidate on hybrid flow shops.
``spt``
    shortest total processing time first (dispatch order).
``edd``
    earliest due date first; with no due dates (all ``+inf``) this
    degrades to the identity order, stably.
"""

from __future__ import annotations

import functools
from typing import Any, Callable

import numpy as np

from ..scheduling.flexible import decode_hybrid_flowshop
from ..scheduling.flowshop import (neh_heuristic, neh_insert,
                                   neh_insertion_makespans)
from ..scheduling.instance import (FlexibleFlowShopInstance,
                                   FlexibleJobShopInstance, FlowShopInstance)

__all__ = ["HEURISTIC_NAMES", "johnson_order", "neh_order", "spt_order",
           "edd_order", "heuristic_order", "heuristic_genome"]

#: Rule names the seeding hook and the engine registry accept.
HEURISTIC_NAMES = ("johnson", "neh", "spt", "edd")


# -- order rules (pure: duration/due arrays in, job order out) ---------------

def johnson_order(durations: np.ndarray) -> np.ndarray:
    """Johnson's rule on a 2-column duration matrix (optimal for F2||Cmax).

    Jobs with ``p1 <= p2`` go first in ascending ``p1``; the rest go last
    in descending ``p2``.  Ties break stably on job index, so the order
    is deterministic.
    """
    p = np.asarray(durations, dtype=float)
    if p.ndim != 2 or p.shape[1] != 2:
        raise ValueError("johnson_order needs an (n_jobs, 2) duration matrix")
    head = np.flatnonzero(p[:, 0] <= p[:, 1])
    tail = np.flatnonzero(p[:, 0] > p[:, 1])
    head = head[np.argsort(p[head, 0], kind="stable")]
    tail = tail[np.argsort(-p[tail, 1], kind="stable")]
    return np.concatenate([head, tail]).astype(np.int64)


def _johnson_virtual(durations: np.ndarray) -> np.ndarray:
    """Modified Johnson for ``m > 2``: two virtual machines.

    Virtual machine 1 sums columns ``0..m-2``, virtual machine 2 sums
    ``1..m-1``; at ``m = 3`` this is the classical 3-machine rule.
    """
    p = np.asarray(durations, dtype=float)
    virt = np.column_stack([p[:, :-1].sum(axis=1), p[:, 1:].sum(axis=1)])
    return johnson_order(virt)


def spt_order(durations: np.ndarray) -> np.ndarray:
    """Shortest total processing time first (stable)."""
    p = np.asarray(durations, dtype=float)
    totals = p.sum(axis=1) if p.ndim == 2 else p
    return np.argsort(totals, kind="stable").astype(np.int64)


def edd_order(due: np.ndarray) -> np.ndarray:
    """Earliest due date first (stable; all-``inf`` keeps index order)."""
    return np.argsort(np.asarray(due, dtype=float),
                      kind="stable").astype(np.int64)


def neh_order(durations: np.ndarray,
              score_positions: Callable[[np.ndarray, int], np.ndarray]
              | None = None) -> np.ndarray:
    """NEH insertion order of the jobs of ``durations``.

    Jobs are taken by decreasing total work; ``score_positions(seq, job)``
    returns the objective of inserting ``job`` at each of the
    ``len(seq) + 1`` positions of the partial order ``seq`` (see
    :func:`~repro.scheduling.flowshop.neh_insert`).  The default treats
    ``durations`` as a permutation flow shop and scores each step with
    Taillard's heads and tails; problem-aware callers (see
    :func:`heuristic_order`) pass their own scorer so the same insertion
    loop optimises hybrid flow shops or any genome-decodable objective.
    """
    p = np.asarray(durations, dtype=float)
    if score_positions is None:
        return neh_heuristic(FlowShopInstance(processing=p))
    return neh_insert(np.argsort(-p.sum(axis=1), kind="stable"),
                      score_positions)


# -- problem-facing glue ------------------------------------------------------

def _stage_durations(instance: Any) -> np.ndarray:
    """(n_jobs, n_stages) nominal duration matrix of an instance.

    Rectangular instances expose ``processing`` directly; the flexible
    job shop has per-operation machine alternatives, so its nominal
    duration is the best (minimum) eligible-machine time per stage,
    padded with zeros for jobs with fewer stages.
    """
    processing = getattr(instance, "processing", None)
    if processing is not None:
        return np.asarray(processing, dtype=float)
    if isinstance(instance, FlexibleJobShopInstance):
        g = max(instance.stages_of(j) for j in range(instance.n_jobs))
        table = np.zeros((instance.n_jobs, g))
        for j in range(instance.n_jobs):
            for s in range(instance.stages_of(j)):
                table[j, s] = min(instance.duration(j, s, m)
                                  for m in instance.eligible_machines(j, s))
        return table
    raise ValueError(
        f"no duration matrix available for "
        f"{type(instance).__name__}; constructive heuristics need "
        f"per-job stage durations")


def _insertions(base: np.ndarray, job: int, n_pos: int) -> np.ndarray:
    """Row ``pos < n_pos`` is ``base`` with ``job`` inserted at ``pos``."""
    col = np.arange(base.size + 1)
    idx = col - (col > col[:n_pos, None])
    np.fill_diagonal(idx, base.size)
    return np.append(base, job)[idx]


def _insertion_scorer(problem: Any
                      ) -> Callable[[np.ndarray, int], np.ndarray]:
    """Objectives of every insertion position of one NEH step.

    Flow shops score a step with Taillard's heads and tails; hybrid flow
    shops decode each partial candidate order on its own.  Every other
    class completes the candidates with the missing jobs in index order
    and scores all of them in one :meth:`Problem.evaluate_many` call,
    which batch-decodes where the encoding has a batch path.
    """
    instance = problem.encoding.instance
    if isinstance(instance, FlowShopInstance):
        return functools.partial(neh_insertion_makespans, instance)
    if isinstance(instance, FlexibleFlowShopInstance):
        def score(seq: np.ndarray, job: int) -> np.ndarray:
            return np.array([
                decode_hybrid_flowshop(instance, cand, None).makespan
                for cand in _insertions(seq, job, seq.size + 1)])
        return score

    def score(seq: np.ndarray, job: int) -> np.ndarray:
        placed = np.zeros(instance.n_jobs, dtype=bool)
        placed[seq] = True
        placed[job] = True
        rest = np.flatnonzero(~placed)
        orders = _insertions(np.concatenate([seq, rest]), job, seq.size + 1)
        genomes = _order_matrix(problem.encoding, orders)
        if genomes is None:
            genomes = [order_to_genome(problem, o) for o in orders]
        return problem.evaluate_many(genomes)
    return score


def heuristic_order(name: str, problem: Any) -> tuple[np.ndarray, int]:
    """Job order of rule ``name`` on ``problem``; returns (order, n_evals).

    ``n_evals`` counts the candidate orders the rule scored (0 for the
    closed-form dispatch rules, ``n (n + 1) / 2`` insertion positions for
    NEH), which the engine adapter reports as ``evaluations``.
    """
    instance = problem.encoding.instance
    rule = str(name).lower()
    if rule == "edd":
        return edd_order(instance.due), 0
    durations = _stage_durations(instance)
    if rule == "spt":
        return spt_order(durations), 0
    if rule == "johnson":
        if durations.shape[1] < 2:
            raise ValueError("johnson needs at least 2 stages")
        if durations.shape[1] == 2:
            return johnson_order(durations), 0
        return _johnson_virtual(durations), 0
    if rule == "neh":
        order = neh_order(durations, _insertion_scorer(problem))
        # one evaluation per insertion position scored: 1 + 2 + ... + n
        return order, order.size * (order.size + 1) // 2
    raise ValueError(
        f"unknown heuristic {name!r}; available: {list(HEURISTIC_NAMES)}")


def order_to_genome(problem: Any, order: np.ndarray) -> Any:
    """Express a job order as a genome of ``problem``'s encoding.

    The mapping is exact: decoding the returned genome schedules jobs in
    exactly ``order`` (per stage for repetition encodings).  Encodings
    whose decoders cannot express an arbitrary job order raise
    ``ValueError``.
    """
    # late imports: encodings import scheduling, heuristics imports both
    from ..encodings.assignment_sequence import (FlexibleJobShopEncoding,
                                                 HybridFlowShopEncoding)

    enc = problem.encoding
    order = np.asarray(order, dtype=np.int64)
    rows = _order_matrix(enc, order[None, :])
    if rows is not None:
        return rows[0]
    if isinstance(enc, HybridFlowShopEncoding):
        instance = enc.instance
        if enc.use_assignment:
            # record the earliest-finish machine choices so the pinned
            # replay reproduces the identical schedule
            sched = decode_hybrid_flowshop(instance, order, None)
            stage_base = np.concatenate(
                [[0], np.cumsum(instance.machines_per_stage)])
            assign = np.zeros((instance.n_jobs, instance.n_stages),
                              dtype=np.int64)
            for op in sched.operations:
                assign[op.job, op.stage] = op.machine - stage_base[op.stage]
        else:
            assign = np.zeros((instance.n_jobs, instance.n_stages),
                              dtype=np.int64)
        return assign, order
    if isinstance(enc, FlexibleJobShopEncoding):
        instance = enc.instance
        # greedy assignment: fastest eligible machine per operation
        assign = []
        for j in range(instance.n_jobs):
            for s in range(instance.stages_of(j)):
                durs = [instance.duration(j, s, m)
                        for m in instance.eligible_machines(j, s)]
                assign.append(int(np.argmin(durs)))
        g = max(instance.stages_of(j) for j in range(instance.n_jobs))
        seq = [int(j) for r in range(g) for j in order
               if instance.stages_of(int(j)) > r]
        return (np.asarray(assign, dtype=np.int64),
                np.asarray(seq, dtype=np.int64))
    raise ValueError(
        f"no heuristic genome mapping for encoding {type(enc).__name__}; "
        f"supported: permutation, random-keys, repetition, open-shop "
        f"pairs, and the flexible-shop composites")


def _order_matrix(enc: Any, orders: np.ndarray) -> np.ndarray | None:
    """Chromosome matrix of a (k, n_jobs) stack of job orders.

    Covers the encodings whose genome is one flat row per order; returns
    ``None`` for the flexible-shop composites.
    """
    from ..encodings.operation_based import OperationBasedEncoding
    from ..encodings.permutation import (FlowShopPermutationEncoding,
                                         OpenShopPairSequenceEncoding,
                                         OpenShopPermutationEncoding)
    from ..encodings.random_keys import RandomKeysFlowShopEncoding

    if isinstance(enc, FlowShopPermutationEncoding):
        return orders
    if isinstance(enc, RandomKeysFlowShopEncoding):
        # keys whose stable ascending argsort reproduces each order
        n = orders.shape[1]
        keys = np.empty(orders.shape, dtype=float)
        np.put_along_axis(keys, orders,
                          np.arange(n, dtype=float) / max(1, n), axis=1)
        return keys
    if isinstance(enc, OpenShopPermutationEncoding):
        return np.tile(orders, (1, enc.instance.n_machines))
    if isinstance(enc, OpenShopPairSequenceEncoding):
        m = enc.instance.n_machines
        return (orders[:, :, None] * m
                + np.arange(m, dtype=np.int64)).reshape(len(orders), -1)
    if isinstance(enc, OperationBasedEncoding):
        return np.tile(orders, (1, enc.instance.n_stages))
    return None


def heuristic_genome(name: str, problem: Any) -> Any:
    """Genome of rule ``name``'s solution (the GA seeding entry point)."""
    order, _ = heuristic_order(name, problem)
    return order_to_genome(problem, order)
