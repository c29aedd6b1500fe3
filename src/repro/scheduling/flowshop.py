"""Permutation flow shop evaluation.

A flow shop chromosome is a job permutation (Section III.A: "a standard
chromosome consists of a string of length n, and the i-th gene contains the
index of the job at position i").  The completion-time recurrence is

    C[i, k] = max(C[i-1, k], C[i, k-1]) + P[pi_i, k]

Evaluating the recurrence is the GA's hot loop, so two paths are provided:

* :func:`flowshop_completion` -- single permutation, returns the full C
  matrix (used by decoders that need a :class:`Schedule`),
* the population kernels (:func:`flowshop_makespan_population`,
  :func:`flowshop_completion_population`,
  :func:`flowshop_completion_tensor`, and the fuzzy twin in
  :mod:`repro.extensions.fuzzy`) -- one anti-diagonal scan for them all:
  the cells with ``i + k = d`` do not depend on each other, so the scan
  takes ``n + m - 1`` Python steps instead of ``n * m``, each vectorised
  over the diagonal and the population, and every cell still computes
  ``max(up, left) + p`` from the same two operands, bit for bit.

NEH (:func:`neh_heuristic`) needs neither: one pass over the heads and
tails of the current partial order scores every insertion position of a
step at once (:func:`neh_insertion_makespans`).
"""

from __future__ import annotations

import functools

import numpy as np

from ..core.backend import active_namespace as _xp
from .instance import FlowShopInstance
from .schedule import Operation, Schedule

__all__ = [
    "flowshop_completion",
    "flowshop_makespan",
    "flowshop_makespan_population",
    "flowshop_completion_population",
    "flowshop_completion_tensor",
    "flowshop_schedule",
    "neh_insertion_makespans",
    "neh_insert",
    "neh_heuristic",
]


def flowshop_completion(instance: FlowShopInstance,
                        permutation: np.ndarray) -> np.ndarray:
    """Completion-time matrix ``C[i, k]`` for jobs in permutation order.

    Honours job release times: the first operation of job ``pi_i`` cannot
    start before ``R_{pi_i}``.
    """
    perm = np.asarray(permutation, dtype=np.int64)
    p = instance.processing[perm]            # (n, m) in sequence order
    release = instance.release[perm]
    n, m = p.shape
    c = np.zeros((n, m))
    prev_row = np.zeros(m)
    for i in range(n):
        row = np.empty(m)
        t = max(prev_row[0], release[i]) + p[i, 0]
        row[0] = t
        for k in range(1, m):
            t = max(t, prev_row[k]) + p[i, k]
            row[k] = t
        c[i] = row
        prev_row = row
    return c


def flowshop_makespan(instance: FlowShopInstance,
                      permutation: np.ndarray) -> float:
    """Makespan of a single permutation."""
    c = flowshop_completion(instance, permutation)
    return float(c[-1, -1]) if c.size else 0.0


def _recurrence(xp, durations, head, perms, keep_all=False):
    """The flow-shop recurrence of ``P`` permutations, by anti-diagonal.

    ``durations`` is the ``(n_jobs, m, *t)`` duration table, ``head`` the
    ``(n_jobs, *t)`` floor of each job's first operation (its release
    date) and ``perms`` the ``(P, n)`` permutations.  Cell ``(i, k)``
    needs only ``(i - 1, k)`` and ``(i, k - 1)``, so the cells with
    ``i + k = d`` are independent and the scan takes ``n + m - 1`` steps
    instead of ``n * m``, each vectorised over the diagonal and the
    population.  A cell still computes ``max(up, left) + p`` from the two
    operands of the row-by-row recurrence; ``max`` is exact and one
    addition is made per cell, so every value is bit-identical to
    :func:`flowshop_completion`, on real-valued data too.

    The state is one buffer ``b`` of ``n + m`` rows of ``P`` values (kept
    flat, so every slice below is 1-D) that a window slides over, one row
    up per step.  Before step ``d``, machine ``k``'s latest completion
    sits in row ``n - d + k`` and the head of position ``d`` in row
    ``n - 1 - d``, so ``up`` and ``left`` are two overlapping slices and
    the diagonal is written over ``left`` (the right-hand side is
    computed before the store).  Cell ``(i, k)`` lands on row
    ``n - 1 - i`` and the last machine writes it last, so the scan leaves
    ``C[i, m - 1]`` in row ``n - 1 - i``.  The diagonal's durations are
    one 1-D ``take`` from the transposed ``(m * n_jobs)`` table: row
    ``j`` of ``jobs`` holds ``j * n_jobs`` plus the job on that row, so
    shifting the table by ``d * n_jobs`` (past ``n - 1`` rows of padding)
    turns it into the index of machine ``k = j - (n - 1 - d)``.

    Returns the first ``n`` rows, shaped ``(n, P, *t)``: the last-machine
    exits in reverse position order.  With ``keep_all`` it returns the
    ``(m * n, P, *t)`` table of every cell instead, row ``k * n + i``.
    """
    pop, n = perms.shape
    n_jobs, m = durations.shape[0], durations.shape[1]
    trail = tuple(durations.shape[2:])
    rev = xp.reshape(xp.flip(xp.moveaxis(perms, 0, 1), axis=0),
                     (n * pop,))                    # position n - 1 - j
    b = xp.concatenate([xp.take(head, rev, axis=0),
                        xp.zeros((m * pop,) + trail)])
    jobs = rev + xp.repeat(xp.arange(n, dtype=xp.int64) * n_jobs, pop)
    table = xp.concatenate([
        xp.zeros((max(n - 1, 0) * n_jobs,) + trail),
        xp.reshape(xp.moveaxis(durations, 1, 0), (m * n_jobs,) + trail)])
    out = xp.zeros((m * n, pop) + trail) if keep_all else None
    stride = max(n - 1, 1)
    for d in range(n + m - 1 if n else 0):
        lo, hi = max(0, d - n + 1), min(d, m - 1)
        top, cnt = n - 1 - d + lo, hi - lo + 1
        # rows top .. top + cnt - 1 of b and jobs, as flat spans
        left, right = top * pop, (top + cnt) * pop
        c = xp.maximum(b[left + pop:right + pop], b[left:right])
        c += xp.take(table[d * n_jobs:], jobs[left:right], axis=0)
        b[left:right] = c
        if keep_all:
            first = d + lo * (n - 1)
            out[first:first + (cnt - 1) * stride + 1:stride] = xp.reshape(
                c, (cnt, pop) + trail)
    return out if keep_all else xp.reshape(b[:n * pop], (n, pop) + trail)


def _permutations(instance, permutations, xp):
    perms = xp.asarray(permutations, dtype=xp.int64)
    if perms.ndim != 2:
        raise ValueError("permutations must be (P, n)")
    if perms.shape[1] != instance.n_jobs:
        raise ValueError(
            f"permutations must have n_jobs = {instance.n_jobs} columns")
    return perms


def flowshop_makespan_population(instance: FlowShopInstance,
                                 permutations: np.ndarray) -> np.ndarray:
    """Makespans of ``P`` permutations at once.

    ``permutations`` has shape (P, n).  The recurrence runs by
    anti-diagonal: ``n + m - 1`` Python steps, each vectorised over the
    diagonal's cells and the population, bit-identical to
    :func:`flowshop_makespan` per row.

    Written against the strict Array-API subset (gathers via 1-D
    ``xp.take``, basic-slice stores only), so it runs unchanged on any
    registered backend -- this is the kernel the ``array-api-strict`` CI
    leg drives.
    """
    xp = _xp()
    perms = xp.asarray(permutations, dtype=xp.int64)
    if perms.ndim != 2:
        raise ValueError("permutations must be (P, n)")
    if perms.shape[1] == 0:
        return xp.zeros(perms.shape[0])
    exits = _recurrence(xp, xp.asarray(instance.processing),
                        xp.asarray(instance.release), perms)
    return xp.copy(exits[0])


def flowshop_completion_population(instance: FlowShopInstance,
                                   permutations: np.ndarray) -> np.ndarray:
    """Per-job completion times ``C_j`` of ``P`` permutations at once.

    Same recurrence as :func:`flowshop_makespan_population`; the
    last-machine exit time of every position is scattered back to its job
    id, giving the ``(P, n_jobs)`` completion matrix that the batch
    objective layer consumes.  ``completion[p, perm[p, i]]`` is the value
    the scalar :func:`flowshop_completion` puts in ``C[i, m-1]``.
    """
    xp = _xp()
    perms = _permutations(instance, permutations, xp)
    exits = _recurrence(xp, xp.asarray(instance.processing),
                        xp.asarray(instance.release), perms)
    return _scatter_exits(xp, perms, exits)


def _scatter_exits(xp, perms, exits):
    """``completion[p, perm[p, i]]`` from the reversed ``exits[n-1-i, p]``."""
    pop, n = perms.shape
    trail = tuple(exits.shape[2:])
    completion = xp.zeros((pop, n) + trail)
    jobs = xp.flip(perms, axis=1)
    if trail:
        jobs = xp.broadcast_to(
            xp.reshape(jobs, (pop, n) + (1,) * len(trail)), (pop, n) + trail)
    xp.put_along_axis(completion, jobs, xp.moveaxis(exits, 0, 1), axis=1)
    return completion


def flowshop_completion_tensor(instance: FlowShopInstance,
                               permutations: np.ndarray) -> np.ndarray:
    """Full completion tensor ``C[p, i, k]`` of ``P`` permutations.

    The whole ``(P, n, m)`` completion-time matrix family in *sequence
    position* order (axis 1 is position ``i``, not job id); row ``p`` is
    bit-identical to scalar :func:`flowshop_completion` on
    ``permutations[p]``.  This is what schedule-level batch objectives
    (energy, peak power) consume: together with the gathered processing
    times it yields every operation's start and end without materialising
    ``Schedule`` objects.
    """
    xp = _xp()
    perms = _permutations(instance, permutations, xp)
    pop, n = perms.shape
    m = instance.n_machines
    cells = _recurrence(xp, xp.asarray(instance.processing),
                        xp.asarray(instance.release), perms, keep_all=True)
    return xp.moveaxis(xp.reshape(cells, (m, n, pop)), (0, 2), (2, 0))


def flowshop_schedule(instance: FlowShopInstance,
                      permutation: np.ndarray) -> Schedule:
    """Decode a permutation into a full :class:`Schedule` object."""
    perm = np.asarray(permutation, dtype=np.int64)
    c = flowshop_completion(instance, perm)
    p = instance.processing[perm]
    ops = []
    for i, job in enumerate(perm):
        for k in range(instance.n_machines):
            end = c[i, k]
            ops.append(Operation(job=int(job), stage=k, machine=k,
                                 start=end - p[i, k], end=end))
    return Schedule(ops, instance.n_jobs, instance.n_machines)


def _max_plus_scan(xp, a, p):
    """``x[i] = max(a[i], x[i-1]) + p[i]`` for 1-D arrays, ``x[-1] = -inf``.

    One pass instead of a Python loop: with prefix sums ``S``,
    ``x[i] = S[i] + max_{l <= i} (a[l] - S[l-1])``.
    """
    s = xp.cumsum(p)
    return s + xp.maximum_accumulate(a - (s - p))


def neh_insertion_makespans(instance: FlowShopInstance, seq: np.ndarray,
                            job: int) -> np.ndarray:
    """Makespans of inserting ``job`` at every position of partial ``seq``.

    Entry ``pos`` is the makespan of ``seq[:pos] + [job] + seq[pos:]``;
    all ``len(seq) + 1`` entries come from one O(len(seq) * m) pass with
    Taillard's (1990) heads and tails instead of one decode each:

    * heads ``e[i, k]``: completion of ``seq[i]`` on machine ``k``, from
      release dates on;
    * tails ``q[i, k]``: time from the start of ``seq[i]`` on machine
      ``k`` to the end of the schedule;
    * ``f[pos, k]``: completion of ``job`` on machine ``k`` after
      ``seq[:pos]``.

    ``makespan[pos] = max(max_k f[pos, k] + q[pos, k], entry[pos])``,
    where ``entry[pos] = max_{i >= pos} release[seq[i]] + q[i, 0]``
    covers a later job whose release date, not its predecessor, starts
    the critical path.

    On integer data every term is exact, so each entry equals
    :func:`flowshop_completion` of that candidate, ``[-1, -1]``, bit for
    bit.  On non-integer durations the scans sum in a different order
    than the recurrence, so entries agree with it only to rounding: a
    near-tie may pick another position, whose makespan is then the
    minimum to within ~1e-9 relative.
    """
    xp = _xp()
    seq = xp.asarray(seq, dtype=xp.int64)
    k, m = seq.shape[0], instance.n_machines
    proc = xp.asarray(instance.processing)
    p = xp.take(proc, seq, axis=0)                        # (k, m)
    release = xp.take(xp.asarray(instance.release), seq, axis=0)
    p_rev, release_rev = xp.flip(p, axis=0), xp.flip(release)
    # prev[:, pos] = heads of seq[pos - 1] (zeros before the first job);
    # tail[:, pos] = tails of seq[pos] (zeros after the last job)
    prev, tail = xp.zeros((m, k + 1)), xp.zeros((m, k + 1))
    a = xp.maximum(release, 0.0)
    for mach in range(m):
        a = _max_plus_scan(xp, a, p[:, mach])
        prev[mach, 1:] = a
    a = xp.zeros(k)
    for mach in range(m - 1, -1, -1):
        a = _max_plus_scan(xp, a, p_rev[:, mach])
        tail[mach, :k] = xp.flip(a)
    # a now holds the machine-0 tails of the reversed sequence
    entry = xp.zeros(k + 1)
    entry[:k] = xp.flip(xp.maximum_accumulate(release_rev + a))
    p_job = proc[job]
    f = xp.maximum(prev[0], instance.release[job]) + p_job[0]
    best = f + tail[0]
    for mach in range(1, m):
        f = xp.maximum(prev[mach], f) + p_job[mach]
        best = xp.maximum(best, f + tail[mach])
    return xp.maximum(best, entry)


def neh_insert(order: np.ndarray, score_positions) -> np.ndarray:
    """The NEH insertion loop over jobs in ``order``.

    ``score_positions(seq, job)`` returns the objective of inserting
    ``job`` at each of the ``len(seq) + 1`` positions of the partial
    order ``seq``; the job goes to the first minimum.
    """
    xp = _xp()
    seq = xp.zeros(0, dtype=xp.int64)
    for job in order:
        pos = int(xp.argmin(score_positions(seq, int(job))))
        seq = xp.concatenate(
            [seq[:pos], xp.asarray([job], dtype=xp.int64), seq[pos:]])
    return seq


def neh_heuristic(instance: FlowShopInstance) -> np.ndarray:
    """NEH constructive heuristic -- the reference solution for Eq. (1).

    Jobs are sorted by decreasing total work and inserted one by one at
    the position minimising the partial makespan, all positions of a
    step scored by :func:`neh_insertion_makespans`: O(n^2 m) in all.
    """
    order = np.argsort(-instance.processing.sum(axis=1), kind="stable")
    return neh_insert(order, functools.partial(neh_insertion_makespans,
                                               instance))
