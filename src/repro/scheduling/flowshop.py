"""Permutation flow shop evaluation.

A flow shop chromosome is a job permutation (Section III.A: "a standard
chromosome consists of a string of length n, and the i-th gene contains the
index of the job at position i").  The completion-time recurrence is

    C[i, k] = max(C[i-1, k], C[i, k-1]) + P[pi_i, k]

Evaluating the recurrence is the GA's hot loop, so two paths are provided:

* :func:`flowshop_completion` -- single permutation, returns the full C
  matrix (used by decoders that need a :class:`Schedule`),
* :func:`flowshop_makespan_population` -- the whole population at once,
  vectorised across individuals (the HPC-guide idiom: the scan over jobs and
  machines stays in Python but every arithmetic op covers P individuals).

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


def flowshop_makespan_population(instance: FlowShopInstance,
                                 permutations: np.ndarray) -> np.ndarray:
    """Makespans of ``P`` permutations at once.

    ``permutations`` has shape (P, n).  The recurrence is evaluated with the
    (n * m) scan in Python and all arithmetic vectorised over the population
    axis, which is orders of magnitude faster than a per-individual loop for
    the population sizes the surveyed papers use (hundreds to thousands).

    Written against the strict Array-API subset (gathers via ``xp.take``,
    basic-slice stores only), so it runs unchanged on any registered
    backend -- this is the kernel the ``array-api-strict`` CI leg drives.
    """
    xp = _xp()
    perms = xp.asarray(permutations, dtype=xp.int64)
    if perms.ndim != 2:
        raise ValueError("permutations must be (P, n)")
    pop, n = perms.shape
    m = instance.n_machines
    proc = xp.asarray(instance.processing)
    release = xp.asarray(instance.release)
    c = xp.zeros((pop, m))
    for i in range(n):
        jobs = perms[:, i]                 # (P,)
        p_i = xp.take(proc, jobs, axis=0)  # (P, m)
        c[:, 0] = xp.maximum(c[:, 0], xp.take(release, jobs, axis=0)) \
            + p_i[:, 0]
        for k in range(1, m):
            c[:, k] = xp.maximum(c[:, k - 1], c[:, k]) + p_i[:, k]
    return xp.copy(c[:, -1])


def flowshop_completion_population(instance: FlowShopInstance,
                                   permutations: np.ndarray) -> np.ndarray:
    """Per-job completion times ``C_j`` of ``P`` permutations at once.

    Same recurrence as :func:`flowshop_makespan_population`, but the
    last-machine exit time of every position is scattered back to its job
    id, giving the ``(P, n_jobs)`` completion matrix that the batch
    objective layer consumes.  ``completion[p, perm[p, i]]`` is the value
    the scalar :func:`flowshop_completion` puts in ``C[i, m-1]``, so the
    matrix is bit-identical to per-row scalar decoding.
    """
    xp = _xp()
    perms = xp.asarray(permutations, dtype=xp.int64)
    if perms.ndim != 2:
        raise ValueError("permutations must be (P, n)")
    pop, n = perms.shape
    if n != instance.n_jobs:
        raise ValueError(
            f"permutations must have n_jobs = {instance.n_jobs} columns")
    m = instance.n_machines
    proc = xp.asarray(instance.processing)
    release = xp.asarray(instance.release)
    c = xp.zeros((pop, m))
    completion = xp.zeros((pop, n))
    for i in range(n):
        jobs = perms[:, i]                 # (P,)
        p_i = xp.take(proc, jobs, axis=0)  # (P, m)
        c[:, 0] = xp.maximum(c[:, 0], xp.take(release, jobs, axis=0)) \
            + p_i[:, 0]
        for k in range(1, m):
            c[:, k] = xp.maximum(c[:, k - 1], c[:, k]) + p_i[:, k]
        # scatter the last-machine exit time back to each row's job id
        xp.put_along_axis(completion, jobs[:, None], c[:, m - 1:m], axis=1)
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
    perms = xp.asarray(permutations, dtype=xp.int64)
    if perms.ndim != 2:
        raise ValueError("permutations must be (P, n)")
    pop, n = perms.shape
    if n != instance.n_jobs:
        raise ValueError(
            f"permutations must have n_jobs = {instance.n_jobs} columns")
    m = instance.n_machines
    proc = xp.asarray(instance.processing)
    release = xp.asarray(instance.release)
    c = xp.zeros((pop, m))
    out = xp.zeros((pop, n, m))
    for i in range(n):
        jobs = perms[:, i]                 # (P,)
        p_i = xp.take(proc, jobs, axis=0)  # (P, m)
        c[:, 0] = xp.maximum(c[:, 0], xp.take(release, jobs, axis=0)) \
            + p_i[:, 0]
        for k in range(1, m):
            c[:, k] = xp.maximum(c[:, k - 1], c[:, k]) + p_i[:, k]
        out[:, i] = c
    return out


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
