"""Vectorised batch decoders: whole populations per call.

The survey's core performance observation is that fitness evaluation
dominates GA runtime, which is why master-slave and GPU designs batch the
whole population each generation ("the calculation of the fitness values
... is usually the most costly", Section III.B; the dual heterogeneous
island GA of Luo & El Baz decodes entire sub-populations as array
operations).  The scalar decoders in :mod:`repro.scheduling.jobshop`,
:mod:`repro.scheduling.flowshop`, :mod:`repro.scheduling.flexible` and
:mod:`repro.scheduling.openshop` walk one chromosome at a time in a
per-gene Python loop; the functions here take a ``(pop_size, n_genes)``
matrix and keep the per-position scan in Python while making every
arithmetic step cover the population axis.

Two layers of results:

* ``batch_completion_*`` -- the ``(pop_size, n_jobs)`` **completion-time
  matrix** ``C[p, j]``, the quantity every Section-II optimality criterion
  is a function of.  The batch objective layer in
  :mod:`repro.scheduling.objectives` reduces these matrices to criterion
  vectors (makespan, weighted completion, tardiness family, ...).
* ``batch_makespan_*`` -- the ``(pop_size,)`` makespan vector, kept as the
  direct fast path for the dominant criterion.

Numerical contract: every batch decoder performs exactly the same float64
operations per individual as its scalar counterpart
(:func:`~repro.scheduling.jobshop.operation_sequence_makespan`,
:func:`~repro.scheduling.flowshop.flowshop_makespan`,
:func:`~repro.scheduling.flexible.decode_fjsp`,
:func:`~repro.scheduling.flexible.decode_hybrid_flowshop`,
:func:`~repro.scheduling.openshop.decode_pair_sequence`), so the results
are bit-identical -- swapping the scalar path for the batch path never
changes GA behaviour, only wall-clock time.  The test suite asserts this.

Shape/dtype contract: all results are float64.  Completion matrices are
``(pop_size, n_jobs)``; makespan vectors are ``(pop_size,)``.  An empty
population returns an empty float64 array of the documented shape
(``np.zeros((0, n_jobs))`` / ``np.zeros(0)``), never a default-dtype
placeholder.

The scalar decoders remain authoritative whenever a full
:class:`~repro.scheduling.schedule.Schedule` is needed (Gantt charts,
feasibility audits) and for decoding modes with data-dependent control flow
(Giffler-Thompson active scheduling, blocking job shops, dispatch rules,
LPT-Machine open-shop decoding).  The hybrid flow shop's earliest-finish
machine choice *is* batchable: per (stage, position) the candidate finish
times of all k stage machines form a ``(pop, k)`` panel whose row-wise
first-minimum reproduces the scalar lowest-index tie-break exactly
(:func:`batch_completion_hybrid_flowshop`).
"""

from __future__ import annotations

import numpy as np

from ..core.backend import active_namespace as _xp
from ..core.workspace import scratch
from .flowshop import (flowshop_completion_population,
                       flowshop_makespan_population)
from .instance import (FlexibleFlowShopInstance, FlexibleJobShopInstance,
                       FlowShopInstance, JobShopInstance, OpenShopInstance)

__all__ = [
    "batch_completion_operation_sequence",
    "batch_completion_operation_sequence_scenarios",
    "batch_makespan_operation_sequence",
    "batch_completion_permutation",
    "batch_makespan_permutation",
    "batch_completion_fjsp",
    "batch_completion_hybrid_flowshop",
    "batch_completion_pair_sequence",
    "operation_stages",
    "pairs_to_op_ids",
]


def operation_stages(instance: JobShopInstance,
                     sequences: np.ndarray,
                     validate: bool = False) -> np.ndarray:
    """Stage index of every gene of a batch of operation sequences.

    For chromosome row ``p``, ``stages[p, i]`` is the number of earlier
    occurrences of job ``sequences[p, i]`` in that row -- i.e. the stage the
    i-th gene schedules.  Computed without a per-gene Python loop: a stable
    argsort groups each row's genes by job, and because every job occurs
    exactly ``n_stages`` times the within-group position of sorted slot
    ``k`` is simply ``k % n_stages``.
    """
    xp = _xp()
    seqs = xp.asarray(sequences, dtype=xp.int64)
    return _stages_into(instance, seqs, xp.empty_like(seqs), validate)


def _stages_into(instance: JobShopInstance, seqs, out, validate: bool):
    """:func:`operation_stages` of int64 ``seqs``, written into ``out``."""
    xp = _xp()
    if seqs.ndim != 2:
        raise ValueError("sequences must be a (pop_size, n_genes) matrix")
    n, g = instance.n_jobs, instance.n_stages
    if seqs.shape[1] != n * g:
        raise ValueError(
            f"sequences must have n_jobs * n_stages = {n * g} columns")
    # a stable sort's permutation depends only on the key order, and
    # NumPy radix-sorts keys of 16 bits or fewer, so narrow them when
    # every job index fits
    keys = seqs
    if n < 2**15:
        keys = scratch("stages.keys", seqs.shape, xp.int16)
        keys[...] = seqs
    order = xp.stable_argsort(keys, axis=1)
    if validate:
        sorted_jobs = xp.take_along_axis(seqs, order, axis=1)
        expected = xp.repeat(xp.arange(n, dtype=xp.int64), g)
        bad = (sorted_jobs != expected).any(axis=1)
        if bad.any():
            raise ValueError(
                f"rows {np.flatnonzero(bad).tolist()} are not permutations "
                "with repetition (each job exactly n_stages times)")
    within = (xp.arange(n * g, dtype=xp.int64) % g)[None, :]
    xp.put_along_axis(out, order, within, axis=1)
    return out


def _check_genes(genes, high: int) -> None:
    """Raise ``IndexError`` unless every int64 gene lies in ``[0, high)``.

    The decoders below gather through ``xp.take_into``, which does not
    check its indices, so the genes are checked once here, by one
    reduction: read as unsigned, a negative gene is at least ``2**63``.
    """
    xp = _xp()
    if genes.size and int(genes.astype(xp.uint64).max()) >= high:
        raise IndexError(f"gene values must lie in [0, {high})")


def _semi_active_scan(jobs, machines, ops, tables, release, n: int,
                      m: int):
    """Completion times of ``pop`` gene sequences under ``K`` duration tables.

    The one job-shop scan behind the job-shop, CRN-scenario and open-shop
    batch decoders.  ``jobs``, ``machines`` and ``ops`` are position-major
    ``(L, pop)`` tables: the job, the machine and the flat index into a
    duration table of every gene.  ``tables`` is ``(K, T)``, one flat
    duration table per scenario.  Each (scenario, chromosome) pair is one
    flattened row ``k * pop + p``; the result is the fresh
    ``(K, pop, n)`` float64 completion tensor.

    The decode recurrence is sequential along the gene axis but
    independent across rows, so the scan runs as ``L`` vectorised steps of
    gather / max / add / scatter over flattened ``(rows, jobs)`` and
    ``(rows, machines)`` state.  Its ``(L, rows)`` index tables (one
    buffer) and duration table are this thread's scratch, built
    column-major so that each step reads a contiguous row.
    """
    xp = _xp()
    length, pop = jobs.shape
    k, size = tables.shape
    rows = k * pop
    base = xp.arange(rows, dtype=xp.int64).reshape(1, k, pop)
    index = scratch("scan.index", (2, length, k, pop), xp.int64)
    job_idx, mach_idx = index[0], index[1]
    dur_cols = scratch("scan.durations", (length, k, pop), xp.float64)
    if k == 1:
        xp.take_into(tables, ops, out=dur_cols.reshape(length, pop))
    else:
        # scenario k's duration of a gene sits at k * size + op; mach_idx
        # holds those indices until the machine slots overwrite them
        xp.add(ops[:, None, :],
               (xp.arange(k, dtype=xp.int64) * size).reshape(1, k, 1),
               out=mach_idx)
        xp.take_into(tables, mach_idx, out=dur_cols)
    xp.add(machines[:, None, :], base * m, out=mach_idx)
    xp.add(jobs[:, None, :], base * n, out=job_idx)
    job_idx = job_idx.reshape(length, rows)
    mach_idx = mach_idx.reshape(length, rows)
    dur_cols = dur_cols.reshape(length, rows)

    job_ready = xp.empty((rows, n))
    job_ready[...] = xp.asarray(release)
    job_ready = xp.reshape(job_ready, (-1,))                # (rows * n,)
    mach_ready = xp.zeros(rows * m)                         # (rows * m,)
    for i in range(length):
        ji = job_idx[i]
        mi = mach_idx[i]
        start = job_ready[ji]
        xp.maximum(start, mach_ready[mi], out=start)
        start += dur_cols[i]
        job_ready[ji] = start
        mach_ready[mi] = start
    # every job's final ready time is the end of its last operation, and
    # ends are non-decreasing along a job, so this is C_j
    return job_ready.reshape(k, pop, n)


def _genome_rows(sequences):
    """``sequences`` as an int64 ``(pop, n_genes)`` matrix."""
    xp = _xp()
    seqs = xp.asarray(sequences, dtype=xp.int64)
    return seqs[None, :] if seqs.ndim == 1 else seqs


def _operation_sequence_scan(instance: JobShopInstance, seqs, tables,
                             validate: bool):
    """:func:`_semi_active_scan` of a non-empty int64 ``(pop, L)`` batch
    of permutation-with-repetition genomes."""
    xp = _xp()
    pop, length = seqs.shape
    # position-major stage, operation and machine of every gene
    index = scratch("jobshop.index", (3, length, pop), xp.int64)
    stages, ops, machines = index[0], index[1], index[2]
    _stages_into(instance, seqs, stages.T, validate)
    _check_genes(seqs, instance.n_jobs)
    # a gene's operation is (job, stage): flat index job * n_stages + stage
    xp.multiply(seqs.T, instance.n_stages, out=ops)
    ops += stages
    xp.take_into(xp.asarray(instance.routing), ops, out=machines)
    return _semi_active_scan(seqs.T, machines, ops, tables,
                             instance.release, instance.n_jobs,
                             instance.n_machines)


# ---------------------------------------------------------------------------
# job shop (permutation with repetition, semi-active)
# ---------------------------------------------------------------------------

def batch_completion_operation_sequence(instance: JobShopInstance,
                                        sequences: np.ndarray,
                                        validate: bool = False) -> np.ndarray:
    """Per-job completion times of a whole population of JSSP chromosomes.

    ``sequences`` is a ``(pop_size, n_jobs * n_stages)`` int matrix of
    permutation-with-repetition chromosomes; the result is the
    ``(pop_size, n_jobs)`` float64 matrix ``C[p, j]``, bit-identical to the
    ``completion_times`` of
    :func:`~repro.scheduling.jobshop.decode_operation_sequence` per row.

    The scan is :func:`_semi_active_scan` over one duration table.  A gene
    outside ``range(n_jobs)`` raises ``IndexError``; for other invalid
    chromosomes the result is undefined unless ``validate=True`` (which
    raises ``ValueError``).
    """
    xp = _xp()
    seqs = _genome_rows(sequences)
    if seqs.shape[0] == 0:
        return xp.zeros((0, instance.n_jobs))
    processing = xp.reshape(xp.asarray(instance.processing), (1, -1))
    return _operation_sequence_scan(instance, seqs, processing,
                                    validate)[0]


def batch_makespan_operation_sequence(instance: JobShopInstance,
                                      sequences: np.ndarray,
                                      validate: bool = False) -> np.ndarray:
    """Semi-active makespans of a whole population of JSSP chromosomes.

    ``sequences`` is a ``(pop_size, n_jobs * n_stages)`` int matrix; the
    result is the ``(pop_size,)`` float64 makespan vector, bit-identical to
    calling :func:`~repro.scheduling.jobshop.operation_sequence_makespan`
    on each row.  An empty population returns ``np.zeros(0)`` (float64).
    """
    completion = batch_completion_operation_sequence(instance, sequences,
                                                     validate=validate)
    if completion.shape[1] == 0:
        return np.zeros(len(completion))
    return completion.max(axis=1)


def batch_completion_operation_sequence_scenarios(
        instance: JobShopInstance, sequences: np.ndarray,
        processing_stack: np.ndarray,
        validate: bool = False) -> np.ndarray:
    """CRN completion tensor: every chromosome under every scenario.

    ``sequences`` is a ``(pop_size, n_jobs * n_stages)`` permutation-with-
    repetition matrix and ``processing_stack`` a ``(K, n_jobs, n_stages)``
    stack of sampled duration tables sharing ``instance``'s routing and
    release times (the common-random-numbers layout of the stochastic
    extension).  The result is the ``(K, pop_size, n_jobs)`` float64
    completion tensor; slice ``k`` is bit-identical to
    :func:`batch_completion_operation_sequence` on the scenario-``k``
    instance, and hence to the scalar decode per row.

    One flattened scan covers all ``K * pop`` (scenario, individual)
    pairs -- the stage/machine gather is computed once (scenarios share
    routing) and only the durations differ per scenario.
    """
    xp = _xp()
    seqs = _genome_rows(sequences)
    stack = xp.asarray(processing_stack, dtype=xp.float64)
    if stack.ndim != 3 or stack.shape[1:] != instance.processing.shape:
        raise ValueError(
            f"processing_stack must be (K, n_jobs, n_stages) = "
            f"(K,) + {instance.processing.shape}, got {stack.shape}")
    scenarios, pop = stack.shape[0], seqs.shape[0]
    if pop == 0 or scenarios == 0:
        return xp.zeros((scenarios, pop, instance.n_jobs))
    return _operation_sequence_scan(
        instance, seqs, xp.reshape(stack, (scenarios, -1)), validate)


# ---------------------------------------------------------------------------
# flow shop (job permutation)
# ---------------------------------------------------------------------------

def batch_completion_permutation(instance: FlowShopInstance,
                                 permutations: np.ndarray) -> np.ndarray:
    """Per-job completion times of a population of flow-shop permutations.

    ``permutations`` is a ``(pop_size, n_jobs)`` int matrix; the result is
    the ``(pop_size, n_jobs)`` float64 matrix ``C[p, j]`` of the classic
    completion-time recurrence, bit-identical to the last-machine column of
    scalar :func:`~repro.scheduling.flowshop.flowshop_completion` per row.
    """
    perms = np.asarray(permutations, dtype=np.int64)
    if perms.ndim == 1:
        perms = perms[None, :]
    if perms.shape[0] == 0:
        return np.zeros((0, instance.n_jobs))
    return flowshop_completion_population(instance, perms)


def batch_makespan_permutation(instance: FlowShopInstance,
                               permutations: np.ndarray) -> np.ndarray:
    """Makespans of a whole population of flow-shop permutations.

    ``permutations`` is a ``(pop_size, n_jobs)`` int matrix; the result is
    the ``(pop_size,)`` float64 makespan vector of the classic
    completion-time recurrence, vectorised over the population axis
    (:func:`~repro.scheduling.flowshop.flowshop_makespan_population` is the
    underlying kernel).  Bit-identical to scalar
    :func:`~repro.scheduling.flowshop.flowshop_makespan` per row.  An empty
    population returns ``np.zeros(0)`` (float64).
    """
    perms = np.asarray(permutations, dtype=np.int64)
    if perms.ndim == 1:
        perms = perms[None, :]
    if perms.shape[0] == 0:
        return np.zeros(0)
    if perms.shape[1] != instance.n_jobs:
        raise ValueError(
            f"permutations must have n_jobs = {instance.n_jobs} columns")
    return flowshop_makespan_population(instance, perms)


# ---------------------------------------------------------------------------
# flexible job shop (assignment + sequence chromosome)
# ---------------------------------------------------------------------------

def _fjsp_tables(instance: FlexibleJobShopInstance):
    """Dense gather tables for the ragged FJSP operation list.

    Returns ``(offsets, job_of, n_alts, elig_mach, elig_dur, lag_after,
    setup_flat)`` with operations flattened job-major.
    ``elig_mach``/``elig_dur`` are padded ``(n_ops, max_alts)`` tables over
    the *sorted* eligible-machine list (matching
    :func:`~repro.scheduling.flexible.decode_fjsp`'s ``alts`` ordering);
    ``lag_after[k]`` is the inter-stage time lag applied after operation
    ``k`` (0 for each job's last stage); ``setup_flat`` is the flattened
    ``(m, n_jobs + 1, n_jobs)`` sequence-dependent setup tensor (row 0 =
    from idle) or ``None``.  The tables depend only on init-time instance
    structure, so they are memoized on the instance -- the batch decoder
    runs once per generation on the same instance.
    """
    cached = getattr(instance, "_fjsp_batch_tables", None)
    if cached is not None:
        return cached
    counts = [instance.stages_of(j) for j in range(instance.n_jobs)]
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    n_ops = int(offsets[-1])
    job_of = np.repeat(np.arange(instance.n_jobs, dtype=np.int64), counts)
    max_alts = max(len(alts) for job in instance.operations for alts in job)
    n_alts = np.zeros(n_ops, dtype=np.int64)
    elig_mach = np.zeros((n_ops, max_alts), dtype=np.int64)
    elig_dur = np.zeros((n_ops, max_alts))
    lag_after = np.zeros(n_ops)
    k = 0
    for j, job in enumerate(instance.operations):
        for s, alts in enumerate(job):
            machs = sorted(alts)
            n_alts[k] = len(machs)
            elig_mach[k, :len(machs)] = machs
            elig_dur[k, :len(machs)] = [float(alts[q]) for q in machs]
            if s + 1 < len(job):
                lag_after[k] = instance.lag(j, s)
            k += 1
    setup_flat = None
    if instance.setup is not None:
        setup_flat = np.ascontiguousarray(
            np.stack([np.asarray(s, dtype=float)
                      for s in instance.setup])).ravel()
    tables = (offsets, job_of, n_alts, elig_mach, elig_dur, lag_after,
              setup_flat)
    instance._fjsp_batch_tables = tables
    return tables


def batch_completion_fjsp(instance: FlexibleJobShopInstance,
                          assignments: np.ndarray,
                          sequences: np.ndarray,
                          validate: bool = False) -> np.ndarray:
    """Per-job completion times of a population of two-part FJSP genomes.

    ``assignments`` and ``sequences`` are ``(pop_size, n_ops)`` int
    matrices: row ``p`` of ``assignments`` indexes each flattened
    operation's *sorted* eligible-machine list (modulo its length) and row
    ``p`` of ``sequences`` is a permutation with repetition of job ids
    (job ``j`` appearing ``stages_of(j)`` times) -- exactly the genome of
    :func:`~repro.scheduling.flexible.decode_fjsp`, whose schedule's
    ``completion_times`` this reproduces bit-identically per row.

    All the Defersha & Chen [36] realism knobs are vectorised: machine
    release dates, inter-stage time lags, and sequence-dependent setups in
    both attached and detached mode (the per-machine predecessor-job state
    becomes one more gather/scatter array in the scan).  The machine choice
    itself has no data-dependent control flow -- it is a pure gather of the
    assignment gene through the eligible-machine table -- which is what
    makes the FJSP batchable at all.
    """
    xp = _xp()
    A = xp.asarray(assignments, dtype=xp.int64)
    S = xp.asarray(sequences, dtype=xp.int64)
    if A.ndim == 1:
        A = A[None, :]
    if S.ndim == 1:
        S = S[None, :]
    if A.shape != S.shape:
        raise ValueError("assignments and sequences shapes differ")
    pop, length = S.shape
    n, m = instance.n_jobs, instance.n_machines
    if pop == 0:
        return xp.zeros((0, n))
    offsets, job_of, n_alts, elig_mach, elig_dur, lag_after, setup_flat = \
        _fjsp_tables(instance)
    n_ops = int(offsets[-1])
    if length != n_ops:
        raise ValueError(f"genomes must have total_operations = {n_ops} "
                         "columns")
    n_alts = xp.asarray(n_alts)
    elig_mach = xp.asarray(elig_mach)
    elig_dur = xp.asarray(elig_dur)
    lag_after = xp.asarray(lag_after)
    if setup_flat is not None:
        setup_flat = xp.asarray(setup_flat)

    # Gene i of row p schedules the next stage of job S[p, i]; a stable
    # argsort groups genes job-major, so sorted slot k IS flattened
    # operation k and scattering arange back gives each gene's op index.
    order = xp.stable_argsort(S, axis=1)
    if validate:
        sorted_jobs = xp.take_along_axis(S, order, axis=1)
        bad = (sorted_jobs != xp.asarray(job_of)[None, :]).any(axis=1)
        if bad.any():
            raise ValueError(
                f"rows {np.flatnonzero(bad).tolist()} are not valid FJSP "
                "sequences (job j exactly stages_of(j) times)")
    op_idx = xp.empty_like(S)
    xp.put_along_axis(op_idx, order,
                      xp.broadcast_to(xp.arange(n_ops, dtype=xp.int64),
                                      (pop, n_ops)), axis=1)

    # machine choice: gather the op's assignment gene through its sorted
    # eligible-machine list (scalar: alts[assignment[op] % len(alts)])
    a_gene = xp.take_along_axis(A, op_idx, axis=1)         # (pop, L)
    sel = a_gene % n_alts[op_idx]
    machines = elig_mach[op_idx, sel]                      # (pop, L)
    durations = elig_dur[op_idx, sel]                      # (pop, L)
    lags = lag_after[op_idx]                               # (pop, L)

    base = xp.arange(pop, dtype=xp.int64)[:, None]
    job_cols = xp.ascontiguousarray(S.T)                   # raw job ids
    job_idx = xp.ascontiguousarray((base * n + S).T)
    mach_idx = xp.ascontiguousarray((base * m + machines).T)
    dur_cols = xp.ascontiguousarray(durations.T)
    lag_cols = xp.ascontiguousarray(lags.T)

    job_ready = xp.tile(xp.asarray(instance.release), pop)  # (pop * n,)
    mach_ready = xp.tile(xp.asarray(instance.machine_release),
                         pop)                               # (pop * m,)
    if setup_flat is not None:
        last_job = xp.full(pop * m, -1, dtype=xp.int64)
        mach_cols = xp.ascontiguousarray(machines.T)
    for i in range(length):
        ji = job_idx[i]
        mi = mach_idx[i]
        jr = job_ready[ji]
        mr = mach_ready[mi]
        if setup_flat is None:
            end = xp.maximum(jr, mr)
        else:
            st = setup_flat[(mach_cols[i] * (n + 1) + last_job[mi] + 1) * n
                            + job_cols[i]]
            if instance.setup_attached:
                end = xp.maximum(jr, mr) + st
            else:
                end = xp.maximum(jr, mr + st)
        end += dur_cols[i]
        job_ready[ji] = end + lag_cols[i]
        mach_ready[mi] = end
        if setup_flat is not None:
            last_job[mi] = job_cols[i]
    # lag_after is 0 on each job's last stage, so the final ready time is
    # the end of the job's last operation, i.e. C_j
    return job_ready.reshape(pop, n)


# ---------------------------------------------------------------------------
# hybrid flow shop (permutation, optional assignment chromosome)
# ---------------------------------------------------------------------------

def _hfs_tables(instance: FlexibleFlowShopInstance):
    """Dense per-stage gather tables for a hybrid flow shop.

    Returns ``(dur_tables, setup_tables)``: ``dur_tables[s]`` is the
    ``(n_jobs, k_s)`` float64 duration table of stage ``s`` built through
    :meth:`~repro.scheduling.instance.FlexibleFlowShopInstance.duration`
    (so uniform speeds / unrelated machines reproduce the scalar decoder's
    exact float64 values); ``setup_tables[s]`` is stage ``s``'s flattened
    ``(n_jobs + 1, n_jobs)`` sequence-dependent setup matrix (row 0 = from
    idle) or ``None`` when the instance has no setups.  Init-time instance
    structure only, so memoized on the instance.
    """
    cached = getattr(instance, "_hfs_batch_tables", None)
    if cached is not None:
        return cached
    n, n_stages = instance.n_jobs, instance.n_stages
    dur_tables = []
    for s in range(n_stages):
        k = instance.machines_per_stage[s]
        table = np.empty((n, k))
        for j in range(n):
            for q in range(k):
                table[j, q] = instance.duration(j, s, q)
        dur_tables.append(table)
    setup_tables = None
    if instance.setup is not None:
        setup_tables = [np.ascontiguousarray(
            np.asarray(instance.setup[s], dtype=float)).ravel()
            for s in range(n_stages)]
    tables = (dur_tables, setup_tables)
    instance._hfs_batch_tables = tables
    return tables


def batch_completion_hybrid_flowshop(instance: FlexibleFlowShopInstance,
                                     permutations: np.ndarray,
                                     assignments: np.ndarray | None = None,
                                     validate: bool = False) -> np.ndarray:
    """Per-job completion times of a population of HFS chromosomes.

    ``permutations`` is a ``(pop_size, n_jobs)`` int matrix of stage-0 job
    orders; ``assignments`` is ``None`` (earliest-finish machine choice)
    or a ``(pop_size, n_jobs, n_stages)`` int tensor of pinned machine
    indices (modulo stage size), the two genome modes of
    :func:`~repro.scheduling.flexible.decode_hybrid_flowshop` -- whose
    schedule's completion times this reproduces bit-identically per row,
    including per-stage FIFO re-ordering and sequence-dependent setups.

    The decode scans stage by stage.  A stage's machines serve no other
    stage, so each stage starts from idle machine state, and everything a
    job brings to it is gathered once, in the stage's processing order:
    ready times, job ids, pinned machine slots and durations (or, for
    earliest finish, the ``(k, n, pop)`` duration panel) and setup
    offsets.  The per-position step then reads and writes only machine
    state, every individual at once.  On the earliest-finish path the
    candidate finish times of all ``k`` stage machines form a ``(k, pop)``
    panel (identical float64 op order to the scalar loop:
    ``max(job_ready, mach_ready + setup) + dur``) and ``argmin`` along the
    machine axis picks the first minimum -- exactly
    the scalar ``end < best`` lowest-index tie-break.  A job's finish on
    one stage is its ready time on the next, and the FIFO hand-off is a
    batched stable argsort of those finish times, matching the scalar
    ``np.argsort(finish[order], kind="stable")``.
    """
    xp = _xp()
    P = xp.asarray(permutations, dtype=xp.int64)
    if P.ndim == 1:
        P = P[None, :]
    pop, length = P.shape
    n, n_stages = instance.n_jobs, instance.n_stages
    if pop == 0:
        return xp.zeros((0, n))
    if length != n:
        raise ValueError(f"permutations must have n_jobs = {n} columns")
    if validate:
        bad = (xp.sort(P, axis=1)
               != xp.arange(n, dtype=xp.int64)[None, :]).any(axis=1)
        if bad.any():
            raise ValueError(
                f"rows {np.flatnonzero(bad).tolist()} are not permutations "
                "of range(n_jobs)")
    A = None
    if assignments is not None:
        A = xp.asarray(assignments, dtype=xp.int64)
        if A.ndim == 2:
            A = A[None, :, :]
        if A.shape != (pop, n, n_stages):
            raise ValueError(
                f"assignments must be (pop, n_jobs, n_stages) = "
                f"({pop}, {n}, {n_stages}), got {A.shape}")
    dur_tables, setup_tables = _hfs_tables(instance)

    # position-major: row i holds every individual's i-th job of the stage
    jobs = xp.moveaxis(P, 0, 1)                                 # (n, pop)
    ready = xp.reshape(xp.take(xp.asarray(instance.release),
                               xp.reshape(jobs, (n * pop,))), (n, pop))
    rows = xp.arange(pop, dtype=xp.int64)
    for s in range(n_stages):
        k = instance.machines_per_stage[s]
        durs = xp.asarray(dur_tables[s])                        # (n, k)
        if setup_tables is not None:
            setup_s = xp.asarray(setup_tables[s])
            # a machine's setup row offset: (last job + 1) * n, 0 from idle
            after = (jobs + 1) * n
        if A is not None:
            # pinned machine: its state slot and duration, per position
            q = xp.take_along_axis(xp.moveaxis(A[:, :, s], 0, 1),
                                   jobs, axis=0) % k
            dur = xp.reshape(xp.take(xp.reshape(durs, (n * k,)),
                                     xp.reshape(jobs * k + q, (n * pop,))),
                             (n, pop))
            slot = rows * k + q                                 # (n, pop)
            mach = xp.zeros(pop * k)
            ends = xp.empty((n, pop))
            if setup_tables is not None:
                last = xp.zeros(pop * k, dtype=xp.int64)
            for i in range(n):
                mr = mach[slot[i]]
                if setup_tables is not None:
                    mr = mr + xp.take(setup_s, last[slot[i]] + jobs[i])
                    last[slot[i]] = after[i]
                end = xp.maximum(ready[i], mr) + dur[i]
                mach[slot[i]] = end
                ends[i] = end
        else:
            # earliest finish over the stage's machines; argmin's
            # first-minimum IS the scalar lowest-index tie-break
            panel = xp.reshape(xp.take(xp.moveaxis(durs, 0, 1),
                                       xp.reshape(jobs, (n * pop,)), axis=1),
                               (k, n, pop))
            machines = xp.reshape(xp.arange(k, dtype=xp.int64), (k, 1))
            mach = xp.zeros((k, pop))
            candidates = xp.empty((n, k, pop))
            if setup_tables is not None:
                last = xp.zeros((k, pop), dtype=xp.int64)
            for i in range(n):
                mr = mach
                if setup_tables is not None:
                    mr = mr + xp.reshape(xp.take(
                        setup_s, xp.reshape(last + jobs[i], (k * pop,))),
                        (k, pop))
                end_k = xp.maximum(ready[i], mr) + panel[:, i]
                chosen = machines == xp.argmin(end_k, axis=0, keepdims=True)
                mach = xp.where(chosen, end_k, mach)
                if setup_tables is not None:
                    last = xp.where(chosen, after[i], last)
                candidates[i] = end_k
            ends = xp.min(candidates, axis=1)
        # a job's finish here is its ready time on the next stage, which
        # takes the jobs in completion order of this one
        fifo = xp.stable_argsort(ends, axis=0)
        jobs = xp.take_along_axis(jobs, fifo, axis=0)
        ready = xp.take_along_axis(ends, fifo, axis=0)
    completion = xp.zeros((pop, n))
    xp.put_along_axis(completion, xp.moveaxis(jobs, 0, 1),
                      xp.moveaxis(ready, 0, 1), axis=1)
    return completion


# ---------------------------------------------------------------------------
# open shop (explicit operation sequence)
# ---------------------------------------------------------------------------

def pairs_to_op_ids(instance: OpenShopInstance,
                    pairs: np.ndarray) -> np.ndarray:
    """Flatten ``(job, machine)`` pairs to op ids ``job * n_machines + mach``.

    Accepts ``(L, 2)`` (one individual) or ``(pop, L, 2)`` and returns the
    ``(pop, L)`` int64 op-id matrix the batch decoder scans.
    """
    pr = np.asarray(pairs, dtype=np.int64)
    if pr.ndim == 2:
        pr = pr[None, :, :]
    if pr.ndim != 3 or pr.shape[-1] != 2:
        raise ValueError("pairs must be (L, 2) or (pop, L, 2)")
    return pr[:, :, 0] * instance.n_machines + pr[:, :, 1]


def batch_completion_pair_sequence(instance: OpenShopInstance,
                                   sequences: np.ndarray,
                                   validate: bool = False) -> np.ndarray:
    """Per-job completion times of a population of open-shop sequences.

    ``sequences`` lists every operation of the open shop exactly once per
    row, either as a ``(pop_size, n_jobs * n_machines)`` matrix of op ids
    (``job * n_machines + machine`` -- i.e. a plain permutation of
    ``range(n_jobs * n_machines)``) or as explicit ``(job, machine)`` pairs
    of shape ``(L, 2)`` / ``(pop_size, L, 2)``.  Operations are placed
    greedily in list order, bit-identical per row to the
    ``completion_times`` of
    :func:`~repro.scheduling.openshop.decode_pair_sequence`.

    This covers the maximally expressive open-shop encoding the survey
    notes both the flow-shop-style and job-shop-style encodings reduce to;
    the LPT-Task/LPT-Machine greedy decoders of Kokosinski & Studzienny
    [32] stay scalar (their machine choice is data-dependent).
    """
    seqs = np.asarray(sequences, dtype=np.int64)
    n_total = instance.n_jobs * instance.n_machines
    # (pop, L, 2) and (L, 2) are pair layouts.  A 2-column matrix is
    # ambiguous only when the instance itself has two operations; there a
    # valid op-id matrix has every row a permutation of (0, 1), which a
    # valid single-individual pair list never is (its job/machine columns
    # repeat an index), so content disambiguates the layouts exactly.
    if seqs.ndim == 3:
        seqs = pairs_to_op_ids(instance, seqs)
    elif seqs.ndim == 2 and seqs.shape[1] == 2:
        rows_are_op_ids = (n_total == 2 and
                           (np.sort(seqs, axis=1)
                            == np.array([0, 1])).all())
        if not rows_are_op_ids:
            seqs = pairs_to_op_ids(instance, seqs)
    if seqs.ndim == 1:
        seqs = seqs[None, :]
    pop, length = seqs.shape
    n, m = instance.n_jobs, instance.n_machines
    if pop == 0:
        return np.zeros((0, n))
    if length != n * m:
        raise ValueError(
            f"sequences must have n_jobs * n_machines = {n * m} columns")
    if validate:
        expected = np.arange(n * m, dtype=np.int64)
        bad = (np.sort(np.asarray(seqs), axis=1)
               != expected[None, :]).any(axis=1)
        if bad.any():
            raise ValueError(
                f"rows {np.flatnonzero(bad).tolist()} do not list every "
                "(job, machine) operation exactly once")
    xp = _xp()
    seqs = xp.asarray(seqs, dtype=xp.int64)
    _check_genes(seqs, n * m)
    # op id j * m + mach is also the flat index into the (n, m) table
    jobs = scratch("openshop.jobs", (length, pop), xp.int64)
    machines = scratch("openshop.machines", (length, pop), xp.int64)
    xp.floor_divide(seqs.T, m, out=jobs)
    xp.remainder(seqs.T, m, out=machines)
    processing = xp.reshape(xp.asarray(instance.processing), (1, -1))
    return _semi_active_scan(jobs, machines, seqs.T, processing,
                             instance.release, n, m)[0]
