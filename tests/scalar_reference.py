"""Transcriptions of the per-candidate scalar code the kernels replaced.

The scalar crossovers and mutations that have a batch kernel are now
that kernel on a one-row block.  These are the loops they replaced,
kept verbatim as the tests' oracles: every operator call and every
per-pair generation must equal them in results and in RNG state.

``per_pair()`` runs the engines built inside it on their per-pair path
(``SimpleGA.make_offspring``, ``CellularGA._breed_cell``) whatever their
input: the reference the array generation is held to at the rate
extremes.  ``path(substrate)`` applies it for ``"object"`` only.

``reference(op)`` returns the transcribed callable for a configured
operator (composites recurse into their parts; operators without a
transcription -- LOX, CX, scramble, third-party ones -- are their own
reference, since they were never replaced).

``neh_reference(problem)`` is NEH as it was before each insertion step
became one scoring call: every candidate order is built and decoded on
its own, and every decode is counted.
"""

from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np

from repro.core.fitness import apply_fitness
from repro.core.individual import Individual, copy_genome
from repro.operators import (ArithmeticCrossover, AssignmentMutation,
                             CompositeCrossover, CompositeMutation,
                             GaussianKeyMutation, InversionMutation,
                             JobBasedCrossover, NPointCrossover,
                             OrderCrossover, ParameterizedUniformCrossover,
                             PMXCrossover, ShiftMutation, SwapMutation,
                             UniformCrossover, repair_to_multiset)
from repro.heuristics.constructive import _stage_durations, order_to_genome
from repro.scheduling import (FlexibleFlowShopInstance, FlowShopInstance,
                              decode_hybrid_flowshop, flowshop_completion)


def _counts(parent):
    return np.bincount(np.asarray(parent, dtype=np.int64))


# -- crossovers ---------------------------------------------------------------

def npoint(op, a, b, rng):
    a = np.asarray(a)
    b = np.asarray(b)
    shape = a.shape
    a_flat, b_flat = a.ravel(), b.ravel()
    n = a_flat.size
    if n < 2:
        return a.copy(), b.copy()
    k = min(op.points, n - 1)
    cuts = np.sort(rng.choice(np.arange(1, n), size=k, replace=False))
    mask = np.zeros(n, dtype=bool)
    toggle = False
    prev = 0
    for cut in list(cuts) + [n]:
        mask[prev:cut] = toggle
        toggle = not toggle
        prev = cut
    child_a = np.where(mask, b_flat, a_flat)
    child_b = np.where(mask, a_flat, b_flat)
    if op.repair and a.ndim == 1 and np.issubdtype(a.dtype, np.integer):
        counts = _counts(a_flat)
        child_a = repair_to_multiset(child_a, counts, donor=b_flat)
        child_b = repair_to_multiset(child_b, counts, donor=a_flat)
    return child_a.reshape(shape), child_b.reshape(shape)


def uniform(op, a, b, rng):
    a = np.asarray(a)
    b = np.asarray(b)
    mask = rng.random(a.shape) < op.swap_prob
    child_a = np.where(mask, b, a)
    child_b = np.where(mask, a, b)
    if op.repair and a.ndim == 1 and np.issubdtype(a.dtype, np.integer):
        counts = _counts(a)
        child_a = repair_to_multiset(child_a, counts, donor=b)
        child_b = repair_to_multiset(child_b, counts, donor=a)
    return child_a, child_b


def param_uniform(op, a, b, rng):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    take_a = rng.random(a.size) < op.bias
    return np.where(take_a, a, b), np.where(take_a, b, a)


def arithmetic(op, a, b, rng):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w = op.fixed_weight if op.fixed_weight is not None else rng.random()
    return w * a + (1 - w) * b, (1 - w) * a + w * b


def pmx_child(a, b, lo, hi):
    child = a.copy()
    child[lo:hi] = b[lo:hi]
    # mapping from the copied segment back to displaced genes
    mapping = {int(b[i]): int(a[i]) for i in range(lo, hi)}
    for i in list(range(0, lo)) + list(range(hi, a.size)):
        v = int(a[i])
        seen = set()
        while v in mapping and v not in seen:
            seen.add(v)
            v = mapping[v]
        child[i] = v
    return child


def pmx(op, a, b, rng):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    n = a.size
    if n < 2:
        return a.copy(), b.copy()
    lo, hi = np.sort(rng.choice(n, size=2, replace=False))
    hi += 1
    return pmx_child(a, b, lo, hi), pmx_child(b, a, lo, hi)


def ox_child(a, b, lo, hi):
    n = a.size
    counts = np.bincount(a, minlength=int(max(a.max(), b.max())) + 1)
    child = np.full(n, -1, dtype=np.int64)
    child[lo:hi] = a[lo:hi]
    used = np.bincount(a[lo:hi], minlength=counts.size)
    fill = []
    for v in np.concatenate([b[hi:], b[:hi]]):
        if used[v] < counts[v]:
            fill.append(int(v))
            used[v] += 1
    positions = list(range(hi, n)) + list(range(0, lo))
    for pos, v in zip(positions, fill):
        child[pos] = v
    return child


def ox(op, a, b, rng):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    n = a.size
    if n < 2:
        return a.copy(), b.copy()
    lo, hi = np.sort(rng.choice(n, size=2, replace=False))
    hi += 1
    return ox_child(a, b, lo, hi), ox_child(b, a, lo, hi)


def jox_child(a, b, keep):
    child = np.full(a.size, -1, dtype=np.int64)
    mask = keep[a]
    child[mask] = a[mask]
    fill = [int(v) for v in b if not keep[v]]
    child[~mask] = fill
    return child


def jox(op, a, b, rng):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    n_jobs = int(max(a.max(), b.max())) + 1
    keep = rng.random(n_jobs) < 0.5
    return jox_child(a, b, keep), jox_child(b, a, keep)


def composite_crossover(op, a, b, rng):
    if not isinstance(a, tuple) or len(a) != len(op.parts):
        raise ValueError("composite crossover needs tuple genomes "
                         "matching the configured part count")
    outs_a, outs_b = [], []
    for part, pa, pb in zip(op.parts, a, b):
        if part is None:
            outs_a.append(np.asarray(pa).copy())
            outs_b.append(np.asarray(pb).copy())
        else:
            ca, cb = reference(part)(pa, pb, rng)
            outs_a.append(ca)
            outs_b.append(cb)
    return tuple(outs_a), tuple(outs_b)


# -- mutations ----------------------------------------------------------------

def swap(op, genome, rng):
    g = np.asarray(genome).copy()
    n = g.size
    if n < 2:
        return g
    for _ in range(op.pairs):
        i, j = rng.choice(n, size=2, replace=False)
        g[i], g[j] = g[j], g[i]
    return g


def shift(op, genome, rng):
    g = np.asarray(genome).copy()
    n = g.size
    if n < 2:
        return g
    src = int(rng.integers(0, n))
    dst = int(rng.integers(0, n - 1))
    v = g[src]
    g = np.delete(g, src)
    return np.insert(g, dst, v)


def inversion(op, genome, rng):
    g = np.asarray(genome).copy()
    n = g.size
    if n < 2:
        return g
    lo, hi = np.sort(rng.choice(n, size=2, replace=False))
    g[lo:hi + 1] = g[lo:hi + 1][::-1]
    return g


def gaussian(op, genome, rng):
    g = np.asarray(genome, dtype=float).copy()
    mask = rng.random(g.size) < op.rate
    g[mask] = np.clip(g[mask] + rng.normal(0, op.sigma, mask.sum()),
                      0.0, 1.0 - 1e-12)
    return g


def assignment(op, genome, rng):
    g = np.asarray(genome, dtype=np.int64).copy()
    flat = g.reshape(-1)  # a view: the copy is contiguous
    mask = rng.random(flat.size) < op.rate
    idx = np.nonzero(mask)[0]
    for i in idx:
        hi = max(1, int(op.domain_sizes[i % op.domain_sizes.size]))
        flat[i] = rng.integers(0, hi)
    return g


def composite_mutation(op, genome, rng):
    if not isinstance(genome, tuple) or len(genome) != len(op.parts):
        raise ValueError("composite mutation needs a matching tuple genome")
    out = []
    for part, g in zip(op.parts, genome):
        out.append(np.asarray(g).copy() if part is None
                   else reference(part)(g, rng))
    return tuple(out)


TRANSCRIBED = {
    NPointCrossover: npoint,
    UniformCrossover: uniform,
    ParameterizedUniformCrossover: param_uniform,
    ArithmeticCrossover: arithmetic,
    PMXCrossover: pmx,
    OrderCrossover: ox,
    JobBasedCrossover: jox,
    CompositeCrossover: composite_crossover,
    SwapMutation: swap,
    ShiftMutation: shift,
    InversionMutation: inversion,
    GaussianKeyMutation: gaussian,
    AssignmentMutation: assignment,
    CompositeMutation: composite_mutation,
}


def reference(op):
    """The transcribed form of ``op`` (``op`` itself if never replaced)."""
    body = TRANSCRIBED.get(type(op))
    if body is None:
        return op
    return lambda *args: body(op, *args)


# -- generation loops ---------------------------------------------------------

@contextmanager
def per_pair():
    """Engines built in the block breed pair by pair, whatever the input."""
    with mock.patch("repro.core.ga.takes_arrays", return_value=False):
        yield


def path(substrate):
    """``per_pair()`` for ``"object"``, a no-op for ``"array"``: a test
    parametrised over both substrates then covers both paths."""
    return per_pair() if substrate == "object" else nullcontext()


def make_offspring(ga, population, count):
    """``SimpleGA.make_offspring`` as a per-pair loop of operator calls."""
    cfg = ga.config
    crossover, mutation = reference(cfg.crossover), reference(cfg.mutation)
    apply_fitness(population.members, cfg.fitness_transform)
    n_immigrants = int(round(cfg.immigration_rate * count))
    n_bred = count - n_immigrants
    parents = cfg.selection(population, n_bred + (n_bred % 2), ga.rng)
    offspring = []
    for i in range(0, len(parents) - 1, 2):
        pa, pb = parents[i], parents[i + 1]
        if ga.rng.random() < cfg.crossover_rate:
            a, b = crossover(pa.genome, pb.genome, ga.rng)
        else:
            a = copy_genome(pa.genome)
            b = copy_genome(pb.genome)
        offspring.append(Individual(a))
        offspring.append(Individual(b))
    offspring = offspring[:n_bred]
    for k, child in enumerate(offspring):
        if ga.rng.random() < cfg.mutation_rate:
            offspring[k] = Individual(mutation(child.genome, ga.rng))
    for _ in range(n_immigrants):
        offspring.append(Individual(ga.problem.random_genome(ga.rng)))
    return offspring


def breed_cell(cga, r, c):
    """``CellularGA._breed_cell`` with transcribed operators."""
    cfg = cga.config
    centre = cga.population[r * cga.cols + c]
    mate = cga._local_mate(r, c)
    if cga.rng.random() < cfg.crossover_rate:
        a, _b = reference(cfg.crossover)(centre.genome, mate.genome, cga.rng)
    else:
        a = centre.copy().genome
    child = Individual(a)
    if cga.rng.random() < cfg.mutation_rate:
        child = Individual(reference(cfg.mutation)(child.genome, cga.rng))
    return child


# -- NEH ----------------------------------------------------------------------

def neh_loop(durations, order_objective):
    """NEH insertion with one ``order_objective`` call per candidate.

    Returns ``(order, n_calls)``; the first minimum wins.
    """
    p = np.asarray(durations, dtype=float)
    seed = np.argsort(-p.sum(axis=1), kind="stable")
    seq = []
    calls = 0
    for job in seed:
        best_seq, best_val = None, np.inf
        for pos in range(len(seq) + 1):
            cand = seq[:pos] + [int(job)] + seq[pos:]
            val = float(order_objective(np.asarray(cand, dtype=np.int64)))
            calls += 1
            if val < best_val:
                best_seq, best_val = cand, val
        seq = best_seq
    return np.asarray(seq, dtype=np.int64), calls


def flowshop_partial_makespan(instance, cand):
    """Makespan of a partial flow-shop order, decoded from scratch."""
    c = flowshop_completion(instance, cand)
    return float(c[-1, -1]) if c.size else 0.0


def partial_order_objective(problem):
    """Objective of one partial job order, as NEH scored it per candidate.

    Flow shops and hybrid flow shops decode the partial order natively;
    every other class completes it with the missing jobs in index order
    and evaluates the full genome.
    """
    instance = problem.encoding.instance
    if isinstance(instance, FlowShopInstance):
        return lambda cand: flowshop_partial_makespan(instance, cand)
    if isinstance(instance, FlexibleFlowShopInstance):
        return lambda cand: decode_hybrid_flowshop(
            instance, cand, None).makespan
    n = instance.n_jobs

    def objective(cand):
        present = set(int(j) for j in cand)
        full = np.concatenate([
            np.asarray(cand, dtype=np.int64),
            np.asarray([j for j in range(n) if j not in present],
                       dtype=np.int64)])
        return float(problem.evaluate(order_to_genome(problem, full)))
    return objective


def neh_reference(problem):
    """``heuristic_order("neh", problem)`` as a per-candidate loop."""
    return neh_loop(_stage_durations(problem.encoding.instance),
                    partial_order_objective(problem))
