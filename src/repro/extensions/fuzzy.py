"""Fuzzy scheduling (Huang, Huang & Lai [24]).

[24] solves flow shop problems "with fuzzy processing times and fuzzy due
dates, where the possibility and necessity measures with exact formulas
were adopted to maximize the earliness and tardiness simultaneously".

This module implements the standard triangular-fuzzy-number (TFN) algebra
used in that literature:

* a TFN ``(a, b, c)`` with ``a <= b <= c``;
* addition is component-wise;
* the fuzzy max is approximated component-wise (the criterion-preserving
  approximation standard in fuzzy-scheduling GAs);
* ``possibility(C <= D)`` and ``necessity(C <= D)`` against a fuzzy due
  date follow the classic Dubois-Prade formulas;
* the *agreement index* (area of intersection over area of C) measures
  how well a completion time honours a due-date window.

Two evaluation paths share one arithmetic:

* the scalar :class:`TFN` objects and :meth:`FuzzyFlowShopInstance.completion_times`
  recurrence (readable, used for single chromosomes and as the reference
  in conformance tests);
* the batch kernels :func:`fuzzy_completion_population` /
  :func:`batch_agreement_index`, which evaluate a whole population of
  random-key chromosomes as ``(pop, jobs, 3)`` TFN tensors.  The scalar
  agreement index delegates to the batch kernel on a one-element array,
  so the two paths are bit-identical by construction.

The agreement index is computed *exactly*: the intersection of two
triangular memberships is piecewise linear with kinks only at the six
triangle vertices and the four pairwise edge crossings, so integrating
with the midpoint rule over that breakpoint grid is exact (no sampling
grid, no NumPy-2-only ``trapezoid`` dependency).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.backend import active_namespace as _xp
from ..scheduling.flowshop import _permutations, _recurrence, _scatter_exits
from ..scheduling.instance import FlowShopInstance
from ..encodings.base import GenomeKind

__all__ = ["TFN", "FuzzyFlowShopInstance", "FuzzyFlowShopEncoding",
           "fuzzy_flowshop_makespan", "agreement_index",
           "batch_agreement_index", "fuzzy_completion_population",
           "fuzzy_agreement_population"]


@dataclass(frozen=True)
class TFN:
    """Triangular fuzzy number (a <= b <= c)."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if not self.a <= self.b <= self.c:
            raise ValueError(f"TFN requires a <= b <= c, got {self}")

    def __add__(self, other: "TFN") -> "TFN":
        return TFN(self.a + other.a, self.b + other.b, self.c + other.c)

    def maximum(self, other: "TFN") -> "TFN":
        """Component-wise fuzzy max approximation."""
        return TFN(max(self.a, other.a), max(self.b, other.b),
                   max(self.c, other.c))

    def defuzzify(self) -> float:
        """Centroid defuzzification ((a + 2b + c) / 4, the common choice)."""
        return (self.a + 2 * self.b + self.c) / 4.0

    def possibility_leq(self, due: "TFN") -> float:
        """Possibility that this completion time meets fuzzy due date.

        ``Pos(C <= D) = sup min(mu_C(x), mu_D(y)) over x <= y``; for TFNs
        this reduces to 1 when ``b <= due.b`` and otherwise to the height
        of the intersection of C's rising edge and D's falling edge.
        """
        if self.b <= due.b:
            return 1.0
        denom = (due.c - due.b) + (self.b - self.a)
        if denom <= 0:
            return 1.0 if self.a <= due.c else 0.0
        h = (due.c - self.a) / denom
        return float(np.clip(h, 0.0, 1.0))

    def necessity_leq(self, due: "TFN") -> float:
        """Necessity (dual, pessimistic) that C meets the fuzzy due date."""
        if self.c <= due.b:
            return 1.0
        denom = (due.c - due.b) + (self.c - self.b)
        if denom <= 0:
            return 1.0 if self.c <= due.c else 0.0
        h = (due.c - self.b) / denom
        return float(np.clip(h, 0.0, 1.0))


def _membership(x: np.ndarray, a: np.ndarray, b: np.ndarray,
                c: np.ndarray) -> np.ndarray:
    """Triangular membership, elementwise over broadcastable arrays."""
    xp = _xp()
    with xp.errstate(over="ignore"):
        up = xp.where(b > a, (x - a) / xp.where(b > a, b - a, 1.0), 1.0)
        down = xp.where(c > b, (c - x) / xp.where(c > b, c - b, 1.0), 1.0)
    mu = xp.clip(xp.minimum(up, down), 0.0, 1.0)
    return xp.where((x < a) | (x > c), 0.0, mu)


def _edge_cross(num: np.ndarray, den: np.ndarray,
                fallback: np.ndarray) -> np.ndarray:
    """``num / den`` with non-finite results (parallel/degenerate edges)
    replaced by ``fallback`` -- a spurious breakpoint candidate never
    changes a piecewise-linear integral, so no special-casing is needed."""
    xp = _xp()
    with xp.errstate(divide="ignore", invalid="ignore"):
        x = num / den
    return xp.where(xp.isfinite(x), x, fallback)


def batch_agreement_index(completion: np.ndarray,
                          due: np.ndarray) -> np.ndarray:
    """Exact ``Area(C ∩ D) / Area(C)`` for TFN tensors, elementwise.

    ``completion`` and ``due`` are broadcast-compatible ``(..., 3)`` arrays
    of ``(a, b, c)`` triples; the result drops the last axis.  The
    integrand ``min(mu_C, mu_D)`` is piecewise linear with kinks only at
    the six vertices and the four rising/falling edge crossings, so the
    midpoint rule over the sorted 10-point breakpoint grid integrates it
    exactly (midpoints sit strictly inside each linear piece, which also
    makes jump discontinuities of degenerate zero-width edges harmless).
    Degenerate completions with ``Area(C) = 0`` score 0, matching the
    historical grid-based behaviour.
    """
    xp = _xp()
    comp, d = xp.broadcast_arrays(xp.asarray(completion, dtype=xp.float64),
                                  xp.asarray(due, dtype=xp.float64))
    ca, cb, cc = comp[..., 0], comp[..., 1], comp[..., 2]
    da, db, dc = d[..., 0], d[..., 1], d[..., 2]
    candidates = xp.stack([
        ca, cb, cc, da, db, dc,
        # rising(C) x falling(D)
        _edge_cross(ca * (dc - db) + dc * (cb - ca),
                    (dc - db) + (cb - ca), ca),
        # falling(C) x rising(D)
        _edge_cross(cc * (db - da) + da * (cc - cb),
                    (db - da) + (cc - cb), ca),
        # rising(C) x rising(D)
        _edge_cross(ca * (db - da) - da * (cb - ca),
                    (db - da) - (cb - ca), ca),
        # falling(C) x falling(D)
        _edge_cross(cc * (dc - db) - dc * (cc - cb),
                    (cc - cb) - (dc - db), ca),
    ], axis=-1)
    xs = xp.sort(candidates, axis=-1)
    widths = xs[..., 1:] - xs[..., :-1]
    mids = 0.5 * (xs[..., :-1] + xs[..., 1:])
    mu = xp.minimum(
        _membership(mids, ca[..., None], cb[..., None], cc[..., None]),
        _membership(mids, da[..., None], db[..., None], dc[..., None]))
    inter = xp.zeros(ca.shape)
    for i in range(mu.shape[-1]):           # fixed 9 intervals, kept as an
        inter += widths[..., i] * mu[..., i]  # ordered sum for bit-stability
    area_c = 0.5 * (cc - ca)
    ai = xp.divide(inter, area_c, out=xp.zeros_like(inter),
                   where=area_c > 0)
    return xp.clip(ai, 0.0, 1.0)


def agreement_index(completion: TFN, due: TFN) -> float:
    """Area(C ∩ D) / Area(C) -- the classic earliness/tardiness agreement.

    1 when the completion possibility mass lies entirely inside the due
    window, 0 when disjoint.  Delegates to :func:`batch_agreement_index`
    on a one-element tensor, so scalar and batch scoring are bit-identical
    by construction.
    """
    comp = np.array([completion.a, completion.b, completion.c])
    d = np.array([due.a, due.b, due.c])
    return float(batch_agreement_index(comp, d))


class FuzzyFlowShopInstance:
    """Flow shop with TFN processing times and TFN due dates.

    Parameters
    ----------
    processing:
        ``processing[j][k]`` = :class:`TFN` of job j on machine k.
    due:
        fuzzy due date per job.
    """

    def __init__(self, processing: Sequence[Sequence[TFN]],
                 due: Sequence[TFN], name: str = "fuzzy-fs"):
        self.processing = [list(row) for row in processing]
        self.n_jobs = len(self.processing)
        self.n_machines = len(self.processing[0]) if self.n_jobs else 0
        for j, row in enumerate(self.processing):
            if len(row) != self.n_machines:
                raise ValueError(f"job {j}: ragged processing row")
        self.due = list(due)
        if len(self.due) != self.n_jobs:
            raise ValueError("need one fuzzy due date per job")
        self.name = name
        # tensor forms feed the batch kernels; the defuzzified crisp twin
        # (used by every decode) is built once on first use
        self.processing_tensor = np.array(
            [[[t.a, t.b, t.c] for t in row] for row in self.processing],
            dtype=float).reshape(self.n_jobs, self.n_machines, 3)
        self.due_tensor = np.array(
            [[t.a, t.b, t.c] for t in self.due],
            dtype=float).reshape(self.n_jobs, 3)
        self._crisp: FlowShopInstance | None = None

    @staticmethod
    def from_crisp(instance: FlowShopInstance, spread: float = 0.2,
                   due_tau: float = 1.5, seed: int = 1
                   ) -> "FuzzyFlowShopInstance":
        """Fuzzify a crisp instance: ``(p(1-u), p, p(1+v))`` TFNs.

        Spreads are deterministic functions of the Taillard stream so the
        fuzzified instance is reproducible.
        """
        from ..instances.taillard_lcg import TaillardLCG
        gen = TaillardLCG(seed)
        proc = []
        for j in range(instance.n_jobs):
            row = []
            for k in range(instance.n_machines):
                p = float(instance.processing[j, k])
                u = spread * gen.next_float()
                v = spread * gen.next_float()
                row.append(TFN(p * (1 - u), p, p * (1 + v)))
            proc.append(row)
        # due dates must reflect queueing: a job's completion includes the
        # work of jobs sequenced before it, so the due centre adds the
        # expected waiting (half the other jobs' mean per-machine work).
        mean_op = float(instance.processing.mean())
        wait = 0.5 * (instance.n_jobs - 1) * mean_op
        due = []
        for j in range(instance.n_jobs):
            total = sum(t.b for t in proc[j])
            centre = due_tau * (total + wait)
            width = 0.35 * centre
            due.append(TFN(centre - width, centre, centre + width))
        return FuzzyFlowShopInstance(proc, due, name=f"fuzzy-{instance.name}")

    def crisp_instance(self) -> FlowShopInstance:
        """Cached defuzzified twin (for Schedule decoding and Gantt)."""
        if self._crisp is None:
            pt = self.processing_tensor
            self._crisp = FlowShopInstance(
                name=self.name + "-defuzz",
                processing=(pt[:, :, 0] + 2 * pt[:, :, 1] + pt[:, :, 2])
                / 4.0)
        return self._crisp

    def completion_times(self, permutation: np.ndarray) -> list[TFN]:
        """Fuzzy completion time per job for a permutation schedule."""
        perm = np.asarray(permutation, dtype=np.int64)
        zero = TFN(0.0, 0.0, 0.0)
        prev_row = [zero] * self.n_machines
        completion: list[TFN] = [zero] * self.n_jobs
        for job in perm:
            row: list[TFN] = []
            t = prev_row[0] + self.processing[job][0]
            row.append(t)
            for k in range(1, self.n_machines):
                t = t.maximum(prev_row[k]) + self.processing[job][k]
                row.append(t)
            prev_row = row
            completion[int(job)] = row[-1]
        return completion


def fuzzy_completion_population(instance: FuzzyFlowShopInstance,
                                permutations: np.ndarray) -> np.ndarray:
    """``(pop, n_jobs, 3)`` TFN completion tensor of ``P`` permutations.

    The flow-shop recurrence of
    :meth:`FuzzyFlowShopInstance.completion_times` on the anti-diagonal
    kernel of :mod:`repro.scheduling.flowshop`, the TFN triple riding
    along as a trailing axis (add and max are component-wise).  The first
    machine's floor is ``-inf``, which ``max`` passes through exactly, so
    row ``p`` is bit-identical to the scalar recurrence on
    ``permutations[p]``.
    """
    xp = _xp()
    perms = _permutations(instance, permutations, xp)
    exits = _recurrence(xp, xp.asarray(instance.processing_tensor),
                        xp.full((instance.n_jobs, 3), -math.inf), perms)
    return _scatter_exits(xp, perms, exits)


def fuzzy_agreement_population(instance: FuzzyFlowShopInstance,
                               permutations: np.ndarray) -> np.ndarray:
    """``(pop,)`` minimised agreement objective of ``P`` permutations.

    The [24]-style criterion ``1 - (0.5 * min_j AI_j + 0.5 * mean_j AI_j)``
    computed end-to-end on TFN tensors (no per-chromosome Python scoring).
    """
    comp = fuzzy_completion_population(instance, permutations)
    ais = batch_agreement_index(comp, instance.due_tensor[None, :, :])
    return 1.0 - (0.5 * ais.min(axis=1) + 0.5 * ais.mean(axis=1))


def fuzzy_flowshop_makespan(instance: FuzzyFlowShopInstance,
                            permutation: np.ndarray) -> TFN:
    """Fuzzy makespan: fuzzy max of all completion times."""
    comp = instance.completion_times(permutation)
    out = comp[0]
    for t in comp[1:]:
        out = out.maximum(t)
    return out


class FuzzyFlowShopEncoding:
    """Random-keys encoding over a fuzzy flow shop ([24] uses random keys).

    The minimised objective is ``1 - min_j AI_j`` (agreement index), so 0
    is perfect: every job's fuzzy completion lies inside its due window.
    Exposed through ``fast_makespan``/``batch_makespan`` so the standard
    engines (object and array substrate alike) need no special casing; the
    scalar path delegates to the batch kernel on a one-row matrix, making
    the two bit-identical by construction.
    """

    kind = GenomeKind.REAL

    def __init__(self, instance: FuzzyFlowShopInstance):
        self.instance = instance

    def random_genome(self, rng: np.random.Generator) -> np.ndarray:
        return rng.random(self.instance.n_jobs)

    def permutation(self, genome: np.ndarray) -> np.ndarray:
        return np.argsort(np.asarray(genome), kind="stable").astype(np.int64)

    def permutation_matrix(self, matrix: np.ndarray) -> np.ndarray:
        xp = _xp()
        return xp.stable_argsort(xp.asarray(matrix),
                                 axis=1).astype(xp.int64)

    def decode(self, genome: np.ndarray):
        """Decode via the cached crisp (defuzzified) flow shop schedule."""
        from ..scheduling.flowshop import flowshop_schedule
        return flowshop_schedule(self.instance.crisp_instance(),
                                 self.permutation(genome))

    def batch_makespan(self, matrix: np.ndarray) -> np.ndarray:
        """Agreement objectives of a ``(pop, n_jobs)`` random-key matrix."""
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2:
            raise ValueError("chromosome matrix must be (pop, n_jobs)")
        if mat.shape[0] == 0:
            return np.zeros(0)
        return fuzzy_agreement_population(self.instance,
                                          self.permutation_matrix(mat))

    def fast_makespan(self, genome: np.ndarray) -> float:
        mat = np.asarray(genome, dtype=float)[None, :]
        return float(self.batch_makespan(mat)[0])
