"""Encoding/Problem abstraction.

Section III.A of the survey: "An individual is representative by a
chromosome ... For flow shop problems a standard chromosome consists of a
string of length n ... For job shop problems there are two ways of
chromosome representation: direct way and indirect way."

An :class:`Encoding` owns everything chromosome-specific for one problem
instance:

* sampling a random genome,
* decoding a genome to a :class:`~repro.scheduling.schedule.Schedule`,
* a fast objective evaluation (defaults to decode-then-score but decoders
  frequently provide a cheaper path),
* the *genome kind* tag that tells variation operators which space they act
  on (``permutation``, ``repetition``, ``real``, ``composite``).

A :class:`Problem` pairs an encoding with a minimised objective; GA engines
only ever see Problems, never raw instances.  :meth:`Problem.evaluate_many`
is its one scoring body for a genome list or a chromosome matrix: the
batch evaluator when the problem has one and the genomes stack, else
genome by genome.
"""

from __future__ import annotations

from typing import Any, Protocol

import numpy as np

from ..scheduling.instance import ShopInstance
from ..scheduling.objectives import Makespan, Objective, batch_objective
from ..scheduling.schedule import Schedule

__all__ = ["GenomeKind", "Encoding", "BatchEvaluator",
           "CompletionObjectiveEvaluator", "Problem", "stack_genomes"]


class GenomeKind:
    """Tags naming the search space a genome lives in."""

    PERMUTATION = "permutation"   # permutation of range(n)
    REPETITION = "repetition"     # permutation with repetitions (multiset)
    REAL = "real"                 # real vector (random keys, fractions)
    COMPOSITE = "composite"       # tuple of sub-genomes


class Encoding(Protocol):
    """Chromosome representation bound to a specific instance."""

    instance: ShopInstance
    kind: str

    def random_genome(self, rng: np.random.Generator) -> Any:
        """Sample a uniformly random feasible genome."""
        ...  # pragma: no cover

    def decode(self, genome: Any) -> Schedule:
        """Decode a genome into a complete schedule."""
        ...  # pragma: no cover


class BatchEvaluator(Protocol):
    """Scores a whole population in one vectorised call.

    Takes a ``(pop_size, n_genes)`` chromosome matrix and returns the
    ``(pop_size,)`` vector of minimised objectives.  Encodings expose
    ``batch_completion`` (chromosome matrix -> ``(pop, n_jobs)``
    completion-time matrix) when a vectorised decoder exists, plus the
    legacy ``batch_makespan`` fast path (see
    :mod:`repro.scheduling.batch`); :meth:`Problem.batch_evaluator` is the
    discovery point GA engines and executors use -- it composes
    ``batch_completion`` with the objective's batch reduction for any
    Section-II criterion.
    """

    def __call__(self, chromosomes: np.ndarray) -> np.ndarray:  # pragma: no cover
        ...


class CompletionObjectiveEvaluator:
    """Batch evaluator composing a completion decoder with an objective.

    ``chromosomes -> encoding.batch_completion -> objective.batch`` --
    the generic vectorised path for every completion-reducible criterion
    (makespan, flow time, weighted completion, the tardiness family and
    weighted combinations thereof).  A plain class (not a closure) so
    evaluators stay picklable for process-pool workers.
    """

    def __init__(self, batch_completion, objective_batch,
                 instance: ShopInstance):
        self.batch_completion = batch_completion
        self.objective_batch = objective_batch
        self.instance = instance

    def __call__(self, chromosomes: np.ndarray) -> np.ndarray:
        completion = self.batch_completion(chromosomes)
        return self.objective_batch(completion, self.instance)


def stack_genomes(genomes: Any) -> np.ndarray | None:
    """Stack a sequence of fixed-length array genomes into a matrix.

    Returns ``None`` when the genomes cannot form a rectangular matrix
    (composite/tuple genomes, ragged lengths, empty input) -- callers fall
    back to the scalar path in that case.  A 2-D array passes through
    unchanged, so evaluators accept either representation.
    """
    if isinstance(genomes, np.ndarray):
        return genomes if genomes.ndim == 2 else None
    genomes = list(genomes)
    if not genomes:
        return None
    first = genomes[0]
    if not isinstance(first, np.ndarray) or first.ndim != 1:
        return None
    shape = first.shape
    for g in genomes:
        if not isinstance(g, np.ndarray) or g.shape != shape:
            return None
    return np.stack(genomes)


class Problem:
    """Encoding + minimised objective = what a GA optimises.

    Parameters
    ----------
    encoding:
        the chromosome representation (already bound to its instance).
    objective:
        minimised criterion; defaults to makespan, by far the most common
        choice across the surveyed papers.
    eval_cost:
        optional artificial per-evaluation CPU cost in seconds (busy loop).
        Used by master-slave experiments to emulate the "fitness value
        calculation is complex and requires considerable computation"
        regime the survey highlights, without changing results.
    """

    def __init__(self, encoding: Encoding, objective: Objective | None = None,
                 eval_cost: float = 0.0):
        self.encoding = encoding
        self.objective = objective if objective is not None else Makespan()
        self.eval_cost = float(eval_cost)

    @property
    def instance(self) -> ShopInstance:
        return self.encoding.instance

    @property
    def kind(self) -> str:
        return self.encoding.kind

    def random_genome(self, rng: np.random.Generator) -> Any:
        return self.encoding.random_genome(rng)

    def random_matrix(self, count: int,
                      rng: np.random.Generator) -> np.ndarray | None:
        """``count`` random genomes stacked into a chromosome matrix.

        Same draws as ``count`` :meth:`random_genome` calls, stacked
        through the genome-stacking seam; ``None`` when the genomes are
        ragged and cannot form a matrix.  The array substrate
        (:mod:`repro.core.substrate`) seeds populations and immigrants
        through this.
        """
        return self.stack_genomes(
            [self.random_genome(rng) for _ in range(count)])

    def decode(self, genome: Any) -> Schedule:
        return self.encoding.decode(genome)

    def evaluate(self, genome: Any) -> float:
        """Minimised objective value of ``genome``.

        Uses the encoding's fast path when it matches the default makespan
        objective; otherwise decodes and scores.
        """
        if self.eval_cost > 0.0:
            _burn_cpu(self.eval_cost)
        fast = getattr(self.encoding, "fast_makespan", None)
        if fast is not None and isinstance(self.objective, Makespan):
            return float(fast(genome))
        schedule = self.encoding.decode(genome)
        return float(self.objective(schedule, self.encoding.instance))

    def batch_evaluator(self) -> BatchEvaluator | None:
        """The problem's vectorised population evaluator, if it has one.

        Available when no artificial ``eval_cost`` is configured and either

        * the objective is the plain makespan and the encoding ships the
          direct ``batch_makespan`` (matrix-in/vector-out) fast path, or
        * the encoding ships a ``batch_completion`` decoder (chromosome
          matrix -> per-job completion matrix) and the objective reduces
          from completion matrices (``batch_objective`` finds a batch
          form) -- this covers every Section-II criterion and weighted
          combinations of them, or
        * the objective itself provides a ``batch_evaluator(encoding)``
          factory (schedule-level criteria such as peak power / energy
          that need operation starts and ends, not just per-job
          completions) -- it returns a matrix evaluator for encodings it
          recognises and ``None`` otherwise.

        GA engines and executors prefer this path and fall back to
        per-genome evaluation otherwise.
        """
        if self.eval_cost > 0.0:
            return None
        if isinstance(self.objective, Makespan):
            fast = getattr(self.encoding, "batch_makespan", None)
            if fast is not None:
                return fast
        completion = getattr(self.encoding, "batch_completion", None)
        objective_batch = batch_objective(self.objective)
        if completion is not None and objective_batch is not None:
            return CompletionObjectiveEvaluator(completion, objective_batch,
                                                self.encoding.instance)
        make = getattr(self.objective, "batch_evaluator", None)
        if make is not None:
            custom = make(self.encoding)
            if custom is not None:
                return custom
        return None

    def stack_genomes(self, genomes: Any) -> np.ndarray | None:
        """Stack genomes into the chromosome matrix the batch path scores.

        Defers to the encoding's own ``stack_genomes`` when it has one
        (composite genomes such as the two-part FJSP chromosome flatten
        their parts into one row); otherwise the generic rectangular
        stacking of :func:`stack_genomes` applies.  Returns ``None`` when
        the genomes cannot form a matrix -- callers fall back to the
        per-genome path.
        """
        custom = getattr(self.encoding, "stack_genomes", None)
        if custom is not None:
            return custom(genomes)
        return stack_genomes(genomes)

    def unstack_row(self, row: np.ndarray) -> Any:
        """Inverse of :meth:`stack_genomes` for one matrix row."""
        custom = getattr(self.encoding, "unstack_row", None)
        return custom(row) if custom is not None else row

    def evaluate_batch(self, chromosomes: np.ndarray) -> np.ndarray:
        """Objectives of a ``(pop_size, n_genes)`` chromosome matrix."""
        return self.evaluate_many(np.asarray(chromosomes))

    def evaluate_many(self, genomes: Any) -> np.ndarray:
        """Objectives of a genome list or a chromosome matrix.

        One call of the batch evaluator when the problem has one and the
        genomes stack; otherwise genome by genome, matrix rows un-stacked
        back to genomes first (composite stacking).  An empty input
        scores to an empty vector.
        """
        batch = self.batch_evaluator()
        if batch is not None:
            matrix = self.stack_genomes(genomes)
            if matrix is not None:
                return np.asarray(batch(matrix), dtype=float)
        if isinstance(genomes, np.ndarray):
            genomes = [self.unstack_row(row) for row in genomes]
        return np.array([self.evaluate(g) for g in genomes], dtype=float)

    def objective_vector(self, genome: Any) -> tuple[float, ...]:
        """Multi-objective vector when the objective supports it.

        Mirrors :meth:`evaluate`: under the default makespan objective an
        encoding's ``fast_makespan`` is authoritative (encodings whose
        "makespan" is a derived criterion -- fuzzy agreement, expected
        makespan over scenarios -- score through it, and the decoded
        crisp/mean schedule would disagree), so reports stay consistent
        with what the GA optimised.
        """
        vec = getattr(self.objective, "vector", None)
        if vec is None:
            fast = getattr(self.encoding, "fast_makespan", None)
            if fast is not None and isinstance(self.objective, Makespan):
                return (float(fast(genome)),)
            schedule = self.encoding.decode(genome)
            return (float(self.objective(schedule, self.encoding.instance)),)
        schedule = self.encoding.decode(genome)
        return vec(schedule, self.encoding.instance)

    def objective_vectors(self, genomes: list[Any]) -> np.ndarray:
        """Multi-objective matrix ``(len(genomes), n_criteria)``.

        One vectorised call when the encoding has a ``batch_completion``
        decoder and the objective's criteria all reduce from completion
        matrices (``batch_vector`` for weighted combinations, the plain
        batch form as a single column otherwise); falls back to per-genome
        :meth:`objective_vector` decoding.  Both paths are bit-identical.
        """
        genomes = list(genomes)
        if not genomes:
            # criteria count without a genome to decode: an explicit
            # ``n_criteria``, the parts of a WeightedCombination, or 1
            # (scalar objective / unknown width)
            width = getattr(self.objective, "n_criteria", None)
            if width is None:
                parts = getattr(self.objective, "parts", None)
                width = len(parts) if parts else 1
            return np.zeros((0, int(width)))
        if self.eval_cost == 0.0:
            completion_fn = getattr(self.encoding, "batch_completion", None)
            vec_batch = getattr(self.objective, "batch_vector", None)
            if vec_batch is None \
                    and getattr(self.objective, "vector", None) is None:
                # genuinely single-criterion: its batch form is one column.
                # Multi-criteria objectives without a batch_vector fall back
                # to per-genome decoding so column counts always match.
                single = batch_objective(self.objective)
                if single is not None:
                    vec_batch = (lambda completion, instance:
                                 single(completion, instance)[:, None])
            supported = getattr(self.objective, "supports_batch", True)
            if completion_fn is not None and vec_batch is not None and supported:
                matrix = self.stack_genomes(genomes)
                if matrix is not None:
                    completion = completion_fn(matrix)
                    return np.asarray(vec_batch(completion,
                                                self.encoding.instance),
                                      dtype=float)
        return np.array([self.objective_vector(g) for g in genomes],
                        dtype=float)


def _burn_cpu(seconds: float) -> None:
    """Spend ~``seconds`` of CPU time (deterministic busy arithmetic)."""
    import time
    end = time.perf_counter() + seconds
    x = 1.0001
    while time.perf_counter() < end:
        x = x * 1.0000001 % 10.0
