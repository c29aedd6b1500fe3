"""Two-part genomes for flexible shops.

Belkadi et al. [37]: "genome constituted one assignment chromosome and a
sequencing chromosome".  The composite genome is a tuple; part 0 assigns
operations to machines, part 1 orders them.  Composite operators in
:mod:`repro.operators.crossover` recombine the parts independently, which
is how [36][37] describe their assignment vs. sequencing operators.
"""

from __future__ import annotations

import numpy as np

from ..scheduling.batch import (batch_completion_fjsp,
                                batch_completion_hybrid_flowshop)
from ..scheduling.flexible import (LotStreamingPlan, decode_fjsp,
                                   decode_hybrid_flowshop,
                                   decode_lot_streaming, fjsp_random_genome)
from ..scheduling.instance import (FlexibleFlowShopInstance,
                                   FlexibleJobShopInstance)
from ..scheduling.schedule import Schedule
from .base import GenomeKind

__all__ = ["FlexibleJobShopEncoding", "HybridFlowShopEncoding",
           "LotStreamingEncoding"]


class FlexibleJobShopEncoding:
    """(assignment indices, operation sequence) for the FJSP [36]."""

    kind = GenomeKind.COMPOSITE
    part_kinds = ("assignment", "repetition")

    def __init__(self, instance: FlexibleJobShopInstance):
        self.instance = instance

    @property
    def part_spans(self) -> tuple[int, ...]:
        """Column widths of the parts in a stacked chromosome row."""
        n_ops = self.instance.total_operations
        return (n_ops, n_ops)

    def random_genome(self, rng: np.random.Generator
                      ) -> tuple[np.ndarray, np.ndarray]:
        return fjsp_random_genome(self.instance, rng)

    def decode(self, genome: tuple[np.ndarray, np.ndarray]) -> Schedule:
        assignment, sequence = genome
        return decode_fjsp(self.instance, assignment, sequence)

    def fast_makespan(self, genome: tuple[np.ndarray, np.ndarray]) -> float:
        return self.decode(genome).makespan

    # -- batch path: two-part genomes flatten to one chromosome row ---------
    def stack_genomes(self, genomes) -> np.ndarray | None:
        """Stack (assignment, sequence) tuples into a (pop, 2*n_ops) matrix.

        The two int parts concatenate into one row so the composite genome
        rides the same matrix transport as flat chromosomes (executors ship
        one compact ndarray; workers split it back).  Returns ``None`` for
        anything that is not a well-formed FJSP genome list.
        """
        n_ops = self.instance.total_operations
        if isinstance(genomes, np.ndarray):
            return genomes if (genomes.ndim == 2
                               and genomes.shape[1] == 2 * n_ops) else None
        genomes = list(genomes)
        if not genomes:
            return None
        rows = []
        for g in genomes:
            if not (isinstance(g, tuple) and len(g) == 2):
                return None
            assignment, sequence = g
            if not (isinstance(assignment, np.ndarray)
                    and isinstance(sequence, np.ndarray)
                    and assignment.shape == (n_ops,)
                    and sequence.shape == (n_ops,)):
                return None
            rows.append(np.concatenate([assignment, sequence]))
        return np.stack(rows).astype(np.int64, copy=False)

    def unstack_row(self, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split one stacked row back into (assignment, sequence)."""
        n_ops = self.instance.total_operations
        row = np.asarray(row, dtype=np.int64)
        return row[:n_ops], row[n_ops:]

    def batch_completion(self, chromosomes: np.ndarray) -> np.ndarray:
        matrix = np.asarray(chromosomes, dtype=np.int64)
        if matrix.ndim == 1:
            matrix = matrix[None, :]
        n_ops = self.instance.total_operations
        return batch_completion_fjsp(self.instance, matrix[:, :n_ops],
                                     matrix[:, n_ops:])

    def assignment_domain_sizes(self) -> np.ndarray:
        """Eligible-machine count per flattened operation (for mutation)."""
        sizes = []
        for j in range(self.instance.n_jobs):
            for s in range(self.instance.stages_of(j)):
                sizes.append(len(self.instance.eligible_machines(j, s)))
        return np.asarray(sizes, dtype=np.int64)


class HybridFlowShopEncoding:
    """(assignment matrix, job permutation) for hybrid flow shops [37].

    ``use_assignment=False`` degrades to a pure permutation genome decoded
    with earliest-finish machine selection, the common simplification; the
    assignment part is kept as a zero placeholder so the genome shape (and
    the stacked-matrix layout) is mode-independent, but it is declared
    ``"frozen"`` so composite variation operators never touch it.
    """

    kind = GenomeKind.COMPOSITE

    def __init__(self, instance: FlexibleFlowShopInstance,
                 use_assignment: bool = True):
        self.instance = instance
        self.use_assignment = use_assignment
        self.part_kinds = (("assignment", "permutation") if use_assignment
                           else ("frozen", "permutation"))

    @property
    def part_spans(self) -> tuple[int, ...]:
        """Column widths of the parts in a stacked chromosome row."""
        n = self.instance.n_jobs
        return (n * self.instance.n_stages, n)

    def random_genome(self, rng: np.random.Generator
                      ) -> tuple[np.ndarray, np.ndarray]:
        perm = rng.permutation(self.instance.n_jobs).astype(np.int64)
        if self.use_assignment:
            assign = np.stack([
                rng.integers(0, k, size=self.instance.n_jobs)
                for k in self.instance.machines_per_stage
            ], axis=1)  # (n_jobs, n_stages)
        else:
            assign = np.zeros((self.instance.n_jobs, self.instance.n_stages),
                              dtype=np.int64)
        return assign, perm

    def decode(self, genome: tuple[np.ndarray, np.ndarray]) -> Schedule:
        assign, perm = genome
        return decode_hybrid_flowshop(
            self.instance, perm, assign if self.use_assignment else None)

    def fast_makespan(self, genome: tuple[np.ndarray, np.ndarray]) -> float:
        return self.decode(genome).makespan

    # -- batch path: (assignment, permutation) flattens to one row ----------
    def stack_genomes(self, genomes) -> np.ndarray | None:
        """Stack genome tuples into a (pop, n_jobs * (n_stages + 1)) matrix.

        The assignment matrix ravels row-major (job-major) ahead of the
        permutation, mirroring :class:`FlexibleJobShopEncoding`.  Returns
        ``None`` for anything that is not a well-formed HFS genome list.
        """
        n, n_stages = self.instance.n_jobs, self.instance.n_stages
        width = n * n_stages + n
        if isinstance(genomes, np.ndarray):
            return genomes if (genomes.ndim == 2
                               and genomes.shape[1] == width) else None
        genomes = list(genomes)
        if not genomes:
            return None
        rows = []
        for g in genomes:
            if not (isinstance(g, tuple) and len(g) == 2):
                return None
            assign, perm = g
            if not (isinstance(assign, np.ndarray)
                    and isinstance(perm, np.ndarray)
                    and assign.shape == (n, n_stages)
                    and perm.shape == (n,)):
                return None
            rows.append(np.concatenate([assign.ravel(), perm]))
        return np.stack(rows).astype(np.int64, copy=False)

    def unstack_row(self, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split one stacked row back into (assignment, permutation)."""
        n, n_stages = self.instance.n_jobs, self.instance.n_stages
        row = np.asarray(row, dtype=np.int64)
        return row[:n * n_stages].reshape(n, n_stages), row[n * n_stages:]

    def batch_completion(self, chromosomes: np.ndarray) -> np.ndarray:
        matrix = np.asarray(chromosomes, dtype=np.int64)
        if matrix.ndim == 1:
            matrix = matrix[None, :]
        n, n_stages = self.instance.n_jobs, self.instance.n_stages
        perms = matrix[:, n * n_stages:]
        assigns = None
        if self.use_assignment:
            assigns = matrix[:, :n * n_stages].reshape(-1, n, n_stages)
        return batch_completion_hybrid_flowshop(self.instance, perms,
                                                assigns)

    def assignment_domain_sizes(self) -> np.ndarray:
        """Stage machine-count per assignment gene (for mutation).

        The assignment part ravels job-major, so gene ``i`` belongs to
        stage ``i % n_stages`` -- exactly the modulo
        :class:`~repro.operators.mutation.AssignmentMutation` applies.
        """
        return np.asarray(self.instance.machines_per_stage, dtype=np.int64)


class LotStreamingEncoding:
    """(sublot-size keys, job permutation) for HFS with lot streaming [35].

    Part 0 is a positive real vector of length ``n_jobs * sublots`` giving
    (unnormalised) consistent sublot sizes; part 1 the job permutation.
    """

    kind = GenomeKind.COMPOSITE
    part_kinds = ("real", "permutation")

    def __init__(self, instance: FlexibleFlowShopInstance, sublots: int = 2):
        if sublots < 1:
            raise ValueError("need at least one sublot")
        self.instance = instance
        self.sublots = sublots

    def random_genome(self, rng: np.random.Generator
                      ) -> tuple[np.ndarray, np.ndarray]:
        keys = rng.random(self.instance.n_jobs * self.sublots) + 0.05
        perm = rng.permutation(self.instance.n_jobs).astype(np.int64)
        return keys, perm

    def plan(self, genome: tuple[np.ndarray, np.ndarray]) -> LotStreamingPlan:
        keys, _ = genome
        return LotStreamingPlan.from_genome(keys, self.instance.n_jobs,
                                            self.sublots)

    def decode(self, genome: tuple[np.ndarray, np.ndarray]) -> Schedule:
        keys, perm = genome
        return decode_lot_streaming(self.instance, perm, self.plan(genome))

    def fast_makespan(self, genome: tuple[np.ndarray, np.ndarray]) -> float:
        return self.decode(genome).makespan
