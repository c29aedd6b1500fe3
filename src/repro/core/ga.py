"""The simple (serial) genetic algorithm -- Table II of the survey.

::

    1: initialize();
    2: while (termination criteria are not satisfied) do
    3:   Generation++
    4:   Selection();
    5:   Crossover();
    6:   Mutation();
    7:   FitnessValueEvaluation();
    8: end while

:class:`SimpleGA` implements exactly that loop over a
:class:`~repro.encodings.base.Problem`.  The evaluation step is pluggable
(an ``evaluator`` callable mapping a chromosome matrix or a genome list
to objective values),
which is the single seam the master-slave model replaces with a parallel
pool (Table III) while everything else stays identical -- the survey's
observation that master-slave parallelism "does not affect the behavior of
the algorithm".

The engine exposes both ``run()`` (full loop) and ``step()`` (one
generation), the latter reused verbatim by the island model where every
island is a SimpleGA.  Only ``run()`` notifies the observers, so an
island stepped by another engine records no history of its own.  On the
array substrate a generation also comes in two halves,
:meth:`SimpleGA.breed` (the draws) and :meth:`SimpleGA.adopt_arrays`
(the merged result), which :func:`lockstep` uses to run the generation
of many islands as one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np

from ..encodings.base import Problem
from ..operators.crossover import Crossover, default_crossover_for
from ..operators.mutation import Mutation, default_mutation_for
from ..operators.selection import Selection, RouletteWheelSelection
from .backend import active_namespace as _xp
from .fitness import FitnessTransform, HeuristicOffsetFitness, apply_fitness
from .individual import Individual, copy_genome
from .observers import HistoryRecorder, Observer
from .population import Population
from .rng import make_rng
from .substrate import (SUBSTRATES, ArrayPopulationView, ArrayState, Brood,
                        check_array_support, check_assignment_crossover,
                        elitist_merge_arrays, elitist_merge_rows,
                        make_offspring_matrix, random_matrix, takes_arrays,
                        vary_broods)
from .termination import MaxGenerations, Termination, TerminationState
from .workspace import scratch

__all__ = ["GAConfig", "GAResult", "SimpleGA", "Evaluator", "lockstep"]

Evaluator = Callable[[Sequence[Any]], np.ndarray]


@dataclass
class GAConfig:
    """Hyper-parameters of the simple GA (and of each island/cell engine).

    Attributes
    ----------
    population_size:
        number of individuals.
    crossover_rate:
        probability a selected pair undergoes crossover (else cloned).
    mutation_rate:
        probability each offspring undergoes mutation.
    n_elites:
        individuals copied unchanged into the next generation ("an elitist
        strategy is hired afterwards to keep limited number of individuals
        with the best fitness values", Section III.A).
    immigration_rate:
        fraction of each new generation replaced by fresh random
        individuals -- the ``c%`` immigration of Huang et al. [24].
    generation_gap:
        fraction of the population bred each generation; 1.0 is the full
        generational model of Table II, smaller values give the *partial
        replacement* of Akhshabi et al. [18] (only the bred fraction can
        displace parents, the rest survive unchanged).
    substrate:
        the engines choose their path from the input: a population whose
        genomes stack into a ``(pop, n_genes)`` chromosome matrix, with a
        batch twin for every operator, runs every stage as a matrix
        kernel (see :mod:`repro.core.substrate`); any other input breeds
        ``Individual`` objects pair by pair.  ``"object"`` (default)
        accepts both paths; ``"array"`` refuses, up front, an input that
        does not stack.  Both values give bit-identical runs on an input
        that stacks.
    seeding:
        name of a constructive heuristic (``"neh"``, ``"johnson"``,
        ``"spt"``, ``"edd"``; see :mod:`repro.heuristics`) whose solution
        replaces one member of the random initial population -- the
        heuristic-seeded initialisation used by the load-balancing
        flow-shop GAs.  ``None`` (default) keeps the fully random init.
    selection / crossover / mutation:
        operator instances; ``None`` picks a default for the problem's
        genome kind.
    fitness_transform:
        maps minimised objectives to maximised fitness (Eq. (1)/(2)).
    """

    population_size: int = 60
    crossover_rate: float = 0.9
    mutation_rate: float = 0.25
    n_elites: int = 2
    immigration_rate: float = 0.0
    generation_gap: float = 1.0
    substrate: str = "object"
    seeding: str | None = None
    selection: Selection | None = None
    crossover: Crossover | None = None
    mutation: Mutation | None = None
    fitness_transform: FitnessTransform | None = None

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        for nm in ("crossover_rate", "mutation_rate", "immigration_rate"):
            v = getattr(self, nm)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{nm} must be in [0, 1]")
        if not 0.0 < self.generation_gap <= 1.0:
            raise ValueError("generation_gap must be in (0, 1]")
        if self.substrate not in SUBSTRATES:
            raise ValueError(f"substrate must be one of {SUBSTRATES}, "
                             f"got {self.substrate!r}")
        if not 0 <= self.n_elites <= self.population_size:
            raise ValueError("n_elites must be in [0, population_size]")
        if self.seeding is not None:
            from ..heuristics import HEURISTIC_NAMES
            if self.seeding not in HEURISTIC_NAMES:
                raise ValueError(
                    f"seeding must be one of {list(HEURISTIC_NAMES)} or "
                    f"None, got {self.seeding!r}")

    def resolved(self, problem: Problem) -> "GAConfig":
        """Copy with operator defaults filled in for ``problem``.

        Raises ``ValueError`` for a repairing crossover on an assignment
        part (:func:`~repro.core.substrate.check_assignment_crossover`).
        """
        part_kinds = getattr(problem.encoding, "part_kinds", ())
        part_spans = getattr(problem.encoding, "part_spans", None)
        if part_spans is not None:
            part_spans = tuple(int(w) for w in part_spans)
        resolved = replace(
            self,
            selection=self.selection or RouletteWheelSelection(),
            crossover=self.crossover or default_crossover_for(
                problem.kind, part_kinds, part_spans),
            mutation=self.mutation or default_mutation_for(
                problem.kind, part_kinds, part_spans),
            fitness_transform=self.fitness_transform or HeuristicOffsetFitness(),
        )
        check_assignment_crossover(problem, resolved)
        return resolved


@dataclass
class GAResult:
    """Outcome of a GA run."""

    best: Individual
    population: Population
    history: HistoryRecorder
    generations: int
    evaluations: int
    elapsed: float
    termination_reason: str
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def best_objective(self) -> float:
        return float(self.best.objective)


class SimpleGA:
    """Serial GA engine over a :class:`Problem`.

    Parameters
    ----------
    problem:
        encoding + objective.
    config:
        hyper-parameters; operator defaults resolved per genome kind.
    termination:
        stop criterion (default: 100 generations).
    seed:
        root seed (int) or an existing Generator.
    evaluator:
        optional replacement for the evaluation step; receives the
        genomes to score -- one chromosome matrix whenever they stack
        (rows of composite genomes split with ``problem.unstack_row``),
        else the genome list -- and returns their objectives in order.
        This is the master-slave seam -- see
        :mod:`repro.parallel.master_slave`.
    observers:
        extra observers beyond the built-in history recorder; :meth:`run`
        notifies them.
    """

    #: whether a generation calls ``config.selection``, so that the array
    #: path needs its batch twin
    uses_selection = True

    def __init__(self, problem: Problem, config: GAConfig | None = None,
                 termination: Termination | None = None,
                 seed: int | np.random.Generator | None = None,
                 evaluator: Evaluator | None = None,
                 observers: Sequence[Observer] = ()):  # noqa: D401
        self.problem = problem
        self.config = (config or GAConfig()).resolved(problem)
        self.termination = termination or MaxGenerations(100)
        self.rng = make_rng(seed)
        self.evaluator = evaluator or problem.evaluate_many
        self.history = HistoryRecorder()
        self.observers: list[Observer] = [self.history, *observers]
        self.state = TerminationState()
        self.population: Population | None = None
        self.arrays: ArrayState | None = None
        if self.config.substrate == "array":
            check_array_support(problem, self.config, self.uses_selection)
        #: the path that runs: ``"array"`` whenever the input stacks
        self.substrate = ("array" if takes_arrays(
            problem, self.config, self.uses_selection) else "object")

    # -- building blocks ---------------------------------------------------------
    def _seed_genomes(self) -> list:
        """Constructive-heuristic genomes for ``config.seeding`` (or [])."""
        if not self.config.seeding:
            return []
        from ..heuristics import heuristic_genome
        return [heuristic_genome(self.config.seeding, self.problem)]

    def initialize(self) -> Population:
        """Line 1 of Table II: random initial population, evaluated.

        With ``config.seeding`` set, member 0 of the random draw is
        replaced by the named constructive heuristic's solution (on both
        substrates) before evaluation.
        """
        seeds = self._seed_genomes()
        if self.substrate == "array":
            matrix = random_matrix(self.problem,
                                   self.config.population_size, self.rng)
            for i, genome in enumerate(seeds):
                row = self.problem.stack_genomes([genome])
                if row is None:
                    raise ValueError(
                        "seeding produced a genome that does not stack "
                        "into the chromosome matrix")
                matrix[i] = row[0].astype(matrix.dtype, copy=False)
            self.adopt_arrays(matrix, self._evaluate_matrix(matrix))
            return self.population
        members = [Individual(self.problem.random_genome(self.rng))
                   for _ in range(self.config.population_size)]
        for i, genome in enumerate(seeds):
            members[i] = Individual(genome)
        pop = Population(members)
        self._evaluate(pop.members)
        self.population = pop
        return pop

    def adopt_arrays(self, matrix: np.ndarray,
                     objectives: np.ndarray) -> None:
        """Install an evaluated chromosome matrix as the current population.

        The array-substrate counterpart of assigning ``self.population``;
        reuses the existing matrix buffer when shapes match, so island
        tensor slices stay bound across generations.
        """
        if self.arrays is None:
            self.arrays = ArrayState(matrix, objectives)
        else:
            self.arrays.update(matrix, objectives)
        self.population = ArrayPopulationView(self.problem, self.arrays)

    @property
    def uses_batch_path(self) -> bool:
        """Whether the problem decodes a chromosome matrix in one call.

        The evaluator receives a matrix whenever the genomes stack; this
        reports whether the problem's decode of it is vectorised.
        """
        return self.problem.batch_evaluator() is not None

    def _evaluate(self, individuals: Sequence[Individual]) -> None:
        """Score unevaluated individuals (lines 7 of Tables II/III).

        The pending genomes go to the evaluator as one ``(pop, n_genes)``
        matrix when they stack (via the problem's stacking seam, so
        composite genomes such as the two-part FJSP chromosome flatten
        into rows too), else as the genome list.
        """
        todo = [ind for ind in individuals if not ind.evaluated]
        if not todo:
            return
        genomes = [ind.genome for ind in todo]
        matrix = self.problem.stack_genomes(genomes)
        objectives = self.evaluator(genomes if matrix is None else matrix)
        for ind, obj in zip(todo, objectives):
            ind.objective = float(obj)
        self.state.evaluations += len(todo)

    def _score_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Objectives of a chromosome matrix, not yet counted."""
        return np.asarray(self.evaluator(matrix), dtype=float)

    def _evaluate_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Objectives of a chromosome matrix (array-substrate evaluation)."""
        objectives = self._score_matrix(matrix)
        self.state.evaluations += matrix.shape[0]
        return objectives

    def _notify(self) -> None:
        self.state.record_best(self.population.best_objective())
        for obs in self.observers:
            obs.observe(self.state.generation, self.population,
                        self.state.evaluations, self.state.elapsed())

    def make_offspring(self, population: Population,
                       count: int) -> list[Individual]:
        """Selection + crossover + mutation producing ``count`` offspring.

        The per-pair generation of inputs that do not stack into a
        matrix: pair by pair, a crossover gate then the crossover; child
        by child, a mutation gate then the mutation; then the
        immigrants.  The array path
        (:class:`~repro.core.substrate.Brood`) makes the same draws stage
        by stage, so the two agree at the crossover/mutation rate
        extremes.
        """
        cfg = self.config
        rng = self.rng
        apply_fitness(population.members, cfg.fitness_transform)
        n_immigrants = int(round(cfg.immigration_rate * count))
        n_bred = count - n_immigrants
        parents = cfg.selection(population, n_bred + (n_bred % 2), rng)
        genomes: list = []
        for i in range(0, len(parents) - 1, 2):
            ga, gb = parents[i].genome, parents[i + 1].genome
            if rng.random() < cfg.crossover_rate:
                genomes.extend(cfg.crossover(ga, gb, rng))
            else:
                genomes.extend((copy_genome(ga), copy_genome(gb)))
        genomes = [cfg.mutation(g, rng) if rng.random() < cfg.mutation_rate
                   else g for g in genomes[:n_bred]]
        genomes.extend(self.problem.random_genome(rng)
                       for _ in range(n_immigrants))
        return [Individual(g) for g in genomes]

    @property
    def brood_sizes(self) -> tuple[int, int]:
        """``(n_bred, n_keep)``: offspring bred and parents kept per generation.

        With ``generation_gap < 1`` only the bred fraction of the
        population is produced and the unbred remainder survives via a
        larger elite carry-over (partial replacement, Akhshabi [18]).
        """
        cfg = self.config
        n_bred = max(2, int(round(cfg.generation_gap * cfg.population_size)))
        return n_bred, max(cfg.n_elites, cfg.population_size - n_bred)

    def breed(self) -> Brood:
        """First half of an array generation: count it and make its draws.

        The returned :class:`~repro.core.substrate.Brood` holds this
        engine's selection, gates and crossover draws; no kernel has run
        yet, so :func:`lockstep` can vary many engines' broods together.
        """
        self.state.generation += 1
        return Brood(self.arrays, self.config, self.problem, self.rng,
                     self.brood_sizes[0])

    def _merge_buffers(self, populations: int = 1) -> tuple:
        """Scratch for ``populations`` merged generations of this engine's
        shape; :meth:`adopt_arrays` copies them out before any observer
        runs."""
        xp = _xp()
        size, genes = self.config.population_size, self.arrays.matrix.shape[1]
        return (scratch("merge.rows", (populations, size, genes),
                        self.arrays.matrix.dtype),
                scratch("merge.objectives", (populations, size), xp.float64))

    def step(self) -> Population:
        """One generation (lines 3-7 of Table II)."""
        if self.population is None:
            self.initialize()
        cfg = self.config
        n_bred, n_keep = self.brood_sizes
        self.state.generation += 1
        if self.substrate == "array":
            offspring = make_offspring_matrix(self.arrays, cfg,
                                              self.problem, self.rng, n_bred)
            objectives = self._evaluate_matrix(offspring)
            rows, objs = self._merge_buffers()
            self.adopt_arrays(*elitist_merge_arrays(
                self.arrays, offspring, objectives, n_keep,
                cfg.population_size, out=(rows[0], objs[0])))
            return self.population
        offspring = self.make_offspring(self.population, n_bred)
        self._evaluate(offspring)
        self.population = self.population.elitist_merge(offspring, n_keep)
        return self.population

    # -- full loop ---------------------------------------------------------------
    def run(self) -> GAResult:
        """Run Table II until the termination criterion fires.

        The observers see the starting population and every generation
        after it; a bare :meth:`initialize` or :meth:`step` records
        nothing, so engines that drive islands keep no history per
        island.
        """
        if self.population is None:
            self.initialize()
        self._notify()
        while not self.termination.done(self.state):
            self.step()
            self._notify()
        return GAResult(
            best=self.population.best().copy(),
            population=self.population,
            history=self.history,
            generations=self.state.generation,
            evaluations=self.state.evaluations,
            elapsed=self.state.elapsed(),
            termination_reason=self.termination.reason(),
            extra={"substrate": self.substrate},
        )


def lockstep(engines: Sequence[SimpleGA],
             stacked: tuple[np.ndarray, np.ndarray] | None = None) -> None:
    """One array-substrate generation of several engines, run as one.

    Bit-identical to calling ``step()`` on each engine in turn: every
    engine makes its draws on its own RNG (:meth:`SimpleGA.breed`), one
    kernel call per distinct operator object varies all broods
    (:func:`~repro.core.substrate.vary_broods`), one decode scores every
    offspring row, and the elitist merge runs row-wise over the stacked
    populations (:func:`~repro.core.substrate.elitist_merge_rows`, once
    per distinct population and brood size).  The engines must share one
    problem and evaluator -- the islands of one island GA.  Engines must
    be initialised.  ``stacked`` is the ``(matrix, objectives)`` tensor
    pair whose slices the engines' arrays are, in order, when they are
    bound into one (the island tensor); a merge over all of them then
    reads it instead of stacking the slices again.
    """
    xp = _xp()
    broods = [ga.breed() for ga in engines]
    offspring = vary_broods(broods)
    if len(offspring) == 1:
        matrix = offspring[0]
    else:
        matrix = xp.concatenate(offspring, out=scratch(
            "lockstep.offspring",
            (sum(rows.shape[0] for rows in offspring),
             offspring[0].shape[1]),
            xp.result_type(*offspring)))
    objectives = engines[0]._score_matrix(matrix)
    groups: dict[tuple[int, int, int, int], list] = {}
    at = 0
    for ga, rows in zip(engines, offspring):
        count = rows.shape[0]
        ga.state.evaluations += count
        key = (len(ga.arrays), ga.config.population_size, count,
               ga.brood_sizes[1])
        groups.setdefault(key, []).append((ga, slice(at, at + count)))
        at += count
    for (_, size, count, n_keep), members in groups.items():
        k = len(members)
        if stacked is not None and k == len(engines):
            # every engine, in order: the tensor and the offspring matrix
            # already hold the stacks
            parents, parent_objectives = stacked
            children = xp.reshape(matrix, (k, count, -1))
            child_objectives = xp.reshape(objectives, (k, count))
        else:
            parents = xp.stack([ga.arrays.matrix for ga, _ in members])
            parent_objectives = xp.stack([ga.arrays.objectives
                                          for ga, _ in members])
            children = xp.stack([matrix[rows] for _, rows in members])
            child_objectives = xp.stack([objectives[rows]
                                         for _, rows in members])
        merged, objs = elitist_merge_rows(
            parents, parent_objectives, children, child_objectives, n_keep,
            size, out=members[0][0]._merge_buffers(k))
        for j, (ga, _) in enumerate(members):
            ga.adopt_arrays(merged[j], objs[j])
