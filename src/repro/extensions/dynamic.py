"""Dynamic shop scheduling: predictive-reactive rescheduling (Tang [9]).

Section II of the survey lists the "dynamic environment" as a modern
integrated factor, citing Tang et al. [9]'s "predictive reactive approach"
for dynamic flexible flow shops.  The predictive-reactive loop is:

1. build a *predictive* schedule for the known jobs with a GA,
2. execute until an event fires (job arrival, machine breakdown),
3. freeze everything already started, then *reactively* re-optimise the
   remaining work with the GA, seeded with the old plan,
4. repeat until the event stream is exhausted.

Both promises of step 3 are honoured literally: jobs already started on
machine 0 at the event time keep their positions as a fixed prefix of
every candidate permutation (:class:`_SuffixEncoding` re-sequences only
the unstarted suffix), and each reactive solve is *warm-started* from the
incumbent population -- every previous candidate plan is projected onto
the surviving jobs (arrivals appended) and re-evaluated, so the GA
resumes from the knowledge it already paid for instead of restarting
cold.  The suffix encoding is an ordinary permutation encoding with a
``batch_makespan`` twin, so re-solves ride the vectorised flow-shop
kernel (and the array substrate) unchanged.

The implementation is shop-agnostic at the event level but ships a
concrete flow shop rescheduler used by the examples, the CLI ``dynamic``
scenario and the E25 conformance experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.ga import GAConfig, SimpleGA
from ..core.individual import Individual
from ..core.population import Population
from ..core.termination import MaxGenerations
from ..encodings.base import GenomeKind, Problem
from ..scheduling.flowshop import (flowshop_makespan,
                                   flowshop_makespan_population,
                                   flowshop_schedule)
from ..scheduling.instance import FlowShopInstance

__all__ = ["Event", "JobArrival", "MachineBreakdown", "EventStream",
           "PredictiveReactiveScheduler", "ReschedulePoint",
           "demo_event_stream"]


@dataclass(frozen=True)
class Event:
    """Base event: something happens at ``time``."""

    time: float


@dataclass(frozen=True)
class JobArrival(Event):
    """A new job arrives: one row of processing times."""

    processing: tuple[float, ...] = ()


@dataclass(frozen=True)
class MachineBreakdown(Event):
    """Machine ``machine`` is down for ``duration`` time units."""

    machine: int = 0
    duration: float = 0.0


class EventStream:
    """Time-ordered event list."""

    def __init__(self, events: Sequence[Event]):
        self.events = sorted(events, key=lambda e: e.time)

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


@dataclass
class ReschedulePoint:
    """Record of one reactive re-optimisation.

    ``jobs_remaining`` counts every job of the post-event instance (the
    historical meaning); ``frozen`` of them were already started and kept
    their positions, so ``jobs_remaining - frozen`` were re-sequenced.
    """

    time: float
    trigger: Event
    jobs_remaining: int
    predicted_makespan: float
    frozen: int = 0


class _SuffixEncoding:
    """Permutation encoding over the unstarted suffix of a dynamic plan.

    A genome permutes only the ``remaining`` (unfrozen) jobs; evaluation
    always prepends the frozen prefix, so in-process work keeps its
    committed order while the GA re-sequences everything else.  With an
    empty prefix this is exactly the standard flow-shop permutation
    encoding.  ``batch_makespan`` rides the vectorised population kernel.
    """

    kind = GenomeKind.PERMUTATION

    def __init__(self, instance: FlowShopInstance, prefix: np.ndarray):
        self.instance = instance
        self.prefix = np.asarray(prefix, dtype=np.int64)
        mask = np.ones(instance.n_jobs, dtype=bool)
        mask[self.prefix] = False
        self.remaining = np.flatnonzero(mask).astype(np.int64)

    def random_genome(self, rng: np.random.Generator) -> np.ndarray:
        return rng.permutation(len(self.remaining)).astype(np.int64)

    def full_permutation(self, genome: np.ndarray) -> np.ndarray:
        suffix = self.remaining[np.asarray(genome, dtype=np.int64)]
        return np.concatenate([self.prefix, suffix])

    def full_permutations(self, matrix: np.ndarray) -> np.ndarray:
        mat = np.asarray(matrix, dtype=np.int64)
        prefix = np.tile(self.prefix, (mat.shape[0], 1))
        return np.concatenate([prefix, self.remaining[mat]], axis=1)

    def project(self, full_perm: np.ndarray) -> np.ndarray:
        """Suffix genome whose job order follows ``full_perm``.

        The warm-start projection: remaining jobs keep their relative
        order from the old plan; jobs the old plan never saw (arrivals)
        are appended in id order.
        """
        position = {int(job): i for i, job in enumerate(self.remaining)}
        order = [position[int(j)] for j in full_perm if int(j) in position]
        seen = set(order)
        order.extend(i for i in range(len(self.remaining)) if i not in seen)
        return np.asarray(order, dtype=np.int64)

    def decode(self, genome: np.ndarray):
        return flowshop_schedule(self.instance, self.full_permutation(genome))

    def fast_makespan(self, genome: np.ndarray) -> float:
        return flowshop_makespan(self.instance, self.full_permutation(genome))

    def batch_makespan(self, matrix: np.ndarray) -> np.ndarray:
        mat = np.asarray(matrix, dtype=np.int64)
        if mat.ndim != 2:
            raise ValueError("chromosome matrix must be 2-D")
        if mat.shape[0] == 0:
            return np.zeros(0)
        return flowshop_makespan_population(self.instance,
                                            self.full_permutations(mat))


class PredictiveReactiveScheduler:
    """Predictive-reactive GA loop for a dynamic flow shop.

    Jobs not yet *started on machine 0* at an event time are re-sequenced;
    jobs already in process keep their positions (a frozen prefix of every
    candidate permutation).  Breakdowns push the release of the affected,
    still-unstarted jobs past the repair; arrivals extend the job set.
    Each reactive solve is warm-started from the incumbent population
    unless ``warm_start=False`` (the cold-restart baseline).

    Parameters
    ----------
    initial:
        flow shop instance of the initially known jobs.
    config / generations / seed:
        GA settings reused at every (re)scheduling point.
    warm_start:
        seed each re-solve with the projected incumbent population
        (default) instead of a fresh random one.
    """

    def __init__(self, initial: FlowShopInstance,
                 config: GAConfig | None = None, generations: int = 30,
                 seed: int | None = None, warm_start: bool = True):
        self.instance = initial
        self.config = config or GAConfig(population_size=30)
        self.generations = generations
        self.seed = seed if seed is not None else 0
        self.warm_start = warm_start
        self.reschedules: list[ReschedulePoint] = []
        self._round = 0
        self._incumbent: list[np.ndarray] = []
        # event-driven session state: the instance as mutated by the
        # events handled so far (``self.instance`` stays the initial one),
        # the current committed plan, and its predicted makespan
        self.current_instance = initial
        self._sequence: np.ndarray | None = None
        self._cmax = float("nan")
        self._clock = float("-inf")

    @staticmethod
    def _repair(encoding: _SuffixEncoding, genome: np.ndarray,
                max_passes: int = 3) -> np.ndarray:
        """Best-improvement insertion repair of a projected plan.

        The projection keeps the old relative order but knows nothing
        about the event that invalidated it (an arrival lands at the
        tail, a breakdown reshuffles release dates), so one or two
        passes of full insertion descent -- every (remove, reinsert)
        variant evaluated in a single ``batch_makespan`` kernel call --
        turn it into a genuinely strong warm seed at negligible cost.
        """
        best = np.asarray(genome, dtype=np.int64)
        n = len(best)
        if n < 3:
            return best
        best_val = float(encoding.batch_makespan(best[None, :])[0])
        for _ in range(max_passes):
            variants = []
            for i in range(n):
                rest = np.delete(best, i)
                for j in range(n):
                    if j == i:
                        continue
                    variants.append(np.insert(rest, j, best[i]))
            values = encoding.batch_makespan(np.stack(variants))
            k = int(np.argmin(values))
            if values[k] >= best_val:
                break
            best, best_val = variants[k], float(values[k])
        return best

    def _seed_population(self, ga: SimpleGA,
                         encoding: _SuffixEncoding) -> None:
        """Install the projected incumbent as the GA's initial population.

        The incumbent best is projected and *repaired* (insertion
        descent) first; the remaining projections are deduplicated --
        a converged population is mostly copies -- and the freed slots
        filled with random immigrants, so the warm seed keeps the
        knowledge paid for so far without collapsing diversity.
        """
        size = ga.config.population_size
        genomes: list[np.ndarray] = []
        seen: set[bytes] = set()
        for rank, perm in enumerate(self._incumbent):
            if len(genomes) == size:
                break
            genome = encoding.project(perm)
            if rank == 0:
                genome = self._repair(encoding, genome)
            key = genome.tobytes()
            if key not in seen:
                seen.add(key)
                genomes.append(genome)
        while len(genomes) < size:
            genomes.append(encoding.random_genome(ga.rng))
        if ga.substrate == "array":
            matrix = np.stack(genomes)
            ga.adopt_arrays(matrix, ga._evaluate_matrix(matrix))
        else:
            pop = Population([Individual(g) for g in genomes])
            ga._evaluate(pop.members)
            ga.population = pop

    def _optimise(self, instance: FlowShopInstance,
                  prefix: np.ndarray) -> tuple[np.ndarray, float]:
        encoding = _SuffixEncoding(instance, prefix)
        seed = self.seed + self._round
        self._round += 1
        if len(encoding.remaining) <= 1:
            # nothing left to permute: the plan is fully determined
            sequence = encoding.full_permutation(
                np.arange(len(encoding.remaining), dtype=np.int64))
            self._incumbent = [sequence]
            return sequence, flowshop_makespan(instance, sequence)
        ga = SimpleGA(Problem(encoding), self.config,
                      MaxGenerations(self.generations), seed=seed)
        if self.warm_start and self._incumbent:
            self._seed_population(ga, encoding)
        result = ga.run()
        # best first: the next warm seed repairs and ranks from it
        self._incumbent = [
            encoding.full_permutation(np.asarray(result.best.genome))]
        self._incumbent.extend(
            encoding.full_permutation(np.asarray(ind.genome))
            for ind in result.population.members)
        return (encoding.full_permutation(np.asarray(result.best.genome)),
                result.best_objective)

    @staticmethod
    def _frozen_prefix(instance: FlowShopInstance, sequence: np.ndarray,
                       time: float) -> np.ndarray:
        """Jobs of ``sequence`` already started on machine 0 before ``time``.

        Machine-0 starts are non-decreasing along the sequence, so the
        started jobs form a prefix: the scan stops at the first job whose
        start reaches ``time``.
        """
        seq = np.asarray(sequence, dtype=np.int64)
        ready = 0.0
        count = 0
        for job in seq:
            start = max(ready, float(instance.release[job]))
            if start >= time:
                break
            ready = start + float(instance.processing[job, 0])
            count += 1
        return seq[:count]

    @property
    def sequence(self) -> np.ndarray | None:
        """The committed plan, or ``None`` before :meth:`start`."""
        return self._sequence

    @property
    def predicted_makespan(self) -> float:
        """Predicted makespan of the committed plan (NaN before start)."""
        return self._cmax

    def start(self) -> tuple[np.ndarray, float]:
        """Build the initial predictive schedule; idempotent.

        Step 1 of the predictive-reactive loop as a standalone call, so
        event-driven callers (the service's session endpoint) can obtain
        the baseline plan before any event exists.  Returns the committed
        (sequence, predicted makespan).
        """
        if self._sequence is None:
            self._sequence, self._cmax = self._optimise(
                self.current_instance, np.empty(0, dtype=np.int64))
        return self._sequence, self._cmax

    def handle_event(self, event: Event) -> ReschedulePoint:
        """React to one event: freeze started work, re-optimise the rest.

        The event-driven core of steps 2-3: callers push events as they
        happen (a service session POSTs them one at a time) and receive
        the incremental re-solve result.  Events must arrive in
        non-decreasing time order -- the frozen prefix of an earlier
        event cannot be reconstructed once a later one was committed.
        """
        if event.time < self._clock:
            raise ValueError(
                f"event at t={event.time:g} arrived after an event at "
                f"t={self._clock:g} was already handled; events must be "
                f"pushed in non-decreasing time order")
        self.start()
        self._clock = event.time
        frozen = self._frozen_prefix(self.current_instance, self._sequence,
                                     event.time)
        self.current_instance = self._apply_event(self.current_instance,
                                                  event, frozen)
        self._sequence, self._cmax = self._optimise(self.current_instance,
                                                    frozen)
        point = ReschedulePoint(
            time=event.time, trigger=event,
            jobs_remaining=self.current_instance.n_jobs,
            predicted_makespan=self._cmax,
            frozen=len(frozen))
        self.reschedules.append(point)
        return point

    def run(self, events: EventStream) -> tuple[np.ndarray, float]:
        """Process the event stream; returns (final sequence, makespan).

        The returned makespan is for the *final* instance state (all
        arrived jobs, all breakdown delays folded into release times) --
        the quantity Tang et al. [9] report as the realised schedule
        quality.  Equivalent to :meth:`start` followed by
        :meth:`handle_event` per event (the batch replay of a session).
        """
        self.start()
        for event in events:
            self.handle_event(event)
        self.final_sequence = self._sequence
        self.realised_makespan = self._cmax
        return self._sequence, self._cmax

    def _apply_event(self, instance: FlowShopInstance, event: Event,
                     frozen: np.ndarray) -> FlowShopInstance:
        if isinstance(event, JobArrival):
            if len(event.processing) != instance.n_machines:
                raise ValueError("arriving job needs one time per machine")
            processing = np.vstack([instance.processing,
                                    np.asarray(event.processing, dtype=float)])
            release = np.concatenate([instance.release, [event.time]])
            due = np.concatenate([instance.due, [np.inf]])
            weights = np.concatenate([instance.weights, [1.0]])
            return FlowShopInstance(name=instance.name + "+job",
                                    processing=processing, release=release,
                                    due=due, weights=weights)
        if isinstance(event, MachineBreakdown):
            # the repair delays every *affected* job's pass through the
            # broken machine; conservatively, push their release past the
            # repair (on a single-route shop they cannot finish earlier).
            # Jobs with zero processing on that machine never touch it,
            # and already-started (frozen) jobs keep their committed
            # schedule -- neither is bumped.
            affected = instance.processing[:, event.machine] > 0
            affected[np.asarray(frozen, dtype=np.int64)] = False
            release = np.where(
                affected,
                np.maximum(instance.release, event.time + event.duration),
                instance.release)
            return FlowShopInstance(name=instance.name + "+brk",
                                    processing=instance.processing.copy(),
                                    release=release, due=instance.due.copy(),
                                    weights=instance.weights.copy())
        raise TypeError(f"unknown event type {type(event).__name__}")


def demo_event_stream(instance: FlowShopInstance, n_events: int = 3,
                      seed: int = 0) -> EventStream:
    """Deterministic mixed event stream for a flow shop instance.

    Alternates job arrivals (processing rows drawn from the instance's
    own duration range via the Taillard stream, so scenarios are
    reproducible) with machine breakdowns.  Events are spread across the
    machine-0 busy span -- every job *starts* within the serial time of
    the first machine, so later events would find nothing left to
    re-sequence.  Used by the CLI ``dynamic`` scenario, the E25
    experiment and the tests.
    """
    from ..instances.taillard_lcg import TaillardLCG
    gen = TaillardLCG(seed + 1)
    lo = float(instance.processing.min())
    hi = float(instance.processing.max())
    horizon = float(instance.processing[:, 0].sum())
    events: list[Event] = []
    for i in range(n_events):
        time = horizon * (i + 1) / (n_events + 1)
        if i % 2 == 0:
            row = tuple(lo + (hi - lo) * gen.next_float()
                        for _ in range(instance.n_machines))
            events.append(JobArrival(time=time, processing=row))
        else:
            machine = int(gen.next_float() * instance.n_machines) \
                % instance.n_machines
            duration = 0.25 * horizon * (0.5 + gen.next_float())
            events.append(MachineBreakdown(time=time, machine=machine,
                                           duration=duration))
    return EventStream(events)
