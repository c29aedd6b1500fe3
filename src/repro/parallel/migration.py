"""Migration policies for the island GA.

Defersha & Chen [35] test three policies -- *random-replace-random*,
*best-replace-random* and *best-replace-worst* -- and find the island GA
"not much sensitive" to the choice, with best-replace-random slightly
ahead.  Belkadi et al. [37] test replacement strategies (best/random) and
likewise find them insignificant next to the migration interval.  This
module factors migration into the two independent choices:

* emigrant selection: which individuals leave (``best`` | ``random``),
* replacement: which hosts they displace (``random`` | ``worst``),

plus the migration *interval* (epoch length in generations) and *rate*
(emigrants per neighbour per epoch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.individual import Individual
from ..core.population import Population
from ..core.substrate import ArrayState, stable_topk

__all__ = ["MigrationPolicy", "select_emigrants", "integrate_immigrants",
           "replacement_targets", "select_emigrant_rows",
           "integrate_immigrant_rows"]


@dataclass(frozen=True)
class MigrationPolicy:
    """Complete migration configuration.

    Attributes
    ----------
    interval:
        migrate every ``interval`` generations ("if generation % migration
        interval == 0" in Table V).
    rate:
        emigrants sent to *each* outgoing neighbour per migration event.
    emigrant:
        ``"best"`` or ``"random"``.
    replacement:
        ``"random"`` or ``"worst"``.
    copy:
        if True emigrants are copied (the usual pollination model); if
        False they are conceptually moved -- we still copy, matching the
        dominant convention in the surveyed papers.
    """

    interval: int = 5
    rate: int = 1
    emigrant: str = "best"
    replacement: str = "worst"
    copy: bool = True

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError("interval must be >= 1")
        if self.rate < 0:
            raise ValueError("rate must be >= 0")
        if self.emigrant not in ("best", "random"):
            raise ValueError("emigrant must be 'best' or 'random'")
        if self.replacement not in ("random", "worst"):
            raise ValueError("replacement must be 'random' or 'worst'")

    @property
    def name(self) -> str:
        return f"{self.emigrant}-replace-{self.replacement}"

    def due(self, generation: int) -> bool:
        """True when a migration event falls on ``generation``."""
        return generation > 0 and generation % self.interval == 0


def select_emigrants(population: Population, policy: MigrationPolicy,
                     rng: np.random.Generator) -> list[Individual]:
    """Pick ``policy.rate`` emigrants from ``population`` (copies)."""
    k = min(policy.rate, len(population))
    if k == 0:
        return []
    if policy.emigrant == "best":
        chosen = population.top(k)
    else:
        idx = rng.choice(len(population), size=k, replace=False)
        chosen = [population[int(i)] for i in idx]
    return [ind.copy() for ind in chosen]


def replacement_targets(objectives: np.ndarray, k: int,
                        policy: MigrationPolicy,
                        rng: np.random.Generator) -> np.ndarray:
    """Positions of the ``k`` hosts that immigrants displace, in order.

    ``worst`` takes the ``k`` largest objectives, worst first; ``random``
    draws ``k`` distinct positions.  Both substrates integrate through
    this one rule, so they break ties alike.
    """
    if policy.replacement == "worst":
        return np.argsort(objectives)[::-1][:k]  # argsort: best first
    return rng.choice(len(objectives), size=k, replace=False)


def integrate_immigrants(population: Population,
                         immigrants: list[Individual],
                         policy: MigrationPolicy,
                         rng: np.random.Generator) -> None:
    """Insert ``immigrants`` into ``population`` in place.

    ``worst`` replacement displaces the current worst members (never the
    best); ``random`` displaces uniformly chosen members ("incoming
    individuals replaced the chromosomes of host subpopulation randomly",
    Kokosinski [32]).
    """
    if not immigrants:
        return
    k = min(len(immigrants), len(population))
    targets = replacement_targets(population.objectives(), k, policy, rng)
    for ind, pos in zip(immigrants, targets):
        population[int(pos)] = ind.copy() if policy.copy else ind


# -- array-substrate twins -------------------------------------------------------
#
# When islands evolve on the array substrate their populations are
# chromosome matrices (slices of one (n_islands, pop, n_genes) tensor in
# the serial engine), so migration reduces to gather/scatter row
# assignment -- no Individual boxing on the exchange path.

def select_emigrant_rows(state: ArrayState, policy: MigrationPolicy,
                         rng: np.random.Generator
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Array twin of :func:`select_emigrants`: emigrant rows + objectives.

    Rows are copied at selection time so a later replacement in the
    source island (ring exchanges are often bidirectional) cannot
    corrupt in-flight emigrants.
    """
    k = min(policy.rate, len(state))
    if k == 0:
        return (np.empty((0, state.matrix.shape[1]),
                         dtype=state.matrix.dtype), np.empty(0))
    if policy.emigrant == "best":
        idx = stable_topk(state.objectives, k)
    else:
        idx = rng.choice(len(state), size=k, replace=False)
    return state.matrix[idx].copy(), state.objectives[idx].copy()


def integrate_immigrant_rows(state: ArrayState, rows: np.ndarray,
                             objectives: np.ndarray,
                             policy: MigrationPolicy,
                             rng: np.random.Generator) -> None:
    """Array twin of :func:`integrate_immigrants`: in-place row scatter."""
    if rows.shape[0] == 0:
        return
    k = min(rows.shape[0], len(state))
    rows, objectives = rows[:k], objectives[:k]
    targets = replacement_targets(state.objectives, k, policy, rng)
    state.matrix[targets] = rows
    state.objectives[targets] = objectives
    state.touch()
