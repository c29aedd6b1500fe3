"""Disjunctive-graph machinery for job shops.

Two surveyed works evaluate chromosomes through graphs rather than direct
simulation:

* AitZai et al. [14] model the blocking job shop with an *alternative
  graph* (conjunctive + alternative arcs) and evaluate makespan as a
  longest path;
* Somani & Singh [16] add a topological-sorting kernel before fitness
  calculation: the first kernel topologically sorts the directed acyclic
  graph induced by a chromosome, the second computes the makespan with a
  longest-path sweep.

:class:`DisjunctiveGraph` implements the classic model: one node per
operation plus source/sink, conjunctive arcs along each job's routing, and
a *selection* (total order of operations per machine) turning disjunctions
into arcs.  Evaluation = longest path over the topological order, exactly
kernel 2 of [16].  Cycle detection doubles as a feasibility check on
machine selections.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .instance import JobShopInstance
from .schedule import Operation, Schedule

__all__ = ["DisjunctiveGraph", "CyclicSelectionError"]


def import_networkx():
    """The networkx module, or an ImportError naming the ``graph`` extra.

    Only the analysis exports (:meth:`DisjunctiveGraph.build`,
    ``Topology.graph``) use networkx; the solvers run without it.
    """
    try:
        import networkx
    except ImportError as exc:
        raise ImportError(
            "this graph export needs networkx: pip install "
            "'repro-pga-shop-scheduling[graph]'") from exc
    return networkx


class CyclicSelectionError(ValueError):
    """The machine selection induces a cycle (infeasible ordering)."""


class DisjunctiveGraph:
    """Disjunctive graph of a job shop instance.

    Nodes are operation ids ``op = job * n_stages + stage`` plus virtual
    ``SOURCE`` (-1) and ``SINK`` (-2).  Conjunctive arcs are fixed by the
    instance routing; machine arcs come from a *selection*.
    """

    SOURCE = -1
    SINK = -2

    def __init__(self, instance: JobShopInstance):
        self.instance = instance
        self.n = instance.n_jobs
        self.g = instance.n_stages
        self.n_ops = self.n * self.g

    # -- node helpers ----------------------------------------------------------
    def op_id(self, job: int, stage: int) -> int:
        return job * self.g + stage

    def job_stage(self, op: int) -> tuple[int, int]:
        return divmod(op, self.g)

    def duration(self, op: int) -> float:
        j, s = self.job_stage(op)
        return float(self.instance.processing[j, s])

    def machine(self, op: int) -> int:
        j, s = self.job_stage(op)
        return int(self.instance.routing[j, s])

    # -- graph construction ------------------------------------------------------
    def conjunctive_edges(self) -> list[tuple[int, int]]:
        """Fixed arcs: source -> first ops, routing chains, last ops -> sink."""
        edges = []
        for j in range(self.n):
            edges.append((self.SOURCE, self.op_id(j, 0)))
            for s in range(self.g - 1):
                edges.append((self.op_id(j, s), self.op_id(j, s + 1)))
            edges.append((self.op_id(j, self.g - 1), self.SINK))
        return edges

    def selection_from_sequence(self, sequence: np.ndarray) -> list[list[int]]:
        """Machine orders induced by a permutation-with-repetition chromosome."""
        machine_of = np.asarray(self.instance.routing).ravel().tolist()
        next_stage = [0] * self.n
        orders: list[list[int]] = [[] for _ in range(self.instance.n_machines)]
        for job in np.asarray(sequence, dtype=np.int64).tolist():
            op = job * self.g + next_stage[job]
            orders[machine_of[op]].append(op)
            next_stage[job] += 1
        return orders

    def _arcs(self, selection: Sequence[Sequence[int]] | None = None
              ) -> dict[int, dict[int, float]]:
        """Successor lists ``{u: {v: weight}}``: conjunctive + selected arcs.

        Nodes come as source, sink, then operations, and each node's arcs
        in insertion order (an arc given twice is kept once), so walks
        break ties as they would on :meth:`build`'s DiGraph.  Arc weight =
        duration of the *tail* operation (longest-path convention); source
        arcs carry the job release time.
        """
        duration = np.asarray(self.instance.processing,
                              dtype=float).ravel().tolist()
        release = np.asarray(self.instance.release, dtype=float).tolist()
        succ: dict[int, dict[int, float]] = {self.SOURCE: {}, self.SINK: {}}
        succ.update((op, {}) for op in range(self.n_ops))
        for u, v in self.conjunctive_edges():
            succ[u][v] = (release[v // self.g] if u == self.SOURCE
                          else duration[u])
        if selection is not None:
            for order in selection:
                for a, b in zip(order, order[1:]):
                    succ[a][b] = duration[a]
        return succ

    def build(self, selection: Sequence[Sequence[int]] | None = None):
        """networkx DiGraph of the same arcs (``weight`` edge attribute).

        For analysis only: evaluation never builds it.  Needs networkx
        (the ``graph`` extra).
        """
        nx = import_networkx()
        dg = nx.DiGraph()
        succ = self._arcs(selection)
        dg.add_nodes_from(succ)
        dg.add_weighted_edges_from((u, v, w) for u, vs in succ.items()
                                   for v, w in vs.items())
        return dg

    # -- evaluation (kernels 1 + 2 of Somani & Singh [16]) -----------------------
    @staticmethod
    def _kahn_order(succ: dict[int, dict[int, float]]) -> list[int]:
        """Kahn's sort, generation by generation (``nx.topological_sort``'s
        order); raises on cycles."""
        indegree = dict.fromkeys(succ, 0)
        for vs in succ.values():
            for v in vs:
                indegree[v] += 1
        order = [u for u, d in indegree.items() if d == 0]
        for u in order:  # FIFO: appended nodes are the next generation
            for v in succ[u]:
                indegree[v] -= 1
                if indegree[v] == 0:
                    order.append(v)
        if len(order) < len(succ):
            raise CyclicSelectionError("machine selection induces a cycle")
        return order

    def topological_order(self, selection: Sequence[Sequence[int]]) -> list[int]:
        """Kernel 1: topological sort; raises on cyclic selections."""
        return self._kahn_order(self._arcs(selection))

    def _longest_paths(self, selection: Sequence[Sequence[int]]
                       ) -> tuple[dict[int, float], dict[int, int | None]]:
        """Longest distance from source, and the predecessor achieving it."""
        succ = self._arcs(selection)
        dist = dict.fromkeys(succ, 0.0)
        pred: dict[int, int | None] = dict.fromkeys(succ)
        for u in self._kahn_order(succ):
            du = dist[u]
            for v, w in succ[u].items():
                nd = du + w
                if nd > dist[v]:
                    dist[v] = nd
                    pred[v] = u
        return dist, pred

    def longest_path_start_times(self, selection: Sequence[Sequence[int]]
                                 ) -> tuple[np.ndarray, float]:
        """Kernel 2: start times = longest path from source; plus makespan.

        A hand-rolled sweep over the topological order (not a generic DAG
        longest path) because this is the per-chromosome hot path in
        experiment E02.
        """
        dist, _ = self._longest_paths(selection)
        starts = np.array([dist[op] for op in range(self.n_ops)])
        return starts, float(dist[self.SINK])

    def makespan_of_sequence(self, sequence: np.ndarray) -> float:
        """Makespan of a chromosome via the graph pipeline of [16]."""
        selection = self.selection_from_sequence(sequence)
        _, cmax = self.longest_path_start_times(selection)
        return cmax

    def schedule_of_sequence(self, sequence: np.ndarray) -> Schedule:
        """Full schedule from the graph evaluation (start = longest path)."""
        selection = self.selection_from_sequence(sequence)
        starts, _ = self.longest_path_start_times(selection)
        ops = []
        for op in range(self.n_ops):
            j, s = self.job_stage(op)
            start = float(starts[op])
            ops.append(Operation(j, s, self.machine(op), start,
                                 start + self.duration(op)))
        return Schedule(ops, self.n, self.instance.n_machines)

    def critical_path(self, selection: Sequence[Sequence[int]]) -> list[int]:
        """Operations on one longest source->sink path (for local search).

        Returns operation ids in path order, excluding source/sink.
        """
        _, pred = self._longest_paths(selection)
        path: list[int] = []
        node = pred[self.SINK]
        while node is not None and node != self.SOURCE:
            path.append(node)
            node = pred[node]
        return list(reversed(path))
