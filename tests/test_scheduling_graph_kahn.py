"""The disjunctive-graph kernels run on successor lists, without networkx.

``topological_order`` is Kahn's sort generation by generation, the order
``nx.topological_sort`` yields, so ``critical_path`` (and the local search
built on it) breaks ties exactly as it did on a networkx DiGraph.  The
reference checks import networkx and skip without it; the export check
simulates its absence (the cycle check without networkx lives in
``test_scheduling_flexible_graph.py``).
"""

import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.instances import get_instance, job_shop
from repro.parallel import RingTopology
from repro.scheduling import DisjunctiveGraph

SELECTIONS = 100


def _released_job_shop():
    inst = job_shop(7, 4, seed=5)
    release = np.random.default_rng(0).integers(0, 60, inst.n_jobs)
    return replace(inst, release=release.astype(float))


INSTANCES = {
    "ft06": lambda: get_instance("ft06"),
    "ft10-shaped": lambda: get_instance("ft10-shaped"),
    "released": _released_job_shop,
}


def _nx_graph(nx, dg, selection):
    """The DiGraph built arc by arc from the instance (the reference)."""
    graph = nx.DiGraph()
    graph.add_nodes_from([dg.SOURCE, dg.SINK, *range(dg.n_ops)])
    for u, v in dg.conjunctive_edges():
        weight = (float(dg.instance.release[dg.job_stage(v)[0]])
                  if u == dg.SOURCE else dg.duration(u))
        graph.add_edge(u, v, weight=weight)
    for order in selection:
        for a, b in zip(order, order[1:]):
            graph.add_edge(a, b, weight=dg.duration(a))
    return graph


def _nx_longest_paths(nx, graph):
    """Longest distances and predecessors swept over networkx's order."""
    dist = dict.fromkeys(graph.nodes, 0.0)
    pred = dict.fromkeys(graph.nodes)
    for u in nx.topological_sort(graph):
        for v, data in graph[u].items():
            if dist[u] + data["weight"] > dist[v]:
                dist[v] = dist[u] + data["weight"]
                pred[v] = u
    return dist, pred


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_kernels_match_networkx_reference(name):
    nx = pytest.importorskip("networkx")
    inst = INSTANCES[name]()
    dg = DisjunctiveGraph(inst)
    rng = np.random.default_rng(2024)
    base = np.repeat(np.arange(inst.n_jobs), inst.n_stages)
    for _ in range(SELECTIONS):
        sequence = rng.permutation(base)
        selection = dg.selection_from_sequence(sequence)
        expected = [[] for _ in range(inst.n_machines)]
        stage = [0] * inst.n_jobs
        for job in sequence:
            op = dg.op_id(int(job), stage[job])
            expected[dg.machine(op)].append(op)
            stage[job] += 1
        assert selection == expected
        graph = _nx_graph(nx, dg, selection)
        assert list(dg.build(selection).edges(data="weight")) == list(
            graph.edges(data="weight"))
        assert dg.topological_order(selection) == list(
            nx.topological_sort(graph))
        dist, pred = _nx_longest_paths(nx, graph)
        starts, cmax = dg.longest_path_start_times(selection)
        assert starts.tolist() == [dist[op] for op in range(dg.n_ops)]
        assert cmax == dist[dg.SINK]
        path, node = [], pred[dg.SINK]
        while node is not None and node != dg.SOURCE:
            path.append(node)
            node = pred[node]
        assert dg.critical_path(selection) == path[::-1]


def test_graph_exports_name_the_extra_without_networkx(monkeypatch):
    monkeypatch.setitem(sys.modules, "networkx", None)
    with pytest.raises(ImportError, match=r"\[graph\]"):
        DisjunctiveGraph(job_shop(3, 2)).build()
    with pytest.raises(ImportError, match=r"\[graph\]"):
        RingTopology(4).graph()
