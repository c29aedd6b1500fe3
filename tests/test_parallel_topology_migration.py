"""Tests for island topologies and migration policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.individual import Individual
from repro.core.population import Population
from repro.parallel import (BidirectionalRingTopology,
                            FullyConnectedTopology, HypercubeTopology,
                            MeshTopology, MigrationPolicy,
                            RandomEpochTopology, RingTopology, StarTopology,
                            TorusTopology, integrate_immigrants,
                            select_emigrants, topology_by_name)

ALL_NAMES = ["ring", "bidirectional_ring", "mesh", "torus", "full", "star",
             "random"]


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("n", [2, 4, 9])
def test_topology_valid_neighbors(name, n):
    topo = topology_by_name(name, n)
    for i in range(n):
        out = topo.neighbors_out(i, epoch=1)
        assert all(0 <= j < n for j in out)
        assert i not in out


@pytest.mark.parametrize("name", ALL_NAMES)
def test_topology_strongly_connected(name):
    """Every island's genes can eventually reach every other island."""
    nx = pytest.importorskip("networkx")
    topo = topology_by_name(name, 8)
    g = topo.graph(epoch=0)
    # random epoch topology re-rolls per epoch; union a few epochs
    if name == "random":
        for epoch in range(1, 6):
            g = nx.compose(g, topo.graph(epoch=epoch))
    assert nx.is_strongly_connected(g)


class TestSpecificTopologies:
    def test_ring_degree_one(self):
        topo = RingTopology(5)
        for i in range(5):
            assert topo.neighbors_out(i) == [(i + 1) % 5]

    def test_single_island_has_no_neighbors(self):
        for cls in (RingTopology, BidirectionalRingTopology,
                    FullyConnectedTopology, StarTopology, TorusTopology):
            assert cls(1).neighbors_out(0) == []

    def test_bidirectional_ring_degree_two(self):
        topo = BidirectionalRingTopology(6)
        assert sorted(topo.neighbors_out(0)) == [1, 5]

    def test_mesh_corner_degree(self):
        topo = MeshTopology(9, rows=3)
        assert len(topo.neighbors_out(0)) == 2   # corner
        assert len(topo.neighbors_out(4)) == 4   # centre

    def test_torus_wraps(self):
        topo = TorusTopology(9, rows=3)
        assert set(topo.neighbors_out(0)) == {1, 2, 3, 6}

    def test_hypercube_structure(self):
        topo = HypercubeTopology(8)
        for i in range(8):
            out = topo.neighbors_out(i)
            assert len(out) == 3  # "each of them had three neighbors" [27]
            for j in out:
                assert bin(i ^ j).count("1") == 1

    def test_hypercube_requires_power_of_two(self):
        with pytest.raises(ValueError):
            HypercubeTopology(6)

    def test_star_hub_and_spokes(self):
        topo = StarTopology(5)
        assert topo.neighbors_out(0) == [1, 2, 3, 4]
        assert topo.neighbors_out(3) == [0]

    def test_fully_connected(self):
        topo = FullyConnectedTopology(4)
        assert sorted(topo.neighbors_out(2)) == [0, 1, 3]

    def test_random_epoch_changes_and_is_deterministic(self):
        topo = RandomEpochTopology(6, out_degree=2, seed=1)
        e1 = [tuple(topo.neighbors_out(i, epoch=1)) for i in range(6)]
        e1_again = [tuple(topo.neighbors_out(i, epoch=1)) for i in range(6)]
        e2 = [tuple(topo.neighbors_out(i, epoch=2)) for i in range(6)]
        assert e1 == e1_again   # same epoch: same routes
        assert e1 != e2         # new epoch: new routes (w.h.p.)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            topology_by_name("banana", 4)


# ---------------------------------------------------------------------------
# migration
# ---------------------------------------------------------------------------

def _pop(objs):
    return Population([Individual(np.array([i]), objective=float(o))
                       for i, o in enumerate(objs)])


class TestMigrationPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            MigrationPolicy(interval=0)
        with pytest.raises(ValueError):
            MigrationPolicy(emigrant="bogus")
        with pytest.raises(ValueError):
            MigrationPolicy(replacement="bogus")

    def test_due_on_interval(self):
        pol = MigrationPolicy(interval=5)
        assert not pol.due(0)
        assert pol.due(5) and pol.due(10)
        assert not pol.due(7)

    def test_name(self):
        assert MigrationPolicy(emigrant="best",
                               replacement="worst").name == \
            "best-replace-worst"


class TestSelectEmigrants:
    def test_best_picks_best(self, rng):
        pol = MigrationPolicy(rate=2, emigrant="best")
        out = select_emigrants(_pop([5, 1, 9, 3]), pol, rng)
        assert sorted(i.objective for i in out) == [1, 3]

    def test_random_rate_respected(self, rng):
        pol = MigrationPolicy(rate=3, emigrant="random")
        out = select_emigrants(_pop([5, 1, 9, 3]), pol, rng)
        assert len(out) == 3

    def test_rate_zero_empty(self, rng):
        pol = MigrationPolicy(rate=0)
        assert select_emigrants(_pop([1, 2]), pol, rng) == []

    def test_emigrants_are_copies(self, rng):
        pop = _pop([1, 2])
        out = select_emigrants(pop, MigrationPolicy(rate=1), rng)
        out[0].genome[0] = 99
        assert pop[0].genome[0] != 99


class TestIntegrateImmigrants:
    def test_replace_worst(self, rng):
        pop = _pop([5, 1, 9, 3])
        imm = [Individual(np.array([77]), objective=0.5)]
        integrate_immigrants(pop, imm,
                             MigrationPolicy(replacement="worst"), rng)
        assert 9.0 not in [i.objective for i in pop]
        assert 0.5 in [i.objective for i in pop]

    def test_replace_worst_never_displaces_best(self, rng):
        pop = _pop([5, 1, 9, 3])
        imm = [Individual(np.array([77]), objective=100.0),
               Individual(np.array([78]), objective=101.0)]
        integrate_immigrants(pop, imm,
                             MigrationPolicy(replacement="worst"), rng)
        assert 1.0 in [i.objective for i in pop]

    def test_replace_random_keeps_size(self, rng):
        pop = _pop([5, 1, 9, 3])
        imm = [Individual(np.array([77]), objective=2.0)]
        integrate_immigrants(pop, imm,
                             MigrationPolicy(replacement="random"), rng)
        assert len(pop) == 4

    def test_excess_immigrants_truncated(self, rng):
        pop = _pop([5, 1])
        imm = [Individual(np.array([k]), objective=float(k))
               for k in range(10)]
        integrate_immigrants(pop, imm, MigrationPolicy(), rng)
        assert len(pop) == 2

    def test_no_immigrants_noop(self, rng):
        pop = _pop([5, 1])
        integrate_immigrants(pop, [], MigrationPolicy(), rng)
        assert [i.objective for i in pop] == [5, 1]
