"""Island connection topologies.

"The island connection topology is varied from different papers ... the
ring topology is used most frequently" (survey, Section IV).  Implemented
topologies and their surveyed users:

=================  ==========================================================
ring               Park [26], Lin [21] (islands connected in a ring)
bidirectional ring common variant of ring
mesh (2-D grid)    Defersha & Chen [35] ("mesh")
torus              fine-grained embedding of Lin [21]
hypercube          Asadzadeh [27] ("agents formed a virtual cube", 8 nodes)
fully connected    Defersha & Chen [35] (best-performing), Kokosinski [32]
star               Gu [28] ("hybrid star-shaped topology")
random epoch       Defersha & Chen [36] (fresh random routes per epoch)
=================  ==========================================================

A topology is a :class:`Topology` producing, for each island, the list of
neighbour islands it sends emigrants to.  Migration needs only those
lists; :meth:`Topology.graph` exports them as a networkx DiGraph for
analysis (degree, connectivity) and is the one place here that needs
networkx (the ``graph`` extra).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..scheduling.graph import import_networkx

__all__ = [
    "Topology",
    "RingTopology",
    "BidirectionalRingTopology",
    "MeshTopology",
    "TorusTopology",
    "HypercubeTopology",
    "FullyConnectedTopology",
    "StarTopology",
    "RandomEpochTopology",
    "topology_by_name",
]


class Topology:
    """Base class: a directed neighbour structure over ``n`` islands."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one island")
        self.n = n

    def neighbors_out(self, island: int, epoch: int = 0,
                      rng: np.random.Generator | None = None) -> list[int]:
        """Islands that ``island`` sends emigrants to at ``epoch``."""
        raise NotImplementedError  # pragma: no cover

    def graph(self, epoch: int = 0,
              rng: np.random.Generator | None = None):
        """The full directed graph at ``epoch`` (networkx; for analysis)."""
        g = import_networkx().DiGraph()
        g.add_nodes_from(range(self.n))
        for i in range(self.n):
            for j in self.neighbors_out(i, epoch, rng):
                g.add_edge(i, j)
        return g

    @property
    def name(self) -> str:
        return type(self).__name__.replace("Topology", "").lower()


class RingTopology(Topology):
    """Unidirectional ring: island i sends to (i+1) mod n."""

    def neighbors_out(self, island, epoch=0, rng=None):
        if self.n == 1:
            return []
        return [(island + 1) % self.n]


class BidirectionalRingTopology(Topology):
    """Island i sends to both neighbours on the ring."""

    def neighbors_out(self, island, epoch=0, rng=None):
        if self.n == 1:
            return []
        if self.n == 2:
            return [1 - island]
        return [(island + 1) % self.n, (island - 1) % self.n]


class MeshTopology(Topology):
    """2-D grid without wrap-around; islands arranged near-square."""

    def __init__(self, n: int, rows: int | None = None):
        super().__init__(n)
        self.rows = rows or max(1, int(math.isqrt(n)))
        self.cols = math.ceil(n / self.rows)

    def _coords(self, island: int) -> tuple[int, int]:
        return divmod(island, self.cols)

    def neighbors_out(self, island, epoch=0, rng=None):
        r, c = self._coords(island)
        out = []
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            rr, cc = r + dr, c + dc
            j = rr * self.cols + cc
            if 0 <= rr < self.rows and 0 <= cc < self.cols and j < self.n:
                out.append(j)
        return out


class TorusTopology(MeshTopology):
    """2-D grid *with* wrap-around (the fine-grained GA's native shape)."""

    def neighbors_out(self, island, epoch=0, rng=None):
        if self.n == 1:
            return []
        r, c = self._coords(island)
        out = []
        # wrap within the actual occupied rectangle
        rows = self.rows
        cols = self.cols
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            rr, cc = (r + dr) % rows, (c + dc) % cols
            j = rr * cols + cc
            if j < self.n and j != island:
                out.append(j)
        return sorted(set(out))


class HypercubeTopology(Topology):
    """d-dimensional hypercube; n must be a power of two.

    Asadzadeh & Zamanifar [27] fix eight processor agents "forming a
    virtual cube amongst themselves, each having three neighbors" -- i.e.
    the 3-cube.
    """

    def __init__(self, n: int):
        super().__init__(n)
        if n & (n - 1):
            raise ValueError("hypercube needs a power-of-two island count")
        self.dim = n.bit_length() - 1

    def neighbors_out(self, island, epoch=0, rng=None):
        return [island ^ (1 << b) for b in range(self.dim)]


class FullyConnectedTopology(Topology):
    """Every island sends to every other (Kokosinski's broadcast [32])."""

    def neighbors_out(self, island, epoch=0, rng=None):
        return [j for j in range(self.n) if j != island]


class StarTopology(Topology):
    """Hub-and-spoke (Gu et al. [28]); island 0 is the hub."""

    def neighbors_out(self, island, epoch=0, rng=None):
        if self.n == 1:
            return []
        if island == 0:
            return list(range(1, self.n))
        return [0]


class RandomEpochTopology(Topology):
    """Fresh random migration routes each epoch (Defersha & Chen [36]).

    Every epoch, each island draws ``out_degree`` distinct destinations
    using a generator seeded by ``(seed, epoch)`` so all islands agree on
    the epoch's routes without communication.
    """

    def __init__(self, n: int, out_degree: int = 1, seed: int = 0):
        super().__init__(n)
        if not 0 < out_degree < max(2, n):
            out_degree = max(1, min(out_degree, n - 1))
        self.out_degree = out_degree if n > 1 else 0
        self.seed = seed

    def neighbors_out(self, island, epoch=0, rng=None):
        if self.n == 1:
            return []
        epoch_rng = np.random.default_rng((self.seed, epoch, island))
        choices = [j for j in range(self.n) if j != island]
        k = min(self.out_degree, len(choices))
        idx = epoch_rng.choice(len(choices), size=k, replace=False)
        return [choices[int(i)] for i in idx]


def topology_by_name(name: str, n: int, **kwargs) -> Topology:
    """Factory used by experiment configs ('ring', 'mesh', 'full', ...)."""
    table = {
        "ring": RingTopology,
        "bidirectional_ring": BidirectionalRingTopology,
        "mesh": MeshTopology,
        "torus": TorusTopology,
        "hypercube": HypercubeTopology,
        "full": FullyConnectedTopology,
        "fully_connected": FullyConnectedTopology,
        "star": StarTopology,
        "random": RandomEpochTopology,
    }
    if name not in table:
        raise ValueError(f"unknown topology {name!r}; options: {sorted(table)}")
    return table[name](n, **kwargs)
