"""Undirected weighted communication graphs and their Laplacians."""

from collections import deque
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class InfoGraph:
    """Information architecture: which agents may exchange state and plans.

    Vertices are numbered 1..num_agents. Edges are unordered pairs with a
    strictly positive, finite coupling weight.
    """

    num_agents: int
    weights: dict = field(default_factory=dict)  # (i, j) with i < j -> weight
    _adjacency: tuple = field(init=False, repr=False, compare=False)  # vertex -> neighbors
    # per edge, in `weights` order: i - 1 and j - 1, as two read-only index arrays
    edge_index: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_agents < 1:
            raise ValueError("num_agents must be >= 1")
        canonical = {}
        for (i, j), w in self.weights.items():
            if i == j:
                raise ValueError(f"self-loop on vertex {i}")
            if not (1 <= i <= self.num_agents and 1 <= j <= self.num_agents):
                raise ValueError(f"edge ({i},{j}) out of range 1..{self.num_agents}")
            key = (min(i, j), max(i, j))
            if key in canonical:
                raise ValueError(f"duplicate edge {key}")
            if not 0 < w < np.inf:
                raise ValueError(f"edge {key} has a weight that is not positive and finite: {w}")
            canonical[key] = float(w)
        object.__setattr__(self, "weights", canonical)
        adjacency = [[] for _ in range(self.num_agents + 1)]
        for i, j in canonical:
            adjacency[i].append(j)
            adjacency[j].append(i)
        object.__setattr__(self, "_adjacency", tuple(map(frozenset, adjacency)))
        ends = np.array(list(canonical), dtype=np.intp).reshape(-1, 2).T.copy() - 1
        ends.flags.writeable = False
        object.__setattr__(self, "edge_index", tuple(ends))

    def weight(self, i, j):
        return self.weights[(min(i, j), max(i, j))]

    def neighbors(self, i):
        """Frozen set of vertices sharing an edge with i, built with the graph
        by adding them in edge order, so it iterates as a set so built does."""
        if not (1 <= i <= self.num_agents):
            raise ValueError(f"vertex {i} out of range 1..{self.num_agents}")
        return self._adjacency[i]

    def laplacian(self):
        """Weighted graph Laplacian: degree on the diagonal, -a_ij off it."""
        n = self.num_agents
        lap = np.zeros((n, n))
        for (i, j), w in self.weights.items():
            lap[i - 1, i - 1] += w
            lap[j - 1, j - 1] += w
            lap[i - 1, j - 1] -= w
            lap[j - 1, i - 1] -= w
        return lap

    def is_connected(self):
        """Breadth-first reachability from vertex 1 covers all vertices."""
        if self.num_agents == 1:
            return True
        seen = {1}
        queue = deque([1])
        while queue:
            v = queue.popleft()
            for u in self.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        return len(seen) == self.num_agents


def path_graph(n, weight=1.0):
    """Path 1-2-...-n with uniform edge weight."""
    return InfoGraph(n, {(i, i + 1): weight for i in range(1, n)})
