"""Undirected weighted communication graphs and their Laplacians."""

import operator
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components


def check_count(name, value, least=1):
    """ValueError naming `name` and `value` unless `operator.index` takes
    `value`, a bool aside, and, unless `least` is None, it is at least `least`."""
    try:
        operator.index(value)  # it refuses np.bool_, not bool
        if isinstance(value, bool):
            raise TypeError
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


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
        check_count("num_agents", self.num_agents)
        canonical = {}
        for (i, j), w in self.weights.items():
            key = self.checked_edge(self.num_agents, i, j, w)
            if key in canonical:
                raise ValueError(f"duplicate edge {key}")
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

    @staticmethod
    def checked_edge(num_agents, i, j, w):
        """The edge's key (min, max), or ValueError unless i != j, both lie in
        1..num_agents and the weight is positive and finite."""
        if i == j:
            raise ValueError(f"self-loop on vertex {i}")
        if not (1 <= i <= num_agents and 1 <= j <= num_agents):
            raise ValueError(f"edge ({i},{j}) out of range 1..{num_agents}")
        key = (min(i, j), max(i, j))
        if not 0 < w < np.inf:  # nan fails as not positive
            raise ValueError(f"edge weight must be {'finite' if w > 0 else 'positive'}, "
                             f"got {w} on edge {key}")
        return key

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
        """One connected component holds every vertex."""
        n, (i, j) = self.num_agents, self.edge_index
        adjacency = sparse.coo_array((np.ones(i.size), (i, j)), shape=(n, n))
        return connected_components(adjacency, directed=False, return_labels=False) == 1


def path_graph(n, weight=1.0):
    """Path 1-2-...-n with uniform edge weight."""
    check_count("num_agents", n)  # before range(1, n) takes it
    return InfoGraph(n, {(i, i + 1): weight for i in range(1, n)})
