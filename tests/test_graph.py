import numpy as np
import pytest

from dmpc import InfoGraph, path_graph


def test_path_neighbors_interior():
    g = path_graph(5)
    assert g.neighbors(3) == {2, 4}


def test_path_neighbors_endpoint():
    g = path_graph(5)
    assert g.neighbors(1) == {2}


def test_isolated_vertex_has_no_neighbors():
    g = InfoGraph(3)
    assert g.neighbors(1) == set()


def test_neighbors_out_of_range():
    g = path_graph(3)
    with pytest.raises(ValueError):
        g.neighbors(0)
    with pytest.raises(ValueError):
        g.neighbors(4)


def test_neighbor_relation_is_symmetric():
    rng = np.random.default_rng(0)
    weights = {}
    for i in range(1, 7):
        for j in range(i + 1, 7):
            if rng.random() < 0.4:
                weights[(i, j)] = float(rng.uniform(0.1, 3.0))
    g = InfoGraph(6, weights)
    for i in range(1, 7):
        for j in g.neighbors(i):
            assert i in g.neighbors(j)


def test_laplacian_unit_path():
    lap = path_graph(5).laplacian()
    assert np.allclose(np.diag(lap), [1, 2, 2, 2, 1])
    for i in range(4):
        assert lap[i, i + 1] == -1.0
        assert lap[i + 1, i] == -1.0


def test_laplacian_single_weighted_edge():
    g = InfoGraph(2, {(1, 2): 2.0})
    assert np.array_equal(g.laplacian(), [[2.0, -2.0], [-2.0, 2.0]])


def test_laplacian_row_sums_and_psd():
    rng = np.random.default_rng(1)
    weights = {(i, j): float(rng.uniform(0.1, 2.0))
               for i in range(1, 8) for j in range(i + 1, 8) if rng.random() < 0.5}
    g = InfoGraph(7, weights)
    lap = g.laplacian()
    # independent oracle: row sum from the adjacency rows
    for i in range(1, 8):
        adj_row = sum(g.weight(i, j) for j in g.neighbors(i))
        assert abs(lap[i - 1, i - 1] - adj_row) <= 1e-12
    assert np.max(np.abs(lap.sum(axis=1))) <= 1e-12
    assert np.linalg.eigvalsh(lap).min() >= -1e-9


def test_zero_eigenvalue_multiplicity_counts_components():
    g = InfoGraph(4, {(1, 2): 1.0, (3, 4): 1.0})  # two components
    eig = np.linalg.eigvalsh(g.laplacian())
    assert np.sum(np.abs(eig) < 1e-9) == 2
    assert not g.is_connected()


def test_is_connected():
    assert path_graph(5).is_connected()
    assert InfoGraph(1).is_connected()
    assert not InfoGraph(4, {(1, 2): 1.0, (3, 4): 1.0}).is_connected()


def test_invalid_graphs_rejected():
    with pytest.raises(ValueError):
        InfoGraph(3, {(1, 1): 1.0})
    with pytest.raises(ValueError):
        InfoGraph(3, {(1, 4): 1.0})
    with pytest.raises(ValueError):
        InfoGraph(3, {(1, 2): 0.0})
    with pytest.raises(ValueError):
        InfoGraph(3, {(1, 2): 1.0, (2, 1): 1.0})
    with pytest.raises(ValueError):
        InfoGraph(0)


@pytest.mark.parametrize("w", [np.inf, np.nan, -np.inf, -1.0])
def test_weights_must_be_positive_and_finite(w):
    with pytest.raises(ValueError,
                       match=r"edge weight must be (positive|finite), got .* on edge \(1, 2\)$"):
        InfoGraph(3, {(2, 1): w})


def scanned_neighbors(g, i):
    """The neighbours of i as one scan of every edge adds them to a set."""
    out = set()
    for a, b in g.weights:
        if a == i:
            out.add(b)
        elif b == i:
            out.add(a)
    return out


def test_neighbors_iterate_as_an_edge_scan_adds_them():
    # large vertex numbers collide in small hash tables, so the order is not sorted
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(1, 60))
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < 0.15]
        rng.shuffle(edges)
        g = InfoGraph(n, {(j, i) if rng.random() < 0.5 else (i, j): 1.0 for i, j in edges})
        for i in range(1, n + 1):
            scanned = scanned_neighbors(g, i)
            assert g.neighbors(i) == scanned
            assert list(g.neighbors(i)) == list(scanned)
