"""Set-up builds each QP from one copy of each distinct block of P. Every
QP the program builds is one class of blocks in x's order, whose block,
inverse and shape are bit for bit those of the reference build below,
which densifies all of a product's blocks at once and groups them by their
bytes; and its memory peak stays a few blocks above what it keeps."""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg.lapack import dpotrf, dpotri
from scipy.sparse.csgraph import connected_components

from dmpc import LtiAgent, SimConfig, build_local_problems, double_integrator_3d, problem
from dmpc.admm import AdmmEngine
from dmpc.problem import build_centralized_qp, condensing_matrix
from dmpc.qp import BoxQp, diagonal_blocks
from dmpc.simulation import _CentralizedCache, default_agents, draw_initial_states
from dmpc.verify import random_connected_graph
from test_sharing import grid, same_bits, scenarios


def reference_classes(A):
    """The classes of the symmetrized diagonal blocks of the sparse A: every
    block densified from A as one array and symmetrized as (B + B')/2, then
    grouped by its bytes, classes and their blocks by first index. Returns
    (P blocks, inverses or None, block indices)."""
    _, labels = connected_components(A, directed=True, connection="weak")
    D = A.toarray()
    rows = {}
    for lab in sorted(set(labels), key=lambda lab: np.flatnonzero(labels == lab)[0]):
        idx = np.flatnonzero(labels == lab)
        b = D[np.ix_(idx, idx)]
        b += b.T.copy()
        b *= 0.5
        rows.setdefault(b.tobytes(), (b, []))[1].append(idx)
    P = [b for b, _ in rows.values()]
    d = max([0.0] + [b.diagonal().max() for b in P])
    inv = []
    for b in P:
        c, info = dpotrf(np.array(b))
        S, _ = dpotri(c) if info == 0 else (None, 0)
        eig = 1.0 / S.diagonal().max() if info == 0 else -np.inf
        inv.append(S + np.triu(S, 1).T if eig > 1e-12 * d else None)
    inv = None if any(m is None for m in inv) else inv
    return P, inv, [np.array(r) for _, r in rows.values()]


def assert_same_qp(qp, A):
    (b,), inv, (idx,) = reference_classes(A)  # one class
    assert np.array_equal(idx.ravel(), np.arange(A.shape[0]))  # in x's order
    assert qp.shape == idx.shape and same_bits(qp.P, b)
    assert (qp.inv is None) == (inv is None)
    if inv is not None:
        assert same_bits(qp.inv, inv[0])


def unlike_grid():
    light, heavy = double_integrator_3d(0.1, 1.0), double_integrator_3d(0.1, 2.0)
    low = double_integrator_3d(0.1, 1.0, u_max=0.5)
    return grid(4, 5), [light, heavy, low, LtiAgent(light.A.copy(), light.B.copy())] * 5


def random_graph(seed):
    g = random_connected_graph(np.random.default_rng(100 + seed), n_max=8)
    return g, [double_integrator_3d(0.1, 1.0)] * g.num_agents


def cases():
    yield from scenarios()
    yield "grid4x5-unlike", *unlike_grid()
    for seed in range(6):
        yield f"random-{seed}", *random_graph(seed)


@pytest.mark.parametrize("name, g, agents", list(cases()))
def test_every_qp_equals_the_reference_build(name, g, agents):
    x0 = [np.zeros(a.n) for a in agents]
    probs, maps, _ = build_local_problems(g, agents, 5, x0)
    for rho in (0.0, 1.0):
        engine = AdmmEngine(probs, maps, rho)
        for p, cache in zip(probs, engine.caches):
            M = condensing_matrix(p)
            H = p.H + rho * sparse.eye_array(p.dim, format="csr")
            assert_same_qp(cache.qp, M.T.tocsr() @ (H @ M))
    central = _CentralizedCache(g, agents, 5, x0, 1e-8)
    M = central.M
    assert_same_qp(central.qp, M.T.tocsr() @ (central.block.H @ M))


@pytest.mark.parametrize("name, g, agents",
                         [*cases(), ("grid10x10", grid(10, 10),
                                     [double_integrator_3d(0.1, 1.0)] * 100)])
def test_every_program_qp_is_one_class_in_x_order(monkeypatch, name, g, agents):
    # no QP of the engine (rho 1 and 0) or of the centralized controller is
    # kept as one dense block
    seen = []

    def spy(P, q, lower, upper, inverses=None):
        seen.append((P, q.shape[0]))
        return BoxQp(P, q, lower, upper, inverses)

    monkeypatch.setattr(problem, "BoxQp", spy)  # `condensed_qps` builds every QP
    x0 = [np.zeros(a.n) for a in agents]
    probs, maps, _ = build_local_problems(g, agents, 10, x0)
    for rho in (1.0, 0.0):
        AdmmEngine(probs, maps, rho)
    _CentralizedCache(g, agents, 10, x0, 1e-8)
    assert len(seen) >= 3
    for P, n in seen:
        (idx, _), = P
        assert np.array_equal(idx.ravel(), np.arange(n))


def test_alike_blocks_are_kept_once():
    # the three axis blocks of the centralized P are one class: one array, one inverse
    g, agents = grid(4, 5), [double_integrator_3d(0.1, 1.0)] * 20
    block, M, built = build_centralized_qp(g, agents, 10, [np.zeros(6)] * 20)
    P = diagonal_blocks(M.T @ (block.H @ M))
    (idx, b), = P
    assert idx.shape == (3, 200) and b.shape == (200, 200)
    qp = BoxQp(P, np.zeros(600), -np.ones(600), np.ones(600))
    assert qp.P is b and qp.shape == (3, 200) and qp.inv.flags.f_contiguous
    assert not np.shares_memory(qp.inv, b)
    assert built.shape == (3, 200) and same_bits(built.P, b) and same_bits(built.inv, qp.inv)
    assert built.inv.flags.f_contiguous and not np.shares_memory(built.inv, built.P)


def peak_above_start(build):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = build()
        return tracemalloc.get_traced_memory()[1] - start, out
    finally:
        tracemalloc.stop()


def test_box_qp_of_one_block_allocates_at_most_three_blocks():
    # the factor, which becomes the inverse, and bands of it; not the bytes
    # of a key, a copy of the block, a second inverse or a full-size sum
    s = 200
    G = np.random.default_rng(0).standard_normal((s, s))
    form = diagonal_blocks(G @ G.T + s * np.eye(s))
    peak, qp = peak_above_start(lambda: BoxQp(form, np.zeros(s), -np.ones(s), np.ones(s)))
    assert qp.inv is not None
    assert peak <= 3 * s * s * 8


def test_centralized_setup_peak_on_a_grid():
    # 4x5 grid, T = 10: P's one class of 200 x 200 and its inverse are 0.32 MB each
    g = grid(4, 5)
    cfg = SimConfig()
    agents = default_agents(g, cfg)
    x0 = draw_initial_states(g, cfg, np.random.default_rng(0))
    peak, _ = peak_above_start(lambda: _CentralizedCache(g, agents, cfg.horizon, x0, cfg.qp_tol))
    assert peak < 2.5e6


def test_centralized_controller_keeps_at_most_a_megabyte_on_a_grid():
    # 4x5 grid, T = 10: P's block and its inverse are 0.64 MB; the gradient
    # map G = M'HC, 600 x 120, is 6.5% nonzero and kept sparse (0.58 MB dense)
    g = grid(4, 5)
    cfg = SimConfig()
    agents = default_agents(g, cfg)
    x0 = draw_initial_states(g, cfg, np.random.default_rng(0))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        central = _CentralizedCache(g, agents, cfg.horizon, x0, cfg.qp_tol)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert kept <= 1.0e6
    assert central.G.shape == (600, 120) and central.G.nnz < 0.07 * 600 * 120
