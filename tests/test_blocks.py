"""The box QP's block split: detection of P's independent diagonal blocks,
box QPs on block-diagonal P against oracles, and the x-updates of closed loops
whose local P split by axis or, with axis-coupling inputs, do not split."""

import numpy as np
import pytest
from scipy import sparse

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dmpc import (BoxQp, InfoGraph, LtiAgent, SimConfig, build_local_problems,  # noqa: E402
                  double_integrator_3d, enumerate_box_qp, global_cost, rollout, run_admm,
                  run_closed_loop, solve_box_qp, solve_centralized)
from dmpc import admm  # noqa: E402
from dmpc.admm import AdmmEngine  # noqa: E402
from dmpc.problem import ZLayout  # noqa: E402
from dmpc.qp import diagonal_blocks  # noqa: E402


def block_diagonal(rng, sizes, ridge=0.5):
    """A random SPD P with independent blocks of the given sizes on randomly
    permuted indices, and the expected partition."""
    n = sum(sizes)
    perm = rng.permutation(n)
    P = np.zeros((n, n))
    parts, start = [], 0
    for s in sizes:
        idx = np.sort(perm[start:start + s])
        G = rng.standard_normal((s, s))
        P[np.ix_(idx, idx)] = G @ G.T + ridge * np.eye(s)
        parts.append(tuple(idx))
        start += s
    return P, parts


def partition(blocks):
    return sorted(tuple(row) for idx, _ in blocks for row in idx)


def box_qp(rng, P):
    n = P.shape[0]
    lo = -rng.uniform(0.1, 1.5, n)
    return BoxQp(P, 2.0 * rng.standard_normal(n), lo, lo + rng.uniform(0.2, 3.0, n))


block_sizes = st.lists(st.integers(1, 6), min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(block_sizes, st.integers(0, 2**32 - 1))
def test_blocks_are_the_exact_partition(sizes, seed):
    P, parts = block_diagonal(np.random.default_rng(seed), sizes)
    blocks = diagonal_blocks(P)
    assert partition(blocks) == sorted(parts)
    # random blocks: each its own class, classes by first index
    assert sorted(idx.shape[1] for idx, _ in blocks) == sorted(sizes)
    assert [idx[0, 0] for idx, _ in blocks] == sorted(min(part) for part in parts)
    for idx, b in blocks:
        assert np.all(np.diff(idx, axis=1) > 0)
        for i in idx:
            assert np.array_equal(b, P[np.ix_(i, i)])


def test_coupled_patterns_are_one_block():
    rng = np.random.default_rng(0)
    G = rng.standard_normal((7, 7))
    tri = 2.0 * np.eye(600) - np.eye(600, k=1) - np.eye(600, k=-1)
    for P in (G @ G.T, tri):
        (idx, b), = diagonal_blocks(P)
        assert np.array_equal(idx, np.arange(P.shape[0])[None, :])
        assert np.array_equal(b, P)
    # one nonzero entry on either side of the diagonal joins two blocks
    P = np.eye(4)
    P[0, 3] = 1e-13
    assert partition(diagonal_blocks(P)) == [(0, 3), (1,), (2,)]


def test_classes_are_of_symmetric_parts_and_alike_blocks_share_one():
    # blocks 0 and 2 hold the same entries; block 1 holds other entries whose
    # symmetric part is theirs; block 3 differs
    a = np.array([[2.0, 1.5], [0.5, 2.0]])
    P = sparse.block_diag([a, a.T, a, a + np.eye(2)]).toarray()
    (idx, b), (idx2, b2) = diagonal_blocks(P)
    assert idx.tolist() == [[0, 1], [2, 3], [4, 5]] and idx2.tolist() == [[6, 7]]
    assert np.array_equal(b, [[2.0, 1.0], [1.0, 2.0]])
    assert np.array_equal(b2, [[3.0, 1.0], [1.0, 3.0]])


def test_empty_qp_has_no_blocks():
    qp = BoxQp(np.zeros((0, 0)), np.zeros(0), np.zeros(0), np.zeros(0))
    assert qp.shape == (1, 0) and qp.inv is None and solve_box_qp(qp).status == "optimal"


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda s: sum(s) <= 8),
       st.integers(0, 2**32 - 1))
def test_small_block_qps_match_enumeration(sizes, seed):
    rng = np.random.default_rng(seed)
    qp = box_qp(rng, block_diagonal(rng, sizes)[0])
    sol = solve_box_qp(qp, tol=1e-11, max_iter=50000)
    x_ref, f_ref = enumerate_box_qp(qp)
    assert sol.status == "optimal"
    assert np.max(np.abs(sol.x_star - x_ref)) <= 1e-9
    assert abs(sol.objective - f_ref) <= 1e-9 * max(1.0, abs(f_ref))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=2, max_size=6).filter(lambda s: sum(s) > 8),
       st.integers(0, 2**32 - 1))
def test_block_qps_match_their_blocks_solved_alone(sizes, seed):
    rng = np.random.default_rng(seed)
    P, parts = block_diagonal(rng, sizes)
    qp = box_qp(rng, P)
    tol = 1e-11
    sol = solve_box_qp(qp, tol=tol, max_iter=50000)
    assert sol.status == "optimal" and sol.kkt_residual <= tol
    for part in parts:
        i = np.array(part)
        alone = solve_box_qp(BoxQp(P[np.ix_(i, i)], qp.q[i], qp.lower[i], qp.upper[i]),
                             tol=tol, max_iter=50000)
        assert np.max(np.abs(sol.x_star[i] - alone.x_star)) <= 1e-9


def kkt(qp, x, q=None):
    """Projected-gradient residual, formed here rather than by BoxQp, for
    linear term q (`qp.q` if None)."""
    g = qp.dense() @ x + (qp.q if q is None else q)
    return float(np.max(np.abs(x - np.minimum(np.maximum(x - g, qp.lower), qp.upper))))


def test_closed_loop_x_updates_on_unlike_agents_are_kkt(monkeypatch):
    # a 2x3 grid, agents of unlike mass and input bound, saturated starts
    g = InfoGraph(6, {(1, 2): 1.0, (2, 3): 0.5, (4, 5): 2.0, (5, 6): 1.0,
                      (1, 4): 1.5, (2, 5): 1.0, (3, 6): 0.75})
    agents = [double_integrator_3d(0.1, m, u) for m, u in
              zip((0.5, 1.0, 2.0, 1.5, 0.8, 3.0), (0.3, 1.0, 0.5, 2.0, 0.4, 0.6))]
    cfg = SimConfig(num_steps=4, horizon=5, admm_iterations=8, noise_variance=0.0,
                    rng_seed=4, qp_tol=1e-7)
    seen = []
    solve = admm.solve_box_qp

    def spy(qp, **kw):
        sol = solve(qp, **kw)
        seen.append((qp.shape[0], sol, kkt(qp, sol.x_star, kw["q"])))
        return sol

    monkeypatch.setattr(admm, "solve_box_qp", spy)
    log = run_closed_loop(g, cfg, agents=agents)
    assert log.aborted_at is None
    assert len(seen) == 6 * 8 * 4
    assert all(nb == 3 for nb, _, _ in seen)  # each local P splits by axis
    assert all(sol.status == "optimal" and r <= cfg.qp_tol for _, sol, r in seen)
    polished = [sol for _, sol, _ in seen if sol.iterations == 0 and len(sol.objective_history) == 2]
    assert polished  # one-step Newton solves ran


def test_axis_coupling_agent_gives_one_block_and_matches_centralized():
    triangle_with_axis_coupling_matches_centralized(7)


def test_triangle_at_seed_6_converges():
    # x-updates that returned their warm start unchanged once it was within
    # qp_tol froze z here: the run stopped unconverged after 5,000 iterations
    triangle_with_axis_coupling_matches_centralized(6)


def triangle_with_axis_coupling_matches_centralized(seed):
    rng = np.random.default_rng(seed)
    g = InfoGraph(3, {(1, 2): 1.0, (2, 3): 1.0, (1, 3): 0.5})
    base = double_integrator_3d(0.1, 1.0, u_max=0.5)
    mix = np.array([[1.0, 0.4, 0.0], [0.0, 1.0, 0.3], [0.2, 0.0, 1.0]])
    agents = [base, LtiAgent(base.A, base.B @ mix, u_max=0.5), base]
    x0 = []
    for _ in range(3):
        x = np.empty(6)
        x[0::2] = rng.uniform(-2.0, 2.0, 3)
        x[1::2] = rng.uniform(-1.0, 1.0, 3)
        x0.append(x)
    T = 4
    probs, maps, _ = build_local_problems(g, agents, T, x0)
    for cache in AdmmEngine(probs, maps, 1.0, 1e-8).caches:  # each holds a copy of agent 2's inputs
        assert cache.qp.shape == (1, 3 * 3 * T)
    res = run_admm(probs, maps, rho=1.0, max_iter=5000, eps_primal=1e-8, eps_dual=1e-8,
                   qp_tol=1e-8)
    assert res.converged
    plans_c, cost_c = solve_centralized(g, agents, T, x0, tol=1e-10)
    _, u_admm = ZLayout(agents, T).decode(res.z)
    # criterion 1's tolerances
    assert max(float(np.max(np.abs(u - c))) for u, c in zip(u_admm, plans_c)) <= 1e-4
    states = [rollout(a, x, u) for a, x, u in zip(agents, x0, u_admm)]
    assert abs(global_cost(g, states, u_admm) - cost_c) <= 1e-6 * max(cost_c, 1e-12)
    assert max(float(np.max(np.abs(u))) for u in plans_c) >= 0.5 - 1e-9  # a box is active
