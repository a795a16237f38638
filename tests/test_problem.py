import numpy as np
import pytest

from dmpc import (InfoGraph, build_local_problems, double_integrator_3d, global_cost,
                  path_graph, solve_box_qp)
from dmpc.admm import AdmmEngine
from dmpc.problem import (ZLayout, build_centralized_qp, condensed_maps, condensed_qps,
                          copy_counts)
from dmpc.verify import random_connected_graph
from kkt_oracle import dynamics_equalities, solve_equality_qp


def make_agents(n, u_max=1.0):
    return [double_integrator_3d(0.1, 1.0, u_max=u_max) for _ in range(n)]


def random_states(rng, n):
    out = []
    for _ in range(n):
        x = np.empty(6)
        x[0::2] = rng.uniform(-2, 2, size=3)
        x[1::2] = rng.uniform(-1, 1, size=3)
        out.append(x)
    return out


def test_local_dimension_two_agents():
    g = InfoGraph(2, {(1, 2): 1.0})
    probs, maps, z_dim = build_local_problems(g, make_agents(2), 1,
                                              [np.zeros(6), np.zeros(6)])
    # two agents' states over t=0,1 plus two agents' inputs at t=0
    assert probs[0].dim == 2 * (6 * 2) + 2 * (3 * 1) == 30
    assert z_dim == 30


def test_z_dimension_stock_scenario():
    g = path_graph(5)
    _, _, z_dim = build_local_problems(g, make_agents(5), 10,
                                       [np.zeros(6)] * 5)
    assert z_dim == 5 * (6 * 11 + 3 * 10) == 480


def test_consensus_assignment_has_zero_cost():
    g = path_graph(3)
    agents = make_agents(3)
    probs, maps, z_dim = build_local_problems(g, agents, 4, [np.zeros(6)] * 3)
    layout = ZLayout(agents, 4)
    z = np.zeros(z_dim)
    common = np.array([1.0, 0.0, -2.0, 0.0, 0.5, 0.0])
    for j in range(1, 4):
        s0 = layout.state_offset(j, 0)
        z[s0:s0 + 5 * 6] = np.tile(common, 5)
    total = sum(p.cost(z[m]) for p, m in zip(probs, maps))
    assert abs(total) <= 1e-12


def test_build_rejects_bad_inputs():
    g = path_graph(2)
    with pytest.raises(ValueError):
        build_local_problems(g, make_agents(2), 0, [np.zeros(6)] * 2)
    with pytest.raises(ValueError):
        build_local_problems(g, make_agents(3), 1, [np.zeros(6)] * 2)
    with pytest.raises(ValueError):
        build_local_problems(g, make_agents(2), 1, [np.zeros(5), np.zeros(6)])


def test_local_hessians_are_psd():
    rng = np.random.default_rng(0)
    g = path_graph(4)
    probs, _, _ = build_local_problems(g, make_agents(4), 3, random_states(rng, 4))
    for p in probs:
        H = p.H.toarray()
        assert np.max(np.abs(H - H.T)) <= 1e-12
        assert np.linalg.eigvalsh(H).min() >= -1e-9


def test_map_copy_counts():
    g = path_graph(5)
    agents = make_agents(5)
    _, maps, z_dim = build_local_problems(g, agents, 2, [np.zeros(6)] * 5)
    counts = copy_counts(maps, z_dim)
    layout = ZLayout(agents, 2)
    for j in range(1, 6):
        expected = len(g.neighbors(j)) + 1
        s0 = layout.state_offset(j, 0)
        assert np.all(counts[s0:s0 + 6] == expected)
        u0 = layout.input_offset(j, 0)
        assert np.all(counts[u0:u0 + 3] == expected)


def test_cost_decomposition_identity_random():
    rng = np.random.default_rng(7)
    g = InfoGraph(4, {(1, 2): 0.7, (2, 3): 1.4, (3, 4): 0.3, (1, 4): 2.0})
    agents = make_agents(4)
    probs, maps, z_dim = build_local_problems(g, agents, 5, random_states(rng, 4))
    layout = ZLayout(agents, 5)
    for _ in range(25):
        z = rng.standard_normal(z_dim)
        local = sum(p.cost(z[m]) for p, m in zip(probs, maps))
        states, inputs = layout.decode(z)
        ref = global_cost(g, states, inputs)
        assert abs(local - ref) <= 1e-9 * max(1.0, abs(ref))


def test_global_cost_examples():
    g = InfoGraph(2, {(1, 2): 1.0})
    same = np.tile(np.arange(6.0), (4, 1))
    zero_u = np.zeros((3, 3))
    assert global_cost(g, [same, same.copy()], [zero_u, zero_u.copy()]) == 0.0

    other = same.copy()
    other[2, 0] += 1.0  # differ by e_1 at one step
    assert global_cost(g, [same, other], [zero_u, zero_u.copy()]) == pytest.approx(1.0)


def test_global_cost_matches_dense_laplacian_form():
    rng = np.random.default_rng(9)
    g = InfoGraph(3, {(1, 2): 1.3, (2, 3): 0.6})
    lap = g.laplacian()
    S = 4
    states = [rng.standard_normal((S, 6)) for _ in range(3)]
    inputs = [rng.standard_normal((S - 1, 3)) for _ in range(3)]
    # oracle: assemble the quadratic form from the Laplacian directly
    ref = 0.0
    for t in range(S):
        X = np.stack([states[j][t] for j in range(3)])  # (N, 6)
        for c in range(6):
            ref += X[:, c] @ lap @ X[:, c]
    ref += sum(float(np.sum(u ** 2)) for u in inputs)
    assert global_cost(g, states, inputs) == pytest.approx(ref, rel=1e-12)


def per_edge_cost(g, state_traj, input_traj):
    """The stage-cost oracle: one term per edge in `g.weights` order, then
    one per agent's inputs, each a numpy sum added to a Python float."""
    total = 0.0
    for (i, j), w in g.weights.items():
        d = state_traj[i - 1] - state_traj[j - 1]
        total += w * float(np.sum(d * d))
    for u in input_traj:
        total += float(np.sum(np.asarray(u) ** 2))
    return total


def random_weighted_graph(rng, N):
    pairs = [(i, j) for i in range(1, N + 1) for j in range(i + 1, N + 1)]
    keep = rng.random(len(pairs)) < rng.uniform(0.0, 1.0)
    return InfoGraph(N, {e: float(rng.uniform(0.05, 3.0)) for e, k in zip(pairs, keep) if k})


@pytest.mark.parametrize("seed", range(6))
def test_global_cost_is_the_per_edge_sum_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    graphs = [InfoGraph(1), InfoGraph(4), InfoGraph(3, {(1, 3): 0.7})]
    graphs += [random_weighted_graph(rng, int(rng.integers(1, 12))) for _ in range(40)]
    for k, g in enumerate(graphs):
        N, S = g.num_agents, k % 15 + 1  # S = 1..15
        n, m, S_u = (int(v) for v in rng.integers(1, 8, 3))
        states = [rng.standard_normal((S, n)) * rng.uniform(0.1, 10.0) for _ in range(N)]
        inputs = [rng.standard_normal((S_u, m)) for _ in range(N)]
        assert global_cost(g, states, inputs) == per_edge_cost(g, states, inputs)
        # stacked arrays, as the closed loop hands them over, give the same bits
        assert global_cost(g, np.stack(states), np.stack(inputs)) == \
            per_edge_cost(g, states, inputs)


def test_global_cost_names_the_first_agent_of_another_shape():
    g = path_graph(4)
    x, u = np.zeros((3, 6)), np.zeros((2, 3))
    with pytest.raises(ValueError, match=r"state trajectory of agent 3 has shape \(3, 5\)"):
        global_cost(g, [x, x, np.zeros((3, 5)), np.zeros((2, 6))], [u] * 4)
    with pytest.raises(ValueError, match=r"input trajectory of agent 2 has shape \(2, 2\)"):
        global_cost(g, [x] * 4, [u, np.zeros((2, 2)), u, np.zeros(6)])
    with pytest.raises(ValueError, match="state trajectory of agent 4 has shape \\(18,\\)"):
        global_cost(g, [x, x, x, np.zeros(18)], [u] * 4)


def test_global_cost_dimension_mismatch():
    g = InfoGraph(2, {(1, 2): 1.0})
    with pytest.raises(ValueError):
        global_cost(g, [np.zeros((3, 6))], [np.zeros((2, 3))])
    with pytest.raises(ValueError):
        global_cost(g, [np.zeros((3, 6)), np.zeros((2, 6))],
                    [np.zeros((2, 3)), np.zeros((2, 3))])


def condensed_qp(p):
    """Condensed box QP of `p` at its own measured states from the core
    routines, and its (M, c)."""
    (Mt,), (qp,) = condensed_qps([p], [p.H])
    c = condensed_maps(p, {j - 1: x for j, x in zip(p.members, p.x0)})
    qp.q = Mt @ (p.H @ c)
    return qp, (Mt.T, c)


def test_condense_single_agent_one_step():
    g = InfoGraph(1)
    a = double_integrator_3d(0.1, 1.0)
    probs, _, _ = build_local_problems(g, [a], 1, [np.zeros(6)])
    qp, _ = condensed_qp(probs[0])
    assert qp.dim == 3
    # no coupling: only the input energy survives, P = 2 I
    assert np.allclose(qp.dense(), 2.0 * np.eye(3))
    assert np.allclose(qp.q, 0.0)


def test_condense_consensus_start_needs_no_input():
    g = InfoGraph(2, {(1, 2): 1.0})
    probs, _, _ = build_local_problems(g, make_agents(2), 3,
                                       [np.zeros(6), np.zeros(6)])
    qp, _ = condensed_qp(probs[0])
    sol = solve_box_qp(qp, tol=1e-10, max_iter=10000)
    assert sol.status == "optimal"
    assert np.max(np.abs(sol.x_star)) <= 1e-8


def test_condense_matches_equality_qp_oracle():
    rng = np.random.default_rng(11)
    g = InfoGraph(2, {(1, 2): 1.3})
    agents = make_agents(2, u_max=np.inf)
    probs, _, _ = build_local_problems(g, agents, 2, random_states(rng, 2))
    for p in probs:
        qp, (M, c) = condensed_qp(p)
        sol = solve_box_qp(qp, tol=1e-10, max_iter=20000)
        assert sol.status == "optimal"
        x_cond = M @ sol.x_star + c
        A_eq, b_eq = dynamics_equalities(p)
        x_ref = solve_equality_qp(p.H.toarray(), np.zeros(p.dim), A_eq, b_eq)
        assert np.max(np.abs(x_cond - x_ref)) <= 1e-6
        assert np.max(np.abs(A_eq @ x_cond - b_eq)) <= 1e-10


def test_augment_value_matches_term_by_term():
    # the x-update's condensed QP is the augmented local cost over x = M u + c
    rng = np.random.default_rng(3)
    g = InfoGraph(2, {(1, 2): 1.0})
    probs, maps, z_dim = build_local_problems(g, make_agents(2), 2, random_states(rng, 2))
    p, m = probs[0], maps[0]
    z = rng.standard_normal(z_dim)
    lam = rng.standard_normal(p.dim)
    rho = 1.7
    # agent 0's q from the engine's network map, with a zero linear term for agent 1
    engine = AdmmEngine(probs, maps, rho, qp_tol=1e-9)
    v = np.concatenate([lam - rho * z[m], np.zeros(probs[1].dim)])
    q = (engine.q_static + engine.Mt @ v)[engine.u_slices[0]]
    M, c, P = engine.M[:p.dim, engine.u_slices[0]], engine.c[:p.dim], engine.caches[0].qp.dense()

    def augmented(x):
        d = x - z[m]
        return p.cost(x) + lam @ d + 0.5 * rho * (d @ d)

    # constant terms are dropped from the condensed quadratic; compare
    # differences against a reference point
    u_ref = np.zeros(M.shape[1])
    for _ in range(5):
        u = rng.standard_normal(M.shape[1])
        got = 0.5 * u @ P @ u + q @ u
        expected = augmented(M @ u + c) - augmented(M @ u_ref + c)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_centralized_hessian_is_sum_of_local_hessians():
    # cost decomposition: H = sum_i E_i' H_i E_i, on non-unit edge weights
    rng = np.random.default_rng(21)
    for _ in range(10):
        g = random_connected_graph(rng, n_max=6)
        T = int(rng.integers(1, 5))
        agents = make_agents(g.num_agents)
        x0 = random_states(rng, g.num_agents)
        probs, maps, z_dim = build_local_problems(g, agents, T, x0)
        total = np.zeros((z_dim, z_dim))
        for p, m in zip(probs, maps):
            total[np.ix_(m, m)] += p.H
        block = build_centralized_qp(g, agents, T, x0)[0]
        assert np.max(np.abs(block.H - total)) <= 1e-12
