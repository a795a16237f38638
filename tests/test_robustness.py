"""Residual-converged ADMM against the centralized solve on random graphs with
agents that are not all alike, with the dual-average and cost-decomposition
invariants on the same scenarios, and closed loops under extreme settings."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from test_blocks import kkt  # noqa: E402
from test_stacked import scenarios  # noqa: E402

from dmpc import (InfoGraph, LtiAgent, SimConfig, build_local_problems,  # noqa: E402
                  global_cost, path_graph, rollout, run_admm, run_closed_loop,
                  solve_centralized)
from dmpc import admm  # noqa: E402
from dmpc.problem import ZLayout  # noqa: E402

MIX = np.array([[1.0, 0.4, 0.0], [0.0, 1.0, 0.3], [0.2, 0.0, 1.0]])


@settings(max_examples=50, deadline=None)
@given(scenarios(max_agents=8, max_horizon=6), st.integers(0, 7))
def test_converged_admm_equals_centralized_on_random_graphs(scenario, mixed):
    g, agents, T, _, seed = scenario
    j = mixed % len(agents)  # this agent's inputs act across axes
    agents[j] = LtiAgent(agents[j].A, agents[j].B @ MIX, u_max=agents[j].u_max)
    rng = np.random.default_rng(seed)
    x0 = []
    for _ in agents:
        x = np.empty(6)
        x[0::2] = rng.uniform(-2.0, 2.0, 3)
        x[1::2] = rng.uniform(-1.0, 1.0, 3)
        x0.append(x)
    probs, maps, _ = build_local_problems(g, agents, T, x0)
    res = run_admm(probs, maps, rho=1.0, max_iter=5000, eps_primal=1e-8, eps_dual=1e-8,
                   qp_tol=1e-8, track_dual_average=True)
    assert res.converged
    # the mapped duals of every z component sum to zero after each iteration
    assert res.max_dual_avg_violation <= 1e-9
    # cost decomposition: the local costs of any z's copies sum to its global cost
    z = rng.standard_normal(res.z.size)
    states, inputs = ZLayout(agents, T).decode(z)
    ref = global_cost(g, states, inputs)
    assert abs(sum(p.cost(z[m]) for p, m in zip(probs, maps)) - ref) <= 1e-9 * ref
    plans_c, cost_c = solve_centralized(g, agents, T, x0, tol=1e-10)
    _, u_admm = ZLayout(agents, T).decode(res.z)
    # criterion 1's tolerances
    assert max(float(np.max(np.abs(u - c))) for u, c in zip(u_admm, plans_c)) <= 1e-4
    states = [rollout(a, x, u) for a, x, u in zip(agents, x0, u_admm)]
    assert abs(global_cost(g, states, u_admm) - cost_c) <= 1e-6 * max(cost_c, 1e-12)


TWO_PAIRS = InfoGraph(4, {(1, 2): 1.0, (3, 4): 1.0})  # not connected


@pytest.mark.parametrize("solver", ["admm", "dual_decomp"])
@pytest.mark.parametrize("g, overrides", [
    (path_graph(5), {"rho": 1e-4}),
    (path_graph(5), {"rho": 1e4}),
    (path_graph(5), {"u_max": 1e-3}),
    (TWO_PAIRS, {}),
], ids=["rho-1e-4", "rho-1e4", "u_max-1e-3", "disconnected"])
def test_extreme_settings_complete_with_kkt_x_updates(monkeypatch, solver, g, overrides):
    cfg = SimConfig(num_steps=3, solver_kind=solver, **overrides)
    seen = []
    solve = admm.solve_box_qp

    def spy(qp, **kw):
        sol = solve(qp, **kw)
        seen.append((sol.status, kkt(qp, sol.x_star, kw["q"])))
        return sol

    monkeypatch.setattr(admm, "solve_box_qp", spy)
    log = run_closed_loop(g, cfg)
    assert log.aborted_at is None
    assert np.max(np.abs(log.inputs)) <= cfg.u_max
    assert len(seen) == g.num_agents * cfg.admm_iterations * cfg.num_steps
    assert all(status == "optimal" and r <= cfg.qp_tol for status, r in seen)


@pytest.mark.parametrize("solver", ["admm", "dual_decomp", "centralized"])
def test_disconnected_graph_runs_each_component_alone(solver):
    # consensus is reached only inside each component: the loop on two
    # unlinked pairs is the two loops on the pairs
    cfg = SimConfig(num_steps=4, solver_kind=solver)
    both = run_closed_loop(TWO_PAIRS, cfg)
    pair = InfoGraph(2, {(1, 2): 1.0})
    for rows in (slice(0, 2), slice(2, 4)):
        alone = run_closed_loop(pair, cfg, initial_states=list(both.states[0, rows]),
                                noise=both.noise_draws[:, rows])
        assert np.allclose(alone.states, both.states[:, rows], rtol=0.0, atol=1e-9)
        assert np.allclose(alone.inputs, both.inputs[:, rows], rtol=0.0, atol=1e-9)
