"""Self-check suites: solver-vs-oracle audits and closed-loop reproductions."""

import numpy as np

from .dynamics import double_integrator_3d, rollout
from .graph import InfoGraph, check_count, path_graph
from .problem import ZLayout, build_local_problems, global_cost
from .qp import BoxQp, enumerate_box_qp, solve_box_qp
from .admm import run_admm
from .simulation import (SimConfig, draw_initial_states, iteration_sweep,
                         run_closed_loop, solve_centralized)


def random_connected_graph(rng, n_max=4):
    n = int(rng.integers(2, n_max + 1))
    weights = {}
    for i in range(2, n + 1):  # spanning tree first
        j = int(rng.integers(1, i))
        weights[(j, i)] = float(rng.uniform(0.5, 2.0))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in weights and rng.random() < 0.3:
                weights[(i, j)] = float(rng.uniform(0.5, 2.0))
    return InfoGraph(n, weights)


def random_scenario(rng, n_max=4, t_max=5):
    g = random_connected_graph(rng, n_max)
    T = int(rng.integers(1, t_max + 1))
    agents = [double_integrator_3d(0.1, 1.0, u_max=1.0) for _ in range(g.num_agents)]
    return g, agents, T, draw_initial_states(g, SimConfig(pos_range=(-2.0, 2.0)), rng)


def qp_audit(num_instances=100, seed=7):
    """Iterative box-QP solver vs the exhaustive active-set oracle, on each
    instance cold and then warm: from the cold solution, q nudged."""
    rng, nudge = np.random.default_rng(seed), np.random.default_rng(seed + 1)
    worst = {"cold": [0.0, 0.0], "warm": [0.0, 0.0]}  # |obj diff|, |arg diff|
    for _ in range(num_instances):
        n = int(rng.integers(1, 5))
        G = rng.standard_normal((n, n))
        P = G @ G.T + 1e-3 * np.eye(n)
        q = rng.standard_normal(n)
        qp, x0 = BoxQp(P, q, -np.ones(n), np.ones(n)), None
        for start, gap in worst.items():  # one QP, so the warm solve meets the cold one's face
            sol = solve_box_qp(qp, tol=1e-8, max_iter=50000, x0=x0, q=q)
            x_ref, f_ref = enumerate_box_qp(BoxQp(P, q, qp.lower, qp.upper))
            if sol.status != "optimal":
                return False, f"solver status {sol.status} on n={n}, {start} start"
            gap[0] = max(gap[0], abs(sol.objective - f_ref))
            gap[1] = max(gap[1], float(np.max(np.abs(sol.x_star - x_ref))))
            x0, q = sol.x_star, q + 0.1 * nudge.standard_normal(n)
    ok = all(obj <= 1e-9 and arg <= 1e-6 for obj, arg in worst.values())
    return ok, ", ".join(f"{start}: max |obj diff|={obj:.3e}, max |arg diff|={arg:.3e}"
                         for start, (obj, arg) in worst.items())


def admm_vs_centralized(num_scenarios=10, seed=3):
    """Residual-converged ADMM must match the centralized optimum."""
    rng = np.random.default_rng(seed)
    worst_u = worst_cost = 0.0
    for _ in range(num_scenarios):
        g, agents, T, x0 = random_scenario(rng)
        problems, maps, z_dim = build_local_problems(g, agents, T, x0)
        result = run_admm(problems, maps, rho=1.0, max_iter=5000,
                          eps_primal=1e-8, eps_dual=1e-8, qp_tol=1e-8)
        if not result.converged:
            return False, f"ADMM did not reach 1e-8 residuals on N={g.num_agents}, T={T}"
        plans_c, cost_c = solve_centralized(g, agents, T, x0, tol=1e-10)
        layout = ZLayout(agents, T)
        _, u_admm = layout.decode(result.z)
        du = max(float(np.max(np.abs(u_admm[j] - plans_c[j]))) for j in range(g.num_agents))
        states = [rollout(a, x, u_admm[j]) for j, (a, x) in enumerate(zip(agents, x0))]
        cost_a = global_cost(g, states, u_admm)
        worst_u = max(worst_u, du)
        worst_cost = max(worst_cost, abs(cost_a - cost_c) / max(cost_c, 1e-12))
    ok = worst_u <= 1e-4 and worst_cost <= 1e-6
    return ok, f"max input diff={worst_u:.3e}, max relative cost diff={worst_cost:.3e}"


def cost_decomposition(num_assignments=1000, seed=11):
    """Sum of local costs equals the global cost on consistent copies."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(num_assignments):
        if trial % 200 == 0:
            g, agents, T, x0 = random_scenario(rng)
            problems, maps, z_dim = build_local_problems(g, agents, T, x0)
            layout = ZLayout(agents, T)
        z = rng.standard_normal(z_dim)
        local_sum = sum(p.cost(z[m]) for p, m in zip(problems, maps))
        states, inputs = layout.decode(z)
        ref = global_cost(g, states, inputs)
        worst = max(worst, abs(local_sum - ref) / max(abs(ref), 1e-12))
    return bool(worst <= 1e-9), f"max relative mismatch={worst:.3e}"


def dual_average_zero(num_steps=20, admm_iterations=30, seed=5):
    """Mapped duals of every z component sum to zero from iteration 1 on."""
    g = path_graph(5)
    cfg = SimConfig(num_steps=num_steps, admm_iterations=admm_iterations,
                    rng_seed=seed)
    log = run_closed_loop(g, cfg, track_dual_average=True)
    ok = log.max_dual_avg_violation <= 1e-9 and log.aborted_at is None
    return ok, f"max |sum of mapped duals|={log.max_dual_avg_violation:.3e}"


def consensus_achievement(seed=2):
    """Noiseless stock scenario contracts pairwise spreads below 1%."""
    g = path_graph(5)
    cfg = SimConfig(noise_variance=0.0, rng_seed=seed)
    log = run_closed_loop(g, cfg)
    if log.aborted_at is not None:
        return False, f"run aborted at step {log.aborted_at}"

    def spread(arr):  # arr: (N, 3)
        d = arr[:, None, :] - arr[None, :, :]
        return float(np.max(np.linalg.norm(d, axis=-1)))

    pos0, vel0 = log.states[0][:, 0::2], log.states[0][:, 1::2]
    posT, velT = log.states[-1][:, 0::2], log.states[-1][:, 1::2]
    rp = spread(posT) / spread(pos0)
    rv = spread(velT) / spread(vel0)
    ok = rp <= 0.01 and rv <= 0.01
    return ok, f"final/initial spread: positions {rp:.3e}, velocities {rv:.3e}"


def budget_sweep(k_values=(1, 2, 5, 10, 30), num_trials=20, seed=100, n_jobs=1):
    """Paired iteration-budget sweep; checks the excess-cost targets."""
    g = path_graph(5)
    cfg = SimConfig(rng_seed=seed, warm_start=False)
    rows = iteration_sweep(g, cfg, list(k_values), num_trials, n_jobs=n_jobs)
    by_k = {K: mean for K, mean, _, _ in rows}
    ok = True
    if 30 in by_k:
        ok &= by_k[30] <= 3.0
    if 10 in by_k:
        ok &= by_k[10] <= 5.0
    if 1 in by_k and 10 in by_k:
        ok &= by_k[1] >= 5.0 * by_k[10]
    detail = ", ".join(f"K={K}: {mean:.3f}% (std {std:.3f})" for K, mean, std, _ in rows)
    return ok, detail, rows


def run_suites(level="fast", n_jobs=1):
    """An iterator running the suites of `level`, yielding (name, ok, detail);
    ValueError at once for an unknown level or an n_jobs `check_count` refuses."""
    if level not in ("fast", "full"):
        raise ValueError(f"unknown level {level!r}; expected 'fast' or 'full'")
    check_count("n_jobs", n_jobs)
    full = level == "full"
    suites = [("qp_vs_active_set", qp_audit),
              ("admm_vs_centralized", lambda: admm_vs_centralized(10 if full else 4)),
              ("cost_decomposition", lambda: cost_decomposition(1000 if full else 200)),
              ("dual_average_zero", lambda: dual_average_zero(250 if full else 20))]
    if full:
        suites += [("consensus_achievement", consensus_achievement),
                   ("iteration_budget_sweep", lambda: budget_sweep(n_jobs=n_jobs)[:2])]
    return ((name, *run()) for name, run in suites)
