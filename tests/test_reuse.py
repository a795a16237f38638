"""Set-up built once and rebound: one ADMM engine per sweep trial, one engine
at rho = 0 per dual-decomposition loop, and the per-step QP counters of every
loop, warm-face exits among them."""

import importlib.util
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dmpc import (InfoGraph, SimConfig, build_local_problems, double_integrator_3d,
                  draw_initial_states, iteration_sweep, path_graph, run_closed_loop,
                  run_dual_decomposition)
from dmpc import admm, simulation
from dmpc.admm import QpCounters
from dmpc.simulation import _first_inputs, admm_engine, default_agents
from test_sharing import grid

_spec = importlib.util.spec_from_file_location(
    "perfbench_spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

TIMES = ("wall_time", "critical_path_s")


def small_cfg(**overrides):
    # the stock ranges saturate the first steps: Newton solves from warm starts
    base = dict(num_steps=5, horizon=5, admm_iterations=10, rng_seed=3)
    base.update(overrides)
    return SimConfig(**base)


def untimed(stats):
    return [{k: v for k, v in s.items() if k not in TIMES} for s in stats]


class CountingPool(ThreadPoolExecutor):
    """A thread pool that records its creation and every shutdown."""

    made, shut = [], []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.made.append(self)

    def shutdown(self, *args, **kwargs):
        self.shut.append(self)
        super().shutdown(*args, **kwargs)


def sweep_loops(monkeypatch, g, cfg, k_values, trials, fresh):
    """iteration_sweep's rows and every loop it ran as (kind, engine, log);
    with `fresh`, each loop builds its own engine as before engines were shared."""
    loops = []
    run = simulation.run_closed_loop

    def capture(g, cfg, *args, engine=None, **kwargs):
        log = run(g, cfg, *args, engine=None if fresh else engine, **kwargs)
        loops.append((cfg.solver_kind, engine, log))
        return log

    monkeypatch.setattr(simulation, "run_closed_loop", capture)
    rows = iteration_sweep(g, cfg, k_values, num_trials=trials, base_seed=5)
    monkeypatch.setattr(simulation, "run_closed_loop", run)
    return rows, loops


@pytest.mark.parametrize("overrides", [dict(warm_start=True), dict(warm_start=False),
                                       dict(warm_start=True, parallel_agents=True)],
                         ids=["warm", "cold", "parallel"])
def test_sweep_loops_on_one_engine_equal_loops_built_fresh(monkeypatch, overrides):
    monkeypatch.setattr(admm, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(CountingPool, "made", [])
    monkeypatch.setattr(CountingPool, "shut", [])
    g, cfg, k_values, trials = path_graph(4), small_cfg(**overrides), [1, 3, 10], 2
    rows, shared = sweep_loops(monkeypatch, g, cfg, k_values, trials, fresh=False)
    pools, shut = list(CountingPool.made), list(CountingPool.shut)
    rows_fresh, fresh = sweep_loops(monkeypatch, g, cfg, k_values, trials, fresh=True)
    assert rows == rows_fresh
    assert len(shared) == len(fresh) == trials * (1 + len(k_values))
    for (kind, _, a), (kind_f, _, b) in zip(shared, fresh):
        assert kind == kind_f
        assert a.aborted_at is None and b.aborted_at is None
        assert np.array_equal(a.states, b.states) and np.array_equal(a.inputs, b.inputs)
        assert untimed(a.solver_stats) == untimed(b.solver_stats)
    # each trial: the reference loop on no engine, then every K on one engine of its own
    for t in range(trials):
        trial = shared[t * (1 + len(k_values)):(t + 1) * (1 + len(k_values))]
        assert trial[0][:2] == ("centralized", None)
        engines = {id(e) for kind, e, _ in trial[1:]}
        assert len(engines) == 1 and None not in {e for _, e, _ in trial[1:]}
    assert len({id(e) for _, e, _ in shared if e is not None}) == trials
    if cfg.parallel_agents:
        # one pool per trial, alive through its K loops, shut down once
        assert len(pools) == trials
        assert Counter(map(id, shut)) == Counter(map(id, pools))
    else:
        assert pools == []


def test_given_engine_starts_cold_and_stays_open():
    g, cfg = path_graph(3), small_cfg(parallel_agents=True)
    agents = default_agents(g, cfg)
    x0 = draw_initial_states(g, cfg, np.random.default_rng(1))
    ref = run_closed_loop(g, cfg, agents=agents, initial_states=x0)
    engine = admm_engine(g, agents, cfg, x0)
    try:
        for K in (2, cfg.admm_iterations):  # the first loop leaves warm starts behind
            log = run_closed_loop(g, replace(cfg, admm_iterations=K), agents=agents,
                                  initial_states=x0, noise=ref.noise_draws, engine=engine)
        assert not engine.pool._shutdown
    finally:
        engine.close()
    assert np.array_equal(log.states, ref.states) and np.array_equal(log.inputs, ref.inputs)
    assert untimed(log.solver_stats) == untimed(ref.solver_stats)


@pytest.mark.parametrize("change, match", [
    (dict(horizon=4), "horizon"), (dict(rho=2.0), "rho"), (dict(qp_tol=1e-7), "qp_tol"),
    (dict(parallel_agents=True), "parallel_agents"), ("agents", "agent count"),
    (dict(solver_kind="centralized"), "centralized"),
    (dict(solver_kind="dual_decomp"), "dual_decomp")])
def test_mismatched_engine_raises(change, match):
    g, cfg = path_graph(3), small_cfg(num_steps=2)
    agents = default_agents(g, cfg)
    x0 = draw_initial_states(g, cfg, np.random.default_rng(0))
    engine = admm_engine(g, agents, cfg, x0)
    if change == "agents":
        g = path_graph(4)
        agents, x0 = default_agents(g, cfg), draw_initial_states(g, cfg, np.random.default_rng(0))
    else:
        cfg = replace(cfg, **change)
    with pytest.raises(ValueError, match=match):
        run_closed_loop(g, cfg, agents=agents, initial_states=x0, engine=engine)


@pytest.mark.parametrize("other, match", [
    ("star", "^the engine's edges differ from the run's$"),
    ("heavy", "^the engine's agents differ from the run's$"),
    ("low", "^the engine's agents differ from the run's$")],
    ids=["star", "heavy", "low"])
def test_engine_for_another_graph_or_other_agents_raises(other, match):
    path, cfg = path_graph(5), small_cfg(num_steps=2)
    g, agents = path, default_agents(path, cfg)
    x0 = draw_initial_states(path, cfg, np.random.default_rng(0))
    if other == "star":  # the path's agent count, horizon and config
        g = InfoGraph(5, {(1, j): 1.0 for j in range(2, 6)})
        engine = admm_engine(path, agents, cfg, x0)
    else:  # the engine's agents are heavier, or have a smaller input bound, than the run's
        built = (double_integrator_3d(cfg.ts, 2.0 * cfg.mass, cfg.u_max) if other == "heavy"
                 else double_integrator_3d(cfg.ts, cfg.mass, 0.5 * cfg.u_max))
        engine = admm_engine(path, [built] * 5, cfg, x0)
    try:
        with pytest.raises(ValueError, match=match):
            run_closed_loop(g, cfg, agents=agents, initial_states=x0, engine=engine)
    finally:
        engine.close()
    # an engine built anew for the same agents, equal by value, is accepted
    copies = [double_integrator_3d(cfg.ts, cfg.mass, cfg.u_max) for _ in range(5)]
    engine = admm_engine(path, copies, cfg, x0)
    log = run_closed_loop(path, cfg, agents=agents, initial_states=x0, engine=engine)
    assert log.aborted_at is None


@pytest.mark.parametrize("field", ["agent count", "edges", "agents", "horizon", "rho", "qp_tol",
                                   "parallel_agents"])
def test_an_engine_is_refused_before_step_0_naming_each_field_that_differs(monkeypatch, field):
    def never(*args, **kwargs):
        raise AssertionError("the engine ran a step")

    g, cfg = path_graph(3), small_cfg(num_steps=2)
    agents = default_agents(g, cfg)
    x0 = draw_initial_states(g, cfg, np.random.default_rng(0))
    engine = admm_engine(g, agents, cfg, x0)
    monkeypatch.setattr(engine, "run", never)
    monkeypatch.setattr(engine, "rebind_states", never)
    names = field
    if field == "agent count":  # then the edges and the agents differ too
        names = "agent count, edges, agents"
        g = path_graph(4)
        agents = default_agents(g, cfg)
        x0 = draw_initial_states(g, cfg, np.random.default_rng(0))
    elif field == "edges":  # a star on agent 1: the same count and agents
        g = InfoGraph(3, {(1, 2): 1.0, (1, 3): 1.0})
    elif field == "agents":
        agents = [agents[0], double_integrator_3d(cfg.ts, 2.0 * cfg.mass, cfg.u_max), agents[2]]
    else:
        cfg = replace(cfg, **{field: {"horizon": 4, "rho": 2.0, "qp_tol": 1e-7,
                                      "parallel_agents": True}[field]})
    try:
        with pytest.raises(ValueError, match=f"^the engine's {names} differ from the run's$"):
            run_closed_loop(g, cfg, agents=agents, initial_states=x0, engine=engine)
    finally:
        engine.close()


def test_an_engine_for_other_edge_weights_is_refused():
    # once accepted: the engine planned with weight 1.0 while the loop charged
    # 2.0, here a total cost of 3455.41 against the run's own 3349.81
    cfg = small_cfg(num_steps=20)
    g, built = path_graph(3, weight=2.0), path_graph(3)
    agents = default_agents(g, cfg)
    x0 = draw_initial_states(g, cfg, np.random.default_rng(0))
    engine = admm_engine(built, agents, cfg, x0)
    try:
        with pytest.raises(ValueError, match="^the engine's edges differ from the run's$"):
            run_closed_loop(g, cfg, agents=agents, initial_states=x0, engine=engine)
    finally:
        engine.close()
    ref = run_closed_loop(g, cfg, agents=agents, initial_states=x0)
    engine = admm_engine(g, agents, cfg, x0)
    try:
        log = run_closed_loop(g, cfg, agents=agents, initial_states=x0, noise=ref.noise_draws,
                              engine=engine)
    finally:
        engine.close()
    assert np.array_equal(log.states, ref.states) and log.total_cost == ref.total_cost


def test_an_engine_not_built_by_admm_engine_is_refused():
    g, cfg = path_graph(3), small_cfg(num_steps=2)
    agents = default_agents(g, cfg)
    x0 = draw_initial_states(g, cfg, np.random.default_rng(0))
    probs, maps, _ = build_local_problems(g, agents, cfg.horizon, x0)
    engine = admm.AdmmEngine(probs, maps, cfg.rho, qp_tol=cfg.qp_tol)
    with pytest.raises(ValueError, match="^the engine has no record: build it with admm_engine$"):
        run_closed_loop(g, cfg, agents=agents, initial_states=x0, engine=engine)


def test_dual_decomposition_loop_rebinds_one_network_map(monkeypatch):
    g, cfg = path_graph(5), small_cfg(solver_kind="dual_decomp", num_steps=3, horizon=10,
                                      admm_iterations=30)
    built = []
    init = admm.AdmmEngine.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(admm.AdmmEngine, "__init__", counted)
    log = run_closed_loop(g, cfg)
    assert log.aborted_at is None and len(built) == 1
    # each step equals a run on problems built afresh at its measured state
    agents = default_agents(g, cfg)
    for t in range(cfg.num_steps):
        probs, maps, _ = build_local_problems(g, agents, cfg.horizon, list(log.states[t]))
        engine = admm.AdmmEngine(probs, maps, 0.0, qp_tol=admm.DD_QP_TOL)
        plans, history = run_dual_decomposition(engine, lambda k: 1.0 / k, cfg.admm_iterations)
        first = np.clip(_first_inputs(probs, plans), -cfg.u_max, cfg.u_max)
        assert np.array_equal(first, log.inputs[t])
        stats = untimed([log.solver_stats[t]])[0]
        assert stats == {"iterations": cfg.admm_iterations, "r_primal": history[-1][1],
                         "r_dual": stats["r_dual"], **untimed([engine.qps.stats()])[0]}


def unlike_agents_on_a_random_graph():
    rng = np.random.default_rng(11)
    n = 5
    edges = {(j, i): float(rng.uniform(0.5, 2.0)) for i in range(2, n + 1)
             for j in [int(rng.integers(1, i))]}
    edges[(1, n)] = 0.75
    agents = [double_integrator_3d(0.1, float(m), float(u))
              for m, u in zip(rng.uniform(0.5, 3.0, n), rng.uniform(0.3, 2.0, n))]
    return InfoGraph(n, edges), agents


@pytest.mark.parametrize("kind", ["admm", "dual_decomp"])
@pytest.mark.parametrize("scenario", ["path5", "random-unlike"])
def test_step_qp_counts_equal_a_spy_on_solve_box_qp(monkeypatch, kind, scenario):
    if scenario == "path5":
        g, agents = path_graph(5), None
    else:
        g, agents = unlike_agents_on_a_random_graph()
    cfg = SimConfig(num_steps=3, horizon=6, admm_iterations=8, rng_seed=2, solver_kind=kind,
                    warm_start=scenario == "path5")
    seen = []
    solve = admm.solve_box_qp

    def spy(qp, **kwargs):
        sol = solve(qp, **kwargs)
        seen.append(sol)
        return sol

    monkeypatch.setattr(admm, "solve_box_qp", spy)
    log = run_closed_loop(g, cfg, agents=agents)
    assert log.aborted_at is None
    per_step = g.num_agents * cfg.admm_iterations
    assert len(seen) == per_step * cfg.num_steps
    paths = {"closed_form": "qp_closed_form", "start_point": "qp_warm_face",
             "polish": "qp_newton_one", "gradient": "qp_newton_more"}
    for t, stats in enumerate(log.solver_stats):
        sols = seen[t * per_step:(t + 1) * per_step]
        counted = Counter(paths[spans.qp_path(sol)] for sol in sols)
        assert {key: stats[key] for key in paths.values()} == \
            {key: counted[key] for key in paths.values()}
        assert sum(stats[key] for key in paths.values()) == per_step
        assert stats["qp_newton_iterations"] == sum(
            max(len(s.objective_history) - 1, 0) for s in sols)
        assert stats["qp_max_kkt_residual"] == max(s.kkt_residual for s in sols)
        assert stats["qp_schur_reused"] == sum(s.schur_reused for s in sols)
        assert 0.0 < stats["critical_path_s"] <= stats["wall_time"]
    # the sum over iterations of the slowest agent's QP time
    times = log.solve_times.reshape(cfg.num_steps, cfg.admm_iterations, g.num_agents)
    assert np.allclose([s["critical_path_s"] for s in log.solver_stats],
                       times.max(axis=2).sum(axis=1), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("scenario", ["path5", "grid", "random-unlike"])
def test_most_warm_x_updates_end_on_their_start_face(scenario):
    g, agents = {"path5": (path_graph(5), None), "grid": (grid(4, 5), None),
                 "random-unlike": unlike_agents_on_a_random_graph()}[scenario]
    cfg = SimConfig(num_steps=3, horizon=6, admm_iterations=8, rng_seed=2)
    log = run_closed_loop(g, cfg, agents=agents)
    assert log.aborted_at is None
    paths = ("qp_closed_form", "qp_warm_face", "qp_newton_one", "qp_newton_more")
    for stats in log.solver_stats:
        assert sum(stats[key] for key in paths) == g.num_agents * cfg.admm_iterations
    assert QpCounters.totals(log.solver_stats)["qp_warm_face"] > 0
