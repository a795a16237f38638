import pickle
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dmpc import (InfoGraph, LtiAgent, QpSolution, SimConfig, SweepTrialAborted,
                  build_local_problems, draw_initial_states, draw_noise, iteration_sweep,
                  path_graph, performance_ratio, run_closed_loop, solve_centralized)
from dmpc import admm, simulation
from dmpc.simulation import _CentralizedCache, default_agents
from dmpc.verify import run_suites


def small_cfg(**overrides):
    base = dict(num_steps=8, horizon=5, admm_iterations=10, noise_variance=0.0,
                rng_seed=3, pos_range=(-2.0, 2.0), vel_range=(-0.5, 0.5))
    base.update(overrides)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(num_steps=0)
    with pytest.raises(ValueError):
        SimConfig(solver_kind="magic")
    with pytest.raises(ValueError):
        SimConfig(admm_iterations=0)
    with pytest.raises(ValueError):
        SimConfig(noise_variance=-0.1)


BAD_FIELDS = [
    ("horizon", 0), ("rho", 0.0), ("rho", -1.0), ("qp_tol", 0.0), ("qp_tol", -1.0),
    ("pos_range", (3.0, 1.0)), ("vel_range", (0.5, -0.5)), ("admm_iterations", 0),
    ("rng_seed", -1)]


@pytest.mark.parametrize("name, value", BAD_FIELDS)
def test_config_rejects_bad_fields(name, value):
    with pytest.raises(ValueError, match=name):
        SimConfig(**{name: value})


@pytest.mark.parametrize("name, value", [
    ("rho", np.inf), ("rho", np.nan), ("noise_variance", np.nan), ("noise_variance", np.inf),
    ("pos_range", (0.0, np.nan)), ("pos_range", (-np.inf, 1.0)), ("vel_range", (-1.0, np.inf))])
def test_config_and_engine_reject_non_finite_settings(name, value):
    # the config parser refuses these too; the library's own entry points must as well
    with pytest.raises(ValueError, match=f"{name} [a-z ,]*finite"):
        SimConfig(**{name: value})
    if name == "rho":
        g = path_graph(3)
        probs, maps, _ = build_local_problems(g, default_agents(g, SimConfig()), 4,
                                              [np.zeros(6)] * 3)
        with pytest.raises(ValueError, match="rho must be [a-z ]*finite"):
            admm.AdmmEngine(probs, maps, value)


@pytest.mark.parametrize("qp_tol", [np.inf, np.nan, 0.0, -1.0])
def test_config_and_engine_refuse_a_qp_tol_not_positive_and_finite(qp_tol):
    # at inf every QP of a stock loop ended optimal at KKT residuals up to 1.5;
    # an engine refused -1 only at its first solve, in solve_box_qp's words
    message = f"^qp_tol must be positive and finite, got {qp_tol}$"
    with pytest.raises(ValueError, match=message):
        SimConfig(qp_tol=qp_tol)
    g = path_graph(3)
    probs, maps, _ = build_local_problems(g, default_agents(g, SimConfig()), 4,
                                          [np.zeros(6)] * 3)
    with pytest.raises(ValueError, match=message):
        admm.AdmmEngine(probs, maps, 1.0, qp_tol=qp_tol)


@pytest.mark.parametrize("name", ["num_steps", "horizon", "admm_iterations", "rng_seed"])
@pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3.0), "3", None, True, False, np.True_])
@pytest.mark.parametrize("kind", ["admm", "centralized"])
def test_config_refuses_a_count_that_is_not_an_integer(name, value, kind):
    # it used to build, and the loop then died in a TypeError; a bool used to
    # build and keep True, as operator.index takes it as 1
    message = f"^{name} must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        SimConfig(solver_kind=kind, **{name: value})
    assert getattr(SimConfig(solver_kind=kind, **{name: np.int32(3)}), name) == 3


@pytest.mark.parametrize("name", ["warm_start", "parallel_agents"])
@pytest.mark.parametrize("value", ["no", "false", 0, 1, None, np.True_])
def test_config_refuses_a_flag_that_is_not_a_bool(name, value):
    # "no" used to build and run warm, "false" to start a thread pool
    message = f"^{name} must be True or False, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        SimConfig(**{name: value})
    for flag in (True, False):
        assert getattr(SimConfig(**{name: flag}), name) is flag


@pytest.mark.parametrize("name, value", BAD_FIELDS)
def test_dual_decomp_config_rejects_bad_fields(name, value):
    with pytest.raises(ValueError, match=name):
        SimConfig(solver_kind="dual_decomp", **{name: value})


def test_draw_initial_states_within_ranges():
    g = path_graph(4)
    cfg = small_cfg(pos_range=(-3.0, -1.0), vel_range=(0.2, 0.4))
    rng = np.random.default_rng(0)
    for x in draw_initial_states(g, cfg, rng):
        assert np.all(x[0::2] >= -3.0) and np.all(x[0::2] <= -1.0)
        assert np.all(x[1::2] >= 0.2) and np.all(x[1::2] <= 0.4)


def test_draw_noise_shape_and_scale():
    g = path_graph(3)
    cfg = small_cfg(num_steps=2000, noise_variance=0.25)
    w = draw_noise(g, cfg, np.random.default_rng(1))
    assert w.shape == (2000, 3, 3)
    assert np.var(w) == pytest.approx(0.25, rel=0.1)
    assert np.all(draw_noise(g, small_cfg(), np.random.default_rng(1)) == 0.0)


def test_rest_at_origin_is_a_fixed_point():
    g = path_graph(3)
    cfg = small_cfg()
    log = run_closed_loop(g, cfg, initial_states=[np.zeros(6)] * 3)
    assert np.max(np.abs(log.inputs)) <= 1e-8
    assert log.total_cost <= 1e-12
    assert log.aborted_at is None


def test_noiseless_run_contracts_disagreement():
    g = path_graph(3)
    cfg = small_cfg(num_steps=250, admm_iterations=30)
    log = run_closed_loop(g, cfg)
    pos = log.states[:, :, 0::2]
    spread0 = np.max(np.abs(pos[0] - pos[0].mean(axis=0)))
    spread_end = np.max(np.abs(pos[-1] - pos[-1].mean(axis=0)))
    assert spread_end <= 0.02 * spread0


def test_inputs_respect_saturation():
    g = path_graph(3)
    cfg = small_cfg(u_max=0.3, pos_range=(-5.0, 5.0))
    log = run_closed_loop(g, cfg)
    assert np.max(np.abs(log.inputs)) <= 0.3 + 1e-12


@pytest.mark.parametrize("kind", ["admm", "centralized"])
def test_each_agent_is_clipped_to_its_own_u_max(monkeypatch, kind):
    from dmpc import double_integrator_3d, step
    from test_problem import per_edge_cost

    g = InfoGraph(3, {(1, 2): 0.8, (2, 3): 1.7, (1, 3): 0.4})
    agents = [double_integrator_3d(0.1, mass, u_max)
              for mass, u_max in ((1.0, 0.5), (2.0, 1.0), (0.5, np.inf))]
    u_max = np.array([0.5, 1.0, np.inf])
    cls = simulation._AdmmController if kind == "admm" else simulation._CentralizedCache
    plan, planned = cls.plan, []

    def overshooting(self, measured):  # ten times the plan: every bound is met
        first_inputs, stats = plan(self, measured)
        planned.append([10.0 * u for u in first_inputs])
        return planned[-1], stats

    monkeypatch.setattr(cls, "plan", overshooting)
    cfg = small_cfg(solver_kind=kind, pos_range=(-5.0, 5.0), noise_variance=0.1)
    log = run_closed_loop(g, cfg, agents=agents)
    assert log.aborted_at is None and len(planned) == cfg.num_steps
    for t, first_inputs in enumerate(planned):
        for j, (a, u) in enumerate(zip(agents, first_inputs)):
            assert np.array_equal(log.inputs[t, j], np.clip(u, -a.u_max, a.u_max))
            assert np.array_equal(log.states[t + 1, j],
                                  step(a, log.states[t, j], log.inputs[t, j],
                                       log.noise_draws[t, j]))
        assert log.stage_costs[t] == per_edge_cost(g, log.states[t][:, None],
                                                   log.inputs[t][:, None])
    reach = np.abs(log.inputs).max(axis=(0, 2))
    assert reach[0] == 0.5 and reach[1] == 1.0 and reach[2] > 1.0
    assert np.all(np.abs(log.inputs) <= u_max[:, None])


def test_total_cost_sums_stage_costs():
    g = path_graph(3)
    log = run_closed_loop(g, small_cfg(noise_variance=0.1))
    assert log.total_cost == float(np.sum(log.stage_costs))


def test_states_follow_recorded_inputs_and_noise():
    from dmpc import step

    g = path_graph(3)
    cfg = small_cfg(noise_variance=0.1)
    agents = default_agents(g, cfg)
    log = run_closed_loop(g, cfg, agents=agents)
    for t in range(cfg.num_steps):
        for j in range(3):
            x_next = step(agents[j], log.states[t, j], log.inputs[t, j],
                          log.noise_draws[t, j])
            assert np.max(np.abs(log.states[t + 1, j] - x_next)) <= 1e-12


def test_converged_admm_matches_centralized_closed_loop():
    g = path_graph(3)
    rng = np.random.default_rng(7)
    cfg_a = small_cfg(num_steps=5, admm_iterations=400, qp_tol=1e-9,
                      warm_start=False)
    agents = default_agents(g, cfg_a)
    x0 = draw_initial_states(g, cfg_a, rng)
    noise = draw_noise(g, cfg_a, rng)
    log_a = run_closed_loop(g, cfg_a, agents=agents, initial_states=x0, noise=noise)
    cfg_c = small_cfg(num_steps=5, solver_kind="centralized", qp_tol=1e-9)
    log_c = run_closed_loop(g, cfg_c, agents=agents, initial_states=x0, noise=noise)
    assert np.max(np.abs(log_a.inputs - log_c.inputs)) <= 1e-4
    assert abs(performance_ratio(log_a, log_c)) <= 1e-4


def test_performance_ratio_requires_paired_randomness():
    g = path_graph(3)
    cfg = small_cfg(noise_variance=0.1)
    log1 = run_closed_loop(g, cfg)
    log2 = run_closed_loop(g, SimConfig(**{**cfg.__dict__, "rng_seed": 99}))
    with pytest.raises(ValueError):
        performance_ratio(log1, log2)
    quiet = small_cfg()  # noiseless, so a rest start stays at zero cost
    zero1 = run_closed_loop(g, quiet, initial_states=[np.zeros(6)] * 3)
    zero2 = run_closed_loop(g, SimConfig(**{**quiet.__dict__,
                                            "solver_kind": "centralized"}),
                            initial_states=[np.zeros(6)] * 3)
    with pytest.raises(ValueError):
        performance_ratio(zero1, zero2)  # centralized cost is exactly zero


def test_performance_ratio_zero_for_identical_logs():
    g = path_graph(3)
    log = run_closed_loop(g, small_cfg())
    assert performance_ratio(log, log) == 0.0


def test_warm_start_changes_nothing_at_convergence_but_runs():
    g = path_graph(3)
    cfg_w = small_cfg(num_steps=4, warm_start=True)
    cfg_c = small_cfg(num_steps=4, warm_start=False)
    log_w = run_closed_loop(g, cfg_w)
    log_c = run_closed_loop(g, cfg_c)
    # same scenario, different solver trajectories; both finish cleanly
    assert log_w.aborted_at is None and log_c.aborted_at is None
    assert log_w.inputs.shape == log_c.inputs.shape


def test_closed_loop_determinism_including_parallel():
    g = path_graph(3)
    cfg = small_cfg(noise_variance=0.1)
    ref = run_closed_loop(g, cfg)
    again = run_closed_loop(g, cfg)
    par = run_closed_loop(g, SimConfig(**{**cfg.__dict__, "parallel_agents": True}))
    for other in (again, par):
        assert ref.states.tobytes() == other.states.tobytes()
        assert ref.inputs.tobytes() == other.inputs.tobytes()


def test_dual_decomposition_solver_runs():
    g = path_graph(2)
    cfg = small_cfg(num_steps=3, admm_iterations=40, solver_kind="dual_decomp")
    log = run_closed_loop(g, cfg)
    assert log.aborted_at is None
    assert log.inputs.shape == (3, 2, 3)


def test_iteration_sweep_rows_and_ordering():
    g = path_graph(3)
    cfg = small_cfg(num_steps=10, noise_variance=0.0, warm_start=False)
    rows = iteration_sweep(g, cfg, [1, 30], num_trials=2, base_seed=11)
    assert [r[0] for r in rows] == [1, 30]
    assert all(r[3] == 2 for r in rows)
    # noiseless: a tiny budget costs strictly more than a generous one
    assert rows[0][1] > rows[1][1]
    assert abs(rows[1][1]) <= 0.1
    with pytest.raises(ValueError):
        iteration_sweep(g, cfg, [1], num_trials=0)
    with pytest.raises(ValueError):
        iteration_sweep(g, cfg, [1], num_trials=1, n_jobs=0)


@pytest.mark.parametrize("k_values, args, error", [
    ([], {}, "k_values must hold at least one budget, got []"),
    ([0], {}, "k_values[0] must be >= 1, got 0"),
    ([2.5], {}, "k_values[0] must be an integer, got 2.5"),
    ([1, 5, -3], {}, "k_values[2] must be >= 1, got -3"),
    ([1], {"num_trials": 0}, "num_trials must be >= 1, got 0"),
    ([1], {"num_trials": 2.0}, "num_trials must be an integer, got 2.0"),
    ([1], {"n_jobs": 0}, "n_jobs must be >= 1, got 0"),
    ([1], {"n_jobs": 1.5}, "n_jobs must be an integer, got 1.5"),
    ([True], {}, "k_values[0] must be an integer, got True"),
    ([1], {"num_trials": True}, "num_trials must be an integer, got True"),
    ([1], {"n_jobs": np.True_}, "n_jobs must be an integer, got np.True_")])
def test_iteration_sweep_refuses_its_arguments_before_any_loop(monkeypatch, k_values, args,
                                                              error):
    loops, run = [], simulation.run_closed_loop
    monkeypatch.setattr(simulation, "run_closed_loop",
                        lambda *a, **kw: loops.append(1) or run(*a, **kw))
    with pytest.raises(ValueError) as exc:
        iteration_sweep(path_graph(3), SimConfig(num_steps=3, horizon=3), k_values,
                        **{"num_trials": 1, **args})
    assert str(exc.value) == error and loops == []


@pytest.mark.parametrize("level", ["fast", "full"])
@pytest.mark.parametrize("n_jobs", [0, -2, 1.5])
def test_run_suites_refuses_n_jobs_at_every_level(level, n_jobs):
    # refused when called, before any suite runs, as the sweep refuses it
    with pytest.raises(ValueError, match="^n_jobs must be "):
        run_suites(level, n_jobs=n_jobs)


def test_iteration_sweep_names_the_aborted_trial(monkeypatch):
    # the K=2 loop of the trial with seed 12 fails at its step 2
    plan = simulation._AdmmController.plan

    def failing(self, measured):
        self.steps_planned = getattr(self, "steps_planned", 0) + 1
        if (self.cfg.admm_iterations, self.cfg.rng_seed, self.steps_planned) == (2, 12, 3):
            raise admm.SolverFailure(2, 5, "max_iterations: injected")
        return plan(self, measured)

    monkeypatch.setattr(simulation._AdmmController, "plan", failing)
    with pytest.raises(SweepTrialAborted) as exc:
        iteration_sweep(path_graph(3), small_cfg(num_steps=4), [1, 2, 3], num_trials=3,
                        base_seed=11)
    err = exc.value
    assert (err.seed, err.K, err.step) == (12, 2, 2)
    assert err.reason == "subproblem of agent 2 failed at iteration 5: max_iterations: injected"
    assert str(err) == f"sweep trial seed 12, K=2: aborted at step 2: {err.reason}"
    # the other two trials ran to the end: the rows are theirs
    assert [str(e) for e in err.aborted] == [str(err)]
    assert [(K, trials) for K, _, _, trials in err.rows] == [(1, 2), (2, 2), (3, 2)]
    alone = [iteration_sweep(path_graph(3), small_cfg(num_steps=4), [1, 2, 3], num_trials=1,
                             base_seed=seed) for seed in (11, 13)]
    assert np.allclose([mean for _, mean, _, _ in err.rows],
                       [(a[1] + b[1]) / 2 for a, b in zip(*alone)], rtol=1e-12)
    # of two trials one completes: its rows are a one-trial sweep's
    with pytest.raises(SweepTrialAborted) as two:
        iteration_sweep(path_graph(3), small_cfg(num_steps=4), [1, 2, 3], num_trials=2,
                        base_seed=12)
    assert two.value.rows == alone[1] and len(two.value.aborted) == 1
    # a worker process hands its trial's error back pickled, as the sweep's own pickles
    for e in (err.aborted[0], err):
        back = pickle.loads(pickle.dumps(e))
        assert (back.seed, back.K, back.step, back.reason, str(back), back.rows) == \
            (e.seed, e.K, e.step, e.reason, str(e), e.rows)
        assert [str(a) for a in back.aborted] == [str(a) for a in e.aborted]


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def test_iteration_sweep_caps_its_process_pool(monkeypatch):
    monkeypatch.setattr(simulation, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: 3)
    g, cfg = path_graph(2), small_cfg(num_steps=1, horizon=2)
    for n_jobs, trials in ((10**6, 2), (10**6, 5), (2, 5), (1, 5), (10**6, 1)):
        rows = iteration_sweep(g, cfg, [1], num_trials=trials, n_jobs=n_jobs)
        assert rows[0][3] == trials
    assert RecordingPool.sizes == [2, 3, 2]


@pytest.mark.parametrize("kind", ["admm", "centralized", "dual_decomp"])
def test_default_noise_has_the_agents_noise_width(kind):
    # 1-D double integrators: one input, so B, their noise channel, has one column
    agent = LtiAgent(np.array([[1.0, 0.1], [0.0, 1.0]]), np.array([[0.0], [0.1]]), u_max=1.0)
    cfg = small_cfg(num_steps=3, noise_variance=0.01, solver_kind=kind)
    x0 = [np.array([1.0, 0.0]), np.array([0.0, 0.5]), np.array([-1.0, 0.0])]
    log = run_closed_loop(path_graph(3), cfg, agents=[agent] * 3, initial_states=x0)
    assert log.aborted_at is None and log.states.shape == (4, 3, 2)
    assert log.noise_draws.shape == (3, 3, 1) and np.all(log.noise_draws != 0.0)


@pytest.mark.parametrize("kind", ["admm", "centralized", "dual_decomp"])
def test_unlike_widths_and_noise_of_the_wrong_shape_fail_before_set_up(monkeypatch, kind):
    # both once ran into a raw numpy error: unlike widths at the first plant
    # step, noise one step short after two steps
    def never(*args):
        raise AssertionError("a controller was built")

    for name in ("_CentralizedCache", "_AdmmController", "_DualDecompController"):
        monkeypatch.setattr(simulation, name, never)
    one_d = LtiAgent(np.array([[1.0, 0.1], [0.0, 1.0]]), np.array([[0.0], [0.1]]), u_max=1.0)
    three_d = default_agents(path_graph(3), SimConfig())[0]
    cfg = small_cfg(num_steps=3, solver_kind=kind)
    with pytest.raises(ValueError, match=re.escape(
            "agent 2 has (states, inputs, noise) widths (6, 3, 3), agent 1 (2, 1, 1)")):
        run_closed_loop(path_graph(3), cfg, agents=[one_d, three_d, three_d],
                        initial_states=[np.zeros(2), np.zeros(6), np.zeros(6)])
    for steps in (2, 4):
        with pytest.raises(ValueError, match=re.escape(
                f"noise has shape ({steps}, 3, 3), expected (3, 3, 3)")):
            run_closed_loop(path_graph(3), cfg, noise=np.zeros((steps, 3, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("kind", ["admm", "centralized", "dual_decomp"])
def test_nonfinite_noise_fails_before_set_up(monkeypatch, kind, bad):
    # a nan draw once ran step 0 and failed on the measured state at step 1,
    # with no log; an inf draw first raised numpy's invalid-value
    # RuntimeWarning in the plant step
    def never(*args):
        raise AssertionError("a controller was built")

    for name in ("_CentralizedCache", "_AdmmController", "_DualDecompController"):
        monkeypatch.setattr(simulation, name, never)
    noise = np.zeros((3, 3, 3))
    noise[2, 0, 1] = noise[1, 2, 0] = noise[1, 2, 2] = bad
    with pytest.raises(ValueError, match="^noise of step 1 is not finite for agent 3$"):
        run_closed_loop(path_graph(3), small_cfg(num_steps=3, solver_kind=kind), noise=noise)


def test_centralized_setup_memory_on_a_grid():
    # 4x5 grid, T = 10: a dense 1920 x 1920 trajectory Hessian alone is 29.5 MB,
    # and a dense 1920 x 600 condensing map M, or its product HM, 9.2 MB each
    g = InfoGraph(20, {**{(v, v + 1): 1.0 for v in range(1, 21) if v % 5},
                       **{(v, v + 5): 1.0 for v in range(1, 16)}})
    cfg = SimConfig()
    agents = default_agents(g, cfg)
    x0 = draw_initial_states(g, cfg, np.random.default_rng(0))
    tracemalloc.start()
    try:
        _CentralizedCache(g, agents, cfg.horizon, x0, cfg.qp_tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14e6


def stalled_qp(qp, **kwargs):
    return QpSolution(np.zeros(qp.dim), "max_iterations", 0.5, 3, message="stalled")


@pytest.mark.parametrize("module, kind, fragments", [
    (admm, "admm", ("agent 1", "iteration 1", "max_iterations", "stalled")),
    (simulation, "centralized", ("centralized QP", "max_iterations", "stalled"))])
def test_solver_failure_aborts_with_its_reason(monkeypatch, module, kind, fragments):
    monkeypatch.setattr(module, "solve_box_qp", stalled_qp)
    log = run_closed_loop(path_graph(3), small_cfg(solver_kind=kind))
    assert log.aborted_at == 0
    assert all(f in log.abort_reason for f in fragments), log.abort_reason
    assert log.states.shape[0] == 1 and log.inputs.shape[0] == 0


@pytest.mark.parametrize("kind", ["admm", "dual_decomp", "centralized", "solve_centralized"])
def test_a_nonfinite_state_is_rejected_naming_its_agent(kind):
    g = path_graph(4)
    cfg = small_cfg(num_steps=2, solver_kind="centralized" if kind == "solve_centralized" else kind)
    agents = default_agents(g, cfg)
    x0 = draw_initial_states(g, cfg, np.random.default_rng(0))
    x0[1] = np.full(agents[1].n, np.nan)
    with pytest.raises(ValueError, match="measured state of agent 2 is not finite"):
        if kind == "solve_centralized":
            solve_centralized(g, agents, cfg.horizon, x0)
        else:
            run_closed_loop(g, cfg, agents=agents, initial_states=x0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_one_nonfinite_state_entry_is_named_by_the_centralized_controller(bad):
    # a sparse G takes each state entry into some rows of q only, where a
    # dense G spread it into all of them (inf * 0 is nan): every entry, a
    # single velocity component too, must still reach q and be named; agent
    # 5 has no edge, so its states reach no row of q and are checked apart
    g = InfoGraph(5, {(1, 2): 1.0, (2, 3): 1.0, (3, 4): 2.0})
    cfg = small_cfg(num_steps=2, solver_kind="centralized")
    agents = default_agents(g, cfg)
    x0 = draw_initial_states(g, cfg, np.random.default_rng(0))
    central = _CentralizedCache(g, agents, cfg.horizon, x0, cfg.qp_tol)
    assert central.unseen.tolist() == list(range(24, 30))
    for j in range(1, 6):
        for k in range(6):
            states = np.array(x0)
            states[j - 1, k] = bad
            with pytest.raises(ValueError, match=f"^measured state of agent {j} is not finite$"):
                central.plan(states)
    x0[2][3] = bad  # a velocity component
    with pytest.raises(ValueError, match="^measured state of agent 3 is not finite$"):
        run_closed_loop(g, cfg, agents=agents, initial_states=x0)
    with pytest.raises(ValueError, match="^measured state of agent 3 is not finite$"):
        solve_centralized(g, agents, cfg.horizon, x0)


MALFORMED = {  # on path 3: the agent models and initial states given, and the error
    "4 agents": (4, 3, "expected 3 agent models, got 4"),
    "2 agents": (2, 3, "expected 3 agent models, got 2"),
    "2 states": (3, 2, "expected 3 initial states, got 2"),
    "4 states": (3, 4, "expected 3 initial states, got 4")}


@pytest.mark.parametrize("kind", ["admm", "dual_decomp", "centralized"])
@pytest.mark.parametrize("n_agents, n_states, match", MALFORMED.values(), ids=MALFORMED)
def test_every_solver_kind_refuses_inputs_that_do_not_fit_the_graph(kind, n_agents, n_states,
                                                                     match):
    g, cfg = path_graph(3), small_cfg(num_steps=2, solver_kind=kind)
    agents = default_agents(path_graph(n_agents), cfg)
    x0 = draw_initial_states(path_graph(n_states), cfg, np.random.default_rng(0))
    with pytest.raises(ValueError, match=match):
        run_closed_loop(g, cfg, agents=agents, initial_states=x0)


def test_centralized_solve_refuses_a_state_of_another_shape():
    g = path_graph(2)
    agents = default_agents(g, small_cfg())
    match = r"initial state of agent 1 has shape \(7,\), expected \(6,\)"
    with pytest.raises(ValueError, match=match):
        solve_centralized(g, agents, 5, [np.ones(7), np.ones(5)])


def test_other_runtime_errors_propagate(monkeypatch):
    def broken(qp, **kwargs):
        raise RuntimeError("not a solver failure")

    monkeypatch.setattr(admm, "solve_box_qp", broken)
    with pytest.raises(RuntimeError, match="not a solver failure"):
        run_closed_loop(path_graph(3), small_cfg())


def test_performance_ratio_rejects_aborted_runs():
    g = path_graph(3)
    cfg = small_cfg(noise_variance=0.1)
    full = run_closed_loop(g, cfg)
    central = run_closed_loop(g, replace(cfg, solver_kind="centralized"))
    # a run cut at step 3 sums fewer stage costs: it must not read as cheaper
    cut = replace(full, states=full.states[:4], inputs=full.inputs[:3],
                  stage_costs=full.stage_costs[:3], aborted_at=3,
                  abort_reason="subproblem of agent 2 failed at iteration 4: stalled")
    performance_ratio(full, central)
    for pair in ((cut, central), (central, cut)):
        with pytest.raises(ValueError, match="aborted"):
            performance_ratio(*pair)


def test_parallel_loop_records_every_solve_time():
    g = path_graph(3)
    cfg = small_cfg(num_steps=3, admm_iterations=4, parallel_agents=True)
    log = run_closed_loop(g, cfg)
    assert log.aborted_at is None
    assert log.solve_times.size == g.num_agents * cfg.admm_iterations * cfg.num_steps
    assert np.all(log.solve_times > 0)


def _mixed_agents():
    """Seven agents on a path: three masses interleaved, agent 3 unlike agent
    1 only in u_max, agent 5 alike agent 1 in A and B but with its own noise
    channel. Plants: {1, 3, 7}, {2, 6}, {4}, {5}."""
    from dmpc import double_integrator_3d

    light, heavy, nimble = (double_integrator_3d(0.1, mass) for mass in (1.0, 2.0, 0.5))
    own_noise = LtiAgent(A=light.A, B=light.B, u_max=1.0, noise_input=2.0 * light.noise_input)
    return [light, heavy, replace(light, u_max=0.5), nimble, own_noise, heavy, light]


@pytest.mark.parametrize("kind", ["admm", "centralized", "dual_decomp"])
def test_grouped_plant_is_each_agents_own_update_bit_for_bit(monkeypatch, kind):
    agents = _mixed_agents()
    g = path_graph(len(agents))
    plant, calls = simulation.step, []

    def counted(agent, x, u, w=None):
        calls.append((next(j for j, a in enumerate(agents) if a is agent), len(x)))
        return plant(agent, x, u, w)

    monkeypatch.setattr(simulation, "step", counted)
    cfg = small_cfg(num_steps=4, solver_kind=kind, noise_variance=0.1)
    log = run_closed_loop(g, cfg, agents=agents)
    assert log.aborted_at is None
    # one update a step per plant, on its rows: u_max does not split a plant,
    # a noise channel does
    assert calls == [(0, 3), (1, 2), (3, 1), (4, 1)] * cfg.num_steps
    for t in range(cfg.num_steps):
        for j, a in enumerate(agents):
            x, u, w = log.states[t, j], log.inputs[t, j], log.noise_draws[t, j]
            assert np.array_equal(log.states[t + 1, j], a.A @ x + a.B @ u + a.noise_channel @ w)


def test_noise_given_as_lists_runs_as_the_equal_array():
    # lists once passed the checks and failed at step 0 on a tuple index
    g, cfg = path_graph(3), small_cfg(num_steps=3, horizon=3, solver_kind="centralized")
    noise = np.random.default_rng(2).standard_normal((3, 3, 3)) * 0.1
    listed, arrayed = (run_closed_loop(g, cfg, noise=n) for n in (noise.tolist(), noise))
    assert listed.noise_draws.dtype == np.float64
    assert np.array_equal(listed.noise_draws, arrayed.noise_draws)
    assert np.array_equal(listed.states, arrayed.states)
    assert np.array_equal(listed.inputs, arrayed.inputs)
    assert listed.total_cost == arrayed.total_cost
