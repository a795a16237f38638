"""Receding-horizon closed-loop simulation and iteration-budget sweeps."""

import math
import operator
import os
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .admm import (DD_QP_TOL, AdmmEngine, AdmmState, SolverFailure, _matvec,
                   run_dual_decomposition)
from .dynamics import double_integrator_3d, step
from .problem import (ZLayout, _model_key, build_centralized_qp, build_local_problems,
                      check_finite_states, checked_inputs, condensed_bounds, condensed_maps,
                      global_cost, input_columns, state_map)
from .qp import BoxQp, solve_box_qp

SOLVER_KINDS = ("admm", "dual_decomp", "centralized")


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


@dataclass
class SimConfig:
    num_steps: int = 250
    horizon: int = 10
    admm_iterations: int = 30
    rho: float = 1.0
    noise_variance: float = 0.1
    rng_seed: int = 0
    solver_kind: str = "admm"
    warm_start: bool = True
    ts: float = 0.1
    u_max: float = 1.0
    mass: float = 1.0
    pos_range: tuple = (-5.0, 5.0)
    vel_range: tuple = (-1.0, 1.0)
    qp_tol: float = 1e-6
    parallel_agents: bool = False

    def __post_init__(self):
        """The one check of each setting, whether it comes from a config file,
        a command-line flag or a call; ts, mass and u_max must build an agent."""
        check_count("num_steps", self.num_steps)
        check_count("horizon", self.horizon)
        for name in ("admm_iterations", "rng_seed"):  # their bounds follow
            check_count(name, getattr(self, name), None)
        if self.solver_kind not in SOLVER_KINDS:
            raise ValueError(f"solver_kind must be one of {SOLVER_KINDS}, "
                             f"got {self.solver_kind!r}")
        if self.solver_kind != "centralized" and self.admm_iterations < 1:
            raise ValueError(f"admm_iterations must be >= 1, got {self.admm_iterations}")
        for name in ("rho", "qp_tol"):
            if not 0 < getattr(self, name) < math.inf:  # nan too
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0 <= self.noise_variance < math.inf:
            raise ValueError(f"noise_variance must be finite and >= 0, got {self.noise_variance}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be nonnegative, got {self.rng_seed}")
        for name in ("pos_range", "vel_range"):
            lo, hi = getattr(self, name)
            if not -math.inf < lo <= hi < math.inf:  # nan too
                raise ValueError(f"{name} lower bound exceeds upper, or a bound is not finite, "
                                 f"got {(lo, hi)}")
        double_integrator_3d(self.ts, self.mass, self.u_max)


@dataclass
class SimLog:
    states: np.ndarray        # (num_steps + 1, N, n)
    inputs: np.ndarray        # (num_steps, N, m)
    stage_costs: np.ndarray   # (num_steps,)
    total_cost: float
    solver_stats: list        # per step: dict(iterations, r_primal, r_dual, wall_time;
                              # distributed solvers: the QpCounters.stats() of its QPs)
    solve_times: np.ndarray   # distributed solvers: per agent x-update, its QP alone, seconds
    noise_draws: np.ndarray   # (num_steps, N, noise_dim), for paired-run audits
    config: SimConfig
    max_dual_avg_violation: float = None  # None unless the run tracked it
    aborted_at: int = None    # step index if a solver failure cut the run short
    abort_reason: str = None  # the SolverFailure message of that step


def default_agents(g, cfg):
    return [double_integrator_3d(cfg.ts, cfg.mass, cfg.u_max) for _ in range(g.num_agents)]


def draw_initial_states(g, cfg, rng):
    """Positions and velocities uniform over the configured ranges."""
    out = []
    for _ in range(g.num_agents):
        p = rng.uniform(cfg.pos_range[0], cfg.pos_range[1], size=3)
        v = rng.uniform(cfg.vel_range[0], cfg.vel_range[1], size=3)
        x = np.empty(6)
        x[0::2] = p
        x[1::2] = v
        out.append(x)
    return out


def draw_noise(g, cfg, rng, noise_dim=3):
    """Gaussian accelerations, variance `noise_variance` per component:
    (steps, agents, noise_dim), noise_dim the width of the agents' noise
    channel (3 for the stock agents)."""
    sigma = np.sqrt(cfg.noise_variance)
    return sigma * rng.standard_normal((cfg.num_steps, g.num_agents, noise_dim))


class _Controller:
    """A solver kind of the closed loop, built before its first step; plan(measured),
    the (N, n) measured states, returns (first_inputs, stats), stats as in
    SimLog.solver_stats."""

    solve_times = ()
    max_dual_avg_violation = None

    def close(self):
        pass

    def step_stats(self, qps, t0, iterations, r_primal, r_dual):
        """A distributed step's stats: its residuals, its wall time since t0
        and the QpCounters `qps` of its QPs, whose times go to `solve_times`."""
        self.solve_times.extend(qps.solve_times)
        return {"iterations": iterations, "r_primal": r_primal, "r_dual": r_dual,
                "wall_time": time.perf_counter() - t0, **qps.stats()}


def _first_inputs(problems, plans):
    """Each owner's first planned input, read from its own local copy."""
    return [plan[p.input_slice(p.members.index(p.owner), 0)] for p, plan in zip(problems, plans)]


class _CentralizedCache(_Controller):
    """The centralized controller: the whole-network QP, validated and
    inverted once; its P arrives as classes of diagonal blocks and is kept
    as one block (the three axes of the double integrator are one class of
    blocks in x's order). The gradient M'H c is linear in the measured
    states x0, stacked agent by agent: c = C x0 (`state_map`), so G = M'HC
    is formed once, by a sparse product with the build's M', and kept in
    CSR with 32-bit indices (1.5% of it is nonzero on the 10x10 grid). A
    step's gradient is one kernel call, G x0, and its plan one gather."""

    def __init__(self, g, agents, T, initial_states, qp_tol):
        self.block, self.pred, self.M, P = build_centralized_qp(g, agents, T, initial_states)
        self.qp = BoxQp(P, np.zeros(self.M.shape[1]), *condensed_bounds(self.block))
        del P  # the QP holds its block now
        self.cols = input_columns(self.block)
        self.first = np.concatenate([cols[0] for cols in self.cols])  # each agent's u(0)
        self.G = self.M.T @ (self.block.H @ state_map(self.block, self.pred))
        self.unseen = np.flatnonzero(np.bincount(self.G.indices, minlength=self.G.shape[1]) == 0)
        self.qp_tol = qp_tol
        self.warm = None

    def solve(self, x0):
        """The plan, in the condensed inputs (agent j's are `cols[j - 1]`),
        from the measured states x0 stacked agent by agent; ValueError names
        the first agent whose state is not finite."""
        q = _matvec(self.G, x0)
        try:  # unseen states (an agent's without edges) reach no entry of q
            if self.unseen.size and not np.isfinite(x0[self.unseen]).all():
                raise ValueError("an unseen state is not finite")
            sol = solve_box_qp(self.qp, tol=self.qp_tol, x0=self.warm, q=q)
        except ValueError:  # a state that is not finite: name its agent
            check_finite_states(np.split(x0, np.cumsum([a.n for a in self.block.models])[:-1]))
            raise
        if sol.status != "optimal":
            raise SolverFailure(None, None, f"{sol.status}: {sol.message}")
        self.warm = sol.x_star
        return sol.x_star

    def plan(self, measured):
        t0 = time.perf_counter()
        u = self.solve(measured.reshape(-1))  # a closed loop's agents share n and m
        first = u[self.first].reshape(len(self.cols), -1)
        return first, {"iterations": 1, "r_primal": 0.0, "r_dual": 0.0,
                       "wall_time": time.perf_counter() - t0}


def _engine_record(g, agents, cfg):
    """What `admm_engine` builds an engine from, field by field: the weighted
    edges in `g.weights` order, each agent's A, B and u_max, and cfg's."""
    kinds = {}  # agents alike share one key: a record of N stock agents keeps one
    keys = tuple(kinds.setdefault(key, key) for key in ((_model_key(a), a.u_max) for a in agents))
    return {"agent count": g.num_agents, "edges": tuple(g.weights.items()), "agents": keys,
            "horizon": cfg.horizon, "rho": cfg.rho, "qp_tol": cfg.qp_tol,
            "parallel_agents": cfg.parallel_agents}


def admm_engine(g, agents, cfg, initial_states):
    """The ADMM engine of a closed loop on `cfg`: the agents' local problems
    at horizon cfg.horizon, built at `initial_states`, and their QPs at
    cfg.rho and cfg.qp_tol, with a thread pool if cfg.parallel_agents; its
    `record` holds what it was built from, which a run given it must match."""
    problems, maps, _ = build_local_problems(g, agents, cfg.horizon, initial_states)
    engine = AdmmEngine(problems, maps, cfg.rho, qp_tol=cfg.qp_tol, parallel=cfg.parallel_agents)
    engine.record = _engine_record(g, agents, cfg)
    return engine


class _AdmmController(_Controller):
    """ADMM on the local problems, rebound to each measured state, warm-started
    by a shift. A given engine starts cold, as a new one would, and is left
    open for its owner to close."""

    def __init__(self, g, agents, cfg, initial_states, track_dual_average, engine=None):
        self.owns_engine = engine is None
        if engine is None:
            engine = admm_engine(g, agents, cfg, initial_states)
        elif engine.record is None:
            raise ValueError("the engine has no record: build it with admm_engine")
        else:
            run = _engine_record(g, agents, cfg)
            if differ := [name for name, value in run.items() if engine.record[name] != value]:
                raise ValueError(f"the engine's {', '.join(differ)} differ from the run's")
            engine.cold_start(faces=True)
        self.engine = engine
        self.shift = _shift_indices(ZLayout(agents, cfg.horizon), self.engine.E)
        self.cfg = cfg
        self.track_dual_average = track_dual_average
        self.max_dual_avg_violation = 0.0 if track_dual_average else None
        self.warm_state = None
        self.solve_times = array("d")  # 8 bytes a QP, not a float object each

    def plan(self, measured):
        t0 = time.perf_counter()
        engine = self.engine
        engine.rebind_states(measured)
        if not self.cfg.warm_start:
            engine.cold_start()
        result = engine.run(self.cfg.admm_iterations, init=self.warm_state,
                            track_dual_average=self.track_dual_average)
        if self.track_dual_average:
            self.max_dual_avg_violation = max(self.max_dual_avg_violation,
                                              result.max_dual_avg_violation)
        first_inputs = _first_inputs(engine.problems, result.plans)
        _, rp, rd = result.history[-1]
        stats = self.step_stats(engine.qps, t0, len(result.history), rp, rd)
        if self.cfg.warm_start:
            self.warm_state = _shift_warm_state(result, *self.shift)
        return first_inputs, stats

    def close(self):
        if self.owns_engine:
            self.engine.close()


class _DualDecompController(_Controller):
    """Dual ascent with steps 1/k from cold QPs at every step, on one engine
    at rho = 0, built once and rebound to each measured state."""

    def __init__(self, g, agents, cfg, initial_states):
        problems, maps, _ = build_local_problems(g, agents, cfg.horizon, initial_states)
        self.engine = AdmmEngine(problems, maps, 0.0, qp_tol=DD_QP_TOL)
        self.cfg = cfg
        self.solve_times = array("d")

    def plan(self, measured):
        t0 = time.perf_counter()
        engine = self.engine
        engine.rebind_states(measured)
        plans, history = run_dual_decomposition(engine, lambda k: 1.0 / k,
                                                self.cfg.admm_iterations)
        return _first_inputs(engine.problems, plans), self.step_stats(
            engine.qps, t0, len(history), history[-1][1], np.nan)


def _shift_indices(layout, E):
    """Gather indices that move each agent's states and inputs one step
    earlier, for z (zi) and for the stacked copies (li); the last entry of
    each stays. A member's block of a local vector is its block of z, so a
    copy moves by the same offset as the z entry it maps to."""
    zi = np.arange(layout.dim)
    T = layout.T
    for off, (n, m) in zip(layout.starts, layout.dims):
        u0 = off + (T + 1) * n
        zi[off:off + T * n] += n
        zi[u0:u0 + (T - 1) * m] += m
    return zi, np.arange(E.size) + (zi[E] - E)


def _shift_warm_state(result, zi, li):
    """Receding-horizon warm start: shift the duals and z one step forward.

    The final horizon entry is duplicated to fill the freed slot.
    """
    return AdmmState(lam=result.lam[li], z=result.z[zi])


def run_closed_loop(g, cfg, agents=None, initial_states=None, noise=None,
                    track_dual_average=False, engine=None):
    """Simulate the receding-horizon loop for cfg.num_steps plant updates.

    Pre-drawn `initial_states` / `noise` override the seeded generator so
    paired comparisons consume byte-identical randomness. An ADMM loop runs
    on `engine` if given (built by `admm_engine` from a record equal to the
    run's, else ValueError naming each field that differs) instead of
    building one; it starts its QPs cold and leaves the engine's thread pool
    open. Inputs that do not fit g raise ValueError, as do agents whose
    state, input or noise widths are not agent 1's and noise not of shape
    (num_steps, N, noise width) or not finite, all before a controller is
    built. A SolverFailure ends the run early with
    `aborted_at` and `abort_reason` set; any other exception propagates.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    if agents is None:
        agents = default_agents(g, cfg)
    if initial_states is None:
        initial_states = draw_initial_states(g, cfg, rng)
    initial_states = checked_inputs(g, agents, cfg.horizon, initial_states)
    N, widths = g.num_agents, [(a.n, a.m, a.noise_channel.shape[1]) for a in agents]
    for j, w in enumerate(widths[1:], start=2):
        if w != widths[0]:
            raise ValueError(f"agent {j} has (states, inputs, noise) widths {w}, agent 1 "
                             f"{widths[0]}: a closed loop's agents share them")
    n, m, w = widths[0]
    shape = cfg.num_steps, N, w
    if noise is None:
        noise = draw_noise(g, cfg, rng, w)
    elif np.shape(noise) != shape:
        raise ValueError(f"noise has shape {np.shape(noise)}, expected {shape}")
    if not np.isfinite(noise).all():  # no array kept through the loop
        t, j = np.argwhere(~np.isfinite(noise).all(axis=2))[0]
        raise ValueError(f"noise of step {t} is not finite for agent {j + 1}")

    states = np.zeros((cfg.num_steps + 1, N, n))
    inputs = np.zeros((cfg.num_steps, N, m))
    stage_costs = np.zeros(cfg.num_steps)
    solver_stats = []
    aborted_at = abort_reason = None
    states[0] = initial_states

    if engine is not None and cfg.solver_kind != "admm":
        raise ValueError(f"a {cfg.solver_kind} loop runs on no ADMM engine")
    if cfg.solver_kind == "centralized":
        controller = _CentralizedCache(g, agents, cfg.horizon, initial_states, cfg.qp_tol)
    elif cfg.solver_kind == "admm":
        controller = _AdmmController(g, agents, cfg, initial_states, track_dual_average, engine)
    else:
        controller = _DualDecompController(g, agents, cfg, initial_states)

    u_max = np.array([[a.u_max] for a in agents], dtype=float)  # a column: agents may differ
    u_min = -u_max
    try:
        for t in range(cfg.num_steps):
            try:
                first_inputs, stats = controller.plan(states[t])
            except SolverFailure as exc:
                aborted_at, abort_reason = t, str(exc)
                states, inputs, stage_costs = states[:t + 1], inputs[:t], stage_costs[:t]
                break
            solver_stats.append(stats)
            inputs[t] = np.minimum(np.maximum(first_inputs, u_min), u_max)
            for j in range(N):
                states[t + 1, j] = step(agents[j], states[t, j], inputs[t, j], noise[t, j])
            stage_costs[t] = global_cost(g, states[t, :, None], inputs[t, :, None])
    finally:
        controller.close()

    return SimLog(states=states, inputs=inputs, stage_costs=stage_costs,
                  total_cost=float(np.sum(stage_costs)), solver_stats=solver_stats,
                  solve_times=np.asarray(controller.solve_times), noise_draws=noise,
                  config=cfg, max_dual_avg_violation=controller.max_dual_avg_violation,
                  aborted_at=aborted_at, abort_reason=abort_reason)


def solve_centralized(g, agents, T, initial_states, tol=1e-8):
    """Solve the full finite-horizon problem as one condensed box QP.

    Returns (input sequences per agent as (T, m_i) arrays, optimal cost).
    """
    central = _CentralizedCache(g, agents, T, initial_states, tol)
    u = central.solve(np.concatenate(initial_states, dtype=float))
    c = condensed_maps(central.block, central.pred, initial_states)
    return [u[cols] for cols in central.cols], float(central.block.cost(central.M @ u + c))


def performance_ratio(admm_log, central_log):
    """Excess closed-loop cost of a run over its centralized pairing, in %."""
    if admm_log.aborted_at is not None or central_log.aborted_at is not None:
        raise ValueError("an aborted run cannot be paired: its cost covers fewer steps")
    if not np.array_equal(admm_log.noise_draws, central_log.noise_draws):
        raise ValueError("paired runs must share the same noise sequence")
    if not np.array_equal(admm_log.states[0], central_log.states[0]):
        raise ValueError("paired runs must share initial conditions")
    cc = central_log.total_cost
    if cc == 0.0:
        raise ValueError("centralized cost is zero; ratio undefined")
    return 100.0 * (admm_log.total_cost - cc) / cc


class SweepTrialAborted(RuntimeError):
    """A closed loop of an iteration-sweep trial aborted on a SolverFailure.

    `K` is None for the trial's centralized reference loop. Raised by
    `iteration_sweep` once every trial has run, for the first aborted one:
    `rows` then holds the rows over the trials that completed (empty if
    none did) and `aborted` each aborted trial's own SweepTrialAborted.
    """

    def __init__(self, seed, K, step, reason, rows=(), aborted=()):
        loop = "centralized reference" if K is None else f"K={K}"
        super().__init__(f"sweep trial seed {seed}, {loop}: aborted at step {step}: {reason}")
        self.seed, self.K, self.step, self.reason = seed, K, step, reason
        self.rows, self.aborted = list(rows), tuple(aborted)

    def __reduce__(self):  # returned by sweep worker processes
        return type(self), (self.seed, self.K, self.step, self.reason, self.rows, self.aborted)


def _sweep_trial(args):
    """One trial's excess per K, or the SweepTrialAborted of its first
    loop that aborted."""
    g, cfg, agents, k_values, seed = args
    rng = np.random.default_rng(seed)
    x0 = draw_initial_states(g, cfg, rng)
    noise = draw_noise(g, cfg, rng, agents[0].noise_channel.shape[1])

    def loop(K, engine=None):
        run_cfg = (replace(cfg, solver_kind="centralized", rng_seed=seed) if K is None else
                   replace(cfg, solver_kind="admm", admm_iterations=K, rng_seed=seed))
        log = run_closed_loop(g, run_cfg, agents=agents, initial_states=x0, noise=noise,
                              engine=engine)
        if log.aborted_at is not None:
            raise SweepTrialAborted(seed, K, log.aborted_at, log.abort_reason)
        return log

    try:
        central_log = loop(None)
        engine = admm_engine(g, agents, cfg, x0)  # after the reference loop: a lower memory peak
        try:
            return [performance_ratio(loop(K, engine=engine), central_log) for K in k_values]
        finally:
            engine.close()
    except SweepTrialAborted as exc:
        return exc
    except ValueError as exc:  # a centralized cost of zero, say: no ratio to pair
        raise ValueError(f"sweep trial seed {seed}: {exc}") from None


def iteration_sweep(g, cfg, k_values, num_trials, base_seed=None, n_jobs=1, agents=None):
    """Paired ADMM-vs-centralized closed loops per trial, aggregated per K.

    Before any loop, `check_count` takes each of the one or more budgets in
    `k_values`, `num_trials` and `n_jobs`. Returns rows (K, mean excess %,
    std %, num_trials). Each trial runs `agents` (`default_agents` if None),
    as `run_closed_loop` does, with one centralized reference run for every
    K and one ADMM engine, built after it and rebound by each K's loop.
    Trials run in at most min(n_jobs, num_trials, CPUs) worker processes. A
    trial whose centralized cost is zero has no excess: ValueError naming
    its seed. Every trial runs; if a loop aborted, SweepTrialAborted names
    the first that did and carries the rows over the trials that completed.
    """
    if not (k_values := list(k_values)):
        raise ValueError("k_values must hold at least one budget, got []")
    for i, K in enumerate(k_values):
        check_count(f"k_values[{i}]", K)
    check_count("num_trials", num_trials)
    check_count("n_jobs", n_jobs)
    seed0 = cfg.rng_seed if base_seed is None else base_seed
    if agents is None:
        agents = default_agents(g, cfg)
    jobs = [(g, cfg, agents, k_values, seed0 + trial) for trial in range(num_trials)]
    workers = min(n_jobs, num_trials, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_sweep_trial, jobs))
    else:
        results = [_sweep_trial(j) for j in jobs]
    aborted = [r for r in results if isinstance(r, SweepTrialAborted)]
    done = [r for r in results if not isinstance(r, SweepTrialAborted)]
    ratios = np.asarray(done)  # (completed trials, len(k_values))
    rows = [(K, float(np.mean(ratios[:, col])), float(np.std(ratios[:, col])), len(done))
            for col, K in enumerate(k_values)] if done else []
    if aborted:
        first = aborted[0]
        raise SweepTrialAborted(first.seed, first.K, first.step, first.reason, rows, aborted)
    return rows
