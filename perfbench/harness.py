"""Paired closed-loop measurement, output checks and per-layer metrics.

One run of a workload:

1. draws each trial's inputs from the seed (`workloads.make_inputs`);
2. untraced (`trace=False`): measures peak memory over one whole trial under
   tracemalloc, then runs every trial once, timed, with a one-step set-up
   probe before each and host-speed probes between its closed loops, and
   scales every timing to a nominal host speed (`host.HostSpeed`);
3. traced (`trace=True`): runs every trial once untraced and once under the
   span recorder, and derives the per-layer metrics from the spans. A
   metric that could not be measured is left out and named as absent.

Every loop's output is checked (`Checks`); a failed check counts its steps
as failed and is never dropped.
"""

import hashlib
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field, replace

import numpy as np

from dmpc import simulation
from dmpc.problem import build_local_problems
from dmpc.simulation import performance_ratio

from host import HostSpeed
from spans import Recorder
from workloads import make_inputs

# name -> (unit, better); BENCHMARK.json lists the same names in this order
END_TO_END = {
    "setup_s": ("s", "lower"),
    "dist_loop_s": ("s", "lower"),
    "dist_step_ms_p50": ("ms", "lower"),
    "dist_step_ms_p90": ("ms", "lower"),
    "central_loop_s": ("s", "lower"),
    "central_step_ms_p50": ("ms", "lower"),
    "central_step_ms_p90": ("ms", "lower"),
    "peak_mem_mb": ("MB", "lower"),
    "sweep_s": ("s", "lower"),
}

# Per-layer metrics measured on every workload of BENCHMARK.json, in its
# order. The quality metrics at the end are deterministic per seed (zero
# when nothing fails) or a ratio of two gated metrics: no noise bound
# applies, so they are not end-to-end; untraced runs print them too.
PER_LAYER = {
    "problem.build_local_s": ("s", "lower"),
    "problem.build_central_s": ("s", "lower"),
    "problem.condensed_maps_calls": ("count", "lower"),
    "problem.condensed_maps_ms": ("ms", "lower"),
    "problem.cost_calls": ("count", "lower"),
    "problem.cost_us": ("us", "lower"),
    "admm.engine_init_s": ("s", "lower"),
    "admm.rebind_ms": ("ms", "lower"),
    "admm.run_self_ms": ("ms", "lower"),
    "admm.iterations": ("count", "lower"),
    "admm.xupdate_calls": ("count", "lower"),
    "admm.xupdate_self_us": ("us", "lower"),
    "admm.zavg_us": ("us", "lower"),
    "admm.dual_us": ("us", "lower"),
    "admm.residual_us": ("us", "lower"),
    "admm.failures": ("count", "lower"),
    "admm.flops_per_iter": ("flop-computed", "lower"),
    "admm.gflops_achieved": ("GFLOP/s", "higher"),
    "qp.solves": ("count", "lower"),
    "qp.closed_form_n": ("count", "higher"),
    "qp.closed_form_us": ("us", "lower"),
    "qp.closed_form_share": ("ratio", "higher"),
    "qp.start_point_n": ("count", "lower"),
    "qp.polish_n": ("count", "lower"),
    "qp.polish_us": ("us", "lower"),
    "qp.gradient_n": ("count", "lower"),
    "qp.gradient_iters": ("count", "lower"),
    "qp.nonoptimal_n": ("count", "lower"),
    "sim.central_solve_ms": ("ms", "lower"),
    "sim.central_qp_us": ("us", "lower"),
    "sim.plant_us": ("us", "lower"),
    "sim.stage_cost_us": ("us", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "excess_cost_pct": ("%", "lower"),
    "final_disagreement": ("1", "lower"),
    "failed_step_pct": ("%", "lower"),
    "step_gap_ratio": ("x", "lower"),
}

# Per-layer metrics of layers that run on some workloads only (no warm shift
# on sweep-cold, iteration_sweep on sweep-cold alone, dual decomposition and
# the gradient QP loop on dd-path5 alone). Printed where measured and named
# as absent elsewhere, so they stay out of the result line.
SPECIFIC = {
    "dd.run_ms": ("ms", "lower"),
    "dd.iterations": ("count", "lower"),
    "qp.gradient_us": ("us", "lower"),
    "sim.warm_shift_us": ("us", "lower"),
    "sweep.trial_s": ("s", "lower"),
    "sweep.central_share": ("ratio", "lower"),
    "excess_pct_k1": ("%", "lower"),
    "excess_pct_k10": ("%", "lower"),
    "excess_pct_k30": ("%", "lower"),
}

UNITS = {name: unit for cat in (END_TO_END, PER_LAYER, SPECIFIC) for name, (unit, _) in cat.items()}


@dataclass
class Loop:
    cfg: object
    wall: float
    log: object
    scale: float = 1.0                 # host-speed factor of the probes around it


@dataclass
class Trial:
    dist: list                         # Loop per distributed budget, ascending K
    central: Loop
    wall: float                        # the whole paired trial, outer clock, less probing
    excess_by_k: dict = field(default_factory=dict)
    scale: float = 1.0                 # host-speed factor of its loops and the rest


class Checks:
    """Step accounting and the output checks of every closed loop."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def fail(self, msg):
        if len(self.messages) < 20:
            self.messages.append(msg)

    def loop(self, loop, agents, label):
        cfg, log = loop.cfg, loop.log
        bad = np.zeros(cfg.num_steps, dtype=bool)
        done = len(log.solver_stats)
        bad[done:] = True
        if log.aborted_at is not None:
            self.fail(f"{label}: aborted at step {log.aborted_at}")
        if cfg.solver_kind != "centralized":
            iters = np.array([s["iterations"] for s in log.solver_stats])
            wrong = iters != cfg.admm_iterations
            bad[:done] |= wrong
            if wrong.any():
                self.fail(f"{label}: {int(wrong.sum())} steps ran other than K={cfg.admm_iterations} iterations")
        if sum(s["wall_time"] for s in log.solver_stats) > loop.wall:
            bad[:] = True
            self.fail(f"{label}: recorded step times exceed the loop's wall time")
        u_max = np.array([a.u_max for a in agents])
        over = np.any(np.abs(log.inputs) > u_max[None, :, None], axis=(1, 2))
        bad[:over.size] |= over
        if over.any():
            self.fail(f"{label}: {int(over.sum())} steps applied inputs beyond u_max")
        return bad

    def trial(self, trial, agents, label):
        """Check every loop of a paired trial; a failed pairing fails them all."""
        loops = trial.dist + [trial.central]
        bads = [self.loop(lp, agents, f"{label} {lp.cfg.solver_kind} K={lp.cfg.admm_iterations}")
                for lp in loops]
        for lp in trial.dist:
            try:
                trial.excess_by_k[lp.cfg.admm_iterations] = performance_ratio(lp.log, trial.central.log)
            except ValueError as exc:
                self.fail(f"{label}: pairing check failed: {exc}")
                for b in bads:
                    b[:] = True
        self.attempted += sum(b.size for b in bads)
        self.failed += int(sum(b.sum() for b in bads))

    def crashed(self, steps, label, exc):
        self.attempted += steps
        self.failed += steps
        self.fail(f"{label}: {type(exc).__name__}: {exc}")


def _probed(speed, cfg, run):
    """`run()`'s closed loop as a Loop, timed; with `speed`, followed by a
    probe group and scaled by the groups just before and after it."""
    t0 = time.perf_counter()
    log = run()
    loop = Loop(cfg, time.perf_counter() - t0, log)
    if speed is not None:
        before = len(speed.groups) - 1
        loop.scale = speed.factor(before, speed.probe())
    return loop


def _timed_loop(g, cfg, inp, speed):
    return _probed(speed, cfg, lambda: simulation.run_closed_loop(
        g, cfg, agents=inp.agents, initial_states=inp.initial_states, noise=inp.noise))


class _Capture:
    """Rebinds simulation.run_closed_loop to keep each loop iteration_sweep runs."""

    def __init__(self, speed):
        self.speed = speed
        self.loops = []

    def __enter__(self):
        self.orig = simulation.run_closed_loop

        def capture(g, cfg, *args, **kwargs):
            loop = _probed(self.speed, cfg, lambda: self.orig(g, cfg, *args, **kwargs))
            self.loops.append(loop)
            return loop.log

        simulation.run_closed_loop = capture
        return self

    def __exit__(self, *exc):
        simulation.run_closed_loop = self.orig
        return False


def run_trial(wl, g, inp, speed=None):
    """One paired trial on pre-drawn inputs; raises what the program raises.

    With `speed`, a probe group precedes the trial and follows each of its
    loops, and every timing is scaled by the groups around it; the trial's
    wall leaves out the probing inside it.
    """
    cfg = wl.config()
    first = speed.probe() if speed is not None else None
    t0 = time.perf_counter()
    if wl.sweep:
        with _Capture(speed) as cap:
            simulation.iteration_sweep(g, cfg, list(wl.k_values), 1,
                                       base_seed=inp.trial_seed, n_jobs=1)
        wall = time.perf_counter() - t0
        central = [lp for lp in cap.loops if lp.cfg.solver_kind == "centralized"]
        dist = [lp for lp in cap.loops if lp.cfg.solver_kind != "centralized"]
        if len(central) != 1 or len(dist) != len(wl.k_values):
            raise RuntimeError(f"iteration_sweep ran {len(central)} centralized and "
                               f"{len(dist)} distributed loops")
        central = central[0]
    else:
        dist = [_timed_loop(g, replace(cfg, admm_iterations=k), inp, speed) for k in wl.k_values]
        central = _timed_loop(g, replace(cfg, solver_kind="centralized"), inp, speed)
        performance_ratio(dist[-1].log, central.log)  # the pairing step of a sweep trial
        wall = time.perf_counter() - t0
    trial = Trial(dist, central, wall)
    if speed is not None:
        # each loop at its own scale, the rest of the trial at that of all its groups
        last = len(speed.groups) - 1
        trial.wall -= speed.seconds(first + 1, last)
        loops = dist + [central]
        rest = trial.wall - sum(lp.wall for lp in loops)
        scaled = sum(lp.scale * lp.wall for lp in loops) + speed.factor(first, last) * rest
        trial.scale = scaled / trial.wall
    return trial


def run_trials(wl, g, inputs, checks, label, before=None, speed=None):
    """Run every trial once, calling `before(n, inp)` ahead of trial n."""
    trials = []
    for n, inp in enumerate(inputs):
        steps = inp.noise.shape[0] * (len(wl.k_values) + 1)
        try:
            if before is not None:
                before(n, inp)
            trial = run_trial(wl, g, inp, speed)
        except Exception as exc:  # a crashed trial is counted, never dropped
            checks.crashed(steps, f"{label} trial {n}", exc)
            continue
        checks.trial(trial, inp.agents, f"{label} trial {n}")
        trials.append(trial)
    return trials


# -- set-up and memory --------------------------------------------------------

def _setup_time(g, cfg, inp):
    """Wall of a one-step loop minus that step's recorded wall time."""
    one = replace(cfg, num_steps=1)
    t0 = time.perf_counter()
    log = simulation.run_closed_loop(g, one, agents=inp.agents,
                                     initial_states=inp.initial_states, noise=inp.noise[:1])
    wall = time.perf_counter() - t0
    if log.aborted_at is not None:
        raise RuntimeError(f"set-up probe aborted ({one.solver_kind})")
    return wall - log.solver_stats[0]["wall_time"]


def _probe_configs(wl):
    # construction does not depend on the iteration budget: probe with K=1
    dist = replace(wl.config(), admm_iterations=1)
    return dist, replace(dist, solver_kind="centralized")


def warm_up(wl, g, inp):
    """One unrecorded one-step loop per controller, so lazy imports are paid."""
    for cfg in _probe_configs(wl):
        _setup_time(g, cfg, inp)


def setup_pair(wl, g, inp):
    """Distributed plus centralized controller set-up, in seconds."""
    return sum(_setup_time(g, cfg, inp) for cfg in _probe_configs(wl))


def measure_peak_memory(wl, g, inp):
    """tracemalloc peak (MB) over one whole paired trial: set-up and loop of both controllers."""
    tracemalloc.start()
    try:
        run_trial(wl, g, inp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


# -- metrics ------------------------------------------------------------------

def _percentile(values, q):
    return float(np.percentile(np.asarray(values, float), q))


def step_times_ms(loops):
    return [1e3 * s["wall_time"] for lp in loops for s in lp.log.solver_stats]


def end_to_end_metrics(trials, scaled=True):
    """Timings of the trials, scaled to the nominal host speed unless `scaled` is false."""
    def f(x):
        return x.scale if scaled else 1.0

    dist = [lp for t in trials for lp in t.dist]
    d_ms = [f(lp) * ms for lp in dist for ms in step_times_ms([lp])]
    c_ms = [f(t.central) * ms for t in trials for ms in step_times_ms([t.central])]
    return {
        "dist_loop_s": statistics.median(sum(f(lp) * lp.wall for lp in t.dist) for t in trials),
        "dist_step_ms_p50": _percentile(d_ms, 50),
        "dist_step_ms_p90": _percentile(d_ms, 90),
        "central_loop_s": statistics.median(f(t.central) * t.central.wall for t in trials),
        "central_step_ms_p50": _percentile(c_ms, 50),
        "central_step_ms_p90": _percentile(c_ms, 90),
        "sweep_s": statistics.median(f(t) * t.wall for t in trials),
    }, len(d_ms), len(c_ms)


def quality_metrics(wl, trials, checks, timed):
    """Excess costs and copy disagreement, deterministic per seed, and the
    step gap of the `timed` trials (printed, never gated)."""
    out = {}
    ref = [t.excess_by_k.get(wl.k_ref) for t in trials]
    if trials and None not in ref:
        out["excess_cost_pct"] = float(np.mean(ref))
    rp = [s["r_primal"] for t in trials for s in t.dist[-1].log.solver_stats]
    if rp:
        out["final_disagreement"] = float(np.median(rp))
    for k in (1, 10, 30):
        vals = [t.excess_by_k.get(k) for t in trials]
        if wl.sweep and trials and None not in vals:
            out[f"excess_pct_k{k}"] = float(np.mean(vals))
    out["failed_step_pct"] = 100.0 * checks.failed / max(checks.attempted, 1)
    if timed:
        e2e, _, _ = end_to_end_metrics(timed, scaled=False)
        out["step_gap_ratio"] = e2e["dist_step_ms_p50"] / e2e["central_step_ms_p50"]
    return out


def digests(trials):
    """SHA-256 per solver kind over the states and inputs of its loops, in run order."""
    hashes = {}
    for t in trials:
        for lp in t.dist + [t.central]:
            h = hashes.setdefault(lp.cfg.solver_kind, hashlib.sha256())
            h.update(np.ascontiguousarray(lp.log.states).tobytes())
            h.update(np.ascontiguousarray(lp.log.inputs).tobytes())
    return {kind: h.hexdigest() for kind, h in hashes.items()}


def xupdate_flops(problems):
    """Computed flops of one ADMM iteration's x-updates on the closed-form path.

    Per agent with local dimension d and u condensed inputs: the gradient
    M'v and the expansion M x (2du each), and the Cholesky solve, the KKT
    check and the objective (2u^2 each).
    """
    total = 0
    for p in problems:
        d, u = p.dim, sum(m.m for m in p.models) * p.T
        total += 4 * d * u + 6 * u * u
    return total


def layer_metrics(wl, g, inputs, rec, trials, untraced):
    """Per-layer metrics from the recorder; a metric without spans is left out."""
    names = np.array(rec.names, dtype=object)
    dur = np.array(rec.ends) - np.array(rec.starts)
    self_t = np.array(rec.self_times())
    step_ids = np.array(rec.steps)
    values = {}

    def sel(name, in_step=False):
        mask = names == name
        return mask & (step_ids >= 0) if in_step else mask

    def mean(key, name, arr=dur, scale=1.0):
        m = sel(name)
        if m.any():
            values[key] = scale * float(arr[m].mean())

    dist = [lp for t in trials for lp in t.dist]
    admm_loops = [lp for lp in dist if lp.cfg.solver_kind == "admm"]
    dd_loops = [lp for lp in dist if lp.cfg.solver_kind == "dual_decomp"]
    d_steps = sum(len(lp.log.solver_stats) for lp in dist)
    admm_iters = [s["iterations"] for lp in admm_loops for s in lp.log.solver_stats]

    mean("problem.build_local_s", "problem.build_local_problems")
    mean("problem.build_central_s", "problem.build_centralized_qp")
    for name, key, scale in (("admm.condensed_maps", "problem.condensed_maps", 1e3),
                             ("problem.cost", "problem.cost", None)):
        m = sel(name, in_step=True)
        if m.any() and d_steps:
            values[f"{key}_calls"] = float(m.sum()) / d_steps
            if scale:
                values[f"{key}_ms"] = scale * float(dur[m].sum()) / d_steps
    mean("problem.cost_us", "problem.cost", scale=1e6)
    mean("admm.engine_init_s", "admm.engine_init")
    mean("admm.rebind_ms", "admm.rebind_states", scale=1e3)
    mean("admm.run_self_ms", "admm.run", arr=self_t, scale=1e3)
    mean("admm.xupdate_self_us", "admm.xupdate", arr=self_t, scale=1e6)
    mean("admm.zavg_us", "admm.z_update", scale=1e6)
    mean("admm.residual_us", "admm.residuals", scale=1e6)
    if admm_iters:
        values["admm.iterations"] = float(np.mean(admm_iters))
        if sel("admm.xupdate").any():
            values["admm.xupdate_calls"] = float(sel("admm.xupdate").sum()) / len(admm_iters)
        if sel("admm.dual_update").any():
            values["admm.dual_us"] = 1e6 * float(dur[sel("admm.dual_update")].sum()) / sum(admm_iters)
        problems, _, _ = build_local_problems(g, inputs[0].agents, wl.config().horizon,
                                              inputs[0].initial_states)
        flops = xupdate_flops(problems)
        values["admm.flops_per_iter"] = float(flops)
        busy = float(dur[sel("admm.xupdate")].sum())
        if busy > 0:
            values["admm.gflops_achieved"] = flops * sum(admm_iters) / busy / 1e9
    values["admm.failures"] = float(sum(lp.log.aborted_at is not None for lp in dist))
    mean("dd.run_ms", "admm.run_dual_decomposition", scale=1e3)
    if dd_loops:
        values["dd.iterations"] = float(np.mean([s["iterations"] for lp in dd_loops
                                                 for s in lp.log.solver_stats]))

    # QP paths of the distributed x-updates, classified from QpSolution fields
    qp_idx = [i for i in rec.qp if rec.names[i] == "admm.solve_box_qp"]
    paths = {}
    for i in qp_idx:
        path, iters = rec.qp[i]
        n, t, it = paths.get(path, (0, 0.0, 0))
        paths[path] = (n + 1, t + dur[i], it + iters)
    if qp_idx:
        values["qp.solves"] = float(len(qp_idx))
        for path in ("closed_form", "start_point", "polish", "gradient", "nonoptimal"):
            n, t, it = paths.get(path, (0, 0.0, 0))
            values[f"qp.{path}_n"] = float(n)
            if n and path in ("closed_form", "polish", "gradient"):
                values[f"qp.{path}_us"] = 1e6 * t / n
        values["qp.gradient_iters"] = float(paths.get("gradient", (0, 0.0, 0))[2])
        values["qp.closed_form_share"] = values["qp.closed_form_n"] / len(qp_idx)

    mean("sim.warm_shift_us", "sim.warm_shift", scale=1e6)
    mean("sim.central_solve_ms", "sim.central_solve", scale=1e3)
    mean("sim.central_qp_us", "sim.solve_box_qp", scale=1e6)
    mean("sim.plant_us", "sim.step", scale=1e6)
    mean("sim.stage_cost_us", "sim.global_cost", scale=1e6)
    mean("sweep.trial_s", "sim.iteration_sweep")
    sweeps = sel("sim.iteration_sweep")
    if sweeps.any():
        central = [i for i, kind in rec.loop_kind.items() if kind == "centralized"]
        values["sweep.central_share"] = float(dur[central].sum() / dur[sweeps].sum())

    traced = sum(lp.wall for lp in dist)
    plain = sum(lp.wall for t in untraced for lp in t.dist)
    if plain > 0 and traced > 0:
        values["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
    return values


def check_qp_paths(values, trials, checks):
    """Every x-update QP took exactly one path: the counts sum to N*K*steps."""
    expected = sum(len(lp.log.states[0]) * sum(s["iterations"] for s in lp.log.solver_stats)
                   for t in trials for lp in t.dist)
    counted = sum(values.get(f"qp.{p}_n", 0.0)
                  for p in ("closed_form", "start_point", "polish", "gradient"))
    if counted != expected or values.get("qp.nonoptimal_n", 0.0):
        checks.fail(f"QP path counts sum to {counted:.0f}, expected N*K*steps = {expected}")
        return False
    return True


# -- a whole run ----------------------------------------------------------------

@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict                       # name -> value, for the result line
    info: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)


def run_untraced(wl, seed):
    g = wl.make_graph()
    inputs = make_inputs(wl, g, seed)
    checks = Checks()
    speed = HostSpeed()
    t0 = time.perf_counter()
    warm_up(wl, g, inputs[0])
    speed.probe(1)  # unrecorded: pays the probe's own first-call costs
    speed.groups.clear()
    metrics = {"peak_mem_mb": measure_peak_memory(wl, g, inputs[0])}
    setups = {}

    def before(n, inp):
        # the trial's first probe group follows the set-up probe
        setups[n] = (speed.probe(), setup_pair(wl, g, inp))

    trials = run_trials(wl, g, inputs, checks, "timed", before, speed)
    as_timed = {}
    factors = [speed.factor(i, i + 1) for i, _ in setups.values()]
    if setups:
        metrics["setup_s"] = statistics.median(f * s for f, (_, s) in zip(factors, setups.values()))
        as_timed["setup_s"] = statistics.median(s for _, s in setups.values())
    info = {"trials": len(inputs), "steps_per_trial": wl.steps, "setup_probes": len(setups)}
    if trials:
        e2e, n_d, n_c = end_to_end_metrics(trials)
        metrics.update(e2e)
        as_timed.update(end_to_end_metrics(trials, scaled=False)[0])
        info.update(dist_steps=n_d, central_steps=n_c)
    factors += [x.scale for t in trials for x in t.dist + [t.central, t]]
    info.update(as_timed=as_timed, host_probe_ms=1e3 * speed.median_s(),
                host_factor_min=min(factors, default=1.0), host_factor_max=max(factors, default=1.0))
    info["extra"] = quality_metrics(wl, trials, checks, trials)
    info["sha256"] = digests(trials)
    info["checks"] = checks.messages
    info["measured_s"] = round(time.perf_counter() - t0, 3)
    correct = checks.failed == 0 and not checks.messages and len(metrics) == len(END_TO_END)
    return Result(correct, checks.attempted, checks.failed, metrics, info)


def run_traced(wl, seed, spans_path=None):
    g = wl.make_graph()
    inputs = make_inputs(wl, g, seed)
    checks = Checks()
    plain, traced = [], []
    wall = 0.0
    rec = Recorder()
    warm_up(wl, g, inputs[0])
    for n, inp in enumerate(inputs):
        plain += run_trials(wl, g, [inp], checks, f"untraced trial {n}")
        t0 = time.perf_counter()
        with rec:
            traced += run_trials(wl, g, [inp], checks, f"traced trial {n}")
        wall += time.perf_counter() - t0
    values = layer_metrics(wl, g, inputs, rec, traced, plain)
    # without QP spans (an entry point renamed away) the check cannot run
    qp_ok = check_qp_paths(values, traced, checks) if "qp.solves" in values else True
    values.update(quality_metrics(wl, traced, checks, plain))
    absent = [k for k in (*PER_LAYER, *SPECIFIC) if k not in values]
    absent += [f"missing entry point {name}" for name in rec.absent]
    if spans_path is not None:
        rec.write_csv(spans_path)
    info = {"spans": len(rec.starts), "traced_wall_s": wall,
            "self_time_sum_s": float(sum(rec.self_times())),
            "extra": {k: values[k] for k in SPECIFIC if k in values},
            "sha256": digests(traced),
            "checks": checks.messages}
    metrics = {k: values[k] for k in PER_LAYER if k in values}
    correct = checks.failed == 0 and not checks.messages and qp_ok
    return Result(correct, checks.attempted, checks.failed, metrics, info, absent)
