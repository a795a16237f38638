"""Benchmark workloads and the seeded generator of their inputs.

Every workload is a closed loop with one caller in one process: a control
step starts only after the previous one has finished, and agents are solved
serially (`parallel_agents` stays off, `iteration_sweep` runs with
`n_jobs=1`). The program receives only the graph, agent models, initial
states and noise drawn here from the benchmark's `--seed`.
"""

from dataclasses import dataclass, replace

import numpy as np

from dmpc import InfoGraph, SimConfig, double_integrator_3d, draw_initial_states, draw_noise, path_graph

# The run length, in seconds, that each workload's trial count is sized for:
# warm-up, memory pass, set-up and host-speed probes and the timed trials take
# about this long on a 2-CPU x86_64 host. BENCHMARK.json's run_seconds.
RUN_SECONDS = 40


def grid_graph(rows, cols):
    """rows x cols lattice with unit weights, vertices numbered row-major from 1."""
    weights = {}
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c + 1
            if c + 1 < cols:
                weights[(v, v + 1)] = 1.0
            if r + 1 < rows:
                weights[(v, v + cols)] = 1.0
    return InfoGraph(rows * cols, weights)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str                 # one line, copied into BENCHMARK.json
    graph: tuple             # ("path", n) or ("grid", rows, cols)
    solver: str              # distributed solver kind: "admm" or "dual_decomp"
    k_values: tuple          # iteration budgets; the last one is the reference K
    warm_start: bool
    trials: int              # paired trials in a run of RUN_SECONDS, each with its own inputs
    steps: int               # closed-loop steps per trial
    sweep: bool = False      # trials go through iteration_sweep
    gated: bool = True       # listed in BENCHMARK.json, so its bounds are enforced
    smoke_steps: int = 2

    @property
    def k_ref(self):
        return self.k_values[-1]

    def make_graph(self):
        kind, *dims = self.graph
        return path_graph(*dims) if kind == "path" else grid_graph(*dims)

    def config(self):
        return SimConfig(num_steps=self.steps, horizon=10, rho=1.0,
                         admm_iterations=self.k_ref, noise_variance=0.1,
                         solver_kind=self.solver, warm_start=self.warm_start)

    def sized(self, seconds):
        """The same workload with its trial count scaled from RUN_SECONDS to `seconds`."""
        return replace(self, trials=max(1, round(self.trials * seconds / RUN_SECONDS)))

    def smoke(self):
        """A couple of steps of the same workload, one trial, for self-tests."""
        return replace(self, trials=1, steps=self.smoke_steps)


WORKLOADS = {w.name: w for w in (
    # In 50-step loops 81% of x-updates are closed-form and 19% polish, mostly
    # in the saturated first steps; a 250-step run measured 35,848 closed-form,
    # 1,622 polish and 30 start-point x-updates (96%). The gradient path does
    # not run. Fifty steps keep the p50 among free steps and the p90 among
    # saturated ones.
    Workload(
        name="stock-path5",
        why="paper's stock scenario: most x-updates (81% in 50-step loops) take the "
            "closed-form Cholesky path, so per-iteration bookkeeping (BoxQp checks, "
            "objective, z-average, warm shift) dominates",
        graph=("path", 5), solver="admm", k_values=(30,), warm_start=True,
        trials=11, steps=50),
    # Over 60 steps about one third of x-updates need the active-set polish
    # (3,991 of 12,000); the first steps, with inputs at their bounds, need it
    # most. Ten-step loops keep every step in that saturated phase (distributed
    # steps of 140-250 ms throughout) and give 100 steps a run, ten beyond the
    # p90: over 50-step loops the centralized median sits where saturated and
    # free steps meet and moves by half between seeds. The centralized
    # Hessian is 1920x1920.
    Workload(
        name="grid-n20",
        why="4x5 grid, degree up to 4: local QPs of up to 150 inputs, polish-heavy "
            "saturated first steps, 10x the stock set-up, and a 600-input dense "
            "centralized QP where scaling with N shows",
        graph=("grid", 4, 5), solver="admm", k_values=(10,), warm_start=True,
        trials=10, steps=10),
    # Per-step and per-iteration optimizations show here in the opposite
    # proportion to stock-path5; warm-start changes should not move it. Over
    # six-step loops the excess at small K can be negative: weaker inputs cost
    # less before the disagreement they leave has grown.
    Workload(
        name="sweep-cold",
        why="criterion-3 budget sweep (K=1..30) through iteration_sweep on short "
            "cold-start loops: bypasses the warm shift; at small K per-step "
            "rebinding and condensing dominate",
        graph=("path", 5), solver="admm", k_values=(1, 2, 5, 10, 30), warm_start=False,
        trials=30, steps=6, sweep=True),
    # Steps take 2-4 s and vary by about 17% with the inputs, so a run of
    # reasonable length holds about ten: the spread of its figures between
    # seeds exceeds any allowed bound. It runs through the same command, for
    # its per-layer metrics, but is not gated.
    Workload(
        name="dd-path5",
        why="dual-decomposition baseline (alpha_k=1/k, K=30) on path5: the only "
            "workload that runs run_dual_decomposition and the projected-gradient "
            "loop of solve_box_qp",
        graph=("path", 5), solver="dual_decomp", k_values=(30,), warm_start=True,
        trials=5, steps=2, gated=False, smoke_steps=1),
)}


@dataclass
class TrialInputs:
    trial_seed: int          # what iteration_sweep receives as base_seed
    agents: list
    initial_states: list
    noise: np.ndarray


def trial_seed(seed, trial):
    """Independent 32-bit seed for one trial of one benchmark run."""
    return int(np.random.SeedSequence([abs(int(seed)), trial]).generate_state(1)[0])


def make_inputs(workload, g, seed):
    """Draw each trial's agents, initial states and noise once.

    The draws repeat those of `iteration_sweep` for the same trial seed, so
    a sweep trial and the memory pass see identical inputs.
    """
    out = []
    cfg = workload.config()
    for trial in range(workload.trials):
        ts = trial_seed(seed, trial)
        rng = np.random.default_rng(ts)
        agents = [double_integrator_3d(cfg.ts, cfg.mass, cfg.u_max) for _ in range(g.num_agents)]
        x0 = draw_initial_states(g, cfg, rng)
        noise = draw_noise(g, cfg, rng)
        out.append(TrialInputs(ts, agents, x0, noise))
    return out
