"""Consensus ADMM over agent subproblems, plus a dual-decomposition baseline.

The iteration is bulk-synchronous: all agents minimize their augmented
local costs in parallel, the consensus vector is refreshed by component
averaging, then every agent takes a dual step. Reduction order is fixed
by agent index so parallel runs reproduce serial results bitwise.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_factor

from .problem import (check_finite_states, condensed_bounds, condensed_hessian, condensed_maps,
                      copy_counts, predictions)
from .qp import BoxQp, power_iteration_lmax, solve_box_qp


class SolverFailure(RuntimeError):
    """A QP of a controller step ended other than optimal.

    `agent` and `iteration` are None for the centralized QP.
    """

    def __init__(self, agent, iteration, detail):
        where = ("centralized QP" if agent is None
                 else f"subproblem of agent {agent} failed at iteration {iteration}")
        super().__init__(f"{where}: {detail}")
        self.agent = agent
        self.iteration = iteration


@dataclass
class AdmmState:
    x: list            # per-agent local vectors
    lam: list          # per-agent duals, same shapes
    z: np.ndarray
    rho: float
    k: int = 0
    history: list = field(default_factory=list)  # (r_primal, r_dual) per iteration


@dataclass
class AdmmResult:
    plans: list        # final per-agent local vectors
    z: np.ndarray
    state: AdmmState
    history: list      # rows (k, r_primal, r_dual)
    converged: bool
    objective: float   # sum of the local costs at the final iterate
    solve_times: list = field(default_factory=list)
    max_dual_avg_violation: float = 0.0


def z_update(x_cat, E, counts):
    """Componentwise average of every local copy mapping to each z entry.

    `x_cat` stacks the agents' local vectors and `E` their z indices in the
    same order. bincount adds the copies in that order, so the sums equal
    those of a per-agent np.add.at loop bit for bit.
    """
    return np.bincount(E, weights=x_cat, minlength=counts.shape[0]) / counts


def dual_update(lam_cat, x_cat, zE, rho):
    """lam <- lam + rho (x - E z) for every agent at once, with x and z at
    the new iterate and zE = z[E]. Returns the new duals and x - E z."""
    diff = x_cat - zE
    return lam_cat + rho * diff, diff


def residuals(diff, dz, counts, rho):
    """Primal: copy disagreement ||x - E z||, from diff = x - E z.
    Dual: scaled z motion rho ||E dz||, from dz = z - z_prev."""
    return float(np.sqrt(diff @ diff)), rho * float(np.sqrt(np.sum(counts * dz * dz)))


class _AgentCache:
    """Per-agent condensed structure reused across iterations and MPC steps.

    Everything that depends only on topology, horizon, and rho is validated
    and factorized once; rebinding measured states refreshes only the affine
    offset and the static part of the gradient. `solve` is the x-update.
    """

    def __init__(self, problem, pred, rho, qp_tol):
        self.problem = problem
        self.pred = pred
        self.rho = rho
        self.qp_tol = qp_tol
        M, _ = condensed_maps(problem, pred)
        self.M = M
        self.Mt = M.T
        P = M.T @ (problem.H @ M) + rho * (M.T @ M)
        P = 0.5 * (P + P.T)
        self.cho = cho_factor(P)
        self.lipschitz = power_iteration_lmax(P)
        lo, hi = condensed_bounds(problem)
        self.qp = BoxQp(P, np.zeros(lo.shape[0]), lo, hi)
        self.warm = None
        self.rebind_states(problem.x0)

    def rebind_states(self, x0_per_member):
        self.problem = replace(self.problem, x0=tuple(np.asarray(v, float) for v in x0_per_member))
        _, self.c = condensed_maps(self.problem, self.pred, self.M)
        # q = M'((H + rho I)c + g + lam - rho z_loc); the first two terms are static
        self.q_static = self.Mt @ (self.problem.H @ self.c + self.problem.g) \
            + self.rho * (self.Mt @ self.c)

    def solve(self, lam, z_loc, k, qp_max_iter=20000):
        """Minimize the local cost plus lam'(x - E z) + (rho/2)||x - E z||^2 at iteration k."""
        q = self.q_static + self.Mt @ (lam - self.rho * z_loc)
        sol = solve_box_qp(self.qp.with_q(q), tol=self.qp_tol, max_iter=qp_max_iter,
                           x0=self.warm, lipschitz=self.lipschitz, cho=self.cho)
        if sol.status != "optimal":
            raise SolverFailure(self.problem.owner, k, f"{sol.status}: {sol.message}")
        self.warm = sol.x_star
        return self.M @ sol.x_star + self.c


def _timed_solve(cache, lam, z_loc, k):
    """The x-update of one agent and its wall time, measured where it runs."""
    t0 = time.perf_counter()
    x = cache.solve(lam, z_loc, k)
    return x, time.perf_counter() - t0


class AdmmEngine:
    """Runs Algorithm-style ADMM sweeps over a fixed set of subproblems.

    The iteration works on stacked vectors: x_cat and lam_cat concatenate
    the agents' local vectors in agent order and E = concat(global_idx)
    maps each entry to its z component.
    """

    def __init__(self, problems, maps, rho, z_dim=None, qp_tol=1e-6, parallel=False):
        if rho <= 0:
            raise ValueError("rho must be positive")
        self.problems = list(problems)
        self.maps = list(maps)
        self.rho = rho
        self.z_dim = z_dim if z_dim is not None else int(max(m.global_idx.max() for m in maps) + 1)
        self.counts = copy_counts(self.maps, self.z_dim)
        self.E = np.concatenate([m.global_idx for m in self.maps])
        ends = np.cumsum([p.dim for p in self.problems])
        self.slices = [slice(e - p.dim, e) for p, e in zip(self.problems, ends)]
        pred = predictions(self.problems)
        self.caches = [_AgentCache(p, pred, rho, qp_tol) for p in self.problems]
        workers = min(len(self.problems), os.cpu_count() or 1)
        self.pool = ThreadPoolExecutor(max_workers=workers) if parallel else None

    def rebind_states(self, initial_states):
        check_finite_states(initial_states)
        for cache in self.caches:
            cache.rebind_states([initial_states[j - 1] for j in cache.problem.members])
        self.problems = [c.problem for c in self.caches]

    def reset_warm_starts(self):
        for c in self.caches:
            c.warm = None

    def run(self, max_iter, eps_primal=0.0, eps_dual=0.0, init=None,
            track_dual_average=False):
        if init is None:
            state = AdmmState(
                x=[np.zeros(p.dim) for p in self.problems],
                lam=[np.zeros(p.dim) for p in self.problems],
                z=np.zeros(self.z_dim), rho=self.rho)
        else:
            state = init
        E, counts, rho = self.E, self.counts, self.rho
        xs = list(state.x)
        lam_cat = np.concatenate(state.lam)
        z = state.z
        zE = z[E]
        solve_all = map if self.pool is None else self.pool.map
        history = []
        solve_times = []
        max_viol = 0.0
        converged = False
        for k in range(1, max_iter + 1):
            xs = []
            for x, dt in solve_all(_timed_solve, self.caches, [lam_cat[s] for s in self.slices],
                                   [zE[s] for s in self.slices], [k] * len(self.caches)):
                xs.append(x)
                solve_times.append(dt)
            x_cat = np.concatenate(xs)
            z_prev = z
            z = z_update(x_cat, E, counts)
            zE = z[E]
            lam_cat, diff = dual_update(lam_cat, x_cat, zE, rho)
            if track_dual_average:
                lam_sum = np.bincount(E, weights=lam_cat, minlength=self.z_dim)
                max_viol = max(max_viol, float(np.max(np.abs(lam_sum), initial=0.0)))
            rp, rd = residuals(diff, z - z_prev, counts, rho)
            state.k = k
            state.history.append((rp, rd))
            history.append((k, rp, rd))
            if rp <= eps_primal and rd <= eps_dual:
                converged = True
                break
        state.x, state.lam, state.z = xs, [lam_cat[s] for s in self.slices], z
        objective = sum(c.problem.cost(x) for c, x in zip(self.caches, xs))
        return AdmmResult(plans=list(xs), z=z, state=state, history=history,
                          converged=converged, objective=objective,
                          solve_times=solve_times, max_dual_avg_violation=max_viol)


def run_admm(problems, maps, rho, max_iter, eps_primal=0.0, eps_dual=0.0,
             init=None, qp_tol=1e-6, parallel=False, track_dual_average=False):
    """One-shot ADMM solve; initialization is lam = 0, z = 0 unless given."""
    engine = AdmmEngine(problems, maps, rho, qp_tol=qp_tol, parallel=parallel)
    try:
        return engine.run(max_iter, eps_primal, eps_dual, init=init,
                          track_dual_average=track_dual_average)
    finally:
        if engine.pool is not None:
            engine.pool.shutdown()


# --- dual decomposition baseline -------------------------------------------

def _consistency_pairs(problems):
    """Constraints: each copy of a neighbor's block equals that neighbor's own block.

    Returned as (copy_owner_pos, member_pos_in_owner, var_owner_pos,
    own_pos_in_var_owner) index tuples over the problems list.
    """
    pairs = []
    for ip, p in enumerate(problems):
        for kp, j in enumerate(p.members):
            if j == p.owner:
                continue
            jp = j - 1
            own_pos = problems[jp].members.index(j)
            pairs.append((ip, kp, jp, own_pos))
    return pairs


def _member_block(p, pos):
    start = p.member_offsets()[pos]
    mdl = p.models[pos]
    return slice(start, start + mdl.n * (p.T + 1) + mdl.m * p.T)


def run_dual_decomposition(problems, maps, alpha_schedule, max_iter,
                           qp_tol=1e-8, qp_max_iter=50000):
    """Unaugmented dual ascent on the copy-consistency constraints.

    `alpha_schedule` maps iteration k (1-based) to a positive step size.
    History records the disagreement norm per iteration; runs abort if it
    blows up by 1e6 over its initial value.
    """
    if callable(alpha_schedule):
        alpha = alpha_schedule
    else:
        seq = list(alpha_schedule)
        alpha = lambda k: seq[min(k - 1, len(seq) - 1)]

    pairs = _consistency_pairs(problems)
    lams = [np.zeros(_member_block(problems[ip], kp).stop
                     - _member_block(problems[ip], kp).start)
            for ip, kp, _, _ in pairs]
    pred = predictions(problems)
    expansions, qps = [], []
    for p in problems:
        M, c = condensed_maps(p, pred)
        expansions.append((M, c))
        qps.append(BoxQp(condensed_hessian(p, M), M.T @ (p.H @ c + p.g), *condensed_bounds(p)))
    lipschitz = [power_iteration_lmax(qp.P) for qp in qps]
    warm = [None] * len(problems)

    x = [np.zeros(p.dim) for p in problems]
    history = []
    initial_norm = None
    for k in range(1, max_iter + 1):
        # linear dual term on each agent's local vector
        lin = [np.zeros(p.dim) for p in problems]
        for (ip, kp, jp, op), lam in zip(pairs, lams):
            lin[ip][_member_block(problems[ip], kp)] += lam
            lin[jp][_member_block(problems[jp], op)] -= lam
        for i, (p, qp, (M, c)) in enumerate(zip(problems, qps, expansions)):
            sol = solve_box_qp(qp.with_q(qp.q + M.T @ lin[i]), tol=qp_tol,
                               max_iter=qp_max_iter, x0=warm[i], lipschitz=lipschitz[i])
            if sol.status != "optimal":
                raise SolverFailure(p.owner, k, f"{sol.status}: {sol.message}")
            warm[i] = sol.x_star
            x[i] = M @ sol.x_star + c
        ak = alpha(k)
        dis2 = 0.0
        for idx, (ip, kp, jp, op) in enumerate(pairs):
            r = x[ip][_member_block(problems[ip], kp)] - x[jp][_member_block(problems[jp], op)]
            lams[idx] = lams[idx] + ak * r
            dis2 += float(r @ r)
        dis = float(np.sqrt(dis2))
        history.append((k, dis))
        if initial_norm is None:
            initial_norm = max(dis, 1e-12)
        if dis > 1e6 * initial_norm:
            raise RuntimeError(f"dual decomposition diverging: disagreement {dis:.3e} "
                               f"vs initial {initial_norm:.3e}")
    return x, history
