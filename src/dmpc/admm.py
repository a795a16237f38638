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

from .problem import (check_finite_states, condensed_bounds, condensed_maps, copy_counts,
                      predictions)
from .qp import BoxQp, solve_box_qp


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
    lam: np.ndarray    # stacked duals a run starts from, in the order of E
    z: np.ndarray


@dataclass
class AdmmResult:
    plans: list        # final per-agent local vectors
    z: np.ndarray
    lam: np.ndarray    # final stacked duals
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


def _stacking(problems, maps):
    """E = concat(global_idx) and each agent's slice of a stacked vector."""
    E = np.concatenate([m.global_idx for m in maps])
    ends = np.cumsum([p.dim for p in problems])
    return E, [slice(e - p.dim, e) for p, e in zip(problems, ends)]


class _AgentCache:
    """Per-agent condensed structure reused across iterations and MPC steps.

    Everything that depends only on topology, horizon, and rho is validated
    and inverted once; rebinding measured states refreshes only the affine
    offset and the static part of the gradient. `solve` is the x-update of
    ADMM and, at rho = 0, of dual decomposition.
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
        lo, hi = condensed_bounds(problem)
        self.qp = BoxQp(P, np.zeros(lo.shape[0]), lo, hi)
        self.warm = None
        self.rebind_states(problem.x0)

    def rebind_states(self, x0_per_member):
        self.problem = replace(self.problem, x0=tuple(np.asarray(v, float) for v in x0_per_member))
        _, self.c = condensed_maps(self.problem, self.pred, self.M)
        # q = M'((H + rho I)c + g + v); the first two terms are static
        self.q_static = self.Mt @ (self.problem.H @ self.c + self.problem.g) \
            + self.rho * (self.Mt @ self.c)

    def solve(self, v, k):
        """Minimize the local cost plus v'x + (rho/2)||x||^2 at iteration k. ADMM
        passes v = lam - rho E z; dual decomposition its multipliers' term."""
        q = self.q_static + self.Mt @ v
        sol = solve_box_qp(self.qp.with_q(q), tol=self.qp_tol, x0=self.warm)
        if sol.status != "optimal":
            raise SolverFailure(self.problem.owner, k, f"{sol.status}: {sol.message}")
        self.warm = sol.x_star
        return self.M @ sol.x_star + self.c


def _timed_solve(cache, v, k):
    """The x-update of one agent and its wall time, measured where it runs."""
    t0 = time.perf_counter()
    x = cache.solve(v, k)
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
        self.E, self.slices = _stacking(self.problems, self.maps)
        pred = predictions(self.problems)
        self.caches = [_AgentCache(p, pred, rho, qp_tol) for p in self.problems]
        workers = min(len(self.problems), os.cpu_count() or 1)
        self.pool = ThreadPoolExecutor(max_workers=workers) if parallel else None

    def rebind_states(self, initial_states):
        check_finite_states(initial_states)
        for cache in self.caches:
            cache.rebind_states([initial_states[j - 1] for j in cache.problem.members])
        self.problems = [c.problem for c in self.caches]

    def run(self, max_iter, eps_primal=0.0, eps_dual=0.0, init=None,
            track_dual_average=False):
        """Up to max_iter iterations from `init` (lam = 0, z = 0 if None);
        a run of zero iterations returns the copies of z as its plans."""
        if init is None:
            init = AdmmState(lam=np.zeros(self.E.size), z=np.zeros(self.z_dim))
        E, counts, rho = self.E, self.counts, self.rho
        lam_cat, z = init.lam, init.z
        zE = z[E]
        xs = [zE[s] for s in self.slices]
        solve_all = map if self.pool is None else self.pool.map
        history = []
        solve_times = []
        max_viol = 0.0
        converged = False
        for k in range(1, max_iter + 1):
            v = lam_cat - rho * zE
            xs = []
            for x, dt in solve_all(_timed_solve, self.caches, [v[s] for s in self.slices],
                                   [k] * len(self.caches)):
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
            history.append((k, rp, rd))
            if rp <= eps_primal and rd <= eps_dual:
                converged = True
                break
        objective = sum(c.problem.cost(x) for c, x in zip(self.caches, xs))
        return AdmmResult(plans=xs, z=z, lam=lam_cat, history=history,
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

def _copy_pairs(problems, E, slices):
    """Stacked positions of each copy of a neighbor's block, in agent and
    member order, and of the neighbor's own copy of the same entry."""
    own = np.zeros(E.size, bool)
    for p, s in zip(problems, slices):
        k = p.members.index(p.owner)
        own[s.start + p.state_slice(k, 0).start:s.start + p.input_slice(k, p.T - 1).stop] = True
    own_pos = np.empty(E.max() + 1, dtype=np.intp)
    own_pos[E[own]] = np.flatnonzero(own)
    copies = np.flatnonzero(~own)
    return copies, own_pos[E[copies]]


def run_dual_decomposition(problems, maps, alpha, max_iter, qp_tol=1e-8):
    """Unaugmented dual ascent on the copy-consistency constraints.

    Each copy of a neighbor's block must equal the neighbor's own copy,
    with one multiplier per copied entry; the x-update is ADMM's at
    rho = 0. `alpha` maps iteration k (1-based) to a step size. History
    records the disagreement norm per iteration; runs abort if it blows
    up by 1e6 over its initial value.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    E, slices = _stacking(problems, maps)
    copies, owners = _copy_pairs(problems, E, slices)
    pred = predictions(problems)
    caches = [_AgentCache(p, pred, 0.0, qp_tol) for p in problems]
    nu = np.zeros(copies.size)
    history = []
    initial_norm = None
    for k in range(1, max_iter + 1):
        # linear dual term on the stacked copies: +nu on a copy, -nu on the owner's
        lin = np.zeros(E.size)
        lin[copies] = nu
        lin -= np.bincount(owners, weights=nu, minlength=E.size)
        x_cat = np.concatenate([c.solve(lin[s], k) for c, s in zip(caches, slices)])
        r = x_cat[copies] - x_cat[owners]
        nu = nu + alpha(k) * r
        dis = float(np.sqrt(r @ r))
        history.append((k, dis))
        if initial_norm is None:
            initial_norm = max(dis, 1e-12)
        if dis > 1e6 * initial_norm:
            raise RuntimeError(f"dual decomposition diverging: disagreement {dis:.3e} "
                               f"vs initial {initial_norm:.3e}")
    return [x_cat[s] for s in slices], history
