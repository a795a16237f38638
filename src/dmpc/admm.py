"""Consensus ADMM over agent subproblems, plus a dual-decomposition baseline.

The iteration is bulk-synchronous: all agents minimize their augmented
local costs in parallel, the consensus vector is refreshed by component
averaging, then every agent takes a dual step. Reduction order is fixed
by agent index so parallel runs reproduce serial results bitwise.

One engine (`AdmmEngine`) per agent set holds the stacking of the agents'
local vectors, the network map (every agent's sparse condensing map stacked
block-diagonally), the agents' QPs, their counters and the thread pool.
Per iteration, one sparse product gives every agent's condensed gradient q,
each agent solves only its own box QP (`_AgentCache.solve`, timed alone),
and one more product turns the minimizers into local vectors. Alike agents
share one QP, inverted once; each solves on its own shallow copy of it.
Dual decomposition's x-update is ADMM's at rho = 0 (Boyd et al. 2011, §2.2
and §3.1), so it runs on an engine built at rho = 0.
"""

import copy
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .problem import (check_states, condensed_bounds, condensed_hessian, condensed_maps,
                      condensing_matrix, copy_counts, index_dtype, predictions)
from .qp import BoxQp, solve_box_qp


class SolverFailure(RuntimeError):
    """A QP of a controller step ended other than optimal, or dual
    decomposition diverged. `agent` and `iteration` are None for the
    centralized QP; `agent` alone is None when dual decomposition diverged.
    """

    def __init__(self, agent, iteration, detail):
        where = ("centralized QP" if iteration is None
                 else f"dual decomposition diverging at iteration {iteration}" if agent is None
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
    solve_times: list = field(default_factory=list)  # per agent x-update: its QP alone, s
    max_dual_avg_violation: float = None  # None unless the run tracked it


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
    return math.sqrt(diff @ diff), rho * math.sqrt(np.add.reduce(counts * dz * dz))


def _block_diagonal(blocks):
    """CSR arrays stacked block-diagonally, from their index arrays, which
    stay 32-bit while the stack's shape and nonzeros fit."""
    shape = sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)
    idx = index_dtype(shape, sum(b.nnz for b in blocks))
    cols = np.cumsum([0] + [b.shape[1] for b in blocks], dtype=idx)
    nnz = np.cumsum([0] + [b.nnz for b in blocks], dtype=idx)
    return sparse.csr_array(
        (np.concatenate([b.data for b in blocks]),
         np.concatenate([b.indices + c for b, c in zip(blocks, cols)], dtype=idx),
         np.concatenate([nnz[:1]] + [b.indptr[1:] + n for b, n in zip(blocks, nnz)], dtype=idx)),
        shape=shape)


def _matvec(A, x):
    """A @ x for a CSR or CSC array A and a float vector x, bit for bit
    scipy's product without its dispatch: sparsetools' kernel adds each
    product onto a zeroed output."""
    out = np.zeros(A.shape[0])
    getattr(_sparsetools, A.format + "_matvec")(*A.shape, A.indptr, A.indices, A.data, x, out)
    return out


def _cut(A, shapes):
    """The diagonal blocks, of the given shapes in order, of block-diagonal CSR A."""
    blocks, r, c = [], 0, 0
    for m, n in shapes:
        lo, hi = A.indptr[r], A.indptr[r + m]
        blocks.append(sparse.csr_array((A.data[lo:hi], A.indices[lo:hi] - c,
                                        A.indptr[r:r + m + 1] - lo), shape=(m, n)))
        r, c = r + m, c + n
    return blocks


class QpCounters:
    """The QPs of one controller step, counted as they are solved: by the
    path `solve_box_qp` took (the closed form, the Newton point of the warm
    start's face, one Newton step, more than one), their Newton iterations
    and the Newton points solved on a held factor, the largest final KKT
    residual, every QP's wall time in solve order, and the critical path:
    the sum over rounds (ADMM iterations) of the slowest QP of the round.
    `stats()` is the step's record and `totals` adds records of steps up."""

    def __init__(self):
        self.closed_form = self.warm_face = self.newton_one = self.newton_more = 0
        self.newton_iterations = self.schur_reused = 0
        self.max_kkt_residual = 0.0
        self.solve_times = []
        self.critical_path_s = 0.0

    def add(self, caches):
        """One round of QPs solved side by side, from each cache's `last` and `seconds`."""
        times = [cache.seconds for cache in caches]
        closed = warm = one = steps = reused = 0
        kkt = self.max_kkt_residual
        for cache in caches:
            sol = cache.last
            # a Newton solve's history holds its start and one entry per Newton step
            n = len(sol.objective_history)
            if n:
                steps += n - 1
                warm += n == 1
                one += n == 2
                reused += sol.schur_reused  # zero on the closed form
            else:
                closed += 1
            if sol.kkt_residual > kkt:
                kkt = sol.kkt_residual
        self.closed_form += closed
        self.warm_face += warm
        self.newton_one += one
        self.newton_more += len(caches) - closed - warm - one
        self.newton_iterations += steps
        self.schur_reused += reused
        self.max_kkt_residual = kkt
        self.solve_times += times
        self.critical_path_s += max(times)

    def stats(self):
        """The step's QP record, as `SimLog.solver_stats` holds it."""
        return {"qp_closed_form": self.closed_form, "qp_warm_face": self.warm_face,
                "qp_newton_one": self.newton_one, "qp_newton_more": self.newton_more,
                "qp_newton_iterations": self.newton_iterations,
                "qp_schur_reused": self.schur_reused,
                "qp_max_kkt_residual": float(self.max_kkt_residual),
                "critical_path_s": self.critical_path_s}

    @staticmethod
    def totals(steps):
        """`stats()` records of steps added up; `qp_max_kkt_residual` is their largest."""
        return {key: max((s[key] for s in steps), default=0.0) if key == "qp_max_kkt_residual"
                else sum(s[key] for s in steps) for key in QpCounters().stats()}


class _AgentCache:
    """One agent's x-update QP: a shallow copy of its kind's box QP with its
    own face slot, the warm start of its next solve, the QpSolution of its
    last (`last`) and that QP's wall time (`seconds`). The condensing maps
    that turn the agent's linear term into q and its minimizer into a local
    vector live in the engine's network map."""

    def __init__(self, owner, qp, qp_tol):
        self.owner = owner
        self.qp_tol = qp_tol
        self.qp = copy.copy(qp)
        self.warm = self.last = self.seconds = None

    def solve(self, q, k):
        """The condensed minimizer for linear term q at iteration k."""
        t0 = time.perf_counter()
        sol = self.last = solve_box_qp(self.qp, tol=self.qp_tol, x0=self.warm, q=q)
        self.seconds = time.perf_counter() - t0
        if sol.status != "optimal":
            raise SolverFailure(self.owner, k, f"{sol.status}: {sol.message}")
        self.warm = sol.x_star
        return sol.x_star


class AdmmEngine:
    """ADMM over a fixed set of subproblems, on one network map.

    x_cat and lam_cat stack the agents' local vectors in agent order;
    E = concat(global_idx) maps each entry to its z component, which
    `counts` copies share. Agent i's local vector is x_i = M_i u_i + c_i
    over its condensed inputs u_i, so x = M u + c with M = diag(M_i); only
    c depends on the measured states. The map is kept once: `Mt` is M' in
    CSR (32-bit indices while they fit), `M` its CSC view. The x-update
    minimizes each local cost plus v_i'x_i + (rho/2)||x_i||^2, whose
    condensed linear term is q = M'((H + rho I)c + v) with H = diag(H_i):
    one product with M' per iteration, and per step one more after each
    agent's H_i + rho I (`H_rho[i]`) has acted on its slice of c, each
    product a direct call of scipy's kernel (`_matvec`). Alike
    problems (H, member predictions, box) share one M_i, H_i + rho I and
    QP over the box and P_i = M_i'(H_i + rho I)M_i, the distinct P_i
    diagonal blocks of one sparse product of which only their own blocks
    are densified. Built for the stock agents, an engine keeps 0.19 MB on
    path 5, 0.85 MB on the 4x5 grid and 3.22 MB on the 10x10 grid. Each
    x-update adds its QPs to the QpCounters `qps`, which a run resets.
    Set-up binds c to the problems' own states, which they keep;
    `rebind_states` rebinds it, so one engine serves any number of closed
    loops on the same agents. At rho = 0 it serves
    `run_dual_decomposition`; `run` needs rho > 0. qp_tol must be positive
    and finite.
    """

    record = None  # what it was built from, if `simulation.admm_engine` built it

    def __init__(self, problems, maps, rho, qp_tol=1e-6, parallel=False):
        if not 0 <= rho < math.inf:  # nan too
            raise ValueError(f"rho must be nonnegative and finite, got {rho}")
        if not 0 < qp_tol < math.inf:
            raise ValueError(f"qp_tol must be positive and finite, got {qp_tol}")
        self.problems = list(problems)
        self.rho = rho
        self.E = np.concatenate([m.global_idx for m in maps])
        self.counts = copy_counts(maps, self.E.max() + 1)
        self.pred = predictions(self.problems)
        kinds, kind = {}, []  # key -> (kind number, first problem of the kind)
        for p in self.problems:
            key = id(p.H), tuple((id(self.pred[j]), m.u_max) for j, m in zip(p.members, p.models))
            kind.append(kinds.setdefault(key, (len(kinds), p))[0])
        distinct = [p for _, p in kinds.values()]
        boxes = [condensed_bounds(p) for p in distinct]
        M = _block_diagonal([condensing_matrix(p, self.pred) for p in distinct])
        Mt = M.T.tocsr()
        H_rho = [p.H + rho * sparse.eye_array(p.dim, format="csr") for p in distinct]
        P = condensed_hessian(_block_diagonal(H_rho), M, Mt,
                              np.cumsum([lo.size for lo, _ in boxes]))
        del M  # only M' is kept: its blocks stack the network map
        qps = [BoxQp(Pk, np.zeros(lo.size), lo, hi) for Pk, (lo, hi) in zip(P, boxes)]
        Mts = _cut(Mt, [(lo.size, p.dim) for p, (lo, _) in zip(distinct, boxes)])  # each M_i'
        Mts = [Mts[k] for k in kind]
        ends = np.cumsum([b.shape[1] for b in Mts])
        self.slices = [slice(e - b.shape[1], e) for b, e in zip(Mts, ends)]
        ends = np.cumsum([b.shape[0] for b in Mts])
        self.u_slices = [slice(e - b.shape[0], e) for b, e in zip(Mts, ends)]
        self.Mt = _block_diagonal(Mts)
        self.M = self.Mt.T  # a CSC view of Mt's arrays: the map's only stacked copy
        self.H_rho = [H_rho[k] for k in kind]
        self.widths = [p.models[p.members.index(p.owner)].n for p in self.problems]
        self.caches = [_AgentCache(p.owner, qps[k], qp_tol) for p, k in zip(self.problems, kind)]
        self.qps = QpCounters()
        self._bind({j - 1: x for p in self.problems for j, x in zip(p.members, p.x0)})
        workers = min(len(self.problems), os.cpu_count() or 1)
        self.pool = ThreadPoolExecutor(max_workers=workers) if parallel else None

    def rebind_states(self, states):
        """Plan from measured states, agent j's at states[j - 1]; ValueError
        unless there is one per agent, of its agent's width, and names the
        first agent whose state is not of it or not finite."""
        check_states(states, self.widths)
        self._bind(states)

    def _bind(self, states):
        """c and the static part of q, M'(H + rho I)c, for the states."""
        self.c = np.concatenate([condensed_maps(p, self.pred, states) for p in self.problems])
        self.q_static = _matvec(self.Mt, np.concatenate([_matvec(H, self.c[s])
                                                         for H, s in zip(self.H_rho, self.slices)]))

    def cold_start(self, faces=False):
        """Drop every agent's QP warm start and, with `faces`, the Newton
        factor its QP holds, as on an engine built afresh."""
        for cache in self.caches:
            cache.warm = None
            if faces:
                cache.qp.face = None

    def x_update(self, v, k, solve_all=map):
        """Every agent's x-update at iteration k for the stacked linear term v:
        the stacked local vectors."""
        q = self.q_static + _matvec(self.Mt, v)
        u = np.empty(self.Mt.shape[0])  # the agents' minimizers, stacked
        solved = solve_all(_AgentCache.solve, self.caches, [q[s] for s in self.u_slices],
                           [k] * len(self.caches))
        for s, u_i in zip(self.u_slices, solved):
            u[s] = u_i
        self.qps.add(self.caches)
        return _matvec(self.M, u) + self.c

    def close(self):
        """Shut down the thread pool of parallel agents, if any."""
        if self.pool is not None:
            self.pool.shutdown()

    def run(self, max_iter, eps_primal=0.0, eps_dual=0.0, init=None,
            track_dual_average=False):
        """Up to max_iter iterations from `init` (lam = 0, z = 0 if None);
        a run of zero iterations returns the copies of z as its plans.
        ValueError for max_iter < 0 or an init whose lam is not of E's size
        or whose z is not of `counts`' size."""
        if not self.rho > 0:
            raise ValueError("run needs rho > 0; at rho = 0 use run_dual_decomposition")
        if max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {max_iter}")
        E, counts, rho = self.E, self.counts, self.rho
        if init is None:
            init = AdmmState(lam=np.zeros(E.size), z=np.zeros(counts.size))
        for name, value, size in (("lam", init.lam, E.size), ("z", init.z, counts.size)):
            if np.shape(value) != (size,):
                raise ValueError(f"init.{name} has shape {np.shape(value)}, expected ({size},)")
        lam_cat, z = init.lam, init.z
        x_cat = zE = z[E]
        solve_all = map if self.pool is None else self.pool.map
        qps = self.qps = QpCounters()
        history = []
        max_viol = 0.0 if track_dual_average else None
        converged = False
        for k in range(1, max_iter + 1):
            x_cat = self.x_update(lam_cat - rho * zE, k, solve_all)
            z_prev = z
            z = z_update(x_cat, E, counts)
            zE = z[E]
            lam_cat, diff = dual_update(lam_cat, x_cat, zE, rho)
            if track_dual_average:
                lam_sum = np.bincount(E, weights=lam_cat, minlength=counts.size)
                max_viol = max(max_viol, float(np.max(np.abs(lam_sum), initial=0.0)))
            rp, rd = residuals(diff, z - z_prev, counts, rho)
            history.append((k, rp, rd))
            if rp <= eps_primal and rd <= eps_dual:
                converged = True
                break
        xs = [x_cat[s] for s in self.slices]
        objective = sum(p.cost(x) for p, x in zip(self.problems, xs))
        return AdmmResult(plans=xs, z=z, lam=lam_cat, history=history,
                          converged=converged, objective=objective,
                          solve_times=qps.solve_times, max_dual_avg_violation=max_viol)


def run_admm(problems, maps, rho, max_iter, eps_primal=0.0, eps_dual=0.0,
             init=None, qp_tol=1e-6, parallel=False, track_dual_average=False):
    """One-shot ADMM solve; initialization is lam = 0, z = 0 unless given."""
    engine = AdmmEngine(problems, maps, rho, qp_tol=qp_tol, parallel=parallel)
    try:
        return engine.run(max_iter, eps_primal, eps_dual, init=init,
                          track_dual_average=track_dual_average)
    finally:
        engine.close()


# --- dual decomposition baseline -------------------------------------------

DD_QP_TOL = 1e-8  # the x-update QPs' tolerance in dual decomposition


def _copy_pairs(engine):
    """Stacked positions of each copy of a neighbor's block, in agent and
    member order, and of the neighbor's own copy of the same entry."""
    E = engine.E
    own = np.zeros(E.size, bool)
    for p, s in zip(engine.problems, engine.slices):
        k = p.members.index(p.owner)
        own[s.start + p.state_slice(k, 0).start:s.start + p.input_slice(k, p.T - 1).stop] = True
    own_pos = np.empty(E.max() + 1, dtype=np.intp)
    own_pos[E[own]] = np.flatnonzero(own)
    copies = np.flatnonzero(~own)
    return copies, own_pos[E[copies]]


def run_dual_decomposition(engine, alpha, max_iter):
    """Unaugmented dual ascent on the copy-consistency constraints.

    Each copy of a neighbor's block must equal the neighbor's own copy,
    with one multiplier per copied entry; the x-update is ADMM's at
    rho = 0, so `engine` is an AdmmEngine at rho = 0 (its QPs at
    DD_QP_TOL), bound to the states to plan from. `alpha` maps iteration
    k (1-based) to a step size. History records the disagreement norm per
    iteration; a run raises SolverFailure once it exceeds 1e6 times its
    initial value. A run starts the QPs cold, as on an engine built
    afresh, and leaves their counters in `engine.qps`.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if engine.rho != 0:
        raise ValueError(f"dual decomposition runs on an engine at rho = 0, not {engine.rho}")
    E = engine.E
    copies, owners = _copy_pairs(engine)
    engine.cold_start(faces=True)
    engine.qps = QpCounters()
    nu = np.zeros(copies.size)
    history = []
    initial_norm = None
    for k in range(1, max_iter + 1):
        # linear dual term on the stacked copies: +nu on a copy, -nu on the owner's
        lin = np.zeros(E.size)
        lin[copies] = nu
        lin -= np.bincount(owners, weights=nu, minlength=E.size)
        x_cat = engine.x_update(lin, k)
        r = x_cat[copies] - x_cat[owners]
        nu = nu + alpha(k) * r
        dis = float(np.sqrt(r @ r))
        history.append((k, dis))
        if initial_norm is None:
            initial_norm = max(dis, 1e-12)
        if dis > 1e6 * initial_norm:
            raise SolverFailure(None, k, f"disagreement {dis:.3e} vs initial {initial_norm:.3e}")
    return [x_cat[s] for s in engine.slices], history
