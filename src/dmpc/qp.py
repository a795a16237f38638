"""Convex QP solvers: box-constrained (projected gradient) plus dense oracles."""

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dposv, dpotrs


def diagonal_blocks(P):
    """The connected components of P's nonzero pattern, grouped by size.

    Returns a tuple of (idx, Pb) pairs, one per block size s: idx (nb, s)
    holds each block's indices in ascending order and Pb the stacked
    (nb, s, s) blocks P[idx_b, idx_b]. Every entry of P outside the blocks
    is zero. Components are found by min-label propagation with pointer
    jumping: each pass gives every index the smallest label among its
    neighbours, then follows its label's own label once.
    """
    n = P.shape[0]
    if n == 0:
        return ()
    nz = P != 0
    nz |= nz.T
    nz[np.diag_indices(n)] = True
    flat = np.flatnonzero(nz)
    cols = flat % n
    starts = np.searchsorted(flat, n * np.arange(n))
    labels = np.arange(n)
    while True:
        new = np.minimum.reduceat(labels[cols], starts)
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    order = np.argsort(labels, kind="stable")
    sizes = np.unique(labels, return_counts=True)[1]
    size_at = np.repeat(sizes, sizes)
    groups = []
    for s in np.unique(sizes):
        idx = order[size_at == s].reshape(-1, s)
        groups.append((idx, P[idx[:, :, None], idx[:, None, :]]))
    return tuple(groups)


@dataclass(frozen=True)
class BoxQp:
    """minimize 0.5 x'Px + q'x subject to lower <= x <= upper.

    `blocks` is P split into its independent diagonal blocks
    (`diagonal_blocks`), found once when the problem is built.
    """

    P: np.ndarray
    q: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    blocks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        q = np.asarray(self.q, dtype=float)
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        n = q.shape[0]
        if P.shape != (n, n):
            raise ValueError(f"P shape {P.shape} inconsistent with q length {n}")
        if lo.shape != (n,) or hi.shape != (n,):
            raise ValueError("bound vectors must match q in length")
        if np.max(np.abs(P - P.T), initial=0.0) > 1e-12 * max(1.0, np.max(np.abs(P), initial=0.0)):
            raise ValueError("P must be symmetric")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "blocks", diagonal_blocks(P))

    def with_q(self, q):
        """The same P, blocks and box with linear term q; only q's shape is checked."""
        q = np.asarray(q, dtype=float)
        if q.shape != self.q.shape:
            raise ValueError(f"q has shape {q.shape}, expected ({self.dim},)")
        new = object.__new__(BoxQp)
        new.__dict__.update(self.__dict__, q=q)
        return new

    @property
    def dim(self):
        return self.q.shape[0]

    def objective(self, x):
        return 0.5 * x @ self.P @ x + self.q @ x

    def project(self, x):
        return x.clip(self.lower, self.upper)

    def kkt_residual(self, x, grad=None):
        """Projected-gradient optimality measure, zero at a KKT point."""
        if grad is None:
            grad = self.P @ x + self.q
        return np.abs(x - self.project(x - grad)).max(initial=0.0)


@dataclass
class QpSolution:
    x_star: np.ndarray
    status: str  # optimal | max_iterations | infeasible_bounds
    kkt_residual: float
    iterations: int
    objective: float = np.nan
    message: str = ""
    objective_history: list = field(default_factory=list)


def power_iteration_lmax(P, iters=60, seed=0):
    """Largest eigenvalue estimate for the gradient step bound."""
    n = P.shape[0]
    if n == 0:
        return 1.0
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 1.0
    for _ in range(iters):
        w = P @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 1.0
        lam = nw
        v = w / nw
    return float(lam)


def _solve_free(qp, cand, active):
    """Minimize over the free entries of `cand` with the active ones held.

    Block by block: free rows keep P_b and active rows and columns become
    identity ones; the right-hand side is -q - P_b x_active on free rows
    and the held value on active rows. A masked SPD P_b is SPD, so LAPACK
    dposv solves it; otherwise a least-squares solve takes over.
    """
    for idx, Pb in qp.blocks:
        act = active[idx]
        held = np.where(act, cand[idx], 0.0)
        rhs = np.where(act, held, -qp.q[idx] - np.matmul(Pb, held[..., None])[..., 0])
        free = ~act
        A = np.where(free[:, :, None] & free[:, None, :], Pb, 0.0)
        diag = np.arange(idx.shape[1])
        A[:, diag, diag] += act
        for i, a, b, f in zip(idx, A, rhs, free):
            if not f.any():
                continue
            _, x, info = dposv(a, b)
            if info != 0:
                x, *_ = np.linalg.lstsq(a, b, rcond=None)
            cand[i] = x


def _active_set_polish(qp, x, fx, grad, rounds=None):
    """Projected-Newton refinement from the current iterate.

    Repeatedly pins variables sitting at a bound with an inward-pointing
    gradient, solves the free entries exactly (`_solve_free`), and
    re-projects. `x` lies in the box with objective fx and gradient
    grad = P x + q. Returns the best candidate found with its objective and
    gradient, or (None, fx, None) if nothing beat the incoming objective.
    """
    n = qp.dim
    if rounds is None:
        rounds = n + 2
    span = np.where(np.isfinite(qp.upper) & np.isfinite(qp.lower),
                    np.maximum(qp.upper - qp.lower, 1.0), 1.0)
    band = 1e-9 * span
    best, best_f = None, fx
    prev_active = None
    for _ in range(rounds):
        at_lo = np.isfinite(qp.lower) & (x - qp.lower <= band) & (grad >= 0)
        at_hi = np.isfinite(qp.upper) & (qp.upper - x <= band) & (grad <= 0)
        key = (at_lo.tobytes(), at_hi.tobytes())
        if key == prev_active:
            break
        prev_active = key
        cand = np.where(at_hi, qp.upper, np.where(at_lo, qp.lower, x))
        _solve_free(qp, cand, at_lo | at_hi)
        cand = qp.project(cand)
        gc = qp.P @ cand + qp.q
        fc = 0.5 * cand @ (gc + qp.q)
        if fc <= best_f + 1e-12 * max(1.0, abs(best_f)):
            best, best_f = (cand, fc, gc), min(fc, best_f)
        x, grad = cand, gc
    if best is None:
        return None, fx, None
    return best


def solve_box_qp(qp, tol=1e-8, max_iter=5000, x0=None, lipschitz=None, cho=None):
    """Monotone accelerated projected gradient with restart.

    A cached Cholesky factor of P may be supplied (`cho`, as returned by
    scipy's cho_factor, used as it is); when the unconstrained minimizer it
    yields is feasible the solve finishes without iterating. A non-finite q
    raises ValueError. `lipschitz` short-cuts the power-iteration step bound.
    """
    n = qp.dim
    if (qp.lower > qp.upper).any():
        return QpSolution(np.full(n, np.nan), "infeasible_bounds", np.inf, 0,
                          message="lower bound exceeds upper bound")
    if n == 0:
        return QpSolution(np.zeros(0), "optimal", 0.0, 0, 0.0)

    # Unconstrained shortcut: valid whenever P is positive definite and the
    # global minimizer already satisfies the box.
    if cho is None:
        try:
            cho = cho_factor(qp.P)
        except np.linalg.LinAlgError:
            cho = False
    if cho is not False:
        if not np.isfinite(qp.q).all():
            raise ValueError("q must contain only finite values")
        xu, info = dpotrs(cho[0], -qp.q, lower=cho[1], overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK dpotrs")
        if (xu >= qp.lower - 1e-12).all() and (xu <= qp.upper + 1e-12).all():
            x = qp.project(xu)
            grad = qp.P @ x + qp.q
            res = qp.kkt_residual(x, grad)
            if res <= tol:
                return QpSolution(x, "optimal", res, 0, 0.5 * x @ (grad + qp.q))
        start = qp.project(xu) if x0 is None else qp.project(np.asarray(x0, dtype=float))
    else:
        start = qp.project(np.zeros(n)) if x0 is None else qp.project(np.asarray(x0, dtype=float))

    if lipschitz is None:
        lipschitz = power_iteration_lmax(qp.P)
    L = max(lipschitz * 1.02, 1e-12)

    # every point's gradient is formed once and serves its objective
    # 0.5 x'(grad + q) and its KKT residual
    x = start
    grad = qp.P @ x + qp.q
    fx = 0.5 * x @ (grad + qp.q)
    y = x.copy()
    t = 1.0
    x_prev = x.copy()
    history = [fx]
    kkt = qp.kkt_residual(x, grad)
    if kkt <= tol:
        return QpSolution(x, "optimal", kkt, 0, fx, objective_history=history)
    cand, fc, gc = _active_set_polish(qp, x, fx, grad)
    if cand is not None:
        res = qp.kkt_residual(cand, gc)
        if res <= tol:
            history.append(fc)
            return QpSolution(cand, "optimal", res, 0, fc, objective_history=history)
        if fc <= fx:
            x, fx, grad = cand, fc, gc
            y = x.copy()

    for k in range(1, max_iter + 1):
        grad_y = qp.P @ y + qp.q
        z = qp.project(y - grad_y / L)
        gz = qp.P @ z + qp.q
        fz = 0.5 * z @ (gz + qp.q)
        if fz <= fx:
            x_prev, x, fx, grad = x, z, fz, gz
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = z + ((t - 1.0) / t_new) * (z - x_prev)
            t = t_new
        else:
            # restart momentum at the best point so the record stays monotone
            x_prev = x
            y = x.copy()
            t = 1.0
        if k % 25 == 0:
            cand, fc, gc = _active_set_polish(qp, x, fx, grad)
            if cand is not None and fc <= fx:
                x_prev, x, fx, grad = x, cand, fc, gc
                y = x.copy()
                t = 1.0
        history.append(fx)
        kkt = qp.kkt_residual(x, grad)
        if kkt <= tol:
            return QpSolution(x, "optimal", kkt, k, fx, objective_history=history)
        if fx < -1e18 or np.max(np.abs(x)) > 1e12:
            return QpSolution(x, "max_iterations", kkt, k, fx,
                              message="objective appears unbounded below",
                              objective_history=history)
    return QpSolution(x, "max_iterations", kkt, max_iter, fx,
                      message=f"kkt residual {kkt:.3e} above tol {tol:.3e}",
                      objective_history=history)


def solve_equality_qp(P, q, A_eq=None, b_eq=None):
    """Dense KKT solve of min 0.5 x'Px + q'x s.t. A_eq x = b_eq.

    Serves as the oracle for condensing and for unconstrained subproblem
    checks. Raises on a singular KKT system.
    """
    P = np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    if A_eq is None or (hasattr(A_eq, "shape") and A_eq.shape[0] == 0):
        try:
            return np.linalg.solve(P, -q)
        except np.linalg.LinAlgError:
            raise ValueError(f"singular P (cond={np.linalg.cond(P):.3e}) with no equality rows")
    A_eq = np.asarray(A_eq, dtype=float)
    b_eq = np.asarray(b_eq, dtype=float)
    p = A_eq.shape[0]
    kkt = np.zeros((n + p, n + p))
    kkt[:n, :n] = P
    kkt[:n, n:] = A_eq.T
    kkt[n:, :n] = A_eq
    rhs = np.concatenate([-q, b_eq])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        raise ValueError(f"singular KKT system (cond={np.linalg.cond(kkt):.3e})")
    x, nu = sol[:n], sol[n:]
    scale = max(1.0, np.max(np.abs(rhs), initial=0.0))
    stat = np.max(np.abs(P @ x + q + A_eq.T @ nu), initial=0.0)
    feas = np.max(np.abs(A_eq @ x - b_eq), initial=0.0)
    if stat > 1e-8 * scale or feas > 1e-8 * scale:
        raise ValueError(
            f"KKT residuals too large (stationarity {stat:.3e}, feasibility {feas:.3e}); "
            f"cond={np.linalg.cond(kkt):.3e}")
    return x


def enumerate_box_qp(qp, max_dim=8):
    """Exhaustive active-set oracle for tiny box QPs.

    Tries all 3^n lower/free/upper sign patterns, solves each reduced
    system, and keeps the best feasible stationary candidate. Exponential;
    only for auditing the iterative solver.
    """
    n = qp.dim
    if n > max_dim:
        raise ValueError(f"enumeration oracle limited to n <= {max_dim}")
    best_x, best_f = None, np.inf
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        x = np.empty(n)
        free = []
        ok = True
        for i, s in enumerate(pattern):
            if s == -1:
                if not np.isfinite(qp.lower[i]):
                    ok = False
                    break
                x[i] = qp.lower[i]
            elif s == 1:
                if not np.isfinite(qp.upper[i]):
                    ok = False
                    break
                x[i] = qp.upper[i]
            else:
                free.append(i)
        if not ok:
            continue
        if free:
            F = np.array(free)
            fixed = np.array([i for i in range(n) if i not in set(free)], dtype=int)
            rhs = -qp.q[F]
            if fixed.size:
                rhs = rhs - qp.P[np.ix_(F, fixed)] @ x[fixed]
            xf, *_ = np.linalg.lstsq(qp.P[np.ix_(F, F)], rhs, rcond=None)
            if np.max(np.abs(qp.P[np.ix_(F, F)] @ xf - rhs), initial=0.0) > 1e-8:
                continue  # inconsistent flat direction
            x[F] = xf
            if np.any(x[F] < qp.lower[F] - 1e-9) or np.any(x[F] > qp.upper[F] + 1e-9):
                continue
        f = qp.objective(np.clip(x, qp.lower, qp.upper))
        if f < best_f:
            best_f = f
            best_x = np.clip(x, qp.lower, qp.upper)
    if best_x is None:
        raise ValueError("no feasible active-set candidate found")
    return best_x, best_f
