"""Convex QP solvers: box-constrained (closed form, then projected Newton)
plus dense oracles."""

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

    Found once when the problem is built: `blocks`, P split into its
    independent diagonal blocks (`diagonal_blocks`), and `cho`, P's
    Cholesky factor as scipy's cho_factor returns it, or None unless P is
    positive definite and not `_near_singular`.
    """

    P: np.ndarray
    q: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    blocks: tuple = field(init=False, repr=False, compare=False)
    cho: tuple = field(init=False, repr=False, compare=False)

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
        try:
            cho = cho_factor(P) if n else None
        except np.linalg.LinAlgError:
            cho = None
        object.__setattr__(self, "cho", None if cho is None or _near_singular(cho[0], P) else cho)

    def with_q(self, q):
        """The same P, blocks, factor and box with linear term q; only q's shape is checked."""
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
    status: str  # optimal | max_iterations | stalled | infeasible_bounds
    kkt_residual: float
    iterations: int
    objective: float = np.nan
    message: str = ""
    objective_history: list = field(default_factory=list)


def _near_singular(c, a):
    """Whether a squared pivot of c, a's Cholesky factor, is below 1e-12 max(diag a)."""
    return c.diagonal().min() ** 2 <= 1e-12 * a.diagonal().max()


def _solve_free(qp, cand, active):
    """Minimize over the free entries of `cand` with the active ones held.

    Block by block: free rows keep P_b and active rows and columns become
    identity ones; the right-hand side is -q - P_b x_active on free rows
    and the held value on active rows. A masked SPD P_b is SPD, so LAPACK
    dposv solves it. A singular one, or a `_near_singular` one when P has
    no factor (a masked block's pivots are no smaller than P's), gets the
    minimum-norm least-squares solution; where that leaves a residual r (in
    the null space: the free rows have no minimum), the solution moves by
    r / (1e-8 d), d the largest diagonal entry, so the box stops the
    descent that r gives.
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
            c, x, info = dposv(a, b)
            if info != 0 or qp.cho is None and _near_singular(c, a):
                x, *_ = np.linalg.lstsq(a, b, rcond=None)
                r = b - a @ x  # in the null space of a: nonzero where f has no minimum
                if np.abs(r).max() > 1e-10 * np.abs(b).max():
                    x += r / (1e-8 * (a.diagonal().max() or 1.0))
            cand[i] = x


def solve_box_qp(qp, tol=1e-8, max_iter=5000, x0=None):
    """Closed form if it lies in the box, else projected Newton (Bertsekas 1982).

    The closed form (from `qp.cho`) has `iterations` 0 and no objective
    history. Newton starts from project(x0), else the projected closed
    form, else 0; each iteration pins the entries within 1e-9 span of a
    bound whose gradient points out of the box, solves the free entries
    (`_solve_free`) and takes an Armijo step along the projection arc. Even
    an optimal start takes one step, onto its face. `objective_history`
    holds the start objective and one entry per iteration; `iterations`
    counts those after the first. A non-finite q raises ValueError.
    """
    n = qp.dim
    if (qp.lower > qp.upper).any():
        return QpSolution(np.full(n, np.nan), "infeasible_bounds", np.inf, 0,
                          message="lower bound exceeds upper bound")
    if n == 0:
        return QpSolution(np.zeros(0), "optimal", 0.0, 0, 0.0)
    if not np.isfinite(qp.q).all():
        raise ValueError("q must contain only finite values")

    x = np.zeros(n)
    if qp.cho is not None:
        x, info = dpotrs(qp.cho[0], -qp.q, lower=qp.cho[1], overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK dpotrs")
        if (x >= qp.lower - 1e-12).all() and (x <= qp.upper + 1e-12).all():
            x = qp.project(x)
            grad = qp.P @ x + qp.q
            res = qp.kkt_residual(x, grad)
            if res <= tol:
                return QpSolution(x, "optimal", res, 0, 0.5 * x @ (grad + qp.q))
    x = qp.project(x if x0 is None else np.asarray(x0, dtype=float))

    # every point's gradient is formed once and serves its objective
    # 0.5 x'(grad + q) and its KKT residual
    grad = qp.P @ x + qp.q
    fx = 0.5 * x @ (grad + qp.q)
    history = [fx]
    lo_set, hi_set = np.isfinite(qp.lower), np.isfinite(qp.upper)
    band = 1e-9 * np.where(lo_set & hi_set, np.maximum(qp.upper - qp.lower, 1.0), 1.0)
    status, why = "max_iterations", f"{max_iter} iterations"
    for _ in range(max_iter):
        at_lo = lo_set & (x - qp.lower <= band) & (grad >= 0)
        at_hi = hi_set & (qp.upper - x <= band) & (grad <= 0)
        newton = np.where(at_hi, qp.upper, np.where(at_lo, qp.lower, x))
        _solve_free(qp, newton, at_lo | at_hi)
        for k in range(53):  # Armijo steps 1, 1/2, ... with a rounding slack
            xa = qp.project(x + 0.5 ** k * (newton - x) if k else newton)
            ga = qp.P @ xa + qp.q
            fa = 0.5 * xa @ (ga + qp.q)
            if fa <= fx + 1e-4 * (grad @ (xa - x)) + 1e-15 * abs(fx):
                break
        else:  # no descent step: stay
            xa, ga, fa = x, grad, fx
        moved = fa < fx or not np.array_equal(xa, x)
        x, grad, fx = xa, ga, fa
        history.append(fx)
        kkt = qp.kkt_residual(x, grad)
        if kkt <= tol:
            return QpSolution(x, "optimal", kkt, len(history) - 2, fx,
                              objective_history=history)
        if not moved:
            status, why = "stalled", "no descent step"
            break
    kkt = qp.kkt_residual(x, grad)
    return QpSolution(x, status, kkt, max(len(history) - 2, 0), fx,
                      message=f"{why}; kkt residual {kkt:.3e} above tol {tol:.3e}",
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
