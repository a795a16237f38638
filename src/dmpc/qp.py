"""Convex QP solvers: box-constrained (closed form, then projected Newton)
plus dense oracles.

`BoxQp` inverts P once, when it is built, block by block over P's
independent diagonal blocks: S = P^-1 (`BoxQp.inv`). The closed form is then
one matvec, x_unc = -S q. A Newton step that holds the active entries A at
h goes to x_unc + S[:, A] solve(S_AA, h - x_unc[A]), a solve of size |A|
that reuses x_unc; when more than half the entries are held, or P has no
inverse, it solves the free rows P_FF x_F = -q_F - P_FA h instead.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dposv, dpotrf, dpotri


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


def _near_singular(c, d):
    """Whether a squared pivot of the Cholesky factor c is at most 1e-12 d,
    d the largest diagonal entry of the factored matrix."""
    return c.diagonal().min() ** 2 <= 1e-12 * d


def _block_inverse(P, groups):
    """P^-1 from each diagonal block's Cholesky factor (LAPACK dpotrf, dpotri),
    or None unless every block is positive definite and no pivot is
    `_near_singular` against P's largest diagonal entry."""
    n = P.shape[0]
    S = np.zeros((n, n))
    d = P.diagonal().max(initial=0.0)
    for idx, Pb in groups:
        for i, b in zip(idx, Pb):
            c, info = dpotrf(b)
            if info != 0 or _near_singular(c, d):
                return None
            Sb, _ = dpotri(c)  # the upper triangle of b^-1; c has no zero pivot
            S[i[:, None], i] = Sb + np.triu(Sb, 1).T
    return S


@dataclass(frozen=True)
class BoxQp:
    """minimize 0.5 x'Px + q'x subject to lower <= x <= upper.

    Found once when the problem is built: `blocks`, the index arrays of P's
    independent diagonal blocks (`diagonal_blocks`), one (nb, s) array per
    block size; `inv`, P^-1, or None unless P is positive definite and no
    Cholesky pivot is `_near_singular`; and the box's constants
    `infeasible` (some lower bound exceeds its upper bound), `lo_set` and
    `hi_set` (the finite bounds) and `band`, the distance within which
    Newton pins an entry to a bound: 1e-9 of the box width, at least 1e-9.
    """

    P: np.ndarray
    q: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    blocks: tuple = field(init=False, repr=False, compare=False)
    inv: np.ndarray = field(init=False, repr=False, compare=False)
    infeasible: bool = field(init=False, repr=False, compare=False)
    lo_set: np.ndarray = field(init=False, repr=False, compare=False)
    hi_set: np.ndarray = field(init=False, repr=False, compare=False)
    band: np.ndarray = field(init=False, repr=False, compare=False)

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
        groups = diagonal_blocks(P)
        lo_set, hi_set = np.isfinite(lo), np.isfinite(hi)
        band = 1e-9 * np.where(lo_set & hi_set, np.maximum(hi - lo, 1.0), 1.0)
        for name, value in (("P", P), ("q", q), ("lower", lo), ("upper", hi),
                            ("blocks", tuple(idx for idx, _ in groups)),
                            ("inv", _block_inverse(P, groups)),
                            ("infeasible", bool((lo > hi).any())),
                            ("lo_set", lo_set), ("hi_set", hi_set), ("band", band)):
            object.__setattr__(self, name, value)

    def with_q(self, q):
        """The same P, blocks, inverse and box with linear term q; only q's shape is checked."""
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


def _newton_point(qp, x_unc, active, cand):
    """The minimizer with the active entries held at their values in `cand`.

    With P^-1 = S and at most half the entries held, it is x_unc + S[:, A] y,
    S_AA y = cand_A - x_unc[A], a solve of size |A| (x_unc = -S q, the
    unconstrained minimizer). Otherwise it solves the free rows,
    P_FF x_F = -q_F - P_FA cand_A, by LAPACK dposv. A singular P_FF, or a
    `_near_singular` one when P has no inverse, gets the minimum-norm
    least-squares solution; where that leaves a residual r (in the null
    space: the free rows have no minimum), the solution moves by
    r / (1e-8 d), d the largest diagonal entry, so the box stops the descent
    that r gives.
    """
    A = np.flatnonzero(active)
    if qp.inv is not None and 2 * A.size <= qp.dim:
        if not A.size:
            return x_unc.copy()
        held = cand[A]
        SA = qp.inv[A]  # = S[:, A]' as S is symmetric
        _, y, info = dposv(SA[:, A], held - x_unc[A])
        if info == 0:
            x = x_unc + y @ SA
            x[A] = held
            return x
    x = np.where(active, cand, 0.0)
    F = np.flatnonzero(~active)
    if not F.size:
        return x
    PF = qp.P[F]
    a, b = PF[:, F], -qp.q[F] - PF @ x
    c, xf, info = dposv(a, b)
    if info != 0 or qp.inv is None and _near_singular(c, a.diagonal().max()):
        xf, *_ = np.linalg.lstsq(a, b, rcond=None)
        r = b - a @ xf  # in the null space of a: nonzero where the free rows have no minimum
        if np.abs(r).max() > 1e-10 * np.abs(b).max():
            xf += r / (1e-8 * (a.diagonal().max() or 1.0))
    x[F] = xf
    return x


def solve_box_qp(qp, tol=1e-8, max_iter=5000, x0=None):
    """Closed form if it lies in the box, else projected Newton (Bertsekas 1982).

    The closed form (x_unc = -`qp.inv` q) has `iterations` 0 and no
    objective history. Newton starts from project(x0), else the projected
    closed form, else 0; each iteration pins the entries within `qp.band`
    of a bound whose gradient points out of the box, minimizes over the
    free entries (`_newton_point`) and takes an Armijo step along the
    projection arc. Even an optimal start takes one step, onto its face.
    `objective_history` holds the start objective and one entry per
    iteration; `iterations` counts those after the first. A non-finite q
    raises ValueError.
    """
    n = qp.dim
    if qp.infeasible:
        return QpSolution(np.full(n, np.nan), "infeasible_bounds", np.inf, 0,
                          message="lower bound exceeds upper bound")
    if n == 0:
        return QpSolution(np.zeros(0), "optimal", 0.0, 0, 0.0)
    if not np.isfinite(qp.q).all():
        raise ValueError("q must contain only finite values")

    x_unc = np.zeros(n)
    if qp.inv is not None:
        x_unc = -(qp.inv @ qp.q)
        if (x_unc >= qp.lower - 1e-12).all() and (x_unc <= qp.upper + 1e-12).all():
            x = qp.project(x_unc)
            grad = qp.P @ x + qp.q
            res = qp.kkt_residual(x, grad)
            if res <= tol:
                return QpSolution(x, "optimal", res, 0, 0.5 * x @ (grad + qp.q))
    x = qp.project(x_unc if x0 is None else np.asarray(x0, dtype=float))

    # every point's gradient is formed once and serves its objective
    # 0.5 x'(grad + q) and its KKT residual
    grad = qp.P @ x + qp.q
    fx = 0.5 * x @ (grad + qp.q)
    history = [fx]
    status, why = "max_iterations", f"{max_iter} iterations"
    for _ in range(max_iter):
        at_lo = qp.lo_set & (x - qp.lower <= qp.band) & (grad >= 0)
        at_hi = qp.hi_set & (qp.upper - x <= qp.band) & (grad <= 0)
        newton = _newton_point(qp, x_unc, at_lo | at_hi,
                               np.where(at_hi, qp.upper, np.where(at_lo, qp.lower, x)))
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
