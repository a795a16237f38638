"""Convex QP solvers: box-constrained (closed form, then projected Newton)
plus an enumeration oracle for tiny QPs.

`BoxQp` keeps P in one layout, shape (k, s): k equal (s, s) blocks lying
one after another in x's order, kept as one block and inverted once. Every
condensed P is of that kind; any other P is kept as one dense block, k = 1
and s = n. A product with P or S = P^-1 is one (k, s)(s, s) product. The
closed form is x_unc = -S q. A Newton step holding the active entries A at
h goes to x_unc + S[:, A] solve(S_AA, h - x_unc[A]); when more than half
the entries are held, or P has no inverse, it solves the free rows
P_FF x_F = -q_F - P_FA h instead. S_AA is block diagonal and is solved
one piece of A at a time: A cut at the block starts if P's blocks have at
least `PIECEWISE_MIN` entries (`BoxQp.pieces`), else one piece, all of A.
Active sets repeat from one solve to the next, so each QP keeps its last
face's factors (`face`): the same A again costs one triangular solve pair
a piece, bit for bit the same.

One solve path: a QP is built once and each solve passes its own q
(`solve_box_qp(qp, q=q)`). A solve is straight-line numpy on what the QP
fixed when it was built (`BoxQp.plan`); it changes only the face slot.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dposv, dpotrf, dpotri, dpotrs
from scipy.sparse.csgraph import connected_components

# the smallest block of P for which a QP cuts its Newton faces at its block
# starts: one dposv per block beats one over all of A at blocks of 200 (the
# 4x5 grid's centralized QP) and loses at 50 and below (every agent's QP)
PIECEWISE_MIN = 100

# the rows of a block or an inverse that set-up symmetrizes at one time: a
# band of 32 x s entries is the largest temporary of a 1000-entry block's build,
# and 32 rows symmetrized 2x faster than 64 on a 200-entry block
_BAND = 32


def diagonal_blocks(P):
    """The diagonal blocks of a dense or sparse P, the connected components
    of the pattern of its stored entries, as classes of bit-equal blocks of
    P's symmetric part: a tuple of (idx, b) by first index, idx (k, s) the
    indices of the class's k blocks (each row ascending, rows by first
    index) and b the (s, s) block (P[i, i] + P[i, i]')/2 of each row i
    (P[i, i] itself if that is symmetric). Blocks are taken by first index.
    One whose stored entries (their places and bits) match an earlier
    block's joins that block's class; any other is densified, symmetrized
    `_BAND` rows at a time, and joins the class equal to it bit for bit
    (found by its diagonal's bytes) or starts one. Besides P, set-up holds
    each distinct block once, the one block being densified and a band of
    it, P's stored entries' values and places in their blocks, rows block
    by block, and a copy of those of each block densified, to match by."""
    P = sparse.csr_array(P)
    _, labels = connected_components(P, directed=True, connection="weak")
    order = np.argsort(labels, kind="stable")  # each block's indices, ascending
    sizes = np.bincount(labels)
    starts = np.cumsum(sizes) - sizes
    loc = np.empty(order.size, dtype=np.intp)  # each index's position in its block
    loc[order] = np.arange(order.size) - np.repeat(starts, sizes)
    cnt = np.diff(P.indptr)[order]  # each row's stored entries, rows block by block
    off = np.concatenate([[0], np.cumsum(cnt)])  # where each row's entries start, so ordered
    at = np.repeat(P.indptr[order] - off[:-1], cnt)
    at += np.arange(at.size)  # P's entries in that order
    data, flat = P.data[at], loc[P.indices[at]]
    del at
    flat += np.repeat(loc[order] * np.repeat(sizes, sizes), cnt)  # each entry's place, row-major
    rows, classes = [], []
    runs, seen = {}, {}  # a block's stored entries (places, bits) -> its class; a diagonal's too
    by_first = np.argsort(order[starts])
    for a, s in zip(starts[by_first], sizes[by_first]):
        e = slice(off[a], off[a + s])
        key = s, flat[e].tobytes(), data[e].tobytes()
        if (k := runs.get(key)) is None:  # no block with these entries yet: densify this one
            b = np.zeros((s, s))
            b.reshape(-1)[flat[e]] = data[e]
            for i in range(0, s, _BAND):  # (b + b')/2: the band's rows from the diagonal on
                u = b[i:i + _BAND, i:] + b[i:, i:i + _BAND].T
                u *= 0.5
                b[i:i + _BAND, i:] = u
                b[i:, i:i + _BAND] = u.T
            same = seen.setdefault(b.diagonal().tobytes(), [])
            k = runs[key] = next((k for k in same
                                  if (classes[k].view(np.int64) == b.view(np.int64)).all()),
                                 len(classes))
            if k == len(classes):
                same.append(k)
                rows.append([])
                classes.append(b)
            del b, u  # before the next block's: one block being densified at a time
        rows[k].append(order[a:a + s])
    return tuple((np.array(r), b) for r, b in zip(rows, classes))


def _inverse(b):
    """The inverse of the block b, or None unless b is positive definite and
    1 / the largest diagonal entry of b^-1 (within a factor s of b's
    smallest eigenvalue; a singular b's smallest squared Cholesky pivot can
    pass 1e-8 of that entry) exceeds 1e-12 of b's largest diagonal entry.
    The inverse is one Fortran-ordered copy of b: dpotrf factors into it,
    dpotri inverts over the factor, and its lower triangle is filled from
    the upper one `_BAND` rows at a time. Besides b, it holds that array
    and one band."""
    c, info = dpotrf(b)  # clean: c's strict lower triangle is zero
    if info or not b.size:
        return None
    c, _ = dpotri(c, overwrite_c=1)  # the upper triangle of b^-1; c has no zero pivot
    if not 1.0 / c.diagonal().max() > 1e-12 * b.diagonal().max():
        return None
    for a in range(0, c.shape[0], _BAND):  # c + triu(c, 1)', one band of rows
        c[a:a + _BAND] += np.tril(c[:, a:a + _BAND].T, a - 1)
    return c


def _principal(m, J, s):
    """The rows and columns of block m at the places J % s of the sorted
    indices J into a stack of blocks of size s, zero between two blocks."""
    loc = J % s
    out = m.take(loc, 0).take(loc, 1)
    if J.size and J[0] // s != J[-1] // s:  # J spans more than one block
        blk = J - loc
        np.putmask(out, blk[:, None] != blk, 0.0)
    return out


class BoxQp:
    """minimize 0.5 x'Px + q'x subject to lower <= x <= upper.

    P comes as `diagonal_blocks` gives it, its classes (ValueError unless
    (s, s) blocks on (k, s) indices covering x's once each), or dense or
    sparse, split by `diagonal_blocks` (its symmetric part: P if symmetric).
    `shape` (k, s) and `P`: one class of k blocks lying one after another
    in x's order keeps its (s, s) block, as given; any other P is one dense
    block assembled from its classes, k = 1 and s = n. `inv`: the block's
    inverse, or None (`_inverse`); `inv_rows`: its transpose, from which
    Newton faces gather S_AA. `box`: the bounds, Newton's pin `band` (1e-9
    of the box width if both bounds are finite, else 1e-9) and the closed
    form's box, 1e-12 wider. `infeasible`: no finite x meets the bounds (a
    lower bound above its upper bound, or both bounds at one infinity).
    `plan`: what a solve reads, fixed when the QP is built (n, infeasible,
    shape, P, inv, box). `pieces`: with an inverse and s at least
    `PIECEWISE_MIN`, each block's start and n, where Newton cuts A into one
    piece per block it meets; else None: A is one piece. The face slot, one
    per QP object, so a `copy.copy` sharing all else has its own: `face`,
    None or the pair (A's bytes, ((start, stop, factor), ...)) of the last
    Newton face solved through S_AA, each piece's place in A and the
    Cholesky factor of its block of S_AA, replaced and read as one tuple, so
    a solve never pairs an A with another face's factors; `reused`, the
    count of Newton points solved on a held face.
    """

    __slots__ = ("P", "q", "lower", "upper", "shape", "inv", "inv_rows", "box", "infeasible",
                 "plan", "face", "reused", "pieces")

    def __init__(self, P, q, lower, upper):
        q, lo, hi = (np.asarray(v, dtype=float) for v in (q, lower, upper))
        n, groups = q.shape[0], P
        if not isinstance(groups, tuple):  # a matrix
            groups = groups if sparse.issparse(groups) else np.asarray(groups, dtype=float)
            if groups.shape != (n, n):
                raise ValueError(f"P shape {groups.shape} inconsistent with q length {n}")
            if n and abs(groups - groups.T).max() > 1e-12 * max(1.0, abs(groups).max()):
                raise ValueError("P must be symmetric")
            groups = diagonal_blocks(groups)
        elif any(b.shape != idx.shape[1:] * 2 for idx, b in groups) or not np.array_equal(
                np.sort(np.concatenate([i.ravel() for i, _ in groups] + [[]])), np.arange(n)):
            raise ValueError(f"P's blocks are not (s, s) blocks covering q's {n} entries once each")
        if lo.shape != (n,) or hi.shape != (n,):
            raise ValueError("bound vectors must match q in length")
        if len(groups) == 1 and np.array_equal(groups[0][0].ravel(), np.arange(n)):
            (idx, b), = groups  # one class in x's order: every condensed P
            shape = idx.shape
        else:
            b, shape = np.zeros((n, n)), (1, n)
            for idx, m in groups:
                b[idx[:, :, None], idx[:, None, :]] = m
        finite = np.isfinite(lo) & np.isfinite(hi)  # hi - lo only there: never inf - inf
        band = 1e-9 * np.maximum(np.subtract(hi, lo, out=np.ones(n), where=finite), 1.0)
        self.P, self.q, self.lower, self.upper, self.shape = b, q, lo, hi, shape
        self.inv = _inverse(b)
        # exactly symmetric and Fortran-ordered (dpotri): the transpose gathers rows faster
        self.inv_rows = None if self.inv is None else self.inv.T
        self.box = lo, hi, band, lo - 1e-12, hi + 1e-12
        self.infeasible = bool(((lo > hi) | (lo == np.inf) | (hi == -np.inf)).any())
        self.face, self.reused = None, 0
        self.pieces = (np.arange(0, n + 1, shape[1])
                       if self.inv is not None and shape[1] >= PIECEWISE_MIN else None)
        self.plan = n, self.infeasible, shape, b, self.inv, self.box

    @property
    def dim(self):
        return self.q.shape[0]

    def dense(self, inverse=False):
        """P, or with `inverse` P^-1 (None without one), as a dense n x n
        array: for tests and `enumerate_box_qp`."""
        m = self.inv if inverse else self.P
        if m is None:
            return None
        (k, s), D = self.shape, np.zeros((self.dim, self.dim))
        for a in range(0, k * s, max(s, 1)):  # an empty QP is one block of size 0
            D[a:a + s, a:a + s] = m
        return D

    def gradient(self, x):
        """P x + q."""
        return np.asarray(x, dtype=float).reshape(self.shape).dot(self.P).ravel() + self.q

    def objective(self, x):
        return 0.5 * x @ (self.gradient(x) + self.q)

    def kkt_residual(self, x):
        """Projected-gradient optimality measure, zero at a KKT point."""
        return np.abs(x - (x - self.gradient(x)).clip(self.lower, self.upper)).max(initial=0.0)


@dataclass(slots=True)
class QpSolution:
    x_star: np.ndarray
    status: str  # optimal | max_iterations | stalled | infeasible_bounds
    kkt_residual: float
    iterations: int
    objective: float = np.nan
    message: str = ""
    objective_history: list = field(default_factory=list)
    schur_reused: int = 0  # Newton points solved on the QP's held factor (`BoxQp.face`)


def _newton_point(qp, q, x_unc, active, cand):
    """The minimizer with the active entries held at their values in `cand`.

    With P^-1 = S and at most half the entries held, it is x_unc + S Y, Y = y
    on A, S_AA y = cand_A - x_unc[A] (x_unc = -S q), one piece of A at a
    time (cut at `qp.pieces`, else all of A): for the face slot's A by dpotrs
    on each piece's held factor, for any other by dposv on each piece's
    block of S_AA (`_principal`), whose factors, if all exist, replace the
    slot's. dposv is dpotrf then dpotrs: both give y bit for bit alike.
    Otherwise it solves the free rows, P_FF x_F = -q_F - P_FA cand_A, by dposv. A
    singular P_FF, or a near singular one without an inverse, gets the
    minimum-norm least-squares solution, moved by any residual r (in the
    null space) over 1e-8 d, d the largest diagonal entry, so the box stops
    that descent.
    """
    A, n = active.nonzero()[0], x_unc.shape[0]
    if qp.inv is not None and 2 * A.size <= n:
        if not A.size:
            return x_unc.copy()
        held, key, face = cand[A], A.tobytes(), qp.face
        r, Y = held - x_unc[A], np.zeros(n)
        if face is not None and face[0] == key:
            for a, b, c in face[1]:
                Y[A[a:b]], info = dpotrs(c, r[a:b])
            qp.reused += 1
        else:
            factors, spans = [], ((0, A.size),) if qp.pieces is None else itertools.pairwise(
                A.searchsorted(qp.pieces).tolist())  # A's cuts at the block starts
            for a, b in spans:
                if a < b:
                    J = A[a:b]
                    c, Y[J], info = dposv(_principal(qp.inv_rows, J, qp.shape[1]), r[a:b])
                    if info != 0:
                        break
                    factors.append((a, b, c))
            else:
                qp.face = key, tuple(factors)
        if info == 0:
            x = x_unc + Y.reshape(qp.shape).dot(qp.inv).ravel()
            x[A] = held
            return x
    x = np.where(active, cand, 0.0)
    F = (~active).nonzero()[0]
    if not F.size:
        return x
    a = _principal(qp.P, F, qp.shape[1])
    b = -q[F] - x.reshape(qp.shape).dot(qp.P).ravel()[F]  # x is 0 on F
    c, xf, info = dposv(a, b)
    if info != 0 or qp.inv is None and not (  # near singular: as in `_inverse`, from a^-1
            1.0 / dpotri(c)[0].diagonal().max() > 1e-12 * a.diagonal().max()):
        xf, *_ = np.linalg.lstsq(a, b, rcond=None)
        r = b - a @ xf  # in the null space of a: nonzero where the free rows have no minimum
        if np.abs(r).max() > 1e-10 * np.abs(b).max():
            xf += r / (1e-8 * (a.diagonal().max() or 1.0))
    x[F] = xf
    return x


def solve_box_qp(qp, tol=1e-8, max_iter=5000, x0=None, q=None):
    """Closed form if it lies in the box, else projected Newton (Bertsekas 1982).

    `q` is the linear term of this solve (`qp.q` if None; ValueError unless
    of q's shape). Checks in order: tol and max_iter (ValueError unless
    0 <= tol < inf and max_iter >= 0), bounds that no finite x meets
    (`infeasible_bounds`), an empty QP, a non-finite q (ValueError), the
    closed form x_unc = -`qp.inv` q if in the box (`iterations` 0, no
    objective history), then an x0 not of q's shape (ValueError), before
    Newton reads it. Newton starts from project(x0), else the projected
    closed form, else 0; with `qp.inv`, a start within the box's band of a
    bound moves to the projected Newton point of that face. The Newton loop
    has one exit: each pass forms the KKT residual, then ends `optimal` at
    or below tol (before any step only on the warm start's face, or when
    `max_iter` is 0), `stalled` after a step that raised f (within the
    Armijo test's 1e-15 |f| rounding slack) or left x and f as they were,
    or `max_iterations`; else it pins the entries within the band whose
    gradient points out of the box, minimizes over the free entries
    (`_newton_point`) and takes an Armijo step along the projection arc. A
    full step lands on its face's Newton point, whatever the start: a closer
    start saves iterations, not bits.
    `objective_history` holds the start objective and one entry per step;
    `iterations` counts those after the first, `schur_reused` the Newton
    points on the held factor. Every product with P or S is inline, one
    (k, s)(s, s) dot in `BoxQp.shape`.
    """
    n, infeasible, shape, P, S, box = qp.plan
    if not 0 <= tol < np.inf or max_iter < 0:  # nan fails 0 <= tol
        raise ValueError(f"tol and max_iter must be >= 0, tol finite, got {tol} and {max_iter}")
    if q is None:
        q = qp.q
    elif (q := np.asarray(q, dtype=float)).shape != (n,):
        raise ValueError(f"q has shape {q.shape}, expected ({n},)")
    if infeasible:
        return QpSolution(np.full(n, np.nan), "infeasible_bounds", np.inf, 0,
                          message="no finite x within the bounds")
    if n == 0:
        return QpSolution(np.zeros(0), "optimal", 0.0, 0, 0.0)
    if np.count_nonzero(np.isfinite(q)) < n:  # before any product with q can warn
        raise ValueError("q must contain only finite values")
    lo, hi, band, lo_tol, hi_tol = box
    if S is None:
        x_unc = np.zeros(n)
    else:
        x_unc = -q.reshape(shape).dot(S).ravel()
        if np.count_nonzero(x_unc >= lo_tol) == n and np.count_nonzero(x_unc <= hi_tol) == n:
            x = np.minimum(np.maximum(x_unc, lo), hi)
            grad = x.reshape(shape).dot(P).ravel() + q
            # max |x - project(x - grad)|
            res = np.maximum.reduce(np.abs(x - np.minimum(np.maximum(x - grad, lo), hi)))
            if res <= tol:
                return QpSolution(x, "optimal", res, 0, 0.5 * x.dot(grad + q))
    if x0 is None:
        x0 = x_unc
    elif (x0 := np.asarray(x0, dtype=float)).shape != (n,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({n},)")
    x = np.minimum(np.maximum(x0, lo), hi)
    reused, moved, prev = qp.reused, True, True  # the slot's count before this solve
    # an infinite bound is never within the band: x - -inf is inf, or nan
    at_hi = hi - x <= band
    if warm := S is not None and (face := (x - lo <= band) | at_hi).any():
        # the start's face: its Newton point for this q, never the start itself
        newton = _newton_point(qp, q, x_unc, face, np.where(at_hi, hi, lo))
        x = np.minimum(np.maximum(newton, lo), hi)
    # every point's gradient is formed once and serves its objective
    # 0.5 x'(grad + q) and its KKT residual
    grad = x.reshape(shape).dot(P).ravel() + q
    fx = 0.5 * x.dot(grad + q)
    history = [fx]
    for it in range(max_iter + 1):
        res = np.maximum.reduce(np.abs(x - np.minimum(np.maximum(x - grad, lo), hi)))
        # a cold start is never optimal before its first step, unless no step is allowed
        if (optimal := res <= tol and (it or warm or not max_iter)) or not moved or it == max_iter:
            break
        at_lo = (x - lo <= band) & (grad >= 0)
        at_hi = (hi - x <= band) & (grad <= 0)
        # after a step without strict descent (prev, else True) pin only what both
        # faces pin: two faces that each free what the other pins swap for ever
        active = (at_lo | at_hi) & prev
        # a candidate of bounds: _newton_point reads only its held entries
        newton = _newton_point(qp, q, x_unc, active, np.where(at_hi, hi, lo))
        xa = np.minimum(np.maximum(newton, lo), hi)  # the full step first
        for k in range(1, 54):  # then Armijo steps 1/2, 1/4, ... with a rounding slack
            ga = xa.reshape(shape).dot(P).ravel() + q
            fa = 0.5 * xa.dot(ga + q)
            if fa <= fx + 1e-4 * grad.dot(xa - x) + 1e-15 * abs(fx):
                break
            xa = np.minimum(np.maximum(x + 0.5 ** k * (newton - x), lo), hi)
        else:  # no descent step: stay
            xa, ga, fa = x, grad, fx
        prev = True if fa < fx else active
        # a step the slack let f rise by is no progress
        moved = fa < fx or fa == fx and not np.array_equal(xa, x)
        x, grad, fx = xa, ga, fa
        history.append(fx)
    status, why = (("optimal", "") if optimal else
                   ("max_iterations", f"{max_iter} iterations") if moved else
                   ("stalled", "no descent step"))
    return QpSolution(x, status, res, max(len(history) - 2, 0), fx,
                      message=why and f"{why}; kkt residual {res:.3e} above tol {tol:.3e}",
                      objective_history=history, schur_reused=qp.reused - reused)


def enumerate_box_qp(qp, max_dim=8):
    """Exhaustive active-set oracle for tiny box QPs.

    Tries all 3^n lower/free/upper sign patterns, solves each reduced
    system, and keeps the best feasible stationary candidate. Exponential;
    only for auditing the iterative solver.
    """
    n = qp.dim
    if n > max_dim:
        raise ValueError(f"enumeration oracle limited to n <= {max_dim}")
    P = qp.dense()
    best_x, best_f = None, np.inf
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        s = np.array(pattern, dtype=int)
        x = np.where(s < 0, qp.lower, np.where(s > 0, qp.upper, 0.0))
        if not np.isfinite(x).all():
            continue  # an entry held at an infinite bound
        F, fixed = np.flatnonzero(s == 0), np.flatnonzero(s)
        if F.size:
            rhs = -qp.q[F] - P[np.ix_(F, fixed)] @ x[fixed]
            xf, *_ = np.linalg.lstsq(P[np.ix_(F, F)], rhs, rcond=None)
            if np.max(np.abs(P[np.ix_(F, F)] @ xf - rhs), initial=0.0) > 1e-8:
                continue  # inconsistent flat direction
            x[F] = xf
            if np.any(x[F] < qp.lower[F] - 1e-9) or np.any(x[F] > qp.upper[F] + 1e-9):
                continue
        x = np.clip(x, qp.lower, qp.upper)
        f = qp.objective(x)
        if f < best_f:
            best_x, best_f = x, f
    if best_x is None:
        raise ValueError("no feasible active-set candidate found")
    return best_x, best_f
