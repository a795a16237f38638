"""The dense KKT oracle of equality-constrained QPs that the tests check
condensing and unconstrained x-updates against, and the dynamics equalities
of a local problem that it takes."""

import numpy as np


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


def dynamics_equalities(p):
    """Dense (A_eq, b_eq) of a local problem `p`: each member's x(0) pinned
    to its measurement, then its rollout equalities."""
    T = p.T
    rows = sum(mdl.n * (T + 1) for mdl in p.models)
    A_eq = np.zeros((rows, p.dim))
    b_eq = np.zeros(rows)
    r = 0
    for pos, mdl in enumerate(p.models):
        s0 = p.state_slice(pos, 0)
        A_eq[r:r + mdl.n, s0] = np.eye(mdl.n)
        b_eq[r:r + mdl.n] = p.x0[pos]
        r += mdl.n
        for t in range(T):
            A_eq[r:r + mdl.n, p.state_slice(pos, t + 1)] = np.eye(mdl.n)
            A_eq[r:r + mdl.n, p.state_slice(pos, t)] -= mdl.A
            A_eq[r:r + mdl.n, p.input_slice(pos, t)] -= mdl.B
            r += mdl.n
    return A_eq, b_eq
