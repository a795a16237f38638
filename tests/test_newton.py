"""The projected-Newton box QP: P's inverse and the Newton point formed from
it, against the enumeration oracle on hard cases, cold and warm, what its
solution fields report, the start on the warm start's face, two faces that
free each other, a large singular QP, and an x-update that the accelerated
projected gradient it replaced could not finish."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from test_blocks import block_diagonal, kkt  # noqa: E402

from dmpc import (AdmmEngine, BoxQp, SimConfig, build_local_problems,  # noqa: E402
                  draw_initial_states, enumerate_box_qp, path_graph, solve_box_qp)
from dmpc import admm  # noqa: E402
from dmpc.qp import _newton_point  # noqa: E402
from dmpc.simulation import default_agents  # noqa: E402


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 7), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
def test_inverse_is_p_inverse(sizes, seed):
    P, _ = block_diagonal(np.random.default_rng(seed), sizes)
    n = P.shape[0]
    qp = BoxQp(P, np.zeros(n), -np.ones(n), np.ones(n))
    ref = np.linalg.inv(P)
    assert np.max(np.abs(qp.dense(inverse=True) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_no_inverse_for_semidefinite_or_near_singular_p():
    rng = np.random.default_rng(0)
    G = rng.standard_normal((6, 4))
    near = np.diag([1.0, 2.0, 1e-13])  # positive definite; squared pivot 1e-13 <= 1e-12 * 2
    for P in (G @ G.T, np.zeros((3, 3)), near):
        n = P.shape[0]
        qp = BoxQp(P, np.ones(n), -np.ones(n), np.ones(n))
        assert qp.inv is None
        assert solve_box_qp(qp).status == solve_box_qp(qp, q=np.zeros(n)).status == "optimal"


@pytest.mark.parametrize("seed", [1190, 3786])
def test_singular_p_whose_cholesky_pivot_looks_regular_has_no_inverse(seed):
    # P = G G' of rank 3 of 4, whose dpotrf gives a smallest squared pivot
    # of 4.0e-12 (1190) and 1.6e-12 (3786) of the largest diagonal entry: a
    # pivot test above 1e-12 took P for invertible, and the solves stalled at
    # KKT residual 0.35 and 0.32; without that inverse, 3786's free system
    # of all 4 entries passed the same test and stalled at 0.75
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((4, 3))
    qp = BoxQp(G @ G.T, 2.0 * rng.standard_normal(4), -np.ones(4), np.ones(4))
    assert qp.inv is None
    sol = solve_box_qp(qp, tol=1e-10)
    assert sol.status == "optimal", sol.message
    assert kkt(qp, sol.x_star) <= 1e-10
    assert abs(sol.objective - enumerate_box_qp(qp)[1]) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.booleans(), st.integers(0, 2**32 - 1))
def test_newton_point_solves_the_free_rows(n, few_held, seed):
    # a <= n - a takes the solve with S_AA, a > n - a the free rows' own system
    rng = np.random.default_rng(seed)
    P, _ = block_diagonal(rng, list(rng.integers(1, 5, n)))
    P = P[:n, :n]
    qp = BoxQp(P, 2.0 * rng.standard_normal(n), -np.ones(n), np.ones(n))
    a = rng.integers(0, n // 2 + 1) if few_held else rng.integers(n // 2 + 1, n + 1)
    active = np.zeros(n, dtype=bool)
    active[rng.choice(n, a, replace=False)] = True
    cand = rng.uniform(-1.0, 1.0, n)
    x = _newton_point(qp, qp.q, -(qp.dense(inverse=True) @ qp.q), active, cand)
    ref = cand.copy()
    F = ~active
    if F.any():
        ref[F] = np.linalg.solve(P[np.ix_(F, F)], -qp.q[F] - P[np.ix_(F, active)] @ cand[active])
    assert np.max(np.abs(x - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))
    assert np.array_equal(x[active], cand[active])


def test_singular_qp_of_size_60_reaches_tol():
    # rank 40: every free system of more than 40 entries is singular; the
    # solve takes 19 Newton iterations and ends with 22 entries at a bound
    rng = np.random.default_rng(0)
    G = rng.standard_normal((60, 40))
    qp = BoxQp(G @ G.T, 3.0 * rng.standard_normal(60), -np.ones(60), np.ones(60))
    assert qp.inv is None
    sol = solve_box_qp(qp, tol=1e-10)
    assert sol.status == "optimal" and kkt(qp, sol.x_star) <= 1e-10
    assert sol.iterations == 19


@st.composite
def hard_box_qps(draw):
    """(qp, x0): a box QP with n <= 8 of one of three hard kinds.

    - degenerate: q = s - P x* for a chosen x* with entries at either bound
      or inside; s is zero inside and, on about half the bound entries, zero
      at the bound too, so x* is a KKT point whose multipliers vanish there;
    - semidefinite: P = G G' with rank(G) < n (P = 0 included);
    - start: P positive definite, started inside or outside the box.
    The first two kinds start from nothing, inside or outside the box.
    """
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("degenerate", "semidefinite", "start")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.standard_normal((n, draw(st.integers(0, n - 1)) if kind == "semidefinite" else n))
    P = G @ G.T + (0.0 if kind == "semidefinite" else 1e-3) * np.eye(n)
    lo = -rng.uniform(0.1, 1.5, n)
    hi = lo + rng.uniform(0.2, 3.0, n)
    q = 2.0 * rng.standard_normal(n)
    if kind == "degenerate":
        where = rng.integers(0, 3, n)  # 0: lower bound, 1: upper bound, 2: inside
        x_star = np.where(where == 0, lo, np.where(where == 1, hi, rng.uniform(lo, hi)))
        slope = np.where(where == 0, 1.0, -1.0) * rng.uniform(0.0, 1.0, n)
        slope[(where == 2) | (rng.random(n) < 0.5)] = 0.0
        q = slope - P @ x_star
    starts = ("inside", "outside") if kind == "start" else (None, "inside", "outside")
    start = draw(st.sampled_from(starts))
    x0 = None
    if start is not None:
        pad = 0.0 if start == "inside" else 2.0
        x0 = rng.uniform(lo - pad, hi + pad)
    return BoxQp(P, q, lo, hi), x0


@settings(max_examples=100, deadline=None)
@given(hard_box_qps())
def test_newton_matches_enumeration_on_hard_cases(case):
    qp, x0 = case
    tol = 1e-10
    sol = solve_box_qp(qp, tol=tol, x0=x0)
    _, f_ref = enumerate_box_qp(qp)
    assert sol.status == "optimal", sol.message
    assert abs(sol.objective - f_ref) <= 1e-9 * max(1.0, abs(f_ref))
    assert kkt(qp, sol.x_star) <= tol
    assert np.all(sol.x_star >= qp.lower) and np.all(sol.x_star <= qp.upper)
    assert np.all(np.diff(sol.objective_history) <= 1e-12 * max(1.0, abs(f_ref)))


def test_solution_fields_count_newton_iterations():
    rng = np.random.default_rng(3)
    G = rng.standard_normal((6, 6))
    qp = BoxQp(G @ G.T + 0.1 * np.eye(6), 5.0 * rng.standard_normal(6),
               -0.2 * np.ones(6), 0.2 * np.ones(6))
    cold = solve_box_qp(qp, tol=1e-12)
    assert cold.status == "optimal"
    # the start objective plus one entry per iteration; iterations after the first
    assert len(cold.objective_history) == cold.iterations + 2
    # an optimal start ends on its face's Newton point with no Newton step;
    # the point is recomputed, not the start returned, so it is the cold
    # solve's bit for bit
    warm = solve_box_qp(qp, tol=1e-12, x0=cold.x_star)
    assert warm.status == "optimal"
    assert warm.iterations == 0 and len(warm.objective_history) == 1
    assert np.array_equal(warm.x_star, cold.x_star)


@settings(max_examples=100, deadline=None)
@given(hard_box_qps(), st.integers(0, 2**32 - 1))
def test_warm_face_start_matches_enumeration(case, seed):
    # the ADMM pattern: re-solve from the solution of a nearby q
    qp, _ = case
    tol = 1e-10
    nudge = 0.1 * np.random.default_rng(seed).standard_normal(qp.dim)
    near = solve_box_qp(qp, tol=tol, q=qp.q + nudge)
    sol = solve_box_qp(qp, tol=tol, x0=near.x_star)
    _, f_ref = enumerate_box_qp(qp)
    assert sol.status == "optimal", sol.message
    assert kkt(qp, sol.x_star) <= tol
    assert abs(sol.objective - f_ref) <= 1e-9 * max(1.0, abs(f_ref))


def test_a_qp_without_an_inverse_starts_at_its_projected_start():
    rng = np.random.default_rng(4)
    G = rng.standard_normal((6, 3))
    qp = BoxQp(G @ G.T, 3.0 * rng.standard_normal(6), -np.ones(6), np.ones(6))
    assert qp.inv is None
    cold = solve_box_qp(qp, tol=1e-10)
    assert cold.status == "optimal" and (np.abs(cold.x_star) == 1.0).any()
    warm = solve_box_qp(qp, tol=1e-10, x0=cold.x_star)
    assert warm.status == "optimal" and len(warm.objective_history) >= 2
    assert warm.objective_history[0] == qp.objective(cold.x_star)


@pytest.mark.parametrize("singular", [False, True])
def test_two_faces_that_free_each_other_end_optimal(singular):
    # entries 0 and 1 sit at their lower bound with an inward gradient near
    # 1e-8; each face freed one of them and moved it less than the band, so
    # the next pinned it again and freed the other, until max_iterations at
    # KKT residual 1.1e-8. The singular copy adds an entry with no curvature,
    # so the QP has no inverse and the Newton loop itself meets the swap.
    P = np.array([[3.7475017007701883, -0.8135250408582276, 0.0],
                  [-0.8135250408582276, 2.7351887459218287, 0.0], [0.0, 0.0, 1.0]])
    q, x0 = [5.867953311221653, 3.8433274019297583, -5.0], [-2.0, -1.999999996354891, 2.0]
    if singular:
        P, q, x0 = np.pad(P, (0, 1)), q + [1.0], x0 + [-2.0]
    n = len(q)
    qp = BoxQp(P, q, -2.0 * np.ones(n), 2.0 * np.ones(n))
    assert (qp.inv is None) == singular
    sol = solve_box_qp(qp, tol=1e-8, x0=x0)
    assert sol.status == "optimal", sol.message
    assert sol.iterations <= 2 and kkt(qp, sol.x_star) <= 1e-8


def test_tight_qp_tol_cold_admm_completes(monkeypatch):
    # with qp_tol = 1e-9 the accelerated projected gradient ended agent 3's
    # x-update at iteration 54 after 20,000 iterations at KKT residual 4.8e-9
    g = path_graph(5)
    cfg = SimConfig()
    x0 = draw_initial_states(g, cfg, np.random.default_rng(2))
    probs, maps, _ = build_local_problems(g, default_agents(g, cfg), 10, x0)
    seen = []
    solve = admm.solve_box_qp

    def spy(qp, **kw):
        sol = solve(qp, **kw)
        seen.append((sol.status, kkt(qp, sol.x_star, kw["q"])))
        return sol

    monkeypatch.setattr(admm, "solve_box_qp", spy)
    res = AdmmEngine(probs, maps, 1.0, qp_tol=1e-9).run(60)
    assert len(res.history) == 60 and len(seen) == 5 * 60
    assert all(status == "optimal" and r <= 1e-9 for status, r in seen)
