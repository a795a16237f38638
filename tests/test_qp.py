import re
import warnings

import numpy as np
import pytest

from dmpc import (BoxQp, InfoGraph, double_integrator_3d, enumerate_box_qp,
                  global_cost, path_graph, rollout, solve_box_qp,
                  solve_centralized)
from dmpc import qp as qp_module
from dmpc.problem import ZLayout, build_centralized_qp
from kkt_oracle import dynamics_equalities, solve_equality_qp


def random_psd_qp(rng, n):
    G = rng.standard_normal((n, n))
    P = G @ G.T + 1e-3 * np.eye(n)
    q = rng.standard_normal(n)
    return BoxQp(P, q, -np.ones(n), np.ones(n))


def test_interior_minimum():
    qp = BoxQp(np.eye(3), np.zeros(3), -np.ones(3), np.ones(3))
    sol = solve_box_qp(qp)
    assert sol.status == "optimal"
    assert np.max(np.abs(sol.x_star)) <= 1e-10


def test_scalar_clipping():
    qp = BoxQp(np.eye(1), np.array([-3.0]), np.array([-1.0]), np.array([1.0]))
    sol = solve_box_qp(qp)
    assert sol.status == "optimal"
    assert sol.x_star[0] == pytest.approx(1.0)


def test_infeasible_bounds():
    qp = BoxQp(np.eye(2), np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    sol = solve_box_qp(qp)
    assert sol.status == "infeasible_bounds"


@pytest.mark.parametrize("inf", [-np.inf, np.inf], ids=["both-minus-inf", "both-plus-inf"])
def test_bounds_infinite_on_one_side_are_infeasible(inf):
    # no finite x meets lower = upper = inf; building and solving warn of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        qp = BoxQp(np.eye(3), np.ones(3), np.array([-1.0, inf, -np.inf]),
                   np.array([1.0, inf, np.inf]))
        assert qp.infeasible
        sol = solve_box_qp(qp)
    assert sol.status == "infeasible_bounds"
    assert np.isnan(sol.x_star).all()


def test_unbounded_entries_still_solve():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        qp = BoxQp(2.0 * np.eye(3), np.array([2.0, -8.0, 1.0]),
                   np.array([-np.inf, -np.inf, 0.0]), np.array([np.inf, 1.0, np.inf]))
        assert not qp.infeasible
        sol = solve_box_qp(qp)
    assert sol.status == "optimal"
    assert np.allclose(sol.x_star, [-1.0, 1.0, 0.0])
    assert np.array_equal(qp.box[2], np.full(3, 1e-9))  # the band of an unbounded entry


def test_asymmetric_p_rejected():
    with pytest.raises(ValueError):
        BoxQp(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2),
              -np.ones(2), np.ones(2))


@pytest.mark.parametrize("idx, s", [([[0, 1], [0, 1]], 2), ([[0, 1]], 2), ([[0, 1], [2, 4]], 2),
                                    ([[0, 1, 2, 3, 3]], 5), ([[0, 1, 2, 3]], 2),
                                    ([[0, 1], [2, 3]], 3)],
                         ids=["twice", "too-few", "out-of-range", "too-many", "block-too-small",
                              "block-too-large"])
def test_blocks_that_do_not_cover_x_once_are_rejected(idx, s):
    # [[0, 1], [0, 1]] was taken, and its solve left entries 2 and 3 unoptimized; a block
    # not (s, s) for its (k, s) indices was taken, and its first solve raised a numpy error
    with pytest.raises(ValueError, match=r"not \(s, s\) blocks covering q's 4 entries once each"):
        BoxQp(((np.array(idx), np.eye(s)),), np.ones(4), -np.ones(4), np.ones(4))
    # blocks on permuted indices cover x: kept as one dense block
    b = np.array([[2.0, 1.0], [1.0, 2.0]])
    qp = BoxQp(((np.array([[0, 2], [1, 3]]), b),), np.ones(4), -np.ones(4), np.ones(4))
    assert qp.shape == (1, 4) and np.array_equal(qp.dense()[::2, ::2], b)
    assert np.allclose(solve_box_qp(qp).x_star, -1.0 / 3.0)


def test_agreement_with_active_set_oracle():
    rng = np.random.default_rng(42)
    for _ in range(120):
        n = int(rng.integers(1, 5))
        qp = random_psd_qp(rng, n)
        sol = solve_box_qp(qp, tol=1e-9, max_iter=50000)
        assert sol.status == "optimal"
        x_ref, f_ref = enumerate_box_qp(qp)
        assert abs(sol.objective - f_ref) <= 1e-9
        assert np.max(np.abs(sol.x_star - x_ref)) <= 1e-6


def test_optimal_solutions_satisfy_kkt_and_bounds():
    rng = np.random.default_rng(5)
    for _ in range(20):
        qp = random_psd_qp(rng, 6)
        sol = solve_box_qp(qp, tol=1e-8)
        assert sol.status == "optimal"
        assert np.all(sol.x_star >= qp.lower) and np.all(sol.x_star <= qp.upper)
        assert qp.kkt_residual(sol.x_star) <= 1e-8


def test_objective_record_is_monotone():
    rng = np.random.default_rng(8)
    G = rng.standard_normal((10, 10))
    qp = BoxQp(G @ G.T + 1e-6 * np.eye(10), rng.standard_normal(10),
               -0.1 * np.ones(10), 0.1 * np.ones(10))
    sol = solve_box_qp(qp, tol=1e-10, max_iter=5000, x0=np.zeros(10))
    hist = np.asarray(sol.objective_history)
    assert np.all(np.diff(hist) <= 1e-12)


def test_unbounded_direction_not_reported_optimal():
    # zero curvature with a slope and an open box
    qp = BoxQp(np.zeros((1, 1)), np.array([1.0]),
               np.array([-np.inf]), np.array([np.inf]))
    sol = solve_box_qp(qp, tol=1e-8, max_iter=2000)
    assert sol.status != "optimal"
    assert sol.message != ""


def test_warm_start_is_used():
    rng = np.random.default_rng(10)
    qp = random_psd_qp(rng, 8)
    cold = solve_box_qp(qp, tol=1e-10, max_iter=50000)
    warm = solve_box_qp(qp, tol=1e-10, max_iter=50000, x0=cold.x_star)
    assert warm.iterations <= cold.iterations


def test_equality_qp_symmetric_projection():
    x = solve_equality_qp(np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]),
                          np.array([2.0]))
    assert np.allclose(x, [1.0, 1.0])


def test_equality_qp_unconstrained():
    P = np.diag([2.0, 4.0])
    q = np.array([2.0, -4.0])
    assert np.allclose(solve_equality_qp(P, q), [-1.0, 1.0])


def test_equality_qp_random_residuals():
    rng = np.random.default_rng(12)
    n, p = 7, 3
    G = rng.standard_normal((n, n))
    P = G @ G.T + np.eye(n)
    q = rng.standard_normal(n)
    A = rng.standard_normal((p, n))
    b = rng.standard_normal(p)
    x = solve_equality_qp(P, q, A, b)
    assert np.max(np.abs(A @ x - b)) <= 1e-10
    # stationarity on the constraint tangent space
    Z = np.linalg.svd(A)[2][p:].T
    assert np.max(np.abs(Z.T @ (P @ x + q))) <= 1e-8


def test_equality_qp_singular_kkt():
    with pytest.raises(ValueError):
        solve_equality_qp(np.zeros((2, 2)), np.ones(2))


def test_enumerate_rejects_large_problems():
    qp = BoxQp(np.eye(10), np.zeros(10), -np.ones(10), np.ones(10))
    with pytest.raises(ValueError):
        enumerate_box_qp(qp)


def test_centralized_consensus_at_rest():
    g = path_graph(3)
    agents = [double_integrator_3d(0.1, 1.0) for _ in range(3)]
    common = np.array([1.0, 0.0, 2.0, 0.0, -1.0, 0.0])
    plans, cost = solve_centralized(g, agents, 4, [common.copy() for _ in range(3)])
    assert cost <= 1e-12
    for u in plans:
        assert np.max(np.abs(u)) <= 1e-8


def test_centralized_matches_equality_oracle_unconstrained():
    rng = np.random.default_rng(1)
    g = InfoGraph(2, {(1, 2): 1.0})
    agents = [double_integrator_3d(0.1, 1.0, u_max=np.inf) for _ in range(2)]
    x0 = [rng.standard_normal(6) for _ in range(2)]
    plans, cost = solve_centralized(g, agents, 1, x0, tol=1e-10)
    # KKT oracle over the whole-network trajectory, dynamics as equalities
    block = build_centralized_qp(g, agents, 1, x0)[0]
    A_eq, b_eq = dynamics_equalities(block)
    v_ref = solve_equality_qp(block.H.toarray(), np.zeros(block.dim), A_eq, b_eq)
    _, u_ref = ZLayout(agents, 1).decode(v_ref)
    for u, r in zip(plans, u_ref):
        assert np.max(np.abs(u - r)) <= 1e-8
    assert cost == pytest.approx(block.cost(v_ref), rel=1e-9)


def test_centralized_beats_zero_input_plan():
    rng = np.random.default_rng(2)
    g = path_graph(5)
    agents = [double_integrator_3d(0.1, 1.0) for _ in range(5)]
    x0 = []
    for _ in range(5):
        x = np.empty(6)
        x[0::2] = rng.uniform(-5, 5, size=3)
        x[1::2] = rng.uniform(-1, 1, size=3)
        x0.append(x)
    T = 10
    plans, cost = solve_centralized(g, agents, T, x0)
    zero_states = [rollout(a, x, np.zeros((T, 3))) for a, x in zip(agents, x0)]
    zero_cost = global_cost(g, zero_states, [np.zeros((T, 3))] * 5)
    assert cost <= zero_cost + 1e-9


def test_q_of_a_solve_replaces_only_its_linear_term():
    rng = np.random.default_rng(31)
    qp = random_psd_qp(rng, 4)
    q_before = qp.q.copy()
    q = rng.standard_normal(4)
    sol = solve_box_qp(qp, tol=1e-12, q=q)
    ref = solve_box_qp(BoxQp(qp.dense(), q, qp.lower, qp.upper), tol=1e-12)
    assert sol.x_star.tobytes() == ref.x_star.tobytes() and sol.objective == ref.objective
    assert np.array_equal(qp.q, q_before)
    assert solve_box_qp(qp, q=list(q)).x_star.tobytes() == sol.x_star.tobytes()
    for bad in (np.zeros(3), np.zeros(5), np.zeros((4, 1))):
        with pytest.raises(ValueError, match="shape"):
            solve_box_qp(qp, q=bad)


@pytest.mark.parametrize("P", [np.eye(3), np.array([[2.0, 0, 1], [0, 1, 0], [1, 0, 2]])],
                         ids=["one-class", "dense"])
def test_a_warm_start_of_the_wrong_shape_is_rejected(P):
    # the closed form lies outside the box, so Newton reads x0
    qp = BoxQp(P, np.full(3, 10.0), -np.ones(3), np.ones(3))
    assert qp.shape == ((3, 1) if P[0, 2] == 0.0 else (1, 3))
    assert solve_box_qp(qp, x0=[0.5, 0.5, 0.5]).status == "optimal"
    for bad in ([0.5], 0.5, [0.1, 0.2], np.zeros(4), np.zeros((3, 1))):
        shape = re.escape(f"x0 has shape {np.shape(bad)}, expected (3,)")
        with pytest.raises(ValueError, match=shape):
            solve_box_qp(qp, x0=bad)


@pytest.mark.parametrize("kw", [{"max_iter": -1}, {"tol": np.nan}, {"tol": -1.0}],
                         ids=["max-iter", "nan-tol", "negative-tol"])
def test_a_negative_max_iter_or_tol_and_a_nan_tol_are_rejected(kw):
    # max_iter=-1 once raised UnboundLocalError; a nan or negative tol ended stalled
    qp = BoxQp(np.eye(2), np.array([-3.0, 0.5]), -np.ones(2), np.ones(2))
    with pytest.raises(ValueError, match="tol and max_iter must be >= 0"):
        solve_box_qp(qp, **kw)
    assert solve_box_qp(qp, tol=0.0).status == "optimal"


def test_an_infinite_tol_is_rejected():
    # every Newton pass would end optimal at tol = inf, whatever its KKT residual
    qp = BoxQp(np.eye(2), np.array([-3.0, 0.5]), -np.ones(2), np.ones(2))
    with pytest.raises(ValueError, match="tol and max_iter must be >= 0, tol finite, got inf"):
        solve_box_qp(qp, tol=np.inf)


def test_closed_form_solution_fields():
    rng = np.random.default_rng(32)
    G = rng.standard_normal((6, 6))
    P = G @ G.T + 6 * np.eye(6)
    qp = BoxQp(P, 0.1 * rng.standard_normal(6), -10 * np.ones(6), 10 * np.ones(6))
    sol = solve_box_qp(qp, tol=1e-9)
    # the closed-form path: no iteration and no objective history
    assert sol.status == "optimal" and sol.iterations == 0 and sol.objective_history == []
    assert np.allclose(P @ sol.x_star, -qp.q, atol=1e-12)
    assert sol.objective == pytest.approx(qp.objective(sol.x_star), rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_factored_solve_rejects_nonfinite_q(bad):
    qp = BoxQp(2.0 * np.eye(3), np.array([0.5, bad, 0.0]), -np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        solve_box_qp(qp)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("P, lower, upper", [
    (2.0 * np.eye(3), -np.ones(3), np.ones(3)),
    # an infinite closed form passes the test of a box without bounds, and
    # P x + q would hold inf - inf
    (2.0 * np.eye(3), np.full(3, -np.inf), np.full(3, np.inf)),
    (2.0 * np.eye(3), -np.ones(3), np.full(3, np.inf)),
    (np.diag([1.0, 0.0, 1.0]), -np.ones(3), np.ones(3)),
], ids=["finite-box", "no-bounds", "one-side", "no-inverse"])
def test_nonfinite_q_fails_cleanly(P, lower, upper, bad):
    qp = BoxQp(P, np.zeros(3), lower, upper)
    assert (qp.inv is None) == (P[1, 1] == 0.0)
    q = np.array([0.5, bad, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from products with q
        for x0 in (None, np.zeros(3)):
            with pytest.raises(ValueError, match="finite"):
                solve_box_qp(qp, x0=x0, q=q)


# each exit of the Newton loop: optimal, max_iterations and stalled, a step
# that raises f included
def test_max_iter_zero_warm_start_on_an_optimal_face():
    qp = BoxQp(np.eye(2), np.array([-3.0, 0.5]), -np.ones(2), np.ones(2))
    sol = solve_box_qp(qp, max_iter=0, x0=np.array([1.0, 0.2]))
    assert (sol.status, sol.iterations, sol.message) == ("optimal", 0, "")
    assert np.array_equal(sol.x_star, [1.0, -0.5]) and len(sol.objective_history) == 1


def test_max_iter_zero_start_inside_the_box():
    qp = BoxQp(np.eye(2), np.array([-3.0, 0.5]), -np.ones(2), np.ones(2))
    sol = solve_box_qp(qp, max_iter=0, x0=np.zeros(2))
    assert (sol.status, sol.iterations, sol.kkt_residual) == ("max_iterations", 0, 1.0)
    assert sol.message == "0 iterations; kkt residual 1.000e+00 above tol 1.000e-08"
    assert np.array_equal(sol.x_star, [0.0, 0.0]) and sol.objective_history == [0.0]


def test_max_iter_zero_cold_start_at_the_optimum_is_optimal():
    # P has no inverse, so there is no closed form and no warm face: the
    # start x0 is the minimizer, and a solve that may take no step says so
    qp = BoxQp(np.diag([1.0, 0.0]), np.array([-0.5, 1.0]), -np.ones(2), np.ones(2))
    assert qp.inv is None
    sol = solve_box_qp(qp, max_iter=0, x0=np.array([0.5, -1.0]))
    assert (sol.status, sol.iterations, sol.kkt_residual, sol.message) == ("optimal", 0, 0.0, "")
    assert np.array_equal(sol.x_star, [0.5, -1.0]) and sol.objective_history == [-1.125]
    # with a step allowed, a cold start still takes one before it may end optimal
    one = solve_box_qp(qp, max_iter=1, x0=np.array([0.5, -1.0]))
    assert (one.status, one.iterations, one.objective_history) == ("optimal", 0, [-1.125, -1.125])


def test_max_iter_one_on_a_qp_of_two_newton_steps():
    # from 0 the first step goes to the box's corner (1, -1); the second frees x1
    qp = BoxQp(np.array([[1.0, 0.9], [0.9, 1.0]]), np.array([-3.0, -1.0]),
               -np.ones(2), np.ones(2))
    full = solve_box_qp(qp, x0=np.zeros(2))
    assert full.status == "optimal" and full.iterations == 1
    assert full.x_star == pytest.approx([1.0, 0.1], abs=1e-12)
    sol = solve_box_qp(qp, max_iter=1, x0=np.zeros(2))
    assert (sol.status, sol.iterations) == ("max_iterations", 0)
    assert sol.objective_history == full.objective_history[:2]
    assert np.array_equal(sol.x_star, [1.0, -1.0])


def test_a_newton_point_that_stays_put_ends_stalled(monkeypatch):
    # the Newton point is the start itself
    monkeypatch.setattr(qp_module, "_newton_point", lambda *args: np.zeros(2))
    qp = BoxQp(np.eye(2), np.array([-3.0, 0.5]), -np.ones(2), np.ones(2))
    sol = solve_box_qp(qp, x0=np.zeros(2))
    assert (sol.status, sol.iterations, sol.objective_history) == ("stalled", 0, [0.0, 0.0])
    assert sol.message.startswith("no descent step; kkt residual 1.000e+00")


def test_a_step_that_raises_f_within_the_slack_ends_stalled(monkeypatch):
    # each Newton point moves 4 ulps further in from the bound the minimum
    # sits on: f rises about 1.8e-15 a step, within the Armijo test's
    # rounding slack of 1e-15 |f| = 2.5e-15, and x never reaches the optimum
    newton_point, calls = qp_module._newton_point, []

    def nudged(*args):
        calls.append(None)
        return newton_point(*args) - 4 * len(calls) * np.spacing(1.0)

    monkeypatch.setattr(qp_module, "_newton_point", nudged)
    qp = BoxQp(np.eye(1), np.array([-3.0]), -np.ones(1), np.ones(1))
    sol = solve_box_qp(qp, tol=0.0, max_iter=200)
    hist = np.asarray(sol.objective_history)
    assert sol.status == "stalled" and len(hist) <= 4
    assert np.diff(hist)[-1] > 0 and np.all(np.diff(hist)[:-1] <= 0)
