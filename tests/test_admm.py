import numpy as np
import pytest

from dmpc import (InfoGraph, LtiAgent, build_local_problems, double_integrator_3d,
                  global_cost, path_graph, rollout, run_admm,
                  run_dual_decomposition, solve_centralized,
                  z_update, dual_update, residuals)
from dmpc import admm
from dmpc.admm import DD_QP_TOL, AdmmEngine, AdmmState
from dmpc.problem import ZLayout, copy_counts
from kkt_oracle import dynamics_equalities, solve_equality_qp


def make_scenario(seed=0, n=3, T=3, u_max=1.0):
    rng = np.random.default_rng(seed)
    g = path_graph(n)
    agents = [double_integrator_3d(0.1, 1.0, u_max=u_max) for _ in range(n)]
    x0 = []
    for _ in range(n):
        x = np.empty(6)
        x[0::2] = rng.uniform(-2, 2, size=3)
        x[1::2] = rng.uniform(-1, 1, size=3)
        x0.append(x)
    probs, maps, z_dim = build_local_problems(g, agents, T, x0)
    return g, agents, T, x0, probs, maps, z_dim


def dd_engine(probs, maps):
    return AdmmEngine(probs, maps, 0.0, qp_tol=DD_QP_TOL)


def per_agent(probs, v):
    """A stacked vector split back into the agents' local vectors."""
    return np.split(v, np.cumsum([p.dim for p in probs])[:-1])


def test_x_update_matches_kkt_when_boxes_inactive():
    g, agents, T, x0, probs, maps, z_dim = make_scenario(seed=1, u_max=np.inf)
    rng = np.random.default_rng(2)
    rho = 1.3
    z = 0.1 * rng.standard_normal(z_dim)
    lams = [0.1 * rng.standard_normal(p.dim) for p in probs]
    v = np.concatenate([lam - rho * z[m] for m, lam in zip(maps, lams)])
    x_cat = AdmmEngine(probs, maps, rho, qp_tol=1e-9).x_update(v, 1)
    for p, m, lam, x_new in zip(probs, maps, lams, per_agent(probs, x_cat)):
        z_loc = z[m]
        # KKT oracle of the augmented cost f(x) + lam'(x - Ez) + (rho/2)||x - Ez||^2
        A_eq, b_eq = dynamics_equalities(p)
        x_ref = solve_equality_qp(p.H + rho * np.eye(p.dim), lam - rho * z_loc,
                                  A_eq, b_eq)
        assert np.max(np.abs(x_new - x_ref)) <= 1e-6
        assert np.max(np.abs(A_eq @ x_new - b_eq)) <= 1e-10


def test_x_update_fixed_point_at_convergence():
    g, agents, T, x0, probs, maps, z_dim = make_scenario(seed=3)
    res = run_admm(probs, maps, rho=1.0, max_iter=3000,
                   eps_primal=1e-10, eps_dual=1e-10, qp_tol=1e-9)
    assert res.converged
    engine = AdmmEngine(probs, maps, 1.0, qp_tol=1e-9)
    x_cat = engine.x_update(res.lam - 1.0 * res.z[engine.E], len(res.history) + 1)
    for x_new, x in zip(per_agent(probs, x_cat), res.plans):
        assert np.max(np.abs(x_new - x)) <= 1e-6


def stacked(maps, vectors):
    """Per-agent vectors as the engine stacks them, with the index map E."""
    return np.concatenate(vectors), np.concatenate(maps)


def test_z_update_averages_copies():
    g, agents, T, x0, probs, maps, z_dim = make_scenario(seed=4, n=2, T=1)
    counts = copy_counts(maps, z_dim)
    # all copies equal a constant -> z equals it
    x_cat, E = stacked(maps, [np.full(p.dim, 3.25) for p in probs])
    assert np.allclose(z_update(x_cat, E, counts), 3.25)
    # copies 0 and 1 of the same component -> 0.5
    x_cat, E = stacked(maps, [np.zeros(probs[0].dim), np.ones(probs[1].dim)])
    z = z_update(x_cat, E, counts)
    assert np.allclose(z, 0.5)


def test_z_update_matches_second_pass():
    g, agents, T, x0, probs, maps, z_dim = make_scenario(seed=5)
    rng = np.random.default_rng(6)
    xs = [rng.standard_normal(p.dim) for p in probs]
    z = z_update(*stacked(maps, xs), copy_counts(maps, z_dim))
    # brute-force recomputation per component
    for c in rng.integers(0, z_dim, size=40):
        copies = [x[np.flatnonzero(m == c)] for m, x in zip(maps, xs)]
        vals = np.concatenate(copies)
        assert z[c] == pytest.approx(np.mean(vals), rel=1e-12, abs=1e-12)


def test_dual_update_rules():
    g, agents, T, x0, probs, maps, z_dim = make_scenario(seed=7, n=2, T=1)
    rho = 2.0
    z = np.zeros(z_dim)
    xs = [z[m].copy() for m in maps]
    x_cat, E = stacked(maps, xs)
    lam_cat = np.zeros(x_cat.size)
    lam, diff = dual_update(lam_cat, x_cat, z[E], rho)
    assert np.array_equal(lam, lam_cat) and not diff.any()
    xs[0][0] += 1.0
    x_cat, _ = stacked(maps, xs)
    lam, diff = dual_update(lam_cat, x_cat, z[E], rho)
    assert lam[0] == pytest.approx(2.0)
    assert np.allclose(lam[1:], 0.0)
    assert np.array_equal(diff, x_cat - z[E])


def test_dual_average_is_zero_after_each_iteration():
    g, agents, T, x0, probs, maps, z_dim = make_scenario(seed=8)
    res = run_admm(probs, maps, rho=1.0, max_iter=25, track_dual_average=True)
    assert res.max_dual_avg_violation <= 1e-9
    # a run that does not track the invariant reports no value for it
    assert run_admm(probs, maps, rho=1.0, max_iter=2).max_dual_avg_violation is None


def test_residuals_examples():
    g, agents, T, x0, probs, maps, z_dim = make_scenario(seed=9, n=2, T=1)
    counts = copy_counts(maps, z_dim)
    E = np.concatenate(maps)
    rho = 1.5
    z = np.zeros(z_dim)
    z_prev = z.copy()
    xs = [z[m].copy() for m in maps]
    assert residuals(np.concatenate(xs) - z[E], z - z_prev, counts, rho) == (0.0, 0.0)
    xs[0][3] += 0.25
    rp, rd = residuals(np.concatenate(xs) - z[E], z - z_prev, counts, rho)
    assert rp == pytest.approx(0.25)
    assert rd == 0.0
    # random state vs brute force
    rng = np.random.default_rng(10)
    xs = [rng.standard_normal(p.dim) for p in probs]
    z = rng.standard_normal(z_dim)
    z_prev = rng.standard_normal(z_dim)
    rp, rd = residuals(np.concatenate(xs) - z[E], z - z_prev, counts, rho)
    rp_ref = np.sqrt(sum(np.sum((x - z[m]) ** 2)
                         for x, m in zip(xs, maps)))
    rd_ref = rho * np.sqrt(np.sum(counts * (z - z_prev) ** 2))
    assert rp == pytest.approx(rp_ref, rel=1e-12)
    assert rd == pytest.approx(rd_ref, rel=1e-12)


def test_run_admm_zero_iterations_returns_initialization():
    g, agents, T, x0, probs, maps, z_dim = make_scenario(seed=11)
    res = run_admm(probs, maps, rho=1.0, max_iter=0)
    assert res.history == []
    assert np.allclose(res.z, 0.0)
    for x in res.plans:
        assert np.allclose(x, 0.0)


def test_run_leaves_its_init_and_calls_each_stage_once_an_iteration(monkeypatch):
    # a run updates its own arrays in place: the caller's init is never
    # changed, and a second run from it neither changes the first's result
    # nor differs from it; the z-average, dual step and residuals are one
    # call each of the dmpc.admm function per iteration, as perfbench wraps them
    g, agents, T, x0, probs, maps, z_dim = make_scenario(seed=23)
    engine = AdmmEngine(probs, maps, rho=1.0)
    rng = np.random.default_rng(24)
    init = AdmmState(lam=rng.standard_normal(engine.E.size), z=rng.standard_normal(z_dim))
    before = init.lam.tobytes(), init.z.tobytes()
    stages = ("z_update", "dual_update", "residuals")
    calls = dict.fromkeys(stages, 0)
    for name in stages:
        def counted(*args, name=name, real=getattr(admm, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(admm, name, counted)

    def result_bytes(res):
        return ([x.tobytes() for x in res.plans], res.z.tobytes(), res.lam.tobytes(),
                res.history, res.objective)

    first = engine.run(7, init=init)
    assert calls == dict.fromkeys(stages, 7) and len(first.history) == 7
    assert (init.lam.tobytes(), init.z.tobytes()) == before
    kept = result_bytes(first)
    engine.cold_start(faces=True)  # as on an engine built afresh
    second = engine.run(7, init=init)
    assert calls == dict.fromkeys(stages, 14)
    assert (init.lam.tobytes(), init.z.tobytes()) == before
    assert result_bytes(first) == kept == result_bytes(second)
    # no iteration: the plans are the copies of z, the duals those given
    none = engine.run(0, init=init)
    assert calls == dict.fromkeys(stages, 14) and none.history == []
    assert np.concatenate(none.plans).tobytes() == init.z[engine.E].tobytes()
    assert none.lam.tobytes() == before[0] and none.lam is not init.lam


def test_run_admm_consensus_at_rest_is_immediate():
    # at the origin the cold start (z = 0) is already the optimum: one
    # iteration, zero plans, zero residuals
    g = path_graph(3)
    agents = [double_integrator_3d(0.1, 1.0) for _ in range(3)]
    probs, maps, z_dim = build_local_problems(g, agents, 3, [np.zeros(6)] * 3)
    res = run_admm(probs, maps, rho=1.0, max_iter=5,
                   eps_primal=1e-12, eps_dual=1e-12)
    assert res.converged and len(res.history) == 1
    layout = ZLayout(agents, 3)
    _, inputs = layout.decode(res.z)
    for u in inputs:
        assert np.max(np.abs(u)) <= 1e-10


def test_run_admm_consensus_away_from_origin_converges_to_rest():
    # a non-origin consensus point is not a fixed point of the cold start
    # (z = 0 pulls plans toward the origin) but the converged solution
    # still applies no input
    g = path_graph(3)
    agents = [double_integrator_3d(0.1, 1.0) for _ in range(3)]
    common = np.array([0.5, 0.0, -1.0, 0.0, 2.0, 0.0])
    probs, maps, z_dim = build_local_problems(g, agents, 3,
                                              [common.copy() for _ in range(3)])
    res = run_admm(probs, maps, rho=1.0, max_iter=3000,
                   eps_primal=1e-9, eps_dual=1e-9, qp_tol=1e-9)
    assert res.converged
    layout = ZLayout(agents, 3)
    _, inputs = layout.decode(res.z)
    for u in inputs:
        assert np.max(np.abs(u)) <= 1e-6


def test_run_admm_matches_centralized():
    g, agents, T, x0, probs, maps, z_dim = make_scenario(seed=12, n=4, T=4)
    res = run_admm(probs, maps, rho=1.0, max_iter=5000,
                   eps_primal=1e-8, eps_dual=1e-8, qp_tol=1e-8)
    assert res.converged
    plans_c, cost_c = solve_centralized(g, agents, T, x0, tol=1e-10)
    layout = ZLayout(agents, T)
    _, u_admm = layout.decode(res.z)
    for j in range(4):
        assert np.max(np.abs(u_admm[j] - plans_c[j])) <= 1e-4
    states = [rollout(a, x, u_admm[j]) for j, (a, x) in enumerate(zip(agents, x0))]
    cost_a = global_cost(g, states, u_admm)
    assert abs(cost_a - cost_c) <= 1e-6 * cost_c


def test_iterates_respect_dynamics_and_boxes():
    g, agents, T, x0, probs, maps, z_dim = make_scenario(seed=13)
    for k in (1, 3, 10):
        res = run_admm(probs, maps, rho=1.0, max_iter=k)
        for p, x in zip(probs, res.plans):
            A_eq, b_eq = dynamics_equalities(p)
            assert np.max(np.abs(A_eq @ x - b_eq)) <= 1e-10
            for pos, mdl in enumerate(p.models):
                for t in range(T):
                    u = x[p.input_slice(pos, t)]
                    assert np.max(np.abs(u)) <= mdl.u_max + 1e-15


def test_run_admm_is_deterministic_and_parallel_safe():
    g, agents, T, x0, probs, maps, z_dim = make_scenario(seed=14)
    r1 = run_admm(probs, maps, rho=1.0, max_iter=20)
    r2 = run_admm(probs, maps, rho=1.0, max_iter=20)
    r3 = run_admm(probs, maps, rho=1.0, max_iter=20, parallel=True)
    for a, b in ((r1, r2), (r1, r3)):
        assert a.z.tobytes() == b.z.tobytes()
        for xa, xb in zip(a.plans, b.plans):
            assert xa.tobytes() == xb.tobytes()


def test_residual_history_length_matches_iterations():
    g, agents, T, x0, probs, maps, z_dim = make_scenario(seed=15)
    res = run_admm(probs, maps, rho=1.0, max_iter=7)
    assert [row[0] for row in res.history] == list(range(1, 8))


def test_dual_decomposition_zero_step_freezes_multipliers():
    g, agents, T, x0, probs, maps, z_dim = make_scenario(seed=16, n=2, T=2)
    plans1, hist1 = run_dual_decomposition(dd_engine(probs, maps), lambda k: 0.0, 3)
    # with alpha = 0 the multipliers never move, so the disagreement repeats
    assert hist1[0][1] == pytest.approx(hist1[1][1], rel=1e-12)
    assert hist1[1][1] == pytest.approx(hist1[2][1], rel=1e-12)


def test_dual_decomposition_needs_an_iteration():
    g, agents, T, x0, probs, maps, z_dim = make_scenario(seed=16, n=2, T=2)
    with pytest.raises(ValueError, match="max_iter"):
        run_dual_decomposition(dd_engine(probs, maps), lambda k: 1.0 / k, 0)


def test_dual_decomposition_runs_on_singular_subproblems(monkeypatch):
    # the two inputs act alike, so a neighbour's inputs leave P = M'HM singular
    # at rho = 0 and the x-updates never take the closed form. The minimizers
    # are not unique, so dual decomposition need not converge; what holds by
    # design is that every x-update is a KKT point and every singular free
    # system gets its minimum-norm point.
    from dmpc import admm, qp as qp_module
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    agents = [LtiAgent(A, np.array([[0.0, 0.0], [0.1, 0.1]]), u_max=1.0) for _ in range(2)]
    x0 = [np.array([1.0, 0.0]), np.array([-1.0, 0.5])]
    probs, maps, _ = build_local_problems(path_graph(2), agents, 2, x0)
    engine = dd_engine(probs, maps)
    assert all(c.qp.inv is None for c in engine.caches)
    solves, singular = [], []
    solve, newton_point = admm.solve_box_qp, qp_module._newton_point

    def spy_solve(qp, **kw):
        sol = solve(qp, **kw)
        x = sol.x_star
        kkt = np.max(np.abs(x - np.clip(x - (qp.dense() @ x + kw["q"]), qp.lower, qp.upper)))
        solves.append((sol.status, kkt, kw["tol"]))
        return sol

    def spy_newton_point(qp, q, x_unc, active, cand):
        x = newton_point(qp, q, x_unc, active, cand)
        P = qp.dense()
        F = ~active
        a = P[np.ix_(F, F)]
        if np.linalg.matrix_rank(a) < a.shape[0]:
            b = -q[F] - P[np.ix_(F, active)] @ cand[active]
            singular.append(np.max(np.abs(x[F] - np.linalg.pinv(a) @ b)))
        return x

    monkeypatch.setattr(admm, "solve_box_qp", spy_solve)
    monkeypatch.setattr(qp_module, "_newton_point", spy_newton_point)
    plans, hist = run_dual_decomposition(dd_engine(probs, maps), lambda k: 1.0 / k, 20)
    assert [k for k, _ in hist] == list(range(1, 21))
    assert all(np.isfinite(d) for _, d in hist)
    assert all(np.all(np.isfinite(x)) for x in plans)
    assert len(solves) == 2 * 20
    assert all(status == "optimal" and kkt <= tol for status, kkt, tol in solves)
    assert singular and max(singular) <= 1e-10


def test_dual_decomposition_diminishing_steps_converge():
    g, agents, T, x0, probs, maps, z_dim = make_scenario(seed=17, n=2, T=2)
    plans, hist = run_dual_decomposition(dd_engine(probs, maps), lambda k: 1.0 / k, 500)
    assert hist[-1][1] <= 1e-3 * hist[0][1]


def test_solver_failure_carries_agent_context():
    from dmpc.admm import SolverFailure
    err = SolverFailure(2, 5, "boom")
    assert err.agent == 2 and err.iteration == 5
    assert "agent 2" in str(err)


def test_run_builds_no_new_box_qp(monkeypatch):
    # P and the box are validated once per engine; every x-update only swaps q
    from dmpc.qp import BoxQp
    g, agents, T, x0, probs, maps, z_dim = make_scenario(seed=18)
    engine = AdmmEngine(probs, maps, rho=1.0)
    calls = []
    orig = BoxQp.__init__
    monkeypatch.setattr(BoxQp, "__init__", lambda self, *a: calls.append(1) or orig(self, *a))
    res = engine.run(6)
    assert len(res.solve_times) == len(probs) * 6
    assert calls == []


def test_result_objective_is_the_final_local_cost():
    g, agents, T, x0, probs, maps, z_dim = make_scenario(seed=19)
    res = run_admm(probs, maps, rho=1.0, max_iter=5)
    assert all(len(row) == 3 for row in res.history)
    assert res.objective == sum(p.cost(x) for p, x in zip(probs, res.plans))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_measured_state_is_rejected(bad):
    g, agents, T, x0, probs, maps, z_dim = make_scenario(seed=20)
    x_bad = [x.copy() for x in x0]
    x_bad[1][4] = bad
    with pytest.raises(ValueError, match="agent 2"):
        build_local_problems(g, agents, T, x_bad)
    engine = AdmmEngine(probs, maps, rho=1.0)
    with pytest.raises(ValueError, match="agent 2"):
        engine.rebind_states(x_bad)


@pytest.mark.parametrize("states, match", [
    (lambda xs: xs[:2], "expected 3 measured states, got 2"),
    (lambda xs: xs + xs[:1], "expected 3 measured states, got 4"),
    (lambda xs: [xs[0], xs[1][:4], xs[2]], r"agent 2 has shape \(4,\), expected \(6,\)"),
], ids=["two-states", "four-states", "short-state"])
def test_rebind_needs_one_state_per_agent_of_its_width(states, match):
    g, agents, T, x0, probs, maps, z_dim = make_scenario(seed=20)
    engine = AdmmEngine(probs, maps, rho=1.0)
    c = engine.c
    with pytest.raises(ValueError, match=match):
        engine.rebind_states(states(x0))
    assert engine.c is c


def test_run_rejects_a_negative_iteration_count():
    g, agents, T, x0, probs, maps, z_dim = make_scenario(seed=20)
    with pytest.raises(ValueError, match="max_iter must be >= 0, got -1"):
        AdmmEngine(probs, maps, rho=1.0).run(-1)


@pytest.mark.parametrize("name, delta", [("lam", -1), ("lam", 1), ("z", -1), ("z", 1)])
def test_run_rejects_an_init_of_the_wrong_size(name, delta, monkeypatch):
    g, agents, T, x0, probs, maps, z_dim = make_scenario(seed=20)
    engine = AdmmEngine(probs, maps, rho=1.0)
    init = AdmmState(lam=np.zeros(engine.E.size), z=np.zeros(z_dim))
    setattr(init, name, np.zeros(getattr(init, name).size + delta))
    monkeypatch.setattr(AdmmEngine, "x_update", lambda *a: pytest.fail("a QP round ran"))
    with pytest.raises(ValueError, match=rf"init\.{name} has shape"):
        engine.run(3, init=init)


@pytest.mark.parametrize("rho", [-1.0, np.nan])
def test_engine_rejects_negative_or_nan_rho(rho):
    g, agents, T, x0, probs, maps, z_dim = make_scenario(seed=21)
    with pytest.raises(ValueError, match="rho must be nonnegative"):
        AdmmEngine(probs, maps, rho)


def test_engine_at_rho_zero_serves_dual_decomposition_only():
    g, agents, T, x0, probs, maps, z_dim = make_scenario(seed=21)
    with pytest.raises(ValueError, match="rho > 0"):
        dd_engine(probs, maps).run(1)
    with pytest.raises(ValueError, match="rho = 0"):
        run_dual_decomposition(AdmmEngine(probs, maps, 1.0), lambda k: 1.0 / k, 1)


def test_diverging_dual_decomposition_is_a_solver_failure():
    from dmpc.admm import SolverFailure
    g, agents, T, x0, probs, maps, z_dim = make_scenario(seed=22, u_max=np.inf)
    with pytest.raises(SolverFailure) as exc:  # unbounded inputs, the closed loop's steps
        run_dual_decomposition(dd_engine(probs, maps), lambda k: 1.0 / k, 50)
    assert exc.value.agent is None and exc.value.iteration > 1
    assert str(exc.value).startswith(
        f"dual decomposition diverging at iteration {exc.value.iteration}: disagreement ")
