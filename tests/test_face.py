"""Each box QP's face slot: the Cholesky factor of its last Newton face,
reused when the next Newton point holds the same active set. Reuse leaves
every solution bit for bit as a fresh QP gives it; only the counts of
`schur_reused` tell the two apart."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.linalg.lapack import dposv, dpotrs

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from test_classes import box_qp, repeated_blocks  # noqa: E402
from test_reuse import unlike_agents_on_a_random_graph, untimed  # noqa: E402
from test_sharing import grid  # noqa: E402

from dmpc import (BoxQp, SimConfig, build_local_problems, draw_initial_states,  # noqa: E402
                  path_graph, run_closed_loop, solve_box_qp)
from dmpc import admm, qp as qp_module  # noqa: E402
from dmpc.admm import AdmmEngine, QpCounters  # noqa: E402
from dmpc.qp import _newton_point, _principal, diagonal_blocks  # noqa: E402
from dmpc.simulation import admm_engine, default_agents  # noqa: E402


def same_bits(a, b):
    """Equal arrays of floats, the sign of every zero included."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_dpotrs_on_the_factor_of_dposv_gives_its_solution():
    rng = np.random.default_rng(0)
    for n in range(1, 61):
        G = rng.standard_normal((n, n))
        S = G @ G.T + 0.1 * np.eye(n)
        b = rng.standard_normal(n)
        c, y, info = dposv(S, b)
        y_held, info_held = dpotrs(c, b)
        assert info == info_held == 0
        assert same_bits(y_held, y)


def solve_sequence(qp, qs, fresh):
    """Each q's solution, warm-started at the previous one, on `qp` with q
    passed to the solve or, with `fresh`, on QPs built anew from its P, q
    and box."""
    sols, x0 = [], None
    for q in qs:
        if fresh:
            sol = solve_box_qp(BoxQp(qp.dense(), q, qp.lower, qp.upper), tol=1e-10, x0=x0)
        else:
            sol = solve_box_qp(qp, tol=1e-10, x0=x0, q=q)
        sols.append(sol)
        x0 = sol.x_star
    return sols


def with_open_and_pinned_entries(rng, qp):
    """`qp` with about a quarter of its entries held at a bound (lower =
    upper) and a quarter unbounded on one side or both; the entries of a
    singular block keep their finite box, so every QP has a minimizer."""
    lo, hi = qp.lower.copy(), qp.upper.copy()
    spd = np.concatenate([i for idx, b in diagonal_blocks(qp.dense())
                          if np.linalg.eigvalsh(b).min() > 1e-9 for i in idx])
    pick = rng.uniform(size=spd.size)
    hi[spd[pick < 0.25]] = lo[spd[pick < 0.25]]
    lo[spd[(pick > 0.75) & (pick < 0.9)]] = -np.inf
    hi[spd[pick >= 0.85]] = np.inf
    return BoxQp(qp.dense(), qp.q, lo, hi)


# (size, count) per distinct block: n stays below 40
kinds = st.lists(st.tuples(st.integers(1, 6), st.integers(1, 3)), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(kinds, st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
# two positive definite classes and a singular one on permuted indices, open and pinned entries
@example([(5, 3), (3, 2)], True, True, 4)
def test_solves_with_q_passed_equal_solves_on_fresh_qps(kinds, singular, edges, seed):
    rng = np.random.default_rng(seed)
    P, _ = repeated_blocks(rng, kinds, singular)
    qp = box_qp(rng, P)
    if edges:
        qp = with_open_and_pinned_entries(rng, qp)
    q_built = qp.q.copy()
    # small moves of q, as between ADMM iterations, repeat active sets
    qs = [qp.q + 0.05 * rng.standard_normal(qp.dim) for _ in range(8)]
    shared, fresh = solve_sequence(qp, qs, fresh=False), solve_sequence(qp, qs, fresh=True)
    assert same_bits(qp.q, q_built)  # a solve's q is its own
    for a, b in zip(shared, fresh):
        assert (a.status, a.iterations, a.message) == (b.status, b.iterations, b.message)
        assert same_bits(a.x_star, b.x_star)
        assert same_bits([a.kkt_residual, a.objective], [b.kkt_residual, b.objective])
        assert same_bits(a.objective_history, b.objective_history)
        assert b.schur_reused == 0  # a fresh QP holds no factor yet
    if singular:  # no inverse, no Schur solve: the slot stays empty
        assert qp.face is None and qp.reused == 0
        assert all(s.schur_reused == 0 for s in shared)
    assert qp.reused == sum(s.schur_reused for s in shared)


def test_a_repeated_face_is_solved_on_the_held_factor(monkeypatch):
    rng = np.random.default_rng(4)
    P, _ = repeated_blocks(rng, [(5, 3), (3, 2)], False)
    qp = box_qp(rng, P)
    q, x_unc = qp.q, -(qp.dense(inverse=True) @ qp.q)
    active = np.zeros(qp.dim, dtype=bool)
    active[rng.choice(qp.dim, qp.dim // 2, replace=False)] = True
    calls = []
    monkeypatch.setattr(qp_module, "dpotrs", lambda *a: calls.append(1) or dpotrs(*a))
    _newton_point(qp, q, x_unc, active, rng.uniform(-1.0, 1.0, qp.dim))
    assert calls == [] and qp.reused == 0
    A, c = qp.face
    assert A == active.nonzero()[0].tobytes()
    cand = rng.uniform(-1.0, 1.0, qp.dim)
    x = _newton_point(qp, q, x_unc, active, cand)
    assert calls == [1] and qp.reused == 1 and qp.face == (A, c)
    fresh = BoxQp(P, qp.q, qp.lower, qp.upper)
    assert same_bits(x, _newton_point(fresh, q, x_unc, active, cand))
    # another face replaces the held one
    active[active.nonzero()[0][0]] = False
    _newton_point(qp, q, x_unc, active, cand)
    assert calls == [1] and qp.face[0] == active.nonzero()[0].tobytes()


def test_threads_solving_copies_of_one_qp_get_fresh_results():
    # eight threads on two cores swap often between five faces: a solve that
    # read one face's A with another face's factor would give another y
    rng = np.random.default_rng(2)
    P, _ = repeated_blocks(rng, [(6, 3), (4, 2)], False)
    qp = box_qp(rng, P)
    qs = [qp.q + 0.3 * rng.standard_normal(qp.dim) for _ in range(16)]
    # each start is its QP's minimizer, so each solve takes one step onto its face
    starts = [solve_box_qp(BoxQp(P, q, qp.lower, qp.upper), tol=1e-10).x_star for q in qs]
    ref = [solve_box_qp(BoxQp(P, q, qp.lower, qp.upper), tol=1e-10, x0=x0).x_star
           for q, x0 in zip(qs, starts)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(
                lambda i: solve_box_qp(qp, tol=1e-10, x0=starts[i % 16], q=qs[i % 16]),
                range(512), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(same_bits(sol.x_star, ref[i % 16]) for i, sol in enumerate(got))
    assert sum(sol.schur_reused for sol in got) > 0


def test_solves_on_one_qp_share_its_slot_and_qps_built_apart_do_not():
    rng = np.random.default_rng(1)
    P, _ = repeated_blocks(rng, [(4, 2)], False)
    qp = box_qp(rng, P)
    # at these scales of q each solve takes one Newton step through S_AA
    sols = [solve_box_qp(qp, tol=1e-10, q=s * qp.q) for s in (-0.3, 0.3, 0.3)]
    held, count = qp.face, qp.reused
    assert held is not None and count == sum(s.schur_reused for s in sols) > 0
    a = BoxQp(P, qp.q, qp.lower, qp.upper)
    b = BoxQp(P, qp.q, qp.lower, qp.upper)
    # QPs built apart share no block: each inverts its own, to the same bits
    assert a.inv is not b.inv and same_bits(a.inv, b.inv)
    assert (a.face, a.reused) == (b.face, b.reused) == (None, 0)  # a new QP's slot is empty
    # a solve fills its own QP's slot only
    solve_box_qp(a, tol=1e-10, q=0.3 * qp.q)
    assert a.face is not None and (b.face, b.reused) == (None, 0)
    assert qp.face is held and qp.reused == count
    # the alike agents of one engine share their kind's QP but for the slot
    x0 = [np.zeros(6)] * 5
    probs, maps, _ = build_local_problems(path_graph(5),
                                          default_agents(path_graph(5), SimConfig()), 10, x0)
    caches = AdmmEngine(probs, maps, 1.0, 1e-8).caches
    one, two = caches[1].qp, caches[2].qp
    assert one is not two
    for name in ("P", "inv", "plan", "box"):
        assert getattr(one, name) is getattr(two, name)
    solve_box_qp(one, tol=1e-8, q=np.random.default_rng(0).standard_normal(one.dim))
    assert one.face is not None
    assert all((c.qp.face, c.qp.reused) == (None, 0) for c in caches if c.qp is not one)
    solve_box_qp(one, tol=1e-8, q=np.random.default_rng(0).standard_normal(one.dim))
    assert one.reused > 0 and (two.face, two.reused) == (None, 0)


def reused(log):
    """Each step's `qp_schur_reused`."""
    return [s["qp_schur_reused"] for s in log.solver_stats]


@pytest.mark.parametrize("kind", ["admm", "dual_decomp"])
def test_loop_counts_every_reuse_once(monkeypatch, kind):
    g, agents = unlike_agents_on_a_random_graph()
    cfg = SimConfig(num_steps=4, horizon=6, admm_iterations=8, rng_seed=2, solver_kind=kind)
    seen = []
    solve = admm.solve_box_qp

    def spy(qp, **kwargs):
        sol = solve(qp, **kwargs)
        seen.append(sol.schur_reused)
        return sol

    monkeypatch.setattr(admm, "solve_box_qp", spy)
    log = run_closed_loop(g, cfg, agents=agents)
    assert log.aborted_at is None
    total = QpCounters.totals(log.solver_stats)["qp_schur_reused"]
    assert total == sum(reused(log)) == sum(seen)
    if kind == "admm":  # dual ascent moves every face between iterations: it reuses none here
        assert total > 0
    # the centralized solver's steps count no x-updates
    central = run_closed_loop(g, SimConfig(num_steps=2, solver_kind="centralized"))
    assert "qp_schur_reused" not in central.solver_stats[0]


def test_parallel_agents_equal_serial_bitwise():
    g, agents = unlike_agents_on_a_random_graph()
    cfg = SimConfig(num_steps=6, horizon=6, admm_iterations=12, rng_seed=5)
    serial = run_closed_loop(g, cfg, agents=agents)
    parallel = run_closed_loop(g, SimConfig(**{**cfg.__dict__, "parallel_agents": True}),
                               agents=agents)
    assert serial.states.tobytes() == parallel.states.tobytes()
    assert serial.inputs.tobytes() == parallel.inputs.tobytes()
    assert untimed(serial.solver_stats) == untimed(parallel.solver_stats)
    assert reused(serial) == reused(parallel) and sum(reused(serial)) > 0


def test_a_given_engine_forgets_its_faces():
    # a loop on a given engine counts the reuses that a new engine would
    g = path_graph(4)
    cfg = SimConfig(num_steps=3, horizon=6, admm_iterations=8, rng_seed=1)
    agents = default_agents(g, cfg)
    x0 = draw_initial_states(g, cfg, np.random.default_rng(1))
    ref = run_closed_loop(g, cfg, agents=agents, initial_states=x0)
    assert sum(reused(ref)) > 0
    engine = admm_engine(g, agents, cfg, x0)
    try:
        for _ in range(2):
            log = run_closed_loop(g, cfg, agents=agents, initial_states=x0,
                                  noise=ref.noise_draws, engine=engine)
            assert reused(log) == reused(ref)
    finally:
        engine.close()


def test_every_x_update_solves_on_its_agents_own_qp(monkeypatch):
    # no QP is built per solve: each call gets one of the engine's
    # QPs, with its linear term passed in
    g = path_graph(5)
    cfg = SimConfig(num_steps=3)
    agents = default_agents(g, cfg)
    x0 = draw_initial_states(g, cfg, np.random.default_rng(0))
    engine = admm_engine(g, agents, cfg, x0)
    qps = [cache.qp for cache in engine.caches]
    seen = []
    solve = admm.solve_box_qp

    def spy(qp, **kwargs):
        seen.append(next(i for i, own in enumerate(qps + [qp]) if own is qp))
        return solve(qp, **kwargs)

    monkeypatch.setattr(admm, "solve_box_qp", spy)
    try:
        log = run_closed_loop(g, cfg, agents=agents, initial_states=x0, engine=engine)
    finally:
        engine.close()
    assert log.aborted_at is None
    assert seen == list(range(5)) * (3 * cfg.admm_iterations)


@pytest.mark.parametrize("scenario", ["grid4x5", "random-unlike"])
def test_newton_gathers_read_the_class_inverses_through_their_transposes(scenario):
    # dpotri leaves each QP's inverse Fortran-ordered; S_AA is gathered from
    # its transpose, a view whose rows are contiguous and whose entries are the
    # inverse's own, the inverse being exactly symmetric
    if scenario == "grid4x5":
        g = grid(4, 5)
        agents = default_agents(g, SimConfig())
    else:
        g, agents = unlike_agents_on_a_random_graph()
    probs, maps, _ = build_local_problems(g, agents, 10, [np.zeros(6)] * g.num_agents)
    rng = np.random.default_rng(7)
    for cache in AdmmEngine(probs, maps, 1.0).caches:
        qp = cache.qp
        S, rows, s = qp.inv, qp.inv_rows, qp.shape[1]
        assert S.flags.f_contiguous and rows.flags.c_contiguous
        assert np.shares_memory(S, rows)
        for size in (1, 5, 15, 25):
            A = np.sort(rng.choice(qp.dim, size, replace=False))
            assert same_bits(_principal(rows, A, s), _principal(S, A, s))
