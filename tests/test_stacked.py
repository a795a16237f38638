"""The stacked ADMM and dual-decomposition bookkeeping against per-agent and
per-pair reference loops, on random connected graphs with agents that are
not all alike."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from scipy import sparse

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dmpc import (AdmmEngine, InfoGraph, build_local_problems,  # noqa: E402
                  double_integrator_3d, prediction_matrices, run_dual_decomposition)
from dmpc.admm import (DD_QP_TOL, AdmmResult, _AgentCache, _matvec, dual_update,  # noqa: E402
                       residuals, z_update)
from dmpc.problem import (ZLayout, build_centralized_qp, condensing_matrix,  # noqa: E402
                          copy_counts)
from dmpc.simulation import _CentralizedCache, _shift_indices, _shift_warm_state  # noqa: E402
from kkt_oracle import dynamics_equalities, solve_equality_qp  # noqa: E402
from test_sharing import scenarios as alike_scenarios  # noqa: E402


@st.composite
def scenarios(draw, max_agents=6, max_horizon=4):
    n = draw(st.integers(2, max_agents))
    edges = {(draw(st.integers(1, i - 1)), i): 1.0 for i in range(2, n + 1)}  # spanning tree
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for pair in draw(st.lists(st.sampled_from(pairs), max_size=n, unique=True)):
        edges.setdefault(pair, 1.0)
    g = InfoGraph(n, {e: draw(st.floats(0.25, 4.0)) for e in edges})
    agents = [double_integrator_3d(0.1, draw(st.floats(0.5, 3.0)), draw(st.floats(0.2, 2.0)))
              for _ in range(n)]
    T = draw(st.integers(1, max_horizon))
    rho = draw(st.floats(0.1, 10.0))
    return g, agents, T, rho, draw(st.integers(0, 2**32 - 1))


def reference_z(xs, maps, z_dim):
    acc = np.zeros(z_dim)
    for m, x in zip(maps, xs):
        np.add.at(acc, m, x)
    return acc / copy_counts(maps, z_dim)


def agent_slices(probs):
    """Each agent's slice of a stacked vector of local vectors."""
    ends = np.cumsum([p.dim for p in probs])
    return [slice(e - p.dim, e) for p, e in zip(probs, ends)]


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_stacked_updates_equal_per_agent_loops(scenario):
    g, agents, T, rho, seed = scenario
    rng = np.random.default_rng(seed)
    x0 = [rng.uniform(-2.0, 2.0, a.n) for a in agents]
    probs, maps, z_dim = build_local_problems(g, agents, T, x0)
    assert g.is_connected()
    xs = [rng.standard_normal(p.dim) for p in probs]
    lams = [rng.standard_normal(p.dim) for p in probs]
    z_prev = rng.standard_normal(z_dim)
    counts = copy_counts(maps, z_dim)
    E = np.concatenate(maps)

    z = z_update(np.concatenate(xs), E, counts)
    assert z.tobytes() == reference_z(xs, maps, z_dim).tobytes()

    lam, diff = dual_update(np.concatenate(lams), np.concatenate(xs), z[E], rho)
    ref = [lam_i + rho * (x - z[m]) for lam_i, x, m in zip(lams, xs, maps)]
    assert lam.tobytes() == np.concatenate(ref).tobytes()

    rp, rd = residuals(diff, z - z_prev, counts, rho)
    rp_ref = np.sqrt(sum(float((x - z[m]) @ (x - z[m]))
                         for x, m in zip(xs, maps)))
    rd_ref = rho * np.sqrt(np.sum(counts * (z - z_prev) ** 2))
    assert rp == pytest.approx(rp_ref, rel=1e-12)
    assert rd == pytest.approx(rd_ref, rel=1e-12)


def member_block(p, pos):
    mdl = p.models[pos]
    start = p.member_offsets[pos]
    return slice(start, start + mdl.n * (p.T + 1) + mdl.m * p.T)


def consistency_pairs(probs):
    """(agent, its copy of a neighbor's block, neighbor, the neighbor's own
    block) for every copied neighbor, in agent and member order."""
    pairs = []
    for ip, p in enumerate(probs):
        for kp, j in enumerate(p.members):
            if j != p.owner:
                own = probs[j - 1]
                pairs.append((ip, member_block(p, kp), j - 1,
                              member_block(own, own.members.index(j))))
    return pairs


def recorded_dual_decomposition(probs, maps, alpha, max_iter):
    """run_dual_decomposition with every agent x-update's (k, v, x) recorded:
    k from the agent's QP solve, its linear term v and local vector x from
    its slices of the engine's stacked x-update of iteration k."""
    ks, updates = [], []
    solve, x_update = _AgentCache.solve, AdmmEngine.x_update

    def solve_spy(cache, q, k):
        ks.append(k)
        return solve(cache, q, k)

    def x_update_spy(engine, v, k, *args):
        x_cat = x_update(engine, v, k, *args)
        updates.append((v.copy(), x_cat))
        return x_cat

    with mock.patch.object(_AgentCache, "solve", solve_spy), \
            mock.patch.object(AdmmEngine, "x_update", x_update_spy):
        plans, history = run_dual_decomposition(AdmmEngine(probs, maps, 0.0, DD_QP_TOL),
                                                alpha, max_iter)
    agent = agent_slices(probs) * max_iter  # the i-th solve is agent i mod N's
    calls = [(k, updates[k - 1][0][s], updates[k - 1][1][s]) for k, s in zip(ks, agent)]
    return plans, history, calls


@settings(max_examples=25, deadline=None)
@given(scenarios(), st.floats(0.05, 2.0))
def test_dual_decomposition_terms_equal_per_pair_loops(scenario, step):
    g, agents, T, _, seed = scenario
    rng = np.random.default_rng(seed)
    x0 = [rng.uniform(-2.0, 2.0, a.n) for a in agents]
    probs, maps, _ = build_local_problems(g, agents, T, x0)
    plans, history, calls = recorded_dual_decomposition(probs, maps, lambda k: step / k, 3)
    N = len(probs)
    assert len(calls) == 3 * N
    pairs = consistency_pairs(probs)
    lams = [np.zeros(b.stop - b.start) for _, b, _, _ in pairs]
    for k in range(1, 4):
        rows = calls[(k - 1) * N:k * N]
        assert [row[0] for row in rows] == [k] * N
        lin = [np.zeros(p.dim) for p in probs]
        for (ip, b, jp, ob), lam in zip(pairs, lams):
            lin[ip][b] += lam
            lin[jp][ob] -= lam
        assert np.concatenate([row[1] for row in rows]).tobytes() == np.concatenate(lin).tobytes()
        xs = [row[2] for row in rows]
        dis2 = 0.0
        for idx, (ip, b, jp, ob) in enumerate(pairs):
            r = xs[ip][b] - xs[jp][ob]
            lams[idx] = lams[idx] + (step / k) * r
            dis2 += float(r @ r)
        assert history[k - 1][0] == k
        assert history[k - 1][1] == pytest.approx(np.sqrt(dis2), rel=1e-12)
    assert all(x.tobytes() == plan.tobytes() for x, plan in zip(xs, plans))


def reference_shift(v, layout):
    """v with each member's states and inputs moved one step earlier, block by block."""
    out = v.copy()
    T = layout.T
    for off, (n, m) in zip(layout.starts, layout.dims):
        u0 = off + (T + 1) * n
        for t in range(T):
            out[off + t * n:off + (t + 1) * n] = v[off + (t + 1) * n:off + (t + 2) * n]
        for t in range(T - 1):
            out[u0 + t * m:u0 + (t + 1) * m] = v[u0 + (t + 1) * m:u0 + (t + 2) * m]
    return out


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_warm_shift_gathers_equal_per_block_shift(scenario):
    g, agents, T, _, seed = scenario
    rng = np.random.default_rng(seed)
    x0 = [rng.uniform(-2.0, 2.0, a.n) for a in agents]
    probs, maps, z_dim = build_local_problems(g, agents, T, x0)
    E = np.concatenate(maps)
    z, lam = rng.standard_normal(z_dim), rng.standard_normal(E.size)
    result = AdmmResult(plans=[], z=z, lam=lam, history=[], converged=False, objective=0.0)
    state = _shift_warm_state(result, *_shift_indices(ZLayout(agents, T), E))
    assert state.z.tobytes() == reference_shift(z, ZLayout(agents, T)).tobytes()
    lams = np.split(lam, np.cumsum([p.dim for p in probs])[:-1])
    ref = [reference_shift(v, ZLayout(p.models, T)) for p, v in zip(probs, lams)]
    assert state.lam.tobytes() == np.concatenate(ref).tobytes()


@settings(max_examples=25, deadline=None)
@given(scenarios())
def test_dual_decomposition_first_iterate_is_the_local_optimum(scenario):
    # with alpha = 0 and no input box, each agent minimizes its own cost
    # under its dynamics: the equality-constrained KKT solution
    g, agents, T, _, seed = scenario
    agents = [replace(a, u_max=np.inf) for a in agents]
    rng = np.random.default_rng(seed)
    x0 = [rng.uniform(-2.0, 2.0, a.n) for a in agents]
    probs, maps, _ = build_local_problems(g, agents, T, x0)
    plans, _ = run_dual_decomposition(AdmmEngine(probs, maps, 0.0, DD_QP_TOL), lambda k: 0.0, 1)
    for p, x in zip(probs, plans):
        A_eq, b_eq = dynamics_equalities(p)
        x_ref = solve_equality_qp(p.H.toarray(), np.zeros(p.dim), A_eq, b_eq)
        assert np.max(np.abs(x - x_ref)) <= 1e-6


def stamped_hessian(p, edges, input_owners):
    """Dense H of `p` stamped one time step at a time: (w/2)||x_a(t) - x_b(t)||^2
    per edge (a, b, w) and u'u per input owner."""
    H = np.zeros((p.dim, p.dim))
    pos = {j: k for k, j in enumerate(p.members)}
    for a, b, w in edges:
        for t in range(p.T + 1):
            sa, sb = p.state_slice(pos[a], t), p.state_slice(pos[b], t)
            ia, ib = np.arange(sa.start, sa.stop), np.arange(sb.start, sb.stop)
            H[ia, ia] += w
            H[ib, ib] += w
            H[ia, ib] -= w
            H[ib, ia] -= w
    for j in input_owners:
        for t in range(p.T):
            su = p.input_slice(pos[j], t)
            iu = np.arange(su.start, su.stop)
            H[iu, iu] += 2.0
    return H


def close(got, ref, rel):
    return np.max(np.abs(got - ref), initial=0.0) <= rel * max(1.0, np.max(np.abs(ref)))


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_sparse_hessians_equal_dense_stamping(scenario):
    g, agents, T, _, seed = scenario
    rng = np.random.default_rng(seed)
    x0 = [rng.uniform(-2.0, 2.0, a.n) for a in agents]
    probs, maps, z_dim = build_local_problems(g, agents, T, x0)
    for p in probs:
        edges = [(p.owner, j, g.weight(p.owner, j)) for j in g.neighbors(p.owner)]
        assert sparse.issparse(p.H)
        assert np.array_equal(p.H.toarray(), stamped_hessian(p, edges, [p.owner]))
    block = build_centralized_qp(g, agents, T, x0)[0]
    edges = [(i, j, 2.0 * w) for (i, j), w in g.weights.items()]
    assert sparse.issparse(block.H)
    assert np.array_equal(block.H.toarray(), stamped_hessian(block, edges, block.members))
    # criterion 6, cost decomposition: sum_i E_i' H_i E_i = H
    total = np.zeros((z_dim, z_dim))
    for p, m in zip(probs, maps):
        total[np.ix_(m, m)] += p.H.toarray()
    assert close(total, block.H.toarray(), 1e-12)


@settings(max_examples=25, deadline=None)
@given(scenarios())
def test_condensed_terms_equal_dense_hessian_formulas(scenario):
    g, agents, T, rho, seed = scenario
    rng = np.random.default_rng(seed)
    x0 = [rng.uniform(-2.0, 2.0, a.n) for a in agents]
    probs, maps, _ = build_local_problems(g, agents, T, x0)
    engine = AdmmEngine(probs, maps, rho, qp_tol=1e-8)
    for p, s, cache, us in zip(probs, agent_slices(probs), engine.caches, engine.u_slices):
        H, M, c = p.H.toarray(), engine.M[s, us].toarray(), engine.c[s]
        P = M.T @ H @ M + rho * (M.T @ M)
        assert close(cache.qp.dense(), 0.5 * (P + P.T), 1e-12)
        assert close(engine.q_static[us], M.T @ (H @ c) + rho * (M.T @ c), 1e-12)
    central = _CentralizedCache(g, agents, T, x0, qp_tol=1e-8)
    H, M = central.block.H.toarray(), central.M.toarray()
    P = M.T @ H @ M
    assert close(central.qp.dense(), 0.5 * (P + P.T), 1e-12)
    # G maps the stacked measured states to the gradient M'H c, c = C x0; it
    # is kept sparse, in CSR with 32-bit indices, and densified only here
    C = np.zeros((central.block.dim, sum(a.n for a in agents)))
    col = 0
    for off, (Phi, _), a in zip(central.block.member_offsets, central.block.pred, agents):
        C[off:off + Phi.shape[0], col:col + a.n] = Phi
        col += a.n
    G = central.G
    assert isinstance(G, sparse.csr_array)
    assert G.indices.dtype == G.indptr.dtype == np.int32
    assert close(G.toarray(), M.T @ H @ C, 1e-12)


def dense_map(p):
    """Agent p's condensing map built dense, member by member: [Gam; I] on
    the member's state and input rows and its own input columns, Gam from
    `prediction_matrices`, not from the nonzeros a problem's `pred` keeps. The
    columns are component-major: input component 0 of every member over the
    horizon, member by member, then component 1, and so on."""
    M = np.zeros((p.dim, sum(mdl.m for mdl in p.models) * p.T))
    cols = [np.zeros((p.T, mdl.m), dtype=int) for mdl in p.models]
    col = 0
    for a in range(max(mdl.m for mdl in p.models)):
        for pos, mdl in enumerate(p.models):
            if a < mdl.m:
                cols[pos][:, a] = col + np.arange(p.T)
                col += p.T
    for pos, mdl in enumerate(p.models):
        Gam, c = prediction_matrices(mdl, p.T)[1], cols[pos].reshape(-1)
        s0, u0 = p.state_slice(pos, 0).start, p.input_slice(pos, 0).start
        M[s0:s0 + Gam.shape[0], c] = Gam
        M[u0 + np.arange(c.size), c] = 1.0
    return M


@settings(max_examples=25, deadline=None)
@given(scenarios())
def test_network_map_equals_per_agent_dense_maps(scenario):
    g, agents, T, rho, seed = scenario
    rng = np.random.default_rng(seed)
    x0 = [rng.uniform(-2.0, 2.0, a.n) for a in agents]
    probs, maps, z_dim = build_local_problems(g, agents, T, x0)
    engine = AdmmEngine(probs, maps, rho, qp_tol=1e-8)
    dense = [dense_map(p) for p in probs]
    # each agent's block is its dense map, and there is nothing outside the blocks
    ref = np.zeros(engine.M.shape)
    for s, us, D in zip(agent_slices(probs), engine.u_slices, dense):
        ref[s, us] = D
    assert np.array_equal(engine.M.toarray(), ref)

    # one x-update: q and x against the per-agent dense formulas
    x1 = [rng.uniform(-2.0, 2.0, a.n) for a in agents]
    engine.rebind_states(x1)
    v = rng.standard_normal(sum(p.dim for p in probs))
    solved = []
    solve = _AgentCache.solve

    def spy(cache, q, k):
        u = solve(cache, q, k)
        solved.append((q.copy(), u))
        return u

    with mock.patch.object(_AgentCache, "solve", spy):
        x_cat = engine.x_update(v, 1)
    for p, s, D, (q, u) in zip(probs, agent_slices(probs), dense, solved):
        c = np.zeros(p.dim)
        for pos, (j, (Phi, _)) in enumerate(zip(p.members, p.pred)):
            c[p.state_slice(pos, 0).start:p.input_slice(pos, 0).start] = Phi @ x1[j - 1]
        H = p.H.toarray()
        q_static = D.T @ (H @ c) + rho * (D.T @ c)
        assert close(q, q_static + D.T @ v[s], 1e-12)
        assert close(x_cat[s], D @ u + c, 1e-12)

    # serial and thread-parallel engines agree bitwise
    results = []
    for parallel in (False, True):
        engine = AdmmEngine(probs, maps, rho, qp_tol=1e-8, parallel=parallel)
        try:
            engine.rebind_states(x1)
            results.append(engine.run(4))
        finally:
            if engine.pool is not None:
                engine.pool.shutdown()
    serial, threaded = results
    assert serial.z.tobytes() == threaded.z.tobytes()
    assert serial.lam.tobytes() == threaded.lam.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(serial.plans, threaded.plans))


@settings(max_examples=25, deadline=None)
@given(scenarios())
def test_rebound_engine_equals_engine_built_at_the_new_states(scenario):
    g, agents, T, rho, seed = scenario
    rng = np.random.default_rng(seed)
    x0 = [rng.uniform(-2.0, 2.0, a.n) for a in agents]
    x1 = [rng.uniform(-2.0, 2.0, a.n) for a in agents]
    engines = [AdmmEngine(*build_local_problems(g, agents, T, x)[:2], rho, qp_tol=1e-8)
               for x in (x0, x1)]
    rebound, built = engines
    problems = list(rebound.problems)
    rebound.rebind_states(x1)
    # the problems are not copied: they keep the states they were built at
    assert all(a is b for a, b in zip(rebound.problems, problems))
    assert rebound.c.tobytes() == built.c.tobytes()
    assert rebound.q_static.tobytes() == built.q_static.tobytes()
    ra, rb = rebound.run(4), built.run(4)
    assert ra.z.tobytes() == rb.z.tobytes()
    assert ra.lam.tobytes() == rb.lam.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(ra.plans, rb.plans))
    assert ra.objective == rb.objective and ra.history == rb.history


def stacked_map(probs, rho):
    """The network map M, M' and H + rho I, each stacked agent by agent into
    a full-size CSR array of its own by scipy's block_diag."""
    M = sparse.block_diag([condensing_matrix(p) for p in probs], format="csr")
    H_rho = sparse.block_diag([p.H + rho * sparse.eye_array(p.dim, format="csr") for p in probs],
                              format="csr")
    return M, M.T.tocsr(), H_rho


@pytest.mark.parametrize("rho", [0.0, 1.0])
@pytest.mark.parametrize("name, g, agents", list(alike_scenarios()))
def test_one_copy_of_the_network_map_gives_the_stacked_bits(name, g, agents, rho):
    rng = np.random.default_rng(7)
    x0 = [rng.uniform(-2.0, 2.0, a.n) for a in agents]
    probs, maps, _ = build_local_problems(g, agents, 4, x0)
    engine = AdmmEngine(probs, maps, rho, qp_tol=DD_QP_TOL)
    Mt = engine.Mt
    # one CSR copy with 32-bit indices, M its CSC view
    assert Mt.format == "csr" and engine.M.format == "csc"
    for a, b in zip((engine.M.data, engine.M.indices, engine.M.indptr),
                    (Mt.data, Mt.indices, Mt.indptr)):
        assert np.shares_memory(a, b)
    assert Mt.indices.dtype == Mt.indptr.dtype == np.int32
    # one H + rho I per distinct problem: agents share it exactly when they share H
    assert len(engine.H_rho) == len(probs)
    for p, H in zip(probs, engine.H_rho):
        assert (H != p.H + rho * sparse.eye_array(p.dim)).nnz == 0
        assert all((H is H2) == (p.H is p2.H) for p2, H2 in zip(probs, engine.H_rho))

    M_ref, Mt_ref, H_ref = stacked_map(probs, rho)
    assert (engine.M != M_ref).nnz == 0
    q_static = Mt_ref @ (H_ref @ engine.c)
    assert engine.q_static.tobytes() == q_static.tobytes()
    v = rng.standard_normal(engine.E.size)
    solved = []
    solve = _AgentCache.solve

    def spy(cache, q, k):
        u = solve(cache, q, k)
        solved.append((q.copy(), u))
        return u

    with mock.patch.object(_AgentCache, "solve", spy):
        x_cat = engine.x_update(v, 1)
    q = q_static + Mt_ref @ v
    assert all(q[us].tobytes() == qi.tobytes() for us, (qi, _) in zip(engine.u_slices, solved))
    x_ref = M_ref @ np.concatenate([u for _, u in solved]) + engine.c
    assert x_cat.tobytes() == x_ref.tobytes()


def with_index_dtype(A, dtype):
    """A's arrays with its index arrays cast to `dtype`, in A's format."""
    return type(A)((A.data, A.indices.astype(dtype), A.indptr.astype(dtype)), shape=A.shape)


@pytest.mark.parametrize("rho", [0.0, 1.0])
@pytest.mark.parametrize("name, g, agents", list(alike_scenarios()))
def test_direct_kernel_products_equal_scipys(name, g, agents, rho):
    rng = np.random.default_rng(8)
    x0 = [rng.uniform(-2.0, 2.0, a.n) for a in agents]
    probs, maps, _ = build_local_problems(g, agents, 4, x0)
    engine = AdmmEngine(probs, maps, rho, qp_tol=DD_QP_TOL)
    for A in [engine.Mt, engine.M, *engine.H_rho]:
        for dtype in (np.int32, np.int64):
            B = with_index_dtype(A, dtype)
            assert B.format == A.format and B.indices.dtype == dtype
            x = rng.standard_normal(B.shape[1]) * 10.0 ** rng.integers(-3, 4, B.shape[1])
            assert _matvec(B, x).tobytes() == (B @ x).tobytes()


@pytest.mark.parametrize("name, g, agents", list(alike_scenarios()))
def test_problems_and_maps_are_built_with_32_bit_indices(name, g, agents):
    x0 = [np.zeros(a.n) for a in agents]
    probs, _, _ = build_local_problems(g, agents, 4, x0)
    block, M, _ = build_centralized_qp(g, agents, 4, x0)
    for A in [p.H for p in probs] + [condensing_matrix(probs[0]), block.H, M]:
        assert A.indices.dtype == A.indptr.dtype == np.int32
