"""Set-up shares what alike agents have in common: one prediction per
distinct model, one H per distinct neighbourhood, and in the engine one
condensing map, one set of P blocks, one box and one QP per distinct
problem. Each agent's pieces are bit for bit the ones a build of that agent
alone gives."""

import numpy as np
import pytest
from scipy import sparse

from dmpc import InfoGraph, LtiAgent, build_local_problems, double_integrator_3d, path_graph
from dmpc import problem
from dmpc.admm import AdmmEngine
from dmpc.problem import _hessian, build_centralized_qp, condensed_qps, condensing_matrix
from dmpc.qp import BoxQp
from dmpc.verify import random_connected_graph


def grid(rows, cols):
    """rows x cols lattice with unit weights, vertices numbered row-major from 1."""
    right = {(v, v + 1): 1.0 for v in range(1, rows * cols + 1) if v % cols}
    down = {(v, v + cols): 1.0 for v in range(1, (rows - 1) * cols + 1)}
    return InfoGraph(rows * cols, {**right, **down})


def unlike_random(seed):
    """A random graph whose weights, masses and input bounds come from small
    sets, so some neighbourhoods are alike and some are not."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n_max=9)
    weights = {e: float(rng.choice([0.1, 0.2, 0.3, 0.7])) for e in g.weights}
    agents = [double_integrator_3d(0.1, float(rng.choice([1.0, 2.0])),
                                   float(rng.choice([0.5, 1.0]))) for _ in range(g.num_agents)]
    return InfoGraph(g.num_agents, weights), agents


def two_stars():
    """Stars 1-{2, 3, 4} and 5-{6, 7, 8} with the same weights by position,
    whose centres iterate their neighbours in different orders (2, 3, 4 and
    8, 6, 7), so their weights sum to different diagonal entries."""
    w = (0.1, 0.2, 0.6)
    return InfoGraph(8, {**{(1, 2 + k): w[k] for k in range(3)},
                         **{(5, 6 + k): w[k] for k in range(3)}})


def scenarios():
    light = double_integrator_3d(0.1, 1.0)
    yield "path5", path_graph(5), [light] * 5
    yield "two-stars", two_stars(), [light] * 8
    yield "grid4x5", grid(4, 5), [light] * 20
    for seed in range(6):
        yield f"random-unlike-{seed}", *unlike_random(seed)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_csr(a, b):
    return all(same_bits(x, y) for x, y in zip((a.data, a.indices, a.indptr),
                                              (b.data, b.indices, b.indptr)))


def built_alone(g, p, rho):
    """Agent p.owner's H, condensing map and QP as a build of that agent alone gives them."""
    pos = {j: k for k, j in enumerate(p.members)}
    i = p.owner
    H = _hessian(p.T, p.models, [(pos[i], pos[j], g.weight(i, j)) for j in g.neighbors(i)],
                 [pos[i]])
    H_rho = H + rho * sparse.eye_array(H.shape[0], format="csr")
    return H, condensing_matrix(p), condensed_qps([p], [H_rho])[1][0]


@pytest.mark.parametrize("rho", [0.0, 1.0])
@pytest.mark.parametrize("name, g, agents", list(scenarios()))
def test_shared_pieces_equal_each_agent_built_alone(name, g, agents, rho):
    x0 = [np.zeros(a.n) for a in agents]
    probs, maps, _ = build_local_problems(g, agents, 4, x0)
    engine = AdmmEngine(probs, maps, rho)
    Mt_all = engine.Mt  # agent i's block M_i' lies on rows u_slices[i], columns slices[i]
    for p, rows, cols, cache in zip(probs, engine.slices, engine.u_slices, engine.caches):
        H, M, qp = built_alone(g, p, rho)
        assert same_csr(p.H, H)
        Mt, idx = M.T.tocsr(), Mt_all.indices.dtype  # the engine's indices are 32-bit
        lo, hi = Mt_all.indptr[cols.start], Mt_all.indptr[cols.stop]
        assert same_bits(Mt_all.indptr[cols.start:cols.stop + 1] - lo, Mt.indptr.astype(idx))
        assert same_bits(Mt_all.indices[lo:hi] - int(rows.start), Mt.indices.astype(idx))
        assert same_bits(Mt_all.data[lo:hi], Mt.data)
        shared = cache.qp
        assert shared.shape == qp.shape and same_bits(shared.P, qp.P)
        assert same_bits(shared.lower, qp.lower) and same_bits(shared.upper, qp.upper)


def test_one_prediction_per_distinct_model(monkeypatch):
    light, heavy = double_integrator_3d(0.1, 1.0), double_integrator_3d(0.1, 2.0)
    low = double_integrator_3d(0.1, 1.0, u_max=0.5)  # light's A and B, its own box
    agents = [light, heavy, low, LtiAgent(light.A.copy(), light.B.copy())] * 5
    g = grid(4, 5)
    calls = []
    real = problem.prediction_matrices

    def spy(agent, T):
        calls.append(agent)
        return real(agent, T)

    monkeypatch.setattr(problem, "prediction_matrices", spy)
    probs, maps, _ = build_local_problems(g, agents, 5, [np.zeros(6)] * 20)
    AdmmEngine(probs, maps, 1.0)
    assert len(calls) == 2
    calls.clear()
    build_centralized_qp(g, agents, 5, [np.zeros(6)] * 20)
    assert len(calls) == 2


def test_condensed_qps_keeps_sharing_across_problems():
    # agents 1 and 3 differ only in their box: their kinds are two problems
    # with two QPs, but one bit-equal P block, kept as one array
    light, low = double_integrator_3d(0.1, 1.0), double_integrator_3d(0.1, 1.0, u_max=0.5)
    g = InfoGraph(4, {(1, 2): 1.0, (3, 4): 1.0})
    probs, maps, _ = build_local_problems(g, [light, light, low, low], 4, [np.zeros(6)] * 4)
    Mts, qps = condensed_qps(probs, [p.H for p in probs])
    assert len(Mts) == len(qps) == 4 and len({id(qp) for qp in qps}) == 4
    assert qps[0].P is qps[2].P and qps[1].P is qps[3].P and qps[0].P is not qps[1].P
    # a shared block is inverted once: its QPs hold one inverse array
    assert qps[0].inv is qps[2].inv and qps[1].inv is qps[3].inv and qps[0].inv is not qps[1].inv
    assert same_csr(Mts[0], Mts[2]) and same_csr(Mts[1], Mts[3])
    assert np.all(qps[0].upper == 1.0) and np.all(qps[2].upper == 0.5)
    # the engine groups them as the same four kinds, so keeps the sharing
    caches = AdmmEngine(probs, maps, 0.0).caches
    assert caches[0].qp.P is caches[2].qp.P and caches[1].qp.P is caches[3].qp.P


def hessian_ids(g, agents):
    probs, _, _ = build_local_problems(g, agents, 3, [np.zeros(6)] * g.num_agents)
    return [id(p.H) for p in probs]


def test_alike_neighbourhoods_share_one_hessian():
    base = double_integrator_3d(0.1, 1.0)
    ids = hessian_ids(path_graph(6), [base] * 6)
    # the four interior agents are alike; the ends hold their owner at positions 0 and 1
    assert ids[1] == ids[2] == ids[3] == ids[4]
    assert len(set(ids)) == 3
    assert len(set(hessian_ids(grid(4, 5), [base] * 20))) == 6
    # agent 6's input bound: agent 5's neighbourhood is its own
    ids = hessian_ids(path_graph(6), [base] * 5 + [double_integrator_3d(0.1, 1.0, u_max=0.5)])
    assert ids[1] == ids[2] == ids[3] != ids[4]
    # edge (4, 5) weighs 2: agents 4 and 5 differ from 2 and 3, and from each other
    g = InfoGraph(6, {(i, i + 1): 2.0 if i == 4 else 1.0 for i in range(1, 6)})
    ids = hessian_ids(g, [base] * 6)
    assert ids[1] == ids[2] and len({ids[1], ids[3], ids[4]}) == 3
    # the same edges by position, summed in another order: the leaves share, the centres do not
    ids = hessian_ids(two_stars(), [base] * 8)
    assert ids[1] == ids[5] and ids[0] != ids[4]


def test_alike_problems_share_one_box_in_the_engine():
    g = grid(4, 5)
    probs, maps, _ = build_local_problems(g, [double_integrator_3d(0.1, 1.0)] * 20, 4,
                                          [np.zeros(6)] * 20)
    caches = AdmmEngine(probs, maps, 1.0).caches
    assert len({id(c.qp.lower) for c in caches}) == 6
    assert len({id(c.qp) for c in caches}) == 20  # each agent keeps its own QP and face slot


def qp_builds(monkeypatch, g, agents):
    """The BoxQp builds of one engine on g and agents, and the engine."""
    builds, real = [], BoxQp.__init__

    def spy(self, *args, **kwargs):
        builds.append(self)
        real(self, *args, **kwargs)

    probs, maps, _ = build_local_problems(g, agents, 4, [np.zeros(a.n) for a in agents])
    monkeypatch.setattr(BoxQp, "__init__", spy)
    engine = AdmmEngine(probs, maps, 1.0)
    monkeypatch.undo()
    return builds, engine


@pytest.mark.parametrize("g, count", [(path_graph(5), 3), (grid(4, 5), 6), (grid(10, 10), 6)])
def test_one_qp_build_per_distinct_problem(monkeypatch, g, count):
    builds, engine = qp_builds(monkeypatch, g, [double_integrator_3d(0.1, 1.0)] * g.num_agents)
    assert len(builds) == count
    qps = [c.qp for c in engine.caches]
    assert len({id(qp) for qp in qps}) == g.num_agents  # each agent its own copy and slot
    assert {id(qp.plan) for qp in qps} == {id(qp.plan) for qp in builds}


@pytest.mark.parametrize("name, g, agents", list(scenarios()))
def test_qp_builds_equal_distinct_boxes(monkeypatch, name, g, agents):
    builds, engine = qp_builds(monkeypatch, g, agents)
    # one box (condensed_bounds) per distinct problem, as the engine groups them
    assert len(builds) == len({id(c.qp.lower) for c in engine.caches})
