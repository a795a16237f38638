"""The box QP's one layout: P kept as one block of a class lying in x's
order, else as one dense block, checked on permuted block-diagonal P
against oracles; one inverse shared across the agents of one network map,
and no dense n x n array in the centralized QP."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from test_blocks import kkt  # noqa: E402
from test_robustness import MIX  # noqa: E402

from dmpc import (BoxQp, InfoGraph, LtiAgent, build_local_problems,  # noqa: E402
                  double_integrator_3d, enumerate_box_qp, path_graph, solve_box_qp)
from dmpc.admm import AdmmEngine  # noqa: E402
from dmpc.problem import build_centralized_qp  # noqa: E402
from dmpc.qp import diagonal_blocks  # noqa: E402


def repeated_blocks(rng, kinds, singular, ordered=False):
    """A block-diagonal P on randomly permuted indices, or with `ordered` on
    blocks lying one after another in x's order: per (size, count) in
    `kinds` one random SPD block repeated `count` times, plus, if
    `singular`, a repeated block of rank one. Returns P and its distinct
    blocks."""
    bases = []
    for s, count in kinds:
        G = rng.standard_normal((s, s))
        bases.append((G @ G.T + 0.5 * np.eye(s), count))
    if singular:
        g = rng.standard_normal((2, 1))
        bases.append((g @ g.T, 2))
    n = sum(b.shape[0] * count for b, count in bases)
    perm = np.arange(n) if ordered else rng.permutation(n)
    P = np.zeros((n, n))
    start = 0
    for b, count in bases:
        for _ in range(count):
            idx = np.sort(perm[start:start + b.shape[0]])
            P[np.ix_(idx, idx)] = b
            start += b.shape[0]
    return P, [b for b, _ in bases]


def box_qp(rng, P):
    n = P.shape[0]
    lo = -rng.uniform(0.1, 1.5, n)
    return BoxQp(P, 2.0 * rng.standard_normal(n), lo, lo + rng.uniform(0.2, 3.0, n))


def check_classes(qp, P, distinct, singular):
    """One class per distinct block; the QP keeps one class in x's order as
    its block, any other P as one dense block; P and its inverse rebuilt
    from the QP."""
    classes, n = diagonal_blocks(P), P.shape[0]
    assert len(classes) == len(distinct)
    (idx, _), *rest = classes
    in_order = not rest and np.array_equal(idx.ravel(), np.arange(n))
    assert qp.shape == (idx.shape if in_order else (1, n))
    assert np.array_equal(qp.dense(), P)
    assert (qp.inv is None) == singular
    if not singular:
        assert np.allclose(qp.dense(inverse=True) @ P, np.eye(n), atol=1e-9)


# (size, count) per distinct block, and whether a singular block joins them: n <= 8
kinds = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)), min_size=1, max_size=2)
small = st.tuples(kinds, st.booleans()).filter(
    lambda c: sum(s * k for s, k in c[0]) + 4 * c[1] <= 8)


@settings(max_examples=40, deadline=None)
@given(small, st.integers(0, 2**32 - 1))
def test_permuted_repeated_blocks_match_enumeration(case, seed):
    (kinds, singular), rng = case, np.random.default_rng(seed)
    P, distinct = repeated_blocks(rng, kinds, singular)
    qp = box_qp(rng, P)
    check_classes(qp, P, distinct, singular)
    sol = solve_box_qp(qp, tol=1e-11, max_iter=50000)
    x_ref, f_ref = enumerate_box_qp(qp)
    assert sol.status == "optimal"
    assert abs(sol.objective - f_ref) <= 1e-9 * max(1.0, abs(f_ref))
    assert kkt(qp, sol.x_star) <= 1e-11
    if not singular:  # a singular P may have more than one minimizer
        assert np.max(np.abs(sol.x_star - x_ref)) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([3, 7]), st.integers(1, 4)), min_size=2, max_size=3),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_larger_permuted_class_qps_reach_tol(kinds, singular, seed):
    rng = np.random.default_rng(seed)
    P, distinct = repeated_blocks(rng, kinds, singular)
    qp = box_qp(rng, P)
    check_classes(qp, P, distinct, singular)
    tol = 1e-10
    for x0 in (None, rng.uniform(qp.lower - 1.0, qp.upper + 1.0)):
        sol = solve_box_qp(qp, tol=tol, max_iter=50000, x0=x0)
        assert sol.status == "optimal" and kkt(qp, sol.x_star) <= tol
        assert np.all(sol.x_star >= qp.lower) and np.all(sol.x_star <= qp.upper)


def network(agents):
    x0 = [np.zeros(a.n) for a in agents]
    probs, maps, _ = build_local_problems(path_graph(len(agents)), agents, 10, x0)
    return AdmmEngine(probs, maps, 1.0, 1e-8).caches


def test_identical_agents_share_one_inverse():
    # path 5: both ends differ, the three middle agents are alike; every
    # agent's P splits into three identical axis blocks, one slab
    caches = network([double_integrator_3d(0.1, 1.0)] * 5)
    assert [c.qp.shape for c in caches] == [(3, 20)] + [(3, 30)] * 3 + [(3, 20)]
    middle = [c.qp.inv for c in caches[1:4]]
    assert middle[0] is middle[1] is middle[2]
    assert len({id(c.qp.inv) for c in caches}) == 3


def test_unlike_agents_form_classes_of_their_own():
    base = double_integrator_3d(0.1, 1.0, u_max=1.0)
    alike = network([base] * 4)
    assert alike[1].qp.inv is alike[2].qp.inv
    # agent 4 heavier: agent 3, its neighbour, no longer shares agent 2's block
    heavy = network([base] * 3 + [double_integrator_3d(0.1, 2.0, u_max=1.0)])
    assert heavy[1].qp.inv is not heavy[2].qp.inv
    assert len({id(c.qp.inv) for c in heavy}) == 4
    # a smaller input bound leaves P, and so its inverse, bit for bit as it is; agent 3's
    # problem is one of its own by its box, and its QP with it
    low = network([base] * 3 + [double_integrator_3d(0.1, 1.0, u_max=0.3)])
    assert low[1].qp.inv.tobytes() == low[2].qp.inv.tobytes()
    assert low[1].qp.box is not low[2].qp.box
    assert np.array_equal(np.unique(low[1].qp.upper), [1.0])
    assert np.array_equal(np.unique(low[2].qp.upper), [0.3, 1.0])
    # inputs acting across axes join the axes of agents 3 and 4 into one block
    mixed = network([base] * 3 + [LtiAgent(base.A, base.B @ MIX, u_max=1.0)])
    assert [c.qp.shape for c in mixed] == [(3, 20), (3, 30), (1, 90), (1, 60)]
    assert len({id(c.qp.inv) for c in mixed}) == 4


def array_bytes(obj, seen):
    """Bytes of the distinct array buffers reachable through tuples and
    attributes (an instance's `__dict__` and its classes' `__slots__`), and
    the largest array's entry count."""
    if isinstance(obj, np.ndarray):
        base = obj if obj.base is None else obj.base
        if id(base) in seen:
            return 0, obj.size
        seen.add(id(base))
        return base.nbytes, base.size
    if isinstance(obj, (tuple, list)):
        items = obj
    else:
        slots = [s for c in type(obj).__mro__ for s in getattr(c, "__slots__", ())]
        items = [*getattr(obj, "__dict__", {}).values(), *(getattr(obj, s, None) for s in slots)]
    parts = [array_bytes(o, seen) for o in items]
    return sum(b for b, _ in parts), max((s for _, s in parts), default=0)


def test_centralized_qp_of_a_10x10_grid_holds_no_dense_p():
    right = {(v, v + 1): 1.0 for v in range(1, 101) if v % 10}
    g = InfoGraph(100, {**right, **{(v, v + 10): 1.0 for v in range(1, 91)}})
    agents = [double_integrator_3d(0.1, 1.0)] * g.num_agents
    block, M, qp = build_centralized_qp(g, agents, 10, [np.zeros(6)] * g.num_agents)
    n = M.shape[1]
    assert n == 3000 and qp.shape == (3, 1000)
    nbytes, largest = array_bytes(qp, set())
    assert nbytes > 0  # the walk reached the QP's arrays
    assert largest < n * n  # dense P, its inverse or an n x n pattern took 72 MB each
    assert nbytes <= 50e6
    # P's one (1000, 1000) block and its inverse, 8 MB each; q, bounds and box, 24 kB each;
    # the starts of its three blocks and the end, 32 B, for Newton faces solved per block
    assert qp.pieces.tolist() == [0, 1000, 2000, 3000]
    assert (nbytes, largest) == (16_144_032, 1_000_000)
