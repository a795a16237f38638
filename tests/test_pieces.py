"""Newton faces solved one piece of A at a time: a QP of k blocks in x's
order (`BoxQp.shape`) of at least `PIECEWISE_MIN` entries each cuts A into
one piece per block that A meets, holds one factor per piece in its face
slot, and gives the one-piece solve's Newton points to rounding; a QP of
smaller blocks solves all of A as one piece."""

from unittest import mock

import numpy as np
import pytest
from scipy.linalg.lapack import dposv, dpotrs

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from test_classes import box_qp, repeated_blocks  # noqa: E402
from test_face import same_bits  # noqa: E402

from dmpc import BoxQp, SimConfig, path_graph, run_closed_loop, solve_box_qp  # noqa: E402
from dmpc import qp as qp_module  # noqa: E402
from dmpc.qp import PIECEWISE_MIN, _newton_point  # noqa: E402
from dmpc.simulation import _CentralizedCache, default_agents, draw_initial_states  # noqa: E402


def built(P, like, piecewise):
    """A QP on P with `like`'s q and box, cutting A at its blocks or not."""
    with mock.patch.object(qp_module, "PIECEWISE_MIN", 1 if piecewise else np.inf):
        return BoxQp(P, like.q, like.lower, like.upper)


def newton_inputs(rng, qp, held):
    """q and x_unc, a random active set of `held` entries and a random
    candidate."""
    active = np.zeros(qp.dim, dtype=bool)
    active[rng.choice(qp.dim, held, replace=False)] = True
    return qp.q, -(qp.dense(inverse=True) @ qp.q), active, rng.uniform(-1.0, 1.0, qp.dim)


def check_pieces(qp, active):
    """The face slot holds one (start, stop, factor) per block of P that the
    active set meets (one spanning A if the QP has no `pieces`), the pieces
    tiling A in order."""
    A = active.nonzero()[0]
    key, pieces = qp.face
    assert key == A.tobytes()
    starts = [0, qp.dim] if qp.pieces is None else qp.pieces
    met = [i for i in range(len(starts) - 1) if ((A >= starts[i]) & (A < starts[i + 1])).any()]
    assert len(pieces) == len(met)
    assert [a for a, _, _ in pieces] == [0] + [b for _, b, _ in pieces[:-1]]
    assert pieces[-1][1] == A.size
    for (a, b, c), i in zip(pieces, met):
        assert c.shape == (b - a, b - a) and starts[i] <= A[a] and A[b - 1] < starts[i + 1]


def lapack_calls(monkeypatch, seen=lambda a, b: None):
    """The names of the dposv and dpotrs calls `_newton_point` makes, in
    order; `seen` gets each call's matrix and right-hand side."""
    calls = []
    for name, fn in (("dposv", dposv), ("dpotrs", dpotrs)):
        def spy(a, b, name=name, fn=fn):
            calls.append(name)
            seen(a, b)
            return fn(a, b)
        monkeypatch.setattr(qp_module, name, spy)
    return calls


def newton_faces(monkeypatch):
    """The pieces of each face that a Newton point of the solves that follow
    solves through S_AA, each checked by `check_pieces`."""
    faces, newton = [], qp_module._newton_point

    def spy(qp, q, x_unc, active, cand):
        x = newton(qp, q, x_unc, active, cand)
        if qp.face is not None and qp.face[0] == active.nonzero()[0].tobytes():
            check_pieces(qp, active)
            faces.append(qp.face[1])
        return x

    monkeypatch.setattr(qp_module, "_newton_point", spy)
    return faces


# (size, count) of one class of blocks in x's order, the one layout with pieces: at least
# two blocks, so that A can meet several
kinds = st.tuples(st.integers(1, 6), st.integers(2, 4)).map(lambda k: [k])


@settings(max_examples=60, deadline=None)
@given(kinds, st.integers(0, 2**32 - 1))
def test_per_block_newton_points_equal_the_dense_solve(kinds, seed):
    rng = np.random.default_rng(seed)
    P, _ = repeated_blocks(rng, kinds, False, ordered=True)
    dense = box_qp(rng, P)
    pieces = built(P, dense, True)
    assert dense.pieces is None and len(pieces.pieces) == kinds[0][1] + 1 > 2
    q, x_unc, active, cand = newton_inputs(rng, dense, rng.integers(1, dense.dim // 2 + 1))
    x = _newton_point(pieces, q, x_unc, active, cand)
    ref = _newton_point(dense, q, x_unc, active, cand)
    assert np.max(np.abs(x - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))
    check_pieces(pieces, active)
    check_pieces(dense, active)


@pytest.mark.parametrize("kinds", [[(120, 3)], [(100, 4)]])
def test_large_blocks_take_the_per_block_path_and_match_the_dense_solve(kinds):
    # at the module's own threshold: three axis blocks, and four blocks of exactly the threshold
    rng = np.random.default_rng(7)
    P, _ = repeated_blocks(rng, kinds, False, ordered=True)
    qp = box_qp(rng, P)
    (s, k), = kinds
    assert qp.shape == (k, s) and len(qp.pieces) == k + 1 and s >= PIECEWISE_MIN
    dense = built(P, qp, False)
    for _ in range(3):
        q, x_unc, active, cand = newton_inputs(rng, qp, rng.integers(1, qp.dim // 2 + 1))
        x = _newton_point(qp, q, x_unc, active, cand)
        ref = _newton_point(dense, q, x_unc, active, cand)
        assert np.max(np.abs(x - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))
        check_pieces(qp, active)
    sol, ref = solve_box_qp(qp, tol=1e-9), solve_box_qp(dense, tol=1e-9)
    assert sol.status == ref.status == "optimal"
    assert np.max(np.abs(sol.x_star - ref.x_star)) <= 1e-9


def test_a_repeated_face_is_solved_on_the_held_pieces(monkeypatch):
    rng = np.random.default_rng(4)
    P, _ = repeated_blocks(rng, [(5, 3)], False, ordered=True)
    qp = built(P, box_qp(rng, P), True)
    q, x_unc, active, cand = newton_inputs(rng, qp, qp.dim // 2)
    calls = lapack_calls(monkeypatch)
    first = _newton_point(qp, q, x_unc, active, cand)
    held = qp.face
    met = np.unique(active.nonzero()[0] // 5).size  # the blocks of 5 that A meets
    assert met > 1 and calls == ["dposv"] * met and qp.reused == 0
    check_pieces(qp, active)
    calls.clear()
    again = _newton_point(qp, q, x_unc, active, cand)
    assert calls == ["dpotrs"] * met and qp.reused == 1 and qp.face is held
    assert same_bits(again, first)
    # a held factor gives the bits a fresh QP's dposv gives, for any candidate
    cand = rng.uniform(-1.0, 1.0, qp.dim)
    x = _newton_point(qp, q, x_unc, active, cand)
    assert qp.reused == 2 and same_bits(x, _newton_point(built(P, qp, True), q, x_unc, active,
                                                         cand))
    # another face replaces the held one
    active[active.nonzero()[0][0]] = False
    _newton_point(qp, q, x_unc, active, cand)
    assert qp.reused == 2 and qp.face[0] == active.nonzero()[0].tobytes()


def test_small_block_qps_keep_one_dense_factor(monkeypatch):
    rng = np.random.default_rng(1)
    P, _ = repeated_blocks(rng, [(4, 2)], False, ordered=True)
    qp = box_qp(rng, P)
    assert qp.shape == (2, 4) and qp.pieces is None
    q, x_unc, active, cand = newton_inputs(rng, qp, 3)  # A meets both blocks
    sizes = []
    calls = lapack_calls(monkeypatch, lambda a, b: sizes.append(b.size))
    first = _newton_point(qp, q, x_unc, active, cand)
    assert calls == ["dposv"] and sizes == [3] and qp.reused == 0  # one piece spanning A
    check_pieces(qp, active)
    again = _newton_point(qp, q, x_unc, active, cand)
    assert calls == ["dposv", "dpotrs"] and qp.reused == 1 and same_bits(again, first)
    sols = [solve_box_qp(qp, tol=1e-10, q=s * qp.q) for s in (-0.3, 0.3, 0.3)]
    assert len(qp.face[1]) == 1 and qp.reused == 1 + sum(s.schur_reused for s in sols) > 1
    # the stock centralized QP: three axis blocks of 50 entries on path 5
    faces = newton_faces(monkeypatch)
    log = run_closed_loop(path_graph(5), SimConfig(num_steps=20, solver_kind="centralized"))
    assert log.aborted_at is None and faces and {len(pieces) for pieces in faces} == {1}


def test_a_centralized_loop_on_large_blocks_matches_the_dense_loop_to_rounding(monkeypatch):
    # path 12 at horizon 10: three axis blocks of 120 inputs each
    g, cfg = path_graph(12), SimConfig(num_steps=6, solver_kind="centralized", rng_seed=2)
    agents = default_agents(g, cfg)
    x0 = draw_initial_states(g, cfg, np.random.default_rng(2))
    central = _CentralizedCache(g, agents, cfg.horizon, x0, cfg.qp_tol)
    assert central.qp.shape == (3, 120) and central.qp.pieces.tolist() == [0, 120, 240, 360]
    faces = newton_faces(monkeypatch)
    log = run_closed_loop(g, cfg)
    # the saturated first steps take Newton points, some on faces that meet several blocks
    assert max(len(pieces) for pieces in faces) > 1
    with mock.patch.object(qp_module, "PIECEWISE_MIN", np.inf):
        faces.clear()
        ref = run_closed_loop(g, cfg)
    assert faces and {len(pieces) for pieces in faces} == {1}
    assert np.max(np.abs(log.states - ref.states)) <= 1e-12
    assert np.max(np.abs(log.inputs - ref.inputs)) <= 1e-12
    assert abs(log.total_cost - ref.total_cost) <= 1e-12 * ref.total_cost
