"""The stacked ADMM bookkeeping against per-agent reference loops, on random
connected graphs with agents that are not all alike."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dmpc import InfoGraph, build_local_problems, double_integrator_3d  # noqa: E402
from dmpc.admm import dual_update, residuals, z_update  # noqa: E402
from dmpc.problem import copy_counts  # noqa: E402


@st.composite
def scenarios(draw):
    n = draw(st.integers(2, 6))
    edges = {(draw(st.integers(1, i - 1)), i): 1.0 for i in range(2, n + 1)}  # spanning tree
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for pair in draw(st.lists(st.sampled_from(pairs), max_size=n, unique=True)):
        edges.setdefault(pair, 1.0)
    g = InfoGraph(n, {e: draw(st.floats(0.25, 4.0)) for e in edges})
    agents = [double_integrator_3d(0.1, draw(st.floats(0.5, 3.0)), draw(st.floats(0.2, 2.0)))
              for _ in range(n)]
    T = draw(st.integers(1, 4))
    rho = draw(st.floats(0.1, 10.0))
    return g, agents, T, rho, draw(st.integers(0, 2**32 - 1))


def reference_z(xs, maps, z_dim):
    acc = np.zeros(z_dim)
    for m, x in zip(maps, xs):
        np.add.at(acc, m.global_idx, x)
    return acc / copy_counts(maps, z_dim)


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
    E = np.concatenate([m.global_idx for m in maps])

    z = z_update(np.concatenate(xs), E, counts)
    assert z.tobytes() == reference_z(xs, maps, z_dim).tobytes()

    lam, diff = dual_update(np.concatenate(lams), np.concatenate(xs), z[E], rho)
    ref = [lam_i + rho * (x - z[m.global_idx]) for lam_i, x, m in zip(lams, xs, maps)]
    assert lam.tobytes() == np.concatenate(ref).tobytes()

    rp, rd = residuals(diff, z - z_prev, counts, rho)
    rp_ref = np.sqrt(sum(float((x - z[m.global_idx]) @ (x - z[m.global_idx]))
                         for x, m in zip(xs, maps)))
    rd_ref = rho * np.sqrt(np.sum(counts * (z - z_prev) ** 2))
    assert rp == pytest.approx(rp_ref, rel=1e-12)
    assert rd == pytest.approx(rd_ref, rel=1e-12)
