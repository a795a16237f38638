import re

import numpy as np
import pytest

from dmpc import (LtiAgent, SimConfig, double_integrator_3d, path_graph, prediction_matrices,
                  rollout, run_closed_loop, step)


def test_double_integrator_structure():
    a = double_integrator_3d(0.1, 1.0)
    assert a.n == 6 and a.m == 3
    assert np.allclose(a.A[:2, :2], [[1.0, 0.1], [0.0, 1.0]])
    assert np.allclose(a.B[:2, 0], [0.0, 0.1])
    # axes are decoupled
    assert np.count_nonzero(a.A) == 9
    assert np.count_nonzero(a.B) == 3


def test_double_integrator_mass_scales_input():
    a = double_integrator_3d(1.0, 2.0)
    assert np.allclose(a.B[:2, 0], [0.0, 0.5])


def test_double_integrator_eigenvalues_all_one():
    a = double_integrator_3d(0.37, 1.7)
    assert np.allclose(np.linalg.eigvals(a.A), 1.0)


def test_double_integrator_invalid_args():
    with pytest.raises(ValueError):
        double_integrator_3d(0.0, 1.0)
    with pytest.raises(ValueError):
        double_integrator_3d(0.1, -1.0)


@pytest.mark.parametrize("ts, mass, why", [
    (np.inf, 1.0, "ts"), (np.nan, 1.0, "ts"), (0.0, 1.0, "ts"),
    (0.1, np.inf, "mass"), (0.1, np.nan, "mass"), (0.1, -1.0, "mass"),
])
def test_double_integrator_needs_a_positive_finite_ts_and_mass(ts, mass, why):
    # the config parser's messages
    value = ts if why == "ts" else mass
    with pytest.raises(ValueError, match=f"^{why} must be positive and finite, got {value}$"):
        double_integrator_3d(ts, mass)


def test_closed_loop_refuses_an_infinite_mass():
    # B would be zero: every input 0, the agents unable to move
    with pytest.raises(ValueError, match="^mass must be positive and finite, got inf$"):
        run_closed_loop(path_graph(3), SimConfig(num_steps=3, mass=np.inf))


def test_step_zero_maps_to_zero():
    a = double_integrator_3d(0.1, 1.0)
    assert np.allclose(step(a, np.zeros(6), np.zeros(3), np.zeros(3)), 0.0)


def test_step_one_euler_step():
    a = double_integrator_3d(0.1, 1.0)
    x1 = step(a, np.zeros(6), np.array([1.0, 0.0, 0.0]))
    assert x1[1] == pytest.approx(0.1)
    assert np.allclose(x1[[0, 2, 3, 4, 5]], 0.0)


def test_step_position_persists():
    a = double_integrator_3d(0.1, 1.0)
    e1 = np.zeros(6)
    e1[0] = 1.0
    assert np.allclose(step(a, e1, np.zeros(3)), e1)


def test_step_noise_channel_has_unit_mass():
    a = double_integrator_3d(0.1, 4.0)
    x1 = step(a, np.zeros(6), np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert x1[1] == pytest.approx(0.1)  # T_s * w, independent of mass


def test_step_dimension_mismatch():
    a = double_integrator_3d(0.1, 1.0)
    with pytest.raises(ValueError):
        step(a, np.zeros(5), np.zeros(3))
    with pytest.raises(ValueError):
        step(a, np.zeros(6), np.zeros(2))
    with pytest.raises(ValueError):
        step(a, np.zeros(6), np.zeros(3), np.zeros(2))


def test_step_on_rows_equals_one_call_per_row():
    heavy = double_integrator_3d(0.1, 2.0)
    a = LtiAgent(A=heavy.A, B=heavy.B, noise_input=np.arange(18.0).reshape(6, 3) / 10.0)
    rng = np.random.default_rng(5)
    x, u, w = rng.standard_normal((4, 6)), rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    rows = step(a, x, u, w)
    assert rows.shape == (4, 6)
    for k in range(4):
        assert np.array_equal(rows[k], step(a, x[k], u[k], w[k]))
        assert np.array_equal(step(a, x, u)[k], step(a, x[k], u[k]))
    assert step(a, np.zeros((0, 6)), np.zeros((0, 3)), np.zeros((0, 3))).shape == (0, 6)


@pytest.mark.parametrize("x, u, w, what", [
    ((3, 6), (2, 3), None, re.escape("input has shape (2, 3), expected (3, 3)")),
    ((3, 6), (3,), None, re.escape("input has shape (3,), expected (3, 3)")),
    ((3, 6), (3, 3), (2, 3), re.escape("noise has shape (2, 3), expected (3, 3)")),
    ((6,), (1, 3), None, re.escape("input has shape (1, 3), expected (3,)")),
    ((6,), (3,), (1, 3), re.escape("noise has shape (1, 3), expected (3,)")),
    ((2, 3, 6), (2, 3, 3), None, "state has shape"),
    ((), (3,), None, "state has shape"),
])
def test_step_needs_as_many_input_and_noise_rows_as_state_rows(x, u, w, what):
    a = double_integrator_3d(0.1, 1.0)
    with pytest.raises(ValueError, match=what):
        step(a, np.zeros(x), np.zeros(u), None if w is None else np.zeros(w))


def test_step_is_linear():
    a = double_integrator_3d(0.1, 1.0)
    rng = np.random.default_rng(0)
    x1, x2 = rng.standard_normal(6), rng.standard_normal(6)
    u1, u2 = rng.standard_normal(3), rng.standard_normal(3)
    lhs = step(a, x1 + x2, u1 + u2)
    rhs = step(a, x1, u1) + step(a, x2, u2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_rollout_empty_and_zero():
    a = double_integrator_3d(0.1, 1.0)
    x0 = np.arange(6.0)
    assert np.array_equal(rollout(a, x0, []), x0[None, :])
    assert np.allclose(rollout(a, np.zeros(6), np.zeros((4, 3))), 0.0)


@pytest.mark.parametrize("x0, u_seq, what", [
    (1.0, np.zeros((2, 3)), "x0 has shape (), expected (6,)"),
    ([2.0], [], "x0 has shape (1,), expected (6,)"),
    (np.zeros(6), np.zeros(3), "u_seq has shape (3,), expected (T, 3)"),
    (np.zeros(6), np.zeros((2, 2)), "u_seq has shape (2, 2), expected (T, 3)"),
    (np.zeros(6), np.zeros((2, 1, 3)), "u_seq has shape (2, 1, 3), expected (T, 3)"),
])
def test_rollout_refuses_a_misshaped_x0_or_input_sequence(x0, u_seq, what):
    # the first two once broadcast x0 to every state entry; the third failed
    # inside the plant step on an input of shape ()
    with pytest.raises(ValueError, match=f"^{re.escape(what)}$"):
        rollout(double_integrator_3d(0.1, 1.0), x0, u_seq)


def test_rollout_matches_repeated_steps():
    a = double_integrator_3d(0.1, 1.0)
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(6)
    useq = rng.standard_normal((5, 3))
    states = rollout(a, x0, useq)
    x = x0
    for t in range(5):
        x = step(a, x, useq[t])
        assert np.array_equal(states[t + 1], x)
    # state-equation residual
    for t in range(5):
        res = states[t + 1] - a.A @ states[t] - a.B @ useq[t]
        assert np.max(np.abs(res)) <= 1e-12


def test_prediction_matrices_match_rollout():
    a = double_integrator_3d(0.1, 2.0)
    rng = np.random.default_rng(4)
    T = 6
    Phi, Gam = prediction_matrices(a, T)
    x0 = rng.standard_normal(6)
    useq = rng.standard_normal((T, 3))
    stacked = Phi @ x0 + Gam @ useq.ravel()
    assert np.max(np.abs(stacked.reshape(T + 1, 6) - rollout(a, x0, useq))) <= 1e-12


def test_lti_agent_validation():
    with pytest.raises(ValueError):
        LtiAgent(A=np.zeros((2, 3)), B=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        LtiAgent(A=np.eye(2), B=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        LtiAgent(A=np.eye(2), B=np.zeros((2, 1)), u_max=0.0)
    unconstrained = LtiAgent(A=np.eye(2), B=np.ones((2, 1)), u_max=np.inf)
    assert unconstrained.u_max == np.inf


@pytest.mark.parametrize("field, kwargs", [
    ("A", dict(A=[[1.0, np.nan], [0.0, 1.0]], B=[[0.0], [1.0]])),
    ("B", dict(A=np.eye(2), B=[[0.0], [np.inf]])),
    ("noise_input", dict(A=np.eye(2), B=[[0.0], [1.0]], noise_input=[[0.0], [np.inf]])),
])
def test_lti_agent_rejects_a_non_finite_matrix_by_name(field, kwargs):
    with pytest.raises(ValueError, match=f"^{field} must hold only finite values"):
        LtiAgent(**kwargs)
