"""Discrete-time LTI agent models and horizon prediction matrices."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LtiAgent:
    """Agent model x(t+1) = A x(t) + B u(t), inputs bounded in infinity norm.

    `noise_input` is the channel through which process noise enters the
    plant; it defaults to B when not given.
    """

    A: np.ndarray
    B: np.ndarray
    u_max: float = np.inf
    noise_input: np.ndarray = None

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        W = None if self.noise_input is None else np.asarray(self.noise_input, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got {A.shape}")
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise ValueError(f"B shape {B.shape} inconsistent with A {A.shape}")
        if not self.u_max > 0:
            raise ValueError(f"u_max must be positive (or +inf), got {self.u_max}")
        if W is not None and W.shape != B.shape:
            raise ValueError("noise_input must match B in shape")
        for name, M in (("A", A), ("B", B), ("noise_input", W)):
            if M is not None and not np.isfinite(M).all():
                raise ValueError(f"{name} must hold only finite values")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "noise_input", W)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def noise_channel(self):
        """The matrix through which noise enters: `noise_input`, else B."""
        return self.B if self.noise_input is None else self.noise_input


def double_integrator_3d(ts, mass, u_max=1.0):
    """Euler-discretized 3D double integrator.

    State is (p_x, v_x, p_y, v_y, p_z, v_z); input is the force on each
    axis. Process noise acts directly on each acceleration component, so
    the noise channel is B with unit mass.
    """
    if not 0 < ts < np.inf:  # nan fails as not positive
        raise ValueError(f"ts must be positive and finite, got {ts}")
    if not 0 < mass < np.inf:  # an infinite mass would leave B zero
        raise ValueError(f"mass must be positive and finite, got {mass}")
    # per axis a [[1, ts], [0, 1]] block of A and [0; ts / mass] of B, set in place
    pos, vel, axis = [0, 2, 4], [1, 3, 5], [0, 1, 2]
    A, B, W = np.eye(6), np.zeros((6, 3)), np.zeros((6, 3))
    A[pos, vel] = ts
    B[vel, axis] = ts / mass
    W[vel, axis] = ts
    return LtiAgent(A=A, B=B, u_max=u_max, noise_input=W)


def step(agent, x, u, w=None):
    """One plant update A x + B u (+ noise through the noise channel)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != (agent.n,):
        raise ValueError(f"state has shape {x.shape}, expected ({agent.n},)")
    if u.shape != (agent.m,):
        raise ValueError(f"input has shape {u.shape}, expected ({agent.m},)")
    out = agent.A @ x + agent.B @ u
    if w is not None:
        w = np.asarray(w, dtype=float)
        channel = agent.noise_channel
        if w.shape != (channel.shape[1],):
            raise ValueError(f"noise has shape {w.shape}, expected ({channel.shape[1]},)")
        out += channel @ w
    return out


def rollout(agent, x0, u_seq):
    """Noiseless forward simulation; returns T+1 states including x0."""
    x0 = np.asarray(x0, dtype=float)
    states = np.empty((len(u_seq) + 1, agent.n))
    states[0] = x0
    for t, u in enumerate(u_seq):
        states[t + 1] = step(agent, states[t], u)
    return states


def prediction_matrices(agent, T):
    """Stacked maps x(0..T) = Phi x0 + Gam [u(0); ...; u(T-1)]."""
    n, m = agent.n, agent.m
    Phi = np.zeros(((T + 1) * n, n))
    Gam = np.zeros(((T + 1) * n, T * m))
    Phi[:n] = np.eye(n)
    for t in range(1, T + 1):
        Phi[t * n:(t + 1) * n] = agent.A @ Phi[(t - 1) * n:t * n]
        # row t inherits row t-1 shifted through A, plus a fresh B block
        Gam[t * n:(t + 1) * n] = agent.A @ Gam[(t - 1) * n:t * n]
        Gam[t * n:(t + 1) * n, (t - 1) * m:t * m] = agent.B
    return Phi, Gam
