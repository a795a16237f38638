"""Distributed model predictive consensus via ADMM over agent subproblems."""

from .graph import InfoGraph, path_graph
from .dynamics import LtiAgent, double_integrator_3d, prediction_matrices, rollout, step
from .problem import LocalProblem, ZLayout, build_local_problems, global_cost
from .qp import BoxQp, QpSolution, enumerate_box_qp, solve_box_qp
from .admm import (AdmmEngine, AdmmState, SolverFailure, dual_update, residuals,
                   run_admm, run_dual_decomposition, z_update)
from .simulation import (SimConfig, SimLog, SweepTrialAborted, draw_initial_states, draw_noise,
                         iteration_sweep, performance_ratio, run_closed_loop, solve_centralized)
from .config import ConfigError, ScenarioConfig, parse_config

__version__ = "0.1.0"
