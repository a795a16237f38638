"""In-memory span recorder that wraps the program's entry points from outside.

Nothing under `src/` is edited: the recorder rebinds module and class
attributes for the duration of a `with Recorder():` block and restores them
on exit. A span is (name, start, end, parent span, step id). Entry points a
later refactor removes are listed in `Recorder.absent` instead of being
reported as zero.
"""

import importlib
import sys
import time

# (span name, module, attribute path, modules whose binding is replaced).
# `None` for the last field rebinds every loaded dmpc module that holds the
# same object, so `from .x import f` call sites are covered too.
TARGETS = (
    ("problem.build_local_problems", "dmpc.problem", "build_local_problems", None),
    ("problem.build_centralized_qp", "dmpc.problem", "build_centralized_qp", None),
    ("problem.cost", "dmpc.problem", "LocalProblem.cost", None),
    ("admm.engine_init", "dmpc.admm", "AdmmEngine.__init__", None),
    ("admm.rebind_states", "dmpc.admm", "AdmmEngine.rebind_states", None),
    ("admm.run", "dmpc.admm", "AdmmEngine.run", None),
    ("admm.condensed_maps", "dmpc.admm", "condensed_maps", ("dmpc.admm",)),
    ("admm.solve_box_qp", "dmpc.admm", "solve_box_qp", ("dmpc.admm",)),
    ("admm.z_update", "dmpc.admm", "z_update", ("dmpc.admm",)),
    ("admm.dual_update", "dmpc.admm", "dual_update", ("dmpc.admm",)),
    ("admm.residuals", "dmpc.admm", "residuals", ("dmpc.admm",)),
    ("admm.run_dual_decomposition", "dmpc.admm", "run_dual_decomposition", None),
    ("sim.solve_box_qp", "dmpc.simulation", "solve_box_qp", ("dmpc.simulation",)),
    ("sim.step", "dmpc.simulation", "step", ("dmpc.simulation",)),
    ("sim.global_cost", "dmpc.simulation", "global_cost", ("dmpc.simulation",)),
    ("sim.iteration_sweep", "dmpc.simulation", "iteration_sweep", ("dmpc.simulation",)),
    ("sim.run_closed_loop", "dmpc.simulation", "run_closed_loop", ("dmpc.simulation",)),
    # private names: wrapped only where present
    ("admm.xupdate", "dmpc.admm", "_AgentCache.solve", None),
    ("sim.central_solve", "dmpc.simulation", "_CentralizedCache.solve", None),
    ("sim.warm_shift", "dmpc.simulation", "_shift_warm_state", ("dmpc.simulation",)),
)

QP_SPANS = ("admm.solve_box_qp", "sim.solve_box_qp")
# A closed loop's set-up ends when the first of these starts. The
# dual-decomposition loop builds its step-0 problems just before its first
# run, so that one build is counted with set-up.
STEP_ENTRY = ("admm.rebind_states", "sim.central_solve", "admm.run_dual_decomposition")


def qp_path(sol):
    """Which branch of solve_box_qp produced `sol`, read from its fields."""
    if sol.status != "optimal":
        return "nonoptimal"
    if sol.iterations > 0:
        return "gradient"
    return ("closed_form", "start_point", "polish")[min(len(sol.objective_history), 2)]


class Recorder:
    """Collects spans while active; `spans()` returns them as tuples."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.steps = []
        self.stack = []
        self.step = -1
        self.loop_kind = {}      # run_closed_loop span -> solver kind
        self.qp = {}             # QP span -> (path, gradient iterations)
        self.absent = []
        self._undo = []

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        self.absent = []
        for span, module, path, sites in TARGETS:
            try:
                mod = importlib.import_module(module)
                owner, attr = mod, path
                if "." in path:
                    cls, attr = path.split(".")
                    owner = getattr(mod, cls)
                orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module}.{path}")
                continue
            wrapped = self._wrap(span, orig)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapped)
                continue
            names = sites or [m for m in list(sys.modules) if m == "dmpc" or m.startswith("dmpc.")]
            for name in names:
                site = sys.modules.get(name)
                if site is not None and getattr(site, attr, None) is orig:
                    self._rebind(site, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        return False

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr) if not isinstance(owner, type)
                           else owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, span, fn):
        rec = self
        clock = time.perf_counter
        is_qp = span in QP_SPANS
        is_loop = span == "sim.run_closed_loop"
        is_stage_cost = span == "sim.global_cost"
        is_entry = span in STEP_ENTRY

        def wrapper(*args, **kwargs):
            i = len(rec.starts)
            if is_loop:
                cfg = args[1] if len(args) > 1 else kwargs["cfg"]
                rec.loop_kind[i] = cfg.solver_kind
                outer_step = rec.step
                rec.step = -1
            elif is_entry and rec.step < 0:
                rec.step = 0
            rec.names.append(span)
            rec.parents.append(rec.stack[-1] if rec.stack else -1)
            rec.steps.append(rec.step)
            rec.ends.append(0.0)
            rec.stack.append(i)
            rec.starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.ends[i] = clock()
                rec.stack.pop()
                if is_loop:
                    rec.step = outer_step
                elif is_stage_cost and rec.step >= 0:
                    rec.step += 1
            if is_qp:
                rec.qp[i] = (qp_path(out), out.iterations)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------

    def spans(self):
        return list(zip(self.names, self.starts, self.ends, self.parents, self.steps))

    def self_times(self):
        """Span duration minus the part of it that child spans cover."""
        children = [[] for _ in self.starts]
        for i, p in enumerate(self.parents):
            if p >= 0:
                children[p].append(i)
        out = []
        for i, (s, e) in enumerate(zip(self.starts, self.ends)):
            covered, reach = 0.0, s
            for c in children[i]:  # children start in order and do not overlap
                lo, hi = max(self.starts[c], reach), min(self.ends[c], e)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((e - s) - covered)
        return out

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,step\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, (n, s, e, p, st) in enumerate(self.spans()):
                fh.write(f"{i},{n},{s - t0:.9f},{e - t0:.9f},{p},{st}\n")
