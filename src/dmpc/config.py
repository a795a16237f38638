"""Line-oriented scenario config files with INI-style sections."""

from dataclasses import dataclass, field, fields

from .graph import InfoGraph
from .dynamics import double_integrator_3d
from .simulation import SOLVER_KINDS, SimConfig


class ConfigError(ValueError):
    def __init__(self, line_no, msg):
        super().__init__(f"line {line_no}: {msg}" if line_no else msg)
        self.line_no = line_no


@dataclass
class ScenarioConfig:
    num_agents: int
    edges: list                      # (i, j, weight)
    sim: SimConfig
    agent_overrides: dict = field(default_factory=dict)  # agent -> (mass, u_max)
    out_dir: str = "out"
    formats: tuple = ("csv", "json")
    defaults_applied: list = field(default_factory=list)

    def graph(self):
        return InfoGraph(self.num_agents, {(i, j): w for i, j, w in self.edges})

    def agents(self):
        out = []
        for i in range(1, self.num_agents + 1):
            mass, u_max = self.agent_overrides.get(i, (self.sim.mass, self.sim.u_max))
            out.append(double_integrator_3d(self.sim.ts, mass, u_max))
        return out

    def to_dict(self):
        sim = self.sim
        return {
            "graph": {"n": self.num_agents,
                      "edges": [[i, j, w] for i, j, w in self.edges]},
            "agents": {"ts": sim.ts, "mass": sim.mass, "u_max": sim.u_max,
                       "overrides": {str(k): list(v) for k, v in self.agent_overrides.items()}},
            "mpc": {"horizon": sim.horizon, "rho": sim.rho,
                    "admm_iters": sim.admm_iterations, "warm_start": sim.warm_start,
                    "solver": sim.solver_kind},
            "sim": {"steps": sim.num_steps, "noise_variance": sim.noise_variance,
                    "seed": sim.rng_seed, "pos_range": list(sim.pos_range),
                    "vel_range": list(sim.vel_range)},
            "output": {"dir": self.out_dir, "formats": list(self.formats)},
            "defaults_applied": list(self.defaults_applied),
        }


_SECTIONS = ("graph", "agents", "mpc", "sim", "output")

_BOOL = {"true": True, "1": True, "yes": True, "on": True,
         "false": False, "0": False, "no": False, "off": False}


def _want(tokens, count, line_no, key):
    if len(tokens) != count:
        raise ConfigError(line_no, f"'{key}' expects {count} value(s), got {len(tokens)}")
    return tokens


def parse_config(text):
    """Parse a scenario document; unknown keys and malformed lines are errors."""
    section = None
    values = {s: {} for s in _SECTIONS}
    edges = []
    edge_seen = set()
    agent_overrides = {}
    notes = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise ConfigError(line_no, f"unknown section [{name}]")
            section = name
            continue
        if section is None:
            raise ConfigError(line_no, f"content before any section header: {line!r}")
        tokens = [t for t in line.replace("=", " ").split() if t]
        key, args = tokens[0].lower(), tokens[1:]
        try:
            _dispatch(section, key, args, line_no, values, edges, edge_seen, agent_overrides)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(line_no, str(exc))

    if "n" not in values["graph"]:
        raise ConfigError(0, "missing required section [graph] with key 'n'")
    n = values["graph"]["n"]
    for i, j, _ in edges:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ConfigError(0, f"edge ({i},{j}) out of range 1..{n}")
    for i in agent_overrides:
        if not (1 <= i <= n):
            raise ConfigError(0, f"agent override for out-of-range agent {i}")

    def pick(section_name, key, name):
        if key in values[section_name]:
            return values[section_name][key]
        notes.append(f"{section_name}.{key} defaulted to {_DEFAULTS[name]}")
        return _DEFAULTS[name]

    try:
        sim = SimConfig(**{name: pick(sec, key, name) for sec, key, name in _SIM_KEYS})
    except ValueError as exc:  # a value no SimConfig accepts
        raise ConfigError(0, str(exc))
    cfg = ScenarioConfig(
        num_agents=n, edges=edges, sim=sim, agent_overrides=agent_overrides,
        out_dir=pick("output", "dir", "out_dir"),
        formats=tuple(pick("output", "formats", "formats")),
        defaults_applied=notes,
    )
    cfg.graph()  # validates edges (weights, self-loops)
    return cfg


def _dispatch(section, key, args, line_no, values, edges, edge_seen, agent_overrides):
    if key in _SCALARS[section]:
        name, parse = _SCALARS[section][key]
        values[section][name] = parse(_want(args, 1, line_no, key)[0], name)
    elif (section, key) == ("graph", "edge"):
        if len(args) not in (2, 3):
            raise ConfigError(line_no, "'edge' expects: edge i j [weight]")
        i, j = int(args[0]), int(args[1])
        if i == j:
            raise ConfigError(line_no, f"self-loop on vertex {i}")
        w = float(args[2]) if len(args) == 3 else 1.0
        if w <= 0:
            raise ConfigError(line_no, f"edge weight must be positive, got {w}")
        pair = (min(i, j), max(i, j))
        if pair in edge_seen:
            raise ConfigError(line_no, f"duplicate edge {pair}")
        edge_seen.add(pair)
        edges.append((pair[0], pair[1], w))
    elif (section, key) == ("agents", "agent"):
        _want(args, 3, line_no, key)
        i = int(args[0])
        if i in agent_overrides:
            raise ConfigError(line_no, f"duplicate agent override for agent {i}")
        agent_overrides[i] = (_pos_float(args[1], "mass"), _pos_float(args[2], "u_max"))
    elif (section, key) == ("mpc", "warm_start"):
        v = _want(args, 1, line_no, key)[0].lower()
        if v not in _BOOL:
            raise ConfigError(line_no, f"warm_start must be boolean, got {v!r}")
        values["mpc"]["warm_start"] = _BOOL[v]
    elif (section, key) == ("mpc", "solver"):
        v = _want(args, 1, line_no, key)[0].lower()
        if v not in SOLVER_KINDS:
            raise ConfigError(line_no, f"solver must be one of {SOLVER_KINDS}, got {v!r}")
        values["mpc"]["solver"] = v
    elif section == "sim" and key in ("pos_range", "vel_range"):
        _want(args, 2, line_no, key)
        lo, hi = float(args[0]), float(args[1])
        if lo > hi:
            raise ConfigError(line_no, f"{key} lower bound exceeds upper")
        values["sim"][key] = (lo, hi)
    elif (section, key) == ("output", "formats"):
        fmts = tuple(f.lower() for a in args for f in a.split(","))
        bad = [f for f in fmts if f not in ("csv", "json")]
        if bad:
            raise ConfigError(line_no, f"unknown output format(s) {bad}")
        values["output"]["formats"] = fmts
    else:
        raise ConfigError(line_no, f"unknown key '{key}' in [{section}]")


def _pos_int(tok, name):
    v = int(tok)
    if v < 1:
        raise ValueError(f"{name} must be >= 1, got {v}")
    return v


def _pos_float(tok, name):
    v = float(tok)
    if v <= 0:
        raise ValueError(f"{name} must be positive, got {v}")
    return v


def _nonneg_float(tok, name):
    v = float(tok)
    if v < 0:
        raise ValueError(f"{name} must be nonnegative")
    return v


# (section, stored key, SimConfig field) of every SimConfig setting a file
# can give, in the order of the defaults_applied notes
_SIM_KEYS = (("sim", "steps", "num_steps"), ("mpc", "horizon", "horizon"),
             ("mpc", "admm_iters", "admm_iterations"), ("mpc", "rho", "rho"),
             ("sim", "noise_variance", "noise_variance"), ("sim", "seed", "rng_seed"),
             ("mpc", "solver", "solver_kind"), ("mpc", "warm_start", "warm_start"),
             ("agents", "ts", "ts"), ("agents", "u_max", "u_max"), ("agents", "mass", "mass"),
             ("sim", "pos_range", "pos_range"), ("sim", "vel_range", "vel_range"))

# a defaulted setting takes its dataclass field's default
_DEFAULTS = {f.name: f.default for f in fields(SimConfig) + fields(ScenarioConfig)}

# single-value keys: section -> key -> (stored name, parse(token, name))
_SCALARS = {
    "graph": {"n": ("n", _pos_int)},
    "agents": {k: (k, _pos_float) for k in ("ts", "mass", "u_max")},
    "mpc": {"horizon": ("horizon", _pos_int), "t": ("horizon", _pos_int),
            "rho": ("rho", _pos_float), "admm_iters": ("admm_iters", _pos_int)},
    "sim": {"steps": ("steps", _pos_int), "noise_variance": ("noise_variance", _nonneg_float),
            "seed": ("seed", lambda tok, _: int(tok))},
    "output": {"dir": ("dir", lambda tok, _: tok)},
}
