"""Line-oriented scenario config files with INI-style sections."""

from dataclasses import dataclass, field, fields
from math import inf

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
        """The resolved scenario by section and key, as a document names them."""
        out = {"graph": {"edges": [[i, j, w] for i, j, w in self.edges]},
               "agents": {"overrides": {str(k): list(v) for k, v in self.agent_overrides.items()}},
               "mpc": {}, "sim": {}, "output": {},
               "defaults_applied": list(self.defaults_applied)}
        for section, key, name, _ in _SETTINGS:
            value = getattr(self.sim if name in _SIM_FIELDS else self, name)
            out[section][key] = list(value) if isinstance(value, tuple) else value
        return out


_SECTIONS = ("graph", "agents", "mpc", "sim", "output")

_BOOL = {"true": True, "1": True, "yes": True, "on": True,
         "false": False, "0": False, "no": False, "off": False}


def parse_config(text):
    """Parse a scenario document; unknown keys and malformed lines are errors."""
    section, values, edges, overrides = None, {}, {}, {}
    lines = {}  # each edge's (i, j) and each override's agent i -> its line
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(line_no, f"unknown section [{section}]")
            continue
        if section is None:
            raise ConfigError(line_no, f"content before any section header: {line!r}")
        tokens = line.replace("=", " ").split()
        if not tokens:
            raise ConfigError(line_no, f"no key on the line: {line!r}")
        key, args = tokens[0].lower(), tokens[1:]
        try:
            if (section, key) in _PARSERS:
                name, parse = _PARSERS[section, key]
                values[name] = parse(key, args)
            elif (section, key) == ("graph", "edge"):
                if len(args) not in (2, 3):
                    raise ValueError("'edge' expects: edge i j [weight]")
                i, j = int(args[0]), int(args[1])
                if i == j:
                    raise ValueError(f"self-loop on vertex {i}")
                w = float(args[2]) if len(args) == 3 else 1.0
                if not 0 < w < inf:  # nan fails as not positive
                    raise ValueError(f"edge weight must be {'finite' if w > 0 else 'positive'}, "
                                     f"got {w}")
                pair = (min(i, j), max(i, j))
                if pair in edges:
                    raise ValueError(f"duplicate edge {pair}")
                edges[pair], lines[pair] = w, line_no
            elif (section, key) == ("agents", "agent"):
                if len(args) != 3:
                    raise ValueError(f"'agent' expects 3 value(s), got {len(args)}")
                i = int(args[0])
                if i in overrides:
                    raise ValueError(f"duplicate agent override for agent {i}")
                overrides[i] = (_FINITE("mass", args[1:2]), _POSITIVE("u_max", args[2:]))
                lines[i] = line_no
            else:
                raise ValueError(f"unknown key '{key}' in [{section}]")
        except ValueError as exc:
            raise ConfigError(line_no, str(exc))

    if "num_agents" not in values:
        raise ConfigError(0, "missing required section [graph] with key 'n'")
    n = values["num_agents"]
    for i, j in edges:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ConfigError(lines[i, j], f"edge ({i},{j}) out of range 1..{n}")
    for i in overrides:
        if not (1 <= i <= n):
            raise ConfigError(lines[i], f"agent override for out-of-range agent {i}")
    notes = []
    for section, key, name, _ in _SETTINGS:
        if name not in values:
            values[name] = _DEFAULTS[name]
            notes.append(f"{section}.{key} defaulted to {values[name]}")
    try:
        sim = SimConfig(**{k: v for k, v in values.items() if k in _SIM_FIELDS})
    except ValueError as exc:  # a value no SimConfig accepts
        raise ConfigError(0, str(exc))
    cfg = ScenarioConfig(edges=[(i, j, w) for (i, j), w in edges.items()], sim=sim,
                         agent_overrides=overrides, defaults_applied=notes,
                         **{k: v for k, v in values.items() if k not in _SIM_FIELDS})
    cfg.graph()  # validates edges (weights, self-loops)
    return cfg


def _setting(convert, ok=None, why=None, count=1):
    """The parse of a setting's values: `count` tokens (any number if None)
    through convert, then ValueError(why) unless ok(value)."""
    def parse(key, args):
        if count is not None and len(args) != count:
            raise ValueError(f"'{key}' expects {count} value(s), got {len(args)}")
        value = convert(*args)
        if ok is not None and not ok(value):
            raise ValueError(why.format(key=key, v=value))
        return value
    return parse


def _bool(tok):
    v = tok.lower()
    if v not in _BOOL:
        raise ValueError(f"warm_start must be boolean, got {v!r}")
    return _BOOL[v]


def _formats(*args):
    fmts = tuple(f.lower() for a in args for f in a.split(","))
    bad = [f for f in fmts if f not in ("csv", "json")]
    if bad:
        raise ValueError(f"unknown output format(s) {bad}")
    return fmts


_COUNT = _setting(int, lambda v: v >= 1, "{key} must be >= 1, got {v!r}")
# SimConfig's message, as `--seed -1` gives it
_SEED = _setting(int, lambda v: v >= 0, "rng_seed must be nonnegative, got {v!r}")
# u_max alone may be inf, an unbounded input; nan fails every comparison
_POSITIVE = _setting(float, lambda v: v > 0, "{key} must be positive, got {v!r}")
_FINITE = _setting(float, lambda v: 0 < v < inf, "{key} must be positive and finite, got {v!r}")
_NONNEGATIVE = _setting(float, lambda v: 0 <= v < inf, "{key} must be finite and >= 0, got {v!r}")
_SOLVER = _setting(str.lower, SOLVER_KINDS.__contains__,
                   "{key} must be one of " + str(SOLVER_KINDS) + ", got {v!r}")
_RANGE = _setting(lambda lo, hi: (float(lo), float(hi)), lambda r: -inf < r[0] <= r[1] < inf,
                  "{key} lower bound exceeds upper, or a bound is not finite: {v!r}", count=2)

# (section, key, ScenarioConfig or SimConfig field, parse(key, values)) of
# every setting a document gives once, in the order of the defaults_applied notes
_SETTINGS = (
    ("graph", "n", "num_agents", _COUNT),
    ("sim", "steps", "num_steps", _COUNT),
    ("mpc", "horizon", "horizon", _COUNT),
    ("mpc", "admm_iters", "admm_iterations", _COUNT),
    ("mpc", "rho", "rho", _FINITE),
    ("sim", "noise_variance", "noise_variance", _NONNEGATIVE),
    ("sim", "seed", "rng_seed", _SEED),
    ("mpc", "solver", "solver_kind", _SOLVER),
    ("mpc", "warm_start", "warm_start", _setting(_bool)),
    ("agents", "ts", "ts", _FINITE),
    ("agents", "u_max", "u_max", _POSITIVE),
    ("agents", "mass", "mass", _FINITE),
    ("sim", "pos_range", "pos_range", _RANGE),
    ("sim", "vel_range", "vel_range", _RANGE),
    ("output", "dir", "out_dir", _setting(str)),
    ("output", "formats", "formats",
     _setting(_formats, bool, "{key} expects one or more of csv, json", count=None)),
)
_PARSERS = {(section, key): (name, parse) for section, key, name, parse in _SETTINGS}
_SIM_FIELDS = {f.name for f in fields(SimConfig)}
# a defaulted setting takes its dataclass field's default
_DEFAULTS = {f.name: f.default for f in fields(SimConfig) + fields(ScenarioConfig)}
