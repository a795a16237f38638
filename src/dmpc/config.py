"""Line-oriented scenario config files with INI-style sections."""

from dataclasses import dataclass, field, fields

from .graph import InfoGraph
from .dynamics import double_integrator_3d
from .simulation import SimConfig


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
        for section, key, name, *_ in _SETTINGS:
            value = getattr(self.sim if name in _SIM_FIELDS else self, name)
            out[section][key] = list(value) if isinstance(value, tuple) else value
        return out


_SECTIONS = ("graph", "agents", "mpc", "sim", "output")

_BOOL = {"true": True, "1": True, "yes": True, "on": True,
         "false": False, "0": False, "no": False, "off": False}


def parse_config(text):
    """Parse a scenario document. It reads syntax only; each value is checked
    by what it configures (SimConfig, InfoGraph), whose ValueError becomes a
    ConfigError naming the line. Unknown keys, malformed lines and a
    setting, edge or override given twice are errors."""
    section, values, edges, overrides = None, {}, {}, {}
    lines = {}  # each setting's name, edge's (i, j) and override's agent i -> its line
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
                name, convert, count = _PARSERS[section, key]
                if name in values:
                    raise ValueError(f"'{key}' is set twice, first on line {lines[name]}")
                if count is not None and len(args) != count:
                    raise ValueError(f"'{key}' expects {count} value(s), got {len(args)}")
                values[name], lines[name] = convert(*args), line_no
                if name == "num_agents":
                    InfoGraph(values[name])
                elif name in _SIM_FIELDS:
                    SimConfig(**{name: values[name]})
            elif (section, key) == ("graph", "edge"):
                if len(args) not in (2, 3):
                    raise ValueError("'edge' expects: edge i j [weight]")
                i, j = int(args[0]), int(args[1])
                pair = (min(i, j), max(i, j))
                if pair in edges:
                    raise ValueError(f"duplicate edge {pair}")
                edges[pair], lines[pair] = float(args[2]) if len(args) == 3 else 1.0, line_no
            elif (section, key) == ("agents", "agent"):
                if len(args) != 3:
                    raise ValueError(f"'agent' expects 3 value(s), got {len(args)}")
                i = int(args[0])
                if i in overrides:
                    raise ValueError(f"duplicate agent override for agent {i}")
                overrides[i], lines[i] = (float(args[1]), float(args[2])), line_no
                SimConfig(mass=overrides[i][0], u_max=overrides[i][1])
            else:
                raise ValueError(f"unknown key '{key}' in [{section}]")
        except ValueError as exc:
            raise ConfigError(line_no, str(exc))

    if "num_agents" not in values:
        raise ConfigError(0, "missing required section [graph] with key 'n'")
    n = values["num_agents"]
    for (i, j), w in edges.items():  # each edge, once n is known
        try:
            InfoGraph.checked_edge(n, i, j, w)
        except ValueError as exc:
            raise ConfigError(lines[i, j], str(exc))
    for i in overrides:
        if not (1 <= i <= n):
            raise ConfigError(lines[i], f"agent override for out-of-range agent {i}")
    notes = []
    for section, key, name, *_ in _SETTINGS:
        if name not in values:
            values[name] = _DEFAULTS[name]
            notes.append(f"{section}.{key} defaulted to {values[name]}")
    return ScenarioConfig(edges=[(i, j, w) for (i, j), w in edges.items()],
                          sim=SimConfig(**{k: v for k, v in values.items() if k in _SIM_FIELDS}),
                          agent_overrides=overrides, defaults_applied=notes,
                          **{k: v for k, v in values.items() if k not in _SIM_FIELDS})


def _bool(tok):
    v = tok.lower()
    if v not in _BOOL:
        raise ValueError(f"warm_start must be boolean, got {v!r}")
    return _BOOL[v]


def _formats(*args):
    fmts = tuple(f.lower() for a in args for f in a.split(","))
    if not fmts:
        raise ValueError("formats expects one or more of csv, json")
    bad = [f for f in fmts if f not in ("csv", "json")]
    if bad:
        raise ValueError(f"unknown output format(s) {bad}")
    return fmts


def _range(lo, hi):
    return float(lo), float(hi)


# (section, key, ScenarioConfig or SimConfig field, convert(*values), number of
# values or None for any) of every setting a document gives once, in the order
# of the defaults_applied notes
_SETTINGS = (
    ("graph", "n", "num_agents", int, 1),
    ("sim", "steps", "num_steps", int, 1),
    ("mpc", "horizon", "horizon", int, 1),
    ("mpc", "admm_iters", "admm_iterations", int, 1),
    ("mpc", "rho", "rho", float, 1),
    ("sim", "noise_variance", "noise_variance", float, 1),
    ("sim", "seed", "rng_seed", int, 1),
    ("mpc", "solver", "solver_kind", str.lower, 1),
    ("mpc", "warm_start", "warm_start", _bool, 1),
    ("agents", "ts", "ts", float, 1),
    ("agents", "u_max", "u_max", float, 1),
    ("agents", "mass", "mass", float, 1),
    ("sim", "pos_range", "pos_range", _range, 2),
    ("sim", "vel_range", "vel_range", _range, 2),
    ("output", "dir", "out_dir", str, 1),
    ("output", "formats", "formats", _formats, None),
)
_PARSERS = {(section, key): rest for section, key, *rest in _SETTINGS}
_SIM_FIELDS = {f.name for f in fields(SimConfig)}
# a defaulted setting takes its dataclass field's default
_DEFAULTS = {f.name: f.default for f in fields(SimConfig) + fields(ScenarioConfig)}
