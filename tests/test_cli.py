import json
import re
from pathlib import Path

import numpy as np
import pytest

from dmpc import (ConfigError, ScenarioConfig, SimConfig, SolverFailure, iteration_sweep,
                  parse_config, simulation)
from dmpc.cli import main
from dmpc.config import _SETTINGS
from dmpc.graph import InfoGraph


GOOD = """\
[graph]
n 3
edge 1 2
edge 2 3 1.5

[mpc]
horizon 5
admm_iters 8

[sim]
steps 4
noise_variance 0.0
seed 7
"""


def test_parse_minimal_and_defaults_recorded():
    cfg = parse_config("[graph]\nn 2\nedge 1 2\n")
    assert cfg.num_agents == 2
    assert cfg.edges == [(1, 2, 1.0)]
    assert cfg.sim.horizon == 10 and cfg.sim.admm_iterations == 30
    assert any("mpc.horizon defaulted" in s for s in cfg.defaults_applied)
    assert any("sim.noise_variance defaulted" in s for s in cfg.defaults_applied)


def test_parse_defaults_are_the_dataclass_defaults():
    cfg = parse_config("[graph]\nn 2\nedge 1 2\n")
    assert cfg.sim == SimConfig()
    assert cfg.out_dir == ScenarioConfig.out_dir
    assert cfg.formats == ScenarioConfig.formats


FULL = """\
[graph]
n 3
edge 1 2
edge 3 2 1.5

[agents]
ts 0.05
mass 2.0
u_max 0.8
agent 2 1.5 0.6

[mpc]
horizon 4
rho 2.0
admm_iters 5
warm_start off
solver dual_decomp

[sim]
steps 3
noise_variance 0.05
seed 4
pos_range -3 3
vel_range -0.5 0.5

[output]
dir runs
formats json
"""


def test_to_dict_of_a_document_that_sets_every_key():
    assert parse_config(FULL).to_dict() == {
        "graph": {"n": 3, "edges": [[1, 2, 1.0], [2, 3, 1.5]]},
        "agents": {"ts": 0.05, "mass": 2.0, "u_max": 0.8, "overrides": {"2": [1.5, 0.6]}},
        "mpc": {"horizon": 4, "rho": 2.0, "admm_iters": 5, "warm_start": False,
                "solver": "dual_decomp"},
        "sim": {"steps": 3, "noise_variance": 0.05, "seed": 4, "pos_range": [-3.0, 3.0],
                "vel_range": [-0.5, 0.5]},
        "output": {"dir": "runs", "formats": ["json"]},
        "defaults_applied": [],
    }


def test_to_dict_of_a_minimal_document_notes_every_default_in_order():
    assert parse_config("[graph]\nn 2\nedge 1 2\n").to_dict() == {
        "graph": {"n": 2, "edges": [[1, 2, 1.0]]},
        "agents": {"ts": 0.1, "mass": 1.0, "u_max": 1.0, "overrides": {}},
        "mpc": {"horizon": 10, "rho": 1.0, "admm_iters": 30, "warm_start": True,
                "solver": "admm"},
        "sim": {"steps": 250, "noise_variance": 0.1, "seed": 0, "pos_range": [-5.0, 5.0],
                "vel_range": [-1.0, 1.0]},
        "output": {"dir": "out", "formats": ["csv", "json"]},
        "defaults_applied": [
            "sim.steps defaulted to 250", "mpc.horizon defaulted to 10",
            "mpc.admm_iters defaulted to 30", "mpc.rho defaulted to 1.0",
            "sim.noise_variance defaulted to 0.1", "sim.seed defaulted to 0",
            "mpc.solver defaulted to admm", "mpc.warm_start defaulted to True",
            "agents.ts defaulted to 0.1", "agents.u_max defaulted to 1.0",
            "agents.mass defaulted to 1.0", "sim.pos_range defaulted to (-5.0, 5.0)",
            "sim.vel_range defaulted to (-1.0, 1.0)", "output.dir defaulted to out",
            "output.formats defaulted to ('csv', 'json')"],
    }


def test_parse_full_document():
    cfg = parse_config(GOOD)
    assert cfg.num_agents == 3
    assert cfg.edges == [(1, 2, 1.0), (2, 3, 1.5)]
    assert cfg.sim.horizon == 5
    assert cfg.sim.rng_seed == 7
    assert cfg.graph().is_connected()
    assert len(cfg.agents()) == 3


def test_parse_accepts_equals_and_comments():
    cfg = parse_config("[graph]\nn = 2  # two agents\nedge = 1 2\n"
                       "[mpc]\nrho = 2.5\n")
    assert cfg.sim.rho == 2.5


def test_agent_overrides():
    cfg = parse_config("[graph]\nn 2\nedge 1 2\n[agents]\nmass 2.0\nagent 2 0.5 3.0\n")
    agents = cfg.agents()
    # agent 1 uses the section default mass, agent 2 its override
    assert agents[0].B.max() == pytest.approx(0.05)
    assert agents[1].B.max() == pytest.approx(0.2)
    assert agents[1].u_max == 3.0


@pytest.mark.parametrize("text,fragment", [
    ("n 2\n", "before any section"),
    ("[nope]\n", "unknown section"),
    ("[graph]\nn 2\nwibble 3\n", "unknown key"),
    ("[graph]\nn 2\nedge 1 2\nedge 2 1\n", "duplicate edge"),
    ("[graph]\nn 2\nedge 1 1\n", "self-loop"),
    ("[graph]\nn 2\nedge 1 2 -1\n", "positive"),
    ("[graph]\nn 2\nedge 1 2 nan\n", "line 3: edge weight must be positive, got nan"),
    ("[graph]\nn 2\nedge 1 2 inf\n", "line 3: edge weight must be finite, got inf"),
    ("[graph]\nn 2\nedge 1 3\n", "out of range"),
    ("[graph]\nn 0\n", ">= 1"),
    ("[graph]\nn 2\nedge 1 2\n[mpc]\nsolver quantum\n", "solver_kind must"),
    ("[graph]\nn 2\nedge 1 2\n[mpc]\nwarm_start maybe\n", "boolean"),
    ("[graph]\nn 2\nedge 1 2\n[sim]\npos_range 3 1\n", "lower bound exceeds"),
    ("[graph]\nn 2\nedge 1 2\n[output]\nformats xml\n", "unknown output format"),
    ("", "missing required section"),
    ("[graph]\nn 2\n=\n", "line 3: no key"),
    ("[graph]\nn 2\n[mpc]\nt 5\n", "unknown key 't'"),
    # every setting but u_max must be finite (nan fails as not positive)
    ("[graph]\nn 2\nedge 1 2\n[agents]\nts inf\n", "line 5: ts must be positive and finite"),
    ("[graph]\nn 2\nedge 1 2\n[agents]\nmass inf\n", "line 5: mass must be positive and finite"),
    ("[graph]\nn 2\nedge 1 2\n[agents]\nagent 2 inf 1\n",
     "line 5: mass must be positive and finite"),
    ("[graph]\nn 2\nedge 1 2\n[mpc]\nrho inf\n", "line 5: rho must be positive and finite"),
    ("[graph]\nn 2\nedge 1 2\n[sim]\nnoise_variance inf\n",
     "line 5: noise_variance must be finite and >= 0"),
    ("[graph]\nn 2\nedge 1 2\n[sim]\npos_range -inf inf\n", "line 5: pos_range lower bound"),
    ("[graph]\nn 2\nedge 1 2\n[sim]\nvel_range -1 inf\n", "line 5: vel_range lower bound"),
    ("[graph]\nn 2\nedge 1 2\n[sim]\nvel_range nan 1\n", "line 5: vel_range lower bound"),
    ("[graph]\nn 2\nedge 1 2\n[output]\nformats\n", "line 5: formats expects one or more"),
    # every error names its line, also one found once the whole document is read
    ("[graph]\nn 2\nedge 1 2\n[sim]\nseed -1\n", "line 5: rng_seed must be nonnegative, got -1"),
    ("[graph]\nedge 1 2\nedge 1 3\nn 2\n", "line 3: edge (1,3) out of range 1..2"),
    ("[graph]\nn 2\nedge 1 2\n[agents]\nagent 5 1 1\n",
     "line 5: agent override for out-of-range agent 5"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert fragment in str(exc.value)


def test_unbounded_input_parses():
    cfg = parse_config("[graph]\nn 2\nedge 1 2\n[agents]\nu_max inf\nagent 2 2.0 inf\n")
    assert cfg.sim.u_max == np.inf and cfg.agent_overrides == {2: (2.0, np.inf)}
    assert all(a.u_max == np.inf for a in cfg.agents())


def test_simulate_with_no_output_format_writes_nothing(tmp_path):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", write_config(tmp_path, GOOD + "\n[output]\nformats\n"),
              "--out", str(out)])
    assert "formats expects one or more of csv, json" in str(exc.value)
    assert not out.exists()


def test_parse_error_reports_line_number():
    with pytest.raises(ConfigError) as exc:
        parse_config("[graph]\nn 2\nedge 1 2\nbogus_key 1\n")
    assert exc.value.line_no == 4
    assert "line 4" in str(exc.value)


@pytest.mark.parametrize("text, message", [
    ("[graph]\nn 2\nedge 1 2\n[sim]\nseed 1\nseed 2\n",
     "line 6: 'seed' is set twice, first on line 5"),
    ("[graph]\nn 2\nedge 1 2\nn 3\n", "line 4: 'n' is set twice, first on line 2"),
    ("[sim]\npos_range -1 1\n[graph]\nn 2\n[sim]\npos_range = -2 2\n",
     "line 6: 'pos_range' is set twice, first on line 2"),
])
def test_a_repeated_setting_is_refused_on_its_second_line(text, message):
    # once silently last-wins: a second `n` changed the agent count
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value) == message and exc.value.line_no == int(message.split()[1][:-1])


SYNTAX_ONLY = ("out_dir", "formats", "warm_start")  # settings no object checks


def _refusal(text, owner):
    return pytest.param(text, owner, id=text.splitlines()[-1])


def _owner_refusals():
    """(document, what the owner raises for the same value through the library)
    for each refused value of each setting, edge weight and override that
    configures a SimConfig, the graph or an agent."""
    cases = []
    head = "[graph]\nn 2\nedge 1 2\n"
    for section, key, name, *_ in _SETTINGS:
        if name in SYNTAX_ONLY:
            continue
        kind = int if name == "num_agents" else type(getattr(SimConfig, name))
        convert = {tuple: lambda lo, hi: (float(lo), float(hi)), str: str.lower}.get(kind, kind)
        values = {tuple: [("3", "1"), ("nan", "1"), ("-inf", "1"), ("-1", "inf"), ("0", "nan")],
                  str: [("x",)]}.get(kind, [(v,) for v in ("0", "-1", "nan", "inf")])
        for tokens in values:
            try:
                value = convert(*tokens)
            except ValueError:  # not of the setting's type: a syntax error
                continue
            try:
                InfoGraph(value) if name == "num_agents" else SimConfig(**{name: value})
            except ValueError as exc:
                text = (f"[graph]\nn {' '.join(tokens)}\n" if name == "num_agents" else
                        head + f"[{section}]\n{key} {' '.join(tokens)}\n")
                cases.append(_refusal(text, exc))
    for w in ("0", "-1", "nan", "inf"):
        try:
            InfoGraph(2, {(1, 2): float(w)})
        except ValueError as exc:
            cases.append(_refusal(f"[graph]\nn 2\nedge 2 1 {w}\n", exc))
    for i, j in ((1, 1), (1, 3), (0, 1)):
        try:
            InfoGraph(2, {(i, j): 1.0})
        except ValueError as exc:
            cases.append(_refusal(f"[graph]\nn 2\nedge {i} {j}\n", exc))
    for mass, u_max in (("0", "1"), ("-1", "1"), ("nan", "1"), ("inf", "1"),
                        ("1", "0"), ("1", "-1"), ("1", "nan"), ("inf", "0")):
        try:
            SimConfig(mass=float(mass), u_max=float(u_max))
        except ValueError as exc:
            cases.append(_refusal(head + f"[agents]\nagent 2 {mass} {u_max}\n", exc))
    return cases


OWNER_REFUSALS = _owner_refusals()


def test_every_owned_setting_has_refusals():
    keys = {case.values[0].splitlines()[-1].split()[0] for case in OWNER_REFUSALS}
    owned = {key for _, key, name, *_ in _SETTINGS if name not in SYNTAX_ONLY}
    assert keys == owned | {"edge", "agent"} and len(OWNER_REFUSALS) >= 50


@pytest.mark.parametrize("text, owner", OWNER_REFUSALS)
def test_a_file_refuses_a_value_in_its_owners_words(text, owner):
    # one rule per value: the document gives the library's message, with its line
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value) == f"line {len(text.splitlines())}: {owner}"


@pytest.mark.parametrize("flag, value, field", [
    ("--seed", "-1", "rng_seed"), ("--iters", "0", "admm_iterations"),
    ("--solver", "x", "solver_kind")])
def test_a_flag_is_refused_in_its_owners_words(tmp_path, flag, value, field):
    with pytest.raises(ValueError) as owner:
        SimConfig(**{field: value if flag == "--solver" else int(value)})
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", write_config(tmp_path), flag, value])
    assert str(exc.value) == f"error: {flag}: {owner.value}"


def test_readme_example_config_parses_to_the_defaults_it_shows():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("### Config format", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(example)
    assert cfg.defaults_applied == []  # it names every key of _SETTINGS
    default = parse_config(f"[graph]\nn {cfg.num_agents}\n")
    assert (cfg.sim, cfg.out_dir, cfg.formats) == (default.sim, default.out_dir, default.formats)


def write_config(tmp_path, text=GOOD):
    p = tmp_path / "scenario.cfg"
    p.write_text(text)
    return str(p)


def test_simulate_writes_outputs(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "run1"
    rc = main(["simulate", "--config", cfg_path, "--out", str(out)])
    assert rc == 0
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0].startswith("# config: ")
    assert traj[1].split(",")[:2] == ["t", "agent"]
    # 4 steps x 3 agents of data rows
    assert len(traj) == 2 + 4 * 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["num_steps_completed"] == 4
    assert summary["solver"] == "admm"
    assert "total cost" in capsys.readouterr().out


@pytest.mark.parametrize("solver", ["admm", "centralized", "dual_decomp"])
def test_simulate_is_byte_identical_across_runs(tmp_path, solver):
    cfg_path = write_config(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", cfg_path, "--out", str(out),
                     "--solver", solver]) == 0
        data = (out / "trajectory.csv").read_bytes()
        # the echoed config comment embeds the per-run output directory;
        # everything after it must match byte for byte
        outs.append(data.split(b"\n", 1)[1])
    assert outs[0] == outs[1]


@pytest.mark.parametrize("solver", ["admm", "centralized", "dual_decomp"])
def test_summary_reports_no_unmeasured_dual_average(tmp_path, solver):
    # `simulate` does not track the dual-average invariant: null, not 0.0
    out = tmp_path / solver
    assert main(["simulate", "--config", write_config(tmp_path), "--out", str(out),
                 "--solver", solver]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_dual_avg_violation"] is None


@pytest.mark.parametrize("solver", ["admm", "centralized", "dual_decomp"])
def test_summary_totals_the_step_qp_counters(tmp_path, solver):
    out = tmp_path / solver
    assert main(["simulate", "--config", write_config(tmp_path), "--out", str(out),
                 "--solver", solver]) == 0
    totals = json.loads((out / "summary.json").read_text())["qp_totals"]
    if solver == "centralized":
        assert totals is None  # its steps solve one QP and count no x-updates
        return
    one, more = totals["qp_newton_one"], totals["qp_newton_more"]
    assert totals["qp_closed_form"] + totals["qp_warm_face"] + one + more == 3 * 8 * 4  # N*K*steps
    assert totals["qp_newton_iterations"] >= one + 2 * more
    assert 0.0 <= totals["qp_max_kkt_residual"] <= 1e-6 and totals["critical_path_s"] > 0.0


def test_simulate_solver_and_seed_overrides(tmp_path):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "c"
    rc = main(["simulate", "--config", cfg_path, "--out", str(out),
               "--solver", "centralized", "--seed", "123"])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["solver"] == "centralized"
    assert summary["config"]["sim"]["seed"] == 123


def test_a_flag_value_is_converted_as_the_files_is(tmp_path):
    # --solver Centralized exited 1, while "solver Centralized" in the file ran
    runs = {}
    for name, flags, text in (("flag", ["--solver", "Centralized"], GOOD),
                              ("file", [], GOOD + "\n[mpc]\nsolver Centralized\n")):
        out = tmp_path / name
        assert main(["simulate", "--config", write_config(tmp_path, text), "--out", str(out),
                     *flags]) == 0
        assert json.loads((out / "summary.json").read_text())["solver"] == "centralized"
        runs[name] = (out / "trajectory.csv").read_text().split("\n", 1)[1]
    assert runs["flag"] == runs["file"]


PATH5 = "[graph]\nn 5\nedge 1 2\nedge 2 3\nedge 3 4\nedge 4 5\n"


@pytest.mark.parametrize("solver", ["admm", "dual_decomp"])
@pytest.mark.parametrize("text, u_max", [
    (PATH5 + "[mpc]\nrho 1e-4\n", 1.0),
    (PATH5 + "[mpc]\nrho 1e4\n", 1.0),
    (PATH5 + "[agents]\nu_max 1e-3\n", 1e-3),
    ("[graph]\nn 4\nedge 1 2\nedge 3 4\n", 1.0),  # two unlinked pairs
], ids=["rho-1e-4", "rho-1e4", "u_max-1e-3", "disconnected"])
def test_simulate_completes_under_extreme_settings(tmp_path, solver, text, u_max):
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path, text + "[sim]\nsteps 3\n")
    assert main(["simulate", "--config", cfg_path, "--out", str(out), "--solver", solver]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["num_steps_completed"] == 3 and summary["aborted_at"] is None
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=2)
    assert np.max(np.abs(rows[:, 8:11])) <= u_max  # columns u0..u2


def test_simulate_reports_why_it_aborted(tmp_path, capsys, monkeypatch):
    from dmpc import QpSolution, admm

    monkeypatch.setattr(admm, "solve_box_qp", lambda qp, **kw: QpSolution(
        np.zeros(qp.dim), "max_iterations", 0.5, 3, message="stalled"))
    out = tmp_path / "cut"
    assert main(["simulate", "--config", write_config(tmp_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "step 0" in err and "agent 1" in err and "stalled" in err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["aborted_at"] == 0 and "stalled" in summary["abort_reason"]


def test_simulate_reports_diverging_dual_decomposition(tmp_path, capsys):
    # unbounded inputs let the 1/k dual steps blow the disagreement up
    out = tmp_path / "dd"
    text = "[graph]\nn 3\nedge 1 2\nedge 2 3\n[agents]\nu_max inf\n[sim]\nsteps 3\n"
    argv = ["simulate", "--config", write_config(tmp_path, text), "--out", str(out)]
    assert main(argv + ["--solver", "dual_decomp"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: solver failure at step 0: dual decomposition diverging at "
                        r"iteration \d+: disagreement \S+ vs initial \S+; partial log written\n",
                        err)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["aborted_at"] == 0 and summary["num_steps_completed"] == 0
    assert summary["abort_reason"] in err
    assert (out / "trajectory.csv").read_text().count("\n") == 2  # comment and header


def test_simulate_rejects_bad_override(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", write_config(tmp_path), "--iters", "0"])
    assert str(exc.value).startswith("error: ") and "admm_iterations" in str(exc.value)


def test_simulate_rejects_negative_seed(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", write_config(tmp_path), "--seed", "-1"])
    assert str(exc.value).startswith("error: --seed: ") and "rng_seed" in str(exc.value)


def test_config_with_negative_seed_is_a_config_error(tmp_path):
    text = GOOD.replace("seed 7", "seed -1")
    with pytest.raises(ConfigError, match="rng_seed"):
        parse_config(text)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", write_config(tmp_path, text)])
    assert str(exc.value).startswith("error: ") and "rng_seed" in str(exc.value)


def test_simulate_missing_config_errors():
    with pytest.raises(SystemExit):
        main(["simulate", "--config", "/nonexistent/path.cfg"])


def test_simulate_bad_config_reports_line(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[graph]\nn 2\nedge 1 2\nbroken\n")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(p)])
    assert "line 4" in str(exc.value)


def test_sweep_writes_csv(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "sw"
    rc = main(["sweep", "--config", cfg_path, "--out", str(out),
               "--k-list", "1,5", "--trials", "2"])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1] == "K,mean_excess_pct,std_pct,trials,aborted"
    assert [row.split(",")[0] for row in lines[2:]] == ["1", "5"]
    assert all(row.split(",")[3:] == ["2", "0"] for row in lines[2:])
    assert "K=" in capsys.readouterr().out


def test_sweep_runs_the_scenarios_agents(tmp_path):
    override = GOOD + "\n[agents]\nagent 2 5.0 0.2\n"
    rows = {}
    for name, text in (("default", GOOD), ("override", override)):
        out = tmp_path / name
        assert main(["sweep", "--config", write_config(tmp_path, text), "--out", str(out),
                     "--k-list", "1,5", "--trials", "2"]) == 0
        rows[name] = (out / "sweep.csv").read_text().splitlines()[2:]
    cfg = parse_config(override)
    expected = iteration_sweep(cfg.graph(), cfg.sim, [1, 5], 2, agents=cfg.agents())
    assert rows["override"] == [f"{K},{mean:.17g},{std:.17g},{trials},0"
                                for K, mean, std, trials in expected]
    assert rows["override"] != rows["default"]


def test_sweep_with_zero_centralized_cost_is_an_error(tmp_path):
    # one agent has no neighbor to disagree with: every closed loop costs 0
    text = "[graph]\nn 1\n[mpc]\nhorizon 1\n[sim]\nsteps 3\nseed 4\n"
    assert main(["simulate", "--config", write_config(tmp_path, text),
                 "--out", str(tmp_path / "sim")]) == 0
    out = tmp_path / "sw"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", write_config(tmp_path, text), "--out", str(out),
              "--k-list", "1,5", "--trials", "2"])
    assert str(exc.value) == "error: sweep trial seed 4: centralized cost is zero; ratio undefined"
    assert not out.exists()


def test_sweep_rejects_bad_k_list(tmp_path):
    cfg_path = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", cfg_path, "--k-list", "1,zero"])
    assert str(exc.value) == "error: bad --k-list '1,zero'"
    # the values are the library's to refuse, in its words
    for k_list, error in (("0,5", "k_values[0] must be >= 1, got 0"),
                          (",", "k_values must hold at least one budget, got []")):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg_path, "--k-list", k_list])
        assert str(exc.value) == f"error: {error}"


def test_sweep_rejects_bad_trials(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", write_config(tmp_path), "--trials", "0"])
    assert str(exc.value) == "error: num_trials must be >= 1, got 0"


def test_sweep_and_verify_reject_bad_jobs(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", write_config(tmp_path), "--jobs", "0"])
    assert str(exc.value) == "error: n_jobs must be >= 1, got 0"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--jobs", "-2"])
    assert str(exc.value) == "error: n_jobs must be >= 1, got -2"


def test_sweep_reports_an_aborted_trial(tmp_path, monkeypatch, capsys):
    # every ADMM loop of the trial with seed 7 fails at its first step
    plan = simulation._AdmmController.plan

    def failing(self, measured):
        if self.cfg.rng_seed == 7:
            raise SolverFailure(3, 1, "max_iterations: injected")
        return plan(self, measured)

    monkeypatch.setattr(simulation._AdmmController, "plan", failing)
    error = ("error: sweep trial seed 7, K=2: aborted at step 0: subproblem "
             "of agent 3 failed at iteration 1: max_iterations: injected")
    out = tmp_path / "sw"
    with pytest.raises(SystemExit) as exc:  # no trial completed: no file
        main(["sweep", "--config", write_config(tmp_path), "--out", str(out),
              "--k-list", "2", "--trials", "1"])
    assert str(exc.value) == error
    assert not out.exists()
    # the trial with seed 8 completes: its row is written, and the run still fails
    rc = main(["sweep", "--config", write_config(tmp_path), "--out", str(out),
               "--k-list", "2", "--trials", "2"])
    assert rc == 1
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1] == "K,mean_excess_pct,std_pct,trials,aborted"
    assert len(lines) == 3 and lines[2].startswith("2,") and lines[2].endswith(",1,1")
    assert capsys.readouterr().err.splitlines() == [error]


def test_verify_rejects_unknown_level():
    with pytest.raises(SystemExit):
        main(["verify", "everything"])


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
