"""Self-tests of the benchmark: run with `python -m pytest perfbench`.

Each workload runs in smoke mode (one trial of a couple of steps) through
the real command, once untraced and twice traced.
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3
DETERMINISTIC = ("excess_cost_pct", "final_disagreement", "excess_pct_k1", "excess_pct_k10",
                 "excess_pct_k30", "qp.solves", "qp.closed_form_n", "qp.start_point_n",
                 "qp.polish_n", "qp.gradient_n", "qp.gradient_iters", "qp.nonoptimal_n")


def run_bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    info = next((json.loads(ln[6:]) for ln in lines if ln.startswith("info: ")), None)
    absent = next((json.loads(ln[8:]) for ln in lines if ln.startswith("absent: ")), [])
    return proc, (json.loads(lines[-1]) if lines else None), info, absent


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def smoke(request):
    name = request.param
    runs = {"plain": run_bench(name, 0), "traced": [run_bench(name, 1), run_bench(name, 1)]}
    return name, runs


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: wl.why for name, wl in WORKLOADS.items() if wl.gated}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == harness.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_metric_appears_with_its_unit(smoke):
    _, runs = smoke
    for proc, result, _, _ in [runs["plain"]] + runs["traced"]:
        assert proc.returncode == 0, proc.stderr
        assert result["correct"] is True, proc.stdout
        assert result["failed"] == 0 and result["attempted"] >= 1
    _, plain, _, _ = runs["plain"]
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == \
        {k: unit for k, (unit, _) in harness.END_TO_END.items()}
    for name, metric in plain["metrics"].items():
        assert metric["value"] > 0, name
    # a per-layer metric is measured, with its unit, or named as absent, never both
    for _, result, info, absent in runs["traced"]:
        measured = {k: v["unit"] for k, v in result["metrics"].items()}
        assert measured == {k: harness.PER_LAYER[k][0] for k in measured}
        assert set(info["extra"]) <= set(harness.SPECIFIC)
        assert set(measured) | set(info["extra"]) | set(absent) == \
            set(harness.PER_LAYER) | set(harness.SPECIFIC)
        assert not set(absent) & (set(measured) | set(info["extra"]))


def test_timings_are_scaled_within_the_host_factors(smoke):
    _, runs = smoke
    _, plain, info, _ = runs["plain"]
    lo, hi = info["host_factor_min"], info["host_factor_max"]
    assert 0 < lo <= hi
    assert set(info["as_timed"]) == {k for k, (unit, _) in harness.END_TO_END.items()
                                     if unit in ("s", "ms")}
    for name, timed in info["as_timed"].items():
        assert lo * timed * (1 - 1e-9) <= plain["metrics"][name]["value"] <= hi * timed * (1 + 1e-9)


def test_span_self_times_are_nonnegative_and_within_wall_time(smoke):
    name, runs = smoke
    _, _, info, _ = runs["traced"][-1]  # the spans file holds the latest run of a seed
    rec = Recorder()
    with open(ROOT / info["spans_file"]) as fh:
        for row in csv.DictReader(fh):
            rec.names.append(row["name"])
            rec.starts.append(float(row["start_s"]))
            rec.ends.append(float(row["end_s"]))
            rec.parents.append(int(row["parent"]))
    assert len(rec.starts) == info["spans"] > 0
    self_times = rec.self_times()
    assert min(self_times) >= 0.0
    assert sum(self_times) <= info["traced_wall_s"]
    assert info["self_time_sum_s"] <= info["traced_wall_s"]


def test_deterministic_metrics_repeat_exactly(smoke):
    name, runs = smoke
    (_, first, info1, _), (_, second, info2, _) = runs["traced"]
    values = [{**{k: v["value"] for k, v in r["metrics"].items()}, **info["extra"]}
              for r, info in ((first, info1), (second, info2))]
    for key in DETERMINISTIC:
        assert key in values[0] or key in harness.SPECIFIC, key
        assert values[0].get(key) == values[1].get(key), key
    assert info1["sha256"] == info2["sha256"]


def test_recorder_restores_the_program():
    from dmpc import admm, simulation

    before = (simulation.run_closed_loop, admm.solve_box_qp, simulation.solve_box_qp,
              admm.AdmmEngine.__dict__["run"])
    with Recorder() as rec:
        assert simulation.run_closed_loop is not before[0]
        assert admm.solve_box_qp is not simulation.solve_box_qp
    assert (simulation.run_closed_loop, admm.solve_box_qp, simulation.solve_box_qp,
            admm.AdmmEngine.__dict__["run"]) == before
    assert rec.absent == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result, _, _ = run_bench("stock-path5", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
