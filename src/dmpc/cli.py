"""Command-line entry point: simulate, sweep, verify."""

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .config import _PARSERS, ConfigError, parse_config
from .admm import QpCounters
from .simulation import SweepTrialAborted, iteration_sweep, run_closed_loop
from . import verify as verify_mod


def _fmt(x):
    return f"{float(x):.17g}"


def _config_comment(cfg):
    return "# config: " + json.dumps(cfg.to_dict(), sort_keys=True)


def _load(config_path, args):
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    except OSError as exc:
        raise SystemExit(f"error: cannot read config: {exc}")
    except ConfigError as exc:
        raise SystemExit(f"error: {config_path}: {exc}")
    # each flag overrides one setting, its value converted as the file's would be
    for arg, key in (("seed", ("sim", "seed")), ("solver", ("mpc", "solver")),
                     ("iters", ("mpc", "admm_iters"))):
        if getattr(args, arg, None) is not None:
            name, convert, _ = _PARSERS[key]
            try:
                cfg.sim = replace(cfg.sim, **{name: convert(getattr(args, arg))})
            except ValueError as exc:
                raise SystemExit(f"error: --{arg}: {exc}")
    if getattr(args, "out", None) is not None:
        cfg.out_dir = args.out
    g = cfg.graph()
    if not g.is_connected():
        print("warning: information graph is not connected; consensus is unreachable",
              file=sys.stderr)
    return cfg


def _write_trajectory_csv(path, cfg, log):
    steps, N, m = log.inputs.shape
    n = log.states.shape[2]
    header = ["t", "agent"] + [f"x{i}" for i in range(n)] + \
        [f"u{i}" for i in range(m)] + ["stage_cost"]
    rows = np.column_stack([np.repeat(np.arange(steps), N), np.tile(np.arange(1, N + 1), steps),
                            log.states[:steps].reshape(steps * N, n),
                            log.inputs.reshape(steps * N, m), np.repeat(log.stage_costs, N)])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_config_comment(cfg) + "\n")
        fh.write(",".join(header) + "\n")
        np.savetxt(fh, rows, fmt=["%d", "%d"] + ["%.17g"] * (n + m + 1), delimiter=",")


def _timing_summary(times):
    if times.size == 0:
        return {}
    return {"count": int(times.size),
            "median_s": float(np.median(times)),
            "p95_s": float(np.percentile(times, 95)),
            "max_s": float(np.max(times))}


def _write_summary_json(path, cfg, log):
    wall = [s["wall_time"] for s in log.solver_stats]
    summary = {
        "config": cfg.to_dict(),
        "solver": cfg.sim.solver_kind,
        "total_cost": log.total_cost,
        "num_steps_completed": int(log.inputs.shape[0]),
        "aborted_at": log.aborted_at,
        "abort_reason": log.abort_reason,
        "subproblem_solve_time": _timing_summary(log.solve_times),
        "step_wall_time": _timing_summary(np.asarray(wall)),
        "max_dual_avg_violation": log.max_dual_avg_violation,
        # None for the centralized solver, whose steps count no x-updates
        "qp_totals": (None if cfg.sim.solver_kind == "centralized"
                      else QpCounters.totals(log.solver_stats)),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate(args):
    cfg = _load(args.config, args)
    log = run_closed_loop(cfg.graph(), cfg.sim, agents=cfg.agents())
    os.makedirs(cfg.out_dir, exist_ok=True)
    if "csv" in cfg.formats:
        _write_trajectory_csv(os.path.join(cfg.out_dir, "trajectory.csv"), cfg, log)
    if "json" in cfg.formats:
        _write_summary_json(os.path.join(cfg.out_dir, "summary.json"), cfg, log)
    if log.aborted_at is not None:
        print(f"error: solver failure at step {log.aborted_at}: {log.abort_reason}; "
              "partial log written", file=sys.stderr)
        return 1
    print(f"simulated {log.inputs.shape[0]} steps, total cost {log.total_cost:.6g}, "
          f"output in {cfg.out_dir}/")
    return 0


def cmd_sweep(args):
    cfg = _load(args.config, args)
    try:
        k_values = [int(v) for v in args.k_list.split(",") if v]
    except ValueError:
        raise SystemExit(f"error: bad --k-list {args.k_list!r}")
    aborted = ()
    try:
        rows = iteration_sweep(cfg.graph(), cfg.sim, k_values, args.trials,
                               n_jobs=args.jobs, agents=cfg.agents())
    except ValueError as exc:  # an argument refused, or a trial whose centralized cost is zero
        raise SystemExit(f"error: {exc}")
    except SweepTrialAborted as exc:
        rows, aborted = exc.rows, [f"error: {e}" for e in exc.aborted]
        if not rows:  # no trial completed: no file
            raise SystemExit("\n".join(aborted))
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "sweep.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_config_comment(cfg) + "\n")
        fh.write("K,mean_excess_pct,std_pct,trials,aborted\n")
        for K, mean, std, trials in rows:
            fh.write(f"{K},{_fmt(mean)},{_fmt(std)},{trials},{len(aborted)}\n")
    for K, mean, std, trials in rows:
        print(f"K={K:3d}: mean excess {mean:8.3f}%  std {std:.3f}%  ({trials} trials)")
    print(f"sweep written to {path}")
    for line in aborted:
        print(line, file=sys.stderr)
    return 1 if aborted else 0


def cmd_verify(args):
    try:
        suites = verify_mod.run_suites(args.level, n_jobs=args.jobs)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    all_ok = True
    for name, ok, detail in suites:
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: {detail}")
        all_ok &= ok
    return 0 if all_ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dmpc",
        description="Distributed model predictive consensus: ADMM flocking toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one closed-loop simulation")
    p_sim.add_argument("--config", required=True, help="scenario config path")
    p_sim.add_argument("--seed", type=int, help="override the RNG seed")
    p_sim.add_argument("--solver", help="admm, dual_decomp or centralized")
    p_sim.add_argument("--iters", type=int, help="override ADMM iteration budget")
    p_sim.add_argument("--out", help="override output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="iteration-budget sweep vs centralized")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--k-list", default="1,2,5,10,30",
                         help="comma-separated ADMM iteration budgets")
    p_sweep.add_argument("--trials", type=int, default=20)
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--out", help="override output directory")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel worker processes for trials")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run oracle and reproduction suites")
    p_verify.add_argument("level", nargs="?", default="fast", choices=("fast", "full"))
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
