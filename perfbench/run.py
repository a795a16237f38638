"""Benchmark of the dmpc closed loop: one workload per call.

    python3 perfbench/run.py --workload stock-path5 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`. With `--trace 0` the last line of standard output is a JSON object
holding every end-to-end metric, with `--trace 1` every per-layer metric.
Earlier lines carry the host stamp, sample counts, the deterministic
quality metrics, per-layer metrics of layers that run on this workload
only, the metrics that could not be measured (`absent:`), output hashes and
any failed check. A workload's trial count is sized for 40 seconds and
scales with `--seconds`; `--smoke` runs one trial of a couple of steps
instead, for the benchmark's own tests.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import host  # noqa: E402  (pins BLAS threads before numpy is imported)

host.pin_blas_threads()

SPAN_DIR = ".bench_out"


class UsageError(Exception):
    """The checkout or the arguments do not allow a run."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one trial of a couple of steps")
    return ap.parse_args(argv)


def fmt(value, unit):
    return f"{value:.6g} {unit}"


def run(args):
    """Run one workload; returns (Result, host stamp). Imports the program."""
    src = ROOT / "src"
    if not (src / "dmpc" / "__init__.py").is_file():
        raise UsageError(f"no dmpc sources under {src}")
    sys.path.insert(0, str(src))
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise UsageError(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    wl = wl.smoke() if args.smoke else wl.sized(args.seconds)
    stamp = host.stamp()
    if args.trace:
        os.makedirs(ROOT / SPAN_DIR, exist_ok=True)
        spans = ROOT / SPAN_DIR / f"spans-{wl.name}-seed{args.seed}.csv"
        result = harness.run_traced(wl, args.seed, spans_path=spans)
        result.info["spans_file"] = str(spans.relative_to(ROOT))
    else:
        result = harness.run_untraced(wl, args.seed)
    return result, stamp


def report(args, result, stamp):
    import harness

    catalogue = harness.PER_LAYER if args.trace else harness.END_TO_END
    print("host: " + json.dumps(stamp))
    print(f"workload: {args.workload} seed={args.seed} trace={args.trace}")
    metrics = {k: result.metrics[k] for k in catalogue if k in result.metrics}
    for name, value in metrics.items():
        print(f"  {name} = {fmt(value, catalogue[name][0])}")
    for name, value in result.info["extra"].items():
        print(f"  {name} = {fmt(value, harness.UNITS[name])} (not in the result line)")
    if result.absent:
        print("absent: " + json.dumps(result.absent))
    print("info: " + json.dumps(result.info))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": catalogue[k][0]} for k, v in metrics.items()},
    }))


def main(argv=None):
    args = parse_args(argv)
    try:
        result, stamp = run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(args, result, stamp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
