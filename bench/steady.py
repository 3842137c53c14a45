"""Repeat a workload over several seeds and report how much each metric spreads.

    python3 bench/steady.py --workload table --seeds 1-10
    python3 bench/steady.py --workload verify --seeds 3,3 --trace 1

Each seed is one run of run.py in a fresh process, one after another.  For
every metric it prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`), the spread (q3 - q1) / median, and,
for end-to-end metrics, that spread as a share of the metric's bound in
BENCHMARK.json.  Giving one seed twice shows whether counts repeat exactly.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,3,7'")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} ops failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    print(f"\n{args.workload}: {len(parse_seeds(args.seeds))} runs of {seconds} s")
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'/bound':>7s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        share = f"{spread / bounds[name]:7.2f}" if name in bounds else ""
        print(f"{name:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {share}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
