"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload table --seed 1 --seconds 20 --trace 0

Workloads are `table`, `search` and `verify` (see workloads.py).  With
`--trace 0` the run measures whole rounds until `--seconds` of op time have
passed and reports the end-to-end metrics; with `--trace 1` it runs a fixed
number of rounds, alternating untraced and traced ones, and reports the
per-layer metrics.  Outputs are checked after every round, outside the
timed region.  Human-readable lines come first; the last line of standard
output is one JSON object.  Run it from anywhere inside a checkout that has
`src/twodist`; it exits with code 2 when the library is missing.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 7  # fresh processes timed for setup_s; the median is reported
SETUP_REF_RUNS = 40  # reference kernel runs that measure each one's speed

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def _use_library():
    if not (SRC / "twodist" / "__init__.py").is_file():
        print(f"bench: no twodist package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _probe_setup(name: str, seed: int) -> None:
    """Child process: time import and warm-up until the first op can run."""
    start = time.perf_counter()
    _use_library()
    import timing
    import workloads

    workloads.set_up(name, seed)
    elapsed = time.perf_counter() - start
    print(elapsed, timing.reference_seconds(SETUP_REF_RUNS))


def _setup_seconds(name: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, each at the reference speed it measured."""
    import timing

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        elapsed, ref = map(float, done.stdout.split()[-2:])
        times.append(elapsed * timing.KERNELS[timing.python_kernel] / ref)
    return times


def _percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def _run_round(workload, items, rec, traced=contextlib.nullcontext()) -> int:
    """Run a round's ops (inside `traced`), then check them; returns failures."""
    with traced:
        records = [workload.run(item, rec) for item in items]
    return sum(workload.failures(r) for r in records)


def _end_to_end(workload, seconds: float, setup: list[float]):
    """Whole rounds until `seconds` of op time have passed."""
    import timing

    rec = timing.Recorder(workload.kernel)
    rounds = failed = 0
    for items in workload.rounds():
        failed += _run_round(workload, items, rec)
        rounds += 1
        if rec.timed_s >= seconds:
            break
    attempted = len(rec.latencies)
    scale = rec.scale
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": attempted / (rec.timed_s * scale),
        "op_p50_ms": statistics.median(rec.latencies) * scale * 1000,
        "op_p99_ms": _percentile(rec.latencies, 99) * scale * 1000,
        "ok_frac": 1 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    above = sum(x * scale * 1000 > metrics["op_p99_ms"] for x in rec.latencies)
    lines = [
        f"  {rounds} rounds, {attempted} ops in {rec.timed_s:.2f} s of op time; "
        f"times below are scaled by {scale:.4f} to the reference speed "
        f"({rec.probes} reference probes)",
        f"  raw ops_per_s {attempted / rec.timed_s:.3f} 1/s, "
        f"raw op_p50_ms {statistics.median(rec.latencies) * 1000:.3f} ms",
        f"  setup_s      {metrics['setup_s']:.4f} s   median of {len(setup)} fresh processes",
        f"  ops_per_s    {metrics['ops_per_s']:.3f} 1/s",
        f"  op_p50_ms    {metrics['op_p50_ms']:.3f} ms  of {attempted} op samples",
        f"  op_p99_ms    {metrics['op_p99_ms']:.3f} ms  {above} samples above it",
        f"  fail_frac    {failed / attempted:.4f}  ({failed} of {attempted} ops failed)",
        f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB",
    ]
    return metrics, END_TO_END, attempted, failed, lines


def _per_layer(workload, seconds: float, span_file: Path):
    """A fixed number of rounds, alternating untraced and traced ones."""
    import spans
    import timing

    tracer = spans.Tracer()
    plain = timing.Recorder(workload.kernel)
    traced = timing.Recorder(workload.kernel, tracer)
    count = max(2, 2 * math.ceil(seconds / (2 * workload.round_s)))
    failed = 0
    for i, items in zip(range(count), workload.rounds()):
        if i % 2:
            failed += _run_round(workload, items, traced, spans.instrument(tracer))
        else:
            failed += _run_round(workload, items, plain)
    attempted = len(plain.latencies) + len(traced.latencies)
    plain_rate = len(plain.latencies) / (plain.timed_s * plain.scale)
    traced_rate = len(traced.latencies) / (traced.timed_s * traced.scale)
    overhead = plain_rate / traced_rate - 1
    metrics = spans.layer_metrics(tracer.spans, traced.scale, overhead)
    units = {k: v[0] for k, v in spans.LAYER_METRICS.items()}
    span_file.parent.mkdir(exist_ok=True)
    tracer.write(span_file)
    lines = [
        f"  {count} rounds; untraced {len(plain.latencies)} ops at {plain_rate:.3f} 1/s, "
        f"traced {len(traced.latencies)} ops at {traced_rate:.3f} 1/s (overhead {overhead:.3f})",
        f"  {len(tracer.spans)} spans written to {span_file.relative_to(HERE.parent)}",
        f"  share of traced op time ({traced.timed_s:.2f} s raw), raw self time per span name:",
    ]
    own = sorted(spans.self_times(tracer.spans).items(), key=lambda kv: -kv[1])
    for span_name, secs in own:
        lines.append(f"    {span_name:28s} {secs:9.4f} s  {secs / traced.timed_s:7.2%}")
    rest = traced.timed_s - sum(secs for _, secs in own)
    lines.append(f"    {'(outside any span)':28s} {rest:9.4f} s  {rest / traced.timed_s:7.2%}")
    lines.append("  per-layer metrics (value unit; end-to-end metric it should move):")
    for key, (unit, _, moves) in spans.LAYER_METRICS.items():
        lines.append(f"    {key:32s} {metrics[key]:<14.6g} {unit:6s} {moves}")
    lines.append(f"  fail_frac    {failed / attempted:.4f}  ({failed} of {attempted} ops failed)")
    return metrics, units, attempted, failed, lines


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; returns the result object and the lines to print."""
    import workloads

    workload = workloads.set_up(name, seed, tiny)
    if trace:
        span_file = OUT / f"spans-{name}-seed{seed}.jsonl"
        metrics, units, attempted, failed, lines = _per_layer(workload, seconds, span_file)
    else:
        setup = _setup_seconds(name, seed)
        metrics, units, attempted, failed, lines = _end_to_end(workload, seconds, setup)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    header = f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}"
    return {"result": result, "lines": [header, *lines]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("table", "search", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _probe_setup(args.workload, args.seed)
        return 0
    _use_library()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
