"""Smoke test: every workload at a tiny size, untraced and traced.

    python3 bench/smoke.py

Checks that each run passes its own output checks, reports exactly the
metrics BENCHMARK.json names, and that the traced counts repeat exactly
when the same seed runs twice.  Exits non-zero on the first failure.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (needs the library on the path first)

COUNTS = ("bounds.lp_calls", "krawtchouk.kraw_eval_calls", "search.restarts_run",
          "core.pairs_compared", "constructions.words_built")


def _check(ok: bool, *context) -> None:
    if not ok:
        raise SystemExit(f"smoke: failed {context}")


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    for workload in ("table", "search", "verify"):
        counts = []
        for trace, seed in ((False, 1), (True, 2), (True, 2)):
            result = run.run(workload, seed, 0.05, trace, tiny=True)["result"]
            metrics = result["metrics"]
            _check(result["correct"] and result["failed"] == 0, workload, trace, result)
            _check(result["attempted"] >= 1, workload, trace)
            _check(set(metrics) == names[trace], workload, trace, set(metrics) ^ names[trace])
            _check(all(math.isfinite(m["value"]) for m in metrics.values()), workload, trace)
            if trace:
                counts.append({k: metrics[k]["value"] for k in COUNTS})
        _check(counts[0] == counts[1], workload, counts)
        print(f"smoke {workload}: ok ({counts[0]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
