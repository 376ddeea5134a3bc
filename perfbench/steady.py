"""Steadiness check: run each workload ten times, one seed per run.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py

For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - started
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=3001)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [
            one_run(workload, args.first_seed + i, spec["run_seconds"])
            for i in range(args.runs)
        ]
        record = {
            name: summarize([r["metrics"][name]["value"] for r in runs])
            for name in bounds
        }
        longest = max(r["wall_s"] for r in runs)
        print(
            f"{workload} ({args.runs} runs, seeds {args.first_seed}.., "
            f"longest run {longest:.1f} s)"
        )
        for name in bounds:
            stats = record[name]
            print(
                f"  {name:24s} median {stats['median']:10.3f}  "
                f"q1 {stats['q1']:10.3f}  q3 {stats['q3']:10.3f}  "
                f"spread {stats['spread']:6.3f}  bound {bounds[name]}"
            )
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
