"""The repository's benchmark: one command per workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload search-miss --seed 1 --seconds 25 --trace 0

Workloads: ``search-miss``, ``search-hot``, ``rerun-churn`` (see
``perfbench/NOTES.md``).  With ``--trace 0`` the last line of standard
output is a JSON object with every end-to-end metric; with ``--trace 1``
it carries every per-layer metric instead, and the spans are written as
JSONL under ``.bench_traces/``.  A page that differs from the in-process
reference, or a workload guard that does not hold, makes the result read
``"correct": false`` and the run exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import quantile  # noqa: E402

WORKLOADS = ("search-miss", "search-hot", "rerun-churn")


def declared_metrics() -> tuple[dict, dict]:
    """(end-to-end, per-layer) name -> unit, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def run(args: argparse.Namespace) -> workloads.RunResult:
    sizes = workloads.TINY if args.tiny else workloads.FULL
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "rerun-churn":
            return workloads.run_churn(
                args.seed, args.seconds, args.trace, sizes, str(workdir)
            )
        return workloads.run_search(
            args.workload.split("-")[1], args.seed, args.seconds, args.trace,
            sizes, str(workdir),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="small inputs, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    end_to_end, per_layer = declared_metrics()
    result = run(args)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in result.notes:
        print(f"  {note}")
    for name, (value, unit) in result.end_to_end.items():
        print(f"  {name:36s} {value:12.4f} {unit}")
    if args.trace:
        print("per-layer (p50, p95, count):")
        for name, unit in per_layer.items():
            values = result.layers.get(name, [])
            if values:
                print(
                    f"  {name:36s} p50 {statistics.median(values):12.4f} "
                    f"{unit:6s} p95 {quantile(values, 0.95):12.4f}  n={len(values)}"
                )
            else:
                print(f"  {name:36s} {'n/a':>12s}   (not exercised)")
        traces = ROOT / ".bench_traces"
        traces.mkdir(exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.jsonl"
        result.tracer.write_jsonl(str(path))
        print(f"spans: {len(result.tracer.spans)} -> {path.relative_to(ROOT)}")
    undeclared = sorted(set(result.layers) - set(per_layer))
    if undeclared:
        print(f"layers missing from BENCHMARK.json: {undeclared}", file=sys.stderr)
        return 1
    for message in result.mismatches:
        print(f"MISMATCH {message}", file=sys.stderr)

    if args.trace:
        metrics = {
            name: {
                "value": statistics.median(result.layers.get(name) or [0.0]),
                "unit": unit,
            }
            for name, unit in per_layer.items()
        }
    else:
        metrics = {}
        for name, unit in end_to_end.items():
            if name in result.end_to_end:
                metrics[name] = {"value": result.end_to_end[name][0], "unit": unit}
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
