"""The benchmark's own tests: seeded inputs, tiny smoke runs, the gate.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import inputs  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# -- seeded inputs ---------------------------------------------------------------------


def test_same_seed_same_inputs():
    assert inputs.fresh_texts(50, 3, "miss") == inputs.fresh_texts(50, 3, "miss")
    assert inputs.zipf_texts(16, 200, 3) == inputs.zipf_texts(16, 200, 3)
    a = inputs.coastal_catalog(40, 3)
    b = inputs.coastal_catalog(40, 3)
    assert a == b
    archive_a, held_a = inputs.messy_archive(30, 3, seed=3)
    archive_b, held_b = inputs.messy_archive(30, 3, seed=3)
    assert held_a == held_b
    assert inputs.render_files(archive_a, held_a) == inputs.render_files(
        archive_b, held_b
    )
    assert inputs.edit_schedule(archive_a, held_a, 12, 3, 2, 5) == (
        inputs.edit_schedule(archive_b, held_b, 12, 3, 2, 5)
    )


def test_other_seed_other_inputs():
    assert inputs.fresh_texts(20, 3, "miss") != inputs.fresh_texts(20, 4, "miss")
    assert [f.bbox for f in inputs.coastal_catalog(5, 3)] != [
        f.bbox for f in inputs.coastal_catalog(5, 4)
    ]


def test_miss_texts_are_distinct_and_parse():
    from repro.core.qparser import parse_query

    texts = inputs.fresh_texts(300, 9, "miss")
    assert len(set(texts)) == len(texts)
    queries = [parse_query(t) for t in texts]
    assert len(set(queries)) == len(queries)
    assert all(q.location is not None and q.variables for q in queries)
    timed = sum(q.interval is not None for q in queries)
    assert 0.3 < timed / len(queries) < 0.7


def test_edit_schedule_crosses_the_migration_threshold():
    archive, held = inputs.messy_archive(150, 4, seed=2)
    schedule = inputs.edit_schedule(archive, held, 10, 2, 5, 100)
    sizes = [len(r.edit_paths) for r in schedule]
    assert sizes.count(100) == 2 and sizes.count(5) == 8
    assert [r.add_path is not None for r in schedule[:3]] == [False, False, True]


def test_tail_leaves_ten_samples_beyond():
    values = [float(v) for v in range(1, 201)]
    percentile, value = workloads.tail(values)
    assert value == 190.0
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(95.0)


# -- tiny smoke runs -------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    done = bench("--workload", workload, "--seed", "5", "--seconds", "2",
                 "--trace", "0", "--tiny")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_prints_every_layer_and_guards_hold(workload):
    done = bench("--workload", workload, "--seed", "5", "--seconds", "2",
                 "--trace", "1", "--tiny")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name in declared:  # the human report names every layer too
        assert f"  {name} " in done.stdout
    value = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "search-miss":
        assert value["cache.hit_ratio"] <= 0.01
        assert value["score.rows"] > 0
    elif workload == "search-hot":
        assert value["cache.hit_ratio"] >= 0.99
        assert value["score.rows"] == 0
    else:
        assert value["refresh.delta_ratio"] > 0
        assert value["rerun.publish_ms"] > 0 and value["ingest.publish_s"] > 0
        assert value["publish_to_visible_ms"] > 0
    assert value["render.payload_ms"] > 0 and value["http.overhead_ms"] > 0
    assert value["http.handler_ms"] > 0
    # The socket and the client hold time no server span covers.
    assert value["unattributed_ms"] > 0
    trace = ROOT / ".bench_traces" / f"{workload}-seed5.jsonl"
    spans = [json.loads(line) for line in trace.read_text().splitlines()]
    assert {"qparser.parse", "serve.search", "engine.search"} <= {
        s["name"] for s in spans
    }


# -- the correctness gate ---------------------------------------------------------------


@pytest.mark.parametrize("workload", ["search-miss", "rerun-churn"])
def test_gate_fires_on_an_altered_reference_page(workload, capsys, monkeypatch):
    import run

    real_reference_page = workloads.reference_page

    def altered_reference_page(engine, text):
        page, total = real_reference_page(engine, text)
        altered = [(dataset_id, score + 1e-9) for dataset_id, score in page]
        return altered or [("altered", 1.0)], total

    monkeypatch.setattr(workloads, "reference_page", altered_reference_page)
    code = run.main(
        ["--workload", workload, "--seed", "5", "--seconds", "1", "--tiny"]
    )
    captured = capsys.readouterr()
    assert code != 0
    assert "MISMATCH" in captured.err
    assert last_json(captured.out)["correct"] is False


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "search-miss", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
