"""Perf benchmark: the query-serving fast path vs the naive full scan.

Generates a large synthetic metadata catalog, then measures ranked-search
latency along the axes the fast path optimizes:

* **naive** — score every dataset with :func:`score_feature`, sort the
  full result list (the pre-fast-path cost model: per-feature term
  expansion, no memoization, no pruning, no heap, no cache),
* **cold**  — the fast path (one columnar pass over the frozen facet
  columns) with an empty query cache,
* **object-cold** — the test oracle of ``tests/search_oracle.py``: the
  object scorer's bounded top-k over every feature object, which no
  runtime path runs; cold / object-cold isolates the columnar win,
* **warm**  — the same query repeated (version-keyed cache hit),
* **post-edit** — one dataset mutated, the query re-issued (cache
  miss + one catalog snapshot and its columnar freeze).

The pruned-exactness contract is asserted inside the run: the engine's
results and the object oracle's must be identical (ids, scores, order)
to the naive scan for every benchmark query, with ``total_matches``
equal to the naive count of datasets scoring above zero; a mismatch
exits non-zero, which is what CI's ``--quick`` smoke invocation gates
on.  The report's ``exactness_gate`` block records how many rows the
columnar scan's array pass and scalar rescore handled during the gate,
so CI can check the gate covered the vectorised stage.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_search.py          # full
    PYTHONPATH=src python benchmarks/bench_perf_search.py --quick  # CI

The full run writes ``BENCH_search.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT) not in sys.path:  # the object oracle lives in tests/
    sys.path.insert(0, str(REPO_ROOT))

from repro.catalog import DatasetFeature, MemoryCatalog, VariableEntry
from repro.core import Query, SearchEngine, VariableTerm, score_feature
from repro.geo import BoundingBox, GeoPoint, TimeInterval
from repro.hierarchy import vocabulary_hierarchy
from repro.obs import Telemetry, use_telemetry
from tests.search_oracle import object_search

SECONDS_PER_DAY = 86_400.0
EPOCH_2008 = 1_199_145_600.0  # 2008-01-01T00:00:00Z

#: Realistic-ish variable-name pool: canonical names plus the suffixed,
#: abbreviated and misspelled variants archives accumulate — repeats
#: across datasets are what the per-query name-similarity memo exploits.
VARIABLE_POOL = [
    "water_temperature", "water_temp", "watertemperature",
    "air_temperature", "air_temp", "air_temperatrue",
    "salinity", "salinity_psu", "salnity",
    "dissolved_oxygen", "oxygen", "do_mg_l",
    "chlorophyll", "chlorophyll_a", "chl_a",
    "fluorescence", "fluorescence_375nm", "fluores375",
    "turbidity", "turbidity_ntu",
    "ph", "ph_total",
    "conductivity", "specific_conductivity",
    "pressure", "water_pressure",
    "wind_speed", "wind_gust",
    "wave_height", "significant_wave_height",
    "depth", "sensor_depth",
    "nitrate", "nitrate_umol",
    "current_speed", "current_direction",
]


def synthetic_catalog(n_datasets: int, seed: int) -> MemoryCatalog:
    """A catalog of ``n_datasets`` stations along a synthetic coast."""
    rng = random.Random(seed)
    catalog = MemoryCatalog()
    for i in range(n_datasets):
        lat = rng.uniform(42.0, 49.0)
        lon = rng.uniform(-127.0, -121.0)
        d_lat = rng.uniform(0.0, 0.3)
        d_lon = rng.uniform(0.0, 0.3)
        start = EPOCH_2008 + rng.uniform(0.0, 5 * 365) * SECONDS_PER_DAY
        length = rng.uniform(5.0, 400.0) * SECONDS_PER_DAY
        variables = []
        for name in rng.sample(VARIABLE_POOL, rng.randint(4, 8)):
            lo = rng.uniform(-5.0, 20.0)
            hi = lo + rng.uniform(0.5, 25.0)
            variables.append(
                VariableEntry.from_written(
                    name, "unit", rng.randint(50, 5000),
                    lo, hi, (lo + hi) / 2.0, (hi - lo) / 4.0,
                )
            )
        catalog.upsert(
            DatasetFeature(
                dataset_id=f"station_{i:05d}",
                title=f"Synthetic station {i}",
                platform="station",
                file_format="csv",
                bbox=BoundingBox(lat, lon, lat + d_lat, lon + d_lon),
                interval=TimeInterval(start, start + length),
                row_count=rng.randint(100, 10_000),
                source_directory=f"stations/{i:05d}",
                variables=variables,
            )
        )
    return catalog


def synthetic_queries(n_queries: int, seed: int) -> list[Query]:
    """Refinement-session-shaped queries: location + time + variables."""
    rng = random.Random(seed)
    queries = []
    for __ in range(n_queries):
        start = EPOCH_2008 + rng.uniform(0.0, 4 * 365) * SECONDS_PER_DAY
        terms = [VariableTerm(rng.choice(VARIABLE_POOL))]
        if rng.random() < 0.5:
            lo = rng.uniform(0.0, 10.0)
            terms.append(
                VariableTerm(
                    rng.choice(VARIABLE_POOL), low=lo, high=lo + 8.0
                )
            )
        queries.append(
            Query(
                location=GeoPoint(
                    rng.uniform(43.0, 48.0), rng.uniform(-126.0, -122.0)
                ),
                interval=TimeInterval(
                    start, start + rng.uniform(30.0, 120.0) * SECONDS_PER_DAY
                ),
                variables=tuple(terms),
            )
        )
    return queries


def naive_search(catalog, query, hierarchy, config, limit):
    """The pre-fast-path reference: score all, sort all, truncate.

    Returns the page and the match count (datasets scoring above zero).
    """
    results = []
    for feature in catalog:
        breakdown = score_feature(
            query, feature, hierarchy=hierarchy, config=config
        )
        if breakdown.total <= 0.0 and not query.is_empty:
            continue
        results.append((breakdown.total, feature.dataset_id))
    results.sort(key=lambda r: (-r[0], r[1]))
    return results[:limit], len(results)


def median_time(fn, repeats: int) -> float:
    """Median wall-clock seconds of ``fn()`` over ``repeats`` calls."""
    samples = []
    for __ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def run(n_datasets: int, n_queries: int, repeats: int, limit: int) -> dict:
    hierarchy = vocabulary_hierarchy()
    print(f"generating {n_datasets} synthetic datasets ...")
    catalog = synthetic_catalog(n_datasets, seed=7)
    queries = synthetic_queries(n_queries, seed=31)

    engine = SearchEngine(catalog, hierarchy=hierarchy)
    config = engine.config

    def oracle_search(query):
        return object_search(
            catalog, query, limit=limit, hierarchy=hierarchy, config=config
        )

    # -- exactness gate ----------------------------------------------------
    print("checking pruned-exactness against the naive scan ...")
    mismatches = 0
    gate_telemetry = Telemetry()
    for query in queries:
        with use_telemetry(gate_telemetry):
            fast_results = engine.search(query, limit=limit)
        object_results = oracle_search(query)
        fast = [(r.score, r.dataset_id) for r in fast_results]
        via_objects = [(r.score, r.dataset_id) for r in object_results]
        naive, naive_matches = naive_search(
            catalog, query, hierarchy, config, limit
        )
        if (
            fast != naive
            or via_objects != naive
            or [r.breakdown for r in fast_results]
            != [r.breakdown for r in object_results]
            or fast_results.total_matches != naive_matches
            or object_results.total_matches != naive_matches
        ):
            mismatches += 1
            print(f"  MISMATCH for {query.describe()!r}")
            print(f"    columnar: {fast[:3]} ... "
                  f"({fast_results.total_matches} matches)")
            print(f"    object  : {via_objects[:3]} ... "
                  f"({object_results.total_matches} matches)")
            print(f"    naive   : {naive[:3]} ... ({naive_matches} matches)")
    if mismatches:
        print(f"exactness FAILED on {mismatches}/{len(queries)} queries")
        return {"exactness_ok": False, "mismatches": mismatches}
    counters = gate_telemetry.snapshot()["counters"]
    exactness_gate = {
        "queries": len(queries),
        "rows_approximated": counters.get("scan.rows_approximated", 0),
        "rows_rescored": counters.get("scan.rows_rescored", 0),
    }

    # -- latency -----------------------------------------------------------
    def bench_naive():
        for query in queries:
            naive_search(catalog, query, hierarchy, config, limit)

    def bench_cold():
        engine.cache.clear()
        for query in queries:
            engine.search(query, limit=limit)

    def bench_object_cold():
        for query in queries:
            oracle_search(query)

    def bench_warm():
        for query in queries:
            engine.search(query, limit=limit)

    print("timing naive / cold / object-cold / warm ...")
    naive_s = median_time(bench_naive, repeats)
    cold_s = median_time(bench_cold, repeats)
    object_cold_s = median_time(bench_object_cold, repeats)
    bench_warm()  # populate the cache
    warm_s = median_time(bench_warm, repeats)

    # -- post-edit re-search ----------------------------------------------
    def edit_one(offset: int) -> None:
        feature = catalog.get("station_00000")
        catalog.upsert(
            replace(
                feature,
                bbox=BoundingBox(
                    44.0 + 0.001 * offset,
                    -124.0,
                    44.2 + 0.001 * offset,
                    -123.8,
                ),
            )
        )

    edits = [0]

    def bench_post_edit():
        edit_one(edits[0])
        edits[0] += 1
        for query in queries:
            engine.search(query, limit=limit)

    def bench_post_edit_naive():
        edit_one(edits[0])
        edits[0] += 1
        for query in queries:
            naive_search(catalog, query, hierarchy, config, limit)

    print("timing post-edit re-search ...")
    post_edit_s = median_time(bench_post_edit, repeats)
    post_edit_naive_s = median_time(bench_post_edit_naive, repeats)

    per_query = 1000.0 / len(queries)
    result = {
        "datasets": n_datasets,
        "queries": len(queries),
        "limit": limit,
        "repeats": repeats,
        "exactness_ok": True,
        "exactness_gate": exactness_gate,
        "naive_ms_per_query": naive_s * per_query,
        "cold_ms_per_query": cold_s * per_query,
        "object_cold_ms_per_query": object_cold_s * per_query,
        "warm_ms_per_query": warm_s * per_query,
        "post_edit_ms_per_query": post_edit_s * per_query,
        "post_edit_naive_ms_per_query": post_edit_naive_s * per_query,
        "cold_speedup": naive_s / cold_s if cold_s else float("inf"),
        "columnar_speedup": (
            object_cold_s / cold_s if cold_s else float("inf")
        ),
        "warm_speedup": naive_s / warm_s if warm_s else float("inf"),
        "post_edit_speedup": (
            post_edit_naive_s / post_edit_s if post_edit_s else float("inf")
        ),
        "cache": engine.cache.stats(),
    }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small catalog, exactness-focused smoke run (CI)",
    )
    parser.add_argument("--datasets", type=int, default=None)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--limit", type=int, default=10)
    parser.add_argument(
        "--output", default=None,
        help="result JSON path (default: BENCH_search.json at the repo "
        "root for full runs, BENCH_search_quick.json for --quick)",
    )
    args = parser.parse_args(argv)

    n_datasets = args.datasets or (600 if args.quick else 5000)
    n_queries = args.queries or (6 if args.quick else 8)
    repeats = args.repeats or (2 if args.quick else 3)

    result = run(n_datasets, n_queries, repeats, args.limit)
    result["quick"] = args.quick

    output = args.output or str(
        REPO_ROOT
        / ("BENCH_search_quick.json" if args.quick else "BENCH_search.json")
    )
    with open(output, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {output}")

    if not result["exactness_ok"]:
        return 1
    print(
        f"naive     {result['naive_ms_per_query']:9.2f} ms/query\n"
        f"cold      {result['cold_ms_per_query']:9.2f} ms/query "
        f"({result['cold_speedup']:.1f}x naive, "
        f"{result['columnar_speedup']:.1f}x vs object scan)\n"
        f"obj-cold  {result['object_cold_ms_per_query']:9.2f} ms/query\n"
        f"warm      {result['warm_ms_per_query']:9.2f} ms/query "
        f"({result['warm_speedup']:.1f}x)\n"
        f"post-edit {result['post_edit_ms_per_query']:9.2f} ms/query "
        f"({result['post_edit_speedup']:.1f}x vs naive re-search)"
    )
    if not args.quick:
        # The acceptance floor for the perf trajectory; quick CI runs on
        # tiny catalogs are too noisy to gate on speedups.
        if result["warm_speedup"] < 10.0 or result["cold_speedup"] < 1.5:
            print("speedup below acceptance floor (warm 10x, cold 1.5x)")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
