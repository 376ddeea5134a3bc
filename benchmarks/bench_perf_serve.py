"""Perf benchmark: concurrent query serving under closed-loop load.

Exercises the serving stack end to end on a large synthetic catalog:

* **exactness** — the service's pages (snapshot + shared cache), on a
  cache miss and again on a hit, must be identical (ids, scores, order)
  to a single-threaded engine over the same catalog, for every
  benchmark query,
* **scaling** — closed-loop client threads with think time replay a
  Zipf-weighted workload at increasing concurrency; the report captures
  QPS and p50/p95/p99 latency per client count,
* **http scaling** — the same closed loop over real sockets: each
  client owns a kept-alive connection to a
  :class:`~repro.serve.http.SearchHTTPServer` and the measured path
  includes the qparser, JSON encoding and the socket round trip,
* **churn** — in-process and socket load while a background writer
  keeps publishing atomic catalog batches and refreshing the service's
  snapshot through the stamped-delta O(changed) path; requests must
  keep completing (zero errors), versions never regress, and staleness
  stays <= 1,
* **refresh cost** — refresh wall-clock versus publish-delta size
  (1, 10, 1% and 10% of the catalog), delta path against the full
  rebuild, plus first-query-after-swap latency with warming on vs off;
  the delta page must match a cold engine exactly, and full runs gate
  the O(changed) claim (a 1-dataset delta refresh must undercut the
  full rebuild, and cost must grow with delta size),
* **observability overhead** — the same socket workload against a
  telemetry-off service vs a telemetry-on one (request tracing, span
  stamping, SLO windows, flight recorder, plus a ``/metrics`` scrape),
  interleaved runs and medians; the layer must cost <= 5% QPS, the
  same gate the ingest benchmark holds telemetry to.

Interpretation notes: the in-process phases run single-process under
the GIL, so the scaling phase measures the *closed-loop* model — each
client thinks between requests (``think_ms``), so added clients overlap
their think time and throughput rises until execution slots saturate.
That is the latency-hiding concurrency a portal front door actually
provides; it is not a claim of parallel CPU speedup.  The report
records ``cpu_count`` alongside its numbers.

Gates (full runs): the in-process scaling factor (QPS at 8 clients >
2x QPS at 1 client), zero errors everywhere, zero HTTP 5xx, churn
staleness <= 1, zero version regressions, and observability overhead
<= 5%.  Quick runs gate on exactness and on nothing having been
dropped (overhead is recorded, not gated — tiny runs are too noisy).

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_serve.py          # full
    PYTHONPATH=src python benchmarks/bench_perf_serve.py --quick  # CI

The full run writes ``BENCH_serve.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_perf_search import (
    VARIABLE_POOL,
    synthetic_catalog,
    synthetic_queries,
)

from repro.core import SearchEngine
from repro.hierarchy import vocabulary_hierarchy
from repro.serve import (
    SearchHTTPServer,
    SearchService,
    ServeConfig,
    run_load,
    run_load_http,
)
from repro.wrangling.state import PublishDelta


def publish_round(catalog, ids, round_number):
    """One wrangler publish: rewrite ``ids`` as ONE atomic batch (one
    version bump) and return the stamped delta that proves it."""
    batch = [
        replace(catalog.get(dataset_id), row_count=100 + round_number)
        for dataset_id in ids
    ]
    base = catalog.version
    catalog.apply_batch(batch, ())
    return PublishDelta(
        upserted=list(ids),
        base_version=base,
        published_version=catalog.version,
    )


def page(results):
    return [(r.dataset_id, r.score) for r in results]


def synthetic_query_texts(n_queries: int, seed: int) -> list[str]:
    """qparser texts shaped like :func:`synthetic_queries` (socket mode
    sends query *text*, so the measured path includes the parser)."""
    rng = random.Random(seed)
    texts = []
    for _ in range(n_queries):
        name = rng.choice(VARIABLE_POOL)
        lat = rng.uniform(43.0, 48.0)
        lon = rng.uniform(-126.0, -122.0)
        texts.append(
            f"near {lat:.3f}, {lon:.3f} within 150 km with {name}"
        )
    return texts


def check_exactness(catalog, queries, hierarchy, limit):
    """Serial engine vs the service: same pages."""
    serial = SearchEngine(catalog, hierarchy=hierarchy, cache=False)
    expected = [page(serial.search(q, limit=limit)) for q in queries]

    mismatches = 0
    config = ServeConfig(max_concurrency=4, queue_depth=16)
    with SearchService(
        catalog, hierarchy=hierarchy, config=config
    ) as service:
        for query, want in zip(queries, expected):
            # Twice: a cache miss and then a cache hit must both agree.
            for _ in range(2):
                got = page(service.search(query, limit=limit).results)
                if got != want:
                    mismatches += 1
                    print(f"  SERVICE MISMATCH for {query.describe()!r}")
    return mismatches


def scaling_phase(catalog, queries, hierarchy, client_counts,
                  requests_per_client, think_seconds, limit, seed):
    """Closed-loop load at each client count; fresh service per run."""
    rows = {}
    for clients in client_counts:
        config = ServeConfig(
            max_concurrency=max(8, clients), queue_depth=4 * clients
        )
        with SearchService(
            catalog, hierarchy=hierarchy, config=config
        ) as service:
            report = run_load(
                service,
                queries,
                clients=clients,
                requests_per_client=requests_per_client,
                think_seconds=think_seconds,
                limit=limit,
                seed=seed,
            )
        rows[str(clients)] = {
            "qps": report.qps,
            "completed": report.completed,
            "rejected": report.rejected,
            "errors": report.errors,
            "latency_p50_ms": report.latency_p50 * 1000.0,
            "latency_p95_ms": report.latency_p95 * 1000.0,
            "latency_p99_ms": report.latency_p99 * 1000.0,
            "latency_mean_ms": report.latency_mean * 1000.0,
        }
        print(
            f"  {clients:2d} clients: {report.qps:8.1f} qps  "
            f"p50 {report.latency_p50 * 1000:6.2f} ms  "
            f"p99 {report.latency_p99 * 1000:6.2f} ms  "
            f"rejected {report.rejected}"
        )
    return rows


def churn_phase(catalog, queries, hierarchy, clients, requests_per_client,
                think_seconds, limit, seed):
    """Serve under concurrent re-publishing: atomic batches + refresh."""
    config = ServeConfig(max_concurrency=max(8, clients),
                         queue_depth=4 * clients)
    ids = catalog.dataset_ids()[:16]
    stop = threading.Event()
    publishes = [0]

    with SearchService(
        catalog, hierarchy=hierarchy, config=config
    ) as service:

        def writer() -> None:
            # A wrangler in a loop: each round rewrites a batch of
            # datasets as ONE apply_batch (one version bump), then
            # hands the service the stamped delta so the refresh is
            # O(changed) instead of a full rebuild.
            round_number = 0
            while not stop.is_set():
                round_number += 1
                delta = publish_round(catalog, ids, round_number)
                service.refresh(delta=delta)
                publishes[0] += 1
                time.sleep(0.005)

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            report = run_load(
                service,
                queries,
                clients=clients,
                requests_per_client=requests_per_client,
                think_seconds=think_seconds,
                limit=limit,
                seed=seed + 1,
                live_version=lambda: catalog.version,
            )
        finally:
            stop.set()
            thread.join(timeout=10.0)
        refreshes = service.telemetry.counter("serve.snapshot_refreshes")
        delta_applied = service.telemetry.counter("refresh.delta_applied")
        full_rebuilds = service.telemetry.counter("refresh.full_rebuilds")

    return {
        "publishes": publishes[0],
        "refresh_delta_applied": delta_applied,
        "refresh_full_rebuilds": full_rebuilds,
        "completed": report.completed,
        "rejected": report.rejected,
        "errors": report.errors,
        "qps": report.qps,
        "latency_p99_ms": report.latency_p99 * 1000.0,
        "snapshot_versions_served": len(report.snapshot_versions),
        "max_staleness": report.max_staleness,
        "snapshot_refreshes": refreshes,
    }


def refresh_cost_phase(catalog, queries, hierarchy, limit, rounds=5):
    """Refresh wall-clock vs publish-delta size, delta path vs full.

    For each delta size, three services are measured over ``rounds``
    publishes each: the full-rebuild path (delta withheld), the pure
    stamped-delta path (warming off, so the timing is the O(changed)
    rebuild alone), and the delta path with warming on (the production
    configuration — its refresh additionally pre-executes the hottest
    queries *before* the swap, which is the cost that buys the warm
    first-query latency).  ``first_query_*_ms`` is the latency of the
    first request admitted after the swap — cold pays the scan, warm
    hits the pre-executed cache entry.  The delta-refreshed page is
    checked against a cold serial engine after the last round
    (``page_mismatches`` gates).
    """
    import statistics

    n = len(catalog)
    sizes = sorted({1, 10, max(1, n // 100), max(1, n // 10)})
    ids_all = catalog.dataset_ids()
    hot = queries[0]
    rows = {}
    round_number = [10_000]  # distinct row_counts from the churn phases

    def measure(service, ids, use_delta):
        refresh_times, first_query_times = [], []
        for _ in range(rounds):
            round_number[0] += 1
            delta = publish_round(catalog, ids, round_number[0])
            started = time.perf_counter()
            service.refresh(delta=delta if use_delta else None)
            refresh_times.append(time.perf_counter() - started)
            started = time.perf_counter()
            service.search(hot, limit=limit)
            first_query_times.append(time.perf_counter() - started)
        return (
            statistics.median(refresh_times) * 1000.0,
            statistics.median(first_query_times) * 1000.0,
        )

    mismatches = 0
    cold_config = ServeConfig(
        max_concurrency=4, queue_depth=16, warm_queries=0
    )
    warm_config = ServeConfig(max_concurrency=4, queue_depth=16)
    for size in sizes:
        ids = ids_all[:size]
        with SearchService(
            catalog, hierarchy=hierarchy, config=cold_config
        ) as service:
            for query in queries:
                service.search(query, limit=limit)
            full_ms, first_cold_ms = measure(service, ids, use_delta=False)
        with SearchService(
            catalog, hierarchy=hierarchy, config=cold_config
        ) as service:
            for query in queries:
                service.search(query, limit=limit)
            delta_ms, _ = measure(service, ids, use_delta=True)
            applied = service.telemetry.counter("refresh.delta_applied")
            refrozen = service.telemetry.counter("columnar.rows_refrozen")
            reused = service.telemetry.counter("columnar.rows_reused")
        with SearchService(
            catalog, hierarchy=hierarchy, config=warm_config
        ) as service:
            for query in queries:
                service.search(query, limit=limit)  # seed the hotness ring
            warm_refresh_ms, first_warm_ms = measure(
                service, ids, use_delta=True
            )
            # The O(changed) page must still be the exact page.
            serial = SearchEngine(catalog, hierarchy=hierarchy, cache=False)
            for query in queries:
                want = page(serial.search(query, limit=limit))
                got = page(service.search(query, limit=limit).results)
                if got != want:
                    mismatches += 1
                    print(f"  REFRESH MISMATCH for {query.describe()!r}")
        rows[str(size)] = {
            "full_refresh_ms": full_ms,
            "delta_refresh_ms": delta_ms,
            "warm_refresh_ms": warm_refresh_ms,
            "first_query_cold_ms": first_cold_ms,
            "first_query_warm_ms": first_warm_ms,
            "delta_applied": applied,
            "rows_refrozen": refrozen,
            "rows_reused": reused,
        }
        print(
            f"  delta {size:4d}: refresh {delta_ms:7.2f} ms "
            f"(full {full_ms:7.2f} ms, warmed {warm_refresh_ms:7.2f} ms)  "
            f"first query warm {first_warm_ms:6.2f} ms / "
            f"cold {first_cold_ms:6.2f} ms"
        )
    return {"sizes": sizes, "rounds": rounds,
            "page_mismatches": mismatches, "rows": rows}


def _http_row(report) -> dict:
    return {
        "qps": report.qps,
        "completed": report.completed,
        "rejected": report.rejected,
        "errors": report.errors,
        "latency_p50_ms": report.latency_p50 * 1000.0,
        "latency_p95_ms": report.latency_p95 * 1000.0,
        "latency_p99_ms": report.latency_p99 * 1000.0,
        "latency_mean_ms": report.latency_mean * 1000.0,
        "status_counts": report.status_counts,
        "version_regressions": report.version_regressions,
    }


def http_scaling_phase(catalog, texts, hierarchy, client_counts,
                       requests_per_client, think_seconds, limit, seed):
    """Closed-loop load over real sockets at each client count."""
    rows = {}
    for clients in client_counts:
        config = ServeConfig(
            max_concurrency=max(8, clients), queue_depth=4 * clients,
        )
        service = SearchService(catalog, hierarchy=hierarchy, config=config)
        with SearchHTTPServer(service, port=0).start() as server:
            report = run_load_http(
                server.url,
                texts,
                clients=clients,
                requests_per_client=requests_per_client,
                think_seconds=think_seconds,
                limit=limit,
                seed=seed,
            )
        rows[str(clients)] = _http_row(report)
        print(
            f"  {clients:2d} clients: {report.qps:8.1f} qps  "
            f"p50 {report.latency_p50 * 1000:6.2f} ms  "
            f"p99 {report.latency_p99 * 1000:6.2f} ms  "
            f"statuses {report.status_counts}"
        )
    return rows


def http_churn_phase(catalog, texts, hierarchy, clients,
                     requests_per_client, think_seconds, limit, seed):
    """Socket load under concurrent re-publishing.

    The wire-level staleness contract: versions never regress within a
    client, and a page never lags the live version (sampled before the
    request) by more than one publish.
    """
    config = ServeConfig(
        max_concurrency=max(8, clients), queue_depth=4 * clients
    )
    ids = catalog.dataset_ids()[:16]
    stop = threading.Event()
    publishes = [0]
    service = SearchService(catalog, hierarchy=hierarchy, config=config)
    with SearchHTTPServer(service, port=0).start() as server:

        def writer() -> None:
            round_number = 0
            while not stop.is_set():
                round_number += 1
                delta = publish_round(catalog, ids, round_number)
                service.refresh(delta=delta)
                publishes[0] += 1
                time.sleep(0.005)

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            report = run_load_http(
                server.url,
                texts,
                clients=clients,
                requests_per_client=requests_per_client,
                think_seconds=think_seconds,
                limit=limit,
                seed=seed + 3,
                live_version=lambda: catalog.version,
            )
        finally:
            stop.set()
            thread.join(timeout=10.0)
    row = _http_row(report)
    row["publishes"] = publishes[0]
    row["snapshot_versions_served"] = len(report.snapshot_versions)
    row["max_staleness"] = report.max_staleness
    row["refresh_delta_applied"] = service.telemetry.counter(
        "refresh.delta_applied"
    )
    row["refresh_full_rebuilds"] = service.telemetry.counter(
        "refresh.full_rebuilds"
    )
    return row


def observability_overhead_phase(catalog, texts, hierarchy, clients,
                                 requests_per_client, think_seconds,
                                 limit, seed, repeats=7):
    """Tracing+metrics on vs off over sockets: what the layer costs.

    Mirrors the ingest benchmark's ``measure_telemetry_overhead``:
    ``repeats`` interleaved off/on pairs (so drift hits both equally),
    each run after a ``gc.collect()`` so no run pays for the garbage
    of the one before, and medians compared.  Three pairs were too
    few: two full runs of one tree read 5.3% and 3.2%.  The "on" side
    is the full observability stack a real deployment runs — enabled
    telemetry (request spans, id stamping, counters, histograms), SLO
    windows, flight recorder — plus one ``/metrics`` exposition scrape
    per run.
    """
    import gc
    import statistics
    import urllib.request

    from repro.obs import Telemetry

    def one_run(enabled: bool) -> float:
        gc.collect()
        config = ServeConfig(
            max_concurrency=max(8, clients), queue_depth=4 * clients
        )
        service = SearchService(
            catalog, hierarchy=hierarchy, config=config,
            telemetry=Telemetry(enabled=enabled),
        )
        with SearchHTTPServer(service, port=0).start() as server:
            report = run_load_http(
                server.url,
                texts,
                clients=clients,
                requests_per_client=requests_per_client,
                think_seconds=think_seconds,
                limit=limit,
                seed=seed + 4,
            )
            if enabled:
                # The scrape is part of the cost being measured.
                with urllib.request.urlopen(
                    server.url + "/metrics"
                ) as fh:
                    fh.read()
        if report.errors:
            print(f"  OVERHEAD RUN ERRORS: {report.errors}")
        return report.qps

    base: list[float] = []
    instrumented: list[float] = []
    for _ in range(repeats):
        base.append(one_run(False))
        instrumented.append(one_run(True))
    qps_off = statistics.median(base)
    qps_on = statistics.median(instrumented)
    overhead = (qps_off - qps_on) / qps_off if qps_off else 0.0
    print(
        f"  telemetry off {qps_off:8.1f} qps, on {qps_on:8.1f} qps "
        f"({overhead:+.1%} overhead, {repeats} interleaved runs)"
    )
    return {
        "clients": clients,
        "repeats": repeats,
        "qps_off": qps_off,
        "qps_on": qps_on,
        "overhead": overhead,
    }


def run(n_datasets, n_queries, client_counts, requests_per_client,
        think_ms, limit, seed) -> dict:
    hierarchy = vocabulary_hierarchy()
    print(f"generating {n_datasets} synthetic datasets ...")
    catalog = synthetic_catalog(n_datasets, seed=7)
    queries = synthetic_queries(n_queries, seed=31)
    think_seconds = think_ms / 1000.0

    print("checking service exactness against the serial engine ...")
    mismatches = check_exactness(catalog, queries, hierarchy, limit)
    if mismatches:
        print(f"exactness FAILED on {mismatches} pages")
        return {"exactness_ok": False, "mismatches": mismatches}

    print(f"scaling: closed loop, think {think_ms:.0f} ms ...")
    scaling = scaling_phase(
        catalog, queries, hierarchy, client_counts,
        requests_per_client, think_seconds, limit, seed,
    )

    texts = synthetic_query_texts(len(queries), seed=31)

    print(f"http scaling: sockets, think {think_ms:.0f} ms ...")
    http_scaling = http_scaling_phase(
        catalog, texts, hierarchy, client_counts,
        requests_per_client, think_seconds, limit, seed,
    )

    print("churn: load under concurrent re-publishing ...")
    churn = churn_phase(
        catalog, queries, hierarchy, max(client_counts),
        requests_per_client, think_seconds, limit, seed,
    )
    print(
        f"  {churn['publishes']} publishes, "
        f"{churn['snapshot_versions_served']} snapshot versions served, "
        f"max staleness {churn['max_staleness']}, "
        f"errors {churn['errors']}"
    )

    print("refresh cost: delta path vs full rebuild, by delta size ...")
    refresh_cost = refresh_cost_phase(catalog, queries, hierarchy, limit)
    if refresh_cost["page_mismatches"]:
        print(
            f"refresh exactness FAILED on "
            f"{refresh_cost['page_mismatches']} pages"
        )
        return {
            "exactness_ok": False,
            "mismatches": refresh_cost["page_mismatches"],
        }

    print("observability overhead: tracing+metrics on vs off ...")
    observability = observability_overhead_phase(
        catalog, texts, hierarchy, max(client_counts),
        requests_per_client, think_seconds, limit, seed,
    )

    print("http churn: the same, over sockets ...")
    http_churn = http_churn_phase(
        catalog, texts, hierarchy, max(client_counts),
        requests_per_client, think_seconds, limit, seed,
    )
    print(
        f"  {http_churn['publishes']} publishes, "
        f"{http_churn['snapshot_versions_served']} versions served, "
        f"max staleness {http_churn['max_staleness']}, "
        f"regressions {http_churn['version_regressions']}, "
        f"statuses {http_churn['status_counts']}"
    )

    low = str(min(client_counts))
    high = str(max(client_counts))
    total_rejected = sum(row["rejected"] for row in scaling.values())
    total_errors = sum(row["errors"] for row in scaling.values())
    http_rows = list(http_scaling.values()) + [http_churn]
    http_errors = sum(row["errors"] for row in http_rows)
    http_5xx = sum(
        count
        for row in http_rows
        for status, count in row["status_counts"].items()
        if status.startswith("5")
    )
    http_regressions = sum(
        row["version_regressions"] for row in http_rows
    )
    return {
        "datasets": n_datasets,
        "queries": len(queries),
        "limit": limit,
        "think_ms": think_ms,
        "requests_per_client": requests_per_client,
        "cpu_count": os.cpu_count() or 1,
        "exactness_ok": True,
        "scaling": scaling,
        "http_scaling": http_scaling,
        "churn": churn,
        "http_churn": http_churn,
        "refresh_cost": refresh_cost,
        "observability_overhead": observability,
        "qps_low": scaling[low]["qps"],
        "qps_high": scaling[high]["qps"],
        "scaling_factor": (
            scaling[high]["qps"] / scaling[low]["qps"]
            if scaling[low]["qps"] else float("inf")
        ),
        "http_qps_low": http_scaling[low]["qps"],
        "http_qps_high": http_scaling[high]["qps"],
        "latency_p50_ms": scaling[high]["latency_p50_ms"],
        "latency_p95_ms": scaling[high]["latency_p95_ms"],
        "latency_p99_ms": scaling[high]["latency_p99_ms"],
        "http_latency_p50_ms": http_scaling[high]["latency_p50_ms"],
        "http_latency_p95_ms": http_scaling[high]["latency_p95_ms"],
        "http_latency_p99_ms": http_scaling[high]["latency_p99_ms"],
        # Both drivers sample the live version *before* each request,
        # which is the metric the <= 1 contract is stated — and gated —
        # on.
        "max_staleness": churn["max_staleness"],
        "http_max_staleness": http_churn["max_staleness"],
        "version_regressions": http_regressions,
        "http_5xx": http_5xx,
        "rejected": total_rejected + churn["rejected"],
        "errors": total_errors + churn["errors"] + http_errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small catalog, exactness-focused smoke run (CI)",
    )
    parser.add_argument("--datasets", type=int, default=None)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per client per run")
    parser.add_argument("--think-ms", type=float, default=None)
    parser.add_argument("--limit", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output", default=None,
        help="result JSON path (default: BENCH_serve.json at the repo "
        "root for full runs, BENCH_serve_quick.json for --quick)",
    )
    args = parser.parse_args(argv)

    n_datasets = args.datasets or (300 if args.quick else 5000)
    n_queries = args.queries or (4 if args.quick else 8)
    requests = args.requests or (10 if args.quick else 50)
    think_ms = args.think_ms if args.think_ms is not None else (
        2.0 if args.quick else 5.0
    )
    client_counts = [1, 2] if args.quick else [1, 2, 4, 8]

    result = run(
        n_datasets, n_queries, client_counts, requests,
        think_ms, args.limit, args.seed,
    )
    result["quick"] = args.quick
    result["clients"] = client_counts

    output = args.output or str(
        REPO_ROOT
        / ("BENCH_serve_quick.json" if args.quick else "BENCH_serve.json")
    )
    with open(output, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {output}")

    if not result["exactness_ok"]:
        return 1
    if result["errors"]:
        print(f"{result['errors']} requests errored")
        return 1
    if result["http_5xx"]:
        print(f"{result['http_5xx']} HTTP 5xx responses on the wire")
        return 1
    if result["version_regressions"]:
        print(
            f"{result['version_regressions']} snapshot version regressions"
        )
        return 1
    if result["max_staleness"] > 1:
        print(
            f"in-process staleness {result['max_staleness']} exceeds "
            "the <= 1 bound"
        )
        return 1
    if result["http_max_staleness"] > 1:
        print(
            f"http staleness {result['http_max_staleness']} exceeds "
            "the <= 1 bound"
        )
        return 1
    refresh_cost = result["refresh_cost"]
    cost_rows = refresh_cost["rows"]
    expected_applied = refresh_cost["rounds"]
    for size, row in cost_rows.items():
        # The delta path must actually have engaged — a silent fall
        # back to full rebuilds would make the timings meaningless.
        if row["delta_applied"] != expected_applied:
            print(
                f"refresh-cost delta path engaged only "
                f"{row['delta_applied']}/{expected_applied} times "
                f"at size {size}"
            )
            return 1
    if args.quick:
        # Tiny runs are too noisy to gate on throughput; gate on
        # correctness and on nothing having been dropped.
        if result["rejected"]:
            print(f"{result['rejected']} requests rejected in quick mode")
            return 1
        return 0
    print(
        f"scaling {result['qps_low']:.1f} -> {result['qps_high']:.1f} qps "
        f"({result['scaling_factor']:.2f}x), "
        f"p99 {result['latency_p99_ms']:.2f} ms; "
        f"http {result['http_qps_low']:.1f} -> "
        f"{result['http_qps_high']:.1f} qps, "
        f"p99 {result['http_latency_p99_ms']:.2f} ms "
        f"({result['cpu_count']} cpus), "
        f"http max staleness {result['http_max_staleness']}"
    )
    if result["scaling_factor"] <= 2.0:
        print("scaling below acceptance floor (8 clients > 2x 1 client)")
        return 1
    sizes = refresh_cost["sizes"]
    small = cost_rows[str(sizes[0])]
    large = cost_rows[str(sizes[-1])]
    print(
        f"refresh cost: delta {small['delta_refresh_ms']:.2f} ms "
        f"@ {sizes[0]} -> {large['delta_refresh_ms']:.2f} ms "
        f"@ {sizes[-1]} (full rebuild "
        f"{small['full_refresh_ms']:.2f} ms)"
    )
    if small["delta_refresh_ms"] > 0.5 * small["full_refresh_ms"]:
        print(
            "a 1-dataset delta refresh failed to undercut the full "
            "rebuild by 2x — the O(changed) path is not paying off"
        )
        return 1
    if small["delta_refresh_ms"] > large["delta_refresh_ms"]:
        print(
            "delta refresh cost did not grow with delta size — "
            "O(changed) scaling not observed"
        )
        return 1
    observability = result["observability_overhead"]
    if observability["overhead"] > 0.05:
        print(
            f"observability overhead {observability['overhead']:.1%} "
            "exceeds the 5% gate"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
