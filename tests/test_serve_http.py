"""The HTTP front end: wire contract, error mapping, shutdown races.

What the network face promises (serve/http.py):

* ``GET /search`` returns the same page the in-process service returns,
  as JSON, over kept-alive connections;
* the typed errors map to status codes — ``OverloadedError`` -> 429
  with ``Retry-After``, ``ServiceClosedError`` -> 503, parse errors ->
  400 with a JSON body, unknown routes -> 404 — and *nothing* ever
  escapes as a traceback page or a hung socket;
* shutdown is graceful under concurrent clients: during ``close`` every
  response is a clean 200 or 503, never a 5xx surprise or a hang;
* under publish churn the socket loadgen sees zero errors, snapshot
  versions that never move backwards, and staleness <= 1;
* the observability routes (``/metrics``, ``/healthz`` SLO verdict,
  ``/debug/slow``, the JSONL access log) never raise, never block, and
  stay self-consistent under concurrent scrape-while-serving load —
  each request's counter/histogram touches land atomically on the one
  telemetry handle snapshotted at request start.
"""

from __future__ import annotations

import http.client
import io
import json
import threading
import time

import pytest

from repro.catalog import MemoryCatalog
from repro.catalog.records import DatasetFeature, VariableEntry
from repro.core import search as core_search
from repro.core.qparser import parse_query
from repro.core.query import Query, VariableTerm
from repro.geo import BoundingBox, TimeInterval
from repro.obs import (
    AccessLogWriter,
    FlightRecorder,
    SLOConfig,
    SLOTracker,
    Telemetry,
    parse_prometheus_text,
    sample_value,
    validate_trace_lines,
)
from repro.serve import (
    SearchHTTPServer,
    SearchService,
    ServeConfig,
    run_load_http,
    search_payload,
)
from repro.serve.http import RETRY_AFTER_SECONDS


def make_feature(dataset_id: str, row_count: int = 10) -> DatasetFeature:
    return DatasetFeature(
        dataset_id=dataset_id,
        title=f"Dataset {dataset_id}",
        platform="station",
        file_format="csv",
        bbox=BoundingBox(45.0, -124.0, 45.5, -123.5),
        interval=TimeInterval(0.0, 1000.0),
        row_count=row_count,
        source_directory="stations/x",
        variables=[
            VariableEntry.from_written(
                "salinity", "psu", row_count, 0.0, 30.0, 15.0, 2.0
            )
        ],
    )


QUERY = Query(variables=(VariableTerm(name="salinity"),))


@pytest.fixture()
def catalog():
    store = MemoryCatalog()
    store.upsert_many([make_feature(f"d{i}") for i in range(6)])
    return store


@pytest.fixture()
def server(catalog):
    service = SearchService(catalog)
    http_server = SearchHTTPServer(service, port=0).start()
    yield http_server
    http_server.close(timeout=5.0)


def wait_until(condition, timeout: float = 5.0) -> None:
    """Wait for post-response bookkeeping (SLO/flight/access-log runs
    *after* the body is on the wire, so a client's read can return a
    beat before the server-side record lands)."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            raise AssertionError("bookkeeping never became visible")
        time.sleep(0.005)


def get(server, target: str):
    """One GET; returns (status, headers, parsed JSON body)."""
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", target)
        response = conn.getresponse()
        body = response.read()
        return response.status, dict(response.getheaders()), json.loads(body)
    finally:
        conn.close()


class TestSearchRoute:
    def test_200_page_matches_in_process_service(self, server):
        status, headers, payload = get(server, "/search?q=with+salinity")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        expected = search_payload(
            server.service.search(parse_query("with salinity"))
        )
        # Timing fields differ per request; the page itself must not.
        for key in ("version", "total_matches", "truncated", "results"):
            assert payload[key] == expected[key]
        assert payload["results"], "workload query must match something"
        first = payload["results"][0]
        assert set(first) == {"dataset_id", "score", "breakdown"}
        assert set(first["breakdown"]) == {
            "total", "location", "time", "variables"
        }
        assert payload["queued_seconds"] >= 0.0
        assert payload["total_seconds"] >= 0.0

    def test_limit_caps_the_page(self, server):
        status, _, payload = get(server, "/search?q=with+salinity&limit=2")
        assert status == 200
        assert len(payload["results"]) == 2
        # truncated mirrors the in-process metadata exactly.
        response = server.service.search(parse_query("with salinity"), limit=2)
        assert payload["truncated"] == response.results.truncated
        assert payload["total_matches"] == response.results.total_matches

    def test_keep_alive_serves_many_requests_per_connection(self, server):
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for _ in range(5):
                conn.request("GET", "/search?q=with+salinity")
                response = conn.getresponse()
                body = response.read()
                assert response.status == 200
                assert json.loads(body)["results"]
        finally:
            conn.close()


class TestErrorMapping:
    def test_unparseable_query_is_400_bad_query(self, server):
        status, headers, payload = get(
            server, "/search?q=near+inf,+nan+within+100+km"
        )
        assert status == 400
        assert headers["Content-Type"] == "application/json"
        assert payload["code"] == "bad-query"
        assert payload["error"]

    def test_empty_q_is_400(self, server):
        status, _, payload = get(server, "/search")
        assert status == 400
        assert payload["code"] in {"bad-query", "bad-request"}

    def test_non_integer_limit_is_400(self, server):
        status, _, payload = get(server, "/search?q=with+salinity&limit=abc")
        assert status == 400
        assert payload["code"] == "bad-request"
        assert "abc" in payload["error"]

    def test_non_positive_limit_is_400(self, server):
        status, _, payload = get(server, "/search?q=with+salinity&limit=0")
        assert status == 400
        assert payload["code"] == "bad-request"

    def test_unknown_route_is_404(self, server):
        status, _, payload = get(server, "/nope")
        assert status == 404
        assert payload["code"] == "not-found"
        assert "/nope" in payload["error"]

    def test_overload_is_429_with_retry_after(self, catalog):
        service = SearchService(
            catalog, config=ServeConfig(max_concurrency=1, queue_depth=0)
        )
        server = SearchHTTPServer(service, port=0).start()
        hold = threading.Event()
        release = threading.Event()
        engine = service._engine
        original = engine.search

        def blocked(query, limit=10):
            hold.set()
            release.wait(timeout=10)
            return original(query, limit=limit)

        engine.search = blocked
        occupant = threading.Thread(
            target=lambda: service.search(QUERY), daemon=True
        )
        try:
            occupant.start()
            assert hold.wait(timeout=5)  # the only slot is now taken
            status, headers, payload = get(
                server, "/search?q=with+salinity"
            )
            assert status == 429
            assert payload["code"] == "overloaded"
            assert headers["Retry-After"] == str(RETRY_AFTER_SECONDS)
        finally:
            release.set()
            occupant.join(timeout=5)
            engine.search = original
            server.close(timeout=5.0)

    def test_closed_service_is_503_with_retry_after(self, server):
        server.service.close(timeout=5.0)
        status, headers, payload = get(server, "/search?q=with+salinity")
        assert status == 503
        assert payload["code"] == "closed"
        assert headers["Retry-After"] == str(RETRY_AFTER_SECONDS)


class TestOperationalRoutes:
    def test_healthz_ok(self, server):
        status, _, payload = get(server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["closed"] is False
        assert payload["snapshot_version"] == server.service.snapshot_version
        assert payload["staleness"] == 0

    def test_healthz_closed_is_503(self, server):
        server.service.close(timeout=5.0)
        status, _, payload = get(server, "/healthz")
        assert status == 503
        assert payload["status"] == "closed"
        assert payload["closed"] is True

    def test_telemetry_snapshot(self, server):
        assert get(server, "/search?q=with+salinity")[0] == 200
        status, _, payload = get(server, "/telemetry")
        assert status == 200
        assert payload["counters"]["serve.requests"] >= 1
        assert payload["counters"]["http.requests"] >= 1
        assert payload["counters"]["http.status.200"] >= 1
        assert "spans" in payload


class TestShutdown:
    def test_close_reports_drained_and_refuses_late_requests(self, catalog):
        service = SearchService(catalog)
        server = SearchHTTPServer(service, port=0).start()
        assert get(server, "/search?q=with+salinity")[0] == 200
        assert server.close(timeout=5.0) is True
        # The listening socket is gone: connecting now must fail fast,
        # not hang.
        host, port = server.address
        with pytest.raises(OSError):
            conn = http.client.HTTPConnection(host, port, timeout=2)
            conn.request("GET", "/healthz")
            conn.getresponse()

    def test_timed_out_close_serves_the_held_request_a_200(
        self, catalog, monkeypatch
    ):
        """A request held mid-scan when ``close()`` times out still
        gets its 200 page; a request arriving after the close gets a
        clean 503."""
        service = SearchService(catalog)
        server = SearchHTTPServer(service, port=0).start()
        started = threading.Event()
        release = threading.Event()
        real_score = core_search.score_rows_into

        def held_score(cscorer, query, rows, top):
            started.set()
            release.wait(timeout=10.0)
            return real_score(cscorer, query, rows, top)

        monkeypatch.setattr(core_search, "score_rows_into", held_score)
        held = {}
        worker = threading.Thread(
            target=lambda: held.setdefault(
                "reply", get(server, "/search?q=with+salinity")
            ),
            daemon=True,
        )
        try:
            worker.start()
            assert started.wait(timeout=5.0)
            assert service.close(timeout=0.05) is False  # still in flight
            status, _, payload = get(server, "/search?q=with+salinity")
            assert status == 503
            assert payload["code"] == "closed"
            release.set()
            worker.join(timeout=10.0)
            status, _, payload = held["reply"]
            assert status == 200
            assert len(payload["results"]) == 6
        finally:
            release.set()
            assert server.close(timeout=5.0) is True

    def test_concurrent_clients_see_only_200_or_503_during_close(
        self, catalog
    ):
        """The shutdown race, over real sockets.

        Clients hammer kept-alive connections while close() runs; the
        contract is that every response on the wire is a clean 200 or
        503 and every client thread terminates.
        """
        service = SearchService(
            catalog, config=ServeConfig(max_concurrency=4, queue_depth=8)
        )
        server = SearchHTTPServer(service, port=0).start()
        host, port = server.address
        statuses: list[int] = []
        lock = threading.Lock()
        stop = threading.Event()

        def client() -> None:
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                while not stop.is_set():
                    try:
                        conn.request("GET", "/search?q=with+salinity")
                        response = conn.getresponse()
                        response.read()
                    except (OSError, http.client.HTTPException):
                        return  # socket died after close: fine
                    with lock:
                        statuses.append(response.status)
                    if response.status == 503:
                        return
            finally:
                conn.close()

        threads = [
            threading.Thread(target=client, daemon=True) for _ in range(6)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.15)  # let the load reach the service
        assert server.close(timeout=10.0) is True
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive(), "client hung through shutdown"
        assert statuses, "no request completed before the close"
        assert set(statuses) <= {200, 503}, f"dirty statuses: {statuses}"


class TestChurnOverSockets:
    def test_zero_errors_monotonic_versions_staleness_at_most_one(
        self, catalog
    ):
        """Socket load under publish churn (satellite of DESIGN note 16).

        A writer republishes batches (one version bump each) and
        refreshes the service after every publish; the socket loadgen
        must complete with zero errors, statuses drawn only from
        {200, 429}, versions that never regress within a client, and
        staleness bounded by 1.
        """
        service = SearchService(
            catalog,
            config=ServeConfig(max_concurrency=8, queue_depth=32),
        )
        server = SearchHTTPServer(service, port=0).start()
        stop = threading.Event()

        def writer() -> None:
            round_number = 0
            while not stop.is_set():
                round_number += 1
                batch = [
                    make_feature(f"d{i}", row_count=100 + round_number)
                    for i in range(3)
                ]
                catalog.apply_batch(batch, ())
                service.refresh()
                time.sleep(0.002)

        publisher = threading.Thread(target=writer, daemon=True)
        publisher.start()
        try:
            report = run_load_http(
                server.url,
                ["with salinity", "near 45.2, -123.8 within 100 km"],
                clients=4,
                requests_per_client=15,
                live_version=lambda: catalog.version,
                seed=7,
            )
        finally:
            stop.set()
            publisher.join(timeout=5)
            server.close(timeout=5.0)
        assert report.transport == "http"
        assert report.completed == 4 * 15
        assert report.errors == 0
        assert set(report.status_counts) <= {"200", "429"}
        assert report.version_regressions == 0
        assert report.max_staleness <= 1
        assert len(report.snapshot_versions) >= 1


class TestMetricsRoute:
    def test_metrics_round_trips_through_the_parser(self, server):
        assert get(server, "/search?q=with+salinity")[0] == 200
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            body = response.read().decode("utf-8")
            assert response.status == 200
            assert response.getheader("Content-Type").startswith(
                "text/plain"
            )
        finally:
            conn.close()
        families = parse_prometheus_text(body)
        assert sample_value(families, "repro_http_requests_total") >= 1
        assert sample_value(families, "repro_serve_requests_total") >= 1
        assert "repro_http_request_seconds" in families

    def test_scrape_body_is_internally_consistent(self, server):
        """Inside one scrape: histogram ``_count`` == ``http.requests``.

        Both move in the same ``_count_response`` step *after* the
        response body is rendered, so every scrape lags itself by
        exactly one request on every metric equally.
        """
        for _ in range(4):
            assert get(server, "/search?q=with+salinity")[0] == 200
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", "/metrics")
            body = conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()
        families = parse_prometheus_text(body)
        requests = sample_value(families, "repro_http_requests_total")
        histogram_count = sample_value(
            families, "repro_http_request_seconds_count"
        )
        assert requests == histogram_count == 4


class TestHealthzSLO:
    def test_healthz_carries_the_slo_report(self, server):
        assert get(server, "/search?q=with+salinity")[0] == 200
        wait_until(
            lambda: server.slo.window_report(60)["requests"] >= 1
        )
        status, _, payload = get(server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        slo = payload["slo"]
        assert slo["status"] == "ok"
        assert set(slo["windows"]) == {"1m", "5m", "30m"}
        assert slo["windows"]["1m"]["requests"] >= 1
        assert slo["config"]["latency_p95_seconds"] > 0

    def test_breached_slo_degrades_healthz_but_stays_200(self, catalog):
        """Degraded is still serving: LBs eject on 503, operators page
        on the SLO field."""
        service = SearchService(catalog)
        slo = SLOTracker(SLOConfig(latency_p95_seconds=1e-9))
        server = SearchHTTPServer(service, port=0, slo=slo).start()
        try:
            assert get(server, "/search?q=with+salinity")[0] == 200
            wait_until(lambda: slo.window_report(60)["requests"] >= 1)
            status, _, payload = get(server, "/healthz")
            assert status == 200
            assert payload["status"] == "degraded"
            assert "latency_p95" in (
                payload["slo"]["windows"]["1m"]["breached"]
            )
        finally:
            server.close(timeout=5.0)

    def test_scrapes_do_not_enter_the_slo_window(self, server):
        for _ in range(3):
            assert get(server, "/healthz")[0] == 200
        _, _, payload = get(server, "/healthz")
        assert payload["slo"]["windows"]["1m"]["requests"] == 0


class TestDebugSlowRoute:
    def test_search_requests_land_in_the_flight_ring(self, server):
        assert get(server, "/search?q=with+salinity")[0] == 200
        wait_until(lambda: server.flight.captured >= 1)
        status, _, payload = get(server, "/debug/slow")
        assert status == 200
        assert payload["captured"] >= 1
        entry = payload["slowest"][0]
        assert entry["query"] == "with salinity"
        assert entry["status"] == 200
        assert entry["request_id"].startswith("req-")
        span_names = {span["name"] for span in entry["spans"]}
        assert "http.request" in span_names
        assert "serve.request" in span_names

    def test_records_keep_their_spans_past_the_registry_cap(self, catalog):
        """Requests served after the shared registry stopped keeping
        spans still capture their own span trees."""
        telemetry = Telemetry(max_spans=60)
        service = SearchService(catalog, telemetry=telemetry)
        flight = FlightRecorder(slow_capacity=64)
        server = SearchHTTPServer(service, port=0, flight=flight).start()
        try:
            requests = 0
            while telemetry.dropped_spans == 0 or requests < 20:
                assert requests < 60, "the registry never hit its cap"
                target = f"/search?q=with+salinity&limit={requests + 1}"
                assert get(server, target)[0] == 200
                requests += 1
            wait_until(lambda: flight.captured >= requests)
        finally:
            server.close(timeout=5.0)
        assert len(telemetry.spans()) == 60
        records = flight.snapshot()["slowest"]
        assert len(records) == requests
        for record in records:
            names = [span["name"] for span in record["spans"]]
            assert "http.request" in names and "serve.request" in names
            assert all(
                span["attrs"]["request_id"] == record["request_id"]
                for span in record["spans"]
            )

    def test_scrapes_themselves_stay_out_of_the_ring(self, server):
        for _ in range(3):
            assert get(server, "/debug/slow")[0] == 200
        _, _, payload = get(server, "/debug/slow")
        assert payload["captured"] == 0


class TestAccessLog:
    def test_every_request_logs_one_validating_line(self, catalog):
        service = SearchService(catalog)
        buffer = io.StringIO()
        access_log = AccessLogWriter(buffer)
        server = SearchHTTPServer(
            service, port=0, access_log=access_log
        ).start()
        try:
            assert get(server, "/search?q=with+salinity")[0] == 200
            assert get(server, "/healthz")[0] == 200
            assert get(server, "/nope")[0] == 404
            wait_until(lambda: access_log.lines == 4)  # meta + 3
        finally:
            server.close(timeout=5.0)
        lines = buffer.getvalue().splitlines()
        assert validate_trace_lines(lines) == []
        events = [json.loads(line) for line in lines]
        assert events[0]["type"] == "meta"
        # Bookkeeping is post-response, so lines from different
        # connections may interleave; request ids restore the order.
        access = sorted(
            (e for e in events if e["type"] == "access"),
            key=lambda e: e["request_id"],
        )
        assert [e["route"] for e in access] == [
            "/search", "/healthz", "/nope"
        ]
        assert [e["status"] for e in access] == [200, 200, 404]
        search_line = access[0]
        assert search_line["request_id"] == "req-000001"
        assert search_line["latency_seconds"] >= 0.0
        assert search_line["cache_hit"] is False
        assert search_line["results"] >= 1


class TestTelemetrySwapAtomicity:
    def test_in_flight_request_counts_on_its_snapshotted_handle(
        self, catalog
    ):
        """A mid-request ``service.telemetry`` swap cannot split one
        request's increments across registries: the handler snapshots
        the handle once at request start and counts everything on it at
        the response exit point."""
        service = SearchService(catalog)
        original = service.telemetry
        server = SearchHTTPServer(service, port=0).start()
        hold = threading.Event()
        release = threading.Event()
        engine = service._engine
        original_search = engine.search

        def blocked(query, limit=10):
            hold.set()
            release.wait(timeout=10)
            return original_search(query, limit=limit)

        engine.search = blocked
        replacement = Telemetry()
        result: dict = {}

        def client() -> None:
            result["status"] = get(server, "/search?q=with+salinity")[0]

        thread = threading.Thread(target=client, daemon=True)
        try:
            thread.start()
            assert hold.wait(timeout=5)
            service.telemetry = replacement  # the swap, mid-request
            release.set()
            thread.join(timeout=10)
            assert result["status"] == 200
        finally:
            release.set()
            engine.search = original_search
            service.telemetry = original
            server.close(timeout=5.0)
        assert original.counter("http.requests") == 1
        assert original.counter("http.status.200") == 1
        assert (
            original.snapshot()["histograms"]["http.request_seconds"][
                "count"
            ]
            == 1
        )
        assert replacement.counter("http.requests") == 0
        assert replacement.counter("http.status.200") == 0


class TestScrapeWhileServing:
    def test_concurrent_scrapes_never_fail_and_converge(self, catalog):
        """Scrape-while-serving: /metrics and /telemetry under load.

        Scraper threads hammer both endpoints while search clients
        serve; every scrape must be a clean 200 whose body parses, and
        at quiescence the final scrape shows histogram ``_count`` ==
        ``http.requests`` == the sum of all ``http.status.*``."""
        service = SearchService(
            catalog, config=ServeConfig(max_concurrency=8, queue_depth=32)
        )
        server = SearchHTTPServer(service, port=0).start()
        host, port = server.address
        failures: list[str] = []
        lock = threading.Lock()
        stop = threading.Event()

        def fail(message: str) -> None:
            with lock:
                failures.append(message)

        def searcher() -> None:
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                for _ in range(25):
                    conn.request("GET", "/search?q=with+salinity")
                    response = conn.getresponse()
                    response.read()
                    if response.status not in (200, 429):
                        fail(f"search status {response.status}")
            except Exception as exc:
                fail(f"searcher raised {exc!r}")
            finally:
                conn.close()

        def scraper(target: str) -> None:
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                while not stop.is_set():
                    conn.request("GET", target)
                    response = conn.getresponse()
                    body = response.read().decode("utf-8")
                    if response.status != 200:
                        fail(f"{target} status {response.status}")
                    elif target == "/metrics":
                        parse_prometheus_text(body)  # must never raise
                    else:
                        json.loads(body)
            except Exception as exc:
                fail(f"scraper {target} raised {exc!r}")
            finally:
                conn.close()

        searchers = [
            threading.Thread(target=searcher, daemon=True)
            for _ in range(4)
        ]
        scrapers = [
            threading.Thread(target=scraper, args=(target,), daemon=True)
            for target in ("/metrics", "/telemetry")
        ]
        for thread in searchers + scrapers:
            thread.start()
        for thread in searchers:
            thread.join(timeout=30)
            assert not thread.is_alive(), "searcher hung"
        stop.set()
        for thread in scrapers:
            thread.join(timeout=30)
            assert not thread.is_alive(), "scraper hung or blocked"
        assert failures == [], failures

        # Quiescence: one final scrape over a fresh connection.  Its
        # body excludes only itself, identically on every metric.
        _, _, snapshot = get(server, "/telemetry")
        counters = snapshot["counters"]
        status_total = sum(
            value
            for name, value in counters.items()
            if name.startswith("http.status.")
        )
        histogram_count = snapshot["histograms"]["http.request_seconds"][
            "count"
        ]
        assert counters["http.requests"] == status_total
        assert counters["http.requests"] == histogram_count
        server.close(timeout=5.0)
