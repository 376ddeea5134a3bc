"""Request-scoped tracing: one request, one span tree, one request id.

The contract: a single ``/search`` served over real sockets must leave
behind **one coherent span tree** in the shared telemetry — the HTTP
span at the root, then the service span, then the engine's query span
— and every span in that tree must carry the same deterministic
``request_id`` stamp.

Also pinned here: the request-context scratchpad (``cache_hit``,
``rows_approximated``/``rows_rescored``, ``results``,
``snapshot_version``) that the access log and flight recorder read, and
the id counter's determinism (``req-000001`` onward in admission order).
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time

import pytest

from repro.catalog import MemoryCatalog
from repro.catalog.records import DatasetFeature, VariableEntry
from repro.core.qparser import parse_query
from repro.geo import BoundingBox, TimeInterval
from repro.obs import RequestContext, Telemetry, use_request, use_telemetry
from repro.serve import SearchHTTPServer, SearchService


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


@pytest.fixture()
def catalog():
    store = MemoryCatalog()
    store.upsert_many([make_feature(f"d{i}") for i in range(12)])
    return store


def get(server, target: str):
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", target)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def wait_until(condition, timeout: float = 5.0) -> None:
    """The root span and flight capture land *after* the body is on the
    wire; a client's read can return a beat before they do."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            raise AssertionError("bookkeeping never became visible")
        time.sleep(0.005)


def root_spans(telemetry, count: int):
    wait_until(
        lambda: sum(
            1 for s in telemetry.spans() if s.name == "http.request"
        ) >= count
    )
    return telemetry.spans()


class TestOneRequestOneTree:
    def test_search_is_one_stamped_span_tree(self, catalog):
        """The acceptance test: HTTP -> service -> engine, one tree."""
        service = SearchService(catalog)
        server = SearchHTTPServer(service, port=0).start()
        try:
            status, payload = get(server, "/search?q=with+salinity")
            assert status == 200
            assert payload["results"]
        finally:
            server.close(timeout=10.0)

        spans = root_spans(service.telemetry, 1)
        stamped = [
            s for s in spans
            if s.attrs.get("request_id") == "req-000001"
        ]
        paths = {s.name: s.path for s in stamped}
        assert {"http.request", "serve.request", "search.query"} <= set(
            paths
        ), paths

        # One tree: every stamped span hangs off the one HTTP root, and
        # the engine's scan nests inside the service span.
        roots = [s for s in stamped if s.path == "http.request"]
        assert len(roots) == 1
        for span in stamped:
            assert span.path == "http.request" or span.path.startswith(
                "http.request/"
            ), span.path
        assert "serve.request/" in paths["search.query"], paths

        # No stray ids: this was the only request, so nothing else is
        # stamped with anything but req-000001.
        ids = {
            s.attrs["request_id"]
            for s in spans
            if "request_id" in s.attrs
        }
        assert ids == {"req-000001"}

    def test_service_miss_tallies_every_row_once(self, catalog):
        """A cache miss adds every scanned row to the request context."""
        context = RequestContext("req-miss")
        with SearchService(catalog) as service:
            with use_request(context):
                service.search(parse_query("with salinity"), limit=3)
        assert context.attrs["cache_hit"] is False
        assert context.attrs["rows_approximated"] == len(catalog)
        assert 1 <= context.attrs["rows_rescored"] <= len(catalog)

    def test_request_ids_are_deterministic_and_sequential(self, catalog):
        service = SearchService(catalog)
        server = SearchHTTPServer(service, port=0).start()
        try:
            for _ in range(3):
                assert get(server, "/search?q=with+salinity")[0] == 200
        finally:
            server.close(timeout=10.0)
        roots = sorted(
            s.attrs["request_id"]
            for s in root_spans(service.telemetry, 3)
            if s.name == "http.request"
        )
        assert roots == ["req-000001", "req-000002", "req-000003"]

    def test_context_scratchpad_carries_result_stats(self, catalog):
        """The engine annotates the request context the access log reads."""
        service = SearchService(catalog)
        server = SearchHTTPServer(service, port=0).start()
        try:
            assert get(server, "/search?q=with+salinity")[0] == 200
            # Same query again: the cache hit is annotated as such.
            assert get(server, "/search?q=with+salinity")[0] == 200
            wait_until(lambda: server.flight.captured >= 2)
            slow = get(server, "/debug/slow")[1]
        finally:
            server.close(timeout=10.0)
        by_id = {
            record["request_id"]: record for record in slow["slowest"]
        }
        first = by_id["req-000001"]
        assert first["attrs"]["cache_hit"] is False
        # A miss approximates all 12 rows in one pass and rescores at
        # least the page's rows; a hit scores nothing.
        assert first["attrs"]["rows_approximated"] == 12
        assert 1 <= first["attrs"]["rows_rescored"] <= 12
        assert first["attrs"]["results"] >= 1
        assert first["attrs"]["snapshot_version"] >= 1
        second = by_id["req-000002"]
        assert second["attrs"]["cache_hit"] is True
        assert second["attrs"]["rows_approximated"] == 0
        assert second["attrs"]["rows_rescored"] == 0

    def test_disabled_telemetry_serves_without_stamping(self, catalog):
        service = SearchService(catalog, telemetry=Telemetry(enabled=False))
        server = SearchHTTPServer(service, port=0).start()
        try:
            status, payload = get(server, "/search?q=with+salinity")
            assert status == 200
            assert payload["results"]
        finally:
            server.close(timeout=10.0)
        assert service.telemetry.spans() == []


class TestRequestContextUnit:
    def test_spans_opened_under_a_context_are_stamped(self):
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            with use_request(RequestContext("req-test")):
                with telemetry.span("outer"):
                    with telemetry.span("inner"):
                        pass
            with telemetry.span("orphan"):
                pass
        stamps = {
            s.name: s.attrs.get("request_id") for s in telemetry.spans()
        }
        assert stamps == {
            "outer": "req-test", "inner": "req-test", "orphan": None
        }

    def test_annotate_coerces_and_accumulates(self):
        context = RequestContext("req-x")
        context.annotate(cache_hit=False, results=3)
        context.annotate(snapshot_version=7)
        assert context.attrs == {
            "cache_hit": False, "results": 3, "snapshot_version": 7
        }

    def test_tally_adds_across_threads(self):
        context = RequestContext("req-x")
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def work() -> None:
            for __ in range(2000):
                context.tally(rows=1, pairs=2)

        threads = [threading.Thread(target=work) for __ in range(8)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert context.attrs == {"rows": 16000, "pairs": 32000}

