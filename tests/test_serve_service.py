"""SearchService: admission, backpressure, refresh, drain, telemetry.

The concurrency invariants the serving layer promises:

* every response carries exactly one snapshot version, and a refresh
  never disturbs in-flight requests;
* overload is a typed, pre-execution rejection, not a hang;
* close() drains gracefully;
* concurrent requests' counters/spans merge into the shared registry
  with nothing lost (totals == request count).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.catalog import MemoryCatalog
from repro.catalog.records import DatasetFeature, VariableEntry
from repro.core import search as core_search
from repro.core.cache import QueryCache
from repro.core.errors import OverloadedError
from repro.core.query import Query, VariableTerm
from repro.geo import BoundingBox, TimeInterval
from repro.serve import (
    SearchService,
    ServeConfig,
    ServiceClosedError,
    run_load,
)


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


class TestServeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(max_concurrency=0)
        with pytest.raises(ValueError):
            ServeConfig(queue_depth=-1)
        with pytest.raises(ValueError):
            ServeConfig(cache_size=0)

    def test_admission_capacity(self):
        config = ServeConfig(max_concurrency=3, queue_depth=5)
        assert config.admission_capacity == 8


class TestRequestPath:
    def test_response_carries_snapshot_version(self, catalog):
        with SearchService(catalog) as service:
            response = service.search(QUERY)
            assert response.snapshot_version == catalog.version
            assert len(response.results) == 6
            assert response.results.total_matches == 6
            assert response.total_seconds >= response.queued_seconds

    def test_requests_survive_source_mutation(self, catalog):
        with SearchService(catalog) as service:
            catalog.clear()  # live store emptied; snapshot unaffected
            response = service.search(QUERY)
            assert len(response.results) == 6
            assert service.stats()["staleness"] == 1

    def test_limit_validation_propagates(self, catalog):
        with SearchService(catalog) as service:
            with pytest.raises(ValueError):
                service.search(QUERY, limit=0)

    def test_closed_service_rejects(self, catalog):
        service = SearchService(catalog)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.search(QUERY)


class TestRefresh:
    def test_refresh_noop_on_unchanged_source(self, catalog):
        with SearchService(catalog) as service:
            engine_before = service._engine
            assert service.refresh() is False
            assert service._engine is engine_before

    def test_refresh_installs_new_version(self, catalog):
        with SearchService(catalog) as service:
            catalog.apply_batch([make_feature("new")], ["d0"])
            assert service.refresh() is True
            assert service.snapshot_version == catalog.version
            response = service.search(QUERY)
            ids = [r.dataset_id for r in response.results]
            assert "new" in ids and "d0" not in ids

    def test_cache_shared_across_refresh(self, catalog):
        cache = QueryCache(maxsize=16)
        with SearchService(catalog, cache=cache) as service:
            service.search(QUERY)
            misses_after_first = cache.stats()["misses"]
            # Unchanged source: refresh is a no-op, entry still hits.
            service.refresh()
            service.search(QUERY)
            stats = cache.stats()
            assert stats["misses"] == misses_after_first
            assert stats["hits"] >= 1

    def test_in_flight_requests_keep_their_snapshot(self, catalog):
        # A request that reads the engine before a refresh completes
        # with the old version even if the swap happens mid-flight.
        with SearchService(catalog) as service:
            old_version = service.snapshot_version
            release = threading.Event()
            observed = {}
            engine = service._engine
            original_search = engine.search

            def slow_search(query, limit=10):
                release.wait(timeout=5.0)
                return original_search(query, limit=limit)

            engine.search = slow_search
            worker = threading.Thread(
                target=lambda: observed.setdefault(
                    "response", service.search(QUERY)
                ),
                daemon=True,
            )
            worker.start()
            time.sleep(0.02)  # let the worker pick up the old engine
            catalog.upsert(make_feature("later"))
            assert service.refresh() is True
            release.set()
            worker.join(timeout=5.0)
            assert observed["response"].snapshot_version == old_version
            assert service.snapshot_version == catalog.version
            assert service.snapshot_version != old_version


class TestBackpressure:
    def test_overload_rejects_with_typed_error(self, catalog):
        config = ServeConfig(max_concurrency=1, queue_depth=0)
        service = SearchService(catalog, config=config)
        entered = threading.Event()
        release = threading.Event()
        engine = service._engine
        original_search = engine.search

        def blocking_search(query, limit=10):
            entered.set()
            release.wait(timeout=5.0)
            return original_search(query, limit=limit)

        engine.search = blocking_search
        worker = threading.Thread(
            target=lambda: service.search(QUERY), daemon=True
        )
        worker.start()
        assert entered.wait(timeout=5.0)
        try:
            with pytest.raises(OverloadedError) as excinfo:
                service.search(QUERY)
            assert excinfo.value.capacity == 1
        finally:
            release.set()
            worker.join(timeout=5.0)
            service.close()
        assert service.telemetry.counter("serve.rejected") == 1

    def test_overload_is_transient_in_taxonomy(self):
        from repro.core.errors import (
            ErrorCode,
            classify_exception,
            is_transient,
        )

        error = OverloadedError(in_flight=4, capacity=4)
        assert is_transient(error)
        record = classify_exception(error)
        assert record.code is ErrorCode.OVERLOADED
        assert record.transient

    def test_queue_admits_beyond_concurrency(self, catalog):
        # queue_depth=1: two requests admitted (one runs, one waits),
        # the third rejected.
        config = ServeConfig(max_concurrency=1, queue_depth=1)
        service = SearchService(catalog, config=config)
        entered = threading.Event()
        release = threading.Event()
        engine = service._engine
        original_search = engine.search

        def blocking_search(query, limit=10):
            entered.set()
            release.wait(timeout=5.0)
            return original_search(query, limit=limit)

        engine.search = blocking_search
        outcomes: list[str] = []

        def client():
            try:
                service.search(QUERY)
                outcomes.append("ok")
            except OverloadedError:
                outcomes.append("rejected")

        first = threading.Thread(target=client, daemon=True)
        first.start()
        assert entered.wait(timeout=5.0)
        second = threading.Thread(target=client, daemon=True)
        second.start()
        time.sleep(0.05)  # let the second request occupy the queue slot
        third = threading.Thread(target=client, daemon=True)
        third.start()
        third.join(timeout=5.0)
        release.set()
        first.join(timeout=5.0)
        second.join(timeout=5.0)
        service.close()
        assert sorted(outcomes) == ["ok", "ok", "rejected"]


class TestDrain:
    def test_close_waits_for_in_flight(self, catalog):
        service = SearchService(catalog)
        started = threading.Event()
        release = threading.Event()
        engine = service._engine
        original_search = engine.search

        def slow_search(query, limit=10):
            started.set()
            release.wait(timeout=5.0)
            return original_search(query, limit=limit)

        engine.search = slow_search
        done = {}
        worker = threading.Thread(
            target=lambda: done.setdefault(
                "response", service.search(QUERY)
            ),
            daemon=True,
        )
        worker.start()
        assert started.wait(timeout=5.0)
        assert service.close(timeout=0.05) is False  # still in flight
        release.set()
        assert service.drain(timeout=5.0) is True
        worker.join(timeout=5.0)
        assert len(done["response"].results) == 6
        assert service.stats()["in_flight"] == 0

    def test_timed_out_close_lets_the_held_request_finish(
        self, catalog, monkeypatch
    ):
        """A ``close()`` whose drain times out stops admission at once,
        but the request already scoring on its own thread still
        completes with its page — a graceful completion, never an
        error mid-query."""
        service = SearchService(catalog)
        started = threading.Event()
        release = threading.Event()
        real_score = core_search.score_rows_into

        def held_score(cscorer, query, rows, top):
            started.set()
            release.wait(timeout=10.0)
            return real_score(cscorer, query, rows, top)

        monkeypatch.setattr(core_search, "score_rows_into", held_score)
        outcome = {}

        def request() -> None:
            try:
                outcome["response"] = service.search(QUERY)
            except Exception as exc:
                outcome["error"] = exc

        worker = threading.Thread(target=request, daemon=True)
        worker.start()
        assert started.wait(timeout=5.0)
        assert service.close(timeout=0.05) is False  # drain timed out
        with pytest.raises(ServiceClosedError):
            service.search(QUERY)
        release.set()
        worker.join(timeout=10.0)
        assert "error" not in outcome, repr(outcome.get("error"))
        assert len(outcome["response"].results) == 6
        assert service.stats()["in_flight"] == 0


class TestTelemetryInvariant:
    CLIENTS = 8
    PER_CLIENT = 25

    def test_concurrent_counters_and_spans_merge_exactly(self, catalog):
        with SearchService(catalog) as service:
            report = run_load(
                service,
                [QUERY, Query(variables=(VariableTerm(name="salinity"),
                                         VariableTerm(name="salinity")))],
                clients=self.CLIENTS,
                requests_per_client=self.PER_CLIENT,
                seed=3,
            )
            total = self.CLIENTS * self.PER_CLIENT
            assert report.completed == total
            assert report.errors == 0
            telemetry = service.telemetry
            assert telemetry.counter("serve.requests") == total
            spans = [
                s for s in telemetry.spans() if s.name == "serve.request"
            ]
            assert len(spans) == total
            histogram = telemetry.histogram("serve.request_seconds")
            assert histogram is not None and histogram.count == total
            # Engine counters funnelled through the same registry: every
            # request was either a cache hit or a miss.
            hits = telemetry.counter("search.cache_hits")
            misses = telemetry.counter("search.cache_misses")
            assert hits + misses == total

    def test_load_report_accounting(self, catalog):
        with SearchService(catalog) as service:
            report = run_load(
                service,
                [QUERY],
                clients=2,
                requests_per_client=5,
                seed=9,
                live_version=lambda: catalog.version,
            )
            assert report.completed == 10
            assert report.rejected == 0
            assert report.snapshot_versions == [catalog.version]
            assert report.max_staleness == 0
            assert report.qps > 0
            assert (
                report.latency_p50
                <= report.latency_p95
                <= report.latency_p99
            )
            payload = report.to_dict()
            assert payload["completed"] == 10
            assert "latency_p99" in payload

    def test_staleness_is_measured_from_before_the_request(self, catalog):
        """A publish landing while a request runs is not staleness:
        the served version is compared with the live version sampled
        before the request, as the HTTP driver does."""
        with SearchService(catalog) as service:
            search = service.search

            def search_across_a_publish(query, limit=10):
                response = search(query, limit=limit)
                catalog.upsert(make_feature("d0"))  # bumps the version
                service.refresh()
                return response

            service.search = search_across_a_publish
            report = run_load(
                service,
                [QUERY],
                clients=1,
                requests_per_client=3,
                live_version=lambda: catalog.version,
            )
            assert report.completed == 3
            assert len(report.snapshot_versions) == 3
            # Each request was served at the version live when it
            # started, though the live version had moved on by the time
            # it returned.
            assert report.max_staleness == 0


class TestSystemIntegration:
    def test_search_service_from_system(self, tmp_path):
        from repro.archive import generate_archive, render_archive
        from repro.system import DataNearHere, NotWrangledError
        from tests.conftest import SMALL_SPEC

        fs, __ = render_archive(generate_archive(SMALL_SPEC))
        system = DataNearHere(fs)
        with pytest.raises(NotWrangledError):
            system.search_service()
        system.wrangle()
        with system.search_service() as service:
            response = service.search(QUERY)
            assert response.snapshot_version == service.source.version
            # Shared registry: the request landed in the system's.
            assert system.telemetry.counter("serve.requests") == 1
            # Shared cache: a system-level search of the same query and
            # catalog version hits the entry the service warmed.
            before = system.telemetry.counter("search.cache_hits")
            system.search(QUERY)
            assert (
                system.telemetry.counter("search.cache_hits") == before + 1
            )
