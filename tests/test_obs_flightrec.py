"""The flight recorder: bounded receipts for the slowest and the broken.

What obs/flightrec.py promises:

* two-phase capture — ``interested`` is an O(1) check against the
  slowest-heap floor, so the common fast request never pays for span
  extraction;
* the slow ring keeps exactly the N slowest (evicted by faster ones,
  never by time), the error ring keeps the most recent M errors
  (oldest rolls off);
* snapshots are slowest-first, JSON-able, and self-contained (spans
  were copied at capture);
* a request context keeps exactly its own span records, whatever the
  shared registry's ``max_spans`` cap has dropped.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    FlightRecord,
    FlightRecorder,
    RequestContext,
    Telemetry,
    use_request,
    use_telemetry,
)


def record(
    request_id: str,
    latency: float,
    error: bool = False,
    status: int = 200,
    **attrs,
) -> FlightRecord:
    return FlightRecord(
        request_id=request_id,
        query="with salinity",
        status=status,
        latency_seconds=latency,
        error=error,
        attrs=attrs,
    )


class TestInterest:
    def test_everything_is_interesting_below_capacity(self):
        recorder = FlightRecorder(slow_capacity=2)
        assert recorder.interested(0.0001, error=False)
        recorder.record(record("a", 0.5))
        assert recorder.interested(0.0001, error=False)

    def test_at_capacity_only_slower_than_the_floor(self):
        recorder = FlightRecorder(slow_capacity=2)
        recorder.record(record("a", 0.2))
        recorder.record(record("b", 0.5))
        assert not recorder.interested(0.1, error=False)
        assert not recorder.interested(0.2, error=False)  # ties lose
        assert recorder.interested(0.3, error=False)

    def test_errors_are_always_interesting(self):
        recorder = FlightRecorder(slow_capacity=1)
        recorder.record(record("a", 9.9))
        assert recorder.interested(0.0001, error=True)


class TestSlowRing:
    def test_keeps_exactly_the_n_slowest(self):
        recorder = FlightRecorder(slow_capacity=3)
        latencies = [0.1, 0.7, 0.3, 0.9, 0.2, 0.5]
        for index, latency in enumerate(latencies):
            recorder.record(record(f"r{index}", latency))
        snapshot = recorder.snapshot()
        kept = [r["latency_seconds"] for r in snapshot["slowest"]]
        assert kept == [0.9, 0.7, 0.5]  # slowest first

    def test_faster_than_the_floor_is_dropped(self):
        recorder = FlightRecorder(slow_capacity=1)
        assert recorder.record(record("slow", 0.9)) is True
        assert recorder.record(record("fast", 0.1)) is False
        snapshot = recorder.snapshot()
        assert [r["request_id"] for r in snapshot["slowest"]] == ["slow"]
        assert snapshot["captured"] == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(slow_capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(error_capacity=0)


class TestErrorRing:
    def test_errors_are_kept_separately_from_slow(self):
        recorder = FlightRecorder(slow_capacity=1)
        recorder.record(record("slow", 0.9))
        recorder.record(record("boom", 0.001, error=True, status=500))
        snapshot = recorder.snapshot()
        assert [r["request_id"] for r in snapshot["slowest"]] == ["slow"]
        assert [r["request_id"] for r in snapshot["errors"]] == ["boom"]

    def test_oldest_error_rolls_off(self):
        recorder = FlightRecorder(error_capacity=2)
        for index in range(3):
            recorder.record(
                record(f"e{index}", 0.01, error=True, status=500)
            )
        snapshot = recorder.snapshot()
        assert [r["request_id"] for r in snapshot["errors"]] == ["e1", "e2"]
        assert snapshot["captured"] == 3  # captured counts offers kept


class TestSnapshotAndDump:
    def test_snapshot_is_json_able_and_self_contained(self):
        recorder = FlightRecorder()
        recorder.record(
            record("a", 0.5, cache_hit=False, candidates_in=12)
        )
        snapshot = recorder.snapshot()
        json.dumps(snapshot)  # must not raise
        entry = snapshot["slowest"][0]
        assert entry["query"] == "with salinity"
        assert entry["attrs"]["candidates_in"] == 12
        assert entry["spans"] == []

    def test_dump_writes_json_and_counts_records(self, tmp_path):
        recorder = FlightRecorder()
        recorder.record(record("a", 0.5))
        recorder.record(record("b", 0.1, error=True, status=500))
        out = tmp_path / "flight.json"
        assert recorder.dump(str(out)) == 2
        payload = json.loads(out.read_text())
        assert payload["captured"] == 2
        assert len(payload["slowest"]) == 1
        assert len(payload["errors"]) == 1

    def test_captured_spans_survive_registry_truncation(self):
        """Spans are copied at capture, not referenced."""
        telemetry = Telemetry()
        context = RequestContext("req-1")
        with use_telemetry(telemetry), use_request(context):
            with telemetry.span("http.request"):
                pass
        recorder = FlightRecorder()
        recorder.record(
            FlightRecord(
                request_id="req-1",
                query="q",
                status=200,
                latency_seconds=0.1,
                spans=[span.to_dict() for span in context.spans],
            )
        )
        telemetry.reset()
        context.spans.clear()
        entry = recorder.snapshot()["slowest"][0]
        assert [s["name"] for s in entry["spans"]] == ["http.request"]


class TestRequestSpans:
    def test_context_keeps_only_its_own_spans(self):
        telemetry = Telemetry()
        first, second = RequestContext("req-1"), RequestContext("req-2")
        with use_telemetry(telemetry):
            with telemetry.span("outside"):
                pass
            with use_request(first):
                with telemetry.span("outer"):
                    with telemetry.span("inner"):
                        pass
                    telemetry.event("quarantined")
            with use_request(second), telemetry.span("other"):
                pass
        # Completion order, each stamped with its request's id.
        assert [s.name for s in first.spans] == [
            "inner", "quarantined", "outer",
        ]
        assert [s.name for s in second.spans] == ["other"]
        assert all(
            s.attrs["request_id"] == "req-1" for s in first.spans
        )
        assert len(telemetry.spans()) == 5

    def test_context_keeps_its_spans_past_the_registry_cap(self):
        telemetry = Telemetry(max_spans=2)
        context = RequestContext("req-9")
        with use_telemetry(telemetry):
            for name in ("a", "b"):
                with telemetry.span(name):
                    pass
            with use_request(context), telemetry.span("late"):
                with telemetry.span("inner"):
                    pass
        assert telemetry.dropped_spans == 2
        assert [s.name for s in context.spans] == ["inner", "late"]

    def test_disabled_telemetry_keeps_no_spans(self):
        telemetry = Telemetry(enabled=False)
        context = RequestContext("req-0")
        with use_telemetry(telemetry), use_request(context):
            with telemetry.span("http.request"):
                telemetry.event("tick")
        assert context.spans == []
