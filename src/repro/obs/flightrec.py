"""The slow-query flight recorder: "why was *that* request slow?".

Aggregates (histograms, SLO windows) say the p99 moved; they cannot
say which query moved it.  :class:`FlightRecorder` keeps the receipts:
a bounded ring of the **N slowest** requests plus **every erroring**
request (up to its own bound), each captured as a
:class:`FlightRecord` — request id, query text, status, latency,
result stats and the request's *full span tree*, which the request's
own :class:`~repro.obs.telemetry.RequestContext` kept as its spans
ended.

The capture protocol is two-phase so the request path stays cheap:

1. the HTTP handler asks :meth:`FlightRecorder.interested` with just
   the latency and error flag — an O(1) check against the current
   slowest-heap floor,
2. only when interested does the caller pay to copy the request's
   spans (O(request), never a walk of the shared span list) and build
   the record.

Retention is explicitly bounded twice over: the recorder holds at most
``slow_capacity`` slow records and ``error_capacity`` error records
(oldest errors roll off; slow records are evicted by a faster
request), and the spans inside a record were copied at capture time.
Because a request keeps its own span records, the telemetry registry's
``max_spans`` cap neither hollows out a kept record nor empties the
capture of a request served after the cap was hit.

Thread-safe; imports nothing from the rest of the package.
"""

from __future__ import annotations

import heapq
import itertools
import json
import threading
from dataclasses import dataclass, field
from typing import IO

#: Default bounds: enough to tell a story, small enough to forget.
DEFAULT_SLOW_CAPACITY = 16
DEFAULT_ERROR_CAPACITY = 32


@dataclass(slots=True)
class FlightRecord:
    """One captured request, self-contained and JSON-able."""

    request_id: str
    query: str
    status: int
    latency_seconds: float
    error: bool = False
    #: Result stats / access-log attrs (candidates in/out, cache hit,
    #: snapshot version ...) — whatever the request context gathered.
    attrs: dict = field(default_factory=dict)
    #: The request's span tree as exported span dicts, captured at
    #: record time (immune to later registry truncation).
    spans: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "query": self.query,
            "status": self.status,
            "latency_seconds": self.latency_seconds,
            "error": self.error,
            "attrs": dict(self.attrs),
            "spans": list(self.spans),
        }


class FlightRecorder:
    """Bounded keeper of the slowest and the broken."""

    def __init__(
        self,
        slow_capacity: int = DEFAULT_SLOW_CAPACITY,
        error_capacity: int = DEFAULT_ERROR_CAPACITY,
    ):
        if slow_capacity < 1 or error_capacity < 1:
            raise ValueError("capacities must be >= 1")
        self.slow_capacity = slow_capacity
        self.error_capacity = error_capacity
        self._lock = threading.Lock()
        #: Min-heap of ``(latency, seq, record)`` — the root is the
        #: *fastest of the slowest*, i.e. the eviction candidate.
        self._slow: list[tuple[float, int, FlightRecord]] = []
        self._errors: list[FlightRecord] = []
        self._seq = itertools.count()
        self.captured = 0

    def interested(self, latency_seconds: float, error: bool) -> bool:
        """Would a request with this outcome be kept?  O(1), no capture.

        The handler calls this *before* paying for span extraction, so
        the common fast-and-fine request never touches the span list.
        """
        if error:
            return True
        with self._lock:
            if len(self._slow) < self.slow_capacity:
                return True
            return latency_seconds > self._slow[0][0]

    def record(self, record: FlightRecord) -> bool:
        """Offer a captured record; returns True when it was kept."""
        with self._lock:
            if record.error:
                self._errors.append(record)
                if len(self._errors) > self.error_capacity:
                    self._errors.pop(0)  # oldest error rolls off
                self.captured += 1
                return True
            entry = (record.latency_seconds, next(self._seq), record)
            if len(self._slow) < self.slow_capacity:
                heapq.heappush(self._slow, entry)
                self.captured += 1
                return True
            if record.latency_seconds > self._slow[0][0]:
                heapq.heapreplace(self._slow, entry)
                self.captured += 1
                return True
            return False

    def snapshot(self) -> dict:
        """The ``/debug/slow`` body: slowest-first, then recent errors."""
        with self._lock:
            slowest = [
                record.to_dict()
                for _, _, record in sorted(
                    self._slow, key=lambda e: (-e[0], e[1])
                )
            ]
            errors = [record.to_dict() for record in self._errors]
        return {
            "slow_capacity": self.slow_capacity,
            "error_capacity": self.error_capacity,
            "captured": self.captured,
            "slowest": slowest,
            "errors": errors,
        }

    def dump(self, destination: str | IO[str]) -> int:
        """Write the snapshot as JSON; returns records written."""
        snapshot = self.snapshot()
        own = isinstance(destination, str)
        fh = open(destination, "w", encoding="utf-8") if own else destination
        try:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
        finally:
            if own:
                fh.close()
        return len(snapshot["slowest"]) + len(snapshot["errors"])

