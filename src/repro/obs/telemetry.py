"""The process-local telemetry registry: counters, gauges, histograms, spans.

The wrangling loop is "run & rerun until the catalog converges", and the
fast paths added along the way — query caching, parallel ingest, retry,
quarantine — are invisible unless something counts how often they fire
and where a slow wrangle spent its time.  :class:`Telemetry` is that
something: a zero-dependency, process-local registry of

* **counters** — monotonically increasing event totals
  (``scan.quarantined``, ``search.cache_hits``),
* **gauges** — last-written values (``catalog.size``),
* **histograms** — fixed-bucket latency distributions
  (``search.query_seconds``), mergeable because the bucket bounds are
  part of the data, and
* **spans** — hierarchical timed regions (``wrangle`` →
  ``scan-archive`` → ``scan.extract``) with a context-manager API,
  monotonic-clock timing and per-span attributes.

Design constraints, in order:

1. **Near-zero cost when off.**  The module-level default telemetry is
   *disabled*: every ``count``/``observe`` is one attribute check, and
   spans skip the record path entirely (they still measure their own
   duration, so callers that report timings have exactly one timing
   source whether telemetry is on or off).
2. **Thread-safe.**  All mutation happens under one lock; the active
   span stack is thread-local, so spans opened on different threads
   nest independently.
3. **Process-mergeable.**  ProcessPool scan workers cannot share the
   parent's registry, so a worker builds its own, exports it as plain
   picklable dicts (:meth:`Telemetry.export`) and the parent folds it
   back in (:meth:`Telemetry.merge_worker`), re-parenting the worker's
   span tree under the parent's active span.  Counter totals after a
   parallel scan equal a serial scan's by construction: both paths run
   the identical traced unit and merge the identical export.

Nothing in this module imports from the rest of the package; every
layer above may import it freely.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

#: Version of the snapshot / trace-event schema.  Bump on any change to
#: the shape of :meth:`Telemetry.snapshot` or the JSONL events derived
#: from it.
SCHEMA_VERSION = 1

#: Default histogram bucket upper bounds, in seconds — tuned for the
#: pipeline's range: sub-millisecond cache hits up to multi-second cold
#: wrangles.  The last (overflow) bucket is implicit.
DEFAULT_LATENCY_BOUNDS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Histogram:
    """A fixed-bucket histogram with exact count/sum/min/max.

    Buckets are defined by their sorted upper bounds; one overflow
    bucket catches everything above the last bound.  Keeping the bounds
    in the data makes histograms mergeable across processes (the merge
    refuses mismatched bounds rather than silently re-bucketing).
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("bounds must be a non-empty sorted sequence")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        # Linear scan: bucket lists are short (~15) and observations on
        # the hot path are per-batch or per-query, not per-row.
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        self.counts[index] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "Histogram | dict") -> None:
        """Fold another histogram (or its exported dict) into this one."""
        if isinstance(other, dict):
            merged = Histogram.from_dict(other)
        else:
            merged = other
        if merged.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, n in enumerate(merged.counts):
            self.counts[i] += n
        self.count += merged.count
        self.sum += merged.sum
        if merged.count:
            self.min = min(self.min, merged.min)
            self.max = max(self.max, merged.max)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimated ``p``-quantile (``p`` in [0, 1]) by linear
        interpolation within the containing bucket.

        Exact at the recorded min/max; 0.0 when empty.  Values landing
        in the overflow bucket report the recorded maximum.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.count == 0:
            return 0.0
        target = p * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            cumulative += n
            if cumulative >= target and n:
                if i >= len(self.bounds):
                    return self.max
                lower = self.bounds[i - 1] if i else 0.0
                upper = self.bounds[i]
                inside = (target - (cumulative - n)) / n
                estimate = lower + inside * (upper - lower)
                return min(max(estimate, self.min), self.max)
        return self.max

    def to_dict(self) -> dict:
        """A picklable/JSON-able export of the full histogram state."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        """Rebuild a histogram from :meth:`to_dict` output."""
        hist = cls(tuple(payload["bounds"]))
        hist.counts = list(payload["counts"])
        hist.count = payload["count"]
        hist.sum = payload["sum"]
        if hist.count:
            hist.min = payload["min"]
            hist.max = payload["max"]
        return hist


def _coerce_attr(value: Any) -> Any:
    """Span attributes must survive pickling and JSON encoding."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


@dataclass(slots=True)
class RequestContext:
    """One served request's identity, carried alongside the telemetry.

    The serving layer creates one context per request (a deterministic
    ``req-NNNNNN`` id from a per-server counter) and activates it with
    :func:`use_request`.  While a context is active on a thread, every
    span and event recorded there is stamped with the request id — so
    one request's spans can be picked back out of the shared registry
    (the flight recorder does exactly this) even though many requests
    write into it concurrently.

    ``attrs`` is the request-scoped scratchpad: layers that know
    something about the request (the engine knows whether the cache hit
    and how many rows the scan approximated and rescored; the service
    knows the snapshot version) :meth:`annotate` or :meth:`tally` it,
    and the access log reads it all back at the end without any layer
    having to thread fields through its return types.

    ``spans`` keeps the request's own span records, in completion
    order, appended by the registry as each span on the request's
    thread ends.  The flight recorder captures a slow request from
    here, in O(request) and whatever the registry's ``max_spans`` cap
    has dropped.
    """

    request_id: str
    attrs: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def annotate(self, **attrs: Any) -> None:
        """Attach request-scoped facts (coerced to JSON-safe scalars)."""
        for key, value in attrs.items():
            self.attrs[key] = _coerce_attr(value)

    def tally(self, **counts: int) -> None:
        """Add ``counts`` to integer attributes (missing ones start at
        0); safe from any threads that share a context."""
        with _tally_lock:
            for key, value in counts.items():
                self.attrs[key] = self.attrs.get(key, 0) + value


#: Serialises :meth:`RequestContext.tally`'s read-modify-write.
_tally_lock = threading.Lock()


#: The active request context is per-thread, exactly like the active
#: telemetry registry: request threads never share a context.
_active_request = threading.local()


def current_request() -> RequestContext | None:
    """This thread's active request context, if any."""
    return getattr(_active_request, "value", None)


def set_request(context: RequestContext | None) -> RequestContext | None:
    """Make ``context`` active on this thread; returns the previous one."""
    previous = current_request()
    _active_request.value = context
    return previous


class use_request:
    """Context manager: activate a request context, restore on exit."""

    __slots__ = ("_context", "_previous")

    def __init__(self, context: RequestContext | None):
        self._context = context
        self._previous: RequestContext | None = None

    def __enter__(self) -> RequestContext | None:
        self._previous = set_request(self._context)
        return self._context

    def __exit__(self, *exc_info: object) -> None:
        set_request(self._previous)


@dataclass(slots=True)
class SpanRecord:
    """One completed span: what ran, where in the tree, for how long."""

    name: str
    #: Slash-joined ancestry, e.g. ``wrangle/scan-archive/scan.extract``.
    path: str
    #: Start offset in seconds since the registry's creation (monotonic
    #: clock).  Worker-merged spans keep their worker-relative offsets.
    start: float
    duration: float
    status: str = "ok"
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "path": self.path,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SpanRecord":
        return cls(
            name=payload["name"],
            path=payload["path"],
            start=payload["start"],
            duration=payload["duration"],
            status=payload.get("status", "ok"),
            attrs=dict(payload.get("attrs", {})),
        )


class Span:
    """A timed region; use as a context manager.

    Always measures its own duration (monotonic clock) so callers can
    read ``span.duration`` whether or not the registry records it —
    this is what lets component reports and ``--timings`` share one
    timing source.  An exception escaping the body marks the span
    ``status="error"`` and records the exception type before
    propagating.
    """

    __slots__ = (
        "_telemetry", "name", "attrs", "path", "start",
        "duration", "status", "_began", "_entered",
    )

    def __init__(self, telemetry: "Telemetry", name: str, attrs: dict):
        self._telemetry = telemetry
        self.name = name
        self.attrs = {k: _coerce_attr(v) for k, v in attrs.items()}
        self.path = name
        self.start = 0.0
        self.duration = 0.0
        self.status = "ok"
        self._began = 0.0
        self._entered = False

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute."""
        self.attrs[key] = _coerce_attr(value)

    def __enter__(self) -> "Span":
        telemetry = self._telemetry
        if telemetry.enabled:
            stack = telemetry._span_stack()
            self.path = (
                f"{stack[-1]}/{self.name}" if stack else self.name
            )
            stack.append(self.path)
            self._entered = True
            self.start = time.monotonic() - telemetry._t0
            context = current_request()
            if context is not None:
                self.attrs.setdefault("request_id", context.request_id)
        self._began = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.monotonic() - self._began
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("exception", exc_type.__name__)
        if self._entered:
            stack = self._telemetry._span_stack()
            if stack and stack[-1] == self.path:
                stack.pop()
            self._telemetry._record_span(
                SpanRecord(
                    name=self.name,
                    path=self.path,
                    start=self.start,
                    duration=self.duration,
                    status=self.status,
                    attrs=self.attrs,
                )
            )
        # Exceptions always propagate.


class Telemetry:
    """The registry one run's instrumentation writes into.

    Create one per logical run (a :class:`~repro.system.DataNearHere`
    owns one for its lifetime), activate it with :func:`use_telemetry`,
    and read it back with :meth:`snapshot`.  All methods are safe to
    call from multiple threads; cross-process aggregation goes through
    :meth:`export` / :meth:`merge_worker`.
    """

    def __init__(self, enabled: bool = True, max_spans: int = 10_000):
        self.enabled = enabled
        #: Raw span records are bounded so a pathological run (millions
        #: of quarantine events) degrades to dropped records, not OOM.
        self.max_spans = max_spans
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        self._spans: list[SpanRecord] = []
        self.dropped_spans = 0
        self._t0 = time.monotonic()
        self._local = threading.local()

    # -- span plumbing ------------------------------------------------------

    def _span_stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def active_path(self) -> str | None:
        """The path of the innermost open span on this thread, if any."""
        stack = self._span_stack()
        return stack[-1] if stack else None

    def _record_span(self, record: SpanRecord) -> None:
        context = current_request()
        if context is not None:
            context.spans.append(record)
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped_spans += 1
                return
            self._spans.append(record)

    # -- the instrumentation API --------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """A context-managed timed region nested under the active span."""
        return Span(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instantaneous (zero-duration) span.

        Used for point occurrences that belong in the trace — a file
        quarantined, a publish deferred — where wrapping a region makes
        no sense.
        """
        if not self.enabled:
            return
        stack = self._span_stack()
        path = f"{stack[-1]}/{name}" if stack else name
        coerced = {k: _coerce_attr(v) for k, v in attrs.items()}
        context = current_request()
        if context is not None:
            coerced.setdefault("request_id", context.request_id)
        self._record_span(
            SpanRecord(
                name=name,
                path=path,
                start=time.monotonic() - self._t0,
                duration=0.0,
                attrs=coerced,
            )
        )

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name`` (created at 0)."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = value

    def observe(
        self,
        name: str,
        value: float,
        bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS,
    ) -> None:
        """Record ``value`` into the histogram ``name``.

        ``bounds`` applies only when the histogram is first created;
        later observations reuse the existing buckets.
        """
        if not self.enabled:
            return
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = Histogram(bounds)
                self._histograms[name] = hist
            hist.observe(value)

    def counter(self, name: str) -> int:
        """Current value of one counter (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def histogram(self, name: str) -> Histogram | None:
        """The live histogram object for ``name``, if any observations."""
        with self._lock:
            return self._histograms.get(name)

    # -- cross-process aggregation ------------------------------------------

    def export(self) -> dict:
        """The registry as plain picklable dicts (a worker's return)."""
        with self._lock:
            return {
                "schema": SCHEMA_VERSION,
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: hist.to_dict()
                    for name, hist in self._histograms.items()
                },
                "spans": [record.to_dict() for record in self._spans],
                "dropped_spans": self.dropped_spans,
            }

    def merge_worker(self, export: dict) -> None:
        """Fold a worker's :meth:`export` into this registry.

        Counters and histogram buckets add; gauges take the worker's
        value (last write wins, same as local writes); the worker's
        span tree is re-parented under this thread's active span, so a
        chunk traced inside a worker shows up below ``scan.extract``
        exactly as a serially-traced chunk would.
        """
        if not self.enabled:
            return
        prefix = self.active_path()
        with self._lock:
            for name, value in export.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in export.get("gauges", {}).items():
                self._gauges[name] = value
            for name, payload in export.get("histograms", {}).items():
                hist = self._histograms.get(name)
                if hist is None:
                    self._histograms[name] = Histogram.from_dict(payload)
                else:
                    hist.merge(payload)
            for payload in export.get("spans", []):
                record = SpanRecord.from_dict(payload)
                if prefix:
                    record.path = f"{prefix}/{record.path}"
                if len(self._spans) >= self.max_spans:
                    self.dropped_spans += 1
                    continue
                self._spans.append(record)
            self.dropped_spans += export.get("dropped_spans", 0)

    # -- reading back --------------------------------------------------------

    def spans(self) -> list[SpanRecord]:
        """Completed span records, in completion order."""
        with self._lock:
            return list(self._spans)

    def snapshot(self) -> dict:
        """Everything recorded so far, as one JSON-able dict.

        The shape is the stable contract (``SCHEMA_VERSION``) shared by
        the JSONL sink, the text report and the benchmarks, so every
        surface shows the same numbers.  Keys are sorted for
        deterministic output under deterministic runs.
        """
        with self._lock:
            span_stats: dict[str, dict] = {}
            for record in self._spans:
                stats = span_stats.setdefault(
                    record.path,
                    {"count": 0, "total_seconds": 0.0, "errors": 0},
                )
                stats["count"] += 1
                stats["total_seconds"] += record.duration
                if record.status != "ok":
                    stats["errors"] += 1
            return {
                "schema": SCHEMA_VERSION,
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {
                    name: hist.to_dict()
                    for name, hist in sorted(self._histograms.items())
                },
                "spans": [record.to_dict() for record in self._spans],
                "span_stats": dict(sorted(span_stats.items())),
                "dropped_spans": self.dropped_spans,
            }

    def reset(self) -> None:
        """Forget everything recorded (the registry stays usable)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._spans.clear()
            self.dropped_spans = 0
            self._t0 = time.monotonic()


#: The module default: disabled, so un-opted-in library use pays one
#: ``enabled`` check per instrumentation call and records nothing.
_DISABLED = Telemetry(enabled=False)

#: The active registry is *per-thread*.  A concurrent serving layer runs
#: many requests at once, each wrapped in ``use_telemetry(...)``; were
#: the active slot a module global, request threads would race a
#: background wrangle's enter/exit and counters would land in the wrong
#: registry (or the global would be left pointing at a dead one after an
#: unlucky restore interleaving).  Thread-locality makes every
#: ``use_telemetry`` block private to its thread; code that fans work
#: out to *other* threads re-activates the parent's registry inside the
#: worker (see ``repro.serve``).
_active = threading.local()


def get_telemetry() -> Telemetry:
    """This thread's active registry (the disabled default if none)."""
    active = getattr(_active, "value", None)
    return active if active is not None else _DISABLED


def set_telemetry(telemetry: Telemetry | None) -> Telemetry:
    """Make ``telemetry`` active on this thread; ``None`` restores the
    disabled default.

    Returns the previously active registry so callers can restore it.
    """
    previous = get_telemetry()
    _active.value = telemetry if telemetry is not None else None
    return previous


class use_telemetry:
    """Context manager: activate a registry, restore the previous on exit.

    Re-entrant — nested ``with use_telemetry(...)`` blocks stack
    correctly, which is what lets a worker swap in its private registry
    while the parent's stays untouched in other processes.
    """

    __slots__ = ("_telemetry", "_previous")

    def __init__(self, telemetry: Telemetry | None):
        self._telemetry = telemetry
        self._previous: Telemetry | None = None

    def __enter__(self) -> Telemetry:
        self._previous = set_telemetry(self._telemetry)
        return get_telemetry()

    def __exit__(self, *exc_info: object) -> None:
        set_telemetry(self._previous)


def walk_span_tree(
    snapshot: dict,
) -> Iterator[tuple[str, str, int, dict]]:
    """Yield ``(path, name, depth, stats)`` over a snapshot's span tree.

    Children are ordered by first completion, parents by the order their
    first descendant (or themselves) completed — i.e. execution order —
    so a rendered tree reads in the order the run actually happened.
    """
    order: list[str] = []
    seen: set[str] = set()
    for record in snapshot.get("spans", []):
        path = record["path"]
        parts = path.split("/")
        for depth in range(1, len(parts) + 1):
            ancestor = "/".join(parts[:depth])
            if ancestor not in seen:
                seen.add(ancestor)
                order.append(ancestor)
    children: dict[str | None, list[str]] = {}
    for path in order:
        parent = path.rsplit("/", 1)[0] if "/" in path else None
        children.setdefault(parent, []).append(path)
    stats = snapshot.get("span_stats", {})

    def emit(path: str, depth: int):
        yield (
            path,
            path.rsplit("/", 1)[-1],
            depth,
            stats.get(path, {"count": 0, "total_seconds": 0.0, "errors": 0}),
        )
        for child in children.get(path, []):
            yield from emit(child, depth + 1)

    for root in children.get(None, []):
        yield from emit(root, 0)
