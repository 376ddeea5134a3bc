"""The thread-safe front door for concurrent ranked search.

:class:`SearchService` is what a portal process puts between its request
handlers and the catalog.  The concurrency model:

* **Requests never touch the live catalog.**  The service holds a
  :class:`~repro.core.search.SearchEngine` built over an immutable
  :class:`~repro.catalog.store.CatalogSnapshot`; every request reads the
  engine reference once, so each request is served by exactly one
  catalog version even while :meth:`refresh` swaps a newer snapshot in
  underneath.  Writers (a concurrent re-wrangle) are never blocked by
  readers — they touch the live store, not the snapshot.
* **Admission is bounded.**  At most ``max_concurrency`` requests
  execute at once; up to ``queue_depth`` more wait their turn.  Beyond
  that, :meth:`search` fails fast with the typed
  :class:`~repro.core.errors.OverloadedError` — backpressure a client
  can retry on, instead of an unbounded queue that melts latency for
  everyone (the "heavy traffic" north star is explicit about this).
* **One cache, one registry.**  The version-keyed
  :class:`~repro.core.cache.QueryCache` and the
  :class:`~repro.obs.Telemetry` registry are shared across snapshot
  refreshes: cache entries die naturally when the version moves, and
  per-request spans/counters from every thread merge into one place.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from dataclasses import dataclass

from ..catalog.store import CatalogStore
from ..core.cache import QueryCache
from ..core.errors import OverloadedError
from ..core.query import Query
from ..core.scoring import ScoringConfig
from ..core.search import SearchEngine, SearchResults, hierarchy_digest
from ..hierarchy import ConceptHierarchy
from ..obs import Telemetry, current_request, use_telemetry


class ServiceClosedError(RuntimeError):
    """Raised when a request arrives after :meth:`SearchService.close`."""


@dataclass(frozen=True, slots=True)
class ServeConfig:
    """Concurrency knobs for :class:`SearchService`.

    ``max_concurrency`` requests run at once, ``queue_depth`` more may
    wait; anything beyond is rejected with ``OverloadedError``.  Each
    admitted request scores on its own thread.
    """

    max_concurrency: int = 4
    queue_depth: int = 16
    cache_size: int = 512
    #: How many of the hottest recent queries a refresh pre-executes
    #: against the new engine *before* the atomic swap (0 disables) —
    #: the first post-swap requests for those queries hit a warm cache
    #: instead of paying a cold scan under their own latency budget.
    warm_queries: int = 4

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be positive")
        if self.queue_depth < 0:
            raise ValueError("queue_depth must be non-negative")
        if self.cache_size < 1:
            raise ValueError("cache_size must be positive")
        if self.warm_queries < 0:
            raise ValueError("warm_queries must be non-negative")

    @property
    def admission_capacity(self) -> int:
        """Executing plus queued requests admitted at any instant."""
        return self.max_concurrency + self.queue_depth


@dataclass(frozen=True, slots=True)
class ServeResponse:
    """One served request: the page plus how it was served."""

    #: The ranked page (with ``total_matches``/``truncated`` metadata).
    results: SearchResults
    #: The catalog version of the snapshot that served this request —
    #: exactly one version per request, by construction.
    snapshot_version: int
    #: Seconds spent waiting for an execution slot.
    queued_seconds: float
    #: Seconds from admission to completion (queue + execution).
    total_seconds: float


class SearchService:
    """Bounded-concurrency ranked search over catalog snapshots.

    ``catalog`` is the *live* store the wrangler publishes into; the
    service snapshots it at construction and again on every
    :meth:`refresh`.  :meth:`search` may be called from any number of
    threads concurrently.
    """

    def __init__(
        self,
        catalog: CatalogStore,
        hierarchy: ConceptHierarchy | None = None,
        scoring: ScoringConfig | None = None,
        config: ServeConfig | None = None,
        cache: QueryCache | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.source = catalog
        self.hierarchy = hierarchy
        self.scoring = scoring or ScoringConfig()
        self.config = config or ServeConfig()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.cache = cache if cache is not None else QueryCache(
            maxsize=self.config.cache_size
        )
        # Admission control: ``_admission`` bounds executing + queued
        # (non-blocking — its failure IS the overload signal);
        # ``_slots`` serializes execution (blocking — waiting on it is
        # the queue).
        self._admission = threading.BoundedSemaphore(
            self.config.admission_capacity
        )
        self._slots = threading.BoundedSemaphore(self.config.max_concurrency)
        self._state_lock = threading.Lock()
        self._idle = threading.Condition(self._state_lock)
        self._in_flight = 0
        self._admitted = 0
        self._closed = False
        # The access pattern, for refresh warming: a bounded ring of
        # recent (query, limit) pairs.  Appends from request threads
        # are lock-free (deque appends are atomic); refresh counts the
        # hottest entries and pre-executes them on the new engine.
        self._recent_queries: deque = deque(maxlen=256)
        # The swap target: requests read this reference exactly once.
        self._engine = self._build_engine()

    # -- snapshot lifecycle --------------------------------------------------

    def _build_engine(
        self,
        previous: SearchEngine | None = None,
        delta=None,
    ) -> SearchEngine:
        """Build the next engine — cold, or O(changed) from a delta.

        With ``previous`` and a spanning ``delta``
        (:class:`~repro.wrangling.state.PublishDelta`), the whole
        handoff is proportional to the publish, not the catalog:

        * **snapshot** — ``snapshot_cow`` shares every unchanged
          feature object with the previous snapshot (the store
          re-verifies the version stamps under its lock; any failure
          falls back to a full copy),
        * **columnar** — the copy-on-write snapshot refreezes
          incrementally from the previous view (splicing unchanged
          rows; see ``ColumnarSnapshot.freeze_from``), and
        * **warming** — the hottest recent queries are pre-executed on
          the new engine, so the swap exposes no cold-cache cliff.

        No cache entry crosses versions: the cache is keyed by catalog
        version, so every entry of the previous version simply stops
        matching, and only the warmed queries are cached at the new one.
        """
        with use_telemetry(self.telemetry):
            with self.telemetry.span(
                "refresh.build",
                delta=delta.changed if delta is not None else -1,
            ):
                snapshot = None
                delta_ok = (
                    previous is not None
                    and delta is not None
                    and delta.spans(
                        previous.catalog.version, self.source.version
                    )
                )
                if delta_ok:
                    snapshot = self.source.snapshot_cow(
                        previous.catalog,
                        delta.upserted,
                        delta.removed,
                        expect_version=delta.published_version,
                    )
                used_delta = snapshot is not None
                if snapshot is None:
                    snapshot = self.source.snapshot()
                engine = SearchEngine(
                    snapshot,
                    hierarchy=self.hierarchy,
                    config=self.scoring,
                    cache=self.cache,
                )
                # Warm the columnar freeze off the request path: the
                # first admitted query scans flat columns instead of
                # paying the one-time freeze under its own latency
                # budget.
                snapshot.columnar()
                warmed = self._warm(engine) if previous is not None else 0
                if previous is not None:
                    telemetry = self.telemetry
                    if used_delta:
                        telemetry.count("refresh.delta_applied")
                        telemetry.count("refresh.delta_size", delta.changed)
                    else:
                        telemetry.count("refresh.full_rebuilds")
                    if warmed:
                        telemetry.count("refresh.warmed_queries", warmed)
        self.telemetry.gauge("serve.snapshot_version", snapshot.version)
        return engine

    def _warm(self, engine: SearchEngine) -> int:
        """Pre-execute the hottest recent queries on the new engine.

        Runs *before* the atomic swap, so the first post-swap request
        for a hot query hits the version-keyed cache instead of paying
        the cold scan — the refresh latency cliff the churn benchmark
        measures.  Hotness is the frequency count over the bounded
        recent-query ring.
        """
        k = self.config.warm_queries
        if k <= 0:
            return 0
        recent = list(self._recent_queries)
        if not recent:
            return 0
        warmed = 0
        for (query, limit), __ in Counter(recent).most_common(k):
            try:
                engine.search(query, limit=limit)
            except Exception:
                break  # warming must never block a refresh
            warmed += 1
        return warmed

    @property
    def snapshot_version(self) -> int:
        """The catalog version currently being served."""
        return self._engine.catalog.version

    def refresh(
        self,
        hierarchy: ConceptHierarchy | None = None,
        delta=None,
    ) -> bool:
        """Swap in a fresh snapshot of the source catalog.

        Call after a publish (the wrangler's loop does).  A no-op when
        the source version is unchanged — the warm engine and every
        cache entry stay live.  Returns True when a new
        snapshot was installed.  In-flight requests keep the snapshot
        they started with; only requests admitted after the swap see
        the new version.

        ``delta`` — the publish's
        :class:`~repro.wrangling.state.PublishDelta` — turns the
        rebuild into the O(changed) warm handoff described on
        :meth:`_build_engine`.  It is used only when its version stamps
        prove it spans exactly the previous snapshot's version to the
        live version (anything else — unstamped, full-copy, a racing
        foreign write — falls back to the full path, same results).

        A replacement ``hierarchy`` is compared by the key the cache
        uses (:func:`~repro.core.search.hierarchy_digest`), not by
        identity: an equal-but-distinct object neither forces a rebuild
        nor invalidates warm cache entries, and the old object is kept.
        """
        previous = self._engine
        hierarchy_changed = (
            hierarchy is not None
            and hierarchy_digest(hierarchy) != previous.hierarchy_key
        )
        if hierarchy_changed:
            self.hierarchy = hierarchy
        if (
            self.source.version == previous.catalog.version
            and not hierarchy_changed
        ):
            return False
        engine = self._build_engine(
            previous=previous,
            delta=None if hierarchy_changed else delta,
        )
        self._engine = engine  # atomic reference swap
        self.telemetry.count("serve.snapshot_refreshes")
        return True

    # -- the request path ----------------------------------------------------

    def search(self, query: Query, limit: int = 10) -> ServeResponse:
        """Serve one ranked query; safe from any thread.

        Raises:
            OverloadedError: when executing + queued requests already
                fill the admission capacity (nothing was executed).
            ServiceClosedError: after :meth:`close` has begun.
            ValueError: if ``limit`` is not positive.
        """
        if self._closed:
            raise ServiceClosedError("search service is closed")
        if not self._admission.acquire(blocking=False):
            self.telemetry.count("serve.rejected")
            raise OverloadedError(
                in_flight=self.config.admission_capacity,
                capacity=self.config.admission_capacity,
            )
        admitted_at = time.monotonic()
        try:
            self._slots.acquire()
            try:
                queued = time.monotonic() - admitted_at
                with self._state_lock:
                    if self._closed:
                        raise ServiceClosedError(
                            "search service is closed"
                        )
                    self._in_flight += 1
                    self._admitted += 1
                try:
                    response = self._execute(query, limit, queued)
                finally:
                    with self._idle:
                        self._in_flight -= 1
                        if self._in_flight == 0:
                            self._idle.notify_all()
                return response
            finally:
                self._slots.release()
        finally:
            self._admission.release()

    def _execute(
        self, query: Query, limit: int, queued: float
    ) -> ServeResponse:
        engine = self._engine  # one read: this request's snapshot
        started = time.monotonic()
        context = current_request()
        if context is not None:
            context.annotate(
                snapshot_version=engine.catalog.version,
                queued_seconds=round(queued, 6),
            )
        with use_telemetry(self.telemetry):
            with self.telemetry.span(
                "serve.request",
                limit=limit,
                snapshot_version=engine.catalog.version,
            ):
                results = engine.search(query, limit=limit)
        # Feed the refresh warmer's hotness ring (deque appends are
        # atomic; maxlen bounds it).
        self._recent_queries.append((query, limit))
        duration = time.monotonic() - started
        self.telemetry.count("serve.requests")
        self.telemetry.observe("serve.request_seconds", duration)
        self.telemetry.observe("serve.queued_seconds", queued)
        return ServeResponse(
            results=results,
            snapshot_version=engine.catalog.version,
            queued_seconds=queued,
            total_seconds=queued + duration,
        )

    # -- lifecycle -----------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Wait until no request is executing; True if idle was reached."""
        with self._idle:
            return self._idle.wait_for(
                lambda: self._in_flight == 0, timeout=timeout
            )

    def close(self, timeout: float | None = None) -> bool:
        """Stop admitting and drain in-flight requests.

        Graceful: requests already executing run to completion; new
        calls raise :class:`ServiceClosedError`.  Returns True when the
        drain finished inside ``timeout`` (None = wait forever); a
        request still executing after a timed-out close finishes
        normally.
        """
        with self._state_lock:
            self._closed = True
        return self.drain(timeout=timeout)

    def __enter__(self) -> "SearchService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        """Operational state for health surfaces and the CLI.

        ``staleness`` — how many catalog versions the served snapshot
        lags the live store — is computed here on demand; the request
        path never reads the live store.
        """
        with self._state_lock:
            in_flight = self._in_flight
            admitted = self._admitted
        snapshot_version = self._engine.catalog.version
        return {
            "snapshot_version": snapshot_version,
            "source_version": self.source.version,
            "staleness": self.source.version - snapshot_version,
            "in_flight": in_flight,
            "requests_admitted": admitted,
            "max_concurrency": self.config.max_concurrency,
            "queue_depth": self.config.queue_depth,
            "closed": self._closed,
            "cache": self.cache.stats(),
        }
