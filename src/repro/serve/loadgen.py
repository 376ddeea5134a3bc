"""Closed-loop load generation against a :class:`SearchService`.

Models the workload the motivating user studies describe: N interactive
clients, each issuing a query, reading the page (think time), then
issuing the next — a *closed loop*, so offered load adapts to service
latency instead of piling up an open-loop backlog.  Query selection is
Zipf-distributed over the workload's query pool (a few refinement
favourites dominate, a long tail of one-offs follows), which is what
exercises the version-keyed cache realistically.

Everything is deterministic under a fixed seed: per-client RNGs are
seeded from ``seed`` and the client index, so reports are reproducible
modulo scheduling noise in the latency numbers themselves.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence
from urllib.parse import urlencode, urlsplit

from ..core.errors import OverloadedError
from ..core.query import Query
from .service import SearchService, ServiceClosedError


def percentile(values: Sequence[float], p: float) -> float:
    """The nearest-rank ``p``-th percentile (0 < p <= 100) of ``values``."""
    if not values:
        return 0.0
    if not 0.0 < p <= 100.0:
        raise ValueError("p must lie in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[rank - 1]


def _status_latency_summary(
    per_status: dict[str, list[float]],
) -> dict[str, dict]:
    """Collapse per-status latency lists into count/mean/p95 summaries."""
    return {
        status: {
            "count": len(values),
            "mean": sum(values) / len(values),
            "p95": percentile(values, 95.0),
        }
        for status, values in sorted(per_status.items())
        if values
    }


def zipf_weights(n: int, s: float) -> list[float]:
    """Zipf weights ``1/rank^s`` for ranks 1..n (unnormalized)."""
    if n < 1:
        raise ValueError("n must be positive")
    if s < 0.0:
        raise ValueError("s must be non-negative")
    return [1.0 / (rank**s) for rank in range(1, n + 1)]


@dataclass(slots=True)
class LoadReport:
    """What one closed-loop run measured."""

    clients: int
    requests_per_client: int
    think_seconds: float
    completed: int = 0
    rejected: int = 0
    errors: int = 0
    duration_seconds: float = 0.0
    qps: float = 0.0
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    latency_mean: float = 0.0
    queued_p95: float = 0.0
    #: Distinct snapshot versions observed across all responses.
    snapshot_versions: list[int] = field(default_factory=list)
    #: Worst (live version - served version) observed, when a live
    #: version probe was provided; 0 otherwise.
    max_staleness: int = 0
    #: How the workload reached the service: "inproc" (direct calls)
    #: or "http" (sockets via :func:`run_load_http`).
    transport: str = "inproc"
    #: HTTP status -> count, socket mode only (empty for in-process).
    status_counts: dict = field(default_factory=dict)
    #: Responses whose snapshot version was *older* than one the same
    #: client had already seen — must be 0 (snapshots swap forward only).
    version_regressions: int = 0
    #: Per-status latency summaries (count/mean/p95), errors included —
    #: a 500 that took four seconds is tail behavior the SLO windows
    #: will see, so the load report must see it too.  Retried 429s stay
    #: out (they are shed, not served).
    latency_by_status: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "clients": self.clients,
            "requests_per_client": self.requests_per_client,
            "think_seconds": self.think_seconds,
            "completed": self.completed,
            "rejected": self.rejected,
            "errors": self.errors,
            "duration_seconds": self.duration_seconds,
            "qps": self.qps,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "latency_mean": self.latency_mean,
            "queued_p95": self.queued_p95,
            "snapshot_versions": self.snapshot_versions,
            "max_staleness": self.max_staleness,
            "transport": self.transport,
            "status_counts": self.status_counts,
            "version_regressions": self.version_regressions,
            "latency_by_status": self.latency_by_status,
        }


def run_load(
    service: SearchService,
    queries: Sequence[Query],
    clients: int = 4,
    requests_per_client: int = 25,
    think_seconds: float = 0.0,
    zipf_s: float = 1.1,
    limit: int = 10,
    seed: int = 0,
    live_version: Callable[[], int] | None = None,
) -> LoadReport:
    """Drive ``clients`` closed-loop threads through the service.

    Each client issues ``requests_per_client`` Zipf-selected queries
    with ``think_seconds`` of think time between completions.  Rejected
    requests (:class:`OverloadedError`) are counted and retried after a
    short jittered backoff — they do not count as completions.  Pass
    ``live_version`` (e.g. ``lambda: store.version``) to track snapshot
    staleness under a concurrent wrangler: as in :func:`run_load_http`,
    it is sampled *before* each request, and the served version may lag
    that sample by at most 1 when the publisher refreshes after every
    batch.
    """
    if clients < 1:
        raise ValueError("clients must be positive")
    if requests_per_client < 1:
        raise ValueError("requests_per_client must be positive")
    if think_seconds < 0.0:
        raise ValueError("think_seconds must be non-negative")
    if not queries:
        raise ValueError("queries must be non-empty")

    weights = zipf_weights(len(queries), zipf_s)
    lock = threading.Lock()
    latencies: list[float] = []
    per_status: dict[str, list[float]] = {}
    queued: list[float] = []
    versions: set[int] = set()
    counts = {"completed": 0, "rejected": 0, "errors": 0, "staleness": 0}
    start_barrier = threading.Barrier(clients + 1)

    def client(index: int) -> None:
        rng = random.Random(seed * 100_003 + index)
        start_barrier.wait()
        served = 0
        while served < requests_per_client:
            query = rng.choices(queries, weights=weights, k=1)[0]
            live_before = (
                live_version() if live_version is not None else None
            )
            attempt_started = time.monotonic()
            try:
                response = service.search(query, limit=limit)
            except OverloadedError:
                with lock:
                    counts["rejected"] += 1
                # Jittered backoff before the retry, so rejected
                # clients do not re-stampede in lockstep.
                time.sleep(rng.uniform(0.001, 0.005))
                continue
            except ServiceClosedError:
                elapsed = time.monotonic() - attempt_started
                with lock:
                    counts["errors"] += 1
                    latencies.append(elapsed)
                    per_status.setdefault("503", []).append(elapsed)
                return
            except Exception:
                # Error responses took real time to fail; dropping them
                # from the percentile math would let the load report
                # and the SLO windows disagree on tail behavior.
                elapsed = time.monotonic() - attempt_started
                with lock:
                    counts["errors"] += 1
                    latencies.append(elapsed)
                    per_status.setdefault("error", []).append(elapsed)
                served += 1
                continue
            staleness = (
                max(0, live_before - response.snapshot_version)
                if live_before is not None
                else 0
            )
            with lock:
                counts["completed"] += 1
                counts["staleness"] = max(counts["staleness"], staleness)
                latencies.append(response.total_seconds)
                per_status.setdefault("200", []).append(
                    response.total_seconds
                )
                queued.append(response.queued_seconds)
                versions.add(response.snapshot_version)
            served += 1
            if think_seconds > 0.0:
                time.sleep(think_seconds)

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    start_barrier.wait()
    started = time.monotonic()
    for thread in threads:
        thread.join()
    duration = time.monotonic() - started

    report = LoadReport(
        clients=clients,
        requests_per_client=requests_per_client,
        think_seconds=think_seconds,
        completed=counts["completed"],
        rejected=counts["rejected"],
        errors=counts["errors"],
        duration_seconds=duration,
        snapshot_versions=sorted(versions),
        max_staleness=counts["staleness"],
        latency_by_status=_status_latency_summary(per_status),
    )
    if duration > 0.0:
        report.qps = report.completed / duration
    if latencies:
        report.latency_p50 = percentile(latencies, 50.0)
        report.latency_p95 = percentile(latencies, 95.0)
        report.latency_p99 = percentile(latencies, 99.0)
        report.latency_mean = sum(latencies) / len(latencies)
    if queued:
        report.queued_p95 = percentile(queued, 95.0)
    return report


def run_load_http(
    url: str,
    query_texts: Sequence[str],
    clients: int = 4,
    requests_per_client: int = 25,
    think_seconds: float = 0.0,
    zipf_s: float = 1.1,
    limit: int = 10,
    seed: int = 0,
    live_version: Callable[[], int] | None = None,
    timeout: float = 30.0,
) -> LoadReport:
    """Socket-mode twin of :func:`run_load`: drive a real HTTP server.

    Same closed-loop Zipf workload, but each client owns one kept-alive
    :class:`http.client.HTTPConnection` to ``url`` (a
    :class:`~repro.serve.http.SearchHTTPServer` address, e.g.
    ``"http://127.0.0.1:8080"``) and issues ``GET /search`` with the
    query *text* — so the path measured includes the qparser, JSON
    encoding and the socket round trip, i.e. what a remote portal
    client actually experiences.

    Status mapping mirrors the in-process driver: 429 counts as
    rejected and is retried after a jittered backoff, 503 ends the
    client (service closing), any other non-200 counts as an error.
    Staleness is measured against ``live_version`` sampled *before*
    each request — served version may never lag that sample by more
    than 1 when the publisher refreshes after every batch.  Each client
    also checks that versions never move backwards across its own
    responses (``version_regressions``).
    """
    if clients < 1:
        raise ValueError("clients must be positive")
    if requests_per_client < 1:
        raise ValueError("requests_per_client must be positive")
    if think_seconds < 0.0:
        raise ValueError("think_seconds must be non-negative")
    if not query_texts:
        raise ValueError("query_texts must be non-empty")
    parts = urlsplit(url if "//" in url else f"http://{url}")
    host = parts.hostname or "127.0.0.1"
    port = parts.port or 80

    weights = zipf_weights(len(query_texts), zipf_s)
    lock = threading.Lock()
    latencies: list[float] = []
    per_status: dict[str, list[float]] = {}
    queued: list[float] = []
    versions: set[int] = set()
    status_counts: dict[int, int] = {}
    counts = {
        "completed": 0,
        "rejected": 0,
        "errors": 0,
        "staleness": 0,
        "regressions": 0,
    }
    start_barrier = threading.Barrier(clients + 1)

    def client(index: int) -> None:
        rng = random.Random(seed * 100_003 + index)
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        last_version: int | None = None
        start_barrier.wait()
        served = 0
        try:
            while served < requests_per_client:
                text = rng.choices(query_texts, weights=weights, k=1)[0]
                target = "/search?" + urlencode(
                    {"q": text, "limit": limit}
                )
                live_before = (
                    live_version() if live_version is not None else None
                )
                started = time.monotonic()
                try:
                    conn.request("GET", target)
                    response = conn.getresponse()
                    body = response.read()
                except (OSError, http.client.HTTPException):
                    # Connection-level failure: count it, reconnect.
                    elapsed = time.monotonic() - started
                    conn.close()
                    conn = http.client.HTTPConnection(
                        host, port, timeout=timeout
                    )
                    with lock:
                        counts["errors"] += 1
                        latencies.append(elapsed)
                        per_status.setdefault("conn-error", []).append(
                            elapsed
                        )
                    served += 1
                    continue
                elapsed = time.monotonic() - started
                status = response.status
                with lock:
                    status_counts[status] = (
                        status_counts.get(status, 0) + 1
                    )
                if status == 429:
                    with lock:
                        counts["rejected"] += 1
                    time.sleep(rng.uniform(0.001, 0.005))
                    continue
                if status == 503:
                    with lock:
                        counts["errors"] += 1
                        latencies.append(elapsed)
                        per_status.setdefault(str(status), []).append(
                            elapsed
                        )
                    return
                if status != 200:
                    # Non-200s are latency too (see the in-process
                    # driver): tail behavior must match what the SLO
                    # windows record.
                    with lock:
                        counts["errors"] += 1
                        latencies.append(elapsed)
                        per_status.setdefault(str(status), []).append(
                            elapsed
                        )
                    served += 1
                    continue
                payload = json.loads(body)
                version = payload["version"]
                staleness = (
                    max(0, live_before - version)
                    if live_before is not None
                    else 0
                )
                regression = (
                    last_version is not None and version < last_version
                )
                last_version = (
                    version
                    if last_version is None
                    else max(last_version, version)
                )
                with lock:
                    counts["completed"] += 1
                    counts["staleness"] = max(
                        counts["staleness"], staleness
                    )
                    if regression:
                        counts["regressions"] += 1
                    latencies.append(elapsed)
                    per_status.setdefault("200", []).append(elapsed)
                    queued.append(payload.get("queued_seconds", 0.0))
                    versions.add(version)
                served += 1
                if think_seconds > 0.0:
                    time.sleep(think_seconds)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    start_barrier.wait()
    started = time.monotonic()
    for thread in threads:
        thread.join()
    duration = time.monotonic() - started

    report = LoadReport(
        clients=clients,
        requests_per_client=requests_per_client,
        think_seconds=think_seconds,
        completed=counts["completed"],
        rejected=counts["rejected"],
        errors=counts["errors"],
        duration_seconds=duration,
        snapshot_versions=sorted(versions),
        max_staleness=counts["staleness"],
        transport="http",
        status_counts={
            str(status): count
            for status, count in sorted(status_counts.items())
        },
        version_regressions=counts["regressions"],
        latency_by_status=_status_latency_summary(per_status),
    )
    if duration > 0.0:
        report.qps = report.completed / duration
    if latencies:
        report.latency_p50 = percentile(latencies, 50.0)
        report.latency_p95 = percentile(latencies, 95.0)
        report.latency_p99 = percentile(latencies, 99.0)
        report.latency_mean = sum(latencies) / len(latencies)
    if queued:
        report.queued_p95 = percentile(queued, 95.0)
    return report
