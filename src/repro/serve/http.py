"""Stdlib HTTP front end for :class:`~repro.serve.service.SearchService`.

The network face of the portal: a :class:`~http.server.ThreadingHTTPServer`
(one thread per connection, keep-alive on) translating the service's
typed contracts onto the wire::

    GET /search?q=<qparser text>&limit=N   ranked page as JSON
    GET /healthz                           service stats + SLO verdict
    GET /telemetry                         the shared telemetry snapshot
    GET /metrics                           Prometheus text exposition
    GET /debug/slow                        the flight recorder's contents

Error mapping — the bounded-admission contract over HTTP:

* :class:`~repro.core.errors.OverloadedError` -> **429** with
  ``Retry-After`` (the client backs off and retries, exactly like the
  in-process load generator does),
* :class:`~repro.serve.service.ServiceClosedError` -> **503** with
  ``Retry-After`` (drain in progress or service closed),
* :class:`~repro.core.qparser.QueryParseError`, a missing/empty ``q``,
  a malformed ``limit`` -> **400** with a JSON error body,
* unknown route -> **404**.

Nothing ever escapes as a traceback page: any unexpected handler
exception becomes a 500 JSON envelope (and is counted on the service
telemetry as ``http.internal_errors``).

Observability (DESIGN note 17): every request gets a deterministic
:class:`~repro.obs.RequestContext` (``req-NNNNNN`` from a per-server
counter) and runs inside ``use_telemetry(service.telemetry)`` under an
``http.request`` span, so the HTTP span, the service span and the
engine's query span all land in one tree stamped with one request id.  The **telemetry handle
is snapshotted once per request** (``self._telemetry``) and every
counter/histogram touch goes through it at the single response exit
points (:meth:`_send_json` / :meth:`_send_text`) — so a concurrent
``use_telemetry`` swap can never split one request's ``http.requests``
and ``http.status.*`` increments across registries, and histogram
``_count`` equals ``http.requests`` at quiescence because both are
bumped in the same critical step, after the response body (including a
scrape's own body) has been rendered.

Per-request outcomes additionally feed the
:class:`~repro.obs.SLOTracker` (``/search`` only — scrapes are not the
service's SLO), the :class:`~repro.obs.FlightRecorder` (slowest
searches plus every erroring request) and the optional JSONL access
log.

Shutdown is graceful and ordered: :meth:`SearchHTTPServer.close` first
stops the accept loop, then closes the service — which stops admission
and drains, so requests already executing complete against the snapshot
they started with while late arrivals on kept-alive connections get
clean 503s — and finally releases the listening socket.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from ..core.errors import OverloadedError
from ..core.qparser import QueryParseError, parse_query
from ..obs import (
    AccessLogWriter,
    FlightRecord,
    FlightRecorder,
    RequestContext,
    SLOTracker,
    render_prometheus,
    use_request,
    use_telemetry,
)
from .service import SearchService, ServiceClosedError

#: Seconds a 429/503 tells the client to wait before retrying.
RETRY_AFTER_SECONDS = 1


def search_payload(response) -> dict:
    """The JSON body of a 200 /search response (stable wire contract)."""
    results = response.results
    return {
        "version": response.snapshot_version,
        "total_matches": results.total_matches,
        "truncated": results.truncated,
        "queued_seconds": response.queued_seconds,
        "total_seconds": response.total_seconds,
        "results": [
            {
                "dataset_id": result.dataset_id,
                "score": result.score,
                "breakdown": {
                    "total": result.breakdown.total,
                    "location": result.breakdown.location,
                    "time": result.breakdown.time,
                    "variables": [
                        [name, sim]
                        for name, sim in result.breakdown.variables
                    ],
                },
            }
            for result in results
        ],
    }


class _Handler(BaseHTTPRequestHandler):
    """One request; ``self.server`` carries the service reference."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    #: Socket timeout: an idle kept-alive connection releases its
    #: handler thread instead of pinning it forever.
    timeout = 30

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args: object) -> None:
        pass  # telemetry counters replace stderr chatter

    def _count_response(self, status: int) -> None:
        """The one place request counters move.

        Uses the telemetry handle snapshotted at request start, so a
        concurrent registry swap cannot split this request's
        ``http.requests`` / ``http.status.*`` / latency observation
        across registries — and a scrape's own response was rendered
        *before* this runs, so at quiescence every scrape body lags
        itself by exactly one request on every metric equally:
        histogram ``_count`` always equals ``http.requests``.
        """
        telemetry = self._telemetry
        if telemetry.enabled:
            telemetry.count("http.requests")
            telemetry.count(f"http.status.{status}")
            telemetry.observe(
                "http.request_seconds", time.monotonic() - self._started
            )
        self._status = status

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: dict | None = None,
    ) -> None:
        self._count_response(status)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self._responded = True

    def _send_json(
        self, status: int, payload: dict, headers: dict | None = None
    ) -> None:
        self._send_body(
            status,
            json.dumps(payload).encode("utf-8"),
            "application/json",
            headers,
        )

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send_body(status, text.encode("utf-8"), content_type)

    def do_GET(self) -> None:
        self._responded = False
        self._status: int | None = None
        self._started = time.monotonic()
        self._query_text = ""
        # One telemetry handle and one request context per request.
        telemetry = self.server.service.telemetry
        self._telemetry = telemetry
        self._context = RequestContext(
            f"req-{next(self.server.request_ids):06d}"
        )
        route = urlsplit(self.path).path
        try:
            with use_telemetry(telemetry), use_request(self._context):
                with telemetry.span("http.request", route=route):
                    self._route()
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
        except Exception:
            if telemetry.enabled:
                telemetry.count("http.internal_errors")
            if self._responded:
                # Headers already on the wire: the only safe move is to
                # drop the connection, never a half-written traceback.
                self.close_connection = True
            else:
                try:
                    self._send_json(
                        500,
                        {"error": "internal server error",
                         "code": "internal"},
                    )
                except OSError:
                    self.close_connection = True
        finally:
            self._observe(route, time.monotonic() - self._started)

    def _observe(self, route: str, latency: float) -> None:
        """Post-response bookkeeping: SLO window, flight ring, access log."""
        status = self._status
        if status is None:
            return  # connection dropped before any response
        error = status >= 500
        rejected = status in (429, 503)
        server = self.server
        if server.slo is not None and route == "/search":
            # Scrapes and health checks are not the service's SLO.
            server.slo.record(latency, error=error, rejected=rejected)
        flight = server.flight
        if flight is not None and (error or route == "/search"):
            # Two-phase capture: the O(1) interest check first, the
            # copy of the request's own spans only for keepers.
            if flight.interested(latency, error):
                context = self._context
                flight.record(
                    FlightRecord(
                        request_id=context.request_id,
                        query=self._query_text,
                        status=status,
                        latency_seconds=latency,
                        error=error,
                        attrs=dict(context.attrs),
                        spans=[record.to_dict() for record in context.spans],
                    )
                )
        if server.access_log is not None:
            server.access_log.log(
                self._context.request_id,
                route,
                status,
                latency,
                **self._context.attrs,
            )

    # -- routes --------------------------------------------------------------

    def _route(self) -> None:
        url = urlsplit(self.path)
        if url.path == "/search":
            self._search(url.query)
        elif url.path == "/healthz":
            self._healthz()
        elif url.path == "/telemetry":
            self._telemetry_route()
        elif url.path == "/metrics":
            self._metrics()
        elif url.path == "/debug/slow":
            self._debug_slow()
        else:
            self._send_json(
                404,
                {"error": f"no such route: {url.path}", "code": "not-found"},
            )

    def _search(self, query_string: str) -> None:
        service: SearchService = self.server.service
        params = parse_qs(query_string)
        text = (params.get("q") or [""])[0]
        self._query_text = text
        raw_limit = (params.get("limit") or ["10"])[0]
        try:
            limit = int(raw_limit)
        except ValueError:
            self._send_json(
                400,
                {"error": f"limit must be an integer, got {raw_limit!r}",
                 "code": "bad-request"},
            )
            return
        if limit < 1:
            self._send_json(
                400,
                {"error": "limit must be >= 1", "code": "bad-request"},
            )
            return
        try:
            query = parse_query(text)
        except QueryParseError as exc:
            self._send_json(
                400, {"error": str(exc), "code": "bad-query"}
            )
            return
        try:
            response = service.search(query, limit=limit)
        except OverloadedError as exc:
            self._send_json(
                429,
                {"error": str(exc), "code": "overloaded"},
                headers={"Retry-After": str(RETRY_AFTER_SECONDS)},
            )
            return
        except ServiceClosedError:
            self._send_json(
                503,
                {"error": "service is draining or closed",
                 "code": "closed"},
                headers={"Retry-After": str(RETRY_AFTER_SECONDS)},
            )
            return
        self._send_json(200, search_payload(response))

    def _healthz(self) -> None:
        service: SearchService = self.server.service
        stats = service.stats()
        slo = self.server.slo
        slo_report = slo.report() if slo is not None else None
        if stats["closed"]:
            status_word, status = "closed", 503
        elif slo_report is not None and slo_report["status"] != "ok":
            # Degraded is still serving: 200 with the verdict in the
            # body — load balancers eject on 503, operators page on the
            # SLO field.
            status_word, status = "degraded", 200
        else:
            status_word, status = "ok", 200
        self._send_json(
            status,
            {"status": status_word, "slo": slo_report, **stats},
        )

    def _telemetry_route(self) -> None:
        service: SearchService = self.server.service
        self._send_json(200, service.telemetry.snapshot())

    def _metrics(self) -> None:
        snapshot = self.server.service.telemetry.snapshot()
        self._send_text(
            200,
            render_prometheus(snapshot),
            "text/plain; version=0.0.4; charset=utf-8",
        )

    def _debug_slow(self) -> None:
        flight = self.server.flight
        if flight is None:
            self._send_json(
                404,
                {"error": "flight recorder disabled", "code": "not-found"},
            )
            return
        self._send_json(200, flight.snapshot())


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # Graceful shutdown is the *service* drain; handler threads on idle
    # kept-alive sockets must not block server_close.
    block_on_close = False

    def __init__(
        self,
        address,
        handler,
        service: SearchService,
        slo: SLOTracker | None,
        flight: FlightRecorder | None,
        access_log: AccessLogWriter | None,
    ) -> None:
        super().__init__(address, handler)
        self.service = service
        self.slo = slo
        self.flight = flight
        self.access_log = access_log
        #: Deterministic request ids: ``req-000001`` onward, in
        #: admission order (itertools.count is atomic under the GIL).
        self.request_ids = itertools.count(1)


class SearchHTTPServer:
    """Owns the listening socket, the accept thread and shutdown order.

    Usage::

        server = SearchHTTPServer(service, port=0).start()
        print(server.url)          # ephemeral port resolved
        ...
        server.close(timeout=5.0)  # stop accepting, drain, release

    ``close`` also closes the wrapped service (it is the one shutdown
    path); pass ``close_service=False`` to keep the service alive.

    The SLO tracker and flight recorder default on (they are a few KB
    of ring buffer); pass ``slo=None`` is not possible — pass your own
    configured instances instead.  ``access_log`` is opt-in and stays
    owned by the caller (the CLI opens and closes it).
    """

    def __init__(
        self,
        service: SearchService,
        host: str = "127.0.0.1",
        port: int = 0,
        slo: SLOTracker | None = None,
        flight: FlightRecorder | None = None,
        access_log: AccessLogWriter | None = None,
    ) -> None:
        self.service = service
        self.slo = slo if slo is not None else SLOTracker()
        self.flight = flight if flight is not None else FlightRecorder()
        self.access_log = access_log
        self._httpd = _Server(
            (host, port),
            _Handler,
            service,
            self.slo,
            self.flight,
            access_log,
        )
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return host, port

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "SearchHTTPServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-http-accept",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(
        self, timeout: float | None = None, close_service: bool = True
    ) -> bool:
        """Graceful shutdown; True when the service drained in time."""
        if self._thread is not None:
            self._httpd.shutdown()  # stop accepting new connections
            self._thread.join(timeout=5.0)
            self._thread = None
        drained = True
        if close_service:
            # Stops admission and drains: in-flight requests complete
            # against their snapshot; kept-alive stragglers get 503s.
            drained = self.service.close(timeout=timeout)
        self._httpd.server_close()
        return drained

    def __enter__(self) -> "SearchHTTPServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
