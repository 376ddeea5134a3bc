"""Closed-loop HTTP load from the benchmark's own process.

Each connection is one kept-alive :class:`http.client.HTTPConnection`
driven by its own thread with no think time: a connection sends its next
request only after the previous answer was read, as a portal page waits
for its results.  Connections pull the next request from one shared,
pre-built list, so the request sequence is fixed by the seed while the
interleaving across connections is whatever the server's speed makes it.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from urllib.parse import quote


def search_path(text: str, limit: int, rid: int | None = None) -> str:
    """The /search URL for one query text (``rid`` tags traced runs)."""
    path = f"/search?q={quote(text)}&limit={limit}"
    if rid is not None:
        path += f"&rid={rid}"
    return path


@dataclass(slots=True)
class Outcome:
    """One request as the client saw it."""

    seq: int
    text: str
    conn: int
    started: float
    ended: float
    status: int  # 0: connection error
    payload: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.payload is not None

    @property
    def rtt_ms(self) -> float:
        return (self.ended - self.started) * 1e3


@dataclass(slots=True)
class LoopResult:
    """Every outcome of one closed-loop phase, in sequence order."""

    outcomes: list[Outcome] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0

    @property
    def ok(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def elapsed(self) -> float:
        return self.ended - self.started


class ClosedLoop:
    """``connections`` kept-alive connections to one server."""

    def __init__(
        self, host: str, port: int, connections: int, limit: int = 10
    ) -> None:
        self.host = host
        self.port = port
        self.limit = limit
        self._conns = [self._connect() for __ in range(connections)]
        self._seq = 0

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def close(self) -> None:
        for conn in self._conns:
            conn.close()

    def _one(self, index: int, text: str, seq: int, tag: bool) -> Outcome:
        conn = self._conns[index]
        path = search_path(text, self.limit, seq if tag else None)
        started = time.perf_counter()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            ended = time.perf_counter()
            status = response.status
        except (OSError, http.client.HTTPException):
            ended = time.perf_counter()
            conn.close()
            self._conns[index] = self._connect()
            return Outcome(seq, text, index, started, ended, 0)
        payload = json.loads(body) if status == 200 else None
        return Outcome(seq, text, index, started, ended, status, payload)

    def run(
        self,
        texts: list[str],
        deadline: float | None = None,
        tag: bool = False,
    ) -> LoopResult:
        """Send ``texts`` in order over every connection at once.

        Stops taking new requests once ``deadline`` (a ``perf_counter``
        instant) has passed, or when the list is used up.  ``tag`` adds
        each request's sequence number to its URL so a trace can join
        the server's spans to the client's request.
        """
        result = LoopResult()
        lock = threading.Lock()
        cursor = iter(range(len(texts)))
        base = self._seq

        def drive(index: int) -> None:
            while deadline is None or time.perf_counter() < deadline:
                with lock:
                    position = next(cursor, None)
                if position is None:
                    return
                outcome = self._one(index, texts[position], base + position, tag)
                with lock:
                    result.outcomes.append(outcome)

        threads = [
            threading.Thread(target=drive, args=(i,), name=f"bench-conn-{i}")
            for i in range(len(self._conns))
        ]
        result.started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.ended = time.perf_counter()
        result.outcomes.sort(key=lambda o: o.seq)
        used = len(result.outcomes)
        self._seq = base + used
        return result
