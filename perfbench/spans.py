"""In-memory span tracing from outside the program.

A traced run wraps public functions of each ``src/repro`` layer (and
spans the benchmark's own calls into them); timed runs never install
the wrappers.  A span is ``(name, start, end, parent, request id)``:
the parent is the enclosing span on the same thread, the request id is
``repro.obs.current_request()`` on the server side.  Self time is a
span's duration minus the time its children cover.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass


@dataclass(slots=True)
class SpanRec:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    rid: str | None
    segment: str
    attrs: dict | None = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Spans kept in memory and written as JSONL when the run ends."""

    def __init__(self) -> None:
        self.spans: list[SpanRec] = []
        self.links: dict[str, int] = {}  # server request id -> client seq
        self.segment = "setup"
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        from repro.obs import current_request

        context = current_request()
        stack = self._stack()
        record = SpanRec(
            name,
            time.perf_counter(),
            0.0,
            stack[-1] if stack else -1,
            context.request_id if context is not None else None,
            self.segment,
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def close(self, index: int, **attrs) -> None:
        record = self.spans[index]
        record.end = time.perf_counter()
        if attrs:
            record.attrs = attrs
        self._stack().pop()

    def span(self, name: str) -> "_SpanCM":
        return _SpanCM(self, name)

    # -- wrappers ------------------------------------------------------------------

    def wrap(self, owner, attr: str, name, describe=None, request_id=None) -> None:
        """Replace ``owner.attr`` with a spanning wrapper (undone by
        :meth:`uninstall`).  ``name`` may be a callable of the call's
        arguments; ``describe(args)`` returns span attributes, and
        ``request_id(args)``, if given, the span's request id once the
        call has returned."""
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        bound_to_class = isinstance(original, classmethod)
        function = original.__func__ if bound_to_class else original
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.open(name(args) if callable(name) else name)
            try:
                return function(*args, **kwargs)
            finally:
                if request_id is not None:
                    tracer.spans[index].rid = request_id(args)
                tracer.close(index, **(describe(args) if describe else {}))

        setattr(owner, attr, classmethod(wrapper) if bound_to_class else wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------------

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for index, record in enumerate(self.spans):
            if record.parent >= 0:
                kids.setdefault(record.parent, []).append(index)
        return kids

    def self_ms(self) -> list[float]:
        """Self time of every span: duration minus the union of its
        children's intervals."""
        kids = self.children()
        out = []
        for index, record in enumerate(self.spans):
            covered = 0.0
            cursor = record.start
            for child in sorted(
                (self.spans[k] for k in kids.get(index, ())),
                key=lambda c: c.start,
            ):
                lo = max(child.start, cursor)
                if child.end > lo:
                    covered += child.end - lo
                    cursor = child.end
            out.append((record.end - record.start - covered) * 1e3)
        return out

    def has_ancestor(self, index: int, names: set[str]) -> bool:
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name in names:
                return True
            parent = self.spans[parent].parent
        return False

    def write_jsonl(self, path: str) -> None:
        selfs = self.self_ms()
        with open(path, "w", encoding="utf-8") as out:
            for index, record in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": record.name,
                            "start": record.start,
                            "end": record.end,
                            "parent": record.parent,
                            "rid": record.rid,
                            "seq": self.links.get(record.rid),
                            "segment": record.segment,
                            "self_ms": selfs[index],
                            "attrs": record.attrs,
                        }
                    )
                    + "\n"
                )


class _SpanCM:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._index = -1

    def __enter__(self) -> "_SpanCM":
        self._index = self._tracer.open(self._name)
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer.close(self._index)


class NullTracer:
    """What timed runs use: every span is a no-op."""

    segment = ""

    def span(self, name: str) -> "NullTracer":
        return self

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


def install_search_path(tracer: Tracer) -> None:
    """Wrap the request path: the HTTP handler, parse/render, service,
    engine, prefilter and columnar scoring."""
    from repro.catalog.index import IntervalIndex, SpatialGridIndex
    from repro.catalog.sqlite_store import SqliteCatalog
    from repro.core import search as core_search
    from repro.obs import current_request
    from repro.serve import http as serve_http
    from repro.serve.service import SearchService

    real_parse_qs = serve_http.parse_qs

    def linking_parse_qs(query_string, *args, **kwargs):
        params = real_parse_qs(query_string, *args, **kwargs)
        context = current_request()
        rid = params.get("rid")
        if context is not None and rid:
            tracer.links[context.request_id] = int(rid[0])
        return params

    serve_http.parse_qs = linking_parse_qs
    tracer._patches.append((serve_http, "parse_qs", real_parse_qs))

    # do_GET opens the request context itself, so its span takes the
    # request id from the handler once the request is done.
    tracer.wrap(
        serve_http._Handler,
        "do_GET",
        "http.handle",
        request_id=lambda args: args[0]._context.request_id,
    )
    tracer.wrap(serve_http, "parse_query", "qparser.parse")
    tracer.wrap(serve_http, "search_payload", "render.payload")
    tracer.wrap(SearchService, "search", "serve.search")
    tracer.wrap(core_search.SearchEngine, "search", "engine.search")
    tracer.wrap(SpatialGridIndex, "candidates_near", "prefilter.spatial")
    tracer.wrap(IntervalIndex, "candidates_overlapping", "prefilter.temporal")
    tracer.wrap(SqliteCatalog, "prefilter_candidates_near", "prefilter.spatial")
    tracer.wrap(
        SqliteCatalog, "prefilter_candidates_overlapping", "prefilter.temporal"
    )
    tracer.wrap(
        core_search,
        "score_rows_into",
        "score",
        describe=lambda args: {
            "rows": len(args[2]),
            "catalog": len(args[0].view),
        },
    )


def install_publish_path(tracer: Tracer, components=()) -> None:
    """Wrap the write and refresh path: wrangling components, store
    writes, snapshots, freezes and index maintenance."""
    from repro.catalog.index import CatalogIndexes
    from repro.catalog.sqlite_store import SqliteCatalog
    from repro.core.columnar import ColumnarSnapshot

    for cls in {type(component) for component in components}:
        tracer.wrap(cls, "run", lambda args: f"component.{args[0].name}")
    for attr in ("apply_batch", "upsert_many", "remove_many"):
        tracer.wrap(SqliteCatalog, attr, "store.write")
    for attr in ("snapshot", "snapshot_cow"):
        tracer.wrap(SqliteCatalog, attr, "store.snapshot")
    for attr in ("freeze", "freeze_from"):
        tracer.wrap(ColumnarSnapshot, attr, "columnar.freeze")
    for attr in ("build", "copy", "apply"):
        tracer.wrap(CatalogIndexes, attr, "index.maintain")


# -- summaries -------------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (q in [0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(q * len(ordered) + 0.5)))
    return ordered[rank - 1]
