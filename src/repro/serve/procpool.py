"""Process-pool columnar scoring over shipped frozen snapshots.

The GIL caps what scoring-shard *threads* can do for a CPU-bound scan;
this module is the rung above them: a :class:`ProcessPoolScorer` fans
the columnar scan out across worker *processes* that each hold the
same version-stamped :class:`~repro.core.columnar.ColumnarSnapshot`.

Snapshot shipping
    On every install (service construction and each atomic
    ``refresh()``) the parent pickles one payload — the columnar view,
    the concept hierarchy and the scoring config — to a spool file named
    by a monotonically increasing generation, then atomically publishes
    it with ``os.replace``.  Tasks carry only the spool *path* plus the
    row range; each worker memoizes the unpickled payload per path, so
    a snapshot crosses the process boundary once per worker, not once
    per query.  The current and the previous version are retained,
    which is exactly the staleness ≤ 1 window the serving layer
    guarantees: an in-flight request that read the old engine reference
    right before a refresh still pool-scores against *its* snapshot.

Exactness of the merge
    Workers run the very same :func:`~repro.core.search.score_rows_into`
    loop (same :class:`~repro.core.columnar.ColumnarScorer`, same
    bounded :class:`~repro.core.search._TopK` heap) the serial and
    thread-sharded paths run, over contiguous row ranges, and return
    their shard's top-k.  Pushing every shard survivor through the
    caller's global heap reproduces the serial page precisely — every
    global top-k result is by definition in its own shard's top-k
    (DESIGN notes 14/15/16).

Degradation ladder
    :meth:`score` answers ``None`` whenever it cannot serve — the
    version was never shipped, the pool failed to start, a worker died
    mid-query (``BrokenProcessPool``).  The engine then falls through to
    sharded threads and then serial, all bit-identical, and the episode
    is counted (``procpool.degraded`` / ``procpool.stale_miss``).  This
    mirrors the chunked-pool degradation contract of
    :mod:`repro.wrangling.scan`, including the traced-unit telemetry
    merged back via :meth:`~repro.obs.Telemetry.merge_worker`.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

from ..core.columnar import ColumnarScorer, ColumnarSnapshot
from ..core.query import Query
from ..core.scoring import QueryScorer, ScoringConfig
from ..core.search import SearchResult, _TopK, score_rows_into
from ..hierarchy import ConceptHierarchy
from ..obs import (
    RequestContext,
    Telemetry,
    current_request,
    get_telemetry,
    use_request,
    use_telemetry,
)

# -- worker side -------------------------------------------------------------

#: Per-process memo of unpickled spool payloads.  Keyed by path — paths
#: embed a generation counter, so a path's content never changes and the
#: memo cannot alias.  Bounded to the same current + previous window the
#: parent retains.
_PAYLOADS: dict[str, dict] = {}
_PAYLOAD_KEEP = 2

#: Longest delta chain a shipped payload may sit on.  Deltas reference
#: their base payload by spool path; past this depth the parent ships a
#: full payload again, bounding both a cold worker's recursive
#: reconstruction and the spool files the retention sweep must keep.
_MAX_DELTA_CHAIN = 8


def _load_payload(path: str) -> dict:
    """Load (and memoize) one shipped snapshot payload in this process.

    Payloads come in two shapes: *full* (carrying ``"view"``) and
    *delta* (carrying ``"delta"`` — the base payload's spool path plus
    upserted features and removed ids).  A delta payload reconstructs
    its view with :meth:`ColumnarSnapshot.freeze_from` over the
    recursively loaded base view — the sorted-merge row layout is the
    parent's, so the row indices tasks carry stay valid — and is then
    memoized exactly like a full one.  A cold worker whose base file
    was already retired raises; the parent treats that like any worker
    failure and degrades to thread scoring (still exact).
    """
    payload = _PAYLOADS.get(path)
    if payload is None:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        delta = payload.pop("delta", None)
        if delta is not None:
            base = _load_payload(delta["base"])
            payload["view"] = ColumnarSnapshot.freeze_from(
                base["view"],
                delta["upserted"],
                delta["removed"],
                version=delta["version"],
            )
        while len(_PAYLOADS) >= _PAYLOAD_KEEP:
            _PAYLOADS.pop(next(iter(_PAYLOADS)))
        _PAYLOADS[path] = payload
    return payload


def _warm_worker(path: str) -> int:
    """Pre-load a payload off the request path; returns the row count."""
    return len(_load_payload(path)["view"])


def _score_chunk(
    path: str,
    query: Query,
    limit: int,
    rows: Sequence[int],
    traced: bool,
    request_id: str | None = None,
) -> tuple[int, list[SearchResult], dict | None]:
    """Score one row shard in a worker process.

    Returns ``(known_matches, shard_top_k_results, telemetry_export)``.
    The shard's results carry ``feature=None`` exactly like the thread
    path — only page survivors are materialized, in the parent.
    ``request_id`` carries the serving request's identity across the
    pickle boundary: the worker re-activates it so every span in the
    export is stamped, and the parent-side merge re-parents the tree
    under the request's open spans — one request, one span tree.
    """
    payload = _load_payload(path)
    view: ColumnarSnapshot = payload["view"]
    scorer = QueryScorer(
        query, hierarchy=payload["hierarchy"], config=payload["config"]
    )
    cscorer = ColumnarScorer(scorer, view)
    top = _TopK(limit)
    if not traced:
        matches = score_rows_into(cscorer, query, rows, top)
        export = None
    else:
        # The traced unit (see wrangling/scan.py): a private registry
        # per chunk whose export merges into the parent's active
        # telemetry, so pooled counter totals equal serial ones.
        telemetry = Telemetry()
        context = (
            RequestContext(request_id) if request_id is not None else None
        )
        with use_telemetry(telemetry), use_request(context):
            with telemetry.span("procpool.chunk", rows=len(rows)):
                matches = score_rows_into(cscorer, query, rows, top)
            telemetry.count("procpool.rows_scored", len(rows))
        export = telemetry.export()
    return matches, [item.result for item in top._heap], export


# -- parent side -------------------------------------------------------------


class ProcessPoolScorer:
    """Scores columnar row ranges on a pool of worker processes.

    Thread-safe: the serving layer calls :meth:`score` from many request
    threads at once while :meth:`install` runs on a refresh.  Owns its
    :class:`~concurrent.futures.ProcessPoolExecutor` and its spool
    directory; release both with :meth:`close`.

    ``min_rows`` is the pool's own fan-out threshold — below it the IPC
    round trip costs more than the scan, so :meth:`wants` says no and
    the engine stays on threads/serial.
    """

    def __init__(
        self,
        workers: int,
        min_rows: int = 256,
        spool_dir: str | None = None,
    ) -> None:
        if workers < 2:
            raise ValueError("workers must be >= 2 (1 means no pool)")
        if min_rows < 1:
            raise ValueError("min_rows must be positive")
        self.workers = workers
        self.min_rows = min_rows
        self._own_spool = spool_dir is None
        self._spool = spool_dir or tempfile.mkdtemp(prefix="repro-procpool-")
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        #: version -> (spool path, delta-chain depth; 0 = full payload).
        self._entries: dict[int, tuple[str, int]] = {}
        #: Every spool file still on disk -> the base path its payload
        #: references (None for full payloads).  Retention chases these
        #: links so a retained delta's whole base chain stays readable.
        self._files: dict[str, str | None] = {}
        self._generation = 0
        self._failures = 0
        self._delta_installs = 0
        self._closed = False

    # -- snapshot shipping ---------------------------------------------------

    def install(
        self,
        view: ColumnarSnapshot,
        hierarchy: ConceptHierarchy | None = None,
        config: ScoringConfig | None = None,
        delta: tuple[int, Sequence, Sequence[str]] | None = None,
    ) -> None:
        """Ship ``view`` (plus scoring context) to the spool.

        Atomic from the workers' perspective: the payload is written to
        a temp name and published with ``os.replace``; tasks only ever
        name fully written files.  Retains the new version and the one
        before it (plus, transitively, any base files retained delta
        payloads still reference); anything else is deleted — in-flight
        requests can lag at most one refresh behind (the service swaps
        its engine reference only after this returns).

        ``delta`` — ``(base_version, upserted_features, removed_ids)``
        — ships only the publish delta instead of the full view when
        the base version's payload is still spooled and the resulting
        chain stays under ``_MAX_DELTA_CHAIN``: workers rebuild the new
        view from their memoized base via ``freeze_from`` (same
        sorted-row layout, so the parent's row indices stay valid).
        Falls back to a full payload otherwise.
        """
        payload: dict = {
            "hierarchy": hierarchy,
            "config": config or ScoringConfig(),
        }
        base_path: str | None = None
        depth = 0
        if delta is not None:
            base_version, upserted, removed = delta
            with self._lock:
                entry = self._entries.get(base_version)
                if entry is not None and entry[1] + 1 <= _MAX_DELTA_CHAIN:
                    base_path, depth = entry[0], entry[1] + 1
        if base_path is not None:
            payload["delta"] = {
                "base": base_path,
                "upserted": list(upserted),
                "removed": list(removed),
                "version": view.version,
            }
        else:
            payload["view"] = view
            depth = 0
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            if self._closed:
                raise RuntimeError("process-pool scorer is closed")
            self._generation += 1
            path = os.path.join(
                self._spool,
                f"snapshot-g{self._generation:06d}-v{view.version}.pkl",
            )
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
        stale: list[str] = []
        with self._lock:
            self._entries[view.version] = (path, depth)
            self._files[path] = base_path
            if base_path is not None:
                self._delta_installs += 1
            for version in sorted(self._entries)[:-_PAYLOAD_KEEP]:
                del self._entries[version]
            # Keep every retained payload *and* its transitive base
            # chain — a delta file is useless without the files it
            # reconstructs from.  Everything unreachable goes.
            keep: set[str] = set()
            for kept_path, __ in self._entries.values():
                chase: str | None = kept_path
                while chase is not None and chase not in keep:
                    keep.add(chase)
                    chase = self._files.get(chase)
            stale = [old for old in self._files if old not in keep]
            for old in stale:
                del self._files[old]
            # A fresh snapshot is a fresh chance: past pool failures no
            # longer block this install from trying worker processes.
            self._failures = 0
        for old in stale:
            try:
                os.unlink(old)
            except OSError:
                pass
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.count("procpool.installs")
            if base_path is not None:
                telemetry.count("procpool.delta_installs")
            telemetry.observe("procpool.ship_bytes", float(len(data)))
        # Spin the workers (and pre-load the payload in each) off the
        # request path, so the first pooled query pays no cold start.
        pool = self._ensure_pool()
        if pool is not None:
            for _ in range(self.workers):
                try:
                    future = pool.submit(_warm_worker, path)
                except Exception:
                    break
                future.add_done_callback(lambda f: f.exception())

    # -- the scoring path ----------------------------------------------------

    def wants(self, version: int, n_rows: int) -> bool:
        """Whether the pool should serve this (version, row-count)."""
        if n_rows < self.min_rows:
            return False
        with self._lock:
            return (
                not self._closed
                and self._failures < 2
                and version in self._entries
            )

    def score(
        self,
        query: Query,
        limit: int,
        version: int,
        rows: Sequence[int],
    ) -> tuple[int, list[SearchResult]] | None:
        """Score ``rows`` of snapshot ``version`` across the pool.

        Returns ``(known_matches, merged_shard_survivors)`` — push the
        survivors through the caller's global top-k for the exact page —
        or ``None`` when the pool cannot serve (caller degrades to the
        thread/serial rungs).
        """
        telemetry = get_telemetry()
        with self._lock:
            path = None
            if not self._closed and self._failures < 2:
                entry = self._entries.get(version)
                path = entry[0] if entry is not None else None
        if path is None:
            if telemetry.enabled:
                telemetry.count("procpool.stale_miss")
            return None
        pool = self._ensure_pool()
        if pool is None:
            return None
        traced = telemetry.enabled
        context = current_request()
        request_id = context.request_id if context is not None else None
        shards_n = min(self.workers, max(1, len(rows)))
        chunk = (len(rows) + shards_n - 1) // shards_n
        shards = [rows[i : i + chunk] for i in range(0, len(rows), chunk)]
        try:
            futures = [
                pool.submit(
                    _score_chunk, path, query, limit, shard, traced,
                    request_id,
                )
                for shard in shards
            ]
            outputs = [future.result() for future in futures]
        except Exception:
            # BrokenProcessPool and friends: give the pool up, degrade.
            self._mark_broken()
            return None
        matches = 0
        hits: list[SearchResult] = []
        for shard_matches, shard_hits, export in outputs:
            matches += shard_matches
            hits.extend(shard_hits)
            if traced and export is not None:
                telemetry.merge_worker(export)
        if traced:
            telemetry.count("procpool.queries")
        return matches, hits

    # -- pool lifecycle ------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        with self._lock:
            if self._closed or self._failures >= 2:
                return None
            if self._pool is None:
                try:
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.workers
                    )
                except Exception:
                    self._failures += 1
                    return None
            return self._pool

    def _mark_broken(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
            self._failures += 1
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.count("procpool.degraded")

    def close(self) -> None:
        """Shut the workers down and delete the spool. Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
            paths = list(self._files)
            self._entries.clear()
            self._files.clear()
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        for path in paths:
            try:
                os.unlink(path)
            except OSError:
                pass
        if self._own_spool:
            try:
                os.rmdir(self._spool)
            except OSError:
                pass

    def __enter__(self) -> "ProcessPoolScorer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "workers": self.workers,
                "min_rows": self.min_rows,
                "versions_shipped": sorted(self._entries),
                "delta_installs": self._delta_installs,
                "spool_files": len(self._files),
                "pool_alive": self._pool is not None,
                "failures": self._failures,
                "closed": self._closed,
            }
