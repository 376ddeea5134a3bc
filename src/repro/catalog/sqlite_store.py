"""SQLite-backed catalog store.

The published metadata catalog of Data Near Here lived in a relational
database; this store provides the same durability with the stdlib
``sqlite3`` module.  The schema is two tables — ``datasets`` and
``variables`` — with the dataset's feature fields flattened into columns
so range predicates can run inside SQLite.

Writes are hardened against contention: file-backed connections set
``busy_timeout`` so SQLite waits out short lock windows itself, and
every write transaction runs under a bounded busy/locked retry
(``_WRITE_RETRY``) with deterministic backoff.  Real SQL errors are
never retried.

The store is also safe to share across threads: one connection is
opened with ``check_same_thread=False`` and every use of it — reads
and write transactions alike — serializes on a process-local
:class:`threading.RLock`.  That keeps the single-connection model
(cursors never interleave, transactions never nest) while letting the
serving layer call :meth:`snapshot` from any thread; concurrent
*searches* then run against the returned
:class:`~repro.catalog.store.CatalogSnapshot` without touching the
connection at all.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from typing import Callable, Iterable, TypeVar

from ..core.retry import RetryPolicy, retry_call
from ..geo import BoundingBox, GeoPoint, TimeInterval
from ..obs import get_telemetry
from .index import spatial_query_margins
from .records import DatasetFeature, VariableEntry
from .store import CatalogSnapshot, CatalogStore, DatasetNotFoundError

_T = TypeVar("_T")

#: Bounded retry for write transactions that hit SQLite's transient
#: busy/locked condition.  ``busy_timeout`` (below) already absorbs
#: most contention inside SQLite itself; this layer covers the cases
#: that surface anyway (e.g. a writer holding the lock across its own
#: python work).  Non-transient ``OperationalError``s propagate
#: immediately — see :func:`repro.core.errors.is_transient`.
_WRITE_RETRY = RetryPolicy(
    attempts=3, base_delay=0.01, multiplier=4.0, max_delay=0.1
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS datasets (
    dataset_id   TEXT PRIMARY KEY,
    title        TEXT NOT NULL,
    platform     TEXT NOT NULL,
    file_format  TEXT NOT NULL,
    min_lat      REAL NOT NULL,
    min_lon      REAL NOT NULL,
    max_lat      REAL NOT NULL,
    max_lon      REAL NOT NULL,
    time_start   REAL NOT NULL,
    time_end     REAL NOT NULL,
    row_count    INTEGER NOT NULL,
    source_dir   TEXT NOT NULL,
    attributes   TEXT NOT NULL,
    content_hash TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS variables (
    dataset_id   TEXT NOT NULL REFERENCES datasets(dataset_id)
                 ON DELETE CASCADE,
    position     INTEGER NOT NULL,
    written_name TEXT NOT NULL,
    written_unit TEXT NOT NULL,
    name         TEXT NOT NULL,
    unit         TEXT NOT NULL,
    count        INTEGER NOT NULL,
    minimum      REAL NOT NULL,
    maximum      REAL NOT NULL,
    mean         REAL NOT NULL,
    stddev       REAL NOT NULL,
    excluded     INTEGER NOT NULL DEFAULT 0,
    ambiguous    INTEGER NOT NULL DEFAULT 0,
    context      TEXT NOT NULL DEFAULT '',
    resolution   TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (dataset_id, position)
);
CREATE INDEX IF NOT EXISTS idx_variables_name ON variables(name);
CREATE INDEX IF NOT EXISTS idx_datasets_bbox
    ON datasets(min_lat, max_lat, min_lon, max_lon);
CREATE INDEX IF NOT EXISTS idx_datasets_time
    ON datasets(time_start, time_end);
CREATE TABLE IF NOT EXISTS catalog_meta (
    key   TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
INSERT OR IGNORE INTO catalog_meta (key, value) VALUES ('version', 0);
"""


class SqliteCatalog(CatalogStore):
    """A :class:`CatalogStore` persisted in SQLite.

    ``path=':memory:'`` (the default) gives a private in-memory database;
    pass a filename for durability across processes.
    """

    def __init__(
        self,
        path: str = ":memory:",
        busy_timeout_ms: int = 5000,
    ) -> None:
        # One shared connection, guarded by ``_lock`` (below) instead of
        # sqlite3's same-thread check: the serving layer snapshots from
        # worker threads while the wrangler publishes from the main one.
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._lock = threading.RLock()
        self._conn.execute("PRAGMA foreign_keys = ON")
        self._retry = _WRITE_RETRY
        if path != ":memory:":
            # File-backed catalogs take the ingest write path: WAL keeps
            # readers unblocked during a publish transaction and
            # synchronous=NORMAL drops the per-commit fsync to one WAL
            # sync, which is what makes batched publishes cheap.  An
            # in-memory database has no journal to tune — leave it
            # default so private scratch stores behave exactly as before.
            self._conn.execute("PRAGMA journal_mode = WAL")
            self._conn.execute("PRAGMA synchronous = NORMAL")
            # Only file-backed databases can be contended by another
            # connection: let SQLite itself wait out short lock windows
            # before the busy error ever reaches the retry layer.
            self._conn.execute(
                f"PRAGMA busy_timeout = {int(busy_timeout_ms)}"
            )
        self._conn.executescript(_SCHEMA)
        self._conn.commit()
        # Catalog files written by older builds carry R*Tree triggers
        # that double the cost of every ``datasets`` write; drop them.
        self._drop_rtree_artifacts()

    def _drop_rtree_artifacts(self) -> None:
        """Remove the R*Tree prefilter tables and triggers of old builds.

        The triggers are the costly remnant: they mirror every write
        into the virtual table.  Dropping the virtual table itself needs
        the rtree module — when that fails the orphaned table is left
        behind, inert now that the triggers are gone.
        """
        self._conn.execute("DROP TRIGGER IF EXISTS trg_prefilter_insert")
        self._conn.execute("DROP TRIGGER IF EXISTS trg_prefilter_delete")
        try:
            self._conn.execute("DROP TABLE IF EXISTS prefilter_rtree")
        except sqlite3.OperationalError:
            pass
        self._conn.execute("DROP TABLE IF EXISTS prefilter_map")
        self._conn.commit()

    # -- candidate range scans ------------------------------------------------
    #
    # No search reads these (every miss scores all rows in one array
    # pass); they remain for callers that still ask for them.

    def prefilter_candidates_near(
        self, point: GeoPoint, radius_km: float
    ) -> set[str] | None:
        """Ids whose box may lie within ``radius_km`` of ``point``.

        Runs inside SQLite against the ``idx_datasets_bbox`` composite
        index, with the same conservative degree margins as
        :meth:`SpatialGridIndex.candidates_near` (shared via
        :func:`spatial_query_margins`); returns ``None`` when the margin
        covers the globe, i.e. no spatial constraint at all.
        """
        lat_margin, lon_margin = spatial_query_margins(
            point.lat, radius_km
        )
        if lat_margin >= 180.0 or lon_margin >= 360.0:
            return None
        lo_lat = max(-90.0, point.lat - lat_margin)
        hi_lat = min(90.0, point.lat + lat_margin)
        lo_lon = max(-180.0, point.lon - lon_margin)
        hi_lon = min(180.0, point.lon + lon_margin)
        with self._lock:
            rows = self._conn.execute(
                "SELECT dataset_id FROM datasets "
                "WHERE min_lat <= ? AND max_lat >= ? "
                "AND min_lon <= ? AND max_lon >= ?",
                (hi_lat, lo_lat, hi_lon, lo_lon),
            ).fetchall()
        return {row[0] for row in rows}

    def prefilter_candidates_overlapping(
        self, interval: TimeInterval, margin_seconds: float = 0.0
    ) -> set[str] | None:
        """Ids whose interval overlaps ``interval`` grown by the margin.

        Runs against the ``idx_datasets_time`` composite index; the
        overlap predicate matches :meth:`IntervalIndex.
        candidates_overlapping` exactly (not-overlapping ⇔ start > hi or
        end < lo).
        """
        if margin_seconds < 0:
            raise ValueError("margin_seconds must be non-negative")
        lo = interval.start - margin_seconds
        hi = interval.end + margin_seconds
        with self._lock:
            rows = self._conn.execute(
                "SELECT dataset_id FROM datasets "
                "WHERE time_start <= ? AND time_end >= ?",
                (hi, lo),
            ).fetchall()
        return {row[0] for row in rows}

    def _write(self, fn: Callable[[], _T], key: str) -> _T:
        """Run one write transaction with bounded busy/locked retry.

        ``fn`` must be transactional (all-or-nothing), so a retried call
        replays against unchanged state.  With telemetry active, each
        write batch lands in the ``catalog.write_seconds`` latency
        histogram and absorbed busy/locked retries count as
        ``catalog.write_retries``; when the default disabled registry is
        active this path costs one attribute check.
        """
        telemetry = get_telemetry()
        if not telemetry.enabled:
            with self._lock:
                return retry_call(fn, self._retry, key=key)

        def count_busy(attempt: int, exc: BaseException, pause: float):
            telemetry.count("catalog.write_retries")

        started = time.monotonic()
        with self._lock:
            result = retry_call(
                fn, self._retry, key=key, on_retry=count_busy
            )
        telemetry.observe(
            "catalog.write_seconds", time.monotonic() - started
        )
        telemetry.count("catalog.writes")
        return result

    # -- versioning ----------------------------------------------------------

    @property
    def version(self) -> int:
        """Mutation counter, persisted with the catalog.

        Read from the database on every access so staleness checks see
        mutations made through *other* connections to the same file.
        """
        with self._lock:
            (value,) = self._conn.execute(
                "SELECT value FROM catalog_meta WHERE key = 'version'"
            ).fetchone()
        return value

    def snapshot(self, attempts: int = 16) -> CatalogSnapshot:
        """A frozen, version-consistent copy of the whole catalog.

        Version and content are read under the connection lock, so the
        snapshot can never straddle a write transaction — a publish
        batch is either fully visible or not at all.
        """
        with self._lock:
            version = self.version
            features = {
                feature.dataset_id: feature
                for feature in self.features()
            }
        return CatalogSnapshot(features, version=version)

    def snapshot_cow(
        self,
        previous: CatalogSnapshot,
        upserted=(),
        removed=(),
        expect_version: int | None = None,
    ) -> CatalogSnapshot | None:
        """Copy-on-write snapshot: read only the delta's rows.

        Same contract as :meth:`CatalogStore.snapshot_cow`; the version
        check and the per-id reads share the connection lock, so the
        delta rows cannot straddle a concurrent write transaction.
        Small deltas pay the per-dataset two-query :meth:`get` cost,
        which is still far below the grouped full read for the
        refresh-sized deltas this path exists for.
        """
        with self._lock:
            version = self.version
            if expect_version is not None and version != expect_version:
                return None
            if version == previous.version:
                return previous
            upserts = {}
            gone = list(removed)
            for dataset_id in upserted:
                try:
                    upserts[dataset_id] = self.get(dataset_id)
                except DatasetNotFoundError:
                    gone.append(dataset_id)
            return previous.evolve(upserts, gone, version=version)

    def _bump_version(self) -> None:
        """Bump inside the caller's transaction."""
        self._conn.execute(
            "UPDATE catalog_meta SET value = value + 1 WHERE key = 'version'"
        )

    def close(self) -> None:
        """Close the underlying connection."""
        self._conn.close()

    def __enter__(self) -> "SqliteCatalog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- dataset-level -------------------------------------------------------

    @staticmethod
    def _dataset_row(feature: DatasetFeature) -> tuple:
        return (
            feature.dataset_id,
            feature.title,
            feature.platform,
            feature.file_format,
            feature.bbox.min_lat,
            feature.bbox.min_lon,
            feature.bbox.max_lat,
            feature.bbox.max_lon,
            feature.interval.start,
            feature.interval.end,
            feature.row_count,
            feature.source_directory,
            json.dumps(feature.attributes, sort_keys=True),
            feature.content_hash,
        )

    @staticmethod
    def _variable_rows(feature: DatasetFeature) -> list[tuple]:
        return [
            (
                feature.dataset_id,
                position,
                v.written_name,
                v.written_unit,
                v.name,
                v.unit,
                v.count,
                v.minimum,
                v.maximum,
                v.mean,
                v.stddev,
                int(v.excluded),
                int(v.ambiguous),
                v.context,
                v.resolution,
            )
            for position, v in enumerate(feature.variables)
        ]

    def _write_feature(self, feature: DatasetFeature) -> None:
        """Insert-or-replace one feature inside the caller's transaction."""
        self._conn.execute(
            "DELETE FROM datasets WHERE dataset_id = ?",
            (feature.dataset_id,),
        )
        self._conn.execute(
            "INSERT INTO datasets VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
            self._dataset_row(feature),
        )
        self._conn.executemany(
            "INSERT INTO variables VALUES "
            "(?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
            self._variable_rows(feature),
        )

    def upsert(self, feature: DatasetFeature) -> None:
        def write() -> None:
            with self._conn:
                self._write_feature(feature)
                self._bump_version()

        self._write(write, f"upsert:{feature.dataset_id}")

    def upsert_many(self, features: Iterable[DatasetFeature]) -> int:
        """Write a whole batch in ONE transaction with ONE version bump.

        Publishing N changed datasets costs one commit (one WAL sync on
        file-backed catalogs) instead of N, and version-keyed caches see
        a single invalidation for the batch.
        """
        # Materialize so a busy-retried transaction replays the same
        # batch even when handed a one-shot generator.
        batch = list(features)

        def write() -> int:
            count = 0
            with self._conn:
                for feature in batch:
                    self._write_feature(feature)
                    count += 1
                if count:
                    self._bump_version()
            return count

        return self._write(write, "upsert_many")

    def get(self, dataset_id: str) -> DatasetFeature:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM datasets WHERE dataset_id = ?", (dataset_id,)
            ).fetchone()
            if row is None:
                raise DatasetNotFoundError(dataset_id)
            return self._feature_from_row(row)

    @staticmethod
    def _variable_from_row(v: tuple, strings: dict[str, str]) -> VariableEntry:
        """One variables row as an entry, its string fields interned
        through ``strings`` (shared across the rows of one read)."""
        intern = strings.setdefault
        return VariableEntry(
            written_name=intern(v[2], v[2]),
            written_unit=intern(v[3], v[3]),
            name=intern(v[4], v[4]),
            unit=intern(v[5], v[5]),
            count=v[6],
            minimum=v[7],
            maximum=v[8],
            mean=v[9],
            stddev=v[10],
            excluded=bool(v[11]),
            ambiguous=bool(v[12]),
            context=intern(v[13], v[13]),
            resolution=intern(v[14], v[14]),
        )

    def _feature_from_row(
        self, row: tuple, variables: list[VariableEntry] | None = None
    ) -> DatasetFeature:
        (
            dataset_id, title, platform, file_format,
            min_lat, min_lon, max_lat, max_lon,
            time_start, time_end, row_count, source_dir,
            attributes_json, content_hash,
        ) = row
        if variables is None:
            strings: dict[str, str] = {}
            variables = [
                self._variable_from_row(v, strings)
                for v in self._conn.execute(
                    "SELECT * FROM variables WHERE dataset_id = ? "
                    "ORDER BY position",
                    (dataset_id,),
                )
            ]
        return DatasetFeature(
            dataset_id=dataset_id,
            title=title,
            platform=platform,
            file_format=file_format,
            bbox=BoundingBox(min_lat, min_lon, max_lat, max_lon),
            interval=TimeInterval(time_start, time_end),
            row_count=row_count,
            source_directory=source_dir,
            attributes=json.loads(attributes_json),
            variables=variables,
            content_hash=content_hash,
        )

    def remove(self, dataset_id: str) -> None:
        def write() -> int:
            with self._conn:
                cursor = self._conn.execute(
                    "DELETE FROM datasets WHERE dataset_id = ?",
                    (dataset_id,),
                )
                if cursor.rowcount:
                    self._bump_version()
            return cursor.rowcount

        if self._write(write, f"remove:{dataset_id}") == 0:
            raise DatasetNotFoundError(dataset_id)

    def remove_many(self, dataset_ids: Iterable[str]) -> int:
        batch = list(dataset_ids)

        def write() -> int:
            removed = 0
            with self._conn:
                for dataset_id in batch:
                    cursor = self._conn.execute(
                        "DELETE FROM datasets WHERE dataset_id = ?",
                        (dataset_id,),
                    )
                    removed += cursor.rowcount
                if removed:
                    self._bump_version()
            return removed

        return self._write(write, "remove_many")

    def features(self):
        """Bulk read: the whole catalog in 2 queries instead of 1+2N.

        Variables are fetched once, grouped by dataset in python, then
        attached as each dataset row streams out — exactly the shape
        :meth:`__iter__` consumers (index builds, publish digests,
        exports) need.  Everything is read under the connection lock, so
        concurrent writes through this connection cannot corrupt a
        cursor; the variables cursor is consumed row by row there rather
        than materialized.  The variables' repeated strings (names,
        units, context, resolution — a few dozen distinct values across
        thousands of rows) are interned through a per-call dict, so a
        snapshot holds each distinct value once.
        """
        with self._lock:
            grouped: dict[str, list[VariableEntry]] = {}
            strings: dict[str, str] = {}
            for v in self._conn.execute(
                "SELECT * FROM variables ORDER BY dataset_id, position"
            ):
                grouped.setdefault(v[0], []).append(
                    self._variable_from_row(v, strings)
                )
            rows = self._conn.execute(
                "SELECT * FROM datasets ORDER BY dataset_id"
            ).fetchall()
        for row in rows:
            yield self._feature_from_row(
                row, variables=grouped.get(row[0], [])
            )

    def dataset_ids(self) -> list[str]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT dataset_id FROM datasets ORDER BY dataset_id"
            ).fetchall()
        return [r[0] for r in rows]

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM datasets"
            ).fetchone()
        return count

    def clear(self) -> None:
        def write() -> None:
            with self._conn:
                self._conn.execute("DELETE FROM variables")
                self._conn.execute("DELETE FROM datasets")
                self._bump_version()

        self._write(write, "clear")

    def apply_batch(
        self,
        upserts: Iterable[DatasetFeature] = (),
        removals: Iterable[str] = (),
    ) -> tuple[int, int]:
        """Upserts and removals in ONE transaction with ONE version bump.

        This is the publish primitive: a reader (or :meth:`snapshot`)
        sees the catalog strictly before or strictly after the whole
        batch, never between the upserts and the removals.
        """
        upsert_batch = list(upserts)
        removal_batch = list(removals)

        def write() -> tuple[int, int]:
            upserted = 0
            removed = 0
            with self._conn:
                for feature in upsert_batch:
                    self._write_feature(feature)
                    upserted += 1
                for dataset_id in removal_batch:
                    cursor = self._conn.execute(
                        "DELETE FROM datasets WHERE dataset_id = ?",
                        (dataset_id,),
                    )
                    removed += cursor.rowcount
                if upserted or removed:
                    self._bump_version()
            return upserted, removed

        return self._write(write, "apply_batch")

    def replace_all(self, features: Iterable[DatasetFeature]) -> int:
        """Swap in a whole new catalog: one transaction, one bump.

        Unlike ``clear()`` + ``upsert_many()``, no reader can ever see
        the emptied intermediate state.
        """
        batch = list(features)

        def write() -> int:
            with self._conn:
                self._conn.execute("DELETE FROM variables")
                self._conn.execute("DELETE FROM datasets")
                for feature in batch:
                    self._write_feature(feature)
                self._bump_version()
            return len(batch)

        return self._write(write, "replace_all")

    # -- bulk operations pushed into SQL --------------------------------------

    def rename_variables(
        self, mapping: dict[str, str], resolution: str = ""
    ) -> int:
        def write() -> int:
            changed = 0
            with self._conn:
                for old, new in mapping.items():
                    if old == new:
                        continue
                    cursor = self._conn.execute(
                        "UPDATE variables SET name = ?, resolution = ? "
                        "WHERE name = ?",
                        (new, resolution, old),
                    )
                    changed += cursor.rowcount
                if changed:
                    self._bump_version()
            return changed

        return self._write(write, "rename_variables")

    def rename_units(self, mapping: dict[str, str]) -> int:
        def write() -> int:
            changed = 0
            with self._conn:
                for old, new in mapping.items():
                    if old == new:
                        continue
                    cursor = self._conn.execute(
                        "UPDATE variables SET unit = ? WHERE unit = ?",
                        (new, old),
                    )
                    changed += cursor.rowcount
                if changed:
                    self._bump_version()
            return changed

        return self._write(write, "rename_units")

    def set_excluded(self, names: Iterable[str], excluded: bool = True) -> int:
        target = set(names)

        def write() -> int:
            changed = 0
            with self._conn:
                for name in target:
                    cursor = self._conn.execute(
                        "UPDATE variables SET excluded = ? "
                        "WHERE name = ? AND excluded != ?",
                        (int(excluded), name, int(excluded)),
                    )
                    changed += cursor.rowcount
                if changed:
                    self._bump_version()
            return changed

        return self._write(write, "set_excluded")

    def set_ambiguous(self, names: Iterable[str], flag: bool = True) -> int:
        target = set(names)

        def write() -> int:
            changed = 0
            with self._conn:
                for name in target:
                    cursor = self._conn.execute(
                        "UPDATE variables SET ambiguous = ? "
                        "WHERE name = ? AND ambiguous != ?",
                        (int(flag), name, int(flag)),
                    )
                    changed += cursor.rowcount
                if changed:
                    self._bump_version()
            return changed

        return self._write(write, "set_ambiguous")
