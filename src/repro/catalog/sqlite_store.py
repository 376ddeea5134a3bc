"""SQLite-backed catalog store.

The published metadata catalog of Data Near Here lived in a relational
database; this store provides the same durability with the stdlib
``sqlite3`` module.  The schema is two tables — ``datasets`` and
``variables`` — with the dataset's feature fields flattened into columns
so range predicates can run inside SQLite.

Every upsert, removal or clear runs as one transaction whose statement
count does not depend on its size: a batch's features are staged (the
last occurrence of an id wins), then one ``executemany`` deletes their
ids — skipped when the store is known to be empty — one inserts their
``datasets`` rows and one their ``variables`` rows, fed by generators;
removals are one more ``executemany``.  There are no per-feature
statements, and no index beyond the keys: the ``datasets`` range indexes
and the ``variables`` name index of older builds are dropped on open,
since no statement reads them.

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

A store that knows its whole content keeps a write-through *mirror*:
the features as a disk read would rebuild them, stamped with the
catalog version they are valid at.  It is seeded when the database is
empty at open, refilled by every full :meth:`~SqliteCatalog.snapshot`
read, and advanced by each of this connection's own committed writes,
so serving a catalog just published through this connection never reads
it back.  Each entry is found in the same pass that binds its
``datasets`` row, straight from the input feature, which is immutable:
when every value has exactly the type its column stores, the entry is
the input feature itself, or a rebuild of it when a statistic is zero
(``-0.0`` is stored as ``0.0``) or the attributes are not in stored
order; any other feature is decoded from its bound row tuples,
normalised to what SQLite stores, by the same
``_feature_from_row``/``_variable_from_row`` as a disk read.  Either
way the entry equals a disk read.  A write from another connection (the
version moves by more than our own bump) or
:meth:`~SqliteCatalog.close` drops it, and the next
:meth:`~SqliteCatalog.snapshot` reads the disk again.  Point reads
(``get``, ``features``, ``len``, ``dataset_ids``) always run against the
database, so other connections' writes stay visible.
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
CREATE TABLE IF NOT EXISTS catalog_meta (
    key   TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
INSERT OR IGNORE INTO catalog_meta (key, value) VALUES ('version', 0);
"""

# A batch is written with one ``executemany`` of each; the variables of
# a deleted dataset go with it (``ON DELETE CASCADE``).
_DELETE_DATASET = "DELETE FROM datasets WHERE dataset_id = ?"
_INSERT_DATASET = "INSERT INTO datasets VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?)"
_INSERT_VARIABLE = (
    "INSERT INTO variables VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)"
)

# -- what SQLite hands back for a bound value ----------------------------------
#
# A mirror entry off the fast path (``_stored_feature``) is decoded from
# the tuples bound for it, so first they are brought to the values a
# read of the same rows returns.  A value whose stored form is not known
# here (a non-``str`` in a TEXT column, a ``str`` in a numeric one)
# raises TypeError, and the caller drops the mirror.

#: Reals strictly inside this range that are integral come back from an
#: INTEGER column as ints (SQLite's integer affinity).
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _as_real(value) -> float:
    """A REAL column's read-back: a float, and ``-0.0`` as ``0.0``
    (SQLite stores an integral real as an integer)."""
    if isinstance(value, (int, float)):
        return float(value) + 0.0
    raise TypeError(f"not a number: {value!r}")


def _as_integer(value):
    """An INTEGER column's read-back: an int, or a float when the real
    is not integral or lies outside the 64-bit range."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        value = float(value)
        if value.is_integer() and _INT64_MIN < value < _INT64_MAX:
            return int(value)
        return value
    raise TypeError(f"not a number: {value!r}")


def _as_text(value) -> str:
    if type(value) is str:
        return value
    raise TypeError(f"not a str: {value!r}")


# The two row functions check the common shape (str, int and float
# exactly where the schema says) inline, and leave every other value to
# the helpers above; in that shape only ``-0.0`` changes, so a row with
# no zero real is returned as it is.


def _stored_dataset_row(row: tuple) -> tuple:
    """A bound ``datasets`` row as a read of it returns it."""
    (
        dataset_id, title, platform, file_format,
        min_lat, min_lon, max_lat, max_lon, start, end,
        row_count, source_dir, attributes, content_hash,
    ) = row
    if not (
        str is type(dataset_id) is type(title) is type(platform)
        is type(file_format) is type(source_dir) is type(attributes)
        is type(content_hash)
        and type(row_count) is int
        and float is type(min_lat) is type(min_lon) is type(max_lat)
        is type(max_lon) is type(start) is type(end)
    ):
        return (
            *map(_as_text, row[:4]),
            *map(_as_real, row[4:10]),
            _as_integer(row_count),
            *map(_as_text, row[11:]),
        )
    if min_lat and min_lon and max_lat and max_lon and start and end:
        return row  # no zero, so no -0.0: stored exactly as bound
    return (
        dataset_id, title, platform, file_format,
        min_lat + 0.0, min_lon + 0.0, max_lat + 0.0, max_lon + 0.0,
        start + 0.0, end + 0.0,
        row_count, source_dir, attributes, content_hash,
    )


def _stored_variable_row(row: tuple) -> tuple:
    """A bound ``variables`` row as a read of it returns it."""
    (
        dataset_id, position, written_name, written_unit, name, unit,
        count, minimum, maximum, mean, stddev,
        excluded, ambiguous, context, resolution,
    ) = row
    if not (
        str is type(dataset_id) is type(written_name)
        is type(written_unit) is type(name) is type(unit)
        is type(context) is type(resolution)
        and type(count) is int
        and float is type(minimum) is type(maximum) is type(mean)
        is type(stddev)
    ):
        return (
            _as_text(dataset_id), position,
            *map(_as_text, row[2:6]),
            _as_integer(count),
            *map(_as_real, row[7:11]),
            excluded, ambiguous, _as_text(context), _as_text(resolution),
        )
    if minimum and maximum and mean and stddev:
        return row  # no zero, so no -0.0: stored exactly as bound
    return (
        dataset_id, position, written_name, written_unit, name, unit,
        count, minimum + 0.0, maximum + 0.0, mean + 0.0, stddev + 0.0,
        excluded, ambiguous, context, resolution,
    )


def _stored_feature(
    feature: DatasetFeature, row: tuple
) -> DatasetFeature | None:
    """What a read of ``feature``, bound as the ``datasets`` ``row``,
    returns, found from the feature; ``None`` off the fast path.

    The fast path is the common shape: every value has exactly the type
    its column stores and no box or interval coordinate is zero.  Then
    the feature itself is what a read returns, unless a variable has a
    zero statistic (``-0.0`` → ``0.0``) or the attributes are not str to
    str in sorted key order (a read decodes the sorted JSON): only
    then is a replacement built, and only the zero-statistic entries in
    it are new.  The entry shares the feature's strings rather than
    interning them as a disk read does: the caller holds them anyway.
    """
    (
        dataset_id, title, platform, file_format,
        min_lat, min_lon, max_lat, max_lon, start, end,
        row_count, source_dir, attributes, content_hash,
    ) = row
    bbox, interval = feature.bbox, feature.interval
    if not (
        str is type(dataset_id) is type(title) is type(platform)
        is type(file_format) is type(source_dir) is type(attributes)
        is type(content_hash)
        and type(row_count) is int
        and float is type(min_lat) is type(min_lon) is type(max_lat)
        is type(max_lon) is type(start) is type(end)
        and min_lat and min_lon and max_lat and max_lon and start and end
        and type(bbox) is BoundingBox and type(interval) is TimeInterval
        and type(feature) is DatasetFeature
    ):
        return None
    variables = feature.variables
    rebuilt = None
    for position, v in enumerate(variables):
        count, minimum, maximum, mean, stddev = (
            v.count, v.minimum, v.maximum, v.mean, v.stddev
        )
        if not (
            type(v) is VariableEntry
            and str is type(v.written_name) is type(v.written_unit)
            is type(v.name) is type(v.unit) is type(v.context)
            is type(v.resolution)
            and type(count) is int
            and float is type(minimum) is type(maximum) is type(mean)
            is type(stddev)
            and bool is type(v.excluded) is type(v.ambiguous)
        ):
            return None
        if not (minimum and maximum and mean and stddev):
            if rebuilt is None:
                rebuilt = list(variables)
            rebuilt[position] = VariableEntry(
                v.written_name,
                v.written_unit,
                v.name,
                v.unit,
                count,
                minimum + 0.0,
                maximum + 0.0,
                mean + 0.0,
                stddev + 0.0,
                v.excluded,
                v.ambiguous,
                v.context,
                v.resolution,
            )
    stored_attributes = feature.attributes
    keys = list(stored_attributes)
    if not all(
        str is type(key) is type(value)
        for key, value in stored_attributes.items()
    ) or keys != sorted(keys):
        stored_attributes = json.loads(attributes)
    elif rebuilt is None:
        return feature
    return DatasetFeature(
        dataset_id,
        title,
        platform,
        file_format,
        bbox,
        interval,
        row_count,
        source_dir,
        stored_attributes,
        variables if rebuilt is None else rebuilt,
        content_hash,
    )


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
        # and range indexes that every ``datasets`` write maintains for
        # no reader; drop them.
        self._drop_legacy_artifacts()
        # The write-through mirror (module docstring): id -> feature,
        # valid while the live version equals ``_mirror_version``.  An
        # empty database is known in full, so it starts with one.
        self._mirror: dict[str, DatasetFeature] | None = None
        self._mirror_version = -1
        version, count = self._conn.execute(
            "SELECT (SELECT value FROM catalog_meta WHERE key = 'version'),"
            " (SELECT COUNT(*) FROM datasets)"
        ).fetchone()
        if count == 0:
            self._mirror, self._mirror_version = {}, version
        # The batch being written: id -> feature, filled by
        # :meth:`_write_feature` inside a write transaction.
        self._staged: dict[str, DatasetFeature] | None = None

    def _drop_legacy_artifacts(self) -> None:
        """Remove the indexes and prefilter structures of old builds.

        Those are the ``datasets`` range indexes, the ``variables`` name
        index and the R*Tree tables and triggers; the indexes and
        triggers are the costly remnant, maintained on every write.  Dropping the R*Tree virtual table
        itself needs the rtree module — when that fails the orphaned
        table is left behind, inert now that the triggers are gone.
        """
        self._conn.execute("DROP INDEX IF EXISTS idx_datasets_bbox")
        self._conn.execute("DROP INDEX IF EXISTS idx_datasets_time")
        self._conn.execute("DROP INDEX IF EXISTS idx_variables_name")
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
    # pass); they remain for callers that still ask for them, as full
    # scans of ``datasets``: no index serves them.

    def prefilter_candidates_near(
        self, point: GeoPoint, radius_km: float
    ) -> set[str] | None:
        """Ids whose box may lie within ``radius_km`` of ``point``.

        A table scan inside SQLite, with the same conservative degree
        margins as :meth:`SpatialGridIndex.candidates_near` (shared via
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

        A table scan inside SQLite; the overlap predicate matches
        :meth:`IntervalIndex.candidates_overlapping` exactly
        (not-overlapping ⇔ start > hi or end < lo).
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

    def snapshot(self) -> CatalogSnapshot:
        """A frozen, version-consistent copy of the whole catalog.

        When the mirror is valid at the live version, the snapshot is
        built from it and nothing else is read.  Otherwise version and
        content are read in one read transaction under the connection
        lock, so the snapshot can never straddle a write transaction of
        this connection or another — a publish batch is either fully
        visible or not at all — and that read refills the mirror.
        """
        with self._lock:
            self._conn.execute("BEGIN")
            try:
                version = self.version
                mirror = self._mirror
                if mirror is not None and self._mirror_version == version:
                    return CatalogSnapshot(mirror, version=version)
                features = {
                    feature.dataset_id: feature
                    for feature in self.features()
                }
            finally:
                self._conn.commit()
            self._mirror, self._mirror_version = features, version
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
        When the mirror is valid at that version the delta's features
        come from it; otherwise each pays the two-query :meth:`get`
        cost, which is still far below the grouped full read for the
        refresh-sized deltas this path exists for.
        """
        with self._lock:
            version = self.version
            if expect_version is not None and version != expect_version:
                return None
            if version == previous.version:
                return previous
            mirror = self._mirror if self._mirror_version == version else None
            upserts = {}
            gone = list(removed)
            for dataset_id in upserted:
                if mirror is not None:
                    feature = mirror.get(dataset_id)
                    if feature is None:
                        gone.append(dataset_id)
                    else:
                        upserts[dataset_id] = feature
                    continue
                try:
                    upserts[dataset_id] = self.get(dataset_id)
                except DatasetNotFoundError:
                    gone.append(dataset_id)
            return previous.evolve(upserts, gone, version=version)

    def _bump_version(self) -> int:
        """Bump inside the caller's transaction; the new version."""
        self._conn.execute(
            "UPDATE catalog_meta SET value = value + 1 WHERE key = 'version'"
        )
        (value,) = self._conn.execute(
            "SELECT value FROM catalog_meta WHERE key = 'version'"
        ).fetchone()
        return value

    def _apply(
        self,
        upserts: list[DatasetFeature],
        removals: list[str],
        clear: bool = False,
    ) -> tuple[int, int]:
        """One write transaction: the clear, the upserts, the removals.

        Every mutator runs through here under :meth:`_write`, so each
        issues a number of statements independent of its batch size.
        The version is bumped first whenever the batch is sure to change
        the catalog: the bump takes the write lock, and the version it
        returns tells whether the store is known to be empty (an empty
        mirror valid one version earlier), in which case the upserts
        need no ``DELETE``.  Removals alone bump only if they removed a
        row.  Returns ``(len(upserts), rows removed)``.
        """
        conn = self._conn
        version = None
        entries: list[DatasetFeature] | None = []
        removed = 0
        with conn:
            if clear:
                conn.execute("DELETE FROM variables")
                conn.execute("DELETE FROM datasets")
            if clear or upserts:
                version = self._bump_version()
            if upserts:
                mirror = self._mirror
                known_empty = clear or (
                    mirror is not None
                    and not mirror
                    and self._mirror_version == version - 1
                )
                entries = self._write_features(upserts, known_empty)
            if removals:
                removed = conn.executemany(
                    _DELETE_DATASET, ((i,) for i in removals)
                ).rowcount
                if version is None and removed:
                    version = self._bump_version()
        if version is not None:
            self._advance_mirror(version, entries, removals, cleared=clear)
        return len(upserts), removed

    def _write_features(
        self, features: list[DatasetFeature], known_empty: bool
    ) -> list[DatasetFeature] | None:
        """Write ``features`` inside the caller's transaction.

        Each feature is staged through :meth:`_write_feature`, so a
        later occurrence of an id replaces an earlier one.  Then one
        ``executemany`` deletes the staged ids (unless the store is
        ``known_empty``), one inserts their ``datasets`` rows and one
        their ``variables`` rows, each fed by a generator so no row
        outlives its binding.  While there is a mirror, the dataset pass
        also builds each feature's mirror entry; the entries are
        returned for :meth:`_advance_mirror` to apply once the
        transaction commits.  ``None`` means there is nothing to apply:
        no mirror, or a value whose stored form is not known.
        """
        staged: dict[str, DatasetFeature] = {}
        self._staged = staged
        try:
            for feature in features:
                self._write_feature(feature)
        finally:
            self._staged = None
        conn = self._conn
        if not known_empty:
            conn.executemany(
                _DELETE_DATASET, ((dataset_id,) for dataset_id in staged)
            )
        entries: list[DatasetFeature] | None = (
            [] if self._mirror is not None else None
        )
        strings: dict[str, str] = {}
        dataset_row = self._dataset_row

        def dataset_rows():
            nonlocal entries
            for feature in staged.values():
                row = dataset_row(feature)
                if entries is not None:
                    try:
                        entries.append(
                            _stored_feature(feature, row)
                            or self._decoded_entry(feature, row, strings)
                        )
                    except (TypeError, ValueError):
                        entries = None
                yield row

        conn.executemany(_INSERT_DATASET, dataset_rows())
        variable_rows = self._variable_rows
        conn.executemany(
            _INSERT_VARIABLE,
            (
                row
                for feature in staged.values()
                for row in variable_rows(feature)
            ),
        )
        return entries

    def _decoded_entry(
        self, feature: DatasetFeature, row: tuple, strings: dict[str, str]
    ) -> DatasetFeature:
        """A mirror entry off the fast path: the rows bound for
        ``feature`` normalised to what SQLite stores and decoded as a
        disk read decodes them.  An unknown value raises TypeError."""
        return self._feature_from_row(
            _stored_dataset_row(row),
            variables=[
                self._variable_from_row(_stored_variable_row(v), strings)
                for v in self._variable_rows(feature)
            ],
        )

    def _advance_mirror(
        self,
        version: int,
        entries: Iterable[DatasetFeature] | None = (),
        removed: Iterable[str] = (),
        cleared: bool = False,
    ) -> None:
        """Apply one committed write of this connection to the mirror.

        ``version`` is the version our bump produced; unless it is the
        mirror's + 1, another connection wrote in between, and the
        mirror is dropped (as it is when ``entries`` is ``None``).  The
        change is applied in SQL order: the clear, the upserts, then
        the removals.
        """
        mirror = self._mirror
        if mirror is None:
            return
        if entries is None or version != self._mirror_version + 1:
            self._mirror = None
            return
        if cleared:
            mirror.clear()
        for feature in entries:
            mirror[feature.dataset_id] = feature
        for dataset_id in removed:
            mirror.pop(dataset_id, None)
        self._mirror_version = version

    def close(self) -> None:
        """Close the underlying connection (and drop the mirror)."""
        with self._lock:
            self._mirror = None
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
            json.dumps(dict(feature.attributes), sort_keys=True),
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
        """Stage one feature of the batch :meth:`_write_features` is
        writing; a later feature with the same id replaces it."""
        self._staged[feature.dataset_id] = feature

    def upsert(self, feature: DatasetFeature) -> None:
        self._write(
            lambda: self._apply([feature], []), f"upsert:{feature.dataset_id}"
        )

    def upsert_many(self, features: Iterable[DatasetFeature]) -> int:
        """Write a whole batch in ONE transaction with ONE version bump.

        Publishing N changed datasets costs one commit (one WAL sync on
        file-backed catalogs) and a fixed number of statements instead
        of N, and version-keyed caches see a single invalidation for the
        batch.
        """
        # Materialize so a busy-retried transaction replays the same
        # batch even when handed a one-shot generator.
        batch = list(features)
        return self._write(lambda: self._apply(batch, [])[0], "upsert_many")

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
        (
            __, __, written_name, written_unit, name, unit,
            count, minimum, maximum, mean, stddev,
            excluded, ambiguous, context, resolution,
        ) = v
        # Positional: keyword arguments cost a third more, paid on every
        # row of a full read and of every mirrored write.
        return VariableEntry(
            intern(written_name, written_name),
            intern(written_unit, written_unit),
            intern(name, name),
            intern(unit, unit),
            count,
            minimum,
            maximum,
            mean,
            stddev,
            bool(excluded),
            bool(ambiguous),
            intern(context, context),
            intern(resolution, resolution),
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
        removed = self._write(
            lambda: self._apply([], [dataset_id])[1], f"remove:{dataset_id}"
        )
        if removed == 0:
            raise DatasetNotFoundError(dataset_id)

    def remove_many(self, dataset_ids: Iterable[str]) -> int:
        batch = list(dataset_ids)
        return self._write(lambda: self._apply([], batch)[1], "remove_many")

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
        self._write(lambda: self._apply([], [], clear=True), "clear")

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
        return self._write(
            lambda: self._apply(upsert_batch, removal_batch), "apply_batch"
        )

    def replace_all(self, features: Iterable[DatasetFeature]) -> int:
        """Swap in a whole new catalog: one transaction, one bump.

        Unlike ``clear()`` + ``upsert_many()``, no reader can ever see
        the emptied intermediate state.
        """
        batch = list(features)
        return self._write(
            lambda: self._apply(batch, [], clear=True)[0], "replace_all"
        )
