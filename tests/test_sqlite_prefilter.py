"""SQLite candidate range scans, legacy files, exactness.

No search reads ``SqliteCatalog.prefilter_candidates_near`` /
``_overlapping`` any more (every miss scores all rows in one array
pass), but while they exist each must return a *superset* of the
datasets whose indexed term is above epsilon.  These tests pin that,
the reopening of catalog files written by older builds with the R*Tree
prefilter, and that a SQLite-backed engine serves the object scorer's
pages however it is set up.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.catalog import MemoryCatalog, SqliteCatalog
from repro.catalog.records import DatasetFeature, VariableEntry
from repro.core.query import Query, VariableTerm
from repro.core.search import SearchEngine
from repro.geo import BoundingBox, GeoPoint, TimeInterval
from tests.search_oracle import object_search


def _build_has_rtree() -> bool:
    conn = sqlite3.connect(":memory:")
    try:
        conn.execute(
            "CREATE VIRTUAL TABLE probe USING rtree(id, x0, x1)"
        )
        return True
    except sqlite3.OperationalError:
        return False
    finally:
        conn.close()


HAS_RTREE = _build_has_rtree()
needs_rtree = pytest.mark.skipif(
    not HAS_RTREE, reason="sqlite built without the rtree module"
)

#: The R*Tree prefilter older builds kept beside ``datasets``: an
#: integer key map, the virtual table, and two triggers mirroring every
#: ``datasets`` write into it.
_LEGACY_RTREE_SCHEMA = """
CREATE TABLE IF NOT EXISTS prefilter_map (
    num        INTEGER PRIMARY KEY AUTOINCREMENT,
    dataset_id TEXT UNIQUE NOT NULL
);
CREATE VIRTUAL TABLE IF NOT EXISTS prefilter_rtree USING rtree(
    id, min_lat, max_lat, min_lon, max_lon
);
CREATE TRIGGER IF NOT EXISTS trg_prefilter_insert
AFTER INSERT ON datasets
BEGIN
    INSERT OR IGNORE INTO prefilter_map (dataset_id)
    VALUES (NEW.dataset_id);
    INSERT OR REPLACE INTO prefilter_rtree
    SELECT num, NEW.min_lat, NEW.max_lat, NEW.min_lon, NEW.max_lon
    FROM prefilter_map WHERE dataset_id = NEW.dataset_id;
END;
CREATE TRIGGER IF NOT EXISTS trg_prefilter_delete
AFTER DELETE ON datasets
BEGIN
    DELETE FROM prefilter_rtree WHERE id = (
        SELECT num FROM prefilter_map WHERE dataset_id = OLD.dataset_id
    );
    DELETE FROM prefilter_map WHERE dataset_id = OLD.dataset_id;
END;
"""


def make_feature(
    index: int,
    lat: float = 45.0,
    lon: float = -124.0,
    start: float = 0.0,
    name: str = "salinity",
) -> DatasetFeature:
    return DatasetFeature(
        dataset_id=f"ds_{index:03d}",
        title=f"dataset {index}",
        platform="station",
        file_format="csv",
        bbox=BoundingBox(lat, lon, lat + 0.2, lon + 0.2),
        interval=TimeInterval(start, start + 1000.0),
        row_count=10,
        source_directory="",
        variables=[
            VariableEntry.from_written(name, "u", 10, 0.0, 30.0, 15.0, 5.0)
        ],
    )


def spread_features(count: int) -> list[DatasetFeature]:
    return [
        make_feature(
            index,
            lat=30.0 + (index % 12) * 4.0,
            lon=-150.0 + (index // 12) * 9.0,
            start=index * 5e5,
        )
        for index in range(count)
    ]


def write_legacy_catalog(path: str, features: list[DatasetFeature]) -> None:
    """A catalog file as older builds left it: the R*Tree prefilter
    schema installed and every dataset written through its triggers."""
    SqliteCatalog(path).close()  # the current tables
    conn = sqlite3.connect(path)
    try:
        conn.executescript(_LEGACY_RTREE_SCHEMA)
        with conn:
            for feature in features:
                conn.execute(
                    "INSERT INTO datasets VALUES "
                    "(?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
                    SqliteCatalog._dataset_row(feature),
                )
                conn.executemany(
                    "INSERT INTO variables VALUES "
                    "(?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
                    SqliteCatalog._variable_rows(feature),
                )
            conn.execute(
                "UPDATE catalog_meta SET value = value + 1 "
                "WHERE key = 'version'"
            )
        (mirrored,) = conn.execute(
            "SELECT COUNT(*) FROM prefilter_rtree"
        ).fetchone()
        assert mirrored == len(features)  # the triggers really fired
    finally:
        conn.close()


def catalog_for(tmp_path, features: list[DatasetFeature], legacy: bool):
    """A file-backed catalog holding ``features``, written either by the
    current build or through an older build's R*Tree triggers."""
    path = str(tmp_path / ("legacy.db" if legacy else "fresh.db"))
    if legacy:
        write_legacy_catalog(path, features)
        return SqliteCatalog(path)
    store = SqliteCatalog(path)
    store.upsert_many(features)
    return store


@needs_rtree
class TestDegradationSurvival:
    """A catalog file written by an older build with the R*Tree
    prefilter: reopening drops the triggers and tables, and the file
    serves and accepts writes like one the current build wrote."""

    def _schema(self, store: SqliteCatalog) -> list[tuple[str, str]]:
        with store._lock:
            return store._conn.execute(
                "SELECT type, name FROM sqlite_master "
                "WHERE type = 'trigger' OR name LIKE 'prefilter_%'"
            ).fetchall()

    def test_reopen_without_rtree_keeps_writes_working(self, tmp_path):
        path = str(tmp_path / "catalog.db")
        write_legacy_catalog(path, spread_features(8))
        with SqliteCatalog(path) as store:
            assert self._schema(store) == []
            assert store.upsert_many([make_feature(90), make_feature(91)]) == 2
            assert store.apply_batch(
                upserts=[make_feature(3, lat=50.0, lon=-90.0)],
                removals=["ds_004"],
            ) == (1, 1)
            assert store.remove_many(["ds_005", "ds_006"]) == 2
            assert len(store) == 7
            store.clear()
            assert store.upsert_many(spread_features(5)) == 5
            assert store.dataset_ids() == [f"ds_{i:03d}" for i in range(5)]
        # The migration sticks: a later open finds nothing to drop.
        with SqliteCatalog(path) as store:
            assert self._schema(store) == []
            assert len(store) == 5

    def test_legacy_file_serves_like_a_fresh_one(self, tmp_path):
        features = spread_features(40)
        query = Query(
            location=GeoPoint(44.0, -122.0), radius_km=150.0,
            interval=TimeInterval(2e6, 4e6),
            variables=(VariableTerm(name="salinity"),),
        )
        pages = []
        for legacy in (True, False):
            with catalog_for(tmp_path, features, legacy) as store:
                engine = SearchEngine(store, cache=False)
                results = engine.search(query, limit=10)
                pages.append((
                    [(r.dataset_id, r.score, r.breakdown) for r in results],
                    results.total_matches,
                ))
        assert pages[0] == pages[1]
        assert pages[0][0]  # the query does match something


class TestConservativeSuperset:
    @pytest.mark.parametrize("legacy", [True, False])
    def test_spatial_superset_of_truth(self, tmp_path, legacy):
        if legacy and not HAS_RTREE:
            pytest.skip("sqlite built without the rtree module")
        features = spread_features(40)
        with catalog_for(tmp_path, features, legacy) as store:
            point = GeoPoint(44.0, -120.0)
            for radius in (10.0, 300.0, 2000.0):
                found = store.prefilter_candidates_near(point, radius)
                truth = {
                    f.dataset_id for f in features
                    if f.bbox.distance_km_to_point(point) <= radius
                }
                if found is None:
                    continue  # "no constraint" is trivially a superset
                assert truth <= found

    def test_spatial_blowout_returns_none(self):
        with SqliteCatalog() as store:
            store.upsert_many(spread_features(4))
            assert store.prefilter_candidates_near(
                GeoPoint(45.0, -124.0), 50000.0
            ) is None

    def test_temporal_superset_of_truth(self):
        with SqliteCatalog() as store:
            features = spread_features(40)
            store.upsert_many(features)
            window = TimeInterval(4e6, 6e6)
            for margin in (0.0, 1e6):
                found = store.prefilter_candidates_overlapping(
                    window, margin_seconds=margin
                )
                grown = TimeInterval(
                    window.start - margin, window.end + margin
                )
                truth = {
                    f.dataset_id for f in features
                    if f.interval.overlaps(grown)
                }
                assert found == truth  # exact for the range predicate

    def test_margin_validation(self):
        with SqliteCatalog() as store:
            with pytest.raises(ValueError):
                store.prefilter_candidates_overlapping(
                    TimeInterval(0.0, 1.0), margin_seconds=-1.0
                )
            with pytest.raises(ValueError):
                store.prefilter_candidates_near(
                    GeoPoint(0.0, 0.0), -5.0
                )


class TestEngineLadder:
    """No setup of the engine narrows the scan: over a live store, over
    a snapshot, with or without indexes attached, every search serves
    the object oracle's page."""

    def _queries(self) -> list[Query]:
        return [
            Query(
                location=GeoPoint(44.0, -122.0), radius_km=150.0,
                interval=TimeInterval(2e6, 4e6),
                variables=(VariableTerm(name="salinity"),),
            ),
            Query(location=GeoPoint(38.0, -140.0), radius_km=80.0),
            Query(interval=TimeInterval(0.0, 1e6)),
        ]

    def _pages(self, search) -> list:
        pages = []
        for q in self._queries():
            results = search(q, limit=10)
            pages.append((
                [(r.dataset_id, r.score, r.breakdown) for r in results],
                results.total_matches,
            ))
        return pages

    def test_every_rung_serves_the_same_page(self):
        features = spread_features(60)
        reference = MemoryCatalog()
        reference.upsert_many(features)
        expected = self._pages(
            lambda q, limit: object_search(reference, q, limit=limit)
        )

        with SqliteCatalog() as store:
            store.upsert_many(features)
            for catalog in (store, store.snapshot()):
                engine = SearchEngine(catalog, cache=False)
                assert self._pages(engine.search) == expected
                engine.build_indexes()
                assert self._pages(engine.search) == expected
