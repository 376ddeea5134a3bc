"""Incremental index maintenance: apply() equals a fresh rebuild."""

import random

from repro.catalog import (
    CatalogIndexes,
    DatasetFeature,
    IntervalIndex,
    SpatialGridIndex,
    VariableEntry,
)
from repro.catalog import SqliteCatalog
from repro.catalog.index import REBUILD_CHURN_FRACTION
from repro.cli import main
from repro.core import search as core_search
from repro.core.qparser import parse_query
from repro.core.search import SearchEngine
from repro.geo import BoundingBox, GeoPoint, TimeInterval
from repro.hierarchy import vocabulary_hierarchy
from repro.serve.service import SearchService, ServeConfig
from repro.ui.render import render_search_text
from repro.wrangling.state import PublishDelta


def make_feature(i, rng):
    lat = rng.uniform(42.0, 49.0)
    lon = rng.uniform(-127.0, -121.0)
    start = rng.uniform(0.0, 1e7)
    return DatasetFeature(
        dataset_id=f"ds_{i:03d}",
        title=f"dataset {i}",
        platform="station",
        file_format="csv",
        bbox=BoundingBox(lat, lon, lat + rng.uniform(0, 0.4),
                         lon + rng.uniform(0, 0.4)),
        interval=TimeInterval(start, start + rng.uniform(0, 1e6)),
        row_count=10,
        source_directory="",
        variables=[
            VariableEntry.from_written("salinity", "psu", 10,
                                       0.0, 30.0, 15.0, 5.0)
        ],
    )


def assert_equivalent(incremental, fresh, rng):
    """Same ids and same candidate sets for a spread of probes."""
    assert incremental.spatial.all_ids() == fresh.spatial.all_ids()
    assert incremental.temporal.all_ids() == fresh.temporal.all_ids()
    for __ in range(15):
        point = GeoPoint(rng.uniform(42, 49), rng.uniform(-127, -121))
        radius = rng.uniform(10.0, 300.0)
        assert incremental.spatial.candidates_near(
            point, radius
        ) == fresh.spatial.candidates_near(point, radius)
        t0 = rng.uniform(0.0, 1e7)
        window = TimeInterval(t0, t0 + rng.uniform(0, 5e5))
        margin = rng.uniform(0.0, 1e5)
        assert incremental.temporal.candidates_overlapping(
            window, margin_seconds=margin
        ) == fresh.temporal.candidates_overlapping(
            window, margin_seconds=margin
        )


class TestApply:
    def test_small_delta_matches_rebuild(self):
        rng = random.Random(11)
        features = [make_feature(i, rng) for i in range(60)]
        indexes = CatalogIndexes.build(features)
        # Touch the lazy interval structures before editing so the
        # incremental (non-dirty) maintenance path is the one tested.
        indexes.temporal.candidates_overlapping(TimeInterval(0.0, 1.0))

        moved = make_feature(3, rng)  # new position, same id as ds_003
        new = [make_feature(100 + i, rng) for i in range(4)]
        gone = ["ds_010", "ds_011"]
        remaining = {
            f.dataset_id: f for f in features if f.dataset_id not in gone
        }
        remaining[moved.dataset_id] = moved
        for f in new:
            remaining[f.dataset_id] = f

        result = indexes.apply(
            added=new, removed=gone, updated=[moved], catalog_version=42
        )
        assert result is indexes
        assert indexes.catalog_version == 42
        assert len(indexes) == len(remaining)
        fresh = CatalogIndexes.build(list(remaining.values()))
        assert_equivalent(indexes, fresh, random.Random(13))

    def test_churn_above_threshold_rebuilds(self):
        rng = random.Random(17)
        features = [make_feature(i, rng) for i in range(20)]
        indexes = CatalogIndexes.build(features)
        replacement = [make_feature(i, rng) for i in range(20)]
        churn = len(replacement)
        assert churn > REBUILD_CHURN_FRACTION * len(indexes)
        indexes.apply(
            updated=replacement,
            catalog_version=7,
            rebuild_from=replacement,
        )
        assert indexes.catalog_version == 7
        fresh = CatalogIndexes.build(replacement)
        assert_equivalent(indexes, fresh, random.Random(19))

    def test_empty_delta_only_stamps_version(self):
        rng = random.Random(23)
        features = [make_feature(i, rng) for i in range(10)]
        indexes = CatalogIndexes.build(features, catalog_version=1)
        indexes.apply(catalog_version=5)
        assert indexes.catalog_version == 5
        assert len(indexes) == 10


class TestIntervalIncremental:
    def test_insert_remove_after_query(self):
        """Edits after the lazy sort keep the endpoint lists exact."""
        rng = random.Random(29)
        index = IntervalIndex()
        intervals = {}
        for i in range(50):
            start = rng.uniform(0.0, 1e6)
            intervals[f"d{i}"] = TimeInterval(
                start, start + rng.uniform(0, 1e5)
            )
            index.insert(f"d{i}", intervals[f"d{i}"])
        index.candidates_overlapping(TimeInterval(0.0, 1.0))  # sorts

        # Replace, add and remove — all on the non-dirty path.
        intervals["d5"] = TimeInterval(2e6, 2.1e6)
        index.insert("d5", intervals["d5"])
        intervals["d99"] = TimeInterval(-5.0, 5.0)
        index.insert("d99", intervals["d99"])
        index.remove("d7")
        del intervals["d7"]
        index.remove("absent")  # no-op

        fresh = IntervalIndex()
        for did, iv in intervals.items():
            fresh.insert(did, iv)
        for __ in range(20):
            t0 = rng.uniform(-10.0, 2.2e6)
            window = TimeInterval(t0, t0 + rng.uniform(0, 3e5))
            assert index.candidates_overlapping(
                window
            ) == fresh.candidates_overlapping(window)
        assert index._starts == fresh._starts
        assert index._ends == fresh._ends

    def test_duplicate_endpoints(self):
        """Identical endpoint values: removal must pop the right tuple."""
        index = IntervalIndex()
        for did in ("a", "b", "c"):
            index.insert(did, TimeInterval(100.0, 200.0))
        index.candidates_overlapping(TimeInterval(0.0, 1.0))
        index.remove("b")
        assert index.candidates_overlapping(
            TimeInterval(150.0, 160.0)
        ) == {"a", "c"}
        assert len(index._starts) == 2
        assert all(did != "b" for __, did in index._starts)
        assert all(did != "b" for __, did in index._ends)


class TestCopyFreeIndexing:
    """The serving path is one array pass: a cache miss scores every
    row through one ``score_rows_into`` call, and neither the service's
    builds and refreshes nor a search build, copy, apply or query a
    candidate index.  (``catalog/index.py`` and the SQLite range scans
    still exist; nothing on this path calls them.)  No feature is
    copied either: records are immutable and have no copy method."""

    SIZE = 200
    QUERY = "near 45.5, -124.4 within 50 km with salinity between 5 and 10"

    @staticmethod
    def _count_calls(monkeypatch) -> list:
        """Record a call to each index or candidate entry point, without
        changing what they do."""
        calls = []
        targets = [
            (CatalogIndexes, "build"),
            (CatalogIndexes, "copy"),
            (CatalogIndexes, "apply"),
            (SpatialGridIndex, "candidates_near"),
            (IntervalIndex, "candidates_overlapping"),
            (SqliteCatalog, "prefilter_candidates_near"),
            (SqliteCatalog, "prefilter_candidates_overlapping"),
        ]
        for owner, attr in targets:
            original = getattr(owner, attr)
            name = f"{owner.__name__}.{attr}"

            def counting(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counting)
        return calls

    @staticmethod
    def _count_scans(monkeypatch) -> list:
        """The ``rows`` of every ``score_rows_into`` call, with the size
        of the view it scanned."""
        scans = []
        real = core_search.score_rows_into

        def counting(cscorer, query, rows, top):
            scans.append((rows, len(cscorer.view)))
            return real(cscorer, query, rows, top)

        monkeypatch.setattr(core_search, "score_rows_into", counting)
        return scans

    def _service(self, store):
        return SearchService(
            store,
            config=ServeConfig(max_concurrency=1, queue_depth=0,
                               warm_queries=0),
        )

    def _store(self, seed: int) -> SqliteCatalog:
        rng = random.Random(seed)
        store = SqliteCatalog()
        store.upsert_many(make_feature(i, rng) for i in range(self.SIZE))
        return store

    def test_cold_service_build_copies_nothing(self, monkeypatch):
        with self._store(31) as store:
            calls = self._count_calls(monkeypatch)
            service = self._service(store)
            try:
                assert calls == []
                assert service._engine.indexes is None
            finally:
                service.close()

    def test_rebuilding_refresh_copies_nothing(self, monkeypatch):
        rng = random.Random(41)
        with self._store(41) as store:
            service = self._service(store)
            try:
                moved = [make_feature(i, rng) for i in range(120)]
                base = store.version
                store.apply_batch(moved, ())
                delta = PublishDelta(
                    upserted=[f.dataset_id for f in moved],
                    base_version=base,
                    published_version=store.version,
                )
                calls = self._count_calls(monkeypatch)
                assert service.refresh(delta=delta) is True
                assert calls == []
                assert service.telemetry.counter(
                    "refresh.delta_applied"
                ) == 1
                assert service._engine.indexes is None
            finally:
                service.close()

    def test_full_refresh_builds_no_index(self, monkeypatch):
        rng = random.Random(47)
        with self._store(47) as store:
            service = self._service(store)
            try:
                store.upsert_many(make_feature(i, rng) for i in range(10))
                calls = self._count_calls(monkeypatch)
                assert service.refresh() is True
                assert service.telemetry.counter(
                    "refresh.full_rebuilds"
                ) == 1
                assert calls == []
                assert service._engine.indexes is None
            finally:
                service.close()

    def test_miss_scores_every_row_in_one_pass(self, monkeypatch):
        with self._store(53) as store:
            service = self._service(store)
            try:
                calls = self._count_calls(monkeypatch)
                scans = self._count_scans(monkeypatch)
                response = service.search(parse_query(self.QUERY), limit=5)
                assert response.results
                assert scans == [(range(self.SIZE), self.SIZE)]
                assert calls == []
                # A hit scores nothing.
                service.search(parse_query(self.QUERY), limit=5)
                assert len(scans) == 1
            finally:
                service.close()

    def test_cli_search_matches_snapshot_engine(
        self, monkeypatch, tmp_path, capsys
    ):
        path = str(tmp_path / "catalog.db")
        rng = random.Random(59)
        with SqliteCatalog(path) as store:
            store.upsert_many(make_feature(i, rng) for i in range(self.SIZE))
            query = parse_query(self.QUERY)
            reference = SearchEngine(
                store.snapshot(), hierarchy=vocabulary_hierarchy(),
                cache=False,
            ).search(query, limit=5)
        expected = render_search_text(query, reference)
        calls = self._count_calls(monkeypatch)
        scans = self._count_scans(monkeypatch)
        assert main(["search", path, self.QUERY, "--limit", "5"]) == 0
        assert capsys.readouterr().out == expected + "\n"
        assert reference.total_matches > len(reference) > 0
        assert calls == []
        assert scans == [(range(self.SIZE), self.SIZE)]
