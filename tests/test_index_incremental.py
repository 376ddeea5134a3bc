"""Incremental index maintenance: apply() equals a fresh rebuild."""

import random

from repro.catalog import (
    CatalogIndexes,
    DatasetFeature,
    IntervalIndex,
    VariableEntry,
)
from repro.catalog import SqliteCatalog
from repro.catalog.index import REBUILD_CHURN_FRACTION
from repro.geo import BoundingBox, GeoPoint, TimeInterval
from repro.serve.service import SearchService, ServeConfig
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
    """Serving indexes read a snapshot's own feature objects: building
    them copies no feature, and they equal indexes built from copies."""

    SIZE = 200

    @staticmethod
    def _count_copies(monkeypatch) -> list:
        calls = []
        real_copy = DatasetFeature.copy

        def counting_copy(self):
            calls.append(self.dataset_id)
            return real_copy(self)

        monkeypatch.setattr(DatasetFeature, "copy", counting_copy)
        return calls

    def _service(self, store):
        return SearchService(
            store,
            config=ServeConfig(max_concurrency=1, queue_depth=0,
                               warm_queries=0),
        )

    def test_cold_service_build_copies_nothing(self, monkeypatch):
        rng = random.Random(31)
        with SqliteCatalog() as store:
            store.upsert_many(make_feature(i, rng) for i in range(self.SIZE))
            calls = self._count_copies(monkeypatch)
            service = self._service(store)
            try:
                assert calls == []
                indexes = service._engine.indexes
                assert len(indexes) == self.SIZE
                copied = CatalogIndexes.build(list(store.snapshot()))
                assert calls  # the reference really did copy
                assert_equivalent(indexes, copied, random.Random(37))
            finally:
                service.close()

    def test_rebuilding_refresh_copies_nothing(self, monkeypatch):
        rng = random.Random(41)
        with SqliteCatalog() as store:
            store.upsert_many(make_feature(i, rng) for i in range(self.SIZE))
            service = self._service(store)
            try:
                moved = [make_feature(i, rng) for i in range(120)]
                assert len(moved) > REBUILD_CHURN_FRACTION * self.SIZE
                base = store.version
                store.apply_batch(moved, ())
                delta = PublishDelta(
                    upserted=[f.dataset_id for f in moved],
                    base_version=base,
                    published_version=store.version,
                )
                calls = self._count_copies(monkeypatch)
                assert service.refresh(delta=delta) is True
                assert calls == []
                assert service.telemetry.counter(
                    "refresh.delta_applied"
                ) == 1
                indexes = service._engine.indexes
                assert indexes.catalog_version == store.version
                copied = CatalogIndexes.build(list(store.snapshot()))
                assert_equivalent(indexes, copied, random.Random(43))
            finally:
                service.close()
