"""The query cache, version-keyed invalidation, and staleness fixes."""

from dataclasses import FrozenInstanceError

import pytest

from repro.catalog import DatasetFeature, MemoryCatalog, VariableEntry
from repro.core import (
    Query,
    QueryCache,
    ScoringConfig,
    SearchEngine,
    VariableTerm,
)
from repro.geo import BoundingBox, GeoPoint, TimeInterval
from repro.hierarchy import ConceptHierarchy


def feature(dataset_id, lat, lon, t0=0.0, t1=1000.0,
            name="water_temperature"):
    return DatasetFeature(
        dataset_id=dataset_id,
        title=dataset_id,
        platform="station",
        file_format="csv",
        bbox=BoundingBox(lat, lon, lat, lon),
        interval=TimeInterval(t0, t1),
        row_count=10,
        source_directory="",
        variables=[
            VariableEntry.from_written(name, "u", 10, 0.0, 10.0, 5.0, 1.0)
        ],
    )


@pytest.fixture()
def catalog():
    cat = MemoryCatalog()
    cat.upsert(feature("near_a", 45.5, -124.4))
    cat.upsert(feature("near_b", 45.6, -124.3))
    cat.upsert(feature("far_c", 48.0, -120.0))
    return cat


def query():
    return Query(
        location=GeoPoint(45.5, -124.4),
        interval=TimeInterval(0.0, 1000.0),
        variables=(VariableTerm("water_temperature"),),
    )


class TestQueryCacheUnit:
    def test_miss_then_hit(self):
        cache = QueryCache()
        assert cache.get("k") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_order(self):
        cache = QueryCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # freshen a; b is now the LRU entry
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_clear_keeps_counters(self):
        cache = QueryCache()
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_bad_maxsize(self):
        with pytest.raises(ValueError):
            QueryCache(maxsize=0)

    def test_hit_rate(self):
        cache = QueryCache()
        assert cache.stats()["hit_rate"] == 0.0
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert cache.stats()["hit_rate"] == pytest.approx(0.5)


class TestEngineCache:
    def test_repeat_query_hits_cache(self, catalog):
        engine = SearchEngine(catalog)
        engine.build_indexes()
        first = engine.search(query())
        second = engine.search(query())
        assert [r.dataset_id for r in first] == [
            r.dataset_id for r in second
        ]
        stats = engine.stats()["cache"]
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_mutation_invalidates_cache_and_indexes(self, catalog):
        """Any upsert bumps the version: cached pages from before the
        edit can no longer be served, and attached indexes built before
        it cannot narrow the scan."""
        engine = SearchEngine(catalog)
        engine.build_indexes()
        before = engine.search(query(), limit=3)
        assert "far_c" != before[0].dataset_id
        # Move the far dataset onto the query point (same-size mutation).
        catalog.upsert(feature("far_c", 45.5, -124.4))
        after = engine.search(query(), limit=3)
        assert after[0].score == pytest.approx(1.0)
        assert {r.dataset_id for r in after if r.score > 0.99} >= {"far_c"}
        stats = engine.stats()["cache"]
        assert stats["hits"] == 0 and stats["misses"] == 2

    def test_same_size_replacement_not_served_stale(self, catalog):
        """Regression: `len(indexes) != len(catalog)` missed same-size
        replacements, silently serving stale candidates."""
        engine = SearchEngine(catalog, cache=False)
        engine.build_indexes()
        engine.search(query(), limit=3)
        # Replace near_a with a far-away dataset: catalog size unchanged.
        catalog.upsert(feature("near_a", 49.0, -121.0))
        assert len(engine.indexes) == len(catalog)
        spatial_only = Query(location=GeoPoint(49.0, -121.0), radius_km=5.0)
        results = engine.search(spatial_only, limit=1)
        assert results[0].dataset_id == "near_a"
        assert results[0].score == pytest.approx(1.0)

    def test_cache_disabled(self, catalog):
        engine = SearchEngine(catalog, cache=False)
        assert engine.cache is None
        assert engine.stats()["cache"] is None
        assert engine.search(query())

    def test_shared_cache_instance(self, catalog):
        shared = QueryCache(maxsize=8)
        a = SearchEngine(catalog, cache=shared)
        b = SearchEngine(catalog, cache=shared)
        a.search(query())
        b.search(query())
        assert shared.hits == 1

    def test_different_limits_cached_separately(self, catalog):
        engine = SearchEngine(catalog)
        one = engine.search(query(), limit=1)
        three = engine.search(query(), limit=3)
        assert len(one) == 1
        assert len(three) == 3
        assert engine.cache.stats()["misses"] == 2


    def test_hits_hand_out_the_snapshots_own_features(self, catalog):
        """A miss attaches the snapshot's feature objects once and caches
        that page; a hit hands out the same objects in a fresh list, so
        a caller reordering its page cannot reach the cache, and a
        mutation attempt raises."""
        snapshot = catalog.snapshot()
        engine = SearchEngine(snapshot)
        first = engine.search(query())
        assert all(
            result.feature is snapshot.get(result.dataset_id)
            for result in first
        )
        victim = first[0].dataset_id
        with pytest.raises(FrozenInstanceError):
            first[0].feature.title = "mutated"
        with pytest.raises(AttributeError):
            first[0].feature.variables.clear()
        first.reverse()
        first.clear()
        second = engine.search(query())
        assert engine.cache.stats()["hits"] == 1
        assert second[0].dataset_id == victim
        assert second[0].feature is snapshot.get(victim)
        assert second[0].feature.title == victim
        assert second is not engine.search(query())
        assert [r.dataset_id for r in second] == [
            r.dataset_id for r in engine.search(query())
        ]

    def test_hierarchy_key_survives_address_reuse(self, catalog):
        """Regression: cache keys held ``id(hierarchy)``, so a hierarchy
        allocated at a freed one's address hit the freed one's pages.
        Keys now hold a content digest.

        The allocator's reuse is not deterministic, so the test builds
        what an id-keyed cache would see: a new engine over different
        hierarchy content at the very address that cached a page.
        """
        shared = QueryCache()
        temperature = Query(variables=(VariableTerm("temperature"),))
        tree = ConceptHierarchy()
        tree.add("temperature", measurable=False)
        tree.add("water_temperature", parent="temperature")
        old = SearchEngine(catalog, hierarchy=tree, cache=shared)
        assert old.search(temperature)  # matches water_temperature
        address = id(tree)
        tree.remove("water_temperature")
        tree.add("air_temperature", parent="temperature")
        fresh = SearchEngine(catalog, hierarchy=tree, cache=shared)
        assert id(fresh.hierarchy) == address
        expected = SearchEngine(catalog, hierarchy=tree, cache=False)
        results = fresh.search(temperature)
        assert list(results) == list(expected.search(temperature)) == []
        assert shared.hits == 0


class TestMicroFixes:
    def test_zero_total_weight_no_crash(self, catalog):
        """All term weights zero: pruning must bail out, not divide by
        zero; every dataset scores the neutral 1.0."""
        config = ScoringConfig(
            location_weight=0.0, time_weight=0.0, variable_weight=0.0
        )
        engine = SearchEngine(catalog, config=config, cache=False)
        engine.build_indexes()
        results = engine.search(query(), limit=10)
        assert len(results) == 3
        assert all(r.score == pytest.approx(1.0) for r in results)


class TestCacheConcurrency:
    """N threads hammer one cache; accounting must never tear."""

    THREADS = 8
    OPS = 400

    def test_concurrent_lookups_account_exactly(self):
        import threading

        cache = QueryCache(maxsize=64)
        barrier = threading.Barrier(self.THREADS)

        def worker(index: int) -> None:
            barrier.wait()
            for op in range(self.OPS):
                key = (index * 7 + op) % 96  # force hits AND misses
                if cache.get(key) is None:
                    cache.put(key, ("value", key))

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        stats = cache.stats()
        # Every lookup was counted exactly once, no lost increments.
        assert stats["hits"] + stats["misses"] == self.THREADS * self.OPS
        assert len(cache) <= 64
        assert stats["hit_rate"] == pytest.approx(
            stats["hits"] / (self.THREADS * self.OPS)
        )

    def test_concurrent_clear_keeps_counters_consistent(self):
        import threading

        cache = QueryCache(maxsize=32)
        stop = threading.Event()

        def clearer() -> None:
            while not stop.is_set():
                cache.clear()

        thread = threading.Thread(target=clearer, daemon=True)
        thread.start()
        lookups = 0
        try:
            for op in range(2000):
                key = op % 40
                if cache.get(key) is None:
                    cache.put(key, op)
                lookups += 1
        finally:
            stop.set()
            thread.join(timeout=10.0)
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == lookups
        assert len(cache) <= 32
