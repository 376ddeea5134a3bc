"""O(changed) refresh == full rebuild, property-tested.

DESIGN note 18's exactness chain, machine-checked end to end: a
copy-on-write snapshot built from a stamped :class:`PublishDelta` must
be indistinguishable from a from-scratch :meth:`snapshot`, an
incremental columnar refreeze must lay out the same rows as a cold
freeze, and a serving refresh that takes the whole delta path — COW
snapshot, spliced columns, warmed queries — must produce the exact
page (ids, scores, order, breakdowns, totals) a cold engine over a
fresh snapshot produces.  Hypothesis searches for
counterexamples across random catalogs, publish deltas and query
shapes, on the memory store, the SQLite store, and through
:class:`FlakyCatalogStore`.
"""

from __future__ import annotations

import sqlite3
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import MemoryCatalog, SqliteCatalog
from repro.catalog.flaky import FlakyCatalogStore
from repro.catalog.records import DatasetFeature, VariableEntry
from repro.core.columnar import ColumnarSnapshot
from repro.core.faults import FaultSchedule
from repro.core.query import Query, VariableTerm
from repro.core.search import SearchEngine
from repro.geo import BoundingBox, GeoPoint, TimeInterval
from repro.hierarchy.tree import ConceptHierarchy
from repro.obs import Telemetry, use_telemetry
from repro.serve import SearchService, ServeConfig
from repro.wrangling.state import PublishDelta

VARIABLE_POOL = [
    "water_temperature",
    "salinity",
    "dissolved_oxygen",
    "chlorophyll",
    "wind_speed",
]

finite_lat = st.floats(
    min_value=42.0, max_value=49.0, allow_nan=False, allow_infinity=False
)
finite_lon = st.floats(
    min_value=-127.0, max_value=-121.0,
    allow_nan=False, allow_infinity=False,
)


@st.composite
def features(draw, index: int):
    lat = draw(finite_lat)
    lon = draw(finite_lon)
    start = draw(st.floats(min_value=0.0, max_value=1e7))
    names = draw(
        st.lists(
            st.sampled_from(VARIABLE_POOL),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    return DatasetFeature(
        dataset_id=f"ds_{index:04d}",
        title=f"dataset {index}",
        platform="station",
        file_format="csv",
        bbox=BoundingBox(
            lat, lon, lat + draw(st.floats(0.0, 0.5)),
            lon + draw(st.floats(0.0, 0.5)),
        ),
        interval=TimeInterval(start, start + draw(st.floats(0.0, 1e6))),
        row_count=draw(st.integers(1, 500)),
        source_directory="",
        variables=[
            VariableEntry.from_written(name, "u", 10, 0.0, 30.0, 15.0, 5.0)
            for name in names
        ],
    )


@st.composite
def queries(draw):
    location = None
    radius = 50.0
    if draw(st.booleans()):
        location = GeoPoint(draw(finite_lat), draw(finite_lon))
        radius = draw(st.floats(min_value=1.0, max_value=500.0))
    interval = None
    if draw(st.booleans()):
        start = draw(st.floats(min_value=0.0, max_value=1e7))
        interval = TimeInterval(
            start, start + draw(st.floats(0.0, 1e6))
        )
    names = draw(
        st.lists(
            st.sampled_from(VARIABLE_POOL),
            min_size=0 if (location or interval) else 1,
            max_size=2,
            unique=True,
        )
    )
    return Query(
        location=location,
        radius_km=radius,
        interval=interval,
        variables=tuple(VariableTerm(name=name) for name in names),
    )


def page(results):
    return [(r.dataset_id, r.score, r.breakdown) for r in results]


def make_store(kind):
    """A fresh store of the parametrized kind (close after use)."""
    if kind == "memory":
        return MemoryCatalog()
    if kind == "sqlite":
        return SqliteCatalog()
    # Delegation through the fault wrapper with the schedule quiet:
    # the COW path must survive the indirection unchanged (the faulted
    # variant is exercised separately with a retry loop).
    return FlakyCatalogStore(MemoryCatalog(), FaultSchedule(rate=0.0))


def close_store(store):
    close = getattr(store, "close", None)
    if close is not None:
        close()


def seed_store(draw, kind):
    count = draw(st.integers(min_value=2, max_value=25))
    store = make_store(kind)
    store.apply_batch([draw(features(i)) for i in range(count)], ())
    return store, count


def publish_delta(draw, store, count):
    """Apply one random batch and return its stamped delta."""
    changed = draw(
        st.lists(
            st.integers(0, count - 1), min_size=0, max_size=4, unique=True,
        )
    )
    removed = draw(
        st.lists(
            st.integers(0, count - 1), min_size=0, max_size=2, unique=True,
        )
    )
    added = draw(st.integers(min_value=0, max_value=2))
    upserts = [
        draw(features(i)) for i in changed if i not in removed
    ] + [draw(features(count + i)) for i in range(added)]
    removed_ids = [f"ds_{i:04d}" for i in removed]
    base = store.version
    store.apply_batch(upserts, removed_ids)
    return PublishDelta(
        upserted=[f.dataset_id for f in upserts],
        removed=removed_ids,
        base_version=base,
        published_version=store.version,
    )


STORE_KINDS = ["memory", "sqlite", "flaky"]


# -- the COW snapshot ------------------------------------------------------


@pytest.mark.parametrize("kind", STORE_KINDS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_cow_snapshot_equals_full_snapshot(kind, data):
    store, count = seed_store(data.draw, kind)
    try:
        previous = store.snapshot()
        delta = publish_delta(data.draw, store, count)
        if not delta.changed:
            return  # version unchanged; nothing to compare
        assert delta.spans(previous.version, store.version)
        cow = store.snapshot_cow(
            previous,
            delta.upserted,
            delta.removed,
            expect_version=delta.published_version,
        )
        full = store.snapshot()
        assert cow is not None
        assert cow.version == full.version
        assert cow.dataset_ids() == full.dataset_ids()
        for dataset_id in full.dataset_ids():
            assert cow.get(dataset_id) == full.get(dataset_id)
        # Structural sharing is the whole point: every untouched
        # feature object is *the same object* the previous snapshot
        # holds, not a copy.
        touched = set(delta.upserted) | set(delta.removed)
        for dataset_id in previous.dataset_ids():
            if dataset_id not in touched:
                assert cow._features[dataset_id] is (
                    previous._features[dataset_id]
                )
    finally:
        close_store(store)


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_cow_snapshot_version_guard(kind):
    store = make_store(kind)
    try:
        store.apply_batch(
            [_feature("ds_0000"), _feature("ds_0001")], ()
        )
        previous = store.snapshot()
        store.apply_batch([_feature("ds_0000", temp=9.0)], ())
        # Wrong expectation: a second (unseen) publish happened.
        assert store.snapshot_cow(
            previous, ["ds_0000"], [], expect_version=previous.version
        ) is None
        # Unchanged store: COW hands the previous snapshot back.
        fresh = store.snapshot()
        assert store.snapshot_cow(
            fresh, [], [], expect_version=store.version
        ) is fresh
        # Upserted ids missing from the store are treated as removed.
        cow = store.snapshot_cow(
            previous, ["ds_0000", "ds_gone"], [],
            expect_version=store.version,
        )
        assert cow is not None
        assert "ds_gone" not in cow.dataset_ids()
    finally:
        close_store(store)


def test_publish_delta_spans_requirements():
    stamped = PublishDelta(
        upserted=["a"], base_version=4, published_version=5
    )
    assert stamped.spans(4, 5)
    assert not stamped.spans(3, 5)  # wrong base
    assert not stamped.spans(4, 6)  # wrong target
    # An unstamped delta never spans anything.
    assert not PublishDelta(upserted=["a"]).spans(4, 5)
    # A full-copy publish invalidates incremental application.
    assert not PublishDelta(
        full_copy=True, base_version=4, published_version=5
    ).spans(4, 5)
    # More than one bump means a foreign write slipped in between.
    assert not PublishDelta(
        upserted=["a"], base_version=4, published_version=6
    ).spans(4, 6)


def test_cow_through_faulted_store_retries_to_exact():
    inner = MemoryCatalog()
    store = FlakyCatalogStore(
        inner,
        FaultSchedule(seed=7, rate=0.6, max_consecutive=2),
        fail_reads=True,
    )
    _retry(
        lambda: store.apply_batch(
            [_feature(f"ds_{i:04d}") for i in range(6)], ()
        )
    )
    previous = _retry(store.snapshot)
    _retry(
        lambda: store.apply_batch(
            [_feature("ds_0002", temp=50.0)], ["ds_0005"]
        )
    )
    cow = _retry(
        lambda: store.snapshot_cow(
            previous, ["ds_0002"], ["ds_0005"],
            expect_version=store.version,
        )
    )
    full = inner.snapshot()
    assert cow is not None
    assert cow.dataset_ids() == full.dataset_ids()
    for dataset_id in full.dataset_ids():
        assert cow.get(dataset_id) == full.get(dataset_id)
    assert store.schedule.total_injected > 0  # the faults really fired


def _retry(call, attempts: int = 10):
    for _ in range(attempts - 1):
        try:
            return call()
        except sqlite3.OperationalError:
            continue
    return call()


def _feature(dataset_id: str, temp: float = 30.0, name: str = "salinity"):
    return DatasetFeature(
        dataset_id=dataset_id,
        title=dataset_id,
        platform="station",
        file_format="csv",
        bbox=BoundingBox(45.0, -124.0, 45.5, -123.5),
        interval=TimeInterval(0.0, 1000.0),
        row_count=10,
        source_directory="",
        variables=[
            VariableEntry.from_written(name, "u", 10, 0.0, temp, 15.0, 5.0)
        ],
    )


# -- the incremental refreeze ----------------------------------------------


def _rows(view: ColumnarSnapshot):
    """Layout rows with name ids resolved — name-table order is
    allowed to differ between a cold freeze and a splice."""
    out = []
    for row, dataset_id in enumerate(view.ids):
        lo, hi = view.var_offsets[row], view.var_offsets[row + 1]
        out.append((
            dataset_id,
            view.min_lat[row], view.min_lon[row],
            view.max_lat[row], view.max_lon[row],
            view.t_start[row], view.t_end[row],
            [
                (view.names[view.var_name_ids[k]], view.var_counts[k],
                 view.var_mins[k], view.var_maxs[k])
                for k in range(lo, hi)
            ],
        ))
    return out


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_freeze_from_equals_cold_freeze(data):
    store = MemoryCatalog()
    count = data.draw(st.integers(min_value=2, max_value=25))
    store.apply_batch(
        [data.draw(features(i)) for i in range(count)], ()
    )
    base_view = ColumnarSnapshot(
        list(store.features()), version=store.version
    )
    delta = publish_delta(data.draw, store, count)
    upserted = [
        store.get(dataset_id)
        for dataset_id in delta.upserted
        if dataset_id not in delta.removed
    ]
    spliced = ColumnarSnapshot.freeze_from(
        base_view, upserted, delta.removed, version=store.version
    )
    cold = ColumnarSnapshot(
        list(store.features()), version=store.version
    )
    assert spliced.version == cold.version
    assert spliced.ids == cold.ids
    assert _rows(spliced) == _rows(cold)


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_delta_refresh_page_equals_cold_engine(kind, data):
    """The whole handoff: COW snapshot + spliced columns + warming,
    versus a cold engine on a fresh snapshot."""
    store, count = seed_store(data.draw, kind)
    query = data.draw(queries())
    limit = data.draw(st.integers(min_value=1, max_value=10))
    service = SearchService(
        store,
        config=ServeConfig(max_concurrency=2, queue_depth=4),
    )
    try:
        service.search(query, limit=limit)  # seed cache + hotness ring
        delta = publish_delta(data.draw, store, count)
        if not delta.changed:
            return
        assert service.refresh(delta=delta) is True
        assert service.telemetry.counter("refresh.delta_applied") == 1
        assert service.telemetry.counter("refresh.full_rebuilds") == 0
        actual = service.search(query, limit=limit)
        cold = SearchEngine(store.snapshot(), cache=False)
        cold.build_indexes()
        expected = cold.search(query, limit=limit)
        assert page(actual.results) == page(expected)
        assert actual.results.total_matches == expected.total_matches
        assert actual.snapshot_version == store.version
    finally:
        service.close()
        close_store(store)


# -- the freeze race -------------------------------------------------------


def test_concurrent_first_freeze_happens_once():
    store = MemoryCatalog()
    store.apply_batch(
        [_feature(f"ds_{i:04d}") for i in range(20)], ()
    )
    snapshot = store.snapshot()
    telemetry = Telemetry()
    workers = 6
    barrier = threading.Barrier(workers + 1)
    views = []

    def hammer():
        with use_telemetry(telemetry):
            barrier.wait()
            views.append(snapshot.columnar())

    threads = [
        threading.Thread(target=hammer) for _ in range(workers)
    ]
    for thread in threads:
        thread.start()
    # Hold the freeze lock until every thread has passed the lock-free
    # fast path (the view is still None) and queued on the lock: the
    # race is then deterministic, not scheduler luck.
    with snapshot._freeze_lock:
        barrier.wait()
        time.sleep(0.05)
    for thread in threads:
        thread.join()
    assert len(views) == workers
    assert all(view is views[0] for view in views)  # ONE freeze
    assert telemetry.counter("columnar.freeze_races_avoided") >= 1


# -- hierarchy content equality --------------------------------------------


def _hierarchy(order_flipped: bool = False) -> ConceptHierarchy:
    hierarchy = ConceptHierarchy()
    names = ["salinity", "water_temperature"]
    if order_flipped:
        names.reverse()
    for name in names:
        hierarchy.add(name, parent="ocean", measurable=True)
    return hierarchy


def test_refresh_with_equal_hierarchy_keeps_engine():
    store = MemoryCatalog()
    store.apply_batch([_feature("ds_0000")], ())
    original = _hierarchy()
    service = SearchService(store, hierarchy=original)
    try:
        engine = service._engine
        replacement = _hierarchy(order_flipped=True)
        assert replacement is not original
        assert replacement.fingerprint() == original.fingerprint()
        # Equal content, unchanged source: no rebuild, old object kept
        # (its id keys every warm cache entry).
        assert service.refresh(hierarchy=replacement) is False
        assert service._engine is engine
        assert service.hierarchy is original
    finally:
        service.close()


def test_refresh_with_different_hierarchy_rebuilds():
    store = MemoryCatalog()
    store.apply_batch([_feature("ds_0000")], ())
    service = SearchService(store, hierarchy=_hierarchy())
    try:
        engine = service._engine
        changed = _hierarchy()
        changed.add("chlorophyll", parent="ocean")
        assert service.refresh(hierarchy=changed) is True
        assert service._engine is not engine
        assert service.hierarchy is changed
    finally:
        service.close()


# -- cache invalidation and warming ----------------------------------------


def test_delta_refresh_carries_no_cache_entry():
    """No entry crosses a refresh, even one whose query no touched
    dataset can score: without warming the new version starts empty,
    and the re-asked query misses and recomputes the cold page."""
    store = MemoryCatalog()
    store.apply_batch(
        [_feature(f"ds_{i:04d}") for i in range(5)]
        + [_feature("ds_wind", name="wind_speed")],
        (),
    )
    service = SearchService(
        store,
        config=ServeConfig(
            max_concurrency=2, queue_depth=4, warm_queries=0
        ),
    )
    try:
        query = Query(variables=(VariableTerm(name="salinity"),))
        service.search(query, limit=5)
        base = store.version
        store.apply_batch([_feature("ds_wind", name="wind_speed")], ())
        delta = PublishDelta(
            upserted=["ds_wind"],
            base_version=base,
            published_version=store.version,
        )
        assert service.refresh(delta=delta) is True
        assert service.telemetry.counter("refresh.delta_applied") == 1
        assert all(
            key[0] != store.version for key, __ in service.cache.items()
        )
        misses = service.cache.stats()["misses"]
        again = service.search(query, limit=5)
        assert service.cache.stats()["misses"] == misses + 1
        cold = SearchEngine(store.snapshot(), cache=False)
        expected = cold.search(query, limit=5)
        assert page(again.results) == page(expected)
        assert again.results.total_matches == expected.total_matches
    finally:
        service.close()


def test_refresh_invalidates_affected_cache_entries():
    store = MemoryCatalog()
    store.apply_batch(
        [_feature(f"ds_{i:04d}") for i in range(5)], ()
    )
    service = SearchService(
        store,
        config=ServeConfig(
            max_concurrency=2, queue_depth=4, warm_queries=0
        ),
    )
    try:
        query = Query(variables=(VariableTerm(name="salinity"),))
        service.search(query, limit=5)
        base = store.version
        store.apply_batch([], ["ds_0002"])  # scored nonzero: must drop
        delta = PublishDelta(
            removed=["ds_0002"],
            base_version=base,
            published_version=store.version,
        )
        assert service.refresh(delta=delta) is True
        hits = service.cache.stats()["hits"]
        fresh = service.search(query, limit=5)
        assert service.cache.stats()["hits"] == hits  # recomputed
        assert "ds_0002" not in [
            r.dataset_id for r in fresh.results
        ]
        cold = SearchEngine(store.snapshot(), cache=False)
        assert page(fresh.results) == page(cold.search(query, limit=5))
    finally:
        service.close()


def test_refresh_warms_hottest_queries():
    store = MemoryCatalog()
    store.apply_batch(
        [_feature(f"ds_{i:04d}") for i in range(5)], ()
    )
    service = SearchService(
        store,
        config=ServeConfig(
            max_concurrency=2, queue_depth=4, warm_queries=2
        ),
    )
    try:
        query = Query(variables=(VariableTerm(name="salinity"),))
        for _ in range(3):
            service.search(query, limit=5)
        base = store.version
        store.apply_batch([_feature("ds_0001", temp=99.0)], ())
        delta = PublishDelta(
            upserted=["ds_0001"],
            base_version=base,
            published_version=store.version,
        )
        assert service.refresh(delta=delta) is True
        assert service.telemetry.counter("refresh.warmed_queries") >= 1
        # The hot query was pre-executed against the new engine before
        # the swap: the first post-swap request is a cache hit.
        hits = service.cache.stats()["hits"]
        warmed = service.search(query, limit=5)
        assert service.cache.stats()["hits"] == hits + 1
        cold = SearchEngine(store.snapshot(), cache=False)
        assert page(warmed.results) == page(cold.search(query, limit=5))
    finally:
        service.close()
