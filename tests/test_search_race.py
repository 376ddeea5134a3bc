"""Searches racing a writer on a live store answer at one catalog version.

A writer thread upserts, removes and applies batches to a live store
while the test thread searches it.  After every write the writer
records the store's ``snapshot()``, so each version the store passes
through has a reference.  Every search reads ``catalog.version`` before
and after it runs.  Its page — ids, scores, breakdowns,
``total_matches`` and every attached feature — must equal the page of
a cache-off engine over the recorded snapshot at one version ``v`` in
``[before, after]``, and no search may raise.  The boolean baseline is
held to the same contract.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.catalog import (
    DatasetFeature,
    MemoryCatalog,
    SqliteCatalog,
    VariableEntry,
)
from repro.core import BooleanSearchEngine, Query, SearchEngine, VariableTerm
from repro.geo import BoundingBox, GeoPoint, TimeInterval

NAMES = ("salinity", "water_temperature", "chlorophyll")
INITIAL = 24
WRITES = 90
LIMIT = 5

QUERIES = (
    Query(
        location=GeoPoint(45.5, -124.0),
        radius_km=150.0,
        variables=(VariableTerm("salinity"),),
    ),
    Query(variables=(VariableTerm("water_temperature", low=5.0, high=12.0),)),
    Query(interval=TimeInterval(0.0, 4e6)),
    Query(),
)


def make_feature(index: int, generation: int) -> DatasetFeature:
    """Dataset ``index`` as the writer's ``generation``-th write left it."""
    rng = random.Random(index * 7919 + generation)
    lat = rng.uniform(44.0, 47.0)
    lon = rng.uniform(-125.5, -122.5)
    start = rng.uniform(0.0, 8e6)
    variables = []
    for name in rng.sample(NAMES, rng.randint(1, len(NAMES))):
        low = rng.uniform(0.0, 15.0)
        variables.append(
            VariableEntry.from_written(
                name, "u", 10, low, low + rng.uniform(1.0, 10.0), low, 1.0
            )
        )
    return DatasetFeature(
        dataset_id=f"ds_{index:03d}",
        title=f"dataset {index} generation {generation}",
        platform="station",
        file_format="csv",
        bbox=BoundingBox(lat, lon, lat + 0.2, lon + 0.2),
        interval=TimeInterval(start, start + rng.uniform(1e5, 2e6)),
        row_count=10,
        source_directory="",
        variables=variables,
    )


def write_storm(catalog, snapshots: dict, seed: int) -> None:
    """Upserts, removes and batches; records a snapshot after each."""
    rng = random.Random(seed)
    live = set(catalog.dataset_ids())
    next_index = INITIAL
    for step in range(1, WRITES + 1):
        kind = step % 3
        if kind == 0:
            index = int(rng.choice(sorted(live))[3:])
            catalog.upsert(make_feature(index, step))
            live.add(f"ds_{index:03d}")
        elif kind == 1 and len(live) > 4:
            victim = rng.choice(sorted(live))
            catalog.remove(victim)
            live.discard(victim)
        else:
            fresh = make_feature(next_index, step)
            changed = make_feature(int(rng.choice(sorted(live))[3:]), step)
            victim = rng.choice(sorted(live - {changed.dataset_id}))
            catalog.apply_batch([fresh, changed], [victim])
            next_index += 1
            live |= {fresh.dataset_id, changed.dataset_id}
            live.discard(victim)
        snapshot = catalog.snapshot()
        snapshots[snapshot.version] = snapshot


def ranked_page(results):
    return (
        [(r.dataset_id, r.score, r.breakdown, r.feature) for r in results],
        results.total_matches,
        results.truncated,
    )


def boolean_page(results):
    return (
        [(r.dataset_id, r.feature) for r in results],
        results.total_matches,
    )


@pytest.fixture()
def fine_switching():
    """Switch threads often, so searches interleave with writes."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture(params=["memory", "sqlite-file"])
def live_store(request, tmp_path):
    if request.param == "memory":
        yield MemoryCatalog()
        return
    store = SqliteCatalog(str(tmp_path / "race.db"))
    yield store
    store.close()


@pytest.mark.parametrize("cache", [True, False], ids=["cache", "no-cache"])
def test_searches_racing_a_writer_answer_at_one_version(
    live_store, cache, fine_switching
):
    catalog = live_store
    catalog.upsert_many(make_feature(index, 0) for index in range(INITIAL))
    first = catalog.snapshot()
    snapshots = {first.version: first}
    engine = SearchEngine(catalog, cache=cache)
    boolean = BooleanSearchEngine(catalog)
    failures: list[Exception] = []

    def run_writer() -> None:
        try:
            write_storm(catalog, snapshots, seed=5)
        except Exception as exc:  # reported by the test thread
            failures.append(exc)

    writer = threading.Thread(target=run_writer)
    ranked, unranked = [], []
    writer.start()
    try:
        while writer.is_alive() or len(ranked) < 2 * len(QUERIES):
            for query in QUERIES:
                before = catalog.version
                results = engine.search(query, limit=LIMIT)
                ranked.append((before, catalog.version, query, results))
                before = catalog.version
                results = boolean.search(query, limit=LIMIT)
                unranked.append((before, catalog.version, query, results))
    finally:
        writer.join(timeout=60.0)
    assert not writer.is_alive()
    assert not failures, failures
    # Every version the store passed through has its reference.
    assert sorted(snapshots) == list(
        range(first.version, catalog.version + 1)
    )

    references: dict[int, SearchEngine] = {}

    def reference(version: int) -> SearchEngine:
        if version not in references:
            references[version] = SearchEngine(
                snapshots[version], cache=False
            )
        return references[version]

    for before, after, query, results in ranked:
        got = ranked_page(results)
        assert any(
            ranked_page(reference(v).search(query, limit=LIMIT)) == got
            for v in range(before, after + 1)
        ), (query.describe(), before, after)
    for before, after, query, results in unranked:
        got = boolean_page(results)
        assert any(
            boolean_page(
                BooleanSearchEngine(snapshots[v]).search(query, limit=LIMIT)
            ) == got
            for v in range(before, after + 1)
        ), (query.describe(), before, after)


class WriteAfterSnapshot(MemoryCatalog):
    """A store on which queued writes land right after each snapshot:
    the interleaving a racing writer produces, made deterministic."""

    def __init__(self) -> None:
        super().__init__()
        self.queued: list[DatasetFeature] = []

    def snapshot(self):
        snapshot = super().snapshot()
        while self.queued:
            self.upsert(self.queued.pop())
        return snapshot


def test_a_page_is_cached_under_its_snapshots_version():
    catalog = WriteAfterSnapshot()
    catalog.upsert(make_feature(0, 0))
    engine = SearchEngine(catalog)
    catalog.queued.append(make_feature(1, 0))
    first = engine.search(Query())
    assert [r.dataset_id for r in first] == ["ds_000"]
    # The write landed after the first snapshot, so the store is a
    # version ahead of the cached page: the next search must miss it.
    second = engine.search(Query())
    assert [r.dataset_id for r in second] == ["ds_000", "ds_001"]
    assert second.total_matches == 2
