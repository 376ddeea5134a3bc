"""Catalog snapshots: immutability, atomic batches, isolation races.

The serving layer's correctness rests on three properties tested here:

* a snapshot is frozen — every mutator raises, content and version
  never move, and it shares no state with the source store;
* ``apply_batch`` is atomic — one version bump, and a
  concurrent snapshot sees the whole batch or none of it;
* readers never block writers — a thread holding (and reading) a
  snapshot cannot delay mutations on the live store.
"""

from __future__ import annotations

import threading
from dataclasses import FrozenInstanceError

import pytest

from repro.catalog import (
    CatalogSnapshot,
    DatasetNotFoundError,
    MemoryCatalog,
    SnapshotMutationError,
    SqliteCatalog,
)
from repro.catalog.records import DatasetFeature, VariableEntry
from repro.geo import BoundingBox, TimeInterval


def make_feature(dataset_id: str, row_count: int = 10) -> DatasetFeature:
    return DatasetFeature(
        dataset_id=dataset_id,
        title=f"Dataset {dataset_id}",
        platform="station",
        file_format="csv",
        bbox=BoundingBox(45.0, -124.0, 45.5, -123.5),
        interval=TimeInterval(0.0, 1000.0),
        row_count=row_count,
        source_directory="stations/x",
        variables=[
            VariableEntry.from_written(
                "water_temperature", "C", row_count, 0.0, 20.0, 10.0, 2.0
            )
        ],
    )


@pytest.fixture(params=["memory", "sqlite"])
def store(request):
    if request.param == "memory":
        yield MemoryCatalog()
    else:
        with SqliteCatalog() as catalog:
            yield catalog


class TestSnapshotBasics:
    def test_snapshot_is_frozen_copy(self, store):
        store.upsert(make_feature("a"))
        store.upsert(make_feature("b"))
        snap = store.snapshot()
        assert isinstance(snap, CatalogSnapshot)
        assert snap.version == store.version
        assert snap.dataset_ids() == ["a", "b"]
        # Later mutations are invisible to the snapshot.
        held = snap.get("a")
        store.upsert(make_feature("c"))
        store.upsert(make_feature("b", row_count=99))
        store.remove("a")
        assert snap.dataset_ids() == ["a", "b"]
        assert snap.version != store.version
        assert snap.get("a") is held
        assert snap.get("a") == make_feature("a")
        assert snap.get("b").row_count == 10

    def test_snapshot_version_matches_source_at_copy_time(self, store):
        store.upsert(make_feature("a"))
        before = store.version
        snap = store.snapshot()
        assert snap.version == before

    def test_every_mutator_raises(self, store):
        store.upsert(make_feature("a"))
        snap = store.snapshot()
        cases = [
            lambda: snap.upsert(make_feature("x")),
            lambda: snap.remove("a"),
            lambda: snap.clear(),
            lambda: snap.upsert_many([make_feature("x")]),
            lambda: snap.remove_many(["a"]),
            lambda: snap.apply_batch([make_feature("x")], ["a"]),
            lambda: snap.rename_variables({"water_temperature": "t"}),
        ]
        for mutate in cases:
            with pytest.raises(SnapshotMutationError):
                mutate()
        # Nothing moved.
        assert snap.dataset_ids() == ["a"]

    def test_snapshot_of_snapshot_is_itself(self, store):
        store.upsert(make_feature("a"))
        snap = store.snapshot()
        assert snap.snapshot() is snap

    def test_reads_return_own_immutable_objects(self, store):
        store.upsert(make_feature("a"))
        snap = store.snapshot()
        feature = snap.get("a")
        assert next(snap.features()) is feature
        assert snap.get("a") is feature
        with pytest.raises(FrozenInstanceError):
            feature.variables[0].name = "mutated"
        with pytest.raises(FrozenInstanceError):
            feature.row_count = 0
        assert snap.get("a").variables[0].name == "water_temperature"

    def test_missing_dataset_raises(self, store):
        store.upsert(make_feature("a"))
        snap = store.snapshot()
        with pytest.raises(DatasetNotFoundError):
            snap.get("nope")

    def test_contains_and_len(self, store):
        store.upsert(make_feature("a"))
        snap = store.snapshot()
        assert snap.contains("a")
        assert not snap.contains("b")
        assert len(snap) == 1


class TestAtomicBatches:
    def test_apply_batch_single_version_bump(self, store):
        store.upsert_many([make_feature("a"), make_feature("b")])
        before = store.version
        upserted, removed = store.apply_batch(
            [make_feature("c"), make_feature("a", row_count=99)], ["b"]
        )
        assert (upserted, removed) == (2, 1)
        assert store.version == before + 1
        assert store.dataset_ids() == ["a", "c"]
        assert store.get("a").row_count == 99

    def test_apply_batch_skips_absent_removals(self, store):
        store.upsert(make_feature("a"))
        before = store.version
        upserted, removed = store.apply_batch((), ["ghost", "a"])
        assert (upserted, removed) == (0, 1)
        assert store.version == before + 1

    def test_empty_apply_batch_does_not_bump(self, store):
        store.upsert(make_feature("a"))
        before = store.version
        assert store.apply_batch((), ()) == (0, 0)
        assert store.version == before


class TestSnapshotIsolation:
    """A search racing a re-wrangle sees exactly one catalog version."""

    ROUNDS = 30
    DATASETS = 8

    def test_snapshots_never_tear_across_apply_batch(self, store):
        # Writer: each round rewrites EVERY dataset with row_count =
        # round, as one atomic batch.  Reader: snapshots continuously;
        # every snapshot must be internally uniform — all row_counts
        # equal — or it straddled a batch.
        ids = [f"d{i}" for i in range(self.DATASETS)]
        store.apply_batch([make_feature(i, row_count=0) for i in ids], ())
        stop = threading.Event()
        torn: list[str] = []

        def reader() -> None:
            while not stop.is_set():
                snap = store.snapshot()
                counts = {f.row_count for f in snap.features()}
                if len(counts) != 1:
                    torn.append(f"mixed row_counts {sorted(counts)}")
                    return

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        try:
            for round_number in range(1, self.ROUNDS + 1):
                store.apply_batch(
                    [
                        make_feature(i, row_count=round_number)
                        for i in ids
                    ],
                    (),
                )
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert not torn, torn[0]
        assert not thread.is_alive()

    def test_writers_not_blocked_by_snapshot_holders(self, store):
        # Functional (not timing) check: a thread that *holds* a
        # snapshot and reads it in a loop imposes nothing on the live
        # store — the writer completes all its rounds while the reader
        # thread never touches the store again after the copy.
        store.upsert(make_feature("a"))
        snap = store.snapshot()
        stop = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                assert snap.get("a").dataset_id == "a"

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        try:
            for round_number in range(self.ROUNDS):
                store.apply_batch(
                    [make_feature("a", row_count=round_number)], ()
                )
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert store.get("a").row_count == self.ROUNDS - 1
        # The held snapshot still serves its original version.
        assert snap.get("a").row_count == 10


class TestGenericFallback:
    def test_abc_default_snapshot_via_optimistic_read(self):
        # A wrapper store that delegates its snapshot to the wrapped
        # store still snapshots correctly when quiescent.
        from repro.catalog.flaky import FlakyCatalogStore
        from repro.core.faults import FaultSchedule

        inner = MemoryCatalog()
        inner.upsert(make_feature("a"))
        wrapper = FlakyCatalogStore(
            inner, FaultSchedule(seed=1, rate=0.0)
        )
        snap = wrapper.snapshot()
        assert snap.dataset_ids() == ["a"]
        assert snap.version == inner.version
