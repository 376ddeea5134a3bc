"""The SQLite write-through mirror serves exactly what a disk read would.

``SqliteCatalog.snapshot`` answers from its mirror while the mirror is
valid at the live catalog version.  A stateful Hypothesis machine drives
every mutator — plus writes from a second connection, a NaN that rolls
a batch back, a busy-retried batch and awkward values (``-0.0``, ints in
REAL columns, integral floats in INTEGER columns, unsorted non-ASCII
attribute keys) — and after every step checks that ``store.snapshot()``
equals a fresh full read of the database, at the same version, field
for field and type for type.  The pin tests below count full reads.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sqlite3
import sys
import tempfile
import threading
from dataclasses import replace
from types import MappingProxyType, SimpleNamespace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import DataNearHere
from repro.catalog import (
    DatasetFeature,
    DatasetNotFoundError,
    SqliteCatalog,
    VariableEntry,
)
from repro.catalog.store import CatalogSnapshot
from repro.cli import main
from repro.core.qparser import parse_query
from repro.core.retry import RetryPolicy
from repro.core.search import SearchEngine
from repro.geo import BoundingBox, TimeInterval
from repro.hierarchy import vocabulary_hierarchy
from repro.serve import SearchService, search_payload
from repro.ui.render import render_search_text

IDS = ["a", "b", "c", "é-d"]
NAMES = ["temp", "salinity", "turbidity"]

ids = st.sampled_from(IDS)
names = st.sampled_from(NAMES)
#: Values bound to REAL columns: floats, ints and the signed zero.
reals = st.one_of(
    st.floats(-1e12, 1e12, allow_nan=False),
    st.integers(-(2**53), 2**53),
    st.sampled_from([-0.0, 0.0, 1e300, -1e300, float("inf")]),
)
#: Values bound to INTEGER columns: ints, bools, integral floats in and
#: out of the 64-bit range, and a non-integral float (stored as REAL).
integers = st.one_of(
    st.integers(-(2**62), 2**62),
    st.sampled_from(
        [True, 5.0, -0.0, 2.5, 2.0**63 - 1024, 2.0**63, -(2.0**63), 1e19]
    ),
)
degrees = st.one_of(
    st.floats(-90.0, 90.0, allow_nan=False),
    st.integers(-90, 90),
    st.just(-0.0),
)
texts = st.text(max_size=6)
attributes = st.one_of(
    st.dictionaries(texts, texts, max_size=3),
    st.just({"zeta": "1", "ä": "2", "a": "3", "Ω": "4"}),
)


@st.composite
def variables(draw):
    return VariableEntry(
        written_name=draw(texts),
        written_unit=draw(texts),
        name=draw(names),
        unit=draw(st.sampled_from(["u", "v"])),
        count=draw(integers),
        minimum=draw(reals),
        maximum=draw(reals),
        mean=draw(reals),
        stddev=draw(reals),
        excluded=draw(st.booleans()),
        ambiguous=draw(st.booleans()),
        context=draw(texts),
        resolution=draw(texts),
    )


@st.composite
def features(draw, dataset_id=ids):
    lat = sorted([draw(degrees), draw(degrees)])
    lon = sorted([draw(degrees), draw(degrees)])
    time = sorted([draw(reals.filter(math.isfinite)) for __ in range(2)])
    return DatasetFeature(
        dataset_id=draw(dataset_id),
        title=draw(texts),
        platform=draw(texts),
        file_format=draw(st.sampled_from(["csv", "nc"])),
        bbox=BoundingBox(lat[0], lon[0], lat[1], lon[1]),
        interval=TimeInterval(time[0], time[1]),
        row_count=draw(integers),
        source_directory=draw(texts),
        attributes=draw(attributes),
        variables=draw(st.lists(variables(), max_size=3)),
        content_hash=draw(texts),
    )


def assert_identical(a, b, where="feature"):
    """Equal value *and* type, recursively; ``0.0`` differs from
    ``-0.0``, and dict key order counts."""
    assert type(a) is type(b), (where, a, b)
    if isinstance(a, (DatasetFeature, VariableEntry, BoundingBox,
                      TimeInterval)):
        for field in a.__dataclass_fields__:
            assert_identical(
                getattr(a, field), getattr(b, field), f"{where}.{field}"
            )
    elif isinstance(a, (dict, MappingProxyType)):
        assert list(a) == list(b), (where, a, b)
        for key in a:
            assert_identical(a[key], b[key], f"{where}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), (where, a, b)
        for i, (x, y) in enumerate(zip(a, b)):
            assert_identical(x, y, f"{where}[{i}]")
    elif isinstance(a, float):
        assert a == b, (where, a, b)
        assert math.copysign(1.0, a) == math.copysign(1.0, b), (where, a, b)
    else:
        assert a == b, (where, a, b)


def assert_same_snapshot(served: CatalogSnapshot, disk: CatalogSnapshot):
    assert served.version == disk.version
    assert served.dataset_ids() == disk.dataset_ids()
    for x, y in zip(served.features(), disk.features()):
        assert_identical(x, y, x.dataset_id)


class MirrorMachine(RuleBasedStateMachine):
    """One store under every kind of write; see the module docstring."""

    in_memory = False

    def __init__(self) -> None:
        super().__init__()
        if self.in_memory:
            self.tmp = None
            self.path = ":memory:"
        else:
            self.tmp = tempfile.mkdtemp(prefix="mirror-")
            self.path = os.path.join(self.tmp, "catalog.db")
        self.store = SqliteCatalog(self.path)
        self.store._retry = RetryPolicy(attempts=3, base_delay=0.0)

    def teardown(self) -> None:
        self.store.close()
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)

    def disk_snapshot(self) -> CatalogSnapshot:
        if self.in_memory:  # no second connection can see it: read it
            return CatalogSnapshot(
                {f.dataset_id: f for f in self.store.features()},
                version=self.store.version,
            )
        fresh = SqliteCatalog(self.path)
        try:
            return fresh.snapshot()
        finally:
            fresh.close()

    # -- every mutator ---------------------------------------------------

    @rule(feature=features())
    def upsert(self, feature):
        self.store.upsert(feature)

    @rule(batch=st.lists(features(), max_size=4))
    def upsert_many(self, batch):
        assert self.store.upsert_many(iter(batch)) == len(batch)

    @rule(batch=st.lists(features(), max_size=3),
          removals=st.lists(ids, max_size=3))
    def apply_batch(self, batch, removals):
        self.store.apply_batch(batch, removals)

    @rule(feature=features())
    def apply_batch_upsert_and_remove_one_id(self, feature):
        assert self.store.apply_batch([feature], [feature.dataset_id]) == (
            1, 1
        )
        assert not self.store.contains(feature.dataset_id)

    @rule(dataset_id=ids)
    def remove(self, dataset_id):
        try:
            self.store.remove(dataset_id)
        except DatasetNotFoundError:
            pass

    @rule(dataset_ids=st.lists(ids, max_size=3))
    def remove_many(self, dataset_ids):
        self.store.remove_many(dataset_ids)

    @rule(batch=st.lists(features(), max_size=3))
    def replace_all(self, batch):
        self.store.replace_all(batch)

    @rule()
    def clear(self):
        self.store.clear()

    @rule(old=names, new=names)
    def rename_variables(self, old, new):
        self.store.rename_variables({old: new}, resolution="step")

    # -- other connections, failures, retries ----------------------------

    @precondition(lambda self: not self.in_memory)
    @rule(batch=st.lists(features(), min_size=1, max_size=2),
          removal=ids)
    def foreign_write(self, batch, removal):
        other = SqliteCatalog(self.path)
        try:
            other.upsert_many(batch)
            other.remove_many([removal])
        finally:
            other.close()

    @precondition(lambda self: not self.in_memory)
    @rule(foreign=features(), own=features())
    def foreign_write_then_own_write(self, foreign, own):
        # No snapshot in between: our bump lands one past the foreign
        # one, so the mirror must notice the gap rather than advance.
        with SqliteCatalog(self.path) as other:
            other.upsert(foreign)
        self.store.upsert(own)

    @precondition(lambda self: not self.in_memory)
    @rule(foreign=features())
    def foreign_write_then_copy_on_write(self, foreign):
        previous = self.store.snapshot()
        with SqliteCatalog(self.path) as other:
            other.upsert(foreign)
        # The mirror is a version behind: the delta must be read.
        refreshed = self.store.snapshot_cow(
            previous,
            upserted=[foreign.dataset_id],
            expect_version=self.store.version,
        )
        assert_same_snapshot(refreshed, self.disk_snapshot())

    @rule(good=features(), bad=features())
    def nan_rolls_back(self, good, bad):
        bad = replace(
            bad,
            variables=[
                *bad.variables,
                VariableEntry.from_written(
                    "x", "u", 1, 0.0, 1.0, math.nan, 0.0
                ),
            ],
        )
        before = self.store.version
        with pytest.raises(sqlite3.IntegrityError):
            self.store.upsert_many([good, bad])
        assert self.store.version == before

    @rule(batch=st.lists(features(), min_size=1, max_size=3))
    def busy_retried_batch(self, batch):
        store = self.store
        original = store._write_feature
        calls = {"n": 0}

        def busy_once(feature):
            calls["n"] += 1
            if calls["n"] == 1:
                raise sqlite3.OperationalError("database is locked")
            return original(feature)

        store._write_feature = busy_once
        try:
            assert store.upsert_many(batch) == len(batch)
        finally:
            del store._write_feature
        assert calls["n"] == len(batch) + 1

    @rule(feature=features(), removal=ids)
    def copy_on_write_refresh(self, feature, removal):
        previous = self.store.snapshot()
        self.store.apply_batch([feature], [removal])
        refreshed = self.store.snapshot_cow(
            previous,
            upserted=[feature.dataset_id],
            removed=[removal],
            expect_version=self.store.version,
        )
        assert_same_snapshot(refreshed, self.disk_snapshot())

    # -- the contract ----------------------------------------------------

    @invariant()
    def snapshot_equals_a_fresh_disk_read(self):
        served = self.store.snapshot()
        assert served.version == self.store.version
        assert_same_snapshot(served, self.disk_snapshot())


class MemoryMirrorMachine(MirrorMachine):
    in_memory = True


_SETTINGS = settings(max_examples=40, stateful_step_count=12, deadline=None)
TestFileMirror = MirrorMachine.TestCase
TestFileMirror.settings = _SETTINGS
TestMemoryMirror = MemoryMirrorMachine.TestCase
TestMemoryMirror.settings = _SETTINGS


# -- pins: how many full reads a snapshot costs ------------------------------


def make_feature(dataset_id: str) -> DatasetFeature:
    return DatasetFeature(
        dataset_id=dataset_id,
        title=f"Dataset {dataset_id}",
        platform="station",
        file_format="csv",
        bbox=BoundingBox(46.0, -124.0, 46.2, -123.8),
        interval=TimeInterval(0.0, 100.0),
        row_count=10,
        source_directory="d",
        attributes={"k": dataset_id},
        variables=[
            VariableEntry.from_written("temp", "C", 10, 1.0, 9.0, 5.0, 2.0)
        ],
    )


@pytest.fixture
def full_reads(monkeypatch):
    """Counts calls of ``SqliteCatalog.features``, the full read."""
    counter = {"n": 0}
    original = SqliteCatalog.features

    def counted(self):
        counter["n"] += 1
        return original(self)

    monkeypatch.setattr(SqliteCatalog, "features", counted)
    return counter


class TestFullReads:
    def test_publish_then_snapshot_reads_nothing_back(
        self, tmp_path, full_reads
    ):
        store = SqliteCatalog(str(tmp_path / "c.db"))
        store.upsert_many(make_feature(f"d{i}") for i in range(5))
        snapshot = store.snapshot()
        assert full_reads["n"] == 0
        assert snapshot.dataset_ids() == [f"d{i}" for i in range(5)]
        assert snapshot.version == store.version
        store.close()

    def test_foreign_write_costs_one_full_read(self, tmp_path, full_reads):
        path = str(tmp_path / "c.db")
        store = SqliteCatalog(path)
        store.upsert_many(make_feature(f"d{i}") for i in range(3))
        with SqliteCatalog(path) as other:
            other.upsert(make_feature("x"))
        snapshot = store.snapshot()
        assert full_reads["n"] == 1
        assert "x" in snapshot.dataset_ids()
        # The read refilled the mirror: our next write advances it.
        store.remove("d0")
        assert "d0" not in store.snapshot().dataset_ids()
        assert full_reads["n"] == 1
        store.close()

    def test_rename_sweep_costs_one_full_read(self, tmp_path, full_reads):
        # The rename reads the catalog once and writes one batch, which
        # advances the mirror: the snapshot after it reads nothing.
        store = SqliteCatalog(str(tmp_path / "c.db"))
        store.upsert_many(make_feature(f"d{i}") for i in range(3))
        before = store.snapshot()
        version = store.version
        assert store.rename_variables({"temp": "water_temp"}) == 3
        assert store.version == version + 1
        snapshot = store.snapshot()
        assert full_reads["n"] == 1
        assert before.get("d1").variable_names() == ["temp"]
        assert snapshot.get("d1").variable_names() == ["water_temp"]
        store.close()

    def test_reopened_catalog_reads_once_then_serves_writes(
        self, tmp_path, full_reads
    ):
        path = str(tmp_path / "c.db")
        with SqliteCatalog(path) as store:
            store.upsert_many(make_feature(f"d{i}") for i in range(3))
        store = SqliteCatalog(path)  # not empty: no mirror until a read
        store.snapshot()
        store.upsert(make_feature("d9"))
        assert "d9" in store.snapshot().dataset_ids()
        assert full_reads["n"] == 1
        store.close()

    def test_snapshot_cow_takes_the_delta_from_the_mirror(
        self, tmp_path, monkeypatch
    ):
        store = SqliteCatalog(str(tmp_path / "c.db"))
        store.upsert_many(make_feature(f"d{i}") for i in range(3))
        previous = store.snapshot()
        store.apply_batch([make_feature("d1")], ["d2"])

        def no_point_reads(dataset_id):
            raise AssertionError("snapshot_cow read a row back")

        monkeypatch.setattr(store, "get", no_point_reads)
        refreshed = store.snapshot_cow(
            previous, upserted=["d1"], removed=["d2"],
            expect_version=store.version,
        )
        assert refreshed.dataset_ids() == ["d0", "d1"]
        assert refreshed.version == store.version
        store.close()


# -- restart: a reopened catalog serves the same pages ------------------------

RESTART_TEXTS = [
    "near 45.5, -124.4 in mid-2010 with water_temperature between 5 and 10",
    "with salinity, water_temperature",
    "near 46.2, -123.9 within 50 km",
    "during 2010 with turbidity",
]


def wire_bytes(results, version) -> bytes:
    """The JSON body a 200 /search would carry, timing fields zeroed."""
    response = SimpleNamespace(
        results=results,
        snapshot_version=version,
        queued_seconds=0.0,
        total_seconds=0.0,
    )
    return json.dumps(search_payload(response)).encode("utf-8")


def test_reopened_catalog_serves_identical_pages(
    messy_fs, tmp_path, capsys, full_reads
):
    fs, __ = messy_fs
    path = str(tmp_path / "published.db")
    system = DataNearHere(fs, published=SqliteCatalog(path), workers=1)
    system.wrangle()
    reads_before = full_reads["n"]
    service = system.search_service()
    # The service's snapshot came from the mirror, not a read back.
    assert full_reads["n"] == reads_before
    served = {
        text: service.search(parse_query(text), limit=5).results
        for text in RESTART_TEXTS
    }
    version = system.state.published.version

    reopened = SqliteCatalog(path)
    assert reopened.version == version
    engine = SearchEngine(
        reopened,
        hierarchy=system.state.hierarchy,
        config=system.scoring,
        cache=False,
    )
    for text in RESTART_TEXTS:
        page = served[text]
        again = engine.search(parse_query(text), limit=5)
        assert page, text
        assert [r.dataset_id for r in again] == [r.dataset_id for r in page]
        assert [r.score for r in again] == [r.score for r in page]
        assert again.total_matches == page.total_matches
        assert wire_bytes(again, version) == wire_bytes(page, version)
    reopened.close()

    # `repro search` scores with the vocabulary hierarchy: compare it
    # with a service over the live store (its snapshot: the mirror).
    vocabulary = SearchService(
        system.state.published, hierarchy=vocabulary_hierarchy()
    )
    for text in RESTART_TEXTS:
        query = parse_query(text)
        expected = render_search_text(
            query, vocabulary.search(query, limit=5).results
        )
        assert main(["search", path, text, "--limit", "5"]) == 0
        assert capsys.readouterr().out == expected + "\n"
    vocabulary.close()
    service.close()
    system.state.published.close()


# -- concurrency: snapshots taken while this connection writes ----------------


def test_snapshots_under_concurrent_writes_match_their_version(tmp_path):
    """One writer thread publishes batches while more reader threads
    than cores take full and copy-on-write snapshots; every snapshot
    must hold exactly the content the writer committed at its version."""
    store = SqliteCatalog(str(tmp_path / "c.db"))
    expected: dict[int, dict[str, str]] = {store.version: {}}
    seen: list[tuple[int, dict[str, str]]] = []
    failures: list[BaseException] = []
    done = threading.Event()

    def content(snapshot) -> dict[str, str]:
        return {f.dataset_id: f.title for f in snapshot.features()}

    def writer() -> None:
        model: dict[str, str] = {}
        try:
            for step in range(150):
                feature = replace(
                    make_feature(f"d{step % 7}"), title=f"t{step}"
                )
                removal = f"d{(step * 3) % 7}"
                store.apply_batch([feature], [removal])
                model[feature.dataset_id] = feature.title
                model.pop(removal, None)
                expected[store.version] = dict(model)
        except BaseException as exc:  # reported by the main thread
            failures.append(exc)
        finally:
            done.set()

    def reader() -> None:
        try:
            previous = store.snapshot()
            while not done.is_set():
                snapshot = store.snapshot()
                seen.append((snapshot.version, content(snapshot)))
                cow = store.snapshot_cow(
                    previous,
                    upserted=[f"d{i}" for i in range(7)],
                    expect_version=store.version,
                )
                if cow is not None:
                    seen.append((cow.version, content(cow)))
                previous = snapshot
        except BaseException as exc:
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for __ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "a thread hung"
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert seen, "the readers took no snapshot"
    for version, observed in seen:
        assert observed == expected[version], version
    assert content(store.snapshot()) == expected[store.version]
    store.close()
