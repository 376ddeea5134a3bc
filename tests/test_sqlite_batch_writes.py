"""How a batch reaches SQLite: its semantics and its statement count.

Every batched write of ``SqliteCatalog`` binds all of its rows to one
``executemany`` per table.  These tests pin what that must preserve —
the last occurrence of a duplicate id wins, as on ``MemoryCatalog``,
and a store that only *looks* empty still replaces the rows another
connection wrote — that a mirror entry found straight from its input
feature equals a disk read, and that the number of statements a batch
issues does not depend on its size.  Catalog files written with the
indexes of older builds lose them on open and read back unchanged.
"""

from __future__ import annotations

import sqlite3
from dataclasses import replace

import pytest

from repro.catalog import (
    DatasetFeature,
    MemoryCatalog,
    SqliteCatalog,
    VariableEntry,
)
from repro.geo import BoundingBox, TimeInterval


def make_feature(dataset_id: str, title: str = "", n_vars: int = 2):
    return DatasetFeature(
        dataset_id=dataset_id,
        title=title or f"Dataset {dataset_id}",
        platform="station",
        file_format="csv",
        bbox=BoundingBox(46.0, -124.0, 46.2, -123.8),
        interval=TimeInterval(100.0, 200.0),
        row_count=50,
        source_directory="stations/x",
        attributes={"station": dataset_id},
        variables=[
            VariableEntry.from_written(
                f"v{i}", "PSU", 50, 0.0, 30.0, 15.0, 2.0
            )
            for i in range(n_vars)
        ],
    )


def fresh_read(path: str) -> dict[str, DatasetFeature]:
    with SqliteCatalog(path) as other:
        return {f.dataset_id: f for f in other.features()}


def served(store) -> dict[str, DatasetFeature]:
    snapshot = store.snapshot()
    return {f.dataset_id: f for f in snapshot.features()}


def duplicate_batch() -> list[DatasetFeature]:
    return [
        make_feature("a", "first a", n_vars=3),
        make_feature("b", "only b"),
        make_feature("a", "second a", n_vars=1),
        make_feature("c", "first c"),
        make_feature("c", "last c", n_vars=0),
    ]


LAST_WINS = {"a": ("second a", 1), "b": ("only b", 2), "c": ("last c", 0)}


def titles(features: dict[str, DatasetFeature]) -> dict:
    return {
        dataset_id: (f.title, len(f.variables))
        for dataset_id, f in features.items()
    }


# -- duplicate ids: the last occurrence wins ---------------------------------


class TestDuplicateIds:
    @pytest.mark.parametrize("prefilled", [False, True])
    def test_memory_upsert_many(self, prefilled):
        store = MemoryCatalog()
        if prefilled:
            store.upsert_many(make_feature(i) for i in "abc")
        assert store.upsert_many(duplicate_batch()) == 5
        assert titles({f.dataset_id: f for f in store.features()}) == (
            LAST_WINS
        )

    @pytest.mark.parametrize("prefilled", [False, True])
    def test_sqlite_upsert_many(self, tmp_path, prefilled):
        path = str(tmp_path / "c.db")
        with SqliteCatalog(path) as store:
            if prefilled:
                store.upsert_many(make_feature(i) for i in "abc")
            assert store.upsert_many(duplicate_batch()) == 5
            assert titles(served(store)) == LAST_WINS
            assert served(store) == fresh_read(path)

    @pytest.mark.parametrize("prefilled", [False, True])
    def test_apply_batch_on_both_stores(self, tmp_path, prefilled):
        path = str(tmp_path / "c.db")
        memory = MemoryCatalog()
        with SqliteCatalog(path) as sqlite:
            for store in (memory, sqlite):
                if prefilled:
                    store.upsert_many(make_feature(i) for i in "abcd")
                counts = store.apply_batch(duplicate_batch(), ["b", "d"])
                assert counts == (5, 2 if prefilled else 1)
            expected = dict(LAST_WINS)
            del expected["b"]
            assert titles(served(sqlite)) == expected
            assert served(sqlite) == fresh_read(path)
            assert served(sqlite) == {
                f.dataset_id: f for f in memory.features()
            }

    def test_replace_all_keeps_the_last(self, tmp_path):
        path = str(tmp_path / "c.db")
        with SqliteCatalog(path) as store:
            store.upsert_many(make_feature(i) for i in "xyz")
            assert store.replace_all(duplicate_batch()) == 5
            assert titles(served(store)) == LAST_WINS
            assert served(store) == fresh_read(path)


# -- mirror entries built from the input --------------------------------------


def test_mirror_entry_built_from_the_input(tmp_path):
    """On the fast path the entry is the input feature itself; a
    replacement is built only to store a zero statistic as a read
    returns it (only that variable is new) or to sort the attributes as
    a read decodes them.  Off it (an int coordinate) the bound row is
    decoded.  All equal a fresh connection's read, type for type."""
    path = str(tmp_path / "c.db")
    nonzero = [replace(v, minimum=1.0) for v in make_feature("x").variables]
    shared = replace(make_feature("shared"), variables=nonzero)
    zero = replace(
        make_feature("zero"),
        variables=[replace(nonzero[0], mean=-0.0), nonzero[1]],
    )
    unsorted = replace(
        make_feature("unsorted"),
        attributes={"b": "1", "a": "2"},
        variables=nonzero,
    )
    slow = replace(make_feature("slow"), bbox=BoundingBox(46, -124, 47, -123))
    with SqliteCatalog(path) as store:
        store.upsert_many([shared, zero, unsorted, slow])
        mirrored = served(store)
        disk = fresh_read(path)
    assert mirrored["shared"] is shared
    entry = mirrored["zero"]
    assert entry.bbox is zero.bbox and entry.interval is zero.interval
    assert entry.variables[0] is not zero.variables[0]
    assert entry.variables[1] is zero.variables[1]
    assert str(entry.variables[0].mean) == "0.0"
    assert list(mirrored["unsorted"].attributes) == ["a", "b"]
    assert mirrored["unsorted"].variables == unsorted.variables
    assert type(mirrored["slow"].bbox.min_lat) is float
    assert mirrored == disk
    assert list(disk["unsorted"].attributes) == ["a", "b"]
    for dataset_id in mirrored:
        for mine, read in zip(
            mirrored[dataset_id].variables, disk[dataset_id].variables
        ):
            assert [type(getattr(mine, f)) for f in mine.__slots__] == [
                type(getattr(read, f)) for f in read.__slots__
            ]


# -- a store that only looks empty -------------------------------------------


def test_store_opened_empty_then_filled_elsewhere(tmp_path):
    """The mirror of a store opened on an empty file says "empty"; after
    another connection fills the file, a write of the same ids must
    still replace the rows rather than collide with them."""
    path = str(tmp_path / "c.db")
    store = SqliteCatalog(path)
    with SqliteCatalog(path) as other:
        other.upsert_many(make_feature(i, "foreign") for i in "abc")
    store.upsert_many(make_feature(i, "own") for i in "abc")
    assert {f.title for f in store.features()} == {"own"}
    assert served(store) == fresh_read(path)
    assert len(store) == 3
    store.close()


# -- statements per batch ----------------------------------------------------


class CountingConnection:
    """Delegates to a ``sqlite3.Connection``, recording the SQL of every
    ``execute``/``executemany`` call."""

    def __init__(self, conn: sqlite3.Connection) -> None:
        self._conn = conn
        self.statements: list[str] = []

    def execute(self, sql, *args):
        self.statements.append(sql)
        return self._conn.execute(sql, *args)

    def executemany(self, sql, rows):
        self.statements.append(sql)
        return self._conn.executemany(sql, rows)

    def __enter__(self):
        return self._conn.__enter__()

    def __exit__(self, *exc_info):
        return self._conn.__exit__(*exc_info)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def counted(store: SqliteCatalog, write) -> list[str]:
    """The statements ``write(store)`` issues."""
    proxy = CountingConnection(store._conn)
    store._conn = proxy
    try:
        write(store)
    finally:
        store._conn = proxy._conn
    return proxy.statements


def deletes(statements: list[str]) -> list[str]:
    return [sql for sql in statements if sql.lstrip().startswith("DELETE")]


def batch(size: int, prefix: str = "d") -> list[DatasetFeature]:
    return [make_feature(f"{prefix}{i:04d}", n_vars=3) for i in range(size)]


class TestStatementCount:
    @pytest.mark.parametrize("backing", ["memory", "file"])
    def test_upsert_many_into_a_fresh_store(self, tmp_path, backing):
        issued = {}
        for size in (10, 1000):
            path = (
                ":memory:" if backing == "memory"
                else str(tmp_path / f"fresh{size}.db")
            )
            with SqliteCatalog(path) as store:
                issued[size] = counted(
                    store, lambda s: s.upsert_many(batch(size))
                )
                assert len(store) == size
        assert issued[10] == issued[1000]
        assert deletes(issued[10]) == []

    @pytest.mark.parametrize("backing", ["memory", "file"])
    def test_upsert_many_into_a_full_store(self, tmp_path, backing):
        issued = {}
        for size in (10, 1000):
            path = (
                ":memory:" if backing == "memory"
                else str(tmp_path / f"full{size}.db")
            )
            with SqliteCatalog(path) as store:
                store.upsert_many(batch(size))
                issued[size] = counted(
                    store, lambda s: s.upsert_many(batch(size))
                )
                assert len(store) == size
        assert issued[10] == issued[1000]
        assert len(deletes(issued[10])) == 1

    def test_apply_batch_removals(self):
        issued = {}
        for removals in (1, 100):
            with SqliteCatalog() as store:
                store.upsert_many(batch(200))
                gone = [f"d{i:04d}" for i in range(removals)]
                issued[removals] = counted(
                    store,
                    lambda s: s.apply_batch(batch(5, prefix="n"), gone),
                )
                assert len(store) == 205 - removals
        assert issued[1] == issued[100]

    def test_remove_many(self):
        issued = {}
        for removals in (1, 100):
            with SqliteCatalog() as store:
                store.upsert_many(batch(200))
                gone = [f"d{i:04d}" for i in range(removals)]
                issued[removals] = counted(
                    store, lambda s: s.remove_many(gone)
                )
                assert len(store) == 200 - removals
        assert issued[1] == issued[100]

    def test_replace_all(self):
        issued = {}
        for size in (10, 1000):
            with SqliteCatalog() as store:
                store.upsert_many(batch(50, prefix="old"))
                issued[size] = counted(
                    store, lambda s: s.replace_all(batch(size))
                )
                assert len(store) == size
        assert issued[10] == issued[1000]


# -- catalog files with the old range indexes ---------------------------------

_OLD_RANGE_INDEXES = """
CREATE INDEX IF NOT EXISTS idx_datasets_bbox
    ON datasets(min_lat, max_lat, min_lon, max_lon);
CREATE INDEX IF NOT EXISTS idx_datasets_time
    ON datasets(time_start, time_end);
CREATE INDEX IF NOT EXISTS idx_variables_name ON variables(name);
"""


def indexes(path: str) -> set[str]:
    conn = sqlite3.connect(path)
    try:
        return {
            name for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index' "
                "AND name NOT LIKE 'sqlite_autoindex_%'"
            )
        }
    finally:
        conn.close()


def test_old_range_indexes_are_dropped_on_open(tmp_path):
    path = str(tmp_path / "old.db")
    SqliteCatalog(path).close()
    conn = sqlite3.connect(path)
    conn.executescript(_OLD_RANGE_INDEXES)
    conn.close()
    with SqliteCatalog(path) as store:
        store.upsert_many(batch(20))
        written = {f.dataset_id: f for f in store.features()}
    conn = sqlite3.connect(path)
    conn.executescript(_OLD_RANGE_INDEXES)  # as an older build leaves it
    conn.close()
    assert {
        "idx_datasets_bbox", "idx_datasets_time", "idx_variables_name"
    } <= indexes(path)

    with SqliteCatalog(path) as reopened:
        assert indexes(path) == set()
        assert {f.dataset_id: f for f in reopened.features()} == written
        assert served(reopened) == written
