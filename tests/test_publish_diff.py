"""Publish writes what changed, found by comparing immutable records.

* **Exactness gate** (Hypothesis): after any sequence of archive edits
  — adds, removes, rewritten files, curator renames, all-dropout
  columns, ``-0.0`` statistics, unsorted attributes — the published
  store holds the same records as a cold publish of the final working
  catalog, on a memory store, an in-memory SQLite store and a SQLite
  file reopened before every run (its mirror cold).  An unchanged rerun
  then writes nothing and moves neither store version.
* **All-dropout columns in SQLite**: a column with no finite sample has
  NaN statistics, stored as NULL and read back as NaN; files written
  while those columns were ``NOT NULL`` are rebuilt on open.
* **Fault-tolerant published-side read**: a busy read is retried, and
  one that outlives the budget defers the publish until the next run.
"""

from __future__ import annotations

import math
import os
import shutil
import sqlite3
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataNearHere
from repro.archive.filesystem import VirtualArchive
from repro.catalog import MemoryCatalog, SqliteCatalog
from repro.catalog.flaky import FlakyCatalogStore
from repro.catalog.io import feature_to_dict
from repro.cli import main
from repro.core.errors import ErrorCode
from repro.core.faults import FaultSchedule
from repro.core.qparser import parse_query
from repro.core.retry import RetryPolicy
from repro.core.search import SearchEngine
from repro.wrangling.publish import Publish
from repro.wrangling.scan import ScanArchive
from repro.wrangling.state import WranglingState

FAST = RetryPolicy(attempts=3, base_delay=0.0)
PATHS = [f"dir{i % 2}/ds_{i}.csv" for i in range(5)]
NAMES = ["salinity", "water_temperature", "turbidity"]


def make_csv(title: str, seed: int, variant: int) -> str:
    """A small station file.  ``variant`` 1 makes the last column an
    all-dropout one, 2 makes it all ``-0.0``, 3 writes its attributes
    out of sorted order."""
    attributes = ["# title: " + title, "# platform: station"]
    if variant == 3:
        attributes = ["# zeta: z", *attributes, "# alpha: a"]
    lines = [
        *attributes,
        "time [s],latitude [degrees],longitude [degrees],"
        "water_temperature [degC],salinity [psu]",
    ]
    for row in range(3):
        last = {1: "NaN", 2: "-0.0"}.get(variant, f"{30 + seed + row}.5")
        lines.append(
            f"{1000 + 60 * row}.0,{45 + seed % 3}.25,-124.5,"
            f"{8 + row}.0,{last}"
        )
    return "\n".join(lines) + "\n"


def same_records(store, expected) -> bool:
    """Equal ids and NaN-aware equal records."""
    return {f.dataset_id: feature_to_dict(f) for f in store.features()} == {
        f.dataset_id: feature_to_dict(f) for f in expected.features()
    }


class Backend:
    """A published store that a run may reopen (``file``: mirror cold)."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.tmp = None
        if kind == "file":
            self.tmp = tempfile.mkdtemp(prefix="publish-")
        self.store = self.fresh("published")

    def fresh(self, name: str):
        if self.kind == "memory":
            return MemoryCatalog()
        if self.kind == "sqlite":
            return SqliteCatalog()
        return SqliteCatalog(os.path.join(self.tmp, f"{name}.db"))

    def reopened(self):
        if self.kind == "file":
            self.store.close()
            self.store = self.fresh("published")
        return self.store

    def close(self) -> None:
        if self.kind != "memory":
            self.store.close()
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)


edits = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.sampled_from(PATHS),
            st.integers(0, 5),
            st.integers(0, 3),
        ),
        st.tuples(st.just("remove"), st.sampled_from(PATHS)),
        st.tuples(
            st.just("rename"), st.sampled_from(NAMES), st.sampled_from(NAMES)
        ),
        st.tuples(st.just("negative-zero"), st.sampled_from(PATHS)),
        st.tuples(st.just("fresh-nan"), st.sampled_from(PATHS)),
    ),
    min_size=1,
    max_size=8,
)


def apply_edit(state: WranglingState, edit: tuple) -> None:
    kind, *args = edit
    if kind == "put":
        path, seed, variant = args
        state.fs.put(path, make_csv(f"DS {path} {seed}", seed, variant))
    elif kind == "remove":
        if state.fs.exists(args[0]):
            state.fs.remove(args[0])
    elif kind == "rename":
        state.working.rename_variables({args[0]: args[1]}, "curator")
    elif state.working.contains(args[0]):
        # A curator's fix that leaves -0.0, or a NaN object of its own
        # (not ``math.nan``), in the working record.
        feature = state.working.get(args[0])
        first, *rest = feature.variables
        if kind == "negative-zero":
            first = replace(first, minimum=-0.0, mean=-0.0)
        else:
            first = replace(first, count=0, mean=float("nan"))
        state.working.upsert(replace(feature, variables=[first, *rest]))


@pytest.mark.parametrize("kind", ["memory", "sqlite", "file"])
@given(steps=edits)
@settings(max_examples=25, deadline=None)
def test_incremental_publish_equals_cold_publish(kind, steps):
    backend = Backend(kind)
    try:
        fs = VirtualArchive()
        fs.put(PATHS[0], make_csv("seed", 0, 0))
        state = WranglingState(fs=fs, published=backend.store)
        scan = ScanArchive(workers=1)
        publish = Publish(retry=FAST)
        for edit in [("scan",), *steps]:
            if edit[0] != "scan":
                apply_edit(state, edit)
            scan.execute(state)
            state.published = backend.reopened()
            before = state.published.version
            report = publish.execute(state)
            after = state.published.version
            assert after == before + (report.changes > 0)
            if report.changes:
                assert state.published_delta.spans(before, after)

        cold = backend.fresh("cold")
        try:
            cold.upsert_many(state.working.features())
            # An empty working catalog is never published.
            if len(state.working):
                assert same_records(state.published, cold)

            scan.execute(state)
            state.published = backend.reopened()
            versions = (state.working.version, state.published.version)
            report = publish.execute(state)
            assert report.changes == 0
            assert versions == (
                state.working.version, state.published.version
            )
        finally:
            if kind != "memory":
                cold.close()
    finally:
        backend.close()


# -- all-dropout columns in SQLite -------------------------------------------


def dropout_archive(root) -> str:
    directory = root / "archive" / "station"
    directory.mkdir(parents=True)
    (directory / "a.csv").write_text(make_csv("Dropout", 1, 1))
    return str(root / "archive")


def assert_dropout(feature) -> None:
    salinity = feature.variable("salinity")
    assert salinity.count == 0
    assert all(
        math.isnan(value)
        for value in (
            salinity.minimum, salinity.maximum, salinity.mean,
            salinity.stddev,
        )
    )


def test_dropout_column_wrangles_into_sqlite(tmp_path):
    fs = VirtualArchive()
    fs.put("station/a.csv", make_csv("Dropout", 1, 1))
    path = str(tmp_path / "catalog.db")
    system = DataNearHere(fs, published=SqliteCatalog(path), workers=1)
    report = system.wrangle()
    assert report.report_for("publish").changes == 1
    assert_dropout(system.state.published.get("station/a.csv"))
    system.state.published.close()
    with SqliteCatalog(path) as reopened:
        assert_dropout(reopened.get("station/a.csv"))
        assert_dropout(reopened.snapshot().get("station/a.csv"))


def test_dropout_rewrangle_through_the_cli_writes_nothing(tmp_path, capsys):
    archive = dropout_archive(tmp_path)
    path = str(tmp_path / "catalog.db")
    assert main(["wrangle", archive, "--catalog", path]) == 0
    with SqliteCatalog(path) as store:
        version = store.version
        assert_dropout(store.get("station/a.csv"))
    assert main(["wrangle", archive, "--catalog", path]) == 0
    with SqliteCatalog(path) as store:
        assert store.version == version
    capsys.readouterr()
    assert main(["search", path, "with salinity", "--limit", "3"]) == 0
    assert "Dropout" in capsys.readouterr().out


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ["memory", "sqlite", "file"])
def test_dropout_rescan_publishes_nothing(kind, workers):
    """NaN statistics are ``math.nan`` in every record, also in records
    that come back from the scan's worker processes, so a fresh scan of
    an unchanged dropout archive equals what was published."""
    backend = Backend(kind)
    try:
        fs = VirtualArchive()
        for i in range(4):
            fs.put(f"station/ds_{i}.csv", make_csv(f"Dropout {i}", i, 1))
        for __ in range(2):
            # A fresh working catalog: every file is parsed again.
            state = WranglingState(fs=fs, published=backend.reopened())
            ScanArchive(workers=workers, min_parallel_files=1).execute(state)
            before = state.published.version
            report = Publish(retry=FAST).execute(state)
        assert report.changes == 0
        assert state.published.version == before
        assert_dropout(state.published.get("station/ds_0.csv"))
    finally:
        backend.close()


def test_search_over_a_dropout_catalog(tmp_path):
    fs = VirtualArchive()
    fs.put("station/a.csv", make_csv("Dropout", 1, 1))
    fs.put("station/b.csv", make_csv("Measured", 2, 0))
    path = str(tmp_path / "catalog.db")
    system = DataNearHere(fs, published=SqliteCatalog(path), workers=1)
    system.wrangle()
    system.state.published.close()
    with SqliteCatalog(path) as store:
        results = SearchEngine(store, cache=False).search(
            parse_query("with salinity between 30 and 40"), limit=5
        )
    assert [r.dataset_id for r in results][0] == "station/b.csv"
    assert all(math.isfinite(r.score) for r in results)


#: The variables table as builds with NOT NULL statistics created it.
_NOT_NULL_SCHEMA = """
CREATE TABLE datasets (
    dataset_id TEXT PRIMARY KEY, title TEXT NOT NULL,
    platform TEXT NOT NULL, file_format TEXT NOT NULL,
    min_lat REAL NOT NULL, min_lon REAL NOT NULL,
    max_lat REAL NOT NULL, max_lon REAL NOT NULL,
    time_start REAL NOT NULL, time_end REAL NOT NULL,
    row_count INTEGER NOT NULL, source_dir TEXT NOT NULL,
    attributes TEXT NOT NULL, content_hash TEXT NOT NULL
);
CREATE TABLE variables (
    dataset_id TEXT NOT NULL REFERENCES datasets(dataset_id)
               ON DELETE CASCADE,
    position INTEGER NOT NULL, written_name TEXT NOT NULL,
    written_unit TEXT NOT NULL, name TEXT NOT NULL, unit TEXT NOT NULL,
    count INTEGER NOT NULL, minimum REAL NOT NULL, maximum REAL NOT NULL,
    mean REAL NOT NULL, stddev REAL NOT NULL,
    excluded INTEGER NOT NULL DEFAULT 0,
    ambiguous INTEGER NOT NULL DEFAULT 0,
    context TEXT NOT NULL DEFAULT '', resolution TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (dataset_id, position)
);
CREATE TABLE catalog_meta (key TEXT PRIMARY KEY, value INTEGER NOT NULL);
INSERT INTO catalog_meta VALUES ('version', 1);
"""


def scanned(*contents: str):
    fs = VirtualArchive()
    for i, content in enumerate(contents):
        fs.put(f"station/{i}.csv", content)
    state = WranglingState(fs=fs)
    ScanArchive(workers=1).execute(state)
    return list(state.working.features())


def not_null_statistics(path: str) -> list[int]:
    conn = sqlite3.connect(path)
    try:
        return [
            notnull
            for __, name, __, notnull, *__ in conn.execute(
                "PRAGMA table_info(variables)"
            )
            if name in ("minimum", "maximum", "mean", "stddev")
        ]
    finally:
        conn.close()


def test_not_null_file_is_rebuilt_and_accepts_dropouts(tmp_path):
    measured, dropout = scanned(
        make_csv("Measured", 2, 0), make_csv("Dropout", 1, 1)
    )
    path = str(tmp_path / "old.db")
    conn = sqlite3.connect(path)
    conn.executescript(_NOT_NULL_SCHEMA)
    with conn:
        conn.execute(
            "INSERT INTO datasets VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
            SqliteCatalog._dataset_row(measured),
        )
        conn.executemany(
            "INSERT INTO variables VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
            SqliteCatalog._variable_rows(measured),
        )
    conn.close()
    assert not_null_statistics(path) == [1, 1, 1, 1]

    with SqliteCatalog(path) as store:
        assert not_null_statistics(path) == [0, 0, 0, 0]
        assert store.version == 1
        assert store.get(measured.dataset_id) == measured
        store.upsert(dropout)
        assert store.version == 2
    with SqliteCatalog(path) as store:
        assert store.get(measured.dataset_id) == measured
        assert_dropout(store.get(dropout.dataset_id))
        assert same_records(store.snapshot(), store)
        # A rebuilt table keeps its key and its cascade.
        with pytest.raises(sqlite3.IntegrityError):
            with store._conn:
                store._conn.execute(
                    "INSERT INTO variables (dataset_id, position,"
                    " written_name, written_unit, name, unit, count)"
                    " VALUES (?, 0, '', '', '', '', 0)",
                    (dropout.dataset_id,),
                )
        store.remove(dropout.dataset_id)
        (orphans,) = store._conn.execute(
            "SELECT COUNT(*) FROM variables WHERE dataset_id = ?",
            (dropout.dataset_id,),
        ).fetchone()
        assert orphans == 0


# -- the published-side read under faults ------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_faulted_published_read_completes_or_defers(seed):
    fs = VirtualArchive()
    for path in PATHS[:3]:
        fs.put(path, make_csv(path, 1, 0))
    published = FlakyCatalogStore(
        MemoryCatalog(),
        FaultSchedule(
            seed=seed, rate=0.6, max_consecutive=4,
            ops=frozenset({"read"}),
        ),
        fail_reads=True,
    )
    state = WranglingState(fs=fs, published=published)
    ScanArchive(workers=1).execute(state)
    publish = Publish(retry=FAST)
    for __ in range(3):
        report = publish.execute(state)
        if report.errors:
            assert [e.code for e in report.errors] == [ErrorCode.STORE_BUSY]
            assert any("publish deferred" in m for m in report.messages)
            assert state.published_delta is None
        else:
            assert same_records(published.inner, state.working)
    published.schedule.rate = 0.0
    report = publish.execute(state)
    assert report.errors == []
    assert same_records(published.inner, state.working)
    assert publish.execute(state).changes == 0


def test_exhausted_published_read_defers_then_converges():
    fs = VirtualArchive()
    fs.put(PATHS[0], make_csv("one", 1, 0))
    published = FlakyCatalogStore(
        MemoryCatalog(),
        FaultSchedule(seed=1, rate=1.0, max_consecutive=10),
        fail_reads=True,
    )
    state = WranglingState(fs=fs, published=published)
    ScanArchive(workers=1).execute(state)
    report = Publish(retry=FAST).execute(state)
    assert len(report.errors_by_code(ErrorCode.STORE_BUSY)) == 1
    assert report.retries == FAST.attempts - 1
    assert state.published_delta is None
    assert len(published.inner) == 0

    published.schedule.rate = 0.0
    report = Publish(retry=FAST).execute(state)
    assert report.errors == []
    assert state.published_delta.upserted == [PATHS[0]]
    assert same_records(published.inner, state.working)


def test_empty_working_catalog_is_never_published():
    published = MemoryCatalog()
    published.upsert(scanned(make_csv("kept", 1, 0))[0])
    state = WranglingState(fs=VirtualArchive(), published=published)
    version = published.version
    report = Publish().execute(state)
    assert "refusing to publish an empty working catalog" in report.messages
    assert published.version == version
    assert len(published) == 1
