"""The ingest fast path: parallel scan exactness, digest-cached publish.

Three contracts guard the scan→publish half of the system:

* a parallel scan must produce a catalog *identical* to the serial one
  (workers only compute; writes happen in deterministic path order),
* an unchanged re-wrangle must compute zero feature digests and issue
  zero store writes (version-stamped digest cache),
* a publish batch must bump the catalog version once, so the PR-1
  query cache invalidates exactly once per publish.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.wrangling.publish as publish_mod
from repro.archive.filesystem import VirtualArchive
from repro.catalog import MemoryCatalog, SqliteCatalog
from repro.catalog.io import feature_to_dict
from repro.wrangling.chain import ProcessChain
from repro.wrangling.publish import Publish
from repro.wrangling.scan import ScanArchive
from repro.wrangling.state import WranglingState


def make_csv(title: str, rows: int = 3, seed: int = 0) -> str:
    rng = random.Random(seed)
    lines = [
        f"# title: {title}",
        "# platform: station",
        "time [s],latitude [degrees],longitude [degrees],"
        "salinity [psu],water_temperature [degC]",
    ]
    for i in range(rows):
        lines.append(
            f"{1000.0 + i * 60.0},{45.0 + rng.random()},"
            f"{-124.0 + rng.random()},{30.0 + rng.random()},"
            f"{8.0 + rng.random()}"
        )
    return "\n".join(lines) + "\n"


def archive_of(n: int, broken: int = 0) -> VirtualArchive:
    fs = VirtualArchive()
    for i in range(n):
        fs.put(f"dir{i % 3}/ds_{i:03d}.csv", make_csv(f"DS {i}", seed=i))
    for i in range(broken):
        fs.put(f"dir0/broken_{i}.csv", "not,a,valid\nheader at all\n")
    return fs


def observable(store) -> dict:
    return {f.dataset_id: feature_to_dict(f) for f in store.features()}


def scan_publish_chain(workers=None, min_parallel_files=1) -> ProcessChain:
    return ProcessChain(
        components=[
            ScanArchive(workers=workers, min_parallel_files=min_parallel_files),
            Publish(),
        ]
    )


class TestParallelScanExactness:
    @given(
        n=st.integers(min_value=0, max_value=12),
        broken=st.integers(min_value=0, max_value=3),
        workers=st.sampled_from([2, 3, 4]),
    )
    @settings(max_examples=8, deadline=None)
    def test_parallel_catalog_identical_to_serial(self, n, broken, workers):
        fs = archive_of(n, broken=broken)
        serial = WranglingState(fs=fs)
        scan_publish_chain(workers=1).run(serial)
        parallel = WranglingState(fs=fs)
        scan_publish_chain(workers=workers).run(parallel)
        assert observable(parallel.working) == observable(serial.working)
        assert observable(parallel.published) == observable(
            serial.published
        )

    def test_parallel_reports_match_serial(self):
        fs = archive_of(8, broken=2)
        serial = WranglingState(fs=fs)
        serial_report = scan_publish_chain(workers=1).run(serial)
        parallel = WranglingState(fs=fs)
        parallel_report = scan_publish_chain(workers=3).run(parallel)
        for name in ("scan-archive", "publish"):
            a = serial_report.report_for(name)
            b = parallel_report.report_for(name)
            assert (a.changes, a.items_seen, a.items_skipped) == (
                b.changes, b.items_seen, b.items_skipped
            )
            assert a.messages == b.messages

    def test_worker_resolution(self):
        scan = ScanArchive(workers=None)
        assert scan._resolved_workers(100) >= 1
        assert ScanArchive(workers=6)._resolved_workers(3) == 3
        assert ScanArchive(workers=0)._resolved_workers(5) == 1


def run_counting_digests(chain, state):
    calls = {"n": 0}
    original = publish_mod.feature_digest

    def counting(feature):
        calls["n"] += 1
        return original(feature)

    publish_mod.feature_digest = counting
    try:
        report = chain.run(state)
    finally:
        publish_mod.feature_digest = original
    return report, calls["n"]


@pytest.fixture(params=["memory", "sqlite"])
def published_store(request):
    if request.param == "memory":
        yield MemoryCatalog()
    else:
        with SqliteCatalog() as catalog:
            yield catalog


class TestDigestCachedPublish:
    def test_unchanged_rewrangle_digests_nothing(self, published_store):
        fs = archive_of(6)
        state = WranglingState(fs=fs, published=published_store)
        chain = scan_publish_chain(workers=1)
        __, cold_digests = run_counting_digests(chain, state)
        assert cold_digests == 6
        working_v = state.working.version
        published_v = state.published.version
        report, digests = run_counting_digests(chain, state)
        assert digests == 0
        assert state.working.version == working_v
        assert state.published.version == published_v
        assert report.report_for("publish").changes == 0
        assert report.report_for("publish").items_skipped == 6

    def test_small_edit_republishes_only_the_edit(self, published_store):
        fs = archive_of(6)
        state = WranglingState(fs=fs, published=published_store)
        chain = scan_publish_chain(workers=1)
        chain.run(state)
        published_v = state.published.version
        fs.put("dir1/ds_001.csv", make_csv("DS 1 edited", seed=99))
        chain.run(state)
        assert state.published_delta is not None
        assert state.published_delta.upserted == ["dir1/ds_001.csv"]
        assert state.published_delta.removed == []
        # one upsert_many batch -> exactly one version bump
        assert state.published.version == published_v + 1
        assert (
            state.published.get("dir1/ds_001.csv").title == "DS 1 edited"
        )

    def test_vanished_file_withdrawn_in_one_batch(self, published_store):
        fs = archive_of(6)
        state = WranglingState(fs=fs, published=published_store)
        chain = scan_publish_chain(workers=1)
        chain.run(state)
        published_v = state.published.version
        fs.remove("dir2/ds_002.csv")
        fs.remove("dir2/ds_005.csv")
        chain.run(state)
        assert state.published_delta.removed == [
            "dir2/ds_002.csv", "dir2/ds_005.csv"
        ]
        assert state.published.version == published_v + 1
        assert "dir2/ds_002.csv" not in state.published.dataset_ids()

    def test_external_mutation_invalidates_cache(self, published_store):
        """A version mismatch must force a published-side re-digest."""
        fs = archive_of(3)
        state = WranglingState(fs=fs, published=published_store)
        chain = scan_publish_chain(workers=1)
        chain.run(state)
        # Mutate the published store behind the publish step's back.
        tampered = state.published.get("dir0/ds_000.csv")
        state.published.upsert(replace(tampered, title="tampered"))
        __, digests = run_counting_digests(chain, state)
        assert digests > 0
        assert state.published.get("dir0/ds_000.csv").title == "DS 0"

    def test_full_copy_invalidates_cache(self):
        fs = archive_of(3)
        state = WranglingState(fs=fs)
        chain = ProcessChain(
            components=[ScanArchive(workers=1), Publish(incremental=False)]
        )
        chain.run(state)
        assert state.published_delta.full_copy
        assert state.digest_cache.working_version == -1
        assert len(state.published) == 3


class TestSqlitePragmas:
    def test_file_backed_uses_wal(self, tmp_path):
        with SqliteCatalog(str(tmp_path / "cat.db")) as catalog:
            (mode,) = catalog._conn.execute(
                "PRAGMA journal_mode"
            ).fetchone()
            (sync,) = catalog._conn.execute(
                "PRAGMA synchronous"
            ).fetchone()
            assert mode == "wal"
            assert sync == 1  # NORMAL

    def test_memory_keeps_default_journal(self):
        with SqliteCatalog() as catalog:
            (mode,) = catalog._conn.execute(
                "PRAGMA journal_mode"
            ).fetchone()
            assert mode != "wal"


class TestContentHashMemoized:
    def test_hash_computed_once_per_record(self):
        fs = VirtualArchive()
        record = fs.put("a.csv", "content")
        first = record.content_hash()
        assert record.content_hash() is first
        # put() replaces the record, so a rewrite gets a fresh hash.
        rewritten = fs.put("a.csv", "different")
        assert rewritten.content_hash() != first

    def test_hash_not_part_of_equality(self):
        a = VirtualArchive().put("x.csv", "same")
        b = VirtualArchive().put("x.csv", "same")
        a.content_hash()
        assert a == b
