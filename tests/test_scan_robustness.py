"""Robustness of the scan/publish pipeline under failure.

Covers the graceful-degradation paths one by one: the dataset-id ==
archive-path invariant that ``remove_missing`` relies on, FormatError
parity between serial and parallel scans, worker exceptions and dying
pools, the quarantine lifecycle, transient-read and store-busy
exhaustion (and the convergence of the next run), and the operator
surface (health report, quarantine report, CLI flag).
"""

from __future__ import annotations

import sqlite3
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.archive import VirtualArchive, parse_file
from repro.archive.flaky import FlakyArchive
from repro.archive.formats import FormatError
from repro.catalog import MemoryCatalog, dump_catalog
from repro.catalog.flaky import FlakyCatalogStore
from repro.cli import main
from repro.core import extract_feature
from repro.core.errors import ErrorCode, ErrorRecord
from repro.core.faults import FaultSchedule
from repro.core.retry import RetryPolicy
from repro.ui import render_health_report, render_quarantine_report
from repro.wrangling import QuarantineLog, WranglingState
from repro.wrangling.publish import Publish
from repro.wrangling.scan import ScanArchive

#: No pauses in tests; the budget (3 tries) is what matters.
FAST = RetryPolicy(attempts=3, base_delay=0.0)


def tiny_csv(station: str = "alpha", value: float = 10.0) -> str:
    return (
        "# platform: station\n"
        f"# title: Station {station}\n"
        "time [s],latitude [degrees],longitude [degrees],"
        "temperature [C]\n"
        f"100.0,46.1,-124.0,{value}\n"
        f"200.0,46.2,-124.1,{value + 1.0}\n"
    )


def make_fs(count: int = 4) -> VirtualArchive:
    fs = VirtualArchive()
    for i in range(count):
        fs.put(f"stations/s{i}.csv", tiny_csv(station=f"s{i}", value=float(i)))
    return fs


def make_scan(**overrides) -> ScanArchive:
    overrides.setdefault("workers", 1)
    overrides.setdefault("retry", FAST)
    return ScanArchive(**overrides)


class _InlinePool:
    """A 'pool' that runs submissions in-process (monkeypatch target).

    Lets tests drive the parallel code path deterministically — chunking,
    future collection, ordering — while staying in one process so
    monkeypatched module globals still apply inside 'workers'.
    """

    def __init__(self, max_workers=None):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # pragma: no cover - stub safety
            future.set_exception(exc)
        return future


class _BrokenPool(_InlinePool):
    """Every future dies the way a crashed worker pool's futures die."""

    def submit(self, fn, *args):
        future = Future()
        future.set_exception(BrokenProcessPool("worker died"))
        return future


# --------------------------------------------------------------------------
# dataset_id == archive path (the remove_missing invariant)
# --------------------------------------------------------------------------


class TestDatasetIdIsArchivePath:
    """``remove_missing`` compares catalog ids against listed *paths*;
    that is only sound because extraction pins id = path.  These tests
    pin the invariant so a future id scheme cannot silently break
    vanished-dataset removal."""

    def test_extract_feature_uses_the_archive_path_as_id(self):
        dataset = parse_file(tiny_csv(), "stations/s0.csv")
        feature = extract_feature(dataset, content_hash="h")
        assert feature.dataset_id == "stations/s0.csv"

    def test_every_scanned_id_is_a_live_archive_path(self):
        fs = make_fs(4)
        state = WranglingState(fs=fs)
        make_scan().execute(state)
        ids = state.working.dataset_ids()
        assert len(ids) == 4
        assert all(fs.exists(dataset_id) for dataset_id in ids)

    def test_remove_missing_drops_exactly_the_vanished_path(self):
        fs = make_fs(3)
        state = WranglingState(fs=fs)
        make_scan().execute(state)
        fs.remove("stations/s1.csv")
        report = make_scan().execute(state)
        assert state.working.dataset_ids() == [
            "stations/s0.csv",
            "stations/s2.csv",
        ]
        assert "stations/s1.csv" not in state.scanned_hashes
        assert any("removed vanished" in m for m in report.messages)

    def test_remove_missing_disabled_keeps_vanished(self):
        fs = make_fs(2)
        state = WranglingState(fs=fs)
        make_scan().execute(state)
        fs.remove("stations/s0.csv")
        make_scan(remove_missing=False).execute(state)
        assert len(state.working.dataset_ids()) == 2


# --------------------------------------------------------------------------
# FormatError parity and per-file worker failures
# --------------------------------------------------------------------------


class TestPerFileFailures:
    def _failing_extract(self, bad_path, exc):
        from repro.wrangling import scan as scan_module

        real = scan_module.extract_feature

        def extract(dataset, content_hash=""):
            if dataset.path == bad_path:
                raise exc
            return real(dataset, content_hash=content_hash)

        return extract

    def test_format_error_raised_in_extract_quarantines_as_parse(
        self, monkeypatch
    ):
        from repro.wrangling import scan as scan_module

        monkeypatch.setattr(
            scan_module,
            "extract_feature",
            self._failing_extract(
                "stations/s1.csv", FormatError("cannot summarize")
            ),
        )
        state = WranglingState(fs=make_fs(3))
        report = make_scan().execute(state)
        assert "stations/s1.csv" in state.quarantine
        entry = state.quarantine.get("stations/s1.csv")
        assert entry.error.code is ErrorCode.PARSE
        assert any("parse error:" in m for m in report.messages)
        assert len(state.working) == 2

    def test_parallel_chunk_reports_exactly_what_serial_reports(
        self, monkeypatch
    ):
        from repro.wrangling import scan as scan_module

        monkeypatch.setattr(
            scan_module,
            "extract_feature",
            self._failing_extract(
                "stations/s2.csv", FormatError("cannot summarize")
            ),
        )
        serial_state = WranglingState(fs=make_fs(4))
        serial = make_scan().execute(serial_state)

        monkeypatch.setattr(scan_module, "ProcessPoolExecutor", _InlinePool)
        parallel_state = WranglingState(fs=make_fs(4))
        parallel = make_scan(workers=4, min_parallel_files=1).execute(
            parallel_state
        )

        assert parallel.errors == serial.errors
        assert parallel.messages == serial.messages
        assert (
            parallel_state.quarantine.paths()
            == serial_state.quarantine.paths()
        )
        assert dump_catalog(parallel_state.working) == dump_catalog(
            serial_state.working
        )

    @pytest.mark.parametrize("workers", [1, 4])
    def test_unknown_platform_quarantines_as_parse_error(self, workers):
        fs = make_fs(3)
        fs.put(
            "stations/s1.csv",
            tiny_csv(station="s1").replace("platform: station", "platform: buoy"),
        )
        state = WranglingState(fs=fs)
        make_scan(workers=workers, min_parallel_files=1).execute(state)
        entry = state.quarantine.get("stations/s1.csv")
        assert entry is not None
        assert entry.error.code is ErrorCode.PARSE
        assert entry.error.message == (
            "stations/s1.csv: unknown platform 'buoy'"
        )
        assert sorted(state.working.dataset_ids()) == [
            "stations/s0.csv",
            "stations/s2.csv",
        ]

    def test_worker_exception_quarantines_as_worker_error(self, monkeypatch):
        from repro.wrangling import scan as scan_module

        monkeypatch.setattr(
            scan_module,
            "extract_feature",
            self._failing_extract(
                "stations/s0.csv", RuntimeError("extractor bug")
            ),
        )
        state = WranglingState(fs=make_fs(3))
        report = make_scan().execute(state)
        entry = state.quarantine.get("stations/s0.csv")
        assert entry is not None
        assert entry.error.code is ErrorCode.WORKER_ERROR
        assert "extractor bug" in entry.error.message
        assert len(state.working) == 2
        assert report.changes == 2


# --------------------------------------------------------------------------
# Dying pools degrade to serial, never abort
# --------------------------------------------------------------------------


class TestBrokenPoolFallback:
    def test_broken_futures_recompute_serially(self, monkeypatch):
        from repro.wrangling import scan as scan_module

        serial_state = WranglingState(fs=make_fs(4))
        make_scan().execute(serial_state)

        monkeypatch.setattr(scan_module, "ProcessPoolExecutor", _BrokenPool)
        state = WranglingState(fs=make_fs(4))
        report = make_scan(workers=4, min_parallel_files=1).execute(state)

        assert dump_catalog(state.working) == dump_catalog(
            serial_state.working
        )
        assert len(state.quarantine) == 0
        crashes = report.errors_by_code(ErrorCode.WORKER_CRASH)
        assert len(crashes) == 1
        assert "recomputed serially" in crashes[0].message

    def test_pool_constructor_failure_scans_serially(self, monkeypatch):
        from repro.wrangling import scan as scan_module

        def refuse(max_workers=None):
            raise OSError("no more processes")

        monkeypatch.setattr(scan_module, "ProcessPoolExecutor", refuse)
        state = WranglingState(fs=make_fs(4))
        report = make_scan(workers=4, min_parallel_files=1).execute(state)
        assert len(state.working) == 4
        crashes = report.errors_by_code(ErrorCode.WORKER_CRASH)
        assert len(crashes) == 1
        assert "scanning serially" in crashes[0].message


# --------------------------------------------------------------------------
# Quarantine lifecycle
# --------------------------------------------------------------------------


class TestQuarantineLifecycle:
    def test_failures_accumulate_until_repair_resolves(self):
        fs = make_fs(2)
        fs.put("stations/bad.csv", "this is not a csv\n")
        state = WranglingState(fs=fs)

        make_scan().execute(state)
        entry = state.quarantine.get("stations/bad.csv")
        assert entry is not None and entry.failures == 1
        assert entry.error.code is ErrorCode.PARSE

        # Quarantined paths are never hash-skipped: the next wrangle
        # retries (and fails) again.
        report = make_scan().execute(state)
        assert state.quarantine.get("stations/bad.csv").failures == 2
        assert report.items_skipped == 2  # only the two good files

        fs.put("stations/bad.csv", tiny_csv(station="bad", value=5.0))
        make_scan().execute(state)
        assert "stations/bad.csv" not in state.quarantine
        assert state.quarantine.resolved_total == 1
        assert "stations/bad.csv" in state.working.dataset_ids()

    def test_vanished_quarantined_file_resolves(self):
        fs = make_fs(1)
        fs.put("stations/bad.csv", "garbage\n")
        state = WranglingState(fs=fs)
        make_scan().execute(state)
        assert "stations/bad.csv" in state.quarantine

        fs.remove("stations/bad.csv")
        make_scan().execute(state)
        assert "stations/bad.csv" not in state.quarantine
        assert state.quarantine.resolved_total == 1

    def test_quarantine_summary_message(self):
        fs = make_fs(1)
        fs.put("stations/bad.csv", "garbage\n")
        state = WranglingState(fs=fs)
        report = make_scan().execute(state)
        assert any("1 files quarantined" in m for m in report.messages)


# --------------------------------------------------------------------------
# Transient archive reads
# --------------------------------------------------------------------------


class TestTransientReads:
    def test_faults_below_budget_are_absorbed(self):
        flaky = FlakyArchive(
            make_fs(3),
            FaultSchedule(
                seed=5, rate=1.0, max_consecutive=2, ops=frozenset({"read"})
            ),
        )
        state = WranglingState(fs=flaky)
        report = make_scan().execute(state)
        assert len(state.quarantine) == 0
        assert len(state.working) == 3
        assert report.errors == []
        assert report.retries == 6  # two absorbed faults per file

    def test_exhausted_budget_quarantines_then_recovers(self):
        flaky = FlakyArchive(
            make_fs(3),
            FaultSchedule(
                seed=5, rate=1.0, max_consecutive=10, ops=frozenset({"read"})
            ),
        )
        state = WranglingState(fs=flaky)
        report = make_scan().execute(state)
        assert len(state.working) == 0
        assert state.quarantine.paths() == [
            "stations/s0.csv",
            "stations/s1.csv",
            "stations/s2.csv",
        ]
        for path in state.quarantine.paths():
            entry = state.quarantine.get(path)
            assert entry.error.code is ErrorCode.TRANSIENT_READ
            assert entry.error.attempts == FAST.attempts
        assert len(report.errors_by_code(ErrorCode.TRANSIENT_READ)) == 3

        flaky.schedule.rate = 0.0
        make_scan().execute(state)
        assert len(state.quarantine) == 0
        assert state.quarantine.resolved_total == 3
        assert len(state.working) == 3

    def test_listing_exhaustion_degrades_to_noop(self):
        fs = make_fs(2)
        state = WranglingState(fs=fs)
        make_scan().execute(state)
        assert len(state.working) == 2

        state.fs = FlakyArchive(
            fs,
            FaultSchedule(
                seed=5, rate=1.0, max_consecutive=10, ops=frozenset({"list"})
            ),
        )
        report = make_scan().execute(state)
        # Without a listing there is no notion of "present": nothing is
        # removed, nothing scanned, the run reports and moves on.
        assert len(state.working) == 2
        assert any("scan skipped" in m for m in report.messages)
        assert len(report.errors_by_code(ErrorCode.TRANSIENT_READ)) == 1


# --------------------------------------------------------------------------
# Store busy: deferral and convergence
# --------------------------------------------------------------------------


class TestStoreBusy:
    def test_scan_defers_batch_and_converges_next_run(self):
        working = FlakyCatalogStore(
            MemoryCatalog(),
            FaultSchedule(seed=1, rate=1.0, max_consecutive=10),
        )
        state = WranglingState(fs=make_fs(3), working=working)
        report = make_scan().execute(state)
        assert len(report.errors_by_code(ErrorCode.STORE_BUSY)) == 1
        assert any("catalog write deferred" in m for m in report.messages)
        assert len(working) == 0
        # Hashes unrecorded: the whole batch is retried next run.
        assert state.scanned_hashes == {}

        working.schedule.rate = 0.0
        report = make_scan().execute(state)
        assert report.errors == []
        assert len(working) == 3
        assert report.changes == 3

    def test_scan_absorbs_busy_below_budget(self):
        working = FlakyCatalogStore(
            MemoryCatalog(),
            FaultSchedule(seed=1, rate=1.0, max_consecutive=2),
        )
        state = WranglingState(fs=make_fs(3), working=working)
        report = make_scan().execute(state)
        assert report.errors == []
        assert len(working) == 3
        assert report.retries == 2

    def test_publish_defers_and_converges_next_run(self):
        state = WranglingState(
            fs=make_fs(3),
            published=FlakyCatalogStore(
                MemoryCatalog(),
                FaultSchedule(seed=1, rate=1.0, max_consecutive=10),
            ),
        )
        make_scan().execute(state)
        publish = Publish(retry=FAST)
        report = publish.execute(state)
        assert len(report.errors_by_code(ErrorCode.STORE_BUSY)) == 1
        assert any("publish deferred" in m for m in report.messages)
        assert state.published_delta is None
        assert len(state.published) == 0

        state.published.schedule.rate = 0.0
        report = publish.execute(state)
        assert report.errors == []
        assert len(state.published) == 3
        assert sorted(state.published_delta.upserted) == sorted(
            state.working.dataset_ids()
        )

    def test_non_transient_store_error_propagates(self):
        class PoisonedCatalog(MemoryCatalog):
            def upsert_many(self, features):
                raise sqlite3.OperationalError("no such table: datasets")

        state = WranglingState(fs=make_fs(2), working=PoisonedCatalog())
        with pytest.raises(sqlite3.OperationalError, match="no such table"):
            make_scan().execute(state)


# --------------------------------------------------------------------------
# Operator surface: reports and CLI
# --------------------------------------------------------------------------


class TestOperatorSurface:
    def test_render_quarantine_report_empty(self):
        text = render_quarantine_report(QuarantineLog())
        assert "Quarantine report" in text
        assert "nothing quarantined" in text

    def test_render_quarantine_report_entries(self):
        log = QuarantineLog()
        error = ErrorRecord(
            code=ErrorCode.PARSE, message="bad header", path="a.csv"
        )
        log.add("a.csv", error)
        log.add("a.csv", error)
        text = render_quarantine_report(log)
        assert "a.csv" in text
        assert "parse-error" in text
        assert "failed 2x" in text
        assert "retried automatically" in text

    def test_health_report_quarantine_line(self):
        log = QuarantineLog()
        log.add(
            "a.csv",
            ErrorRecord(code=ErrorCode.PARSE, message="x", path="a.csv"),
        )
        log.resolved_total = 2
        text = render_health_report(MemoryCatalog(), quarantine=log)
        assert "quarantined files: 1 (2 resolved)" in text

    def test_cli_show_quarantine(self, tmp_path, capsys):
        archive = tmp_path / "archive"
        archive.mkdir()
        (archive / "good.csv").write_text(tiny_csv())
        (archive / "bad.csv").write_text("definitely not a csv\n")
        rc = main(
            [
                "wrangle",
                str(archive),
                "--catalog",
                str(tmp_path / "cat.db"),
                "--show-quarantine",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Quarantine report" in out
        assert "bad.csv" in out
        assert "parse-error" in out

    def test_cli_hint_without_flag(self, tmp_path, capsys):
        archive = tmp_path / "archive"
        archive.mkdir()
        (archive / "good.csv").write_text(tiny_csv())
        (archive / "bad.csv").write_text("definitely not a csv\n")
        rc = main(
            ["wrangle", str(archive), "--catalog", str(tmp_path / "cat.db")]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 files set aside" in out
        assert "--show-quarantine for details" in out

    def test_cli_silent_when_clean(self, tmp_path, capsys):
        archive = tmp_path / "archive"
        archive.mkdir()
        (archive / "good.csv").write_text(tiny_csv())
        rc = main(
            ["wrangle", str(archive), "--catalog", str(tmp_path / "cat.db")]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "quarantine" not in out.lower()
