"""Scan-archive component.

"Scan archive — configure: directories, file types, naming conventions."
Parses every matching file once, extracts its feature and upserts it into
the working catalog.  Incremental by content hash: a re-run skips files
whose content is unchanged (this is what makes the poster's "running &
re-running process" cheap) and drops catalog entries whose files
disappeared from the scanned directories.

This is the ingest fast path's entry point: parse + feature extraction
fan out over a chunked process pool (``workers``; ``None`` means one per
CPU, ``1`` keeps the exact serial path — parsing is pure python, so
threads would serialize on the GIL), while catalog writes stay ordered
by path and go through ``upsert_many``/``remove_many`` — one batch, one
transaction, one version bump.  Parallel and serial scans produce
identical catalogs by construction: workers only compute, and results
are applied in deterministic path order.  Batches smaller than
``min_parallel_files`` skip the pool entirely — spawning workers costs
more than parsing a handful of files.

The scan is also the pipeline's first line of fault tolerance: it must
*skip and report*, never crash.  Concretely:

* transient archive reads retry under a bounded
  :class:`~repro.core.retry.RetryPolicy` with deterministic backoff;
  a read that outlives the budget quarantines the file,
* any per-file exception inside a worker — parse error, empty dataset,
  extractor bug — comes back as *data* (a ``FormatError`` or a
  :class:`~repro.core.errors.WorkerFailure`) and quarantines the file,
* a dying worker pool (``BrokenProcessPool``) degrades the affected
  chunks to a serial recomputation in the parent — same pure function,
  same results, scan completes,
* catalog writes retry on SQLite busy/locked; on exhaustion the batch
  is deferred (hashes stay unrecorded, so the next wrangle retries it).

Quarantined paths live in ``state.quarantine`` with their typed error;
they are re-attempted on every wrangle and resolve on success or when
the file disappears.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from ..archive.filesystem import ArchiveFile
from ..archive.formats import FormatError, parse_file
from ..catalog.records import DatasetFeature
from ..core.errors import (
    ErrorCode,
    ErrorRecord,
    WorkerFailure,
    classify_exception,
    is_transient,
)
from ..core.features import extract_feature
from ..core.retry import RetryPolicy, retry_call
from ..obs import Telemetry, get_telemetry, use_telemetry
from .component import Component, ComponentReport
from .state import WranglingState

#: A worker's verdict on one file: the extracted feature, a parse error,
#: or any other per-file exception wrapped as data.
ScanOutcome = DatasetFeature | FormatError | WorkerFailure


def _build_feature(record: ArchiveFile, content_hash: str) -> ScanOutcome:
    """Worker unit: parse + extract one file.

    Never raises: errors are data here — they must be reported in path
    order, not raised out of an arbitrary worker (an escaping exception
    would abort the whole pool).  ``FormatError`` keeps its identity
    whether parse *returns* it or *raises* it anywhere in the unit, so
    the parallel path reports exactly what the serial path reports.

    The parse-latency histogram goes to the *active* telemetry — inside
    a pool worker that is the worker's private registry (merged back by
    the parent), serially it is the run's own; either way the totals
    come out identical.
    """
    started = time.monotonic()
    try:
        dataset = parse_file(record.content, record.path)
        feature = extract_feature(dataset, content_hash=content_hash)
    except FormatError as exc:
        return exc
    except Exception as exc:
        return WorkerFailure.from_exception(record.path, exc)
    get_telemetry().observe("scan.file_seconds", time.monotonic() - started)
    return feature


def _build_chunk(
    chunk: list[tuple[ArchiveFile, str]]
) -> list[ScanOutcome]:
    """Process one chunk of pending files, preserving input order.

    The per-outcome counters are summed over the chunk and counted once
    each, as ``ScanArchive.run`` does for ``scan.seen``.
    """
    outcomes = [
        _build_feature(record, content_hash) for record, content_hash in chunk
    ]
    telemetry = get_telemetry()
    if telemetry.enabled:
        errors = sum(isinstance(o, FormatError) for o in outcomes)
        failures = sum(isinstance(o, WorkerFailure) for o in outcomes)
        for name, n in (
            ("scan.parsed", len(outcomes) - errors - failures),
            ("scan.parse_errors", errors),
            ("scan.worker_failures", failures),
        ):
            if n:
                telemetry.count(name, n)
    return outcomes


def _build_chunk_traced(
    chunk: list[tuple[ArchiveFile, str]]
) -> tuple[list[ScanOutcome], dict]:
    """One chunk under a fresh private registry; outcomes + its export.

    The traced unit both pool workers and the telemetry-enabled serial
    path run: because the accounting happens inside the same function
    either way, a parallel scan's merged counter totals equal a serial
    scan's by construction, not by coincidence.
    """
    telemetry = Telemetry()
    with use_telemetry(telemetry):
        with telemetry.span("scan.chunk", files=len(chunk)):
            outcomes = _build_chunk(chunk)
    return outcomes, telemetry.export()


@dataclass(frozen=True, slots=True)
class ScanTarget:
    """One configured directory to scan."""

    directory: str
    pattern: str = "*"
    recursive: bool = True


@dataclass(slots=True)
class ScanArchive(Component):
    """The figure's first box."""

    targets: list[ScanTarget] = field(
        default_factory=lambda: [ScanTarget(directory="")]
    )
    extensions: tuple[str, ...] = ("csv", "cdl")
    remove_missing: bool = True
    #: Parse/extract parallelism: ``None`` -> ``os.cpu_count()``,
    #: ``1`` -> today's serial loop, no pool.
    workers: int | None = None
    #: Below this many changed files the pool is skipped even when
    #: ``workers`` allows one — worker startup would dominate.
    min_parallel_files: int = 32
    #: Bounded retry for transient archive reads and catalog writes.
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    name = "scan-archive"

    def add_target(self, directory: str, pattern: str = "*") -> None:
        """Curator action: 'specifying an additional directory to scan'."""
        self.targets.append(
            ScanTarget(directory=directory, pattern=pattern, recursive=True)
        )

    def _matching_files(self, state: WranglingState) -> list[ArchiveFile]:
        seen: dict[str, ArchiveFile] = {}
        for target in self.targets:
            for record in state.fs.list_directory(
                target.directory, target.pattern, recursive=target.recursive
            ):
                if record.extension in self.extensions:
                    seen[record.path] = record
        return [seen[path] for path in sorted(seen)]

    def _resolved_workers(self, pending: int) -> int:
        if self.workers is None:
            resolved = os.cpu_count() or 1
        else:
            resolved = max(1, int(self.workers))
        return min(resolved, max(1, pending))

    def _build_features(
        self,
        pending: list[tuple[ArchiveFile, str]],
        report: ComponentReport,
    ) -> list[ScanOutcome]:
        """Parse + extract every pending file, preserving input order.

        A broken pool never aborts the scan: chunks whose future dies
        (``BrokenProcessPool`` and friends) are recomputed serially in
        the parent — ``_build_chunk`` is pure, so the degraded result is
        identical to what the worker would have returned.

        With telemetry active, every chunk (pooled, serial, or
        degraded-recomputed) runs the traced unit and its private
        registry is merged back here, in deterministic submission
        order — which is what makes parallel counter totals equal
        serial ones.
        """
        telemetry = get_telemetry()
        traced = telemetry.enabled

        def compute_local(chunk):
            if traced:
                outcomes, export = _build_chunk_traced(chunk)
                telemetry.merge_worker(export)
                return outcomes
            return _build_chunk(chunk)

        workers = self._resolved_workers(len(pending))
        if workers <= 1 or len(pending) < self.min_parallel_files:
            return compute_local(pending)
        # Chunked fan-out: a handful of chunks per worker amortizes IPC
        # per task while keeping the pool busy near the tail.  Futures
        # are collected in submission order, so the catalog batch below
        # is deterministic regardless of worker scheduling.
        chunksize = max(1, math.ceil(len(pending) / (workers * 4)))
        chunks = [
            pending[i : i + chunksize]
            for i in range(0, len(pending), chunksize)
        ]
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except Exception as exc:
            report.add_error(
                ErrorRecord(
                    code=ErrorCode.WORKER_CRASH,
                    message=f"cannot start worker pool ({exc}); "
                    "scanning serially",
                    transient=True,
                )
            )
            return compute_local(pending)
        degraded = 0
        results: list[ScanOutcome] = []
        worker_unit = _build_chunk_traced if traced else _build_chunk
        with pool:
            futures = []
            for chunk in chunks:
                try:
                    futures.append(pool.submit(worker_unit, chunk))
                except Exception:
                    futures.append(None)
            for chunk, future in zip(chunks, futures):
                if future is not None:
                    try:
                        value = future.result()
                    except Exception:
                        value = None
                    if value is not None:
                        if traced:
                            outcomes, export = value
                            telemetry.merge_worker(export)
                            results.extend(outcomes)
                        else:
                            results.extend(value)
                        continue
                degraded += 1
                results.extend(compute_local(chunk))
        if degraded:
            report.add_error(
                ErrorRecord(
                    code=ErrorCode.WORKER_CRASH,
                    message=f"worker pool failed; {degraded} of "
                    f"{len(chunks)} chunks recomputed serially",
                    transient=True,
                )
            )
        return results

    def _quarantine(
        self,
        state: WranglingState,
        report: ComponentReport,
        error: ErrorRecord,
        message: str | None = None,
    ) -> None:
        """Set one file aside with its typed error and keep going.

        Besides the report entry, each quarantine increments the
        ``scan.quarantined`` counter and lands in the trace as a
        ``scan.quarantine`` event span carrying the typed
        ``error_code`` — the contract the fault-injection suite holds
        the scan to.
        """
        state.quarantine.add(error.path or "", error)
        report.add_error(error, message)
        telemetry = get_telemetry()
        telemetry.count("scan.quarantined")
        telemetry.event(
            "scan.quarantine",
            path=error.path or "",
            error_code=error.code.value,
        )

    def run(self, state: WranglingState, report: ComponentReport) -> None:
        telemetry = get_telemetry()

        def count_retry(attempt: int, exc: BaseException, pause: float) -> None:
            report.retries += 1

        try:
            with telemetry.span("scan.list"):
                files = retry_call(
                    lambda: self._matching_files(state),
                    self.retry,
                    key="scan:list",
                    on_retry=count_retry,
                )
        except Exception as exc:
            if not is_transient(exc):
                raise
            # Without a listing there is no safe notion of "present";
            # degrade to a no-op run rather than vanishing the catalog.
            report.add_error(
                classify_exception(exc, attempts=self.retry.attempts)
            )
            report.add("scan skipped: archive listing unavailable")
            telemetry.count("scan.listing_unavailable")
            return
        present = set()
        pending: list[tuple[ArchiveFile, str]] = []
        with telemetry.span("scan.select", files=len(files)):
            for listed in files:
                path = listed.path
                present.add(path)
                report.items_seen += 1
                try:
                    # Re-fetch through the archive so flaky storage
                    # faults at a well-defined, retryable read point;
                    # the archive's own record memoizes the hash across
                    # re-runs.
                    record = retry_call(
                        lambda p=path: state.fs.get(p),
                        self.retry,
                        key=path,
                        on_retry=count_retry,
                    )
                    content_hash = record.content_hash()
                except Exception as exc:
                    self._quarantine(
                        state,
                        report,
                        classify_exception(
                            exc,
                            path=path,
                            attempts=self.retry.attempts
                            if is_transient(exc)
                            else 1,
                        ),
                    )
                    continue
                if state.scanned_hashes.get(path) == content_hash:
                    report.items_skipped += 1
                    continue
                pending.append((record, content_hash))
        with telemetry.span("scan.extract", files=len(pending)):
            outcomes = self._build_features(pending, report)
        upserts: list[tuple[str, str, DatasetFeature]] = []
        for (record, content_hash), outcome in zip(pending, outcomes):
            if isinstance(outcome, FormatError):
                self._quarantine(
                    state,
                    report,
                    ErrorRecord(
                        code=ErrorCode.PARSE,
                        message=str(outcome),
                        path=record.path,
                    ),
                    message=f"parse error: {outcome}",
                )
                continue
            if isinstance(outcome, WorkerFailure):
                self._quarantine(
                    state,
                    report,
                    ErrorRecord(
                        code=ErrorCode.WORKER_ERROR,
                        message=str(outcome),
                        path=outcome.path,
                    ),
                )
                continue
            upserts.append((record.path, content_hash, outcome))
        if upserts:
            # One batch in path order: one transaction, one version bump.
            features = [feature for __, __, feature in upserts]
            try:
                with telemetry.span("scan.upsert", files=len(upserts)):
                    retry_call(
                        lambda: state.working.upsert_many(features),
                        self.retry,
                        key="scan:upsert",
                        on_retry=count_retry,
                    )
            except Exception as exc:
                if not is_transient(exc):
                    raise
                # Hashes stay unrecorded, so the whole batch is retried
                # on the next wrangle.
                report.add_error(
                    classify_exception(exc, attempts=self.retry.attempts)
                )
                report.add(
                    f"catalog write deferred: {len(upserts)} files will "
                    "be rescanned next run"
                )
            else:
                for path, content_hash, __ in upserts:
                    state.scanned_hashes[path] = content_hash
                    state.quarantine.resolve(path)
                report.changes += len(upserts)
        if self.remove_missing:
            # Catalog ids ARE archive paths: extract_feature sets
            # dataset_id = dataset.path = the scanned file's path (the
            # invariant is pinned by tests/test_scan_robustness.py), so
            # comparing ids against `present` paths is exact.
            vanished = [
                dataset_id
                for dataset_id in state.working.dataset_ids()
                if dataset_id not in present
            ]
            if vanished:
                try:
                    with telemetry.span(
                        "scan.remove", files=len(vanished)
                    ):
                        retry_call(
                            lambda: state.working.remove_many(vanished),
                            self.retry,
                            key="scan:remove",
                            on_retry=count_retry,
                        )
                except Exception as exc:
                    if not is_transient(exc):
                        raise
                    report.add_error(
                        classify_exception(exc, attempts=self.retry.attempts)
                    )
                    report.add(
                        f"catalog removal deferred: {len(vanished)} "
                        "vanished datasets remain until the next run"
                    )
                else:
                    for dataset_id in vanished:
                        state.scanned_hashes.pop(dataset_id, None)
                        report.add(f"removed vanished dataset {dataset_id}")
                    report.changes += len(vanished)
        # A quarantined path whose file disappeared can never be
        # repaired in place — close its entry.
        for path in state.quarantine.paths():
            if path not in present:
                state.quarantine.resolve(path)
        # Batch totals at the end (one lock acquisition each, instead of
        # one per file in the listing loop).
        telemetry.count("scan.seen", report.items_seen)
        telemetry.count("scan.skipped", report.items_skipped)
        telemetry.count("scan.changed", len(pending))
        telemetry.count("scan.retries", report.retries)
        report.add(
            f"scanned {report.items_seen} files, "
            f"{report.items_skipped} unchanged"
        )
        if len(state.quarantine):
            report.add(
                f"{len(state.quarantine)} files quarantined "
                "(retried on the next wrangle)"
            )
