"""The catalog health report: the curator's dashboard.

One page that answers "how tamed is this archive?": dataset counts by
platform and format, spatial/temporal coverage hulls, name-resolution
progress (how much of the mess is left), exclusion/ambiguity counts and
the validation summary — the numbers a curator watches fall across
run-improve-rerun iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..archive.vocabulary import VOCABULARY
from ..catalog.store import CatalogStore
from ..geo import BoundingBox, TimeInterval
from ..obs import Histogram, walk_span_tree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..wrangling.state import QuarantineLog


@dataclass(frozen=True, slots=True)
class CatalogHealth:
    """The measured state of one catalog."""

    dataset_count: int
    datasets_by_platform: dict[str, int]
    datasets_by_format: dict[str, int]
    spatial_hull: BoundingBox | None
    temporal_hull: TimeInterval | None
    variable_entries: int
    resolved_entries: int
    excluded_entries: int
    ambiguous_entries: int
    unresolved_names: tuple[str, ...]

    @property
    def resolved_fraction(self) -> float:
        """Share of variable entries carrying a canonical name (or
        deliberately excluded)."""
        if self.variable_entries == 0:
            return 1.0
        return self.resolved_entries / self.variable_entries


def measure_health(catalog: CatalogStore) -> CatalogHealth:
    """Compute the health numbers in one pass over the catalog."""
    platforms: dict[str, int] = {}
    formats: dict[str, int] = {}
    hull_box: BoundingBox | None = None
    hull_time: TimeInterval | None = None
    entries = resolved = excluded = ambiguous = 0
    unresolved: set[str] = set()
    for feature in catalog:
        platforms[feature.platform] = platforms.get(feature.platform, 0) + 1
        formats[feature.file_format] = (
            formats.get(feature.file_format, 0) + 1
        )
        hull_box = (
            feature.bbox if hull_box is None else hull_box.union(feature.bbox)
        )
        hull_time = (
            feature.interval
            if hull_time is None
            else hull_time.union_hull(feature.interval)
        )
        for entry in feature.variables:
            entries += 1
            if entry.excluded:
                excluded += 1
                resolved += 1  # deliberately handled
            elif entry.name in VOCABULARY:
                resolved += 1
            else:
                unresolved.add(entry.name)
            if entry.ambiguous:
                ambiguous += 1
    return CatalogHealth(
        dataset_count=len(catalog),
        datasets_by_platform=platforms,
        datasets_by_format=formats,
        spatial_hull=hull_box,
        temporal_hull=hull_time,
        variable_entries=entries,
        resolved_entries=resolved,
        excluded_entries=excluded,
        ambiguous_entries=ambiguous,
        unresolved_names=tuple(sorted(unresolved)),
    )


def render_quarantine_report(quarantine: "QuarantineLog") -> str:
    """The curator-facing quarantine page: what was skipped, and why.

    One line per quarantined path with its typed error code, failure
    count and message — the skip-and-report ledger a curator works
    through between wrangles.
    """
    lines = [
        "Quarantine report",
        "=" * 60,
        f"quarantined files: {len(quarantine)} "
        f"({quarantine.resolved_total} resolved so far)",
    ]
    for path in quarantine.paths():
        entry = quarantine.get(path)
        lines.append(
            f"  {path}\n"
            f"    [{entry.error.code}] failed {entry.failures}x: "
            f"{entry.error.message}"
        )
    if len(quarantine) == 0:
        lines.append("  nothing quarantined — every scanned file cataloged")
    else:
        lines.append(
            "repair the files (or delete them) and re-run the wrangle; "
            "quarantined paths are retried automatically"
        )
    return "\n".join(lines)


def render_span_tree(snapshot: dict) -> str:
    """The ``--timings`` surface: the recorded span tree, one line per
    span path, in execution order.

    A thin view over the telemetry snapshot — the same spans feed
    ``ComponentReport.duration_seconds`` and the JSONL trace, so every
    timing surface shows the same numbers by construction.
    """
    lines = ["Span timings", "=" * 60]
    rows = list(walk_span_tree(snapshot))
    if not rows:
        lines.append("  no spans recorded")
    for path, name, depth, stats in rows:
        label = "  " * depth + name
        errors = (
            f"  [{stats['errors']} errors]" if stats["errors"] else ""
        )
        lines.append(
            f"{label:<40} {stats['count']:>5}x "
            f"{stats['total_seconds']:>9.3f}s{errors}"
        )
    dropped = snapshot.get("dropped_spans", 0)
    if dropped:
        lines.append(f"  ({dropped} spans dropped past the cap)")
    return "\n".join(lines)


def render_telemetry_report(snapshot: dict) -> str:
    """The ``--stats`` page: span tree, counters, latency histograms.

    Everything comes from one :meth:`repro.obs.Telemetry.snapshot`, so
    the report always agrees with the JSONL trace written for the same
    run.
    """
    parts = [render_span_tree(snapshot)]

    counters = snapshot.get("counters", {})
    if counters:
        lines = ["", "Counters", "-" * 60]
        for name, value in counters.items():
            lines.append(f"  {name:<40} {value:>12}")
        absorbed = counters.get("retry.absorbed", 0)
        injected = counters.get("fault.injected", 0)
        if absorbed or injected:
            organic = max(0, absorbed - injected)
            lines.append(
                f"  transients: {absorbed} absorbed "
                f"({injected} injected, {organic} organic)"
            )
        parts.append("\n".join(lines))

    gauges = snapshot.get("gauges", {})
    if gauges:
        lines = ["", "Gauges", "-" * 60]
        for name, value in gauges.items():
            lines.append(f"  {name:<40} {value:>12g}")
        parts.append("\n".join(lines))

    histograms = snapshot.get("histograms", {})
    rows = []
    for name, data in histograms.items():
        hist = Histogram.from_dict(data)
        if hist.count == 0:
            continue
        rows.append(
            f"  {name:<28} {hist.count:>7} "
            f"{hist.mean * 1e3:>9.2f} "
            f"{hist.percentile(0.50) * 1e3:>9.2f} "
            f"{hist.percentile(0.95) * 1e3:>9.2f} {hist.max * 1e3:>9.2f}"
        )
    if rows:
        parts.append(
            "\n".join(
                [
                    "",
                    "Latency histograms (milliseconds)",
                    "-" * 60,
                    f"  {'name':<28} {'count':>7} {'mean':>9} "
                    f"{'p50':>9} {'p95':>9} {'max':>9}",
                ]
                + rows
            )
        )
    return "\n".join(parts)


def render_slo_report(report: dict) -> str:
    """The operator-facing SLO page: per-window verdicts vs targets.

    ``report`` is :meth:`repro.obs.SLOTracker.report` — the same dict
    ``/healthz`` serves, so the terminal page and the endpoint always
    agree.
    """
    config = report.get("config", {})
    lines = [
        "SLO report",
        "=" * 60,
        f"status: {report.get('status', 'ok')}",
        f"targets: p95 <= {config.get('latency_p95_seconds', 0) * 1e3:.0f} ms"
        f", error rate <= {config.get('max_error_rate', 0):.2%}"
        f", availability >= {config.get('min_availability', 0):.2%}",
        "",
        f"  {'window':<8} {'reqs':>6} {'p50 ms':>8} {'p95 ms':>8} "
        f"{'p99 ms':>8} {'err%':>6} {'avail%':>7}  verdict",
        "-" * 60,
    ]
    for label, window in report.get("windows", {}).items():
        verdict = window["status"]
        if window["breached"]:
            verdict += " (" + ", ".join(window["breached"]) + ")"
        lines.append(
            f"  {label:<8} {window['requests']:>6} "
            f"{window['latency_p50'] * 1e3:>8.2f} "
            f"{window['latency_p95'] * 1e3:>8.2f} "
            f"{window['latency_p99'] * 1e3:>8.2f} "
            f"{window['error_rate'] * 100:>6.2f} "
            f"{window['availability'] * 100:>7.2f}  {verdict}"
        )
    return "\n".join(lines)


def render_serve_report(report, stats: dict | None = None) -> str:
    """The ``serve-bench`` surface: one closed-loop load run.

    ``report`` is a :class:`~repro.serve.LoadReport`; ``stats`` the
    service's :meth:`~repro.serve.SearchService.stats` after the run.
    """
    lines = [
        "Serve load report",
        "=" * 60,
        f"  transport            "
        f"{getattr(report, 'transport', 'inproc'):>10}",
        f"  clients              {report.clients:>10}",
        f"  requests per client  {report.requests_per_client:>10}",
        f"  think time           {report.think_seconds * 1e3:>10.1f} ms",
        f"  completed            {report.completed:>10}",
        f"  rejected             {report.rejected:>10}",
        f"  errors               {report.errors:>10}",
        f"  duration             {report.duration_seconds:>10.3f} s",
        f"  throughput           {report.qps:>10.1f} qps",
        "",
        "Latency (milliseconds)",
        "-" * 60,
        f"  mean {report.latency_mean * 1e3:>9.2f}   "
        f"p50 {report.latency_p50 * 1e3:>9.2f}   "
        f"p95 {report.latency_p95 * 1e3:>9.2f}   "
        f"p99 {report.latency_p99 * 1e3:>9.2f}",
        f"  queued p95 {report.queued_p95 * 1e3:>9.2f}",
    ]
    status_counts = getattr(report, "status_counts", None)
    if status_counts:
        statuses = ", ".join(
            f"{status}: {count}"
            for status, count in sorted(status_counts.items())
        )
        lines.append(f"  http statuses        {statuses}")
    by_status = getattr(report, "latency_by_status", None)
    if by_status and len(by_status) > 1:
        # Only worth a line when something other than 200s happened.
        for status, summary in sorted(by_status.items()):
            lines.append(
                f"  latency[{status}]: {summary['count']} reqs, "
                f"mean {summary['mean'] * 1e3:.2f} ms, "
                f"p95 {summary['p95'] * 1e3:.2f} ms"
            )
    versions = ", ".join(str(v) for v in report.snapshot_versions)
    lines += [
        "",
        "Snapshots",
        "-" * 60,
        f"  versions served      {versions or '-'}",
        f"  max staleness        {report.max_staleness:>10}",
        f"  version regressions  "
        f"{getattr(report, 'version_regressions', 0):>10}",
    ]
    if stats is not None:
        cache = stats.get("cache") or {}
        lines += [
            "",
            "Service",
            "-" * 60,
            f"  snapshot v{stats['snapshot_version']} "
            f"(source v{stats['source_version']}, "
            f"staleness {stats['staleness']})",
            f"  concurrency {stats['max_concurrency']} "
            f"+ queue {stats['queue_depth']}",
            f"  cache: {cache.get('hits', 0)} hits / "
            f"{cache.get('misses', 0)} misses "
            f"(hit rate {cache.get('hit_rate', 0.0):.2f})",
        ]
    return "\n".join(lines)


def render_health_report(
    catalog: CatalogStore,
    validation_summary: str | None = None,
    quarantine: "QuarantineLog | None" = None,
) -> str:
    """The curator-facing health page (terminal text)."""
    health = measure_health(catalog)
    lines = [
        "Catalog health report",
        "=" * 60,
        f"datasets: {health.dataset_count}",
    ]
    for platform, count in sorted(health.datasets_by_platform.items()):
        lines.append(f"  {platform:10s} {count:5d}")
    lines.append("formats:")
    for file_format, count in sorted(health.datasets_by_format.items()):
        lines.append(f"  {file_format:10s} {count:5d}")
    if health.spatial_hull is not None:
        b = health.spatial_hull
        lines.append(
            f"spatial coverage: [{b.min_lat:.3f}, {b.min_lon:.3f}] .. "
            f"[{b.max_lat:.3f}, {b.max_lon:.3f}]"
        )
    if health.temporal_hull is not None:
        lines.append(f"temporal coverage: {health.temporal_hull}")
    lines.append(
        f"variables: {health.variable_entries} entries, "
        f"{health.resolved_fraction:.1%} tamed "
        f"({health.excluded_entries} excluded, "
        f"{health.ambiguous_entries} ambiguous)"
    )
    if health.unresolved_names:
        shown = ", ".join(health.unresolved_names[:10])
        more = (
            f" (+{len(health.unresolved_names) - 10} more)"
            if len(health.unresolved_names) > 10
            else ""
        )
        lines.append(f"unresolved names: {shown}{more}")
    else:
        lines.append("unresolved names: none")
    if quarantine is not None:
        lines.append(
            f"quarantined files: {len(quarantine)} "
            f"({quarantine.resolved_total} resolved)"
        )
    if validation_summary is not None:
        lines.append("validation: " + validation_summary.splitlines()[0])
    return "\n".join(lines)
