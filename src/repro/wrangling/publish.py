"""Publish component.

"Publish" — the final box: the working catalog, now wrangled, replaces
the published metadata catalog that search runs against.  The
two-catalog design means every destructive transformation so far has
only ever touched the working copy.

Publication writes only what changed.  Catalog records are immutable
values, so the diff reads one :meth:`~repro.catalog.store.CatalogStore
.snapshot` of the published store (the SQLite store's mirror when it is
valid, one consistent read otherwise) and compares each working record
with the published one: a record that ``is`` or ``==`` its published
counterpart is unchanged (records are built in stored form, so a NaN
statistic is always :data:`math.nan`, which record equality matches
by identity).  An
unchanged re-wrangle therefore issues *zero* store writes.  Changed
*and* vanished datasets go through one
``CatalogStore.apply_batch``: a single transaction and ONE version bump
per publish, so the query-serving cache built on catalog versions
invalidates once per publish (not once per dataset) and a concurrent
catalog snapshot sees the whole publish or none of it.

Publishing is also fault-tolerant: the published-side read and the
write retry on transient SQLite busy/locked conditions under a bounded
:class:`~repro.core.retry.RetryPolicy`; a fault that outlives the
budget defers the publish — ``published_delta`` is left unset, and the
next wrangle reads the store again and converges — instead of aborting
the chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import classify_exception, is_transient
from ..core.retry import RetryPolicy, retry_call
from ..obs import get_telemetry
from .component import Component, ComponentReport
from .state import PublishDelta, WranglingState


@dataclass(slots=True)
class Publish(Component):
    """The figure's final box."""

    #: Bounded retry for transient (busy/locked) store reads and writes.
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    name = "publish"

    def _retried(self, fn, report: ComponentReport, key: str):
        """One retried store call; absorbed faults count as retries."""

        def count_retry(attempt, exc, pause):
            report.retries += 1

        return retry_call(
            fn, self.retry, key=key, on_retry=count_retry
        )

    def _defer(
        self, state: WranglingState, report: ComponentReport, exc: Exception
    ) -> None:
        """Give up on this publish; the next run reads the store again.

        The delta is left unset, so the serving layer's refresh falls
        back to a full snapshot.
        """
        report.add_error(
            classify_exception(exc, attempts=self.retry.attempts)
        )
        report.add(
            "publish deferred: catalog store busy; retried on the next run"
        )
        telemetry = get_telemetry()
        telemetry.count("publish.deferred")
        telemetry.event("publish.deferred", error=type(exc).__name__)
        state.published_delta = None

    def run(self, state: WranglingState, report: ComponentReport) -> None:
        telemetry = get_telemetry()
        state.published_delta = None
        if len(state.working) == 0:
            report.add("refusing to publish an empty working catalog")
            return
        report.items_seen = len(state.working)
        try:
            snap = self._retried(
                state.published.snapshot, report, "publish:read"
            )
        except Exception as exc:
            if not is_transient(exc):
                raise
            self._defer(state, report, exc)
            return

        with telemetry.span("publish.diff"):
            published = {f.dataset_id: f for f in snap.features()}
            changed = []
            for feature in state.working.features():
                old = published.pop(feature.dataset_id, None)
                if old is feature or old == feature:
                    report.items_skipped += 1
                else:
                    changed.append(feature)
            # What is left was published but is no longer in the working
            # catalog.
            vanished = sorted(published)

        delta = PublishDelta()
        if changed or vanished:
            # One apply_batch: upserts and removals land in a single
            # transaction under a single version bump, so a concurrent
            # snapshot (the serving layer's) sees the whole publish or
            # none of it — never the upserted-but-not-yet-removed
            # middle.  A list, so a retried write replays the same batch.
            try:
                with telemetry.span(
                    "publish.apply",
                    upserts=len(changed),
                    removals=len(vanished),
                ):
                    self._retried(
                        lambda: state.published.apply_batch(
                            changed, vanished
                        ),
                        report,
                        "publish:apply",
                    )
            except Exception as exc:
                if not is_transient(exc):
                    raise
                self._defer(state, report, exc)
                return
            delta.upserted.extend(f.dataset_id for f in changed)
            delta.removed.extend(vanished)
            # Version-stamp the delta so consumers can prove it is the
            # only change between two store versions (the COW snapshot
            # path checks spans()).  The diff read ``snap.version`` and
            # one batch is one bump; anything else (a foreign write
            # between the read and the write) leaves the delta unstamped
            # and consumers fall back to a full snapshot.
            after_version = state.published.version
            if after_version == snap.version + 1:
                delta.base_version = snap.version
                delta.published_version = after_version
            report.changes += len(changed) + len(vanished)
            for dataset_id in vanished:
                report.add(f"withdrew vanished dataset {dataset_id}")

        state.published_delta = delta
        telemetry.count("publish.upserted", len(changed))
        telemetry.count("publish.removed", len(vanished))
        telemetry.count("publish.unchanged", report.items_skipped)
        telemetry.gauge("catalog.size", len(state.published))
        report.add(
            f"published {report.changes} changed datasets, "
            f"{report.items_skipped} unchanged"
        )
