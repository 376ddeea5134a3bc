"""Simulated SQLite busy/locked fault injection for catalog stores.

:class:`FlakyCatalogStore` wraps any :class:`~repro.catalog.store
.CatalogStore` and makes its *write* operations raise the real
:class:`sqlite3.OperationalError` ("database is locked") per a seeded
:class:`~repro.core.faults.FaultSchedule` — the exact exception a
contended file-backed SQLite catalog produces, so the pipeline's retry
and classification layers are exercised against the genuine article.

Faults fire *before* the delegate runs, modelling a connection that
could not even begin its transaction: an injected fault never leaves a
partial write behind, so a retried call is exactly idempotent.  Reads
are faulted only when ``fail_reads`` is set (op ``"read"``); writes use
op ``"store"`` keyed by method name.
"""

from __future__ import annotations

import sqlite3
from typing import Iterable, Iterator

from ..core.faults import FaultSchedule
from .records import DatasetFeature
from .store import CatalogStore


class FlakyCatalogStore(CatalogStore):
    """A catalog store whose writes go busy per a fault schedule."""

    def __init__(
        self,
        inner: CatalogStore,
        schedule: FaultSchedule,
        fail_reads: bool = False,
    ) -> None:
        self.inner = inner
        self.schedule = schedule
        self.fail_reads = fail_reads

    def _maybe_fail(self, operation: str) -> None:
        if self.schedule.should_fail("store", operation):
            raise sqlite3.OperationalError(
                f"database is locked (injected during {operation})"
            )

    def _maybe_fail_read(self, operation: str) -> None:
        if self.fail_reads and self.schedule.should_fail("read", operation):
            raise sqlite3.OperationalError(
                f"database is locked (injected during {operation})"
            )

    # -- versioning ---------------------------------------------------------

    @property
    def version(self) -> int:
        return self.inner.version

    # -- faulted writes -----------------------------------------------------

    def upsert(self, feature: DatasetFeature) -> None:
        self._maybe_fail("upsert")
        self.inner.upsert(feature)

    def upsert_many(self, features: Iterable[DatasetFeature]) -> int:
        self._maybe_fail("upsert_many")
        return self.inner.upsert_many(features)

    def remove(self, dataset_id: str) -> None:
        self._maybe_fail("remove")
        self.inner.remove(dataset_id)

    def remove_many(self, dataset_ids: Iterable[str]) -> int:
        self._maybe_fail("remove_many")
        return self.inner.remove_many(dataset_ids)

    def apply_batch(
        self,
        upserts: Iterable[DatasetFeature] = (),
        removals: Iterable[str] = (),
    ) -> tuple[int, int]:
        # One injection point for the whole batch, mirroring the real
        # stores' single transaction: the fault fires before anything
        # lands, so a retried batch replays against unchanged state.
        self._maybe_fail("apply_batch")
        return self.inner.apply_batch(upserts, removals)

    def clear(self) -> None:
        self._maybe_fail("clear")
        self.inner.clear()

    def rename_variables(
        self, mapping: dict[str, str], resolution: str = ""
    ) -> int:
        self._maybe_fail("rename_variables")
        return self.inner.rename_variables(mapping, resolution=resolution)

    # -- (optionally faulted) reads ------------------------------------------

    def get(self, dataset_id: str) -> DatasetFeature:
        self._maybe_fail_read("get")
        return self.inner.get(dataset_id)

    def dataset_ids(self) -> list[str]:
        self._maybe_fail_read("dataset_ids")
        return self.inner.dataset_ids()

    def features(self) -> Iterator[DatasetFeature]:
        self._maybe_fail_read("features")
        return self.inner.features()

    def snapshot(self):
        self._maybe_fail_read("snapshot")
        return self.inner.snapshot()

    def snapshot_cow(
        self,
        previous,
        upserted: Iterable[str] = (),
        removed: Iterable[str] = (),
        expect_version: int | None = None,
    ):
        self._maybe_fail_read("snapshot_cow")
        return self.inner.snapshot_cow(
            previous, upserted, removed, expect_version=expect_version
        )

    def __len__(self) -> int:
        return len(self.inner)
