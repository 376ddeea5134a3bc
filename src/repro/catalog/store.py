"""Catalog store interface and the in-memory implementation.

The wrangling process maintains a *working catalog* and publishes into a
*metadata catalog*; both are instances of :class:`CatalogStore`.  The
interface is deliberately small — upsert/get/iterate, the batch writes a
publish needs, and one bulk rename.

Features are immutable (:mod:`repro.catalog.records`), so every store
keeps and hands out the very objects it was given: a read copies
nothing, and a writer that changes a feature upserts a replacement.

Concurrency model: stores are written by one wrangle at a time but may
be *read* by many search threads.  Readers take an immutable
:class:`CatalogSnapshot` (:meth:`CatalogStore.snapshot`) — a frozen,
version-stamped view of the catalog at one instant — and run every
query against it, so readers never block writers and never observe a
half-applied batch.  Writers keep batches atomic: :meth:`apply_batch`
applies a publish's upserts *and* removals under a single version bump
(one transaction in SQLite), which is what makes "one snapshot = one
catalog version" hold.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import replace
from typing import Iterable, Iterator

from .records import DatasetFeature, VariableEntry


class DatasetNotFoundError(KeyError):
    """Raised when a dataset id is not in the catalog."""


class SnapshotMutationError(TypeError):
    """Raised when a mutating operation is attempted on a snapshot."""


class CatalogStore(ABC):
    """Abstract catalog of dataset features."""

    #: Backing field of :attr:`version` (instance attribute once bumped).
    _version: int = 0

    # -- versioning ----------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonically increasing mutation counter.

        Every mutating operation — :meth:`upsert`, :meth:`remove`,
        :meth:`clear`, the batch writes and :meth:`rename_variables`
        when it changes at least one entry — bumps this counter, so
        cache layers can detect staleness in O(1).  Comparing catalog
        *sizes* is not sufficient: a same-size replacement (remove +
        upsert, or an upsert of an existing id) changes content without
        changing the length.
        """
        return self._version

    def _bump_version(self) -> None:
        """Record one mutation (subclasses call this from every mutator)."""
        self._version += 1

    # -- snapshots -----------------------------------------------------------

    @abstractmethod
    def snapshot(self) -> "CatalogSnapshot":
        """An immutable, version-stamped view of the catalog right now.

        Once taken, the snapshot never touches this store again, so
        query threads holding one cannot block (or be corrupted by)
        concurrent writers; it shares the store's feature objects, which
        are immutable.  Its :attr:`version` equals this store's version
        at the instant of the read — version-keyed caches computed
        against the snapshot therefore agree exactly with ones computed
        against the live store at the same version.  Stores read under
        a lock (memory) or in one read transaction (SQLite).
        """

    @abstractmethod
    def snapshot_cow(
        self,
        previous: "CatalogSnapshot",
        upserted: Iterable[str] = (),
        removed: Iterable[str] = (),
        expect_version: int | None = None,
    ) -> "CatalogSnapshot | None":
        """A copy-on-write snapshot: ``previous`` plus a known delta.

        Instead of reading all N features, fetch only the ``upserted``
        ids from the store and build the new snapshot by sharing every
        unchanged feature object with ``previous`` — the publish path of
        the serving layer, O(changed) per refresh.

        Sound only when the caller *proves* the delta is the sole
        change since ``previous`` was taken (see
        ``PublishDelta.spans``); ``expect_version`` re-checks the store
        version at read time, in the same locked pass as the delta
        reads, so a racing writer cannot slip a mutation under the
        shared objects.  Returns ``None`` when the check fails —
        callers fall back to :meth:`snapshot`.  Upserted ids no longer
        present in the store are treated as removed.
        """

    # -- dataset-level -------------------------------------------------------

    @abstractmethod
    def upsert(self, feature: DatasetFeature) -> None:
        """Insert or replace the feature with ``feature.dataset_id``."""

    @abstractmethod
    def get(self, dataset_id: str) -> DatasetFeature:
        """Return the feature (immutable; shared, not copied).

        Raises:
            DatasetNotFoundError: when absent.
        """

    @abstractmethod
    def remove(self, dataset_id: str) -> None:
        """Remove a dataset.

        Raises:
            DatasetNotFoundError: when absent.
        """

    @abstractmethod
    def dataset_ids(self) -> list[str]:
        """Sorted ids of all datasets."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of datasets."""

    @abstractmethod
    def clear(self) -> None:
        """Drop all content."""

    # -- batch operations ----------------------------------------------------
    #
    # The ingest fast path publishes whole batches at a time.  Each store
    # bumps the version counter ONCE per non-empty batch (and SQLite runs
    # it in a single transaction).

    @abstractmethod
    def upsert_many(self, features: Iterable[DatasetFeature]) -> int:
        """Insert or replace a batch of features; returns the count.

        Bumps :attr:`version` once per non-empty batch so a publish of N
        changed datasets invalidates version-keyed caches exactly once
        instead of N times.
        """

    @abstractmethod
    def remove_many(self, dataset_ids: Iterable[str]) -> int:
        """Remove a batch of datasets; returns how many were present.

        Unlike :meth:`remove`, ids that are absent are skipped silently —
        batch callers (scan, publish) have already decided what should
        vanish and only need the store to converge.
        """

    @abstractmethod
    def apply_batch(
        self,
        upserts: Iterable[DatasetFeature] = (),
        removals: Iterable[str] = (),
    ) -> tuple[int, int]:
        """Apply upserts and removals as ONE logical batch.

        This is the publish primitive: a re-wrangle's changed and
        vanished datasets land together under one version bump, so a
        concurrent :meth:`snapshot` sees either the whole publish or
        none of it.

        Returns ``(upserted, removed)`` counts; absent removal ids are
        skipped silently, as in :meth:`remove_many`.
        """

    @abstractmethod
    def replace_all(self, features: Iterable[DatasetFeature]) -> int:
        """Replace the entire content with ``features`` atomically.

        The full-copy analogue of :meth:`apply_batch`: the content is
        swapped under one version bump, so a concurrent snapshot never
        observes an emptied-but-not-yet-refilled state.  Returns the new
        dataset count.
        """

    @abstractmethod
    def features(self) -> Iterator[DatasetFeature]:
        """Yield all features in ``dataset_ids()`` order.

        This is the bulk read primitive: full-catalog consumers
        (publishes, exports, sweeps) read through it, and backends that
        pay a per-dataset lookup cost (SQLite) answer it with a grouped
        read instead of the 1+2N query pattern of looping :meth:`get`.
        """

    def __iter__(self) -> Iterator[DatasetFeature]:
        return self.features()

    def contains(self, dataset_id: str) -> bool:
        """True when ``dataset_id`` is cataloged."""
        return dataset_id in set(self.dataset_ids())

    # -- variable-level operations -------------------------------------------

    def variable_name_counts(self) -> Counter[str]:
        """Current variable name -> number of datasets using it."""
        counts: Counter[str] = Counter()
        for feature in self:
            counts.update(set(feature.variable_names()))
        return counts

    def iter_variables(self) -> Iterator[tuple[str, VariableEntry]]:
        """Yield ``(dataset_id, variable_entry)`` over the catalog."""
        for feature in self:
            for entry in feature.variables:
                yield feature.dataset_id, entry

    def rename_variables(
        self, mapping: dict[str, str], resolution: str = ""
    ) -> int:
        """Rewrite current variable names via ``mapping``; returns the
        number of entries changed.  ``resolution`` labels the provenance
        of a renamed entry (an empty label keeps the entry's own).

        A replacement is built for each touched feature, and all of them
        are written with one :meth:`apply_batch`: one version bump, and
        a snapshot taken earlier keeps the old features.
        """
        replacements = []
        changed = 0
        for feature in self.features():
            variables = list(feature.variables)
            touched = 0
            for position, entry in enumerate(variables):
                new_name = mapping.get(entry.name, entry.name)
                if new_name != entry.name:
                    variables[position] = replace(
                        entry,
                        name=new_name,
                        resolution=resolution or entry.resolution,
                    )
                    touched += 1
            if touched:
                replacements.append(replace(feature, variables=variables))
                changed += touched
        if replacements:
            self.apply_batch(replacements)
        return changed

    def copy_into(self, other: "CatalogStore") -> int:
        """Replace ``other``'s content with this catalog's features.

        This is the Publish component's primitive.  Returns dataset count.
        The copy goes through :meth:`features`/:meth:`replace_all`, so a
        full-copy publish into SQLite is one bulk read and one
        transaction (one version bump — a concurrent snapshot sees the
        old catalog or the new one, never the emptied middle state).
        """
        return other.replace_all(self.features())


class CatalogSnapshot(CatalogStore):
    """A frozen, version-stamped view of a catalog at one instant.

    Snapshots are what concurrent readers search over: the content and
    :attr:`version` never change after construction, every mutating
    operation raises :class:`SnapshotMutationError`, and nothing here
    refers back to the source store — a reader holding a snapshot can
    never block, slow, or be torn by a writer.

    Because the version equals the source store's version at copy time,
    everything keyed on catalog versions attaches for free: query-cache
    entries computed against a snapshot hit for any other snapshot (or
    the live store) at the same version, and
    :class:`~repro.catalog.index.CatalogIndexes` built over a snapshot
    carry a truthful ``catalog_version`` stamp.

    :meth:`get` and :meth:`features` hand out the snapshot's own feature
    objects: they are immutable, so no caller can write through them.
    """

    _MUTATION_MESSAGE = (
        "catalog snapshots are immutable — mutate the source store and "
        "take a fresh snapshot"
    )

    def __init__(
        self, features: dict[str, DatasetFeature], version: int
    ) -> None:
        self._features = dict(features)
        self._ids = sorted(self._features)
        self._frozen_version = version
        self._columnar = None
        self._freeze_lock = threading.Lock()
        # Set by evolve(): (base snapshot, upserted ids, removed ids),
        # consumed by the first columnar() call for an incremental
        # refreeze, then dropped so snapshot chains are not retained.
        self._cow_base: tuple | None = None

    @property
    def version(self) -> int:
        """The source store's version at the instant of the copy."""
        return self._frozen_version

    def _bump_version(self) -> None:
        raise SnapshotMutationError(self._MUTATION_MESSAGE)

    # -- reads ---------------------------------------------------------------

    def get(self, dataset_id: str) -> DatasetFeature:
        try:
            return self._features[dataset_id]
        except KeyError:
            raise DatasetNotFoundError(dataset_id)

    def dataset_ids(self) -> list[str]:
        return list(self._ids)

    def __len__(self) -> int:
        return len(self._features)

    def features(self) -> Iterator[DatasetFeature]:
        features = self._features
        return (features[dataset_id] for dataset_id in self._ids)

    def contains(self, dataset_id: str) -> bool:
        return dataset_id in self._features

    def snapshot(self) -> "CatalogSnapshot":
        """A snapshot of a snapshot is itself (already immutable)."""
        return self

    def snapshot_cow(
        self,
        previous: "CatalogSnapshot",
        upserted: Iterable[str] = (),
        removed: Iterable[str] = (),
        expect_version: int | None = None,
    ) -> "CatalogSnapshot | None":
        """Itself, whatever the delta: a snapshot's content is already
        the content at its version.  ``None`` if that version is not
        ``expect_version``."""
        if expect_version is not None and expect_version != self.version:
            return None
        return self

    def evolve(
        self,
        upserts: dict[str, DatasetFeature],
        removed: Iterable[str],
        version: int,
    ) -> "CatalogSnapshot":
        """A new snapshot sharing this one's unchanged feature objects.

        The copy-on-write construction behind
        :meth:`CatalogStore.snapshot_cow`: the feature *dict* is copied
        (O(N) pointers), and the feature objects are shared for every
        id the delta did not touch.  Sharing is sound because features
        are immutable and every mutator of a snapshot raises
        :class:`SnapshotMutationError`.

        The caller is responsible for the delta actually spanning
        ``self.version -> version`` (the store's ``snapshot_cow``
        verifies that under its lock).
        """
        features = dict(self._features)
        for dataset_id in removed:
            features.pop(dataset_id, None)
        features.update(upserts)
        out = CatalogSnapshot(features, version=version)
        out._cow_base = (self, tuple(upserts), tuple(removed))
        from ..obs import get_telemetry

        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.count("snapshot.cow")
            telemetry.count(
                "snapshot.cow_shared", len(features) - len(upserts)
            )
        return out

    def columnar(self):
        """The columnar view of this snapshot, frozen once and cached.

        Because the snapshot never changes, the columns are frozen at
        most once and shared by every engine (and every serve request)
        holding this snapshot — the expensive part of the columnar fast
        path is paid per snapshot refresh, not per query.

        The first freeze runs under a per-snapshot lock, so concurrent
        first readers share ONE freeze instead of each paying the full
        O(N) pass (the losers count ``columnar.freeze_races_avoided``
        and reuse the winner's view).

        Snapshots built copy-on-write (:meth:`evolve`) refreeze
        *incrementally* when their base snapshot already froze: only
        the delta's rows are rebuilt, everything else is spliced from
        the base view (``ColumnarSnapshot.freeze_from``).
        """
        view = self._columnar
        if view is not None:
            return view
        from ..core.columnar import ColumnarSnapshot
        from ..obs import get_telemetry

        with self._freeze_lock:
            view = self._columnar
            if view is not None:
                # Another reader froze while we waited for the lock —
                # exactly the double freeze the lock exists to avoid.
                telemetry = get_telemetry()
                if telemetry.enabled:
                    telemetry.count("columnar.freeze_races_avoided")
                return view
            base = self._cow_base
            if base is not None:
                previous, upserted_ids, removed_ids = base
                base_view = previous._columnar
                if base_view is not None:
                    upserted = [
                        self._features[dataset_id]
                        for dataset_id in upserted_ids
                        if dataset_id in self._features
                    ]
                    try:
                        view = ColumnarSnapshot.freeze_from(
                            base_view,
                            upserted,
                            removed_ids,
                            version=self._frozen_version,
                        )
                    except KeyError:
                        view = None  # inconsistent base; cold freeze
                    if view is not None and view.ids != self._ids:
                        telemetry = get_telemetry()
                        if telemetry.enabled:
                            telemetry.count("columnar.refreeze_fallbacks")
                        view = None
            if view is None:
                view = ColumnarSnapshot.freeze(
                    self._features.values(), version=self._frozen_version
                )
            self._columnar = view
            self._cow_base = None  # never retain a snapshot chain
        return view

    # -- every mutation refused ---------------------------------------------

    def upsert(self, feature: DatasetFeature) -> None:
        raise SnapshotMutationError(self._MUTATION_MESSAGE)

    def remove(self, dataset_id: str) -> None:
        raise SnapshotMutationError(self._MUTATION_MESSAGE)

    def clear(self) -> None:
        raise SnapshotMutationError(self._MUTATION_MESSAGE)

    def upsert_many(self, features: Iterable[DatasetFeature]) -> int:
        raise SnapshotMutationError(self._MUTATION_MESSAGE)

    def remove_many(self, dataset_ids: Iterable[str]) -> int:
        raise SnapshotMutationError(self._MUTATION_MESSAGE)

    def apply_batch(
        self,
        upserts: Iterable[DatasetFeature] = (),
        removals: Iterable[str] = (),
    ) -> tuple[int, int]:
        raise SnapshotMutationError(self._MUTATION_MESSAGE)

    def replace_all(self, features: Iterable[DatasetFeature]) -> int:
        raise SnapshotMutationError(self._MUTATION_MESSAGE)

    def rename_variables(
        self, mapping: dict[str, str], resolution: str = ""
    ) -> int:
        raise SnapshotMutationError(self._MUTATION_MESSAGE)


class MemoryCatalog(CatalogStore):
    """Dict-backed store: the default working catalog.

    Mutations and snapshots synchronize on one lock, so a
    :meth:`snapshot` taken while another thread writes a batch sees the
    catalog strictly before or strictly after it — never a torn middle.
    Point reads (:meth:`get`, iteration) stay lock-free for the
    single-writer wrangling hot path; concurrent *readers* should search
    snapshots, which is what the serving layer does.
    """

    def __init__(self) -> None:
        self._features: dict[str, DatasetFeature] = {}
        self._write_lock = threading.RLock()

    def snapshot(self) -> CatalogSnapshot:
        with self._write_lock:
            return CatalogSnapshot(self._features, version=self._version)

    def snapshot_cow(
        self,
        previous: CatalogSnapshot,
        upserted: Iterable[str] = (),
        removed: Iterable[str] = (),
        expect_version: int | None = None,
    ) -> CatalogSnapshot | None:
        # One locked pass: the version check and the delta reads are a
        # single atomic unit, so the expect_version guarantee cannot be
        # invalidated between check and read.
        with self._write_lock:
            version = self._version
            if expect_version is not None and version != expect_version:
                return None
            if version == previous.version:
                return previous
            upserts: dict[str, DatasetFeature] = {}
            gone = list(removed)
            for dataset_id in upserted:
                feature = self._features.get(dataset_id)
                if feature is None:
                    gone.append(dataset_id)
                else:
                    upserts[dataset_id] = feature
            return previous.evolve(upserts, gone, version=version)

    def upsert(self, feature: DatasetFeature) -> None:
        with self._write_lock:
            self._features[feature.dataset_id] = feature
            self._bump_version()

    def get(self, dataset_id: str) -> DatasetFeature:
        try:
            return self._features[dataset_id]
        except KeyError:
            raise DatasetNotFoundError(dataset_id)

    def remove(self, dataset_id: str) -> None:
        with self._write_lock:
            if dataset_id not in self._features:
                raise DatasetNotFoundError(dataset_id)
            del self._features[dataset_id]
            self._bump_version()

    def dataset_ids(self) -> list[str]:
        return sorted(self._features)

    def __len__(self) -> int:
        return len(self._features)

    def clear(self) -> None:
        with self._write_lock:
            self._features.clear()
            self._bump_version()

    def upsert_many(self, features: Iterable[DatasetFeature]) -> int:
        with self._write_lock:
            count = 0
            for feature in features:
                self._features[feature.dataset_id] = feature
                count += 1
            if count:
                self._bump_version()
            return count

    def remove_many(self, dataset_ids: Iterable[str]) -> int:
        with self._write_lock:
            removed = 0
            for dataset_id in dataset_ids:
                if self._features.pop(dataset_id, None) is not None:
                    removed += 1
            if removed:
                self._bump_version()
            return removed

    def apply_batch(
        self,
        upserts: Iterable[DatasetFeature] = (),
        removals: Iterable[str] = (),
    ) -> tuple[int, int]:
        with self._write_lock:
            upserted = 0
            for feature in upserts:
                self._features[feature.dataset_id] = feature
                upserted += 1
            removed = 0
            for dataset_id in removals:
                if self._features.pop(dataset_id, None) is not None:
                    removed += 1
            if upserted or removed:
                self._bump_version()
            return upserted, removed

    def replace_all(self, features: Iterable[DatasetFeature]) -> int:
        # Materialize outside the lock (the source may be a slow store),
        # swap inside it: one bump, no observable emptied state.
        fresh = {feature.dataset_id: feature for feature in features}
        with self._write_lock:
            self._features = fresh
            self._bump_version()
            return len(fresh)

    def features(self) -> Iterator[DatasetFeature]:
        for dataset_id in sorted(self._features):
            yield self._features[dataset_id]
