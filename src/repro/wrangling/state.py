"""Shared state threaded through a metadata processing chain.

The wrangling figure's boxes all read and write the same artifacts: the
archive filesystem, the *working catalog*, external metadata, curated
knowledge tables, discovered rules, the generated hierarchy, and the
published *metadata catalog*.  :class:`WranglingState` carries them, so
components stay small and composable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..archive.filesystem import VirtualArchive
from ..archive.generator import StationRecord
from ..catalog.store import CatalogStore, MemoryCatalog
from ..core.errors import ErrorRecord
from ..hierarchy import ConceptHierarchy, TaxonomyLinks
from ..refine.history import RuleSet
from ..semantics import (
    AmbiguityDecision,
    TermResolver,
)


@dataclass(slots=True)
class PublishDelta:
    """What the most recent publish changed in the published catalog.

    The serving layer's copy-on-write refresh uses this to update in
    O(changed) instead of rereading the whole catalog.

    ``base_version``/``published_version`` stamp the published store's
    version at the snapshot the publish diffed against and after its
    single ``apply_batch``.  ``published == base + 1`` (one batch, one bump)
    is what makes the delta *provably complete*: a consumer holding a
    snapshot at ``base_version`` can reach ``published_version`` by
    applying exactly this delta — any interleaved foreign write would
    show up as an extra bump and fail :meth:`spans`.  Unstamped deltas
    (``-1``, below any real store version) never span anything.
    """

    upserted: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)
    base_version: int = -1
    published_version: int = -1

    @property
    def changed(self) -> int:
        """Number of datasets touched."""
        return len(self.upserted) + len(self.removed)

    def spans(self, base_version: int, target_version: int) -> bool:
        """True when applying this delta to a snapshot at
        ``base_version`` provably yields the store at ``target_version``
        (the sole intervening mutation was this delta's own batch)."""
        return (
            self.base_version >= 0
            and self.base_version == base_version
            and self.published_version == target_version
            and self.published_version == self.base_version + 1
        )


@dataclass(slots=True)
class QuarantineEntry:
    """One path the pipeline has set aside instead of crashing on."""

    path: str
    error: ErrorRecord
    #: How many wrangles have now failed on this path.
    failures: int = 1


@dataclass(slots=True)
class QuarantineLog:
    """Paths skipped with a reason, pending repair or disappearance.

    Lifecycle: a per-file failure (parse error, exhausted transient
    reads, worker exception) quarantines the path with its typed error.
    Quarantined paths are never hash-skipped, so every subsequent
    wrangle retries them automatically; a successful catalog upsert —
    or the file vanishing from the archive — resolves the entry.
    """

    entries: dict[str, QuarantineEntry] = field(default_factory=dict)
    #: Entries resolved over the state's lifetime (repair telemetry).
    resolved_total: int = 0

    def add(self, path: str, error: ErrorRecord) -> QuarantineEntry:
        """Quarantine ``path`` (or record another failure on it)."""
        entry = self.entries.get(path)
        if entry is None:
            entry = QuarantineEntry(path=path, error=error)
            self.entries[path] = entry
        else:
            entry.error = error
            entry.failures += 1
        return entry

    def resolve(self, path: str) -> bool:
        """Drop ``path`` from quarantine; True when it was present."""
        if path in self.entries:
            del self.entries[path]
            self.resolved_total += 1
            return True
        return False

    def get(self, path: str) -> QuarantineEntry | None:
        """The entry for ``path``, if quarantined."""
        return self.entries.get(path)

    def paths(self) -> list[str]:
        """Sorted quarantined paths."""
        return sorted(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, path: str) -> bool:
        return path in self.entries


@dataclass(slots=True)
class WranglingState:
    """Everything a processing chain reads and writes."""

    fs: VirtualArchive
    working: CatalogStore = field(default_factory=MemoryCatalog)
    published: CatalogStore = field(default_factory=MemoryCatalog)
    resolver: TermResolver = field(default_factory=TermResolver)
    decisions: list[AmbiguityDecision] = field(default_factory=list)
    discovered_rules: RuleSet | None = None
    hierarchy: ConceptHierarchy | None = None
    taxonomy_links: TaxonomyLinks | None = None
    stations: list[StationRecord] = field(default_factory=list)
    scanned_hashes: dict[str, str] = field(default_factory=dict)
    quarantine: QuarantineLog = field(default_factory=QuarantineLog)
    notes: list[str] = field(default_factory=list)
    published_delta: PublishDelta | None = None

    def note(self, message: str) -> None:
        """Record a free-form provenance note."""
        self.notes.append(message)
