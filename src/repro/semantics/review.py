"""The semi-curated review queue.

The abstract promises "a blend of automated and 'semi-curated' methods":
automated steps propose, the curator disposes.  Low-confidence
resolutions — fuzzy matches, evidence-based ambiguity clarifications —
land in a :class:`ReviewQueue`; the curator approves (the mapping is
learned into the synonym table, so future runs resolve it as a *known*
transformation) or rejects (the name reverts to unresolved and is never
re-proposed by the same method).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .resolver import Resolution, ResolutionMethod
from .synonyms import SynonymTable

#: Methods whose verdicts deserve a human glance before they ossify.
LOW_CONFIDENCE_METHODS = frozenset(
    {ResolutionMethod.FUZZY, ResolutionMethod.AMBIGUITY_EVIDENCE}
)


class ReviewVerdict(str, Enum):
    """The curator's call on one proposed resolution."""

    PENDING = "pending"
    APPROVED = "approved"
    REJECTED = "rejected"


@dataclass(slots=True)
class ReviewItem:
    """One queued proposal."""

    written: str
    proposed: str
    method: str
    note: str = ""
    occurrences: int = 1
    verdict: ReviewVerdict = ReviewVerdict.PENDING


class ReviewQueue:
    """Collects, dedupes and settles low-confidence proposals."""

    def __init__(self) -> None:
        self._items: dict[tuple[str, str], ReviewItem] = {}
        self._rejected: set[tuple[str, str]] = set()

    # -- intake ----------------------------------------------------------------

    def offer(self, resolution: Resolution) -> bool:
        """Queue a resolution when it needs review; returns True if taken.

        High-confidence methods pass through (False); rejected pairs are
        never re-queued; duplicate proposals bump the occurrence count.
        """
        if resolution.canonical is None:
            return False
        if resolution.method not in LOW_CONFIDENCE_METHODS:
            return False
        key = (resolution.written, resolution.canonical)
        if key in self._rejected:
            return False
        item = self._items.get(key)
        if item is not None:
            item.occurrences += 1
            return True
        self._items[key] = ReviewItem(
            written=resolution.written,
            proposed=resolution.canonical,
            method=resolution.method.value,
            note=resolution.note,
        )
        return True

    # -- disposal ---------------------------------------------------------------

    def pending(self) -> list[ReviewItem]:
        """Unsettled items, most-frequent first."""
        return sorted(
            (
                item
                for item in self._items.values()
                if item.verdict is ReviewVerdict.PENDING
            ),
            key=lambda i: (-i.occurrences, i.written),
        )

    def approve(
        self, written: str, proposed: str, synonyms: SynonymTable | None = None
    ) -> ReviewItem:
        """Approve a proposal; optionally learn it into a synonym table.

        Ambiguous short forms (``pres``, ``temp``) are approved for the
        *occurrence* that queued them but never learned as global
        synonyms — their meaning is context-dependent by definition, so
        a table entry would be wrong on the next platform.

        Raises:
            KeyError: when the pair is not queued.
        """
        from .ambiguity import is_ambiguous_form

        item = self._items[(written, proposed)]
        item.verdict = ReviewVerdict.APPROVED
        if synonyms is not None:
            if is_ambiguous_form(written):
                item.note = (
                    f"{item.note + '; ' if item.note else ''}"
                    "context-dependent, not learned as synonym"
                )
            else:
                synonyms.add(proposed, written)
        return item

    def reject(self, written: str, proposed: str) -> ReviewItem:
        """Reject a proposal; the pair will never be queued again.

        Raises:
            KeyError: when the pair is not queued.
        """
        item = self._items[(written, proposed)]
        item.verdict = ReviewVerdict.REJECTED
        self._rejected.add((written, proposed))
        return item

    def approve_all(self, synonyms: SynonymTable | None = None) -> int:
        """Approve every pending item (bulk curator action)."""
        count = 0
        for item in self.pending():
            self.approve(item.written, item.proposed, synonyms=synonyms)
            count += 1
        return count

    # -- reporting ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def counts(self) -> dict[str, int]:
        """verdict -> item count."""
        out = {v.value: 0 for v in ReviewVerdict}
        for item in self._items.values():
            out[item.verdict.value] += 1
        return out

    def render(self, limit: int = 20) -> str:
        """A terminal review list for the curator."""
        lines = ["review queue:"]
        for item in self.pending()[:limit]:
            lines.append(
                f"  {item.written!r} -> {item.proposed!r} "
                f"[{item.method}, x{item.occurrences}]"
                + (f" ({item.note})" if item.note else "")
            )
        if not self.pending():
            lines.append("  (empty)")
        return "\n".join(lines)


def queue_from_catalog(
    catalog, resolver, platform_by_dataset: dict[str, str] | None = None
) -> ReviewQueue:
    """Build a queue by re-resolving every written name in a catalog.

    ``platform_by_dataset`` defaults to each feature's stored platform.
    """
    queue = ReviewQueue()
    for feature in catalog:
        platform = (
            platform_by_dataset.get(feature.dataset_id, feature.platform)
            if platform_by_dataset is not None
            else feature.platform
        )
        for entry in feature.variables:
            # Re-resolve from the written form: that is what a fresh run
            # would propose.
            probe = replace(
                entry, name=entry.written_name, unit=entry.written_unit
            )
            resolution = resolver.resolve_entry(
                probe, platform, feature.dataset_id
            )
            queue.offer(resolution)
    return queue
