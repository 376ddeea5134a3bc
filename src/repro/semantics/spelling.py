"""Misspelling resolution (Table row 1).

Given names that no translation table recognizes, find the canonical
vocabulary term they are a "minor variation or misspelling" of.  Two
complementary signals, mirroring how a curator uses Google Refine:

* **fingerprint collision** — catches case/ordering/punctuation variants
  and joined tokens (``airtemp``),
* **bounded edit distance** — catches typos (``air_temperatrue``), using
  Damerau-Levenshtein so transpositions cost 1.

A match is accepted only when it is *unambiguous*: a name whose nearest
candidates tie across different canonicals stays unresolved for the
curator.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..text import (
    damerau_levenshtein_within,
    fingerprint,
    ngram_fingerprint,
    normalize_name,
)


@dataclass(frozen=True, slots=True)
class SpellingMatch:
    """One resolved misspelling."""

    written: str
    canonical: str
    method: str  # 'fingerprint' | 'ngram' | 'edit'
    distance: int  # edit distance (0 for key collisions)


class MisspellingResolver:
    """Resolver from messy names to a fixed canonical name set.

    The canonical set and the bounds are fixed at construction, so a
    verdict depends on the written name alone and is memoised per name:
    an archive repeats the same few hundred names across its files.
    """

    def __init__(
        self,
        canonical_names: list[str],
        max_distance: int = 2,
        max_distance_fraction: float = 0.25,
    ) -> None:
        """``max_distance`` caps absolute edit distance;
        ``max_distance_fraction`` caps it relative to name length (so a
        4-letter name cannot be 2 edits away from everything).

        Raises:
            ValueError: on non-positive ``max_distance`` or a fraction
                outside (0, 1].
        """
        if max_distance <= 0:
            raise ValueError("max_distance must be positive")
        if not 0.0 < max_distance_fraction <= 1.0:
            raise ValueError("max_distance_fraction must lie in (0, 1]")
        self.canonical_names = list(dict.fromkeys(canonical_names))
        self.max_distance = max_distance
        self.max_distance_fraction = max_distance_fraction
        self._by_fingerprint: dict[str, set[str]] = {}
        self._by_ngram: dict[str, set[str]] = {}
        for name in self.canonical_names:
            self._by_fingerprint.setdefault(fingerprint(name), set()).add(
                name
            )
            self._by_ngram.setdefault(ngram_fingerprint(name), set()).add(
                name
            )
        self._verdicts: dict[str, SpellingMatch | None] = {}

    def resolve(self, written: str) -> SpellingMatch | None:
        """Best unambiguous match for ``written``, or None."""
        try:
            return self._verdicts[written]
        except KeyError:
            match = self._verdicts[written] = self._resolve(written)
            return match

    def _resolve(self, written: str) -> SpellingMatch | None:
        normalized = normalize_name(written)
        if not normalized:
            return None
        # 1. fingerprint collision (case/order/punctuation variants).
        hits = self._by_fingerprint.get(fingerprint(written), set())
        if len(hits) == 1:
            return SpellingMatch(
                written=written,
                canonical=next(iter(hits)),
                method="fingerprint",
                distance=0,
            )
        # 2. n-gram fingerprint collision (joined tokens, tiny typos).
        hits = self._by_ngram.get(ngram_fingerprint(written), set())
        if len(hits) == 1:
            return SpellingMatch(
                written=written,
                canonical=next(iter(hits)),
                method="ngram",
                distance=0,
            )
        # 3. bounded edit distance, unambiguous-best-only.
        limit = min(
            self.max_distance,
            max(1, int(len(normalized) * self.max_distance_fraction)),
        )
        best_distance = limit + 1
        best_names: list[str] = []
        for name in self.canonical_names:
            if abs(len(name) - len(normalized)) > limit:
                continue
            # Exact up to the best distance so far (ties included);
            # anything farther only has to be known to lose.
            d = damerau_levenshtein_within(normalized, name, best_distance)
            if d < best_distance:
                best_distance = d
                best_names = [name]
            elif d == best_distance:
                best_names.append(name)
        if best_distance <= limit and len(best_names) == 1:
            return SpellingMatch(
                written=written,
                canonical=best_names[0],
                method="edit",
                distance=best_distance,
            )
        return None

    def resolve_all(
        self, written_names: list[str]
    ) -> tuple[dict[str, str], list[str]]:
        """Resolve a batch; returns ``(mapping, unresolved)``."""
        mapping: dict[str, str] = {}
        unresolved: list[str] = []
        for written in written_names:
            match = self.resolve(written)
            if match is None or match.canonical == written:
                if match is None:
                    unresolved.append(written)
            else:
                mapping[written] = match.canonical
        return mapping, unresolved
