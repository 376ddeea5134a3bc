"""Refine's value clustering: key collision and nearest neighbour.

"Discovering Transformations with Google Refine": the curator clusters a
column's values; each cluster merges to one value, exported as a
``core/mass-edit`` rule.  We implement both method families Refine
ships:

* **key collision** — bucket values by a key function (fingerprint,
  n-gram fingerprint, metaphone).  Cheap (one pass) and high precision.
* **nearest neighbour** — connect values whose pairwise distance is
  under a radius (Levenshtein, Jaro-Winkler); clusters are the connected
  components.  Expensive (pairwise) but catches typos key collision
  misses.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from ..text import (
    damerau_levenshtein_within,
    fingerprint,
    jaro_winkler,
    metaphone,
    ngram_fingerprint,
)

KeyFunction = Callable[[str], str]

KEYERS: dict[str, KeyFunction] = {
    "fingerprint": fingerprint,
    "ngram-fingerprint": ngram_fingerprint,
    "metaphone": metaphone,
}


@dataclass(frozen=True, slots=True)
class ValueCluster:
    """One cluster of similar values with their occurrence counts."""

    values: tuple[str, ...]  # sorted by (-count, value)
    counts: tuple[int, ...]
    method: str

    @property
    def size(self) -> int:
        """Distinct value count."""
        return len(self.values)

    @property
    def total_count(self) -> int:
        """Total occurrences across the cluster."""
        return sum(self.counts)

    @property
    def suggested_value(self) -> str:
        """Refine's default merge target: the most common value."""
        return self.values[0]


def _make_clusters(
    groups: dict[str, list[str]],
    counts: dict[str, int],
    method: str,
    min_size: int,
) -> list[ValueCluster]:
    clusters = []
    for members in groups.values():
        if len(members) < min_size:
            continue
        ordered = sorted(members, key=lambda v: (-counts[v], v))
        clusters.append(
            ValueCluster(
                values=tuple(ordered),
                counts=tuple(counts[v] for v in ordered),
                method=method,
            )
        )
    clusters.sort(key=lambda c: (-c.total_count, c.values))
    return clusters


def key_collision_clusters(
    value_counts: dict[str, int],
    keyer: str = "fingerprint",
    min_size: int = 2,
) -> list[ValueCluster]:
    """Cluster values whose key function collides.

    Raises:
        KeyError: for an unknown keyer name.
    """
    key_fn = KEYERS[keyer]
    groups: dict[str, list[str]] = defaultdict(list)
    for value in value_counts:
        groups[key_fn(value)].append(value)
    return _make_clusters(groups, value_counts, keyer, min_size)


def nearest_neighbour_clusters(
    value_counts: dict[str, int],
    distance: str = "levenshtein",
    radius: float = 2.0,
    min_size: int = 2,
    block_chars: int = 1,
) -> list[ValueCluster]:
    """Cluster values by connected components under a distance radius.

    ``distance`` is ``levenshtein`` (radius = max edit distance) or
    ``jaro-winkler`` (radius = max 1-similarity).  ``block_chars``
    reproduces Refine's blocking: only pairs sharing a prefix of that
    length are compared (keeps the pairwise cost practical).

    Raises:
        ValueError: for an unknown distance or non-positive radius.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if distance == "levenshtein":
        def near(a: str, b: str) -> bool:
            if abs(len(a) - len(b)) > radius:
                return False
            # The distance is an integer no larger than the longer
            # string, so the bounded kernel answers exactly.
            limit = max(len(a), len(b))
            if radius < limit:
                limit = int(radius)
            return damerau_levenshtein_within(a, b, limit) <= radius
    elif distance == "jaro-winkler":
        def near(a: str, b: str) -> bool:
            return 1.0 - jaro_winkler(a, b) <= radius
    else:
        raise ValueError(f"unknown distance {distance!r}")

    values = sorted(value_counts)
    parent: dict[str, str] = {v: v for v in values}

    def find(v: str) -> str:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    blocks: dict[str, list[str]] = defaultdict(list)
    for value in values:
        blocks[value[:block_chars].lower()].append(value)
    for members in blocks.values():
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if near(a.lower(), b.lower()):
                    union(a, b)

    groups: dict[str, list[str]] = defaultdict(list)
    for value in values:
        groups[find(value)].append(value)
    return _make_clusters(
        groups, value_counts, f"nn-{distance}", min_size
    )


def clusters_to_mass_edits(
    clusters: list[ValueCluster],
    target_for: Callable[[ValueCluster], str | None] | None = None,
):
    """Convert clusters into one ``core/mass-edit`` operation per column
    pass, Refine-style.

    ``target_for`` picks the merge target per cluster (None skips the
    cluster); the default merges to the most common value.  Returns a
    list of :class:`~repro.refine.ops.MassEditEdit`.
    """
    from .ops import MassEditEdit

    edits = []
    for cluster in clusters:
        target = (
            target_for(cluster) if target_for is not None
            else cluster.suggested_value
        )
        if target is None:
            continue
        from_values = tuple(v for v in cluster.values if v != target)
        if not from_values:
            continue
        edits.append(MassEditEdit(from_values=from_values, to_value=target))
    return edits
