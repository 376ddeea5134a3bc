"""The ranked search engine and the boolean-filter baseline.

:class:`SearchEngine` is the paper's similarity search over the catalog:
score every dataset, return the top-k with per-term breakdowns.  A
cache miss scores every row of the columnar view in one array pass
(:func:`score_rows_into`); the scalar rescore of the rows that can
still reach the k-th best total is the only pruning.

:class:`BooleanSearchEngine` is the comparison baseline a conventional
data portal provides: hard filters, no ranking.  A dataset either matches
*all* terms or is not returned — exactly the behaviour whose failure on
partial matches motivates ranked search.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..catalog.index import CatalogIndexes
from ..catalog.records import DatasetFeature
from ..catalog.store import CatalogSnapshot, CatalogStore
from ..hierarchy import ConceptHierarchy
from ..obs import current_request, get_telemetry
from .cache import QueryCache
from .columnar import APPROX_TOLERANCE, ColumnarScorer
from .query import Query
from .scoring import (
    QueryScorer,
    ScoreBreakdown,
    ScoringConfig,
)


@dataclass(frozen=True, slots=True)
class SearchResult:
    """One ranked hit."""

    dataset_id: str
    score: float
    breakdown: ScoreBreakdown
    feature: DatasetFeature

    def __str__(self) -> str:
        return f"{self.score:.3f}  {self.dataset_id}"


class SearchResults(list):
    """A page of results plus match-count metadata.

    Behaves exactly like ``list[SearchResult]`` (existing callers keep
    working) but additionally carries ``total_matches`` — how many
    datasets match, page included — and ``truncated``, so a UI can
    render "showing 10 of N" instead of guessing from
    ``len(results) == limit``.

    The count is exact on every path: for the boolean engine it counts
    datasets matching every term, and for ranked search the datasets
    scoring above zero (every dataset, for an empty query) — whatever
    the scoring path or top-k floor.

    Slicing and :meth:`copy` preserve the metadata (``total_matches``
    carries over; ``truncated`` is re-derived for the narrower page), so
    a UI paginating with ``results[:5]`` still knows the match count.
    Concatenation (``+``) falls back to a plain ``list`` — two pages
    have no single meaningful ``total_matches``; this is pinned by a
    regression test.
    """

    __slots__ = ("total_matches", "truncated")

    def __init__(
        self,
        items: Iterable[SearchResult] = (),
        total_matches: int | None = None,
        truncated: bool | None = None,
    ) -> None:
        super().__init__(items)
        if total_matches is None:
            total_matches = len(self)
        self.total_matches = total_matches
        if truncated is None:
            truncated = total_matches > len(self)
        self.truncated = truncated

    def __getitem__(self, index):
        item = super().__getitem__(index)
        if isinstance(index, slice):
            return SearchResults(
                item,
                total_matches=self.total_matches,
                truncated=self.truncated or self.total_matches > len(item),
            )
        return item

    def copy(self) -> "SearchResults":
        return SearchResults(
            self,
            total_matches=self.total_matches,
            truncated=self.truncated,
        )


class _HeapItem:
    """Min-heap entry ordered worst-first under ``(-score, id)`` ranking."""

    __slots__ = ("result",)

    def __init__(self, result: SearchResult) -> None:
        self.result = result

    def __lt__(self, other: "_HeapItem") -> bool:
        a, b = self.result, other.result
        if a.score != b.score:
            return a.score < b.score
        return a.dataset_id > b.dataset_id


class _TopK:
    """A fixed-size min-heap keeping the best ``limit`` results.

    Replaces score-all-then-sort: O(n log k) instead of O(n log n), and
    its floor feeds the scorer's upper-bound pruning.  The ordering
    matches the final ``(-score, dataset_id)`` sort exactly, ties
    included, so the kept set is identical to the naive path's.
    """

    __slots__ = ("limit", "_heap")

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self._heap: list[_HeapItem] = []

    def floor(self) -> tuple[float, str] | None:
        """The current kth ``(score, dataset_id)``; None until full."""
        if len(self._heap) < self.limit:
            return None
        worst = self._heap[0].result
        return worst.score, worst.dataset_id

    def push(self, result: SearchResult) -> None:
        item = _HeapItem(result)
        if len(self._heap) < self.limit:
            heapq.heappush(self._heap, item)
        elif self._heap[0] < item:
            heapq.heapreplace(self._heap, item)

    def sorted_results(self) -> list[SearchResult]:
        return sorted(
            (item.result for item in self._heap),
            key=lambda r: (-r.score, r.dataset_id),
        )


def score_rows_into(
    cscorer: ColumnarScorer,
    query: Query,
    rows: Sequence[int],
    top: _TopK,
) -> int:
    """Score columnar ``rows`` into the top-k heap; returns the exact
    number of rows scoring above zero.

    The single source of truth for the columnar scan: every cache miss
    over a columnar view runs this exact function, on the request
    thread.  Two stages:

    1. :meth:`ColumnarScorer.approximate_totals` scores every row in
       one array pass, each total within ``tol`` (:data:`APPROX_TOLERANCE`)
       of the exact one.
    2. The scalar :meth:`ColumnarScorer.score_row_bounded` rescores only
       the rows whose approximate total is >= the k-th best approximate
       total - 2*tol (or >= the heap's floor - tol).  Any row of the
       exact top-k qualifies, ties included: the k rows with
       approximate total >= A_k score exactly >= A_k - tol, so the
       exact k-th best is >= A_k - tol, and a row reaching it has an
       approximate total >= A_k - 2*tol.  The page, its scores and
       breakdowns come from the scalar kernels alone, so they are
       bit-identical to the object scorer by construction.

    The match count is exact too: a row whose approximate total is
    above ``tol`` (or above zero and bit-exact) scores exactly above
    zero, a bit-exact zero is exactly zero, and every other row at or
    below ``tol`` gets an exact rescore — so the count does not depend
    on the floor.

    Results are pushed with ``feature=None`` — only the page's survivors
    fetch their feature objects (in :meth:`SearchEngine.search`), so
    the scan never touches the feature dict.
    """
    approx, exact = cscorer.approximate_totals(rows)
    if len(approx) == 0:
        return 0
    tol = APPROX_TOLERANCE
    positive = approx > tol
    unsure = ~positive
    if exact is not None:
        positive |= exact & (approx > 0.0)
        unsure &= ~exact
    matches = int(np.count_nonzero(positive))
    # Bit-exact zeros can never make the page (nor can any zero total
    # of a non-empty query; an empty query's totals are all 1.0).
    selected = positive | unsure
    if len(approx) > top.limit:
        kth = np.partition(approx, len(approx) - top.limit)[
            len(approx) - top.limit
        ]
        threshold = kth - 2.0 * tol
        floor = top.floor()
        if floor is not None:
            threshold = max(threshold, floor[0] - tol)
        selected &= unsure | (approx >= threshold)
    rescore = np.flatnonzero(selected).tolist()
    telemetry = get_telemetry()
    if telemetry.enabled:
        telemetry.count("scan.rows_approximated", len(approx))
        telemetry.count("scan.rows_rescored", len(rescore))
    context = current_request()
    if context is not None:
        context.tally(
            rows_approximated=len(approx), rows_rescored=len(rescore)
        )
    is_empty = query.is_empty
    ids = cscorer.view.ids
    score_row = cscorer.score_row_bounded
    for index in rescore:
        row = rows[index]
        if unsure[index]:
            breakdown, scored_positive = score_row(row, None)
            if scored_positive:
                matches += 1
        else:
            breakdown, __ = score_row(row, top.floor())
            if breakdown is None:
                continue  # provably below the current top-k floor
        if breakdown.total <= 0.0 and not is_empty:
            continue
        top.push(
            SearchResult(
                dataset_id=ids[row],
                score=breakdown.total,
                breakdown=breakdown,
                feature=None,
            )
        )
    return matches


def hierarchy_digest(hierarchy: ConceptHierarchy | None) -> str | None:
    """A short content key for ``hierarchy`` (None for no hierarchy).

    A digest of :meth:`~repro.hierarchy.tree.ConceptHierarchy.fingerprint`:
    O(nodes) to compute, so engines compute it once, and cheap to hash
    per cache lookup.  Unlike ``id(hierarchy)`` it cannot be reused by a
    different hierarchy allocated at a freed one's address.
    """
    if hierarchy is None:
        return None
    digest = hashlib.blake2b(
        repr(hierarchy.fingerprint()).encode("utf-8"), digest_size=16
    )
    return digest.hexdigest()


def _kept_snapshot(
    catalog: CatalogStore, kept: CatalogSnapshot | None
) -> CatalogSnapshot:
    """The snapshot a search of ``catalog`` runs over.

    Reads the catalog version once: ``kept`` while it is at that
    version, else a fresh ``catalog.snapshot()`` (which a
    :class:`~repro.catalog.store.CatalogSnapshot` answers with itself).
    A writer racing the read only means the fresh snapshot is newer; it
    is consistent either way.
    """
    if kept is None or kept.version != catalog.version:
        kept = catalog.snapshot()
    return kept


class SearchEngine:
    """Ranked similarity search over a catalog store.

    Every search runs over one :class:`~repro.catalog.store.CatalogSnapshot`
    of the catalog, so its scores, ``total_matches`` and attached
    features all come from one version.  Over a snapshot that is the
    snapshot itself; over a live store the engine takes one per catalog
    version and reuses it while the version holds.  A cache miss scores
    every row of the snapshot's columnar view in one
    :func:`score_rows_into` pass on the calling thread.
    """

    def __init__(
        self,
        catalog: CatalogStore,
        hierarchy: ConceptHierarchy | None = None,
        config: ScoringConfig | None = None,
        cache: QueryCache | bool = True,
    ) -> None:
        self.catalog = catalog
        self.hierarchy = hierarchy
        # Attached by build_indexes(); no search reads them.
        self.indexes: CatalogIndexes | None = None
        self.config = config or ScoringConfig()
        # True: engine-private cache; False: no caching; or pass a
        # QueryCache instance to share one across engines.
        if cache is True:
            cache = QueryCache()
        self.cache = cache if isinstance(cache, QueryCache) else None
        self._snapshot: CatalogSnapshot | None = None

    @property
    def hierarchy(self) -> ConceptHierarchy | None:
        return self._hierarchy

    @hierarchy.setter
    def hierarchy(self, hierarchy: ConceptHierarchy | None) -> None:
        # The cache keys name the hierarchy by content; its key is
        # computed here, once per assignment, not per query.
        self._hierarchy = hierarchy
        self._hierarchy_key = hierarchy_digest(hierarchy)

    @property
    def hierarchy_key(self) -> str | None:
        """The cache keys' name for the hierarchy (its content digest)."""
        return self._hierarchy_key

    def build_indexes(self, cell_degrees: float = 0.5) -> CatalogIndexes:
        """Build (and attach) fresh indexes over the current catalog.

        No search reads them: every miss scores all rows in one array
        pass (DESIGN note 5).  Kept for callers that still build them.
        """
        with get_telemetry().span("index.build", size=len(self.catalog)):
            self.indexes = CatalogIndexes.build(
                list(self.catalog.features()),
                cell_degrees=cell_degrees,
                catalog_version=self.catalog.version,
            )
        return self.indexes

    def _current_snapshot(self) -> CatalogSnapshot:
        """The snapshot one search runs over (:func:`_kept_snapshot`)."""
        snapshot = self._snapshot = _kept_snapshot(
            self.catalog, self._snapshot
        )
        return snapshot

    def _cache_key(self, version: int, query: Query, limit: int):
        # Everything the result depends on, by content.  The hierarchy
        # key is taken when the hierarchy is assigned, so mutating a
        # hierarchy in place still requires an explicit cache.clear().
        return (
            version,
            query,
            limit,
            self.config,
            self._hierarchy_key,
        )

    def search(self, query: Query, limit: int = 10) -> SearchResults:
        """Top-``limit`` datasets by similarity to ``query``.

        Exact: a miss scores every dataset in one two-stage pass (see
        :func:`score_rows_into`), whose array stage also counts it into
        ``total_matches``, and the bounded top-k heap keeps precisely
        the datasets a full score-and-sort would.  Results are sorted by descending score, ties broken by
        dataset id for determinism.

        The page, its scores, ``total_matches`` and its features all
        come from one catalog snapshot, keyed by that snapshot's
        version.  Repeated queries are served from the version-keyed
        LRU cache (when enabled); any catalog mutation bumps the store
        version and misses past entries.  Each result carries the
        snapshot's own (immutable) feature object, attached once on a
        miss; every call returns a fresh page list, so a caller that
        reorders or trims its page cannot reach the cache.

        Raises:
            ValueError: if ``limit`` is not positive.
        """
        if limit <= 0:
            raise ValueError("limit must be positive")
        telemetry = get_telemetry()
        telemetry.count("search.queries")
        with telemetry.span("search.query", limit=limit) as span:
            results = self._search(
                self._current_snapshot(), query, limit, span
            )
        telemetry.observe("search.query_seconds", span.duration)
        return results

    def _search(
        self, snapshot: CatalogSnapshot, query: Query, limit: int, span
    ) -> SearchResults:
        """A fresh list of the page for ``query`` (the cache holds its
        own list of the same results)."""
        telemetry = get_telemetry()
        context = current_request()
        key = self._cache_key(snapshot.version, query, limit)
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                telemetry.count("search.cache_hits")
                span.set("cached", True)
                if context is not None:
                    context.annotate(
                        cache_hit=True,
                        rows_approximated=0,
                        rows_rescored=0,
                        results=len(cached),
                    )
                return cached.copy()
            telemetry.count("search.cache_misses")
        if context is not None:
            # score_rows_into adds its rows to these.
            context.annotate(
                cache_hit=False, rows_approximated=0, rows_rescored=0
            )
        scorer = QueryScorer(
            query, hierarchy=self.hierarchy, config=self.config
        )
        top = _TopK(limit)
        view = snapshot.columnar()
        matches = score_rows_into(
            ColumnarScorer(scorer, view), query, range(len(view)), top
        )
        get = snapshot.get
        results = SearchResults(
            (
                SearchResult(
                    result.dataset_id,
                    result.score,
                    result.breakdown,
                    get(result.dataset_id),
                )
                for result in top.sorted_results()
            ),
            total_matches=matches,
        )
        if context is not None:
            context.annotate(results=len(results))
        if self.cache is not None:
            self.cache.put(key, results)
            return results.copy()
        return results

    def stats(self) -> dict:
        """Operational counters: catalog version and size, cache state."""
        return {
            "catalog_version": self.catalog.version,
            "catalog_size": len(self.catalog),
            "cache": self.cache.stats() if self.cache is not None else None,
        }

    def score_all(self, query: Query) -> dict[str, float]:
        """Score of every dataset (no pruning) — used by quality metrics."""
        scorer = QueryScorer(
            query, hierarchy=self.hierarchy, config=self.config
        )
        view = self._current_snapshot().columnar()
        score_row = ColumnarScorer(scorer, view).score_row
        return {
            dataset_id: score_row(row).total
            for row, dataset_id in enumerate(view.ids)
        }


class BooleanSearchEngine:
    """The unranked hard-filter baseline.

    Matching rules (all present terms must hold):

    * location: the query point within ``radius_km`` of the dataset box
      (or query region intersecting it),
    * time: intervals overlap,
    * each variable term: some searchable variable has *exactly* the
      requested name (hierarchy expansion applied when provided, since
      portals do support category menus) and its observed range
      intersects the requested one.
    """

    def __init__(
        self,
        catalog: CatalogStore,
        hierarchy: ConceptHierarchy | None = None,
    ) -> None:
        self.catalog = catalog
        self.hierarchy = hierarchy
        self._snapshot: CatalogSnapshot | None = None

    def _matches(self, query: Query, feature: DatasetFeature) -> bool:
        if query.location is not None:
            if (
                feature.bbox.distance_km_to_point(query.location)
                > query.radius_km
            ):
                return False
        if query.region is not None:
            if not feature.bbox.intersects(query.region):
                return False
        if query.interval is not None:
            if not feature.interval.overlaps(query.interval):
                return False
        for term in query.variables:
            expansion = (
                self.hierarchy.expand(term.name)
                if self.hierarchy is not None
                else {term.name}
            )
            expansion = expansion | {term.name}
            hit = False
            for entry in feature.searchable_variables():
                if entry.name not in expansion:
                    continue
                if term.has_range:
                    lo = term.low if term.low is not None else entry.minimum
                    hi = term.high if term.high is not None else entry.maximum
                    if math.isnan(entry.minimum) or not (
                        entry.minimum <= hi and lo <= entry.maximum
                    ):
                        continue
                hit = True
                break
            if not hit:
                return False
        return True

    def search(self, query: Query, limit: int = 10) -> SearchResults:
        """Datasets matching *all* terms, in dataset-id order (no ranking).

        The scan continues past ``limit`` so ``total_matches`` is the
        exact match count — ``len(results) == limit`` alone cannot tell
        a full page from a truncated one.  It reads one catalog
        snapshot, kept across searches while the catalog version holds,
        so a concurrent writer cannot tear it.
        """
        if limit <= 0:
            raise ValueError("limit must be positive")
        out: list[SearchResult] = []
        total = 0
        snapshot = self._snapshot = _kept_snapshot(
            self.catalog, self._snapshot
        )
        for feature in snapshot.features():
            if not self._matches(query, feature):
                continue
            total += 1
            if len(out) < limit:
                out.append(
                    SearchResult(
                        dataset_id=feature.dataset_id,
                        score=1.0,
                        breakdown=ScoreBreakdown(total=1.0),
                        feature=feature,
                    )
                )
        return SearchResults(out, total_matches=total)
