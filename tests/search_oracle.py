"""The scalar reference oracle for ranked search.

The object scorer: every dataset's :class:`DatasetFeature` is scored by
:meth:`QueryScorer.score_bounded` into the same bounded top-k heap the
engine fills.  There is no columnar view, no array pass and no cache,
so the exactness tests and ``benchmarks/bench_perf_search.py`` hold the
engine's pages, scores, breakdowns and ``total_matches`` equal to it.

Both functions read ``catalog`` through ``dataset_ids()``/``get()`` or
iteration: pass a snapshot, or a live store no writer touches during
the call.
"""

from __future__ import annotations

from repro.catalog.store import CatalogStore
from repro.core.query import Query
from repro.core.scoring import QueryScorer, ScoringConfig
from repro.core.search import SearchResult, SearchResults, _TopK
from repro.hierarchy import ConceptHierarchy


def object_search(
    catalog: CatalogStore,
    query: Query,
    limit: int = 10,
    hierarchy: ConceptHierarchy | None = None,
    config: ScoringConfig | None = None,
) -> SearchResults:
    """The top-``limit`` page by scoring every feature object.

    ``total_matches`` counts the datasets scoring above zero: a dataset
    the bounded score proves below the heap's floor skipped its variable
    terms, so it is counted from its full score.
    """
    if limit <= 0:
        raise ValueError("limit must be positive")
    scorer = QueryScorer(query, hierarchy=hierarchy, config=config)
    top = _TopK(limit)
    matches = 0
    is_empty = query.is_empty
    for dataset_id in catalog.dataset_ids():
        feature = catalog.get(dataset_id)
        breakdown, positive = scorer.score_bounded(feature, top.floor())
        if breakdown is None:
            if scorer.score(feature).total > 0.0:
                matches += 1
            continue
        if positive:
            matches += 1
        if breakdown.total <= 0.0 and not is_empty:
            continue
        top.push(
            SearchResult(
                dataset_id=dataset_id,
                score=breakdown.total,
                breakdown=breakdown,
                feature=feature,
            )
        )
    return SearchResults(top.sorted_results(), total_matches=matches)


def object_scores(
    catalog: CatalogStore,
    query: Query,
    hierarchy: ConceptHierarchy | None = None,
    config: ScoringConfig | None = None,
) -> dict[str, float]:
    """The full score of every dataset (the twin of ``score_all``)."""
    scorer = QueryScorer(query, hierarchy=hierarchy, config=config)
    return {
        feature.dataset_id: scorer.score(feature).total
        for feature in catalog
    }


def object_matches(
    catalog: CatalogStore,
    query: Query,
    hierarchy: ConceptHierarchy | None = None,
    config: ScoringConfig | None = None,
) -> int:
    """The exact ``total_matches``: datasets scoring above zero (every
    dataset, for the empty query)."""
    return sum(
        1
        for total in object_scores(catalog, query, hierarchy, config).values()
        if total > 0.0 or query.is_empty
    )
