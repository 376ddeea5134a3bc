"""Unit tests for repro.core.search (ranked engine + boolean baseline)."""

import pytest

from repro.catalog import DatasetFeature, MemoryCatalog, VariableEntry
from repro.core import (
    BooleanSearchEngine,
    Query,
    ScoringConfig,
    SearchEngine,
    VariableTerm,
)
from repro.geo import BoundingBox, GeoPoint, TimeInterval
from repro.hierarchy import vocabulary_hierarchy
from tests.search_oracle import object_matches, object_scores


def feature(dataset_id, lat, lon, t0, t1, variables):
    return DatasetFeature(
        dataset_id=dataset_id,
        title=dataset_id,
        platform="station",
        file_format="csv",
        bbox=BoundingBox(lat, lon, lat, lon),
        interval=TimeInterval(t0, t1),
        row_count=10,
        source_directory="",
        variables=[
            VariableEntry.from_written(name, "u", 10, lo, hi, (lo + hi) / 2,
                                       1.0)
            for name, lo, hi in variables
        ],
    )


@pytest.fixture()
def catalog():
    cat = MemoryCatalog()
    cat.upsert(feature("near_now_temp", 45.5, -124.4, 0, 1000,
                       [("water_temperature", 5, 10)]))
    cat.upsert(feature("near_now_salt", 45.5, -124.4, 0, 1000,
                       [("salinity", 0, 30)]))
    cat.upsert(feature("far_now_temp", 48.0, -124.4, 0, 1000,
                       [("water_temperature", 5, 10)]))
    cat.upsert(feature("near_then_temp", 45.5, -124.4, 10_000_000,
                       11_000_000, [("water_temperature", 5, 10)]))
    return cat


@pytest.fixture()
def engine(catalog):
    return SearchEngine(catalog, hierarchy=vocabulary_hierarchy())


def paper_query():
    return Query(
        location=GeoPoint(45.5, -124.4),
        interval=TimeInterval(0, 1000),
        variables=(VariableTerm("water_temperature", low=5, high=10),),
    )


class TestRankedSearch:
    def test_best_match_first(self, engine):
        results = engine.search(paper_query())
        assert results[0].dataset_id == "near_now_temp"
        assert results[0].score == pytest.approx(1.0)

    def test_partial_matches_included_and_ordered(self, engine):
        results = engine.search(paper_query(), limit=10)
        ids = [r.dataset_id for r in results]
        assert set(ids) == {
            "near_now_temp", "near_now_salt", "far_now_temp",
            "near_then_temp",
        }
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_limit(self, engine):
        assert len(engine.search(paper_query(), limit=2)) == 2

    def test_bad_limit_raises(self, engine):
        with pytest.raises(ValueError):
            engine.search(paper_query(), limit=0)

    def test_deterministic_tie_break(self, engine):
        results = engine.search(Query(), limit=10)
        ids = [r.dataset_id for r in results]
        assert ids == sorted(ids)

    def test_empty_query_matches_all(self, engine):
        assert len(engine.search(Query(), limit=10)) == 4

    def test_score_all(self, engine, catalog):
        query = paper_query()
        scores = engine.score_all(query)
        assert scores == object_scores(
            catalog, query, hierarchy=engine.hierarchy
        )
        assert len(scores) == 4
        assert scores["near_now_temp"] > scores["near_then_temp"]
        assert engine.search(query, limit=1).total_matches == object_matches(
            catalog, query, hierarchy=engine.hierarchy
        )


class TestIndexedSearch:
    def test_indexed_matches_unindexed(self, catalog):
        plain = SearchEngine(catalog, hierarchy=vocabulary_hierarchy())
        indexed = SearchEngine(catalog, hierarchy=vocabulary_hierarchy())
        indexed.build_indexes()
        query = paper_query()
        plain_ids = [r.dataset_id for r in plain.search(query, limit=10)]
        indexed_ids = [r.dataset_id for r in indexed.search(query, limit=10)]
        assert plain_ids == indexed_ids

    def test_stale_index_falls_back_to_scan(self, catalog):
        engine = SearchEngine(catalog, hierarchy=vocabulary_hierarchy())
        engine.build_indexes()
        catalog.upsert(feature("new_ds", 45.5, -124.4, 0, 1000,
                               [("water_temperature", 5, 10)]))
        ids = {r.dataset_id for r in engine.search(paper_query(), limit=10)}
        assert "new_ds" in ids

    def test_spatial_only_query_uses_index(self, catalog):
        engine = SearchEngine(catalog)
        engine.build_indexes()
        results = engine.search(
            Query(location=GeoPoint(45.5, -124.4)), limit=10
        )
        assert results[0].score == pytest.approx(1.0)


class TestBooleanBaseline:
    def test_full_match_found(self, catalog):
        baseline = BooleanSearchEngine(catalog)
        hits = baseline.search(paper_query(), limit=10)
        assert [h.dataset_id for h in hits] == ["near_now_temp"]

    def test_no_partial_credit(self, catalog):
        # Shift the query range outside every dataset: boolean finds
        # nothing, ranked search still returns ordered results.
        query = Query(
            location=GeoPoint(45.5, -124.4),
            interval=TimeInterval(0, 1000),
            variables=(VariableTerm("water_temperature", low=20, high=25),),
        )
        baseline = BooleanSearchEngine(catalog)
        assert baseline.search(query, limit=10) == []
        ranked = SearchEngine(catalog).search(query, limit=10)
        assert ranked

    def test_radius_matters(self, catalog):
        baseline = BooleanSearchEngine(catalog)
        narrow = Query(location=GeoPoint(45.5, -124.4), radius_km=1.0)
        wide = Query(location=GeoPoint(45.5, -124.4), radius_km=1000.0)
        assert len(baseline.search(narrow, limit=10)) == 3
        assert len(baseline.search(wide, limit=10)) == 4

    def test_hierarchy_expansion_supported(self, catalog):
        catalog.upsert(feature("fluor", 45.5, -124.4, 0, 1000,
                               [("fluorescence_375nm", 0, 5)]))
        baseline = BooleanSearchEngine(
            catalog, hierarchy=vocabulary_hierarchy()
        )
        hits = baseline.search(
            Query(variables=(VariableTerm("fluorescence"),)), limit=10
        )
        assert [h.dataset_id for h in hits] == ["fluor"]

    def test_region_filter(self, catalog):
        baseline = BooleanSearchEngine(catalog)
        hits = baseline.search(
            Query(region=BoundingBox(45.0, -125.0, 46.0, -124.0)), limit=10
        )
        assert {h.dataset_id for h in hits} == {
            "near_now_temp", "near_now_salt", "near_then_temp",
        }

    def test_bad_limit_raises(self, catalog):
        with pytest.raises(ValueError):
            BooleanSearchEngine(catalog).search(Query(), limit=0)

    def test_one_snapshot_per_catalog_version(self, catalog, monkeypatch):
        taken = {"n": 0}
        original = catalog.snapshot

        def counted(*args, **kwargs):
            taken["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(catalog, "snapshot", counted)
        baseline = BooleanSearchEngine(catalog)
        wide = Query(location=GeoPoint(45.5, -124.4), radius_km=1000.0)
        first = baseline.search(wide, limit=2)
        again = baseline.search(wide, limit=2)
        assert taken["n"] == 1
        assert [h.dataset_id for h in again] == [
            h.dataset_id for h in first
        ]
        assert again.total_matches == first.total_matches == 4
        catalog.upsert(feature("new", 45.5, -124.4, 0, 1000,
                               [("salinity", 0, 5)]))
        after = baseline.search(wide, limit=10)
        assert taken["n"] == 2
        assert after.total_matches == 5
        assert "new" in [h.dataset_id for h in after]


class TestResultsMetadataPreservation:
    """Regression: slicing/copying a page used to silently drop
    ``total_matches``/``truncated`` (plain-list fallback)."""

    def _page(self):
        from repro.core.search import SearchResult, SearchResults

        items = [
            SearchResult(
                dataset_id=f"d{i}",
                score=1.0 - i / 10.0,
                breakdown={},
                feature=feature(f"d{i}", 45.0, -124.0, 0, 1000,
                                [("water_temperature", 5, 10)]),
            )
            for i in range(5)
        ]
        return SearchResults(items, total_matches=42, truncated=True)

    def test_slice_preserves_metadata(self):
        from repro.core.search import SearchResults

        page = self._page()
        head = page[:3]
        assert isinstance(head, SearchResults)
        assert head.total_matches == 42
        assert head.truncated is True
        assert [r.dataset_id for r in head] == ["d0", "d1", "d2"]

    def test_slice_rederives_truncated_for_narrower_page(self):
        from repro.core.search import SearchResult, SearchResults

        full = SearchResults(
            [SearchResult(dataset_id=f"d{i}", score=1.0, breakdown={},
                          feature=feature(f"d{i}", 45.0, -124.0, 0, 1000,
                                          [("water_temperature", 5, 10)]))
             for i in range(4)],
            total_matches=4,
            truncated=False,
        )
        head = full[:2]
        assert head.total_matches == 4
        assert head.truncated is True  # 4 known matches, 2 shown

    def test_integer_index_returns_item(self):
        page = self._page()
        assert page[0].dataset_id == "d0"
        assert page[-1].dataset_id == "d4"

    def test_copy_preserves_metadata(self):
        from repro.core.search import SearchResults

        page = self._page()
        duplicate = page.copy()
        assert isinstance(duplicate, SearchResults)
        assert duplicate.total_matches == 42
        assert duplicate.truncated is True
        assert list(duplicate) == list(page)

    def test_concat_falls_back_to_plain_list(self):
        # Pinned: ``+`` has no meaningful combined total_matches, so it
        # deliberately degrades to list.  If this ever changes, the new
        # semantics must define the metadata merge explicitly.
        from repro.core.search import SearchResults

        combined = self._page() + self._page()
        assert type(combined) is list
        assert not isinstance(combined, SearchResults)
        assert len(combined) == 10

    def test_engine_page_slices_keep_match_count(self, catalog):
        # A non-full page carries the exact match count; slicing it must
        # keep that count and mark the narrower page truncated.
        engine = SearchEngine(catalog, cache=False)
        results = engine.search(
            Query(variables=(VariableTerm("water_temperature"),)), limit=10
        )
        assert results.total_matches == len(results) >= 2
        assert not results.truncated
        head = results[:1]
        assert head.total_matches == results.total_matches
        assert head.truncated
