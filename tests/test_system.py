"""Unit tests for the DataNearHere facade."""

from datetime import datetime

import pytest

from repro import (
    DataNearHere,
    GeoPoint,
    NotWrangledError,
    Query,
    TimeInterval,
    VariableTerm,
)


@pytest.fixture()
def system(messy_fs):
    fs, __ = messy_fs
    return DataNearHere(fs)


def paper_query():
    return Query(
        location=GeoPoint(45.5, -124.4),
        interval=TimeInterval.from_datetimes(
            datetime(2010, 5, 1), datetime(2010, 8, 31)
        ),
        variables=(VariableTerm("water_temperature", low=5, high=10),),
    )


class TestLifecycle:
    def test_search_before_wrangle_raises(self, system):
        with pytest.raises(NotWrangledError):
            system.search(paper_query())

    def test_wrangle_then_search(self, system):
        report = system.wrangle()
        assert report.total_changes > 0
        results = system.search(paper_query(), limit=5)
        assert results
        assert results[0].score >= results[-1].score

    def test_validate_works_anytime(self, system):
        system.wrangle()
        assert system.validate().checks_run > 0

    def test_rewrangle_refreshes_engine(self, system):
        system.wrangle()
        first = {r.dataset_id for r in system.search(paper_query(), limit=50)}
        victim = next(iter(first))
        system.state.fs.remove(victim)
        system.wrangle()
        second = {
            r.dataset_id for r in system.search(paper_query(), limit=50)
        }
        assert victim not in second


class TestFastPath:
    def test_repeat_search_hits_cache(self, system):
        system.wrangle()
        first = system.search(paper_query(), limit=5)
        second = system.search(paper_query(), limit=5)
        assert [r.dataset_id for r in first] == [
            r.dataset_id for r in second
        ]
        assert system.search_stats()["cache"]["hits"] >= 1

    def test_mutation_after_wrangle_invalidates_everything(self, system):
        """Editing the published catalog must stale the query cache — no
        stale page may be served."""
        system.wrangle()
        baseline = system.search(paper_query(), limit=5)
        engine = system.engine
        victim = baseline[0].dataset_id
        engine.catalog.remove(victim)
        hits_before = engine.cache.stats()["hits"]
        after = system.search(paper_query(), limit=5)
        assert victim not in {r.dataset_id for r in after}
        # The post-mutation query missed: the old entry's version key no
        # longer matches.
        assert engine.cache.stats()["hits"] == hits_before

    def test_rewrangle_is_incremental(self, system):
        """Re-wrangling reuses the engine, which serves the new catalog
        version."""
        system.wrangle()
        engine = system.engine
        victim = system.engine.catalog.dataset_ids()[0]
        system.state.fs.remove(victim)
        system.wrangle()
        assert system.engine is engine
        assert victim not in set(engine.catalog.dataset_ids())
        hits = {r.dataset_id for r in system.search(paper_query(), limit=50)}
        assert victim not in hits

    def test_unchanged_rewrangle_keeps_cache_warm(self, system):
        system.wrangle()
        system.search(paper_query(), limit=5)
        misses = system.engine.cache.stats()["misses"]
        system.wrangle()  # nothing changed in the archive
        system.search(paper_query(), limit=5)
        stats = system.search_stats()["cache"]
        assert stats["misses"] == misses
        assert stats["hits"] >= 1


class TestPages:
    def test_search_page(self, system):
        system.wrangle()
        page = system.search_page(paper_query(), limit=3)
        assert "Data Near Here" in page

    def test_summary_page(self, system):
        system.wrangle()
        hit = system.search(paper_query(), limit=1)[0]
        page = system.summary_page(hit.dataset_id)
        assert hit.dataset_id in page


class TestBaseline:
    def test_baseline_engine_shares_catalog(self, system):
        system.wrangle()
        baseline = system.baseline_engine()
        assert len(baseline.catalog) == len(system.engine.catalog)

    def test_ranked_dominates_baseline_on_partial_match(self, system):
        system.wrangle()
        query = Query(
            location=GeoPoint(45.5, -124.4),
            radius_km=5.0,
            interval=TimeInterval.from_datetimes(
                datetime(2010, 5, 1), datetime(2010, 5, 2)
            ),
            variables=(VariableTerm("nitrate", low=39.0, high=40.0),),
        )
        boolean_hits = system.baseline_engine().search(query, limit=10)
        ranked_hits = system.search(query, limit=10)
        assert len(ranked_hits) >= len(boolean_hits)
        assert ranked_hits  # ranked always has something to offer


class TestCuratorIntegration:
    def test_curator_session_shares_state(self, system):
        session = system.curator_session()
        session.run()
        # The facade's engine sees the session's published catalog after
        # re-wrangling through the facade.
        system.wrangle()
        assert len(system.engine.catalog) > 0


class TestSimilar:
    def test_similar_over_published_catalog(self, system):
        system.wrangle()
        seed = system.engine.catalog.dataset_ids()[0]
        neighbours = system.similar(seed, limit=3)
        assert len(neighbours) == 3
        assert all(n.dataset_id != seed for n in neighbours)
        scores = [n.score for n in neighbours]
        assert scores == sorted(scores, reverse=True)

    def test_similar_before_wrangle_raises(self, system):
        with pytest.raises(NotWrangledError):
            system.similar("anything")
