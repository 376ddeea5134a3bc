"""Unit tests for repro.ui.render."""

from dataclasses import replace

import pytest

from repro.core import Query, SearchEngine, VariableTerm, summarize
from repro.geo import GeoPoint
from repro.hierarchy import default_taxonomy_links
from repro.ui import (
    render_search_html,
    render_search_text,
    render_summary_html,
    render_summary_text,
)


@pytest.fixture()
def results(raw_catalog):
    engine = SearchEngine(raw_catalog)
    query = Query(location=GeoPoint(46.1, -123.9))
    return query, engine.search(query, limit=5)



def with_first_variable(feature, **changes):
    """``feature`` with its first variable entry replaced by ``changes``."""
    first, *rest = feature.variables
    return replace(feature, variables=[replace(first, **changes), *rest])

class TestSearchPage:
    def test_text_contains_query_and_hits(self, results):
        query, hits = results
        page = render_search_text(query, hits)
        assert "Data Near Here" in page
        assert query.describe() in page
        for hit in hits:
            assert hit.dataset_id in page

    def test_text_shows_breakdown(self, results):
        query, hits = results
        page = render_search_text(query, hits)
        assert "why:" in page
        assert "location=" in page

    def test_text_empty_results(self, results):
        query, __ = results
        page = render_search_text(query, [])
        assert "(no results)" in page

    def test_html_escapes_and_structures(self, results):
        query, hits = results
        page = render_search_html(query, hits)
        assert page.startswith("<html>")
        assert "<table" in page
        assert str(len(hits)) and hits[0].dataset_id in page


class TestSummaryPage:
    def test_text_sections(self, raw_catalog):
        feature = next(iter(raw_catalog))
        page = render_summary_text(summarize(feature))
        assert "Dataset summary:" in page
        assert "variables (" in page
        assert feature.dataset_id in page

    def test_text_shows_written_origin_when_renamed(self, raw_catalog):
        feature = with_first_variable(
            next(iter(raw_catalog)), name="renamed_canonical"
        )
        page = render_summary_text(summarize(feature))
        assert "(was" in page

    def test_text_detail_only_section(self, raw_catalog):
        feature = with_first_variable(next(iter(raw_catalog)), excluded=True)
        page = render_summary_text(summarize(feature))
        assert "detail-only variables" in page
        assert "excluded from search" in page

    def test_taxonomy_links_rendered(self, raw_catalog):
        feature = with_first_variable(next(iter(raw_catalog)), name="salinity")
        summary = summarize(
            feature, taxonomy_links=default_taxonomy_links()
        )
        page = render_summary_text(summary)
        assert "gcmd:" in page

    def test_html_structure(self, raw_catalog):
        feature = next(iter(raw_catalog))
        page = render_summary_html(summarize(feature))
        assert "<h1>" in page
        assert "<table" in page

    def test_html_escapes_content(self, raw_catalog):
        feature = replace(next(iter(raw_catalog)), title="Station <script>")
        page = render_summary_html(summarize(feature))
        assert "<script>" not in page
        assert "&lt;script&gt;" in page
