"""Unit tests for repro.core.facets."""

from dataclasses import replace

import pytest

from repro.catalog import MemoryCatalog
from repro.core import (
    compute_facets,
    hierarchy_counts,
    render_facet_sidebar,
    render_menu_with_counts,
)
from repro.hierarchy import ConceptHierarchy, vocabulary_hierarchy

from tests.test_core_search import feature  # reuse the feature factory


@pytest.fixture()
def catalog():
    cat = MemoryCatalog()
    cat.upsert(feature("a", 46.0, -124.0, 0, 86400 * 400,
                       [("water_temperature", 5, 15), ("salinity", 0, 30)]))
    cat.upsert(feature("b", 46.1, -124.0, 0, 1000,
                       [("salinity", 0, 30),
                        ("fluorescence_375nm", 0, 5)]))
    cat.upsert(feature("c", 46.2, -124.0, 0, 1000,
                       [("fluorescence_400nm", 0, 5)]))
    return cat


class TestComputeFacets:
    def test_variable_counts(self, catalog):
        facets = compute_facets(catalog)
        assert facets.variables["salinity"] == 2
        assert facets.variables["water_temperature"] == 1

    def test_platform_counts(self, catalog):
        facets = compute_facets(catalog)
        assert facets.platforms == {"station": 3}

    def test_year_span_counts_every_year(self, catalog):
        facets = compute_facets(catalog)
        # dataset 'a' spans 400 days from epoch: 1970 and 1971.
        assert facets.years[1970] == 3
        assert facets.years[1971] == 1

    def test_excluded_variables_not_counted(self, catalog):
        f = catalog.get("a")
        first, *rest = f.variables
        catalog.upsert(
            replace(f, variables=[replace(first, excluded=True), *rest])
        )
        facets = compute_facets(catalog)
        assert "water_temperature" not in facets.variables

    def test_top_variables_ordering(self, catalog):
        facets = compute_facets(catalog)
        top = facets.top_variables(2)
        assert top[0] == ("salinity", 2)


class TestHierarchyCounts:
    def test_rollup_counts_datasets_once(self, catalog):
        counts = hierarchy_counts(catalog, vocabulary_hierarchy())
        # 'fluorescence' covers datasets b and c (one each), not the
        # variable count.
        assert counts["fluorescence"] == 2

    def test_parent_includes_child_datasets(self, catalog):
        counts = hierarchy_counts(catalog, vocabulary_hierarchy())
        assert counts["temperature"] == 1  # dataset 'a'

    def test_unknown_names_ignored(self, catalog):
        f = catalog.get("c")
        first, *rest = f.variables
        catalog.upsert(
            replace(f, variables=[replace(first, name="mystery_sensor"), *rest])
        )
        counts = hierarchy_counts(catalog, vocabulary_hierarchy())
        assert "mystery_sensor" not in counts


class TestRendering:
    def test_menu_with_counts(self, catalog):
        menu = render_menu_with_counts(catalog, vocabulary_hierarchy())
        assert "- salinity (2)" in menu
        assert "fluorescence * (2)" in menu
        # Variables absent from the catalog are collapsed away.
        assert "wind_speed" not in menu

    def test_menu_empty_catalog(self):
        menu = render_menu_with_counts(
            MemoryCatalog(), vocabulary_hierarchy()
        )
        assert menu == ""

    def test_sidebar_sections(self, catalog):
        sidebar = render_facet_sidebar(catalog)
        assert "platforms:" in sidebar
        assert "years:" in sidebar
        assert "top variables:" in sidebar
        assert "station" in sidebar

    def test_menu_with_custom_hierarchy(self, catalog):
        hierarchy = ConceptHierarchy()
        hierarchy.add("optics", measurable=False)
        hierarchy.add("fluorescence_375nm", parent="optics")
        menu = render_menu_with_counts(catalog, hierarchy)
        assert "- optics * (1)" in menu
