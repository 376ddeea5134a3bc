"""Unit tests for repro.core.summary."""

from dataclasses import replace

from repro.catalog import DatasetFeature, VariableEntry
from repro.core import summarize
from repro.geo import BoundingBox, TimeInterval
from repro.hierarchy import default_taxonomy_links


def make_feature(point_footprint=True):
    bbox = (
        BoundingBox(46.1, -123.9, 46.1, -123.9)
        if point_footprint
        else BoundingBox(46.0, -124.0, 46.3, -123.5)
    )
    searchable = replace(
        VariableEntry.from_written("salt", "psu", 10, 0.0, 30.0, 15.0, 3.0),
        name="salinity",
        unit="PSU",
    )
    excluded = replace(
        VariableEntry.from_written("qa_level", "1", 10, 0.0, 2.0, 1.0, 0.5),
        excluded=True,
    )
    return DatasetFeature(
        dataset_id="stations/x/x.csv",
        title="Station X",
        platform="station",
        file_format="csv",
        bbox=bbox,
        interval=TimeInterval(0.0, 86400.0),
        row_count=10,
        source_directory="stations/x",
        attributes={"station": "x", "vessel": "none"},
        variables=[searchable, excluded],
    )


class TestSummarize:
    def test_header_fields(self):
        summary = summarize(make_feature())
        assert summary.dataset_id == "stations/x/x.csv"
        assert summary.title == "Station X"
        assert summary.platform == "station"
        assert summary.row_count == 10

    def test_point_footprint_renders_as_point(self):
        assert "N" in summarize(make_feature()).location_text

    def test_box_footprint_renders_as_range(self):
        summary = summarize(make_feature(point_footprint=False))
        assert ".." in summary.location_text

    def test_excluded_split_into_detail_only(self):
        # The Table row 4 desired result: excluded from search, shown in
        # detailed dataset views.
        summary = summarize(make_feature())
        assert [v.name for v in summary.searchable] == ["salinity"]
        assert [v.name for v in summary.detail_only] == ["qa_level"]
        assert summary.variable_count == 2

    def test_written_name_carried(self):
        summary = summarize(make_feature())
        assert summary.searchable[0].written_name == "salt"

    def test_attributes_sorted(self):
        summary = summarize(make_feature())
        assert summary.attributes == (
            ("station", "x"), ("vessel", "none"),
        )

    def test_taxonomy_links_attached(self):
        summary = summarize(
            make_feature(), taxonomy_links=default_taxonomy_links()
        )
        links = summary.searchable[0].taxonomy_links
        assert any(link.startswith("cf:") for link in links)
        assert any(link.startswith("gcmd:") for link in links)

    def test_no_links_without_registry(self):
        summary = summarize(make_feature())
        assert summary.searchable[0].taxonomy_links == ()
