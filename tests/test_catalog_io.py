"""Unit tests for repro.catalog.io (JSON interchange)."""

import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import (
    CatalogFormatError,
    MemoryCatalog,
    SqliteCatalog,
    dump_catalog,
    feature_from_dict,
    feature_to_dict,
    load_catalog,
)


class TestRoundTrip:
    def test_memory_roundtrip(self, raw_catalog):
        text = dump_catalog(raw_catalog)
        restored = MemoryCatalog()
        count = load_catalog(text, restored)
        assert count == len(raw_catalog)
        assert restored.dataset_ids() == raw_catalog.dataset_ids()
        for dataset_id in raw_catalog.dataset_ids():
            a = raw_catalog.get(dataset_id)
            b = restored.get(dataset_id)
            assert a.bbox == b.bbox
            assert a.interval == b.interval
            assert a.attributes == b.attributes
            assert [v.name for v in a.variables] == [
                v.name for v in b.variables
            ]
            assert [v.minimum for v in a.variables] == [
                v.minimum for v in b.variables
            ]

    def test_cross_store_roundtrip(self, raw_catalog):
        text = dump_catalog(raw_catalog)
        with SqliteCatalog() as sqlite_catalog:
            load_catalog(text, sqlite_catalog)
            assert len(sqlite_catalog) == len(raw_catalog)

    def test_output_is_strict_json(self, raw_catalog):
        text = dump_catalog(raw_catalog, indent=2)
        payload = json.loads(text)
        assert payload["format"] == "repro-metadata-catalog"
        assert payload["version"] == 1

    def test_nan_statistics_encode_as_null(self, raw_catalog):
        feature = raw_catalog.get(raw_catalog.dataset_ids()[0])
        first, *rest = feature.variables
        first = replace(
            first,
            minimum=math.nan,
            maximum=math.nan,
            mean=math.nan,
            stddev=math.nan,
            count=0,
        )
        raw_catalog.upsert(replace(feature, variables=[first, *rest]))
        text = dump_catalog(raw_catalog)
        json.loads(text)  # must not contain bare NaN tokens
        restored = MemoryCatalog()
        load_catalog(text, restored)
        entry = restored.get(feature.dataset_id).variables[0]
        assert math.isnan(entry.minimum)

    def test_flags_preserved(self, raw_catalog):
        feature = raw_catalog.get(raw_catalog.dataset_ids()[0])
        first, *rest = feature.variables
        first = replace(
            first, excluded=True, ambiguous=True, resolution="curator"
        )
        raw_catalog.upsert(replace(feature, variables=[first, *rest]))
        restored = MemoryCatalog()
        load_catalog(dump_catalog(raw_catalog), restored)
        entry = restored.get(feature.dataset_id).variables[0]
        assert entry.excluded and entry.ambiguous
        assert entry.resolution == "curator"


class TestFeatureDicts:
    def test_dict_roundtrip(self, raw_catalog):
        feature = next(iter(raw_catalog))
        clone = feature_from_dict(feature_to_dict(feature))
        assert clone.dataset_id == feature.dataset_id
        assert clone.bbox == feature.bbox

    def test_missing_field_raises(self):
        with pytest.raises(CatalogFormatError):
            feature_from_dict({"dataset_id": "x"})

    def test_bad_bbox_raises(self, raw_catalog):
        data = feature_to_dict(next(iter(raw_catalog)))
        data["bbox"] = [99.0, 0.0, 98.0, 0.0]  # min > max
        with pytest.raises(CatalogFormatError):
            feature_from_dict(data)


class TestLoadErrors:
    def test_not_json(self):
        with pytest.raises(CatalogFormatError):
            load_catalog("not json at all", MemoryCatalog())

    def test_missing_marker(self):
        with pytest.raises(CatalogFormatError):
            load_catalog('{"datasets": []}', MemoryCatalog())

    def test_wrong_version(self):
        text = json.dumps(
            {"format": "repro-metadata-catalog", "version": 99,
             "datasets": []}
        )
        with pytest.raises(CatalogFormatError):
            load_catalog(text, MemoryCatalog())

    def test_empty_catalog_roundtrip(self):
        text = dump_catalog(MemoryCatalog())
        assert load_catalog(text, MemoryCatalog()) == 0


# -- malformed records fail typed ---------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
FEATURE_FIELDS = [
    "dataset_id", "title", "platform", "file_format", "bbox", "interval",
    "row_count", "source_directory", "attributes", "content_hash",
    "variables",
]
VARIABLE_FIELDS = [
    "written_name", "written_unit", "name", "unit", "count", "minimum",
    "maximum", "mean", "stddev", "excluded", "ambiguous", "context",
    "resolution",
]


def catalog_text(record) -> str:
    return json.dumps(
        {"format": "repro-metadata-catalog", "version": 1,
         "datasets": [record]}
    )


def valid_record() -> dict:
    return {
        "dataset_id": "stations/x.csv", "title": "X", "platform": "station",
        "file_format": "csv", "bbox": [46.0, -124.0, 46.5, -123.5],
        "interval": [0.0, 86400.0], "row_count": 10,
        "source_directory": "stations", "attributes": {"b": "1", "a": "2"},
        "content_hash": "h",
        "variables": [{
            "written_name": "sal", "written_unit": "psu", "name": "sal",
            "unit": "psu", "count": 10, "minimum": 1.0, "maximum": 2.0,
            "mean": 1.5, "stddev": None, "excluded": False,
            "ambiguous": False, "context": "", "resolution": "",
        }],
    }


class TestMalformedRecords:
    @given(
        field=st.sampled_from(
            [("feature", f) for f in FEATURE_FIELDS]
            + [("variable", f) for f in VARIABLE_FIELDS]
        ),
        value=json_values,
    )
    @settings(max_examples=300, deadline=None)
    def test_a_record_loads_or_raises_catalog_format_error(
        self, field, value
    ):
        record = valid_record()
        where, name = field
        (record if where == "feature" else record["variables"][0])[
            name
        ] = value
        text = catalog_text(record)
        try:
            load_catalog(text, MemoryCatalog())
        except CatalogFormatError:
            return
        # What loads is in stored form: SQLite keeps it byte for byte.
        memory, sqlite = MemoryCatalog(), SqliteCatalog()
        load_catalog(text, memory)
        load_catalog(text, sqlite)
        assert dump_catalog(memory) == dump_catalog(sqlite)
        sqlite.close()

    def test_infinite_count_raises_catalog_format_error(self):
        record = valid_record()
        text = catalog_text(record).replace('"count": 10', '"count": 1e999')
        assert "1e999" in text
        with pytest.raises(CatalogFormatError):
            load_catalog(text, MemoryCatalog())

    def test_int_dataset_id_raises_catalog_format_error(self):
        record = valid_record()
        record["dataset_id"] = 5
        with pytest.raises(CatalogFormatError):
            load_catalog(catalog_text(record), MemoryCatalog())

    def test_datasets_must_be_a_list(self):
        text = json.dumps(
            {"format": "repro-metadata-catalog", "version": 1,
             "datasets": 5}
        )
        with pytest.raises(CatalogFormatError):
            load_catalog(text, MemoryCatalog())
