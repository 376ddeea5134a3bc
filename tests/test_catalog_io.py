"""Unit tests for repro.catalog.io (JSON interchange)."""

import json
import math
from dataclasses import replace

import pytest

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
