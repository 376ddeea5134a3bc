"""The catalog stores' monotonic version counter (staleness detection)."""

import pytest

from repro.catalog import (
    DatasetFeature,
    MemoryCatalog,
    SqliteCatalog,
    VariableEntry,
)
from repro.geo import BoundingBox, TimeInterval


def feature(dataset_id, name="water_temperature", lat=45.0):
    return DatasetFeature(
        dataset_id=dataset_id,
        title=dataset_id,
        platform="station",
        file_format="csv",
        bbox=BoundingBox(lat, -124.0, lat + 0.1, -123.9),
        interval=TimeInterval(0.0, 1000.0),
        row_count=10,
        source_directory="",
        variables=[
            VariableEntry.from_written(name, "degC", 10, 0.0, 10.0, 5.0, 1.0)
        ],
    )


@pytest.fixture(params=["memory", "sqlite"])
def store(request):
    if request.param == "memory":
        yield MemoryCatalog()
    else:
        with SqliteCatalog() as catalog:
            yield catalog


class TestVersionCounter:
    def test_fresh_store_starts_at_zero(self, store):
        assert store.version == 0

    def test_upsert_bumps(self, store):
        store.upsert(feature("a"))
        assert store.version == 1
        store.upsert(feature("b"))
        assert store.version == 2

    def test_same_size_replacement_bumps(self, store):
        """The staleness signal a length comparison cannot see."""
        store.upsert(feature("a", lat=45.0))
        before = store.version
        store.upsert(feature("a", lat=48.0))
        assert len(store) == 1
        assert store.version > before

    def test_remove_bumps(self, store):
        store.upsert(feature("a"))
        before = store.version
        store.remove("a")
        assert store.version > before

    def test_failed_remove_does_not_bump(self, store):
        store.upsert(feature("a"))
        before = store.version
        with pytest.raises(KeyError):
            store.remove("missing")
        assert store.version == before

    def test_clear_bumps(self, store):
        store.upsert(feature("a"))
        before = store.version
        store.clear()
        assert store.version > before

    def test_rename_variables_bumps_only_on_change(self, store):
        store.upsert(feature("a", name="water_temp"))
        before = store.version
        assert store.rename_variables({"water_temp": "water_temperature"})
        bumped = store.version
        assert bumped == before + 1
        assert store.rename_variables({"absent": "whatever"}) == 0
        assert store.version == bumped


class TestSqlitePersistence:
    def test_version_survives_reconnect(self, tmp_path):
        path = str(tmp_path / "catalog.db")
        with SqliteCatalog(path) as catalog:
            catalog.upsert(feature("a"))
            catalog.upsert(feature("b"))
            persisted = catalog.version
        with SqliteCatalog(path) as reopened:
            assert reopened.version == persisted

    def test_second_connection_sees_bumps(self, tmp_path):
        path = str(tmp_path / "catalog.db")
        with SqliteCatalog(path) as writer, SqliteCatalog(path) as reader:
            before = reader.version
            writer.upsert(feature("a"))
            assert reader.version > before
