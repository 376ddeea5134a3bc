"""Unit tests for both catalog stores (memory and SQLite), parametrized
so the two implementations prove behaviourally identical."""

from dataclasses import FrozenInstanceError, replace

import pytest

from repro.catalog import (
    DatasetFeature,
    DatasetNotFoundError,
    MemoryCatalog,
    SqliteCatalog,
    VariableEntry,
)
from repro.geo import BoundingBox, TimeInterval


@pytest.fixture(params=["memory", "sqlite"])
def store(request):
    if request.param == "memory":
        yield MemoryCatalog()
    else:
        catalog = SqliteCatalog()
        yield catalog
        catalog.close()


def make_feature(dataset_id="d1", variable_names=("salinity", "depth")):
    return DatasetFeature(
        dataset_id=dataset_id,
        title=f"Dataset {dataset_id}",
        platform="station",
        file_format="csv",
        bbox=BoundingBox(46.0, -124.0, 46.2, -123.8),
        interval=TimeInterval(100.0, 200.0),
        row_count=50,
        source_directory="stations/x",
        attributes={"station": "x", "title": f"Dataset {dataset_id}"},
        variables=[
            VariableEntry.from_written(name, "PSU", 50, 0.0, 30.0, 15.0, 2.0)
            for name in variable_names
        ],
    )


class TestCrud:
    def test_upsert_get_roundtrip(self, store):
        feature = make_feature()
        store.upsert(feature)
        loaded = store.get("d1")
        assert loaded.dataset_id == "d1"
        assert loaded.title == "Dataset d1"
        assert loaded.bbox == feature.bbox
        assert loaded.interval == feature.interval
        assert loaded.attributes == feature.attributes
        assert [v.name for v in loaded.variables] == ["salinity", "depth"]

    def test_get_missing_raises(self, store):
        with pytest.raises(DatasetNotFoundError):
            store.get("nope")

    def test_upsert_replaces(self, store):
        store.upsert(make_feature())
        updated = make_feature(variable_names=("turbidity",))
        store.upsert(updated)
        assert len(store) == 1
        assert store.get("d1").variable_names() == ["turbidity"]

    def test_remove(self, store):
        store.upsert(make_feature())
        store.remove("d1")
        assert len(store) == 0

    def test_remove_missing_raises(self, store):
        with pytest.raises(DatasetNotFoundError):
            store.remove("nope")

    def test_dataset_ids_sorted(self, store):
        for dataset_id in ["b", "a", "c"]:
            store.upsert(make_feature(dataset_id))
        assert store.dataset_ids() == ["a", "b", "c"]

    def test_clear(self, store):
        store.upsert(make_feature())
        store.clear()
        assert len(store) == 0
        assert store.dataset_ids() == []

    def test_contains(self, store):
        store.upsert(make_feature())
        assert store.contains("d1")
        assert not store.contains("d2")

    def test_get_returns_an_immutable_record(self, store):
        store.upsert(make_feature())
        loaded = store.get("d1")
        with pytest.raises(FrozenInstanceError):
            loaded.title = "mutated"
        with pytest.raises(FrozenInstanceError):
            loaded.variables[0].name = "mutated"
        with pytest.raises(AttributeError):
            loaded.variables.append(loaded.variables[0])
        with pytest.raises(TypeError):
            loaded.attributes["station"] = "y"
        assert store.get("d1") == make_feature()

    def test_iteration_yields_all(self, store):
        store.upsert(make_feature("a"))
        store.upsert(make_feature("b"))
        assert [f.dataset_id for f in store] == ["a", "b"]


class TestBulkOperations:
    def test_rename_variables(self, store):
        store.upsert(make_feature("a"))
        store.upsert(make_feature("b"))
        changed = store.rename_variables(
            {"salinity": "practical_salinity"}, resolution="test"
        )
        assert changed == 2
        for dataset_id in ("a", "b"):
            entry = store.get(dataset_id).variable("practical_salinity")
            assert entry.written_name == "salinity"
            assert entry.resolution == "test"

    def test_rename_noop_mapping(self, store):
        store.upsert(make_feature())
        assert store.rename_variables({"salinity": "salinity"}) == 0
        assert store.rename_variables({"absent": "x"}) == 0

    def test_rename_is_one_batch_equal_to_a_cold_store(self, store):
        store.upsert_many(
            [make_feature("a"), make_feature("b", ("depth",)), make_feature("c")]
        )
        before = store.snapshot()
        version = store.version
        changed = store.rename_variables(
            {"salinity": "practical_salinity"}, resolution="test"
        )
        assert changed == 2
        assert store.version == version + 1
        # A store written cold with the renamed features holds the same.
        cold = MemoryCatalog()
        for feature in before.features():
            cold.upsert(
                replace(
                    feature,
                    variables=[
                        replace(v, name="practical_salinity", resolution="test")
                        if v.name == "salinity"
                        else v
                        for v in feature.variables
                    ],
                )
            )
        assert list(store.features()) == list(cold.features())
        assert store.get("b") == before.get("b")  # untouched
        # The earlier snapshot keeps the old features.
        assert before.version == version
        assert before.get("a") == make_feature("a")
        assert before.get("c").variable_names() == ["salinity", "depth"]

    def test_variable_name_counts(self, store):
        store.upsert(make_feature("a"))
        store.upsert(make_feature("b", variable_names=("salinity",)))
        counts = store.variable_name_counts()
        assert counts["salinity"] == 2
        assert counts["depth"] == 1

    def test_iter_variables(self, store):
        store.upsert(make_feature())
        pairs = list(store.iter_variables())
        assert len(pairs) == 2
        assert pairs[0][0] == "d1"


class TestSqliteSpecific:
    def test_persistence_across_connections(self, tmp_path):
        path = str(tmp_path / "catalog.db")
        with SqliteCatalog(path) as catalog:
            catalog.upsert(make_feature())
        with SqliteCatalog(path) as catalog:
            assert catalog.get("d1").title == "Dataset d1"

    def test_context_manager_closes(self, tmp_path):
        path = str(tmp_path / "catalog.db")
        with SqliteCatalog(path) as catalog:
            catalog.upsert(make_feature())
        with pytest.raises(Exception):
            catalog.dataset_ids()

    def test_bulk_read_interns_repeated_strings(self):
        # A snapshot holds each distinct name/unit/context once; the
        # values themselves are unchanged.
        with SqliteCatalog() as catalog:
            catalog.upsert_many([make_feature("d1"), make_feature("d2")])
            first, second = catalog.features()
            assert first == make_feature("d1")
            assert second == make_feature("d2")
            for a, b in zip(first.variables, second.variables):
                for field in (
                    "written_name", "written_unit", "name", "unit",
                    "context", "resolution",
                ):
                    assert getattr(a, field) is getattr(b, field), field

    def test_variable_order_preserved(self):
        with SqliteCatalog() as catalog:
            names = tuple(f"v{i:02d}" for i in range(10))
            catalog.upsert(make_feature(variable_names=names))
            assert tuple(catalog.get("d1").variable_names()) == names
