"""Property test: the two catalog stores are observably identical.

Random operation sequences applied to a MemoryCatalog and a SqliteCatalog
must leave both in the same observable state — ids, features, variable
names and their provenance.  This is what lets the rest of the system treat
``CatalogStore`` as one thing.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import (
    DatasetFeature,
    MemoryCatalog,
    SqliteCatalog,
    VariableEntry,
)
from repro.geo import BoundingBox, TimeInterval

ids = st.sampled_from(["a", "b", "c", "d"])
names = st.sampled_from(["salinity", "temp", "turbidity", "qa_level"])


def make_feature(dataset_id: str, variable_names: tuple[str, ...]):
    return DatasetFeature(
        dataset_id=dataset_id,
        title=f"T {dataset_id}",
        platform="station",
        file_format="csv",
        bbox=BoundingBox(46.0, -124.0, 46.2, -123.8),
        interval=TimeInterval(0.0, 100.0),
        row_count=5,
        source_directory="d",
        attributes={"k": dataset_id},
        variables=[
            VariableEntry.from_written(n, "u", 5, 0.0, 1.0, 0.5, 0.1)
            for n in variable_names
        ],
    )


operations = st.one_of(
    st.tuples(st.just("upsert"), ids,
              st.lists(names, min_size=1, max_size=3, unique=True)),
    st.tuples(st.just("remove"), ids),
    st.tuples(st.just("upsert_many"),
              st.lists(st.tuples(ids, st.lists(names, min_size=1,
                                               max_size=2, unique=True)),
                       max_size=3)),
    st.tuples(st.just("remove_many"),
              st.lists(ids, max_size=3)),
    st.tuples(st.just("rename"), names, names),
)


def apply(store, op):
    kind = op[0]
    if kind == "upsert":
        store.upsert(make_feature(op[1], tuple(op[2])))
    elif kind == "remove":
        try:
            store.remove(op[1])
        except KeyError:
            return "missing"
    elif kind == "upsert_many":
        return store.upsert_many(
            make_feature(i, tuple(n)) for i, n in op[1]
        )
    elif kind == "remove_many":
        return store.remove_many(op[1])
    elif kind == "rename":
        return store.rename_variables({op[1]: op[2]}, resolution="p")
    return None


def observable(store):
    state = {}
    for dataset_id in store.dataset_ids():
        feature = store.get(dataset_id)
        state[dataset_id] = [
            (v.written_name, v.name, v.unit, v.excluded, v.ambiguous,
             v.resolution)
            for v in feature.variables
        ]
    return state


class TestStoreEquivalence:
    @given(st.lists(operations, min_size=0, max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_memory_and_sqlite_agree(self, ops):
        memory = MemoryCatalog()
        with SqliteCatalog() as sqlite:
            for op in ops:
                result_m = apply(memory, op)
                result_s = apply(sqlite, op)
                assert result_m == result_s, op
            assert observable(memory) == observable(sqlite)
            assert (
                memory.variable_name_counts()
                == sqlite.variable_name_counts()
            )

    @given(st.lists(operations, min_size=0, max_size=12))
    @settings(max_examples=15, deadline=None)
    def test_file_backed_sqlite_agrees(self, ops):
        """The WAL journal mode must not change observable behaviour."""
        import os
        import tempfile

        memory = MemoryCatalog()
        fd, path = tempfile.mkstemp(suffix=".db")
        os.close(fd)
        os.unlink(path)
        try:
            with SqliteCatalog(path) as sqlite:
                (mode,) = sqlite._conn.execute(
                    "PRAGMA journal_mode"
                ).fetchone()
                assert mode == "wal"
                for op in ops:
                    assert apply(memory, op) == apply(sqlite, op), op
                assert observable(memory) == observable(sqlite)
        finally:
            for suffix in ("", "-wal", "-shm"):
                if os.path.exists(path + suffix):
                    os.unlink(path + suffix)


def each_store():
    yield MemoryCatalog()
    yield SqliteCatalog()


class TestBatchOperations:
    def test_batch_matches_looped_singles(self):
        features = [
            make_feature("a", ("salinity", "temp")),
            make_feature("b", ("turbidity",)),
            make_feature("c", ("qa_level",)),
        ]
        for batched, looped in zip(each_store(), each_store()):
            assert batched.upsert_many(iter(features)) == 3
            for feature in features:
                looped.upsert(feature)
            assert observable(batched) == observable(looped)
            assert batched.remove_many(["a", "c", "ghost"]) == 2
            for dataset_id in ["a", "c"]:
                looped.remove(dataset_id)
            assert observable(batched) == observable(looped)

    def test_features_agrees_with_singles(self):
        for store in each_store():
            store.upsert_many(
                make_feature(i, ("salinity",)) for i in ("b", "a", "c")
            )
            bulk = list(store.features())
            assert [f.dataset_id for f in bulk] == ["a", "b", "c"]
            singles = [store.get(i) for i in store.dataset_ids()]
            assert [observable_feature(f) for f in bulk] == [
                observable_feature(f) for f in singles
            ]

    def test_one_version_bump_per_batch(self):
        """PR-1 cache semantics: a publish batch invalidates ONCE."""
        for store in each_store():
            before = store.version
            store.upsert_many(
                make_feature(i, ("temp",)) for i in ("a", "b", "c", "d")
            )
            assert store.version == before + 1
            before = store.version
            assert store.remove_many(["a", "b"]) == 2
            assert store.version == before + 1

    def test_empty_batches_do_not_bump(self):
        for store in each_store():
            store.upsert(make_feature("a", ("temp",)))
            before = store.version
            assert store.upsert_many([]) == 0
            assert store.remove_many([]) == 0
            assert store.remove_many(["ghost"]) == 0
            assert store.version == before


def observable_feature(feature):
    return (
        feature.dataset_id,
        [(v.written_name, v.name, v.unit) for v in feature.variables],
    )
