"""Columnar scoring is exactly the object oracle, property-tested.

The exactness argument (DESIGN note 15): every scalar kernel the
columnar loop calls — box/point distance, interval gap, range and name
similarity — is the *same function* the object path delegates to, the
term weights and prune floor come from the same :class:`QueryScorer`
instance, and rows are laid out in sorted-dataset-id order (the order
``dataset_ids()`` yields).  Hypothesis searches for counterexamples
across random catalogs (live stores and snapshots), query shapes and
limits; equality with ``tests/search_oracle.py`` is checked on ids,
scores, order, the full per-term breakdowns and ``total_matches``.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import MemoryCatalog
from repro.catalog.records import DatasetFeature, VariableEntry
from repro.core.columnar import ColumnarSnapshot
from repro.core.query import Query, VariableTerm
from repro.core.search import SearchEngine
from repro.geo import BoundingBox, GeoPoint, TimeInterval
from tests.search_oracle import object_matches, object_scores, object_search

VARIABLE_POOL = [
    "water_temperature",
    "salinity",
    "dissolved_oxygen",
    "chlorophyll",
    "wind_speed",
]

finite_lat = st.floats(
    min_value=42.0, max_value=49.0, allow_nan=False, allow_infinity=False
)
finite_lon = st.floats(
    min_value=-127.0, max_value=-121.0,
    allow_nan=False, allow_infinity=False,
)


@st.composite
def features(draw, index: int):
    lat = draw(finite_lat)
    lon = draw(finite_lon)
    start = draw(st.floats(min_value=0.0, max_value=1e7))
    names = draw(
        st.lists(
            st.sampled_from(VARIABLE_POOL),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    excluded = draw(
        st.lists(st.booleans(), min_size=len(names), max_size=len(names))
    )
    variables = [
        VariableEntry.from_written(name, "u", 10, 0.0, 30.0, 15.0, 5.0)
        for name in names
    ]
    # Columnar freezing must skip excluded variables exactly like
    # ``searchable_variables()`` does; flip some on to prove it.
    variables = [
        dataclasses.replace(v, excluded=True)
        if flag and len(names) > 1 else v
        for v, flag in zip(variables, excluded)
    ]
    return DatasetFeature(
        dataset_id=f"ds_{index:04d}",
        title=f"dataset {index}",
        platform="station",
        file_format="csv",
        bbox=BoundingBox(
            lat, lon, lat + draw(st.floats(0.0, 0.5)),
            lon + draw(st.floats(0.0, 0.5)),
        ),
        interval=TimeInterval(start, start + draw(st.floats(0.0, 1e6))),
        row_count=draw(st.integers(1, 500)),
        source_directory="",
        variables=variables,
    )


@st.composite
def catalogs(draw):
    """A live store, or a snapshot of one."""
    count = draw(st.integers(min_value=1, max_value=40))
    catalog = MemoryCatalog()
    catalog.upsert_many(
        [draw(features(index)) for index in range(count)]
    )
    return catalog.snapshot() if draw(st.booleans()) else catalog


@st.composite
def queries(draw):
    location = None
    radius = 50.0
    if draw(st.booleans()):
        location = GeoPoint(draw(finite_lat), draw(finite_lon))
        radius = draw(st.floats(min_value=1.0, max_value=500.0))
    interval = None
    if draw(st.booleans()):
        start = draw(st.floats(min_value=0.0, max_value=1e7))
        interval = TimeInterval(
            start, start + draw(st.floats(0.0, 1e6))
        )
    names = draw(
        st.lists(
            st.sampled_from(VARIABLE_POOL),
            min_size=0 if (location or interval) else 1,
            max_size=2,
            unique=True,
        )
    )
    return Query(
        location=location,
        radius_km=radius,
        interval=interval,
        variables=tuple(VariableTerm(name=name) for name in names),
    )


def page(results):
    return [
        (r.dataset_id, r.score, r.breakdown) for r in results
    ]


@given(
    catalog=catalogs(),
    query=queries(),
    limit=st.integers(min_value=1, max_value=15),
)
@settings(max_examples=40, deadline=None)
def test_columnar_page_equals_object_page(catalog, query, limit):
    columnar = SearchEngine(catalog, cache=False)
    expected = object_search(catalog, query, limit=limit)
    actual = columnar.search(query, limit=limit)
    assert page(actual) == page(expected)
    assert actual.total_matches == expected.total_matches == object_matches(
        catalog, query
    )
    # The columnar page defers feature materialization; the results the
    # caller sees must still carry real features.
    assert all(r.feature is not None for r in actual)


@given(
    catalog=catalogs(),
    query=queries(),
    limit=st.integers(min_value=1, max_value=15),
)
@settings(max_examples=20, deadline=None)
def test_columnar_with_indexes_equals_object(catalog, query, limit):
    # Columnar scanning composes with candidate pruning and the
    # excluded-bound remainder rescan.
    columnar = SearchEngine(catalog, cache=False)
    columnar.build_indexes()
    expected = object_search(catalog, query, limit=limit)
    actual = columnar.search(query, limit=limit)
    assert page(actual) == page(expected)
    assert actual.total_matches == expected.total_matches == object_matches(
        catalog, query
    )


@given(catalog=catalogs(), query=queries())
@settings(max_examples=20, deadline=None)
def test_columnar_score_all_equals_object(catalog, query):
    columnar = SearchEngine(catalog, cache=False)
    assert columnar.score_all(query) == object_scores(catalog, query)


@given(catalog=catalogs())
@settings(max_examples=20, deadline=None)
def test_freeze_layout_matches_searchable_variables(catalog):
    features = list(catalog.features())
    view = ColumnarSnapshot(features, version=catalog.version)
    assert view.ids == sorted(f.dataset_id for f in features)
    by_id = {f.dataset_id: f for f in features}
    for row, dataset_id in enumerate(view.ids):
        feature = by_id[dataset_id]
        lo, hi = view.var_offsets[row], view.var_offsets[row + 1]
        frozen = [
            (view.names[view.var_name_ids[k]], view.var_counts[k],
             view.var_mins[k], view.var_maxs[k])
            for k in range(lo, hi)
        ]
        assert frozen == [
            (v.name, v.count, v.minimum, v.maximum)
            for v in feature.searchable_variables()
        ]
        assert view.min_lat[row] == feature.bbox.min_lat
        assert view.t_end[row] == feature.interval.end


def test_live_store_search_takes_one_snapshot_per_version(monkeypatch):
    catalog = MemoryCatalog()
    make = lambda i, name: DatasetFeature(  # noqa: E731
        dataset_id=f"ds_{i}",
        title=f"d{i}",
        platform="station",
        file_format="csv",
        bbox=BoundingBox(45.0, -124.0, 45.5, -123.5),
        interval=TimeInterval(0.0, 1000.0),
        row_count=10,
        source_directory="",
        variables=[
            VariableEntry.from_written(name, "u", 10, 0.0, 30.0, 15.0, 5.0)
        ],
    )
    taken = []
    real_snapshot = catalog.snapshot

    def counting_snapshot(*args, **kwargs):
        snapshot = real_snapshot(*args, **kwargs)
        taken.append(snapshot.version)
        return snapshot

    monkeypatch.setattr(catalog, "snapshot", counting_snapshot)
    catalog.upsert(make(0, "salinity"))
    engine = SearchEngine(catalog, cache=False)
    query = Query(variables=(VariableTerm(name="salinity"),))
    assert [r.dataset_id for r in engine.search(query)] == ["ds_0"]
    catalog.upsert(make(1, "salinity"))
    for __ in range(3):
        results = engine.search(query)
        assert [r.dataset_id for r in results] == ["ds_0", "ds_1"]
        assert engine.score_all(query).keys() == {"ds_0", "ds_1"}
    # One snapshot per catalog version, however many searches read it.
    assert taken == [1, 2]


def test_snapshot_shares_one_freeze_across_engines(monkeypatch):
    catalog = MemoryCatalog()
    catalog.upsert(
        DatasetFeature(
            dataset_id="only",
            title="only",
            platform="station",
            file_format="csv",
            bbox=BoundingBox(45.0, -124.0, 45.5, -123.5),
            interval=TimeInterval(0.0, 1000.0),
            row_count=10,
            source_directory="",
            variables=[
                VariableEntry.from_written(
                    "salinity", "psu", 10, 0.0, 30.0, 15.0, 5.0
                )
            ],
        )
    )
    snapshot = catalog.snapshot()
    frozen = []
    real_freeze = ColumnarSnapshot.freeze

    def counting_freeze(*args, **kwargs):
        frozen.append(real_freeze(*args, **kwargs))
        return frozen[-1]

    monkeypatch.setattr(ColumnarSnapshot, "freeze", counting_freeze)
    query = Query(variables=(VariableTerm(name="salinity"),))
    for __ in range(2):
        assert SearchEngine(snapshot, cache=False).search(query)
    # Frozen once, cached on the snapshot and shared by both engines.
    assert len(frozen) == 1
    assert snapshot.columnar() is frozen[0]
    assert len(frozen[0]) == 1
