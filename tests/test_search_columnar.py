"""Columnar scoring is exactly the object path, property-tested.

The exactness argument (DESIGN note 15): every scalar kernel the
columnar loop calls — box/point distance, interval gap, range and name
similarity — is the *same function* the object path delegates to, the
term weights and prune floor come from the same :class:`QueryScorer`
instance, and rows are laid out in sorted-dataset-id order (the order
``dataset_ids()`` yields).  Hypothesis searches for counterexamples
across random catalogs, query shapes and limits; equality is checked
on ids, scores, order AND the full per-term breakdowns.
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
    count = draw(st.integers(min_value=1, max_value=40))
    catalog = MemoryCatalog()
    catalog.upsert_many(
        [draw(features(index)) for index in range(count)]
    )
    return catalog


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


def exact_matches(engine, query) -> int:
    """The exact ``total_matches``: datasets scoring above zero."""
    return sum(
        1 for score in engine.score_all(query).values()
        if score > 0.0 or query.is_empty
    )


@given(
    catalog=catalogs(),
    query=queries(),
    limit=st.integers(min_value=1, max_value=15),
)
@settings(max_examples=40, deadline=None)
def test_columnar_page_equals_object_page(catalog, query, limit):
    columnar = SearchEngine(catalog, cache=False, columnar=True)
    objects = SearchEngine(catalog, cache=False, columnar=False)
    expected = objects.search(query, limit=limit)
    actual = columnar.search(query, limit=limit)
    assert page(actual) == page(expected)
    assert actual.total_matches == expected.total_matches == exact_matches(
        objects, query
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
    columnar = SearchEngine(catalog, cache=False, columnar=True)
    columnar.build_indexes()
    objects = SearchEngine(catalog, cache=False, columnar=False)
    objects.build_indexes()
    expected = objects.search(query, limit=limit)
    actual = columnar.search(query, limit=limit)
    assert page(actual) == page(expected)
    assert actual.total_matches == expected.total_matches == exact_matches(
        objects, query
    )


@given(catalog=catalogs(), query=queries())
@settings(max_examples=20, deadline=None)
def test_columnar_score_all_equals_object(catalog, query):
    columnar = SearchEngine(catalog, cache=False, columnar=True)
    objects = SearchEngine(catalog, cache=False, columnar=False)
    assert columnar.score_all(query) == objects.score_all(query)


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


def test_stale_columnar_view_is_refrozen_after_edit():
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
    catalog.upsert(make(0, "salinity"))
    engine = SearchEngine(catalog, cache=False, columnar=True)
    query = Query(variables=(VariableTerm(name="salinity"),))
    assert [r.dataset_id for r in engine.search(query)] == ["ds_0"]
    first = engine.columnar_view()
    catalog.upsert(make(1, "salinity"))
    assert [r.dataset_id for r in engine.search(query)] == [
        "ds_0", "ds_1"
    ]
    second = engine.columnar_view()
    assert second is not first
    assert second.version == catalog.version


def test_columnar_disabled_has_no_view():
    catalog = MemoryCatalog()
    engine = SearchEngine(catalog, cache=False, columnar=False)
    assert engine.columnar_view() is None
    assert engine.stats()["columnar"] is False


def test_snapshot_shares_one_freeze_across_engines():
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
    one = SearchEngine(snapshot, cache=False).columnar_view()
    two = SearchEngine(snapshot, cache=False).columnar_view()
    assert one is two  # frozen once, cached on the snapshot
    assert len(one) == 1
