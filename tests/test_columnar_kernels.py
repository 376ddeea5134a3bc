"""The array pass's derived inputs, checked against their scalar twins.

Stage 1 of the columnar scan no longer runs the scalar kernels'
operations in the same order, so what it reads and how it rounds are
pinned here:

* the point-to-box location kernel, built from per-view trigonometry
  columns by the angle-difference identity, and the region kernel stay
  within
  ``APPROX_TOLERANCE`` of :func:`~repro.geo.bbox.box_distance_km_to_point`
  after every decay shape, over boxes anywhere on the globe — at the
  poles, around the query point, with the meridian edge's optimum
  strictly inside the latitude band, and next to the query's
  antipode — and within ``LOCATION_ERROR_KM`` before decay, which is
  what makes the linear shape's proven zeros sound;
* the derived columns and the inverted name index have pinned dtypes,
  lengths and values and are read-only, on cold and spliced views;
* a spliced view carries its base's name-similarity memo, equal to a
  cold computation, without touching the base's rows;
* a linear-decay location query rescores only the rows near its
  cutoff, and still counts its matches exactly.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.catalog import MemoryCatalog
from repro.catalog.records import DatasetFeature, VariableEntry
from repro.core.columnar import (
    APPROX_TOLERANCE,
    DERIVED_COLUMNS,
    LOCATION_ERROR_KM,
    ColumnarSnapshot,
    box_distance_km_to_box_array,
    box_distance_km_to_point_array,
    decay_array,
)
from repro.core.query import Query
from repro.core.scoring import (
    DECAY_SHAPES,
    QueryScorer,
    ScoringConfig,
    decay,
    name_similarity,
)
from repro.core.search import SearchEngine
from repro.geo import BoundingBox, GeoPoint, TimeInterval
from repro.geo.bbox import box_distance_km_to_box, box_distance_km_to_point
from repro.obs import RequestContext, use_request


def _feature(index: int, box, names=()) -> DatasetFeature:
    return DatasetFeature(
        dataset_id=f"ds_{index:05d}",
        title="",
        platform="station",
        file_format="csv",
        bbox=BoundingBox(*box),
        interval=TimeInterval(0.0, 1.0),
        row_count=1,
        source_directory="",
        variables=[
            VariableEntry.from_written(name, "u", 10, 0.0, 1.0, 0.5, 0.1)
            for name in names
        ],
    )


def _clamp(value: float, low: float, high: float) -> float:
    return min(max(value, low), high)


def _box(lat0: float, lon0: float, d_lat: float, d_lon: float):
    """A valid box from a corner and non-negative extents."""
    min_lat = _clamp(lat0, -90.0, 90.0)
    min_lon = _clamp(lon0, -180.0, 180.0)
    return (
        min_lat, min_lon,
        _clamp(min_lat + d_lat, min_lat, 90.0),
        _clamp(min_lon + d_lon, min_lon, 180.0),
    )


def _wrap(lon: float) -> float:
    return (lon + 180.0) % 360.0 - 180.0


extent = st.floats(min_value=0.0, max_value=20.0)


@st.composite
def boxes(draw, lat: float, lon: float):
    """A box placed where the kernel is hardest for the query point."""
    kind = draw(st.sampled_from(
        ["global", "polar", "containing", "meridian", "antipodal"]
    ))
    if kind == "global":
        return _box(
            draw(st.floats(-90.0, 90.0)), draw(st.floats(-180.0, 180.0)),
            draw(st.floats(0.0, 180.0)), draw(st.floats(0.0, 360.0)),
        )
    if kind == "polar":
        pole = draw(st.sampled_from([-90.0, 90.0]))
        near = pole - math.copysign(draw(st.floats(0.0, 5.0)), pole)
        return _box(
            min(near, pole), draw(st.floats(-180.0, 180.0)),
            abs(pole - near), draw(extent),
        )
    if kind == "containing":
        below, left = draw(extent), draw(extent)
        return _box(
            lat - below, lon - left,
            below + draw(extent), left + draw(extent),
        )
    if kind == "meridian":
        # A tall band around the optimum of an edge far away in
        # longitude: the nearest point lies strictly inside the edge.
        d_lon = draw(st.floats(10.0, 170.0)) * draw(st.sampled_from([-1, 1]))
        optimum = math.degrees(math.atan(
            math.tan(math.radians(lat)) / math.cos(math.radians(d_lon))
        ))
        below, above = draw(st.floats(0.5, 30.0)), draw(st.floats(0.5, 30.0))
        return _box(
            optimum - below, _wrap(lon + d_lon), below + above, draw(extent)
        )
    # Within a hair of the antipode, where asin(sqrt(a)) is ill-conditioned.
    scale = 10.0 ** draw(st.floats(-12.0, 0.0))
    return _box(
        -lat + draw(st.floats(-1.0, 1.0)) * scale,
        _wrap(lon + 180.0) + draw(st.floats(-1.0, 1.0)) * scale,
        draw(st.floats(0.0, 1.0)) * scale,
        draw(st.floats(0.0, 1.0)) * scale,
    )


@st.composite
def placements(draw):
    lat = draw(st.floats(-90.0, 90.0))
    lon = draw(st.floats(-180.0, 180.0))
    return lat, lon, draw(st.lists(boxes(lat, lon), min_size=1, max_size=12))


@given(placement=placements())
# 1e-6 degrees from the antipode: the haversine form alone is off by
# ~2e-4 km here, so this row must take the scalar kernel.
@example(placement=(-60.0, -170.0, [(60.000001, 10.0, 60.000001, 10.0)]))
@settings(max_examples=300, deadline=None)
def test_location_kernel_within_tolerance_after_decay(placement):
    lat, lon, drawn = placement
    view = ColumnarSnapshot(
        [_feature(i, box) for i, box in enumerate(drawn)], version=1
    )
    cols = view.arrays()
    approx = box_distance_km_to_point_array(cols, 0, len(view), lat, lon)
    exact = np.array([
        box_distance_km_to_point(
            view.min_lat[r], view.min_lon[r],
            view.max_lat[r], view.max_lon[r], lat, lon,
        )
        for r in range(len(view))
    ])
    assert_within_bounds(approx, exact)
    # The region kernel, against the first box as the query's region.
    region = BoundingBox(*drawn[0])
    approx = box_distance_km_to_box_array(
        cols.min_lat, cols.min_lon, cols.max_lat, cols.max_lon, region
    )
    exact = np.array([
        box_distance_km_to_box(
            view.min_lat[r], view.min_lon[r],
            view.max_lat[r], view.max_lon[r], *region.as_tuple(),
        )
        for r in range(len(view))
    ])
    assert_within_bounds(approx, exact)


def assert_within_bounds(approx: np.ndarray, exact: np.ndarray) -> None:
    assert np.all(np.abs(approx - exact) <= LOCATION_ERROR_KM)
    for scale in (5.0, 100.0, 2000.0):
        for shape in DECAY_SHAPES:
            approx_sims = decay_array(approx / scale, shape)
            exact_sims = np.array([decay(d / scale, shape) for d in exact])
            assert np.all(np.abs(approx_sims - exact_sims) <= APPROX_TOLERANCE)
        # The linear shape's proven zeros are zeros of the scalar too.
        proven = approx / scale > 1.0 + LOCATION_ERROR_KM / scale
        assert all(decay(d / scale, "linear") == 0.0 for d in exact[proven])


def test_meridian_optimum_inside_the_band_is_found():
    # The query sits at 30N; a tall box 80 degrees of longitude away is
    # nearest at its edge's interior point (~73N), far nearer than any
    # corner.
    lat, lon = 30.0, 0.0
    box = (0.0, 80.0, 89.0, 85.0)
    view = ColumnarSnapshot([_feature(0, box)], version=1)
    approx = box_distance_km_to_point_array(view.arrays(), 0, 1, lat, lon)
    exact = box_distance_km_to_point(*box, lat, lon)
    corners = min(
        box_distance_km_to_point(c_lat, c_lon, c_lat, c_lon, lat, lon)
        for c_lat in (box[0], box[2]) for c_lon in (box[1], box[3])
    )
    assert exact < corners - 100.0
    assert abs(approx[0] - exact) <= LOCATION_ERROR_KM


# -- layout of the derived columns and the inverted index ---------------------


DEFINITIONS = {
    **{
        f"{fn}_half_{edge}": (
            edge, lambda c, f=getattr(np, fn): f(np.radians(c) / 2.0)
        )
        for edge in ("min_lat", "min_lon", "max_lat", "max_lon")
        for fn in ("sin", "cos")
    },
    "cos_min_lat": ("min_lat", lambda c: np.cos(np.radians(c))),
    "cos_max_lat": ("max_lat", lambda c: np.cos(np.radians(c))),
    "tan_min_lat": ("min_lat", lambda c: np.tan(np.radians(c))),
    "tan_max_lat": ("max_lat", lambda c: np.tan(np.radians(c))),
}


def assert_derived_layout(view: ColumnarSnapshot) -> None:
    cols = view.arrays()
    n = len(view)
    assert set(DEFINITIONS) == set(DERIVED_COLUMNS)
    for name, (source, definition) in DEFINITIONS.items():
        column = getattr(cols, name)
        assert column.dtype == np.float64, name
        assert column.shape == (n,), name
        assert column.flags.c_contiguous, name
        assert not column.flags.writeable, name
        expected = definition(np.array(getattr(view, source), dtype="f8"))
        assert np.array_equal(column, expected), name
    name_ids = cols.var_name_ids
    entries, offsets = cols.name_entries, cols.name_offsets
    assert entries.dtype == np.int64 and offsets.dtype == np.int64
    assert entries.shape == (len(name_ids),)
    assert offsets.shape == (len(view.names) + 1,)
    assert not entries.flags.writeable and not offsets.flags.writeable
    assert offsets[0] == 0 and offsets[-1] == len(name_ids)
    for k in range(len(view.names)):
        named = entries[offsets[k]:offsets[k + 1]]
        assert named.tolist() == np.flatnonzero(name_ids == k).tolist()
    if not view.names:
        return
    for picked in ([0], [len(view.names) - 1], list(range(len(view.names)))):
        expected = np.flatnonzero(np.isin(name_ids, picked)).tolist()
        assert cols.entries_named(np.array(picked)).tolist() == expected


NAMES = ["salinity", "salinty", "water_temp", "oxygen", "wind", "chl_a"]


def test_derived_columns_and_index_on_cold_and_spliced_views():
    feats = [
        _feature(
            i, _box(40.0 + i, -130.0 + 2 * i, i % 3, 1.0),
            NAMES[i % 4:i % 4 + i % 3],
        )
        for i in range(9)
    ]
    cold = ColumnarSnapshot.freeze(feats, version=1)
    assert_derived_layout(cold)
    fresh = [
        _feature(3, _box(-89.0, 170.0, 1.0, 10.0), ["chl_a", "salinity"]),
        _feature(20, _box(10.0, 0.0, 0.0, 0.0), ["wind", "new_name"]),
    ]
    spliced = ColumnarSnapshot.freeze_from(
        cold, fresh, ["ds_00005"], version=2
    )
    assert spliced.names[:len(cold.names)] == cold.names
    assert "new_name" in spliced.names
    assert_derived_layout(spliced)
    empty = ColumnarSnapshot.freeze([], version=0)
    assert_derived_layout(empty)


# -- the name-similarity memo across a splice ---------------------------------


name_pool = st.sampled_from(NAMES + ["salinity_psu", "oxygn", "winds"])


@given(
    base_names=st.lists(name_pool, min_size=1, max_size=6),
    added_names=st.lists(name_pool, max_size=4),
    terms=st.lists(name_pool, min_size=1, max_size=4),
    threshold=st.sampled_from([0.5, 0.75]),
)
@settings(max_examples=60, deadline=None)
def test_spliced_view_carries_its_name_similarities(
    base_names, added_names, terms, threshold
):
    base = ColumnarSnapshot(
        [_feature(i, (45.0, -124.0, 45.0, -124.0), [name])
         for i, name in enumerate(base_names)],
        version=1,
    )
    config = ScoringConfig(name_partial_threshold=threshold)
    for term in terms:
        base.name_similarities(term, {term, "salinity"}, config)
    before = {
        key: (row, list(row)) for key, (row, __) in base._name_sims.items()
    }
    upserted = [
        _feature(100 + i, (46.0, -124.0, 46.0, -124.0), [name])
        for i, name in enumerate(added_names)
    ]
    spliced = ColumnarSnapshot.freeze_from(base, upserted, (), version=2)
    assert set(spliced._name_sims) == set(base._name_sims)
    for key, (row, array_row) in spliced._name_sims.items():
        term, expansion, __ = key
        cold = [
            name_similarity(term, name, set(expansion), config)
            for name in spliced.names
        ]
        assert row == cold
        assert array_row.tolist() == cold and not array_row.flags.writeable
        # The base's rows are shared or copied, never extended in place.
        base_row, contents = before[key]
        assert base._name_sims[key][0] is base_row
        assert base_row == contents and len(base_row) == len(base.names)
        if len(spliced.names) == len(base.names):
            assert row is base_row
    # A query over the spliced view reads the carried rows.
    for term in terms:
        carried = spliced.name_similarities(term, {term, "salinity"}, config)
        assert carried is spliced._name_sims[
            (term, frozenset({term, "salinity"}), threshold)
        ]


# -- linear decay's exact zeros -----------------------------------------------


def test_linear_location_query_rescores_only_near_its_cutoff():
    # 5,000 stations along a coast, as in the search-miss workload; a
    # 100 km linear cutoff leaves most of them at exactly 0.
    rng = np.random.default_rng(3001)
    lats = rng.uniform(42.0, 49.0, 5000)
    lons = rng.uniform(-127.0, -121.0, 5000)
    sizes = rng.uniform(0.0, 0.3, (5000, 2))
    feats = [
        _feature(i, _box(lats[i], lons[i], *sizes[i])) for i in range(5000)
    ]
    store = MemoryCatalog()
    store.upsert_many(feats)
    config = ScoringConfig(decay_shape="linear")
    engine = SearchEngine(store.snapshot(), config=config, cache=False)
    query = Query(location=GeoPoint(45.5, -124.0))
    context = RequestContext("req-linear")
    with use_request(context):
        results = engine.search(query, limit=10)
    scorer = QueryScorer(query, config=config)
    matches = sum(1 for f in feats if scorer.score(f).total > 0.0)
    assert 10 < matches < 2500
    assert results.total_matches == matches
    assert context.attrs["rows_approximated"] == 5000
    # Only the page's candidates and the rows within the kernel's error
    # of the cutoff are rescored (the parent rescored every zero).
    assert context.attrs["rows_rescored"] <= 50
