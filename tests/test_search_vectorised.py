"""The two-stage columnar scan, property-tested against the scalar kernels.

Stage 1 (:meth:`ColumnarScorer.approximate_totals`) scores every row
in one numpy pass; stage 2 rescores the rows it selects with the scalar
kernels.  The properties pinned here:

* every approximate total lies within ``APPROX_TOLERANCE`` of the
  scalar total, and rows flagged bit-exact are equal bit for bit —
  also for the sparse variable pass, which scores only the entries
  whose name matches a term;
* the rows stage 2 rescores are a superset of the exact top-k, ties at
  the k-th score included;
* pages and breakdowns are bit-identical to the object oracle of
  ``tests/search_oracle.py``, over live stores and snapshots alike,
  and ``total_matches`` is the exact count of rows scoring above zero
  on the engine and the oracle alike;
* the columns numpy reads are zero-copy, read-only views with pinned
  dtypes and lengths.

The inputs reach past the coastal catalogs of the older suites: region
queries, all three decay shapes, NaN minimums, ``count == 0`` entries,
rows whose CSR segment is empty, zero config weights and the empty
catalog.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import MemoryCatalog
from repro.catalog.records import DatasetFeature, VariableEntry
from repro.core.columnar import (
    APPROX_TOLERANCE,
    NAME_SIMS_MEMO_SIZE,
    ColumnarScorer,
    ColumnarSnapshot,
)
from repro.core.query import Query, VariableTerm
from repro.core.scoring import DECAY_SHAPES, QueryScorer, ScoringConfig
from repro.core.search import SearchEngine, _TopK, score_rows_into
from repro.geo import BoundingBox, GeoPoint, TimeInterval
from tests.search_oracle import object_search

VARIABLE_POOL = ["water_temperature", "salinity", "chlorophyll", "wind"]

lats = st.floats(min_value=-80.0, max_value=80.0)
lons = st.floats(min_value=-179.0, max_value=170.0)
values = st.floats(min_value=-50.0, max_value=50.0)


@st.composite
def variables(draw):
    name = draw(st.sampled_from(VARIABLE_POOL))
    minimum = draw(values)
    maximum = minimum + draw(st.floats(0.0, 40.0))
    if draw(st.integers(0, 9)) == 0:
        minimum = math.nan
    entry = VariableEntry.from_written(
        name, "u", draw(st.sampled_from([0, 10])),
        minimum, maximum, 0.0, 1.0,
    )
    return replace(entry, excluded=draw(st.integers(0, 4)) == 0)


@st.composite
def features(draw, index: int):
    lat = draw(lats)
    lon = draw(lons)
    start = draw(st.floats(min_value=0.0, max_value=1e8))
    # Zero entries, or only excluded ones, leave an empty CSR segment.
    entries = draw(st.lists(variables(), max_size=3))
    return DatasetFeature(
        dataset_id=f"ds_{index:04d}",
        title=f"dataset {index}",
        platform="station",
        file_format="csv",
        bbox=BoundingBox(
            lat, lon, lat + draw(st.floats(0.0, 8.0)),
            lon + draw(st.floats(0.0, 8.0)),
        ),
        interval=TimeInterval(start, start + draw(st.floats(0.0, 1e7))),
        row_count=1,
        source_directory="",
        variables=entries,
    )


@st.composite
def catalogs(draw, min_size: int = 0):
    count = draw(st.integers(min_value=min_size, max_value=30))
    catalog = MemoryCatalog()
    catalog.upsert_many([draw(features(index)) for index in range(count)])
    return catalog


@st.composite
def terms(draw):
    low = draw(st.none() | values)
    high = draw(st.none() | values)
    if low is not None and high is not None and low > high:
        low, high = high, low
    return VariableTerm(name=draw(st.sampled_from(VARIABLE_POOL)), low=low, high=high)


@st.composite
def queries(draw):
    location = region = None
    spatial = draw(st.sampled_from(["none", "point", "region"]))
    if spatial == "point":
        location = GeoPoint(draw(lats), draw(lons))
    elif spatial == "region":
        lat, lon = draw(lats), draw(lons)
        region = BoundingBox(
            lat, lon, lat + draw(st.floats(0.0, 9.0)),
            lon + draw(st.floats(0.0, 9.0)),
        )
    interval = None
    if draw(st.booleans()):
        start = draw(st.floats(min_value=0.0, max_value=1e8))
        interval = TimeInterval(start, start + draw(st.floats(0.0, 1e7)))
    return Query(
        location=location,
        region=region,
        radius_km=draw(st.floats(min_value=1.0, max_value=3000.0)),
        interval=interval,
        variables=tuple(draw(st.lists(terms(), max_size=2))),
    )


weights = st.sampled_from([0.0, 0.5, 1.0, 2.0])


@st.composite
def configs(draw):
    return ScoringConfig(
        location_decay_km=draw(st.sampled_from([5.0, 100.0, 2000.0])),
        time_decay_days=draw(st.sampled_from([1.0, 90.0])),
        range_decay_fraction=draw(st.sampled_from([0.1, 1.0])),
        location_weight=draw(weights),
        time_weight=draw(weights),
        variable_weight=draw(weights),
        decay_shape=draw(st.sampled_from(DECAY_SHAPES)),
    )


def page(results):
    return [(r.dataset_id, r.score, r.breakdown) for r in results]


def exact_totals(catalog, query, config) -> list[float]:
    """Scalar totals of every dataset, in row (sorted-id) order."""
    scorer = QueryScorer(query, config=config)
    return [scorer.score(catalog.get(i)).total for i in catalog.dataset_ids()]


def exact_matches(totals: list[float], query: Query) -> int:
    return sum(1 for total in totals if total > 0.0 or query.is_empty)


class RecordingScorer(ColumnarScorer):
    """Remembers which rows stage 2 rescored."""

    __slots__ = ("rescored",)

    def __init__(self, scorer, view) -> None:
        super().__init__(scorer, view)
        self.rescored: set[int] = set()

    def score_row_bounded(self, row, floor):
        self.rescored.add(row)
        return super().score_row_bounded(row, floor)


@given(catalog=catalogs(), query=queries(), config=configs())
@settings(max_examples=150, deadline=None)
def test_approximate_totals_within_tolerance(catalog, query, config):
    view = ColumnarSnapshot(catalog.features(), version=catalog.version)
    cscorer = ColumnarScorer(QueryScorer(query, config=config), view)
    approx, exact = cscorer.approximate_totals(range(len(view)))
    scalar = np.array(
        [cscorer.score_row(row).total for row in range(len(view))]
    )
    assert approx.dtype == np.float64 and approx.shape == (len(view),)
    assert np.all(np.abs(approx - scalar) <= APPROX_TOLERANCE)
    if exact is not None:
        assert np.array_equal(approx[exact], scalar[exact])
    # The picked-rows form is the same pass, reindexed.
    picked = list(range(len(view)))[::-2]
    approx_picked, __ = cscorer.approximate_totals(picked)
    assert np.array_equal(approx_picked, approx[picked])


#: A term name no interned name resembles: its name similarities are
#: all zero, so the sparse pass finds no entry to score for it.
UNMATCHED = "xqzv"


@st.composite
def variable_queries(draw):
    """Variables-only queries (the ones with a bit-exact mask), over
    names the catalog holds and one it never does; possibly empty."""
    names = st.sampled_from(VARIABLE_POOL + [UNMATCHED])
    chosen = draw(st.lists(terms(), max_size=3))
    return Query(
        variables=tuple(
            VariableTerm(name=draw(names), low=t.low, high=t.high)
            for t in chosen
        )
    )


def assert_matches_scalar(cscorer, rows) -> np.ndarray:
    """Stage 1 against the scalar ``score_row``; returns ``exact``."""
    approx, exact = cscorer.approximate_totals(rows)
    scalar = np.array([cscorer.score_row(row).total for row in rows])
    assert np.all(np.abs(approx - scalar) <= APPROX_TOLERANCE)
    assert exact is not None  # no location or time term
    assert np.array_equal(approx[exact], scalar[exact])
    return exact


@given(catalog=catalogs(), query=variable_queries(), config=configs())
@settings(max_examples=150, deadline=None)
def test_sparse_variable_pass_matches_scalar(catalog, query, config):
    view = ColumnarSnapshot(catalog.features(), version=catalog.version)
    cscorer = ColumnarScorer(QueryScorer(query, config=config), view)
    exact = assert_matches_scalar(cscorer, range(len(view)))
    # A span that starts and stops mid-catalog reads the same rows.
    if len(view) > 2:
        inner = assert_matches_scalar(cscorer, range(1, len(view) - 1))
        assert np.array_equal(inner, exact[1:-1])


def test_sparse_variable_pass_edge_rows():
    config = ScoringConfig()
    salinity = VariableEntry.from_written("salinity", "u", 10, 0.0, 1.0, 0.5, 0.1)
    empty_count = VariableEntry.from_written("salinity", "u", 0, 0.0, 30.0, 1.0, 1.0)
    nan_minimum = VariableEntry.from_written("salinity", "u", 10, math.nan, 30.0, 1.0, 1.0)
    excluded = replace(
        VariableEntry.from_written("salinity", "u", 10, 10.0, 20.0, 1.0, 1.0),
        excluded=True,
    )
    wind = VariableEntry.from_written("wind", "u", 10, 12.0, 18.0, 1.0, 1.0)
    feats = [
        _feature(0, []),                        # no variables
        _feature(1, [excluded]),                # only an excluded one
        _feature(2, [empty_count]),             # count == 0
        _feature(3, [nan_minimum]),             # NaN minimum
        _feature(4, [salinity]),                # match only by range decay
        _feature(5, [wind, salinity]),          # decayed match beside a hit
        _feature(6, [wind]),                    # no salinity at all
    ]
    view = ColumnarSnapshot(feats, version=1)
    ranged = VariableTerm("salinity", low=10.0, high=20.0)
    query = Query(variables=(ranged, VariableTerm(UNMATCHED)))
    cscorer = ColumnarScorer(QueryScorer(query, config=config), view)
    assert not cscorer._term_sim_arrays[1].any()  # really unmatched
    exact = assert_matches_scalar(cscorer, range(len(view)))
    # Only rows whose name match went through the range decay lose the
    # bit-exact guarantee; they still score above zero.
    assert exact.tolist() == [True, True, True, True, False, False, True]
    approx, __ = cscorer.approximate_totals(range(len(view)))
    assert approx[4] > 0.0 and approx[5] > 0.0
    assert approx[[0, 1, 2, 3, 6]].tolist() == [0.0] * 5
    # A NaN maximum under an open-ended range makes the similarity NaN,
    # which the scalar loop never keeps as its best.
    nan_maximum = VariableEntry.from_written(
        "salinity", "u", 10, 12.0, math.nan, 1.0, 1.0
    )
    view = ColumnarSnapshot([_feature(0, [nan_maximum])], version=1)
    above = Query(variables=(VariableTerm("salinity", low=10.0),))
    cscorer = ColumnarScorer(QueryScorer(above, config=config), view)
    assert_matches_scalar(cscorer, range(1))
    assert cscorer.approximate_totals(range(1))[0].tolist() == [0.0]
    # The empty query: every row scores the neutral 1.0, exactly.
    empty = ColumnarScorer(QueryScorer(Query(), config=config), view)
    approx, exact = empty.approximate_totals(range(len(view)))
    assert approx.tolist() == [1.0] * len(view) and exact.all()


@given(
    catalog=catalogs(),
    query=queries(),
    config=configs(),
    limit=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=150, deadline=None)
def test_rescored_rows_cover_exact_top_k(catalog, query, config, limit):
    view = ColumnarSnapshot(catalog.features(), version=catalog.version)
    cscorer = RecordingScorer(QueryScorer(query, config=config), view)
    top = _TopK(limit)
    matches = score_rows_into(cscorer, query, range(len(view)), top)
    totals = exact_totals(catalog, query, config)
    assert matches == exact_matches(totals, query)
    eligible = sorted(
        (-total, row) for row, total in enumerate(totals)
        if total > 0.0 or query.is_empty
    )
    if eligible:
        kth = -eligible[min(limit, len(eligible)) - 1][0]
        # Every row at or above the k-th exact score, ties included.
        needed = {row for key, row in eligible if -key >= kth}
        assert needed <= cscorer.rescored
    assert [r.dataset_id for r in top.sorted_results()] == [
        view.ids[row] for __, row in eligible[:limit]
    ]


@given(
    catalog=catalogs(),
    query=queries(),
    config=configs(),
    limit=st.integers(min_value=1, max_value=12),
    indexed=st.booleans(),
    snapshot=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_pages_and_match_counts_agree_on_every_path(
    catalog, query, config, limit, indexed, snapshot
):
    if snapshot:
        catalog = catalog.snapshot()
    engine = SearchEngine(catalog, config=config, cache=False)
    if indexed:
        engine.build_indexes()
    expected = exact_matches(exact_totals(catalog, query, config), query)
    oracle = object_search(catalog, query, limit=limit, config=config)
    assert oracle.total_matches == expected
    results = engine.search(query, limit=limit)
    assert page(results) == page(oracle)
    assert results.total_matches == expected


def _feature(index: int, entries) -> DatasetFeature:
    return DatasetFeature(
        dataset_id=f"ds_{index:04d}",
        title="",
        platform="station",
        file_format="csv",
        bbox=BoundingBox(45.0 + index, -124.0, 45.5 + index, -123.5),
        interval=TimeInterval(0.0, 1e6),
        row_count=1,
        source_directory="",
        variables=entries,
    )


def test_empty_segments_score_zero_wherever_they_sit():
    # reduceat returns the element at an empty segment's start instead
    # of an identity: empty rows first, between and last must read 0.
    entry = VariableEntry.from_written("salinity", "u", 10, 0.0, 30.0, 1.0, 1.0)
    feats = [
        _feature(0, []),
        _feature(1, [entry]),
        _feature(2, []),
        _feature(3, [entry, entry]),
        _feature(4, []),
    ]
    view = ColumnarSnapshot(feats, version=1)
    query = Query(variables=(VariableTerm("salinity"),))
    cscorer = ColumnarScorer(QueryScorer(query), view)
    approx, exact = cscorer.approximate_totals(range(len(view)))
    assert approx.tolist() == [0.0, 1.0, 0.0, 1.0, 0.0]
    assert exact.all()
    # Contiguous row ranges that start or end on an empty row.
    for start in range(len(view)):
        for stop in range(start, len(view) + 1):
            part, __ = cscorer.approximate_totals(range(start, stop))
            assert part.tolist() == approx[start:stop].tolist()


def test_empty_catalog_scans_nothing():
    view = ColumnarSnapshot([], version=0)
    query = Query(location=GeoPoint(45.0, -124.0))
    top = _TopK(5)
    assert score_rows_into(
        ColumnarScorer(QueryScorer(query), view), query, range(0), top
    ) == 0
    assert top.sorted_results() == []
    results = SearchEngine(MemoryCatalog(), cache=False).search(query)
    assert list(results) == [] and results.total_matches == 0


# -- column layout ---------------------------------------------------------------


def test_column_arrays_are_pinned_zero_copy_views():
    entry = VariableEntry.from_written("salinity", "u", 10, 0.0, 30.0, 1.0, 1.0)
    feats = [_feature(i, [entry] * (i % 3)) for i in range(7)]
    view = ColumnarSnapshot(feats, version=3)
    cols = view.arrays()
    assert view.arrays() is cols
    n = len(view)
    n_vars = view.var_offsets[-1]
    layout = {
        "min_lat": ("f8", n), "min_lon": ("f8", n),
        "max_lat": ("f8", n), "max_lon": ("f8", n),
        "t_start": ("f8", n), "t_end": ("f8", n),
        "var_offsets": ("i8", n + 1),
        "var_name_ids": ("i8", n_vars), "var_counts": ("i8", n_vars),
        "var_mins": ("f8", n_vars), "var_maxs": ("f8", n_vars),
    }
    for name, (dtype, length) in layout.items():
        column = getattr(cols, name)
        assert column.dtype == np.dtype(dtype), name
        assert column.shape == (length,), name
        assert column.flags.c_contiguous, name
        assert not column.flags.writeable, name
        # Zero-copy: the view reads the array column's own buffer.
        assert column.ctypes.data == getattr(view, name).buffer_info()[0]
        assert column.tolist() == list(getattr(view, name))


# -- the name-similarity memo ----------------------------------------------------


def test_name_similarities_are_memoised_by_content():
    entry = VariableEntry.from_written("salinity", "u", 10, 0.0, 30.0, 1.0, 1.0)
    view = ColumnarSnapshot([_feature(0, [entry])], version=1)
    config = ScoringConfig()
    first = view.name_similarities("salt", {"salt"}, config)
    # An equal expansion built separately hits the same entry.
    assert view.name_similarities("salt", set(["salt"]), config) is first
    assert view.name_similarities("salt", {"salt", "salinity"}, config) is not first
    looser = ScoringConfig(name_partial_threshold=0.1)
    assert view.name_similarities("salt", {"salt"}, looser) is not first
    # Every term of every query scored over the view reads the memo.
    scorer = ColumnarScorer(
        QueryScorer(Query(variables=(VariableTerm("salt"),))), view
    )
    assert scorer._term_sims[0] is first[0]
    for index in range(NAME_SIMS_MEMO_SIZE + 5):
        view.name_similarities(f"term{index}", {f"term{index}"}, config)
    assert len(view._name_sims) <= NAME_SIMS_MEMO_SIZE
