"""Property test: the fast path is exact.

The pruned-exactness contract — the columnar two-stage scan, upper-bound
pruning, the bounded top-k heap and the query cache must return
*identical* results (ids, scores, order, breakdowns and
``total_matches``) to the object-scorer oracle of
``tests/search_oracle.py`` — holds for every catalog (live or
snapshot), query, limit and decay shape Hypothesis can dream up.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import DatasetFeature, MemoryCatalog, VariableEntry
from repro.core import Query, ScoringConfig, SearchEngine, VariableTerm
from repro.core.scoring import DECAY_SHAPES
from repro.geo import BoundingBox, GeoPoint, TimeInterval
from repro.hierarchy import vocabulary_hierarchy
from tests.search_oracle import object_matches, object_search

HIERARCHY = vocabulary_hierarchy()

# A small pool so random catalogs and queries collide on names —
# exact hits, hierarchy expansions, near-misses and no-matches all occur.
NAME_POOL = (
    "water_temperature", "water_temp", "temperature",
    "salinity", "salnity", "oxygen", "chlorophyll", "depth",
)

latitudes = st.floats(40.0, 50.0, allow_nan=False)
longitudes = st.floats(-128.0, -120.0, allow_nan=False)
times = st.floats(0.0, 1e7, allow_nan=False)


@st.composite
def features(draw, index):
    lat = draw(latitudes)
    lon = draw(longitudes)
    t0 = draw(times)
    n_vars = draw(st.integers(1, 3))
    variables = []
    for __ in range(n_vars):
        lo = draw(st.floats(-10.0, 20.0, allow_nan=False))
        variables.append(
            VariableEntry.from_written(
                draw(st.sampled_from(NAME_POOL)), "u", 10,
                lo, lo + draw(st.floats(0.1, 15.0, allow_nan=False)),
                lo, 1.0,
            )
        )
    return DatasetFeature(
        dataset_id=f"ds_{index:03d}",
        title=f"dataset {index}",
        platform="station",
        file_format="csv",
        bbox=BoundingBox(
            lat, lon,
            lat + draw(st.floats(0.0, 0.5, allow_nan=False)),
            lon + draw(st.floats(0.0, 0.5, allow_nan=False)),
        ),
        interval=TimeInterval(
            t0, t0 + draw(st.floats(0.0, 1e6, allow_nan=False))
        ),
        row_count=10,
        source_directory="",
        variables=variables,
    )


@st.composite
def catalogs(draw):
    """A live store, or a snapshot of one."""
    catalog = MemoryCatalog()
    for i in range(draw(st.integers(0, 30))):
        catalog.upsert(draw(features(i)))
    return catalog.snapshot() if draw(st.booleans()) else catalog


@st.composite
def variable_terms(draw):
    name = draw(st.sampled_from(NAME_POOL))
    if draw(st.booleans()):
        lo = draw(st.floats(-10.0, 20.0, allow_nan=False))
        return VariableTerm(
            name, low=lo, high=lo + draw(st.floats(0.0, 10.0,
                                                   allow_nan=False))
        )
    return VariableTerm(name)


@st.composite
def queries(draw):
    location = region = None
    spatial = draw(st.sampled_from(["point", "region", "none"]))
    if spatial == "point":
        location = GeoPoint(draw(latitudes), draw(longitudes))
    elif spatial == "region":
        lat, lon = draw(latitudes), draw(longitudes)
        region = BoundingBox(lat, lon, lat + 1.0, lon + 1.0)
    interval = None
    if draw(st.booleans()):
        t0 = draw(times)
        interval = TimeInterval(
            t0, t0 + draw(st.floats(0.0, 1e6, allow_nan=False))
        )
    return Query(
        location=location,
        region=region,
        interval=interval,
        variables=tuple(
            draw(st.lists(variable_terms(), max_size=2))
        ),
    )


@settings(max_examples=60, deadline=None)
@given(
    catalog=catalogs(),
    query=queries(),
    limit=st.integers(1, 8),
    shape=st.sampled_from(DECAY_SHAPES),
    use_hierarchy=st.booleans(),
)
def test_fast_path_identical_to_full_scan(
    catalog, query, limit, shape, use_hierarchy
):
    hierarchy = HIERARCHY if use_hierarchy else None
    config = ScoringConfig(decay_shape=shape)
    fast = SearchEngine(catalog, hierarchy=hierarchy, config=config)
    oracle = object_search(
        catalog, query, limit=limit, hierarchy=hierarchy, config=config
    )
    expected = (
        [(r.dataset_id, r.score, r.breakdown) for r in oracle],
        oracle.total_matches,
    )
    for attempt in range(2):  # second pass serves from the cache
        results = fast.search(query, limit=limit)
        got = (
            [(r.dataset_id, r.score, r.breakdown) for r in results],
            results.total_matches,
        )
        assert got == expected, (
            f"fast path diverged (attempt {attempt}, shape={shape}): "
            f"{got} != {expected}"
        )


@settings(max_examples=30, deadline=None)
@given(
    catalog=catalogs(),
    query=queries(),
    shape=st.sampled_from(DECAY_SHAPES),
)
def test_total_matches_contract(catalog, query, shape):
    """Exact when the page never fills; a lower bound once it does."""
    config = ScoringConfig(decay_shape=shape)
    engine = SearchEngine(catalog, config=config, cache=False)
    exact = object_matches(catalog, query, config=config)
    full_page = engine.search(query, limit=len(catalog) + 1)
    assert full_page.total_matches == exact
    assert not full_page.truncated
    small_page = engine.search(query, limit=3)
    assert len(small_page) <= small_page.total_matches <= exact
    assert small_page.truncated == (
        small_page.total_matches > len(small_page)
    )
