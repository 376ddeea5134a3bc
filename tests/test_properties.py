"""Property-based tests (hypothesis) on the core data structures and
invariants: distances, fingerprints, intervals, boxes, scoring, stores."""

import math
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import DatasetFeature, MemoryCatalog, VariableEntry
from repro.core import Query, ScoringConfig, VariableTerm, score_feature
from repro.geo import BoundingBox, GeoPoint, TimeInterval, haversine_km
from repro.text import (
    damerau_levenshtein,
    fingerprint,
    jaro_winkler,
    levenshtein,
    levenshtein_similarity,
    ngram_fingerprint,
    normalize_name,
)

names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_0123456789- ", min_size=0,
    max_size=24,
)
short_names = st.text(
    alphabet="abcdefghijk_", min_size=0, max_size=12
)
lats = st.floats(min_value=-90, max_value=90, allow_nan=False)
lons = st.floats(min_value=-180, max_value=180, allow_nan=False)
epochs = st.floats(min_value=-1e10, max_value=1e10, allow_nan=False)


class TestTextProperties:
    @given(short_names, short_names)
    def test_levenshtein_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(short_names, short_names, short_names)
    @settings(max_examples=50)
    def test_levenshtein_triangle(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(short_names)
    def test_levenshtein_identity(self, a):
        assert levenshtein(a, a) == 0

    @given(short_names, short_names)
    def test_damerau_at_most_levenshtein(self, a, b):
        assert damerau_levenshtein(a, b) <= levenshtein(a, b)

    @given(short_names, short_names)
    def test_similarity_in_unit_interval(self, a, b):
        assert 0.0 <= levenshtein_similarity(a, b) <= 1.0
        assert 0.0 <= jaro_winkler(a, b) <= 1.0

    @given(names)
    def test_fingerprint_idempotent(self, value):
        assert fingerprint(fingerprint(value)) == fingerprint(value)

    @given(names)
    def test_fingerprint_case_invariant(self, value):
        assert fingerprint(value.upper()) == fingerprint(value.lower())

    @given(names)
    def test_ngram_fingerprint_deterministic(self, value):
        assert ngram_fingerprint(value) == ngram_fingerprint(value)

    @given(names)
    def test_normalize_name_idempotent(self, value):
        once = normalize_name(value)
        assert normalize_name(once) == once


class TestGeoProperties:
    @given(lats, lons, lats, lons)
    def test_haversine_symmetric_nonnegative(self, a, b, c, d):
        d1 = haversine_km(a, b, c, d)
        assert d1 >= 0.0
        assert d1 == haversine_km(c, d, a, b)

    @given(lats, lons)
    def test_haversine_self_zero(self, lat, lon):
        assert haversine_km(lat, lon, lat, lon) == 0.0

    @given(st.lists(st.tuples(lats, lons), min_size=1, max_size=8))
    def test_bbox_contains_its_points(self, coordinates):
        points = [GeoPoint(lat, lon) for lat, lon in coordinates]
        box = BoundingBox.from_points(points)
        for point in points:
            assert box.contains_point(point)
            assert box.distance_km_to_point(point) == 0.0

    @given(st.lists(st.tuples(lats, lons), min_size=1, max_size=6),
           lats, lons)
    def test_bbox_distance_lower_bounds_point_distances(
        self, coordinates, qlat, qlon
    ):
        points = [GeoPoint(lat, lon) for lat, lon in coordinates]
        box = BoundingBox.from_points(points)
        query = GeoPoint(qlat, qlon)
        box_distance = box.distance_km_to_point(query)
        nearest_point = min(p.distance_km(query) for p in points)
        # Lat/lon clamping is exact regionally; allow the documented
        # ~0.1% slack at planetary scales.
        assert box_distance <= nearest_point * 1.001 + 1e-6


class TestIntervalProperties:
    @given(epochs, st.floats(min_value=0, max_value=1e8), epochs,
           st.floats(min_value=0, max_value=1e8))
    def test_gap_overlap_exclusive(self, s1, d1, s2, d2):
        a = TimeInterval(s1, s1 + d1)
        b = TimeInterval(s2, s2 + d2)
        if a.overlaps(b):
            assert a.gap_seconds(b) == 0.0
        else:
            assert a.gap_seconds(b) > 0.0
            assert a.overlap_seconds(b) == 0.0

    @given(epochs, st.floats(min_value=0, max_value=1e8), epochs,
           st.floats(min_value=0, max_value=1e8))
    def test_gap_symmetric(self, s1, d1, s2, d2):
        a = TimeInterval(s1, s1 + d1)
        b = TimeInterval(s2, s2 + d2)
        assert a.gap_seconds(b) == b.gap_seconds(a)

    @given(epochs, st.floats(min_value=0, max_value=1e8), epochs,
           st.floats(min_value=0, max_value=1e8))
    def test_intersection_within_both(self, s1, d1, s2, d2):
        a = TimeInterval(s1, s1 + d1)
        b = TimeInterval(s2, s2 + d2)
        inter = a.intersection(b)
        if inter is not None:
            assert inter.start >= max(a.start, b.start)
            assert inter.end <= min(a.end, b.end)

    @given(epochs, st.floats(min_value=0, max_value=1e8),
           st.floats(min_value=0, max_value=1e6))
    def test_expand_contains_original(self, start, duration, margin):
        interval = TimeInterval(start, start + duration)
        expanded = interval.expand(margin)
        assert expanded.start <= interval.start
        assert expanded.end >= interval.end


def _feature(lat, lon, t0, t1, var_lo, var_hi):
    return DatasetFeature(
        dataset_id="d",
        title="d",
        platform="station",
        file_format="csv",
        bbox=BoundingBox(lat, lon, lat, lon),
        interval=TimeInterval(t0, t1),
        row_count=1,
        source_directory="",
        variables=[
            VariableEntry.from_written(
                "x", "m", 5, var_lo, var_hi, (var_lo + var_hi) / 2, 0.1
            )
        ],
    )


class TestScoringProperties:
    @given(lats, lons, lats, lons,
           st.floats(min_value=0, max_value=1e6),
           st.floats(min_value=0, max_value=1e6))
    @settings(max_examples=60)
    def test_score_in_unit_interval(self, flat, flon, qlat, qlon, t0, dt):
        feature = _feature(flat, flon, t0, t0 + dt, 0.0, 10.0)
        query = Query(
            location=GeoPoint(qlat, qlon),
            interval=TimeInterval(0.0, 100.0),
            variables=(VariableTerm("x", low=0.0, high=5.0),),
        )
        breakdown = score_feature(query, feature)
        assert 0.0 <= breakdown.total <= 1.0 + 1e-9

    @given(st.floats(min_value=0.1, max_value=500))
    @settings(max_examples=30)
    def test_closer_scores_higher(self, offset_degrees_tenth):
        offset = offset_degrees_tenth / 100.0
        near = _feature(46.0, -124.0, 0, 100, 0, 10)
        far = _feature(
            min(90.0, 46.0 + offset * 2), -124.0, 0, 100, 0, 10
        )
        query = Query(location=GeoPoint(min(90.0, 46.0 + offset), -124.0))
        near_score = score_feature(query, near).total
        far_score = score_feature(query, far).total
        # The query sits between them but closer to `far`'s offset * 1;
        # compare against the strictly farther dataset instead:
        base = _feature(46.0, -124.0, 0, 100, 0, 10)
        query_at_base = Query(location=GeoPoint(46.0, -124.0))
        assert score_feature(query_at_base, base).total >= (
            score_feature(query_at_base, far).total
        )

    @given(st.integers(min_value=1, max_value=20))
    def test_time_decay_monotone(self, gap_days):
        feature = _feature(46.0, -124.0, 0.0, 86400.0, 0, 10)
        config = ScoringConfig()
        closer = Query(
            interval=TimeInterval.instant(86400.0 + gap_days * 43200.0)
        )
        farther = Query(
            interval=TimeInterval.instant(86400.0 + gap_days * 86400.0)
        )
        assert score_feature(closer, feature, config=config).total >= (
            score_feature(farther, feature, config=config).total
        )


class TestStoreProperties:
    @given(st.lists(
        st.text(alphabet="abcdef/_", min_size=1, max_size=12),
        min_size=1, max_size=10, unique=True,
    ))
    def test_upsert_then_ids_sorted_unique(self, dataset_ids):
        store = MemoryCatalog()
        for dataset_id in dataset_ids:
            store.upsert(_feature(0, 0, 0, 1, 0, 1))
            store.upsert(
                replace(_feature(0, 0, 0, 1, 0, 1), dataset_id=dataset_id)
            )
        ids = store.dataset_ids()
        assert ids == sorted(set(ids))
        assert set(dataset_ids) <= set(ids)

    @given(st.dictionaries(
        st.text(alphabet="abc_", min_size=1, max_size=6),
        st.text(alphabet="xyz_", min_size=1, max_size=6),
        max_size=5,
    ))
    def test_rename_is_complete(self, mapping):
        store = MemoryCatalog()
        feature = replace(
            _feature(0, 0, 0, 1, 0, 1),
            variables=[
                VariableEntry.from_written(name, "m", 1, 0, 1, 0.5, 0.1)
                for name in mapping
            ],
        )
        store.upsert(feature)
        store.rename_variables(mapping)
        remaining = set(store.variable_name_counts())
        for old, new in mapping.items():
            if old != new and old not in mapping.values():
                assert old not in remaining
