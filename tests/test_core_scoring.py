"""Unit tests for repro.core.scoring (distance-based similarity)."""

import math
from dataclasses import replace

import pytest

from repro.catalog import DatasetFeature, VariableEntry
from repro.core import (
    Query,
    ScoringConfig,
    VariableTerm,
    location_similarity,
    name_similarity,
    range_similarity,
    score_feature,
    time_similarity,
    variable_term_similarity,
)
from repro.geo import BoundingBox, GeoPoint, TimeInterval
from repro.hierarchy import vocabulary_hierarchy


def make_feature(
    bbox=None,
    interval=None,
    variables=None,
):
    return DatasetFeature(
        dataset_id="d1",
        title="D1",
        platform="station",
        file_format="csv",
        bbox=bbox or BoundingBox(46.0, -124.0, 46.2, -123.8),
        interval=interval or TimeInterval(1000.0, 2000.0),
        row_count=10,
        source_directory="",
        variables=variables
        if variables is not None
        else [
            VariableEntry.from_written(
                "water_temperature", "degC", 10, 5.0, 15.0, 10.0, 2.0
            )
        ],
    )


class TestLocationSimilarity:
    def test_inside_box_is_one(self):
        query = Query(location=GeoPoint(46.1, -123.9))
        assert location_similarity(
            query, make_feature(), ScoringConfig()
        ) == pytest.approx(1.0)

    def test_decays_with_distance(self):
        config = ScoringConfig()
        near = location_similarity(
            Query(location=GeoPoint(45.9, -123.9)), make_feature(), config
        )
        far = location_similarity(
            Query(location=GeoPoint(44.0, -123.9)), make_feature(), config
        )
        assert 0 < far < near < 1.0

    def test_decay_scale(self):
        # ~111 km south of the box -> exp(-111/decay).
        query = Query(location=GeoPoint(45.0, -123.9))
        sim = location_similarity(
            query, make_feature(), ScoringConfig(location_decay_km=111.0)
        )
        assert sim == pytest.approx(math.exp(-1.0), rel=0.01)

    def test_region_query(self):
        query = Query(region=BoundingBox(46.0, -124.0, 46.1, -123.9))
        assert location_similarity(
            query, make_feature(), ScoringConfig()
        ) == pytest.approx(1.0)

    def test_no_spatial_term_raises(self):
        with pytest.raises(ValueError):
            location_similarity(Query(), make_feature(), ScoringConfig())


class TestTimeSimilarity:
    def test_overlap_is_one(self):
        sim = time_similarity(
            TimeInterval(1500, 1600), make_feature(), ScoringConfig()
        )
        assert sim == pytest.approx(1.0)

    def test_gap_decays(self):
        config = ScoringConfig(time_decay_days=1.0)
        one_day_later = TimeInterval(2000.0 + 86400.0, 2000.0 + 86400.0)
        sim = time_similarity(one_day_later, make_feature(), config)
        assert sim == pytest.approx(math.exp(-1.0), rel=1e-6)

    def test_monotone_in_gap(self):
        config = ScoringConfig()
        sims = [
            time_similarity(
                TimeInterval(2000.0 + gap, 2000.0 + gap),
                make_feature(),
                config,
            )
            for gap in (0.0, 1e5, 1e6, 1e7)
        ]
        assert sims == sorted(sims, reverse=True)


class TestRangeSimilarity:
    def entry(self, lo=5.0, hi=15.0, count=10):
        return VariableEntry.from_written(
            "x", "m", count, lo, hi, (lo + hi) / 2, 1.0
        )

    def test_no_range_is_one(self):
        term = VariableTerm("x")
        assert range_similarity(term, self.entry(), ScoringConfig()) == 1.0

    def test_query_fully_covered_is_one(self):
        term = VariableTerm("x", low=6.0, high=10.0)
        assert range_similarity(
            term, self.entry(), ScoringConfig()
        ) == pytest.approx(1.0)

    def test_partial_overlap_fraction(self):
        term = VariableTerm("x", low=10.0, high=20.0)  # half covered
        assert range_similarity(
            term, self.entry(), ScoringConfig()
        ) == pytest.approx(0.5, abs=1e-6)

    def test_disjoint_decays(self):
        term = VariableTerm("x", low=20.0, high=25.0)  # gap 5, width 5
        sim = range_similarity(term, self.entry(), ScoringConfig())
        assert sim == pytest.approx(math.exp(-1.0), rel=1e-6)

    def test_empty_column_is_zero(self):
        term = VariableTerm("x", low=0.0, high=1.0)
        entry = VariableEntry.from_written(
            "x", "m", 0, math.nan, math.nan, math.nan, math.nan
        )
        assert range_similarity(term, entry, ScoringConfig()) == 0.0

    def test_half_open_low_only(self):
        term = VariableTerm("x", low=10.0)
        sim = range_similarity(term, self.entry(), ScoringConfig())
        assert 0.0 < sim <= 1.0


class TestNameSimilarity:
    def test_exact_match(self):
        assert name_similarity("salinity", "salinity", set(),
                               ScoringConfig()) == 1.0

    def test_expansion_match(self):
        assert name_similarity(
            "fluorescence", "fluorescence_375nm",
            {"fluorescence_375nm"}, ScoringConfig(),
        ) == 1.0

    def test_near_miss_partial_credit(self):
        sim = name_similarity(
            "water_temperature", "water_temperatur", set(), ScoringConfig()
        )
        assert 0.9 < sim < 1.0

    def test_unrelated_is_zero(self):
        assert name_similarity(
            "salinity", "wind_speed", set(), ScoringConfig()
        ) == 0.0


class TestVariableTermSimilarity:
    def test_hierarchy_expansion_matches_child(self):
        hierarchy = vocabulary_hierarchy()
        feature = make_feature(
            variables=[
                VariableEntry.from_written(
                    "fluorescence_375nm", "1", 10, 0.0, 5.0, 2.0, 1.0
                )
            ]
        )
        term = VariableTerm("fluorescence")
        assert variable_term_similarity(
            term, feature, hierarchy, ScoringConfig()
        ) == 1.0

    def test_excluded_variables_ignored(self):
        entry = replace(
            VariableEntry.from_written(
                "qa_level", "1", 10, 0.0, 2.0, 1.0, 0.5
            ),
            excluded=True,
        )
        feature = make_feature(variables=[entry])
        term = VariableTerm("qa_level")
        assert variable_term_similarity(
            term, feature, None, ScoringConfig()
        ) == 0.0

    def test_best_over_variables(self):
        feature = make_feature(
            variables=[
                VariableEntry.from_written("a_temp", "degC", 5, 0, 1, 0.5, 0.1),
                VariableEntry.from_written(
                    "water_temperature", "degC", 5, 0, 1, 0.5, 0.1
                ),
            ]
        )
        term = VariableTerm("water_temperature")
        assert variable_term_similarity(
            term, feature, None, ScoringConfig()
        ) == 1.0


class TestScoreFeature:
    def paper_query(self):
        return Query(
            location=GeoPoint(46.1, -123.9),
            interval=TimeInterval(1500, 1600),
            variables=(
                VariableTerm("water_temperature", low=5.0, high=10.0),
            ),
        )

    def test_perfect_match_scores_near_one(self):
        feature = make_feature(
            variables=[
                VariableEntry.from_written(
                    "water_temperature", "degC", 10, 5.0, 10.0, 7.0, 1.0
                )
            ]
        )
        breakdown = score_feature(self.paper_query(), feature)
        assert breakdown.total == pytest.approx(1.0)

    def test_empty_query_scores_one(self):
        assert score_feature(Query(), make_feature()).total == 1.0

    def test_breakdown_fields(self):
        breakdown = score_feature(self.paper_query(), make_feature())
        assert breakdown.location is not None
        assert breakdown.time is not None
        assert len(breakdown.variables) == 1
        assert "score=" in breakdown.explain()

    def test_partial_match_still_scores(self):
        # Dataset with wrong variable but right place/time must score > 0
        # (this is the ranked-search advantage over boolean filters).
        feature = make_feature(
            variables=[
                VariableEntry.from_written("salinity", "PSU", 10, 0, 30, 15, 3)
            ]
        )
        breakdown = score_feature(self.paper_query(), feature)
        assert 0.0 < breakdown.total < 1.0

    def test_weighted_mean(self):
        config = ScoringConfig(location_weight=2.0, time_weight=1.0,
                               variable_weight=1.0)
        query = Query(
            location=GeoPoint(40.0, -123.9),  # far: low location sim
            interval=TimeInterval(1500, 1600),  # overlap: 1.0
        )
        plain = score_feature(query, make_feature())
        weighted = score_feature(query, make_feature(), config=config)
        # More weight on the bad term lowers the total.
        assert weighted.total < plain.total

    def test_ablation_switches(self):
        query = self.paper_query()
        feature = make_feature()
        no_location = score_feature(
            query, feature, config=ScoringConfig(use_location=False)
        )
        assert no_location.location is None
        no_time = score_feature(
            query, feature, config=ScoringConfig(use_time=False)
        )
        assert no_time.time is None
        no_vars = score_feature(
            query, feature, config=ScoringConfig(use_variables=False)
        )
        assert no_vars.variables == ()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScoringConfig(location_decay_km=0.0)
        with pytest.raises(ValueError):
            ScoringConfig(name_partial_threshold=1.5)
