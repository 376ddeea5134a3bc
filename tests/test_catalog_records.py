"""Unit tests for repro.catalog.records."""

import math
import pickle
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.catalog import DatasetFeature, VariableEntry
from repro.geo import BoundingBox, TimeInterval


def make_entry(name="salinity", **overrides):
    defaults = dict(
        written_name=name,
        written_unit="PSU",
        count=10,
        minimum=5.0,
        maximum=20.0,
        mean=12.0,
        stddev=3.0,
    )
    defaults.update(overrides)
    return VariableEntry.from_written(**defaults) if not overrides else (
        VariableEntry(
            written_name=defaults["written_name"],
            written_unit=defaults["written_unit"],
            name=defaults.get("name", defaults["written_name"]),
            unit=defaults.get("unit", defaults["written_unit"]),
            count=defaults["count"],
            minimum=defaults["minimum"],
            maximum=defaults["maximum"],
            mean=defaults["mean"],
            stddev=defaults["stddev"],
            excluded=defaults.get("excluded", False),
        )
    )


def make_feature(variables=None):
    return DatasetFeature(
        dataset_id="stations/x/x_2009.csv",
        title="Station X 2009",
        platform="station",
        file_format="csv",
        bbox=BoundingBox(46.0, -124.0, 46.0, -124.0),
        interval=TimeInterval(0.0, 86400.0),
        row_count=100,
        source_directory="stations/x",
        attributes={"station": "x"},
        variables=variables if variables is not None else [make_entry()],
    )


class TestVariableEntry:
    def test_from_written_current_equals_written(self):
        entry = VariableEntry.from_written("SAL", "psu", 5, 1, 2, 1.5, 0.2)
        assert entry.name == "SAL"
        assert entry.unit == "psu"
        assert entry.written_name == "SAL"

    def test_copy_is_independent(self):
        entry = make_entry()
        clone = replace(entry, name="renamed")
        assert entry.name == "salinity"
        assert clone.name == "renamed"

    def test_rename_preserves_written(self):
        renamed = replace(make_entry(), name="salinity_canonical")
        assert renamed.written_name == "salinity"

    def test_fields_cannot_be_assigned(self):
        entry = make_entry()
        with pytest.raises(FrozenInstanceError):
            entry.name = "renamed"
        with pytest.raises(FrozenInstanceError):
            entry.excluded = True
        assert entry == make_entry()


class TestDatasetFeature:
    def test_variable_lookup_by_current_name(self):
        feature = make_feature()
        assert feature.variable("salinity").unit == "PSU"

    def test_variable_lookup_missing_raises(self):
        with pytest.raises(KeyError):
            make_feature().variable("nope")

    def test_searchable_excludes_excluded(self):
        entries = [
            make_entry(),
            make_entry(written_name="qa_level", excluded=True),
        ]
        feature = make_feature(entries)
        names = [v.name for v in feature.searchable_variables()]
        assert names == ["salinity"]
        assert len(feature.variable_names()) == 2

    def test_record_is_immutable(self):
        feature = make_feature()
        with pytest.raises(FrozenInstanceError):
            feature.title = "changed"
        with pytest.raises(FrozenInstanceError):
            feature.variables[0].name = "changed"
        with pytest.raises(AttributeError):
            feature.variables.append(make_entry("depth"))
        with pytest.raises(TypeError):
            feature.variables[0] = make_entry("depth")
        with pytest.raises(TypeError):
            feature.attributes["station"] = "y"
        assert feature == make_feature()

    def test_constructor_takes_private_containers(self):
        # Lists and dicts are accepted (perfbench builds features from
        # them) and stored as a tuple and a read-only view of a copy, so
        # the caller's containers cannot reach the record.
        variables = [make_entry()]
        attributes = {"station": "x"}
        feature = make_feature(variables)
        feature = replace(feature, attributes=attributes)
        variables.append(make_entry("depth"))
        attributes["station"] = "y"
        assert type(feature.variables) is tuple
        assert feature.variable_names() == ["salinity"]
        assert feature.attributes == {"station": "x"}

    def test_pickles_and_equals_itself(self):
        feature = make_feature()
        assert pickle.loads(pickle.dumps(feature)) == feature


class TestStoredForm:
    """The constructors hold values as a SQLite catalog stores them."""

    def test_lossless_values_convert(self):
        entry = make_entry(count=True, minimum=-0.0, maximum=20, mean=12.0)
        assert entry.count == 1 and type(entry.count) is int
        assert str(entry.minimum) == "0.0"
        assert type(entry.maximum) is float
        assert make_entry(count=5.0).count == 5
        feature = replace(
            make_feature([entry]),
            bbox=BoundingBox(-0.0, -124, 47, 0),
            interval=TimeInterval(-0.0, 86400),
            attributes={"zeta": "1", "alpha": "2"},
        )
        assert feature.bbox.as_tuple() == (0.0, -124.0, 47.0, 0.0)
        assert all(type(x) is float for x in feature.bbox.as_tuple())
        assert str(feature.bbox.min_lat) == "0.0"
        assert all(type(x) is float for x in feature.interval.as_tuple())
        assert str(feature.interval.start) == "0.0"
        assert list(feature.attributes) == ["alpha", "zeta"]

    def test_any_nan_is_math_nan_and_records_with_it_are_equal(self):
        nan = float("inf") - float("inf")
        assert nan is not math.nan
        entry = make_entry(count=0, minimum=nan, maximum=nan, mean=nan,
                           stddev=nan)
        assert entry.minimum is math.nan and entry.stddev is math.nan
        again = make_entry(count=0, minimum=float("nan"),
                           maximum=float("nan"), mean=float("nan"),
                           stddev=float("nan"))
        assert entry == again
        assert make_feature([entry]) == make_feature([again])

    def test_nan_survives_pickling(self):
        entry = make_entry(count=0, minimum=math.nan, maximum=math.nan,
                           mean=math.nan, stddev=math.nan)
        clone = pickle.loads(pickle.dumps(make_feature([entry])))
        assert clone.variables[0].mean is math.nan
        assert clone == make_feature([entry])

    @pytest.mark.parametrize(
        "overrides",
        [
            {"count": 2.5},
            {"count": 2.0**63},
            {"count": 1e19},
            {"count": 2**63},
            {"count": math.inf},
            {"count": None},
            {"count": "5"},
            {"minimum": "1.0"},
            {"mean": None},
            {"stddev": 10**400},
            {"name": 5},
            {"unit": None},
            {"excluded": 1},
        ],
        ids=repr,
    )
    def test_entry_rejections_are_type_errors(self, overrides):
        with pytest.raises(TypeError):
            make_entry(**overrides)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"dataset_id": 5},
            {"title": None},
            {"row_count": 2.5},
            {"row_count": 2.0**63},
            {"attributes": {"k": 1}},
            {"attributes": {1: "v"}},
            {"variables": [{"name": "salinity"}]},
            {"bbox": (46.0, -124.0, 46.0, -124.0)},
        ],
        ids=repr,
    )
    def test_feature_rejections_are_type_errors(self, overrides):
        with pytest.raises(TypeError):
            replace(make_feature(), **overrides)

    def test_coordinate_rejections_are_type_errors(self):
        with pytest.raises(TypeError):
            BoundingBox("46", -124.0, 47.0, -123.0)
        with pytest.raises(TypeError):
            TimeInterval(0.0, 10**400)
