"""Unit tests for repro.refine.history (rule sets and JSON round-trips)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.refine import (
    MassEditEdit,
    MassEditOperation,
    OperationError,
    RefineTable,
    RuleSet,
    TextTransformOperation,
)


def mass_edit(mapping: dict[str, str]) -> MassEditOperation:
    return MassEditOperation(
        column="field",
        edits=[
            MassEditEdit((old,), new) for old, new in mapping.items()
        ],
    )


class TestRuleSet:
    def test_apply_in_order(self):
        rules = RuleSet()
        rules.append(mass_edit({"a": "b"}))
        rules.append(mass_edit({"b": "c"}))
        table = RefineTable(columns=["field"], rows=[{"field": "a"}])
        rules.apply(table)
        assert table.rows[0]["field"] == "c"

    def test_len_and_extend(self):
        rules = RuleSet()
        rules.extend([mass_edit({"a": "b"}), mass_edit({"c": "d"})])
        assert len(rules) == 2

    def test_dumps_loads_roundtrip(self):
        rules = RuleSet()
        rules.append(mass_edit({"ATastn": "sea surface temperature"}))
        rules.append(
            TextTransformOperation(
                column="field", expression="value.trim()"
            )
        )
        loaded = RuleSet.loads(rules.dumps())
        assert len(loaded) == 2
        assert loaded.rename_mapping() == rules.rename_mapping()

    def test_loads_single_object(self):
        text = json.dumps(mass_edit({"a": "b"}).to_json())
        assert len(RuleSet.loads(text)) == 1

    def test_loads_non_history_raises(self):
        with pytest.raises(OperationError):
            RuleSet.loads('"just a string"')

    def test_dumps_is_valid_json_array(self):
        rules = RuleSet([mass_edit({"a": "b"})])
        data = json.loads(rules.dumps())
        assert isinstance(data, list)
        assert data[0]["op"] == "core/mass-edit"


class TestRenameMapping:
    def test_simple(self):
        rules = RuleSet([mass_edit({"a": "b", "x": "y"})])
        assert rules.rename_mapping() == {"a": "b", "x": "y"}

    def test_composition_across_operations(self):
        rules = RuleSet([mass_edit({"a": "b"}), mass_edit({"b": "c"})])
        mapping = rules.rename_mapping()
        assert mapping["a"] == "c"
        assert mapping["b"] == "c"

    def test_identity_dropped(self):
        rules = RuleSet([mass_edit({"a": "b"}), mass_edit({"b": "a"})])
        mapping = rules.rename_mapping()
        assert "a" not in mapping  # a->b->a collapses to identity

    def test_non_mass_edit_ops_ignored(self):
        rules = RuleSet(
            [TextTransformOperation(column="f", expression="value")]
        )
        assert rules.rename_mapping() == {}


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=10,
)
facet_dicts = st.dictionaries(
    st.sampled_from(
        ["type", "columnName", "name", "selection", "mode", "query"]
    ),
    st.sampled_from(["list", "text", "regex", "field"]) | json_values,
    max_size=5,
)
engine_configs = st.fixed_dictionaries(
    {"facets": st.lists(facet_dicts | json_values, max_size=2)},
    optional={"mode": json_values},
)
op_dicts = st.dictionaries(
    st.sampled_from([
        "op", "columnName", "edits", "expression", "engineConfig",
        "onError", "repeat", "repeatCount", "oldColumnName",
        "newColumnName", "baseColumnName", "description",
    ]),
    st.sampled_from([
        "core/mass-edit", "core/text-transform", "core/column-rename",
        "core/column-removal", "core/column-addition", "core/fill-down",
        "core/row-removal", "field",
    ])
    | engine_configs
    | st.lists(
        st.dictionaries(
            st.sampled_from(["from", "to", "fromBlank", "fromError"]),
            json_values,
        )
        | json_values,
        max_size=2,
    )
    | json_values,
    max_size=7,
)


@given(history=st.lists(op_dicts | json_values, max_size=3) | op_dicts)
@settings(max_examples=300, deadline=None)
def test_any_history_loads_or_raises_operation_error(history):
    try:
        RuleSet.loads(json.dumps(history))
    except OperationError:
        pass


def test_history_that_is_not_json_raises_operation_error():
    with pytest.raises(OperationError):
        RuleSet.loads("[{")
