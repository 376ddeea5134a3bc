"""Unit tests for process-configuration serialization."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curator import AddScanTarget, AddSynonym, DecideAmbiguity
from repro.semantics import AmbiguityAction
from repro.wrangling import WranglingState, default_chain
from repro.wrangling.config_io import (
    ProcessConfigError,
    dump_process_config,
    load_process_config,
)


@pytest.fixture()
def configured(messy_fs):
    """A chain+state after a run and some curator improvements."""
    fs, __ = messy_fs
    state = WranglingState(fs=fs)
    chain = default_chain()
    chain.run(state)
    AddSynonym("salinity", "salznity").apply(chain, state)
    AddScanTarget("extra_dir", "*.csv").apply(chain, state)
    DecideAmbiguity(
        "temp", AmbiguityAction.HIDE
    ).apply(chain, state)
    return chain, state, fs


class TestDump:
    def test_valid_json_with_marker(self, configured):
        chain, state, __ = configured
        payload = json.loads(dump_process_config(chain, state))
        assert payload["format"] == "repro-process-config"
        assert payload["components"] == chain.names()

    def test_contains_curated_knowledge(self, configured):
        chain, state, __ = configured
        payload = json.loads(dump_process_config(chain, state))
        assert ["salznity", "salinity"] in payload["synonyms"]
        assert any(
            t["directory"] == "extra_dir" for t in payload["scan_targets"]
        )
        assert any(d["name"] == "temp" for d in payload["decisions"])

    def test_discovered_rules_included(self, configured):
        chain, state, __ = configured
        payload = json.loads(dump_process_config(chain, state))
        assert isinstance(payload["discovered_rules"], list)


class TestLoad:
    def test_roundtrip_restores_knowledge(self, configured):
        chain, state, fs = configured
        text = dump_process_config(chain, state)
        chain2, state2 = load_process_config(text, fs=fs)
        assert state2.resolver.synonyms.resolve("salznity") == "salinity"
        assert any(d.name == "temp" for d in state2.decisions)
        scan = chain2.component("scan-archive")
        assert any(t.directory == "extra_dir" for t in scan.targets)

    def test_roundtrip_reproduces_published_catalog(self, configured):
        chain, state, fs = configured
        # Re-run the original to settle post-improvement state.
        chain.run(state)
        text = dump_process_config(chain, state)
        chain2, state2 = load_process_config(text, fs=fs)
        chain2.run(state2)
        names1 = state.published.variable_name_counts()
        names2 = state2.published.variable_name_counts()
        assert names2 == names1

    def test_not_json(self):
        with pytest.raises(ProcessConfigError):
            load_process_config("nope")

    def test_missing_marker(self):
        with pytest.raises(ProcessConfigError):
            load_process_config('{"version": 1}')

    def test_wrong_version(self):
        text = json.dumps(
            {"format": "repro-process-config", "version": 42}
        )
        with pytest.raises(ProcessConfigError):
            load_process_config(text)

    def test_unknown_component_rejected(self):
        text = json.dumps(
            {
                "format": "repro-process-config",
                "version": 1,
                "components": ["quantum-dedup"],
            }
        )
        with pytest.raises(ProcessConfigError):
            load_process_config(text)

    def test_bad_synonym_row(self):
        text = json.dumps(
            {
                "format": "repro-process-config",
                "version": 1,
                "synonyms": ["not-a-pair"],
            }
        )
        with pytest.raises(ProcessConfigError):
            load_process_config(text)

    def test_empty_config_gives_default_chain(self):
        text = json.dumps(
            {"format": "repro-process-config", "version": 1}
        )
        chain, state = load_process_config(text)
        assert chain.names()[0] == "scan-archive"
        assert len(state.decisions) == 0


PAYLOAD_KEYS = [
    "components",
    "scan_targets",
    "scan_workers",
    "synonyms",
    "abbreviations",
    "context_rules",
    "exclusion_patterns",
    "decisions",
    "discovered_rules",
]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

# Values shaped like the real content one level down, so the fuzz also
# reaches the row, decision, target and operation parsers.
FIELD_NAMES = [
    "name", "action", "canonical", "scope", "directory", "pattern",
    "recursive", "op", "columnName", "edits", "from", "to", "expression",
    "engineConfig", "facets", "mode", "oldColumnName", "newColumnName",
    "baseColumnName", "repeatCount", "description",
]
OPS = [
    "core/mass-edit", "core/text-transform", "core/column-rename",
    "core/column-removal", "core/column-addition", "core/fill-down",
    "core/row-removal",
]
shaped_values = st.lists(
    st.lists(json_values, max_size=4)
    | st.dictionaries(
        st.sampled_from(FIELD_NAMES),
        st.sampled_from(OPS) | st.sampled_from(["clarify", "hide"])
        | json_values,
        max_size=6,
    ),
    max_size=3,
)


class TestMalformedContent:
    @pytest.mark.parametrize("content", [
        {"discovered_rules": [1]},
        {"discovered_rules": [{"op": "core/bogus"}]},
        {"discovered_rules": [{"op": "core/mass-edit",
                               "columnName": "c", "edits": 7}]},
        {"decisions": [{}]},
        {"decisions": [{"name": "temp", "action": "shrug"}]},
        {"scan_targets": [{}]},
        {"synonyms": 5},
        {"synonyms": [["a", "b"], ["a", "c"]]},
        {"exclusion_patterns": ["("]},
        {"components": [["scan-archive"]]},
    ])
    def test_typed_error(self, content):
        text = json.dumps(
            {"format": "repro-process-config", "version": 1, **content}
        )
        with pytest.raises(ProcessConfigError) as info:
            load_process_config(text)
        assert str(info.value)

    @given(
        key=st.sampled_from(PAYLOAD_KEYS),
        value=json_values | shaped_values,
    )
    @settings(max_examples=300, deadline=None)
    def test_any_value_loads_or_raises_typed(self, key, value):
        text = json.dumps(
            {"format": "repro-process-config", "version": 1, key: value}
        )
        try:
            load_process_config(text)
        except ProcessConfigError:
            pass
