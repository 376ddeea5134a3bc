"""Unit tests for the individual wrangling components."""

import pytest

from repro.archive import STATION_REGISTRY_PATH, VOCABULARY
from repro.semantics import AmbiguityAction, AmbiguityDecision
from repro.wrangling import (
    AddExternalMetadata,
    DiscoverTransformations,
    GenerateHierarchies,
    PerformDiscoveredTransformations,
    PerformKnownTransformations,
    Publish,
    ScanArchive,
    ScanTarget,
    UNRESOLVED_BRANCH,
    WranglingState,
)


@pytest.fixture()
def state(messy_fs):
    fs, __ = messy_fs
    return WranglingState(fs=fs)


def scan(state, **kwargs):
    component = ScanArchive(**kwargs)
    return component, component.execute(state)


class TestScanArchive:
    def test_scans_all_datasets(self, state, messy_fs):
        __, report = scan(state)
        fs, truth = messy_fs
        assert len(state.working) == len(truth)
        assert report.changes == len(truth)

    def test_skips_unchanged_on_rerun(self, state):
        component, first = scan(state)
        second = component.execute(state)
        assert second.changes == 0
        assert second.items_skipped == first.changes

    def test_rescan_after_edit_updates(self, state):
        component, __ = scan(state)
        dataset_id = state.working.dataset_ids()[0]
        record = state.fs.get(dataset_id)
        state.fs.put(dataset_id, record.content + "\n")
        report = component.execute(state)
        assert report.changes == 1

    def test_removed_file_drops_dataset(self, state):
        component, __ = scan(state)
        victim = state.working.dataset_ids()[0]
        state.fs.remove(victim)
        report = component.execute(state)
        assert victim not in state.working.dataset_ids()
        assert report.changes >= 1

    def test_directory_targeting(self, state):
        component = ScanArchive(
            targets=[ScanTarget(directory="stations", recursive=True)]
        )
        component.execute(state)
        assert all(
            dataset_id.startswith("stations/")
            for dataset_id in state.working.dataset_ids()
        )

    def test_add_target_extends_scan(self, state):
        component = ScanArchive(
            targets=[ScanTarget(directory="stations", recursive=True)]
        )
        component.execute(state)
        before = len(state.working)
        component.add_target("met")
        component.execute(state)
        assert len(state.working) > before

    def test_non_dataset_files_ignored(self, state):
        scan(state)
        assert STATION_REGISTRY_PATH not in state.working.dataset_ids()

    def test_parse_error_reported_not_fatal(self, state):
        state.fs.put("stations/broken/bad.csv", "# nothing\n")
        __, report = scan(state)
        assert any("parse error" in m for m in report.messages)


class TestKnownTransformations:
    def test_resolves_names(self, state, messy_fs):
        scan(state)
        report = PerformKnownTransformations().execute(state)
        assert report.changes > 0
        fs, truth = messy_fs
        # Every variable that resolved must carry resolution provenance.
        for __, entry in state.working.iter_variables():
            if entry.name != entry.written_name:
                assert entry.resolution

    def test_marks_excessive_excluded(self, state):
        scan(state)
        PerformKnownTransformations().execute(state)
        excluded = {
            entry.name
            for __, entry in state.working.iter_variables()
            if entry.excluded
        }
        assert "qa_level" in excluded or "qc_flag" in excluded

    def test_normalizes_units(self, state):
        scan(state)
        PerformKnownTransformations().execute(state)
        units = {
            entry.unit for __, entry in state.working.iter_variables()
        }
        assert "Centigrade" not in units
        assert "C" not in units

    def test_sets_context(self, state):
        scan(state)
        PerformKnownTransformations().execute(state)
        for feature in state.working:
            expected = "air" if feature.platform == "met" else "water"
            for entry in feature.variables:
                assert entry.context == expected

    def test_curator_decision_clarify(self, state):
        scan(state)
        # Find a dataset with a phantom 'temp'.
        target = None
        for feature in state.working:
            names = feature.variable_names()
            if "temp" in names:
                target = feature.dataset_id
                break
        if target is None:
            pytest.skip("no phantom temp on this fixture")
        state.decisions.append(
            AmbiguityDecision(
                name="temp",
                action=AmbiguityAction.CLARIFY,
                canonical="water_temperature",
                scope=target,
            )
        )
        PerformKnownTransformations().execute(state)
        names = state.working.get(target).variable_names()
        assert "temp" not in names

    def test_curator_decision_hide(self, state):
        scan(state)
        state.decisions.append(
            AmbiguityDecision(name="temp", action=AmbiguityAction.HIDE)
        )
        PerformKnownTransformations().execute(state)
        for __, entry in state.working.iter_variables():
            if entry.name == "temp":
                assert entry.excluded

    def test_idempotent_second_run(self, state):
        scan(state)
        component = PerformKnownTransformations()
        component.execute(state)
        second = component.execute(state)
        assert second.changes == 0


class TestAddExternalMetadata:
    def test_enriches_station_datasets(self, state):
        scan(state)
        report = AddExternalMetadata().execute(state)
        assert report.changes > 0
        enriched = [
            f for f in state.working
            if "station_name" in f.attributes
        ]
        assert enriched
        for feature in enriched:
            assert feature.attributes["station_name"].startswith(
                ("Station", "Met")
            )

    def test_loads_registry_into_state(self, state):
        scan(state)
        AddExternalMetadata().execute(state)
        assert state.stations

    def test_missing_registry_is_graceful(self, state):
        state.fs.remove(STATION_REGISTRY_PATH)
        scan(state)
        report = AddExternalMetadata().execute(state)
        assert report.changes == 0
        assert any("no registry" in m for m in report.messages)

    def test_idempotent(self, state):
        scan(state)
        component = AddExternalMetadata()
        component.execute(state)
        second = component.execute(state)
        assert second.changes == 0


class TestDiscovery:
    def test_discover_stores_rules(self, state):
        scan(state)
        PerformKnownTransformations().execute(state)
        DiscoverTransformations().execute(state)
        assert state.discovered_rules is not None

    def test_perform_applies_rules(self, state):
        scan(state)
        PerformKnownTransformations().execute(state)
        DiscoverTransformations().execute(state)
        mapping = state.discovered_rules.rename_mapping()
        report = PerformDiscoveredTransformations().execute(state)
        if mapping:
            assert report.changes > 0
            names = set(state.working.variable_name_counts())
            assert not (set(mapping) & names)

    def test_perform_without_rules_noop(self, state):
        scan(state)
        report = PerformDiscoveredTransformations().execute(state)
        assert report.changes == 0

    def test_explicit_rules_override(self, state):
        from repro.refine import MassEditEdit, MassEditOperation, RuleSet

        scan(state)
        present = next(iter(state.working.variable_name_counts()))
        rules = RuleSet(
            [MassEditOperation(column="field",
                               edits=[MassEditEdit((present,), "renamed")])]
        )
        report = PerformDiscoveredTransformations(rules=rules).execute(state)
        assert report.changes > 0
        assert "renamed" in state.working.variable_name_counts()


class TestGenerateHierarchies:
    def _prepare(self, state):
        scan(state)
        PerformKnownTransformations().execute(state)

    def test_hierarchy_built(self, state):
        self._prepare(state)
        GenerateHierarchies().execute(state)
        assert state.hierarchy is not None
        assert len(state.hierarchy) > 0

    def test_present_variables_included(self, state):
        self._prepare(state)
        GenerateHierarchies().execute(state)
        present = set(state.working.variable_name_counts())
        canonical_present = present & set(VOCABULARY)
        for name in canonical_present:
            assert name in state.hierarchy

    def test_unresolved_parked(self, state):
        self._prepare(state)
        GenerateHierarchies().execute(state)
        unresolved = [
            name
            for name in state.working.variable_name_counts()
            if name not in VOCABULARY
        ]
        if unresolved:
            assert UNRESOLVED_BRANCH in state.hierarchy
            for name in unresolved:
                assert state.hierarchy.group_of(name) == UNRESOLVED_BRANCH

    def test_taxonomy_links_attached(self, state):
        self._prepare(state)
        GenerateHierarchies().execute(state)
        assert state.taxonomy_links is not None

    def test_unpruned_keeps_whole_vocabulary(self, state):
        self._prepare(state)
        GenerateHierarchies(prune_absent=False).execute(state)
        for name in VOCABULARY:
            assert name in state.hierarchy


class TestPublish:
    def test_publishes_working_copy(self, state):
        scan(state)
        report = Publish().execute(state)
        assert report.changes == len(state.working)
        assert len(state.published) == len(state.working)

    def test_published_is_isolated_copy(self, state):
        scan(state)
        Publish().execute(state)
        state.working.rename_variables(
            {next(iter(state.working.variable_name_counts())): "mutant"}
        )
        assert "mutant" not in state.published.variable_name_counts()

    def test_refuses_empty_by_default(self, state):
        report = Publish().execute(state)
        assert report.changes == 0
        assert len(state.published) == 0

    def test_republish_replaces(self, state):
        scan(state)
        Publish().execute(state)
        victim = state.working.dataset_ids()[0]
        state.working.remove(victim)
        Publish().execute(state)
        assert victim not in state.published.dataset_ids()


class TestUnitConversion:
    """Cross-family unit conversion (degF temperatures, knots wind)."""

    def test_alien_units_converted_in_catalog(self, state):
        from repro.archive import VOCABULARY

        scan(state)
        # Find an entry written in a foreign unit family.
        alien = [
            entry
            for __, entry in state.working.iter_variables()
            if entry.written_unit in ("degF", "knots")
        ]
        if not alien:
            pytest.skip("no alien units on this fixture")
        PerformKnownTransformations().execute(state)
        for __, entry in state.working.iter_variables():
            if entry.written_unit not in ("degF", "knots"):
                continue
            var = VOCABULARY.get(entry.name)
            if var is None:
                continue
            assert entry.unit == var.unit

    def test_converted_stats_physically_plausible(self, state):
        from repro.archive import VALUE_RANGES, VOCABULARY

        scan(state)
        PerformKnownTransformations().execute(state)
        for __, entry in state.working.iter_variables():
            if entry.written_unit != "degF":
                continue
            if entry.name not in VOCABULARY or entry.count == 0:
                continue
            lo, hi = VALUE_RANGES[entry.name]
            assert lo - 1.0 <= entry.minimum <= entry.maximum <= hi + 1.0

    def test_conversion_can_be_disabled(self, state):
        scan(state)
        alien_before = [
            entry.unit
            for __, entry in state.working.iter_variables()
            if entry.written_unit == "degF"
        ]
        if not alien_before:
            pytest.skip("no alien units on this fixture")
        PerformKnownTransformations(convert_units=False).execute(state)
        stays = [
            entry.unit
            for __, entry in state.working.iter_variables()
            if entry.written_unit == "degF"
        ]
        assert "degF" in stays


class TestIncrementalPublish:
    def test_republish_unchanged_is_free(self, state):
        scan(state)
        Publish().execute(state)
        second = Publish().execute(state)
        assert second.changes == 0
        assert second.items_skipped == len(state.working)

    def test_changed_dataset_republished(self, state):
        scan(state)
        Publish().execute(state)
        victim = state.working.dataset_ids()[0]
        state.working.rename_variables(
            {state.working.get(victim).variables[0].name: "renamed_var"}
        )
        report = Publish().execute(state)
        # Renames touch every dataset carrying the old name, so at least
        # the victim republishes; unchanged datasets stay skipped.
        assert report.changes >= 1
        assert report.items_skipped < len(state.working)
        assert "renamed_var" in state.published.get(victim).variable_names()

    def test_vanished_dataset_withdrawn(self, state):
        scan(state)
        Publish().execute(state)
        victim = state.working.dataset_ids()[0]
        state.working.remove(victim)
        report = Publish().execute(state)
        assert victim not in state.published.dataset_ids()
        assert report.changes >= 1
