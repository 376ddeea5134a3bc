"""Unit tests for repro.wrangling.validate (curatorial activity 4)."""

from dataclasses import replace

import pytest

from repro.wrangling import (
    AmbiguousRemaining,
    DirectoryFormatConsistency,
    ExpectedDatasets,
    ScanArchive,
    SynonymCoverage,
    UnknownUnits,
    UnresolvedNames,
    PerformKnownTransformations,
    WranglingState,
    validate,
)


@pytest.fixture()
def state(messy_fs):
    fs, __ = messy_fs
    s = WranglingState(fs=fs)
    ScanArchive().execute(s)
    return s


class TestDirectoryFormatConsistency:
    def test_consistent_archive_passes(self, state):
        report = validate(state, checks=[DirectoryFormatConsistency()])
        assert report.ok

    def test_mixed_directory_fails(self, state):
        # Force a CDL twin into a CSV directory.
        feature = state.working.get(state.working.dataset_ids()[0])
        twin = replace(
            feature,
            dataset_id=feature.dataset_id + ".twin",
            file_format="cdl" if feature.file_format == "csv" else "csv",
        )
        state.working.upsert(twin)
        report = validate(state, checks=[DirectoryFormatConsistency()])
        assert not report.ok
        assert report.failures[0].check == "directory-format-consistency"


class TestSynonymCoverage:
    def test_messy_names_fail_before_curation(self, state):
        report = validate(state, checks=[SynonymCoverage()])
        assert not report.ok  # misspellings are not in the table

    def test_failures_name_the_written_form(self, state):
        report = validate(state, checks=[SynonymCoverage()])
        for failure in report.failures:
            assert failure.subject in failure.message

    def test_adding_synonyms_fixes(self, state):
        report = validate(state, checks=[SynonymCoverage()])
        for failure in report.failures:
            state.resolver.synonyms.add("salinity", failure.subject)
        assert validate(state, checks=[SynonymCoverage()]).ok


class TestExpectedDatasets:
    def test_present_ids_pass(self, state):
        check = ExpectedDatasets(
            expected_ids=state.working.dataset_ids()[:3]
        )
        assert validate(state, checks=[check]).ok

    def test_missing_id_fails(self, state):
        check = ExpectedDatasets(expected_ids=["ghost/dataset.csv"])
        report = validate(state, checks=[check])
        assert len(report.failures) == 1

    def test_minimum_count(self, state):
        ok = ExpectedDatasets(minimum_count=1)
        assert validate(state, checks=[ok]).ok
        too_many = ExpectedDatasets(minimum_count=10_000)
        assert not validate(state, checks=[too_many]).ok


class TestUnresolvedAndAmbiguous:
    def test_unresolved_before_wrangling(self, state):
        report = validate(state, checks=[UnresolvedNames()])
        assert not report.ok

    def test_fewer_unresolved_after_known_transforms(self, state):
        before = len(validate(state, checks=[UnresolvedNames()]).failures)
        PerformKnownTransformations().execute(state)
        after = len(validate(state, checks=[UnresolvedNames()]).failures)
        assert after < before

    def test_ambiguous_flagged_after_known_transforms(self, state):
        PerformKnownTransformations().execute(state)
        report = validate(state, checks=[AmbiguousRemaining()])
        # The phantom 'temp' columns should be flagged (fixture-dependent
        # but the small spec produces at least one).
        for failure in report.failures:
            assert "temp" in failure.subject


class TestUnknownUnits:
    def test_known_units_pass(self, state):
        PerformKnownTransformations().execute(state)
        assert validate(state, checks=[UnknownUnits()]).ok

    def test_alien_unit_fails(self, state):
        feature = state.working.get(state.working.dataset_ids()[0])
        first, *rest = feature.variables
        state.working.upsert(
            replace(feature, variables=[replace(first, unit="cubits"), *rest])
        )
        report = validate(state, checks=[UnknownUnits()])
        assert not report.ok
        assert report.failures[0].subject == "cubits"


class TestReport:
    def test_default_checks_all_run(self, state):
        report = validate(state)
        assert report.checks_run == 5

    def test_count_by_check(self, state):
        report = validate(state)
        counts = report.count_by_check()
        assert sum(counts.values()) == len(report.failures)

    def test_summary_ok(self, state):
        PerformKnownTransformations().execute(state)
        report = validate(state, checks=[UnknownUnits()])
        assert "passed" in report.summary()

    def test_summary_failures(self, state):
        report = validate(state)
        assert "failures" in report.summary()

    def test_failures_for(self, state):
        report = validate(state)
        for failure in report.failures_for("synonym-coverage"):
            assert failure.check == "synonym-coverage"
