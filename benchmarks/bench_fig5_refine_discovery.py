"""F5 — Figure "Discovering Transformations with Google Refine".

The full round-trip: extract catalog entries -> cluster the ``field``
column -> confirm merges -> export ``core/mass-edit`` JSON -> replay
against the working catalog.  Includes the poster's verbatim JSON rule.
Measured: discovery cost and rename quality per clustering method, JSON
round-trip fidelity, and replay throughput.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.archive import VOCABULARY, truth_index
from repro.experiments import raw_catalog_from
from repro.refine import (
    DiscoverySession,
    RuleSet,
    apply_rules_to_catalog,
    catalog_to_table,
    make_canonical_chooser,
)

from .conftest import write_result

POSTER_JSON = """
 {   "op": "core/mass-edit",
    "description": "Mass edit cells in column field",
    "engineConfig": { "facets": [],
      "mode": "row-based" },
    "columnName": "field",
    "expression": "value",
    "edits": [   {
        "fromBlank": false,
        "fromError": false,
        "from": [ "ATastn" ],
        "to": "sea surface temperature"  } ]  }
"""

METHODS = ("fingerprint", "ngram-fingerprint", "metaphone",
           "nn-levenshtein")


def _session(method: str) -> DiscoverySession:
    return DiscoverySession(
        method=method,
        radius=2.0,
        seed_values={name: 1 for name in VOCABULARY},
        chooser=make_canonical_chooser(
            set(VOCABULARY), fallback_to_most_common=False
        ),
    )


def _rename_quality(mapping, archive) -> tuple[int, int]:
    """(correct, wrong) of a discovered mapping vs ground truth."""
    truth_by_written: dict[str, set[str | None]] = {}
    for (__, written), vt in truth_index(archive).items():
        truth_by_written.setdefault(written, set()).add(vt.canonical)
    correct = wrong = 0
    for old, new in mapping.items():
        expected = truth_by_written.get(old)
        if expected is None:
            continue  # seed value, not a harvested name
        if new in expected:
            correct += 1
        else:
            wrong += 1
    return correct, wrong


class TestPosterRule:
    def test_poster_json_parses_and_replays(self, benchmark, bench_fixture):
        fs, __, ___ = bench_fixture
        catalog = raw_catalog_from(fs)
        # Plant the poster's exact messy value so the rule has a target.
        feature = catalog.get(catalog.dataset_ids()[0])
        first, *rest = feature.variables
        catalog.upsert(
            replace(feature, variables=[replace(first, name="ATastn"), *rest])
        )
        rules = RuleSet.loads(POSTER_JSON)

        def replay():
            table = catalog_to_table(catalog)
            return rules.apply(table)

        changed = benchmark(replay)
        assert changed >= 1


class TestDiscoveryMethods:
    @pytest.mark.parametrize("method", METHODS)
    def test_method_cost_and_quality(self, benchmark, bench_fixture,
                                     method):
        fs, __, archive = bench_fixture
        catalog = raw_catalog_from(fs)
        session = _session(method)

        rules = benchmark(session.discover_from_catalog, catalog)
        mapping = rules.rename_mapping()
        correct, wrong = _rename_quality(mapping, archive)
        # Precision must stay usefully high for every method.  Key
        # collision is near-perfect; nearest-neighbour trades a little
        # precision for typo recall (e.g. 'pres' lands within edit
        # distance 2 of 'par') — exactly the tradeoff A2 quantifies.
        if correct + wrong > 0:
            assert correct / (correct + wrong) >= 0.8

    def test_method_comparison_report(self, benchmark, bench_fixture):
        fs, __, archive = bench_fixture
        catalog = raw_catalog_from(fs)
        lines = ["F5 — discovery methods on the raw catalog",
                 f"{'method':20s} {'renames':>8s} {'correct':>8s} "
                 f"{'wrong':>6s}"]
        for method in METHODS:
            rules = _session(method).discover_from_catalog(catalog)
            mapping = rules.rename_mapping()
            correct, wrong = _rename_quality(mapping, archive)
            lines.append(
                f"{method:20s} {len(mapping):8d} {correct:8d} {wrong:6d}"
            )
        write_result("fig5_discovery_methods.txt", "\n".join(lines))
        benchmark(_session("fingerprint").discover_from_catalog, catalog)


class TestRoundTrip:
    def test_json_roundtrip_and_replay(self, benchmark, bench_fixture):
        """Export rules as JSON, parse them back, replay on the catalog —
        the figure's full cycle."""
        fs, __, ___ = bench_fixture

        def cycle() -> int:
            catalog = raw_catalog_from(fs)
            rules = _session("nn-levenshtein").discover_from_catalog(
                catalog
            )
            text = rules.dumps()
            reloaded = RuleSet.loads(text)
            return apply_rules_to_catalog(reloaded, catalog)

        renamed = benchmark(cycle)
        assert renamed > 0
