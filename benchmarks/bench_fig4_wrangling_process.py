"""F4 — Figure "The Metadata Wrangling Process" (both variants).

The composable chain: scan -> known transforms -> external metadata ->
discover -> perform discovered -> generate hierarchies -> publish.
Measured: cold-run vs re-run cost (the poster's "running & re-running
process" made cheap by content-hash skipping), per-component cost
breakdown, incremental cost of one changed file, and how much "mess is
left" after each stage.
"""

from __future__ import annotations

import pytest

from repro.archive import VOCABULARY, messy_archive_fixture
from repro.experiments import messy_archive_of_size, spec_for_size
from repro.wrangling import (
    PerformDiscoveredTransformations,
    PerformKnownTransformations,
    ScanArchive,
    DiscoverTransformations,
    WranglingState,
    default_chain,
)

from .conftest import BENCH_SEED, write_result


def _fresh_state(n_datasets: int = 60):
    fs, __, ___ = messy_archive_of_size(n_datasets, seed=BENCH_SEED)
    return WranglingState(fs=fs)


def _component_counts(report) -> list[str]:
    """One line per component: its changes, seen and skipped counts."""
    return [
        f"  {r.component:28s} changes={r.changes:5d} "
        f"seen={r.items_seen:5d} skipped={r.items_skipped:5d}"
        for r in report.component_reports
    ]


def _unresolved_fraction(state) -> float:
    total = resolved = 0
    for __, entry in state.working.iter_variables():
        total += 1
        if entry.name in VOCABULARY or entry.excluded:
            resolved += 1
    return 1.0 - resolved / total if total else 0.0


class TestColdVsRerun:
    def test_cold_run(self, benchmark):
        def cold():
            state = _fresh_state()
            chain = default_chain()
            chain.run(state)
            return state

        state = benchmark(cold)
        assert len(state.published) > 0

    def test_rerun_unchanged(self, benchmark):
        state = _fresh_state()
        chain = default_chain()
        chain.run(state)

        def rerun():
            return chain.run(state)

        report = benchmark(rerun)
        assert report.report_for("scan-archive").changes == 0

    def test_rerun_after_one_file_change(self, benchmark):
        state = _fresh_state()
        chain = default_chain()
        chain.run(state)
        victim = state.working.dataset_ids()[0]

        def touch_and_rerun():
            record = state.fs.get(victim)
            state.fs.put(victim, record.content + "\n")
            return chain.run(state)

        report = benchmark(touch_and_rerun)
        scan = report.report_for("scan-archive")
        assert scan.changes <= 2  # only the touched file re-parsed
        assert scan.items_skipped >= len(state.working) - 2

    def test_speedup_report(self, bench_fixture, benchmark):
        fs, __, ___ = bench_fixture
        state = WranglingState(fs=fs)
        chain = default_chain()
        cold = chain.run(state)
        warm = benchmark(chain.run, state)
        # Counts only: wall-clock seconds and run numbers would change
        # the committed file on every run of the suite.
        lines = [
            "F4 — wrangling process: cold run vs re-run",
            f"cold run: {cold.total_changes} changes",
            f"re-run:   {warm.total_changes} changes",
            "",
            "per-component (cold):",
            *_component_counts(cold),
            "",
            "per-component (warm):",
            *_component_counts(warm),
        ]
        write_result("fig4_cold_vs_rerun.txt", "\n".join(lines))
        assert warm.duration_seconds < cold.duration_seconds


class TestMessLeft:
    def test_mess_shrinks_through_stages(self, benchmark):
        """'The mess that's left' decreases monotonically through the
        chain's transformation stages.

        Known transformations run with *tables only* (no fuzzy matching),
        matching the figure's story: the translation table handles what
        it knows, and discovery attacks the misspellings that are left.
        """
        from repro.semantics import TermResolver

        def staged() -> list[tuple[str, float]]:
            state = _fresh_state(30)
            state.resolver = TermResolver(use_fuzzy=False)
            stages = []
            ScanArchive().execute(state)
            stages.append(("after-scan", _unresolved_fraction(state)))
            PerformKnownTransformations().execute(state)
            stages.append(("after-known", _unresolved_fraction(state)))
            DiscoverTransformations().execute(state)
            PerformDiscoveredTransformations().execute(state)
            stages.append(("after-discovered", _unresolved_fraction(state)))
            return stages

        stages = benchmark(staged)
        fractions = [fraction for __, fraction in stages]
        assert fractions[0] > fractions[1] > fractions[2]
        report = ["F4 — 'the mess that's left' by stage "
                  "(tables-only known transforms)"]
        report += [f"{name:18s} {fraction:6.3f}" for name, fraction in stages]
        write_result("fig4_mess_left.txt", "\n".join(report))


class TestComponentScaling:
    @pytest.mark.parametrize("n_datasets", [30, 120])
    def test_chain_cost_vs_size(self, benchmark, n_datasets):
        def cold():
            state = _fresh_state(n_datasets)
            return default_chain().run(state)

        report = benchmark(cold)
        assert report.total_changes > 0
