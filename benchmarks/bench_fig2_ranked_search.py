"""F2 — Figure "Data Near Here Search Interface": ranked search over
location, time and variables.

Runs the poster's example query verbatim, evaluates retrieval quality
(nDCG/P/R against clean-archive ground truth) for ranked-vs-boolean and
raw-vs-wrangled catalogs, and measures query latency vs catalog size.

Expected shape: ranked search strictly dominates the boolean baseline on
nDCG (the baseline's recall collapses when no dataset matches every
term); wrangling improves both.
"""

from __future__ import annotations

from datetime import datetime

import pytest

from repro import GeoPoint, Query, TimeInterval, VariableTerm
from repro.core import BooleanSearchEngine, SearchEngine
from repro.experiments import (
    evaluate_engine,
    generate_workload,
    clean_archive_of_size,
    messy_archive_of_size,
    wrangled_system,
)
from repro.hierarchy import vocabulary_hierarchy
from repro.ui import render_search_text

from .conftest import BENCH_SEED, write_result


def poster_query() -> Query:
    """'observations collected near [lat=45.5, lon=-124.4] in mid-2010,
    with temperature between 5-10C'."""
    return Query(
        location=GeoPoint(45.5, -124.4),
        interval=TimeInterval.from_datetimes(
            datetime(2010, 5, 1), datetime(2010, 8, 31)
        ),
        variables=(VariableTerm("temperature", low=5.0, high=10.0),),
    )


class TestPosterQuery:
    def test_example_query_page(self, benchmark, bench_system):
        results = benchmark(bench_system.search, poster_query(), 10)
        assert results
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)
        write_result(
            "fig2_poster_query.txt",
            render_search_text(poster_query(), results),
        )


class TestQuality:
    def test_four_way_quality(self, benchmark, bench_fixture,
                              bench_workload, bench_raw_catalog,
                              bench_system):
        hierarchy = vocabulary_hierarchy()
        engines = {
            "ranked+wrangled": bench_system.engine,
            "ranked+raw": SearchEngine(
                bench_raw_catalog, hierarchy=hierarchy
            ),
            "boolean+wrangled": bench_system.baseline_engine(),
            "boolean+raw": BooleanSearchEngine(
                bench_raw_catalog, hierarchy=hierarchy
            ),
        }
        summaries = {
            label: evaluate_engine(engine, bench_workload, label=label)
            for label, engine in engines.items()
        }
        # Time the headline engine's evaluation.
        benchmark(
            evaluate_engine, engines["ranked+wrangled"], bench_workload
        )
        report = ["F2 — search quality (25 ground-truthed queries)"]
        report += [s.row() for s in summaries.values()]
        write_result("fig2_search_quality.txt", "\n".join(report))
        # Shape: ranked dominates boolean; wrangled >= raw.
        assert (
            summaries["ranked+wrangled"].ndcg
            > summaries["boolean+wrangled"].ndcg
        )
        assert (
            summaries["ranked+raw"].ndcg > summaries["boolean+raw"].ndcg
        )
        assert (
            summaries["ranked+wrangled"].ndcg
            >= summaries["ranked+raw"].ndcg
        )
        assert (
            summaries["boolean+wrangled"].recall
            >= summaries["boolean+raw"].recall
        )


class TestLatencyScaling:
    @pytest.mark.parametrize("n_datasets", [30, 120, 480])
    def test_query_latency(self, benchmark, n_datasets):
        fs, __, ___ = messy_archive_of_size(n_datasets, seed=BENCH_SEED)
        engine = wrangled_system(fs).engine
        clean = clean_archive_of_size(n_datasets, seed=BENCH_SEED)
        queries = [
            spec.query
            for spec in generate_workload(clean, n_queries=5, seed=31)
        ]

        def run_queries():
            return [engine.search(q, limit=10) for q in queries]

        results = benchmark(run_queries)
        assert all(r for r in results)
