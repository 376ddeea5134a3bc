"""F1 — Figure "IR Architecture Adapted to Scientific Data Search".

The architecture's core promises: datasets are scanned *once* and
summarized into features; the catalog is a compact representation of the
archive; similarity search runs over the catalog, never the raw data.
Measured here: feature-extraction/scan throughput vs archive size, the
catalog-size:raw-size compression ratio, and store upsert/get costs for
both backends.
"""

from __future__ import annotations

import json

import pytest

from repro.archive import parse_file
from repro.catalog import MemoryCatalog, SqliteCatalog
from repro.core import extract_feature
from repro.experiments import messy_archive_of_size
from repro.wrangling import ScanArchive, WranglingState

from .conftest import BENCH_SEED, write_result


def _catalog_size_bytes(catalog) -> int:
    total = 0
    for feature in catalog:
        total += len(feature.dataset_id) + len(feature.title) + 64
        total += len(json.dumps(dict(feature.attributes)))
        total += 88 * len(feature.variables)  # flat numeric fields
    return total


def _scan(fs):
    state = WranglingState(fs=fs)
    ScanArchive().execute(state)
    return state.working


class TestScanOnce:
    @pytest.mark.parametrize("n_datasets", [15, 60, 240])
    def test_scan_throughput_vs_size(self, benchmark, n_datasets):
        fs, __, ___ = messy_archive_of_size(n_datasets, seed=BENCH_SEED)
        catalog = benchmark(_scan, fs)
        assert len(catalog) >= n_datasets * 0.9

    def test_catalog_much_smaller_than_archive(self, benchmark,
                                               bench_fixture):
        fs, __, ___ = bench_fixture
        catalog = benchmark(_scan, fs)
        raw_bytes = sum(len(record.content) for record in fs)
        catalog_bytes = _catalog_size_bytes(catalog)
        ratio = raw_bytes / catalog_bytes
        write_result(
            "fig1_catalog_compression.txt",
            "F1 — catalog vs raw archive size\n"
            f"raw archive:  {raw_bytes:12,d} bytes\n"
            f"catalog est:  {catalog_bytes:12,d} bytes\n"
            f"compression:  {ratio:12.1f}x\n",
        )
        assert ratio > 5.0  # features are summaries, not copies

    def test_feature_extraction_single_dataset(self, benchmark,
                                               bench_fixture):
        fs, __, archive = bench_fixture
        record = fs.get(archive.datasets[0].path)
        dataset = parse_file(record.content, record.path)
        feature = benchmark(extract_feature, dataset)
        assert feature.row_count == dataset.table.row_count


class TestCatalogStores:
    def test_memory_upsert(self, benchmark, bench_raw_catalog):
        features = [f for f in bench_raw_catalog]

        def load():
            catalog = MemoryCatalog()
            for feature in features:
                catalog.upsert(feature)
            return catalog

        catalog = benchmark(load)
        assert len(catalog) == len(features)

    def test_sqlite_upsert(self, benchmark, bench_raw_catalog):
        features = [f for f in bench_raw_catalog]

        def load():
            catalog = SqliteCatalog()
            for feature in features:
                catalog.upsert(feature)
            return len(catalog)

        count = benchmark(load)
        assert count == len(features)

    def test_sqlite_get(self, benchmark, bench_raw_catalog):
        catalog = SqliteCatalog()
        for feature in bench_raw_catalog:
            catalog.upsert(feature)
        dataset_id = catalog.dataset_ids()[0]
        feature = benchmark(catalog.get, dataset_id)
        assert feature.dataset_id == dataset_id
