"""Durable deployment: real files on disk, SQLite-published catalog.

Exports the synthetic archive to a real directory tree, re-imports it
(as a site operator would point the scanner at their archive), wrangles
into a SQLite catalog file, and reopens that file in a second "process"
to serve searches — the shape of a production Data Near Here install.

Usage::

    python examples/persistent_catalog.py
"""

import os
import tempfile

from repro import DataNearHere, GeoPoint, Query, VariableTerm
from repro.archive import VirtualArchive, messy_archive_fixture
from repro.catalog import SqliteCatalog
from repro.core import SearchEngine
from repro.hierarchy import vocabulary_hierarchy


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="dnh_") as workdir:
        archive_dir = os.path.join(workdir, "archive")
        catalog_path = os.path.join(workdir, "metadata_catalog.db")

        # 1. Materialize the archive as real files.
        fs, __, ___ = messy_archive_fixture()
        count = fs.export_to(archive_dir)
        print(f"wrote {count} files under {archive_dir}")

        # 2. Point the scanner at the directory tree and wrangle into a
        #    SQLite-backed published catalog.
        reloaded = VirtualArchive.import_from(archive_dir)
        published = SqliteCatalog(catalog_path)
        system = DataNearHere(reloaded, published=published)
        report = system.wrangle()
        print(f"wrangled: {report.total_changes} changes, "
              f"{len(published)} datasets published to {catalog_path}")
        size = os.path.getsize(catalog_path)
        print(f"catalog file size: {size:,} bytes")
        published.close()

        # 3. A separate engine opens the catalog file later and serves
        #    queries with no re-scan.
        served = SqliteCatalog(catalog_path)
        engine = SearchEngine(served, hierarchy=vocabulary_hierarchy())
        results = engine.search(
            Query(
                location=GeoPoint(46.2, -123.8),
                variables=(VariableTerm("salinity", low=5.0, high=30.0),),
            ),
            limit=5,
        )
        print("\nserved from the reopened catalog file:")
        for hit in results:
            print(f"  {hit}")
        served.close()


if __name__ == "__main__":
    main()
