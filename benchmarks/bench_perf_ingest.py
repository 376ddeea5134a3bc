"""Perf benchmark: the ingest fast path vs the seed serial path.

Builds a large synthetic archive, then measures the scan→publish half of
the system along the axes the ingest fast path optimizes:

* **seed serial** — the pre-fast-path cost model, reproduced here the
  way ``benchmarks/bench_perf_search.py`` reproduces naive search: hash,
  parse and feature-extract one file at a time, upsert per item (one
  SQLite transaction per dataset, seed journal pragmas), publish with a
  fresh 2N digest diff per run,
* **cold fast** — chunked parallel scan, batched ``upsert_many``
  publish, WAL + synchronous=NORMAL on file-backed SQLite,
* **unchanged re-wrangle** — the same archive again: content hashes
  memoized, digest cache version-matched, so the run must compute ZERO
  feature digests and issue ZERO store writes,
* **small-edit re-wrangle** — a handful of files edited, so cost should
  track the edit count, not the archive size,
* **store write** — the catalog's own write path alone: one
  ``upsert_many`` of features shaped like the search benchmark's into a
  fresh file catalog, then a re-publish of the same features into the
  full one, with the statements each batch issues.

The equality gate is asserted inside the run: the fast path (serial and
parallel) must produce a catalog observably identical to the seed serial
path; a mismatch exits non-zero, which is what CI's ``--quick`` smoke
invocation gates on.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_ingest.py          # full
    PYTHONPATH=src python benchmarks/bench_perf_ingest.py --quick  # CI

The full run writes ``BENCH_ingest.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import repro.wrangling.publish as publish_mod
from repro.archive.filesystem import VirtualArchive
from repro.archive.formats import FormatError, parse_file
from repro.catalog import MemoryCatalog, SqliteCatalog
from repro.catalog.io import feature_to_dict
from repro.core.features import extract_feature
from repro.wrangling import WranglingState
from repro.wrangling.chain import ProcessChain
from repro.wrangling.publish import Publish
from repro.wrangling.scan import ScanArchive

from bench_perf_search import synthetic_catalog

SECONDS_PER_DAY = 86_400.0
EPOCH_2008 = 1_199_145_600.0  # 2008-01-01T00:00:00Z

VARIABLE_POOL = [
    ("water_temperature", "degC"), ("water_temp", "degC"),
    ("air_temperature", "degC"), ("salinity", "psu"),
    ("salinity_psu", "psu"), ("dissolved_oxygen", "mg/l"),
    ("chlorophyll", "ug/l"), ("turbidity", "ntu"),
    ("ph", ""), ("conductivity", "S/m"), ("pressure", "dbar"),
    ("wind_speed", "m/s"), ("wave_height", "m"), ("depth", "m"),
    ("nitrate", "umol"), ("current_speed", "m/s"),
]


def make_csv(index: int, rng: random.Random, rows: int) -> str:
    """One synthetic station file in the archive's CSV dialect."""
    lat = rng.uniform(42.0, 49.0)
    lon = rng.uniform(-127.0, -121.0)
    start = EPOCH_2008 + rng.uniform(0.0, 5 * 365) * SECONDS_PER_DAY
    variables = rng.sample(VARIABLE_POOL, rng.randint(3, 6))
    lines = [
        f"# title: Synthetic station {index}",
        "# platform: station",
    ]
    header = ["time [s]", "latitude [degrees]", "longitude [degrees]"]
    header.extend(
        f"{name} [{unit}]" if unit else name for name, unit in variables
    )
    lines.append(",".join(header))
    for row in range(rows):
        cells = [
            repr(start + row * 3600.0),
            repr(lat + rng.uniform(0.0, 0.05)),
            repr(lon + rng.uniform(0.0, 0.05)),
        ]
        cells.extend(repr(rng.uniform(0.0, 30.0)) for __ in variables)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def build_archive(n_datasets: int, rows: int, seed: int) -> VirtualArchive:
    rng = random.Random(seed)
    fs = VirtualArchive()
    for i in range(n_datasets):
        fs.put(
            f"stations/st{i % 97:02d}/station_{i:05d}.csv",
            make_csv(i, rng, rows),
        )
    return fs


# --------------------------------------------------------------------------
# the seed serial path, reproduced as the baseline cost model
# --------------------------------------------------------------------------

def seed_scan(fs, working, scanned_hashes) -> None:
    """Pre-PR ScanArchive.run: hash/parse/extract/upsert one at a time."""
    for record in sorted(
        (r for r in fs if r.extension in ("csv", "cdl")),
        key=lambda r: r.path,
    ):
        content_hash = hashlib.sha256(
            record.content.encode("utf-8")
        ).hexdigest()  # seed recomputed this fresh on every scan
        if scanned_hashes.get(record.path) == content_hash:
            continue
        try:
            dataset = parse_file(record.content, record.path)
        except FormatError:
            continue
        working.upsert(extract_feature(dataset, content_hash=content_hash))
        scanned_hashes[record.path] = content_hash


def seed_publish(working, published) -> None:
    """Pre-PR Publish.run: a fresh 2N digest diff, upsert per dataset."""
    published_ids = set(published.dataset_ids())
    working_ids = set(working.dataset_ids())
    for dataset_id in sorted(working_ids):
        feature = working.get(dataset_id)
        digest = publish_mod.feature_digest(feature)
        if dataset_id in published_ids:
            if publish_mod.feature_digest(published.get(dataset_id)) == digest:
                continue
        published.upsert(feature)
    for dataset_id in sorted(published_ids - working_ids):
        published.remove(dataset_id)


def seed_pragmas(catalog: SqliteCatalog) -> None:
    """Reset a file-backed catalog to the seed's journal behaviour.

    The store now opens file databases with WAL + synchronous=NORMAL;
    the seed ran on sqlite's defaults (rollback journal, full fsync per
    commit), which is part of the serial path being measured.
    """
    catalog._conn.execute("PRAGMA journal_mode = DELETE")
    catalog._conn.execute("PRAGMA synchronous = FULL")


# --------------------------------------------------------------------------
# harness
# --------------------------------------------------------------------------

def observable(store) -> dict:
    """Everything search can see of a catalog, for equality gating."""
    return {f.dataset_id: feature_to_dict(f) for f in store.features()}


def fast_state(fs, published) -> tuple[WranglingState, ProcessChain]:
    state = WranglingState(fs=fs, published=published)
    chain = ProcessChain(components=[ScanArchive(), Publish()])
    return state, chain


def counted_digests(fn):
    """Run ``fn()`` counting feature_digest calls; returns (result, n)."""
    calls = {"n": 0}
    original = publish_mod.feature_digest

    def counting(feature):
        calls["n"] += 1
        return original(feature)

    publish_mod.feature_digest = counting
    try:
        result = fn()
    finally:
        publish_mod.feature_digest = original
    return result, calls["n"]


def timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def median_time(fn, repeats: int) -> float:
    return statistics.median(timed(fn) for __ in range(repeats))


def edit_files(
    fs: VirtualArchive, n_edits: int, stamp: int, rows: int
) -> list[str]:
    """Rewrite ``n_edits`` random files with fresh content.

    ``stamp`` must be unique per call: it seeds the regenerated content,
    so every edited file is guaranteed to parse to a different feature.
    """
    rng = random.Random(stamp)
    paths = sorted(r.path for r in fs if r.extension == "csv")
    chosen = rng.sample(paths, min(n_edits, len(paths)))
    for i, path in enumerate(chosen):
        fs.put(path, make_csv(stamp, random.Random(stamp * 7919 + i), rows))
    return chosen


#: Unique, never-repeating stamps for edit passes across all backends.
_EDIT_STAMPS = iter(range(10_000, 1_000_000))


def bench_backend(
    backend: str,
    fs: VirtualArchive,
    tmpdir: str,
    repeats: int,
    n_edits: int,
    rows: int,
) -> dict:
    def make_store(tag: str):
        if backend == "memory":
            return MemoryCatalog()
        return SqliteCatalog(os.path.join(tmpdir, f"{backend}_{tag}.db"))

    # -- seed serial cold ---------------------------------------------------
    seed_published = make_store("seed")
    if backend == "sqlite_file":
        seed_pragmas(seed_published)
    seed_working = MemoryCatalog()
    seed_hashes: dict[str, str] = {}

    def run_seed():
        seed_scan(fs, seed_working, seed_hashes)
        seed_publish(seed_working, seed_published)

    cold_seed_s = timed(run_seed)

    # -- fast cold ----------------------------------------------------------
    fast_published = make_store("fast")
    state, chain = fast_state(fs, fast_published)
    cold_fast_s = timed(lambda: chain.run(state))

    exact = observable(fast_published) == observable(seed_published)

    # -- unchanged re-wrangle ----------------------------------------------
    working_before = state.working.version
    published_before = state.published.version
    __, unchanged_digests = counted_digests(lambda: chain.run(state))
    unchanged_writes = (
        state.working.version - working_before
        + state.published.version - published_before
    )
    unchanged_s = median_time(lambda: chain.run(state), repeats)
    __, seed_unchanged_digests = counted_digests(run_seed)
    unchanged_seed_s = median_time(run_seed, repeats)

    # -- small-edit re-wrangle ---------------------------------------------
    def run_edit():
        edit_files(fs, n_edits, next(_EDIT_STAMPS), rows)
        chain.run(state)

    small_edit_s = median_time(run_edit, repeats)
    delta = state.published_delta
    edit_delta_ok = delta is not None and len(delta.upserted) == n_edits

    result = {
        "cold_seed_s": cold_seed_s,
        "cold_fast_s": cold_fast_s,
        "cold_speedup": (
            cold_seed_s / cold_fast_s if cold_fast_s else float("inf")
        ),
        "unchanged_s": unchanged_s,
        "unchanged_seed_s": unchanged_seed_s,
        "unchanged_digests": unchanged_digests,
        "unchanged_seed_digests": seed_unchanged_digests,
        "unchanged_store_writes": unchanged_writes,
        "small_edit_s": small_edit_s,
        "small_edit_files": n_edits,
        "small_edit_delta_ok": edit_delta_ok,
        "exactness_ok": exact,
    }
    for store in (seed_published, fast_published):
        if isinstance(store, SqliteCatalog):
            store.close()
    return result


def measure_telemetry_overhead(fs: VirtualArchive, repeats: int) -> dict:
    """Serial cold wrangles with telemetry off vs on, interleaved.

    The observability contract: full instrumentation (spans on every
    stage, per-file latency observations, counters) must cost at most a
    few percent of the serial ingest path.  Runs are interleaved so
    machine noise hits both sides equally, each starts from a collected
    heap so one run's garbage is not swept inside the next, and the
    medians of at least five pairs are compared.
    """
    from repro.obs import Telemetry, use_telemetry

    def cold_run(telemetry) -> float:
        state = WranglingState(fs=fs)
        chain = ProcessChain(
            components=[ScanArchive(workers=1), Publish()]
        )
        gc.collect()
        if telemetry is None:
            return timed(lambda: chain.run(state))
        with use_telemetry(telemetry):
            return timed(lambda: chain.run(state))

    base: list[float] = []
    instrumented: list[float] = []
    for __ in range(max(5, 2 * repeats + 1)):
        base.append(cold_run(None))
        instrumented.append(cold_run(Telemetry()))
    base_s = statistics.median(base)
    on_s = statistics.median(instrumented)
    return {
        "telemetry_base_s": base_s,
        "telemetry_on_s": on_s,
        "telemetry_overhead": (
            (on_s - base_s) / base_s if base_s else 0.0
        ),
    }


class CountingConnection:
    """Delegates to a ``sqlite3.Connection``, counting the
    ``execute``/``executemany`` calls made through it."""

    def __init__(self, conn) -> None:
        self._conn = conn
        self.statements = 0

    def execute(self, *args):
        self.statements += 1
        return self._conn.execute(*args)

    def executemany(self, *args):
        self.statements += 1
        return self._conn.executemany(*args)

    def __enter__(self):
        return self._conn.__enter__()

    def __exit__(self, *exc_info):
        return self._conn.__exit__(*exc_info)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def counted_statements(store: SqliteCatalog, write) -> int:
    """The statements ``write()`` issues through ``store``'s connection."""
    proxy = CountingConnection(store._conn)
    store._conn = proxy
    try:
        write()
    finally:
        store._conn = proxy._conn
    return proxy.statements


def spread(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "runs_s": times}


def measure_store_write(n_datasets: int, repeats: int, tmpdir: str) -> dict:
    """``upsert_many`` of ``n_datasets`` search-shaped features (4-8
    variables each) into a fresh file catalog, then the same batch again
    into the now full one; each timed from a collected heap."""
    features = list(synthetic_catalog(n_datasets, seed=3001).features())
    fresh: list[float] = []
    republish: list[float] = []
    for attempt in range(repeats):
        store = SqliteCatalog(os.path.join(tmpdir, f"write_{attempt}.db"))
        try:
            gc.collect()
            fresh.append(timed(lambda: store.upsert_many(features)))
            gc.collect()
            republish.append(timed(lambda: store.upsert_many(features)))
        finally:
            store.close()
    with SqliteCatalog(os.path.join(tmpdir, "write_counted.db")) as store:
        fresh_statements = counted_statements(
            store, lambda: store.upsert_many(features)
        )
        republish_statements = counted_statements(
            store, lambda: store.upsert_many(features)
        )
    return {
        "features": len(features),
        "variables": sum(len(f.variables) for f in features),
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "fresh": {**spread(fresh), "statements": fresh_statements},
        "republish": {
            **spread(republish), "statements": republish_statements
        },
    }


def run(n_datasets: int, rows: int, repeats: int, n_edits: int) -> dict:
    print(f"building a {n_datasets}-dataset synthetic archive ...")
    fs = build_archive(n_datasets, rows=rows, seed=7)

    # -- serial/parallel equality gate --------------------------------------
    # workers=4 forces a real process pool even on single-CPU hosts
    # (where the workers=None default resolves to the serial path).
    print("checking serial == parallel catalog equality ...")
    serial_state = WranglingState(fs=fs)
    ProcessChain(
        components=[ScanArchive(workers=1), Publish()]
    ).run(serial_state)
    parallel_state = WranglingState(fs=fs)
    ProcessChain(
        components=[ScanArchive(workers=4), Publish()]
    ).run(parallel_state)
    parallel_ok = observable(serial_state.published) == observable(
        parallel_state.published
    )
    if not parallel_ok:
        print("exactness FAILED: parallel scan diverged from serial")
        return {"exactness_ok": False}

    result = {
        "datasets": n_datasets,
        "rows_per_dataset": rows,
        "repeats": repeats,
        "workers": os.cpu_count(),
        "backends": {},
    }
    with tempfile.TemporaryDirectory() as tmpdir:
        for backend in ("memory", "sqlite_file"):
            print(f"timing backend {backend} ...")
            result["backends"][backend] = bench_backend(
                backend, fs, tmpdir, repeats, n_edits, rows
            )
        print("timing the store's batched write ...")
        result["store_write"] = measure_store_write(
            n_datasets, max(5, 2 * repeats + 1), tmpdir
        )
    print("measuring telemetry overhead on the serial path ...")
    result.update(measure_telemetry_overhead(fs, repeats))
    sqlite = result["backends"]["sqlite_file"]
    result["exactness_ok"] = parallel_ok and all(
        b["exactness_ok"] for b in result["backends"].values()
    )
    result["cold_speedup_sqlite_file"] = sqlite["cold_speedup"]
    result["unchanged_digests"] = max(
        b["unchanged_digests"] for b in result["backends"].values()
    )
    result["unchanged_store_writes"] = max(
        b["unchanged_store_writes"] for b in result["backends"].values()
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small archive, equality-focused smoke run (CI)",
    )
    parser.add_argument("--datasets", type=int, default=None)
    parser.add_argument("--rows", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--edits", type=int, default=25)
    parser.add_argument(
        "--output", default=None,
        help="result JSON path (default: BENCH_ingest.json at the repo "
        "root for full runs, BENCH_ingest_quick.json for --quick)",
    )
    args = parser.parse_args(argv)

    n_datasets = args.datasets or (400 if args.quick else 5000)
    repeats = args.repeats or (2 if args.quick else 3)
    n_edits = min(args.edits, max(1, n_datasets // 10))

    result = run(n_datasets, args.rows, repeats, n_edits)
    result["quick"] = args.quick

    output = args.output or str(
        REPO_ROOT
        / ("BENCH_ingest_quick.json" if args.quick else "BENCH_ingest.json")
    )
    with open(output, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {output}")

    if not result["exactness_ok"]:
        return 1
    for backend, b in result["backends"].items():
        print(
            f"{backend:12s} cold seed {b['cold_seed_s']:7.3f}s  "
            f"fast {b['cold_fast_s']:7.3f}s  "
            f"({b['cold_speedup']:.1f}x)  "
            f"unchanged {b['unchanged_s'] * 1000.0:7.1f}ms "
            f"({b['unchanged_digests']} digests, "
            f"{b['unchanged_store_writes']} writes; seed "
            f"{b['unchanged_seed_digests']} digests)  "
            f"edit({b['small_edit_files']}) "
            f"{b['small_edit_s'] * 1000.0:7.1f}ms"
        )
    write = result["store_write"]
    print(
        f"store write  {write['features']} features: fresh "
        f"{write['fresh']['median_s'] * 1000.0:7.1f}ms "
        f"({write['fresh']['statements']} statements)  republish "
        f"{write['republish']['median_s'] * 1000.0:7.1f}ms "
        f"({write['republish']['statements']} statements)"
    )
    print(
        f"telemetry    base {result['telemetry_base_s']:7.3f}s  "
        f"instrumented {result['telemetry_on_s']:7.3f}s  "
        f"(overhead {result['telemetry_overhead'] * 100.0:+.1f}%)"
    )
    failures = []
    if result["telemetry_overhead"] > 0.05:
        failures.append("telemetry overhead above 5% on the serial path")
    if result["unchanged_digests"] != 0:
        failures.append("unchanged re-wrangle computed digests")
    if result["unchanged_store_writes"] != 0:
        failures.append("unchanged re-wrangle wrote to a store")
    if not all(
        b["small_edit_delta_ok"] for b in result["backends"].values()
    ):
        failures.append("small-edit publish delta != edited file count")
    if not args.quick:
        # The acceptance floor for the perf trajectory; quick CI runs on
        # tiny archives are too noisy to gate on speedups.
        if result["cold_speedup_sqlite_file"] < 3.0:
            failures.append(
                "file-backed SQLite cold speedup below the 3x floor"
            )
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
