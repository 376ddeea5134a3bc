"""The three workloads: set-up, timed phase, correctness gate, layers.

Deployment measured (what ``repro serve`` runs): a file-backed
``SqliteCatalog``, a ``SearchService`` with the default ``ServeConfig``
(serial in-process scoring), and a ``SearchHTTPServer`` with the
program's own telemetry, SLO tracker and flight recorder left on.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

from repro.archive import VirtualArchive, write_dataset
from repro.catalog import SqliteCatalog
from repro.core.qparser import parse_query
from repro.core.search import SearchEngine
from repro.hierarchy import vocabulary_hierarchy
from repro.serve import SearchHTTPServer, SearchService
from repro.system import DataNearHere
from repro.wrangling.chain import default_chain

from client import ClosedLoop, Outcome
from inputs import (
    append_observations,
    coastal_catalog,
    edit_schedule,
    fresh_texts,
    messy_archive,
    render_files,
    zipf_texts,
)
from spans import (
    NullTracer,
    Tracer,
    install_publish_path,
    install_search_path,
    quantile,
)

LIMIT = 10
#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


@dataclass(frozen=True, slots=True)
class Sizes:
    catalog: int = 5000  # search-* datasets
    hot_texts: int = 16
    archive: int = 1000  # rerun-churn datasets present at the start
    held_back: int = 32
    small_edit: int = 5
    large_edit: int = 100  # above ServeConfig.migrate_max_delta (64)
    batch: int = 12  # /search requests per rerun round
    setups: int = 5  # set-ups, and as many timed slices, per search run
    churn_setups: int = 6  # the same per churn run
    verify: int = 24  # sampled pages checked per search run
    connections: int = 2


FULL = Sizes()
TINY = Sizes(
    catalog=300,
    hot_texts=8,
    archive=40,
    held_back=4,
    small_edit=2,
    large_edit=6,
    batch=8,
    setups=2,
    churn_setups=2,
    verify=6,
)


@dataclass(slots=True)
class RunResult:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    end_to_end: dict = field(default_factory=dict)  # name -> (value, unit)
    layers: dict = field(default_factory=dict)  # name -> per-sample values
    notes: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)
    tracer: Tracer | None = None

    def mismatch(self, message: str) -> None:
        self.correct = False
        self.mismatches.append(message)


# -- shared helpers ----------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile that leaves
    ``TAIL_BEYOND`` samples beyond it, i.e. the eleventh-largest sample."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 50.0, statistics.median(ordered) if ordered else 0.0
    return 100.0 * (1.0 - TAIL_BEYOND / n), ordered[n - TAIL_BEYOND - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_metrics(result: RunResult, outcomes: list[Outcome], busy: float) -> None:
    rtts = [o.rtt_ms for o in outcomes if o.ok]
    if not rtts:
        result.mismatch("no /search request succeeded")
        rtts = [0.0]
    p, value = tail(rtts)
    result.end_to_end["search_p50_ms"] = (statistics.median(rtts), "ms")
    result.end_to_end["search_tail_ms"] = (value, "ms")
    result.end_to_end["search_qps"] = (len(rtts) / busy if busy > 0 else 0.0, "1/s")
    result.notes.append(
        f"search_tail_ms is p{p:.2f} (the eleventh-slowest) of "
        f"{len(rtts)} successful requests"
    )


def page_of(payload: dict) -> tuple[list, int]:
    return (
        [(r["dataset_id"], r["score"]) for r in payload["results"]],
        payload["total_matches"],
    )


def reference_page(engine: SearchEngine, text: str) -> tuple[list, int]:
    results = engine.search(parse_query(text), limit=LIMIT)
    return [(r.dataset_id, r.score) for r in results], results.total_matches


def check_page(result: RunResult, outcome: Outcome, engine, what: str) -> None:
    got = page_of(outcome.payload)
    want = reference_page(engine, outcome.text)
    if got != want:
        result.mismatch(
            f"{what}: request {outcome.seq} ({outcome.text!r}) served "
            f"{got[0][:3]}... total {got[1]}, reference "
            f"{want[0][:3]}... total {want[1]}"
        )


def cold_engine(catalog, hierarchy) -> SearchEngine:
    """A cache-off engine: the in-process reference for served pages."""
    engine = SearchEngine(catalog, hierarchy=hierarchy, cache=False)
    engine.build_indexes()
    return engine


def remove_db(path: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)


class Deployment:
    """One served catalog: store, service, HTTP server and client."""

    def __init__(self, store, service, connections: int) -> None:
        self.store = store
        self.service = service
        self.server = SearchHTTPServer(service, port=0).start()
        host, port = self.server.address
        self.loop = ClosedLoop(host, port, connections, limit=LIMIT)

    def close(self) -> None:
        self.loop.close()
        self.server.close(timeout=10.0)
        self.store.close()


def cache_counts(service) -> tuple[int, int]:
    stats = service.cache.stats()
    return stats["hits"], stats["misses"]


# -- per-layer aggregation -----------------------------------------------------------


def request_layers(tracer: Tracer, outcomes: list[Outcome]) -> dict[str, list[float]]:
    """Per-request layer values for traced requests, keyed by metric."""
    selfs = tracer.self_ms()
    spans = tracer.spans
    by_seq: dict[int, list[int]] = {}
    for index, record in enumerate(spans):
        if record.rid is None:
            continue
        seq = tracer.links.get(record.rid)
        if seq is not None:
            by_seq.setdefault(seq, []).append(index)
    out: dict[str, list[float]] = {
        name: []
        for name in (
            "http.overhead_ms", "http.handler_ms", "render.payload_ms",
            "qparser.parse_ms",
            "serve.queued_ms", "serve.search_ms", "engine.hit_ms",
            "engine.miss_ms", "engine.other_ms", "prefilter.ms",
            "prefilter.kept_ratio", "prefilter.rescan_ratio", "score.ms",
            "score.rows", "score.us_per_row", "unattributed_ms", "rtt_ms",
        )
    }
    for outcome in outcomes:
        indices = by_seq.get(outcome.seq)
        if not outcome.ok or not indices:
            continue

        def total(name: str, use_self: bool = False) -> float:
            return sum(
                selfs[i] if use_self else spans[i].ms
                for i in indices
                if spans[i].name == name
            )

        rtt = outcome.rtt_ms
        handler = total("http.handle", use_self=True)
        parse = total("qparser.parse")
        render = total("render.payload")
        serve_self = total("serve.search", use_self=True)
        engine_ms = total("engine.search")
        engine_self = total("engine.search", use_self=True)
        prefilter = sum(
            spans[i].ms for i in indices if spans[i].name.startswith("prefilter.")
        )
        scores = [spans[i] for i in indices if spans[i].name == "score"]
        score_ms = sum(s.ms for s in scores)
        out["rtt_ms"].append(rtt)
        out["http.overhead_ms"].append(rtt - outcome.payload["total_seconds"] * 1e3)
        out["http.handler_ms"].append(handler)
        out["render.payload_ms"].append(render)
        out["qparser.parse_ms"].append(parse)
        out["serve.queued_ms"].append(outcome.payload["queued_seconds"] * 1e3)
        out["serve.search_ms"].append(serve_self)
        if scores:
            rows = sum(s.attrs["rows"] for s in scores)
            out["engine.miss_ms"].append(engine_ms)
            out["engine.other_ms"].append(engine_self)
            out["prefilter.ms"].append(prefilter)
            out["prefilter.kept_ratio"].append(
                scores[0].attrs["rows"] / max(1, scores[0].attrs["catalog"])
            )
            out["prefilter.rescan_ratio"].append(1.0 if len(scores) > 1 else 0.0)
            out["score.ms"].append(score_ms)
            out["score.rows"].append(float(rows))
            out["score.us_per_row"].append(score_ms * 1e3 / rows if rows else 0.0)
        else:
            out["engine.hit_ms"].append(engine_ms)
        # Every layer's self time, measured on the server; what the
        # client's round trip holds beyond them (its own http.client
        # work, the socket and the kernel) is unattributed.
        layers = (
            handler + parse + render + serve_self + engine_self
            + prefilter + score_ms
        )
        out["unattributed_ms"].append(rtt - layers)
    return out


def segment_sums(
    tracer: Tracer, prefix: str, name: str, under: set[str] | None = None
) -> list[float]:
    """Per segment (one set-up or one round): summed ms of the outermost
    ``name`` spans, optionally only those inside an ``under`` span."""
    sums: dict[str, float] = {}
    segments = []
    for index, record in enumerate(tracer.spans):
        if not record.segment.startswith(prefix):
            continue
        if record.segment not in sums:
            sums[record.segment] = 0.0
            segments.append(record.segment)
        if record.name != name:
            continue
        if under is not None and not tracer.has_ancestor(index, under):
            continue
        if tracer.has_ancestor(index, {name}):
            continue
        sums[record.segment] += record.ms
    return [sums[s] for s in segments]


COMPONENTS = [c.name for c in default_chain().components]


def component_layers(
    tracer: Tracer, prefix: str, scale: float
) -> dict[str, list[float]]:
    """Run time of each wrangling component, one value per segment."""
    return {
        name: [v * scale for v in segment_sums(tracer, prefix, f"component.{name}")]
        for name in COMPONENTS
    }


def traced_request_values(
    tracer: Tracer, traced: list[Outcome], untraced: list[Outcome]
) -> dict[str, list[float]]:
    """Per-request layer values, their p95 companions and the tracing
    overhead (traced p50 against the untraced p50 of the same run)."""
    values = request_layers(tracer, traced)
    for name in ("http.overhead", "serve.queued"):
        sibling = values[f"{name}_ms"]
        values[f"{name}_p95_ms"] = [quantile(sibling, 0.95)] if sibling else []
    traced_rtt = values.pop("rtt_ms")
    plain = [o.rtt_ms for o in untraced if o.ok]
    if plain and traced_rtt:
        base = statistics.median(plain)
        values["trace.overhead_pct"] = [
            (statistics.median(traced_rtt) - base) / base * 100.0
        ]
    return values


# -- search-miss and search-hot ---------------------------------------------------------


def traced_slice(tracer: Tracer | None, number: int) -> bool:
    """A traced run traces every other timed slice, so the untraced
    slices it compares against run interleaved with the traced ones."""
    return tracer is not None and number % 2 == 1


def run_search(
    kind: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
    workdir: str,
) -> RunResult:
    result = RunResult()
    # -- inputs (before any timer) --
    features = coastal_catalog(sizes.catalog, seed)
    hierarchy = vocabulary_hierarchy()
    if kind == "miss":
        budget = max(200, int(seconds * 1000))
        stream = fresh_texts(budget + 8, seed, "miss")
        warmup, timed_texts = stream[:8], stream[8:]
    else:
        hot, timed_texts = zipf_texts(
            sizes.hot_texts, max(200, int(seconds * 5000)), seed
        )
        warmup = hot
    tracer = Tracer() if trace else None
    setup_times: list[float] = []

    def set_up(number: int) -> Deployment:
        """One set-up, timed into ``setup_times``."""
        if tracer is not None:
            install_publish_path(tracer)
            tracer.segment = f"setup{number}"
        span = tracer or NullTracer()
        path = os.path.join(workdir, f"catalog-{number}.db")
        remove_db(path)
        gc.collect()
        started = time.perf_counter()
        store = SqliteCatalog(path)
        store.upsert_many(features)
        with span.span("serve.build"):
            service = SearchService(store, hierarchy=hierarchy)
        deployment = Deployment(store, service, sizes.connections)
        if kind == "hot":
            warm = deployment.loop.run(warmup)
            result.attempted += len(warm.outcomes)
            result.failed += warm.failed
        setup_times.append(time.perf_counter() - started)
        if tracer is not None:
            tracer.uninstall()
            tracer.segment = "untraced"
        return deployment

    deployment = set_up(0)  # the measured one
    try:
        if kind == "miss":  # connections and lazy paths, untimed
            warm = deployment.loop.run(warmup)
            result.attempted += len(warm.outcomes)
            result.failed += warm.failed
        # -- timed slices, with the other set-ups between them --
        hits0, misses0 = cache_counts(deployment.service)
        slices = []
        for number in range(sizes.setups):
            if number:
                set_up(number).close()
            traced = traced_slice(tracer, number)
            if traced:
                install_search_path(tracer)
                tracer.segment = "traced"
            slices.append(
                (
                    deployment.loop.run(
                        timed_texts[sum(len(r.outcomes) for r, __ in slices):],
                        deadline=time.perf_counter() + seconds / sizes.setups,
                        tag=traced,
                    ),
                    traced,
                )
            )
            if traced:
                tracer.uninstall()
        hits1, misses1 = cache_counts(deployment.service)
        outcomes = [o for r, __ in slices for o in r.outcomes]
        result.attempted += len(outcomes)
        result.failed += sum(1 for o in outcomes if not o.ok)
        latency_metrics(result, outcomes, sum(r.elapsed for r, __ in slices))

        # -- correctness: sampled pages against a cache-off engine --
        snapshot = deployment.store.snapshot()
        reference = cold_engine(snapshot, hierarchy)
        ok = [o for o in outcomes if o.ok]
        rng = random.Random(f"verify:{seed}")
        sample = rng.sample(ok, min(sizes.verify, len(ok)))
        if kind == "hot":  # every hot text, at its first timed answer
            first = {}
            for outcome in ok:
                first.setdefault(outcome.text, outcome)
            sample += list(first.values())
        for outcome in sample:
            check_page(result, outcome, reference, f"search-{kind}")
        for outcome in ok:
            if outcome.payload["version"] != snapshot.version:
                result.mismatch(
                    f"request {outcome.seq} served version "
                    f"{outcome.payload['version']}, store is {snapshot.version}"
                )
                break
        lookups = (hits1 - hits0) + (misses1 - misses0)
        hit_ratio = (hits1 - hits0) / lookups if lookups else 0.0
        # Workload guards: search-miss must bypass the cache, search-hot
        # must be served from it.
        if kind == "miss" and hit_ratio > 0.01:
            result.mismatch(f"guard: search-miss cache hit ratio {hit_ratio:.3f}")
        if kind == "hot" and hit_ratio < 0.99:
            result.mismatch(f"guard: search-hot cache hit ratio {hit_ratio:.3f}")
        result.notes.append(f"cache.hit_ratio over the timed phase: {hit_ratio:.4f}")

        if tracer is not None:
            values = traced_request_values(
                tracer,
                [o for r, traced in slices if traced for o in r.outcomes],
                [o for r, traced in slices if not traced for o in r.outcomes],
            )
            values["cache.hit_ratio"] = [hit_ratio]
    finally:
        deployment.close()
    result.end_to_end["setup_s"] = (statistics.median(setup_times), "s")
    result.end_to_end["peak_rss_mb"] = (peak_rss_mb(), "MB")
    result.notes.append(
        f"setup_s is the median of {len(setup_times)} set-ups: "
        + " ".join(f"{t:.2f}" for t in setup_times)
    )
    if tracer is not None:
        values["store.write_ms"] = segment_sums(tracer, "setup", "store.write")
        build = {"serve.build"}
        values["refresh.snapshot_ms"] = segment_sums(
            tracer, "setup", "store.snapshot", under=build
        )
        values["refresh.freeze_ms"] = segment_sums(
            tracer, "setup", "columnar.freeze", under=build
        )
        values["refresh.index_ms"] = segment_sums(
            tracer, "setup", "index.maintain", under=build
        )
        result.layers = values
        result.tracer = tracer
    return result


# -- rerun-churn ------------------------------------------------------------------------


def run_churn(
    seed: int, seconds: float, trace: bool, sizes: Sizes, workdir: str
) -> RunResult:
    result = RunResult()
    # -- inputs (before any timer) --
    archive, held = messy_archive(sizes.archive, sizes.held_back, seed)
    max_rounds = 400
    schedule = edit_schedule(
        archive, held, max_rounds, seed, sizes.small_edit, sizes.large_edit
    )
    files = render_files(archive, held)
    by_path = {ds.path: ds for ds in archive.datasets}
    half = sizes.batch // 2
    hot = fresh_texts(4, seed, "churn-hot")
    fresh = fresh_texts(max_rounds * half + 1, seed, "churn-fresh")
    probe, fresh = fresh[0], fresh[1:]
    pick = random.Random(f"churn-batch:{seed}")
    batches = []
    for number in range(max_rounds):
        batch = []
        for i in range(half):
            batch.append(pick.choice(hot))
            batch.append(fresh[number * half + i])
        batches.append(batch)
    tracer = Tracer() if trace else None
    setup_times: list[float] = []

    def set_up(number: int) -> tuple[Deployment, DataNearHere]:
        """One cold wrangle and service start, timed into ``setup_times``."""
        if tracer is not None:
            install_publish_path(tracer, default_chain().components)
            tracer.segment = f"setup{number}"
        span = tracer or NullTracer()
        fs = VirtualArchive()
        for path, content in files.items():
            fs.put(path, content)
        db = os.path.join(workdir, f"archive-{number}.db")
        remove_db(db)
        gc.collect()
        started = time.perf_counter()
        store = SqliteCatalog(db)
        system = DataNearHere(fs, published=store)
        system.set_scan_workers(1)
        system.wrangle()
        with span.span("serve.build"):
            service = SearchService(store, hierarchy=system.state.hierarchy)
        deployment = Deployment(store, service, sizes.connections)
        setup_times.append(time.perf_counter() - started)
        if tracer is not None:
            tracer.uninstall()
            tracer.segment = "untraced"
        return deployment, system

    deployment, system = set_up(0)  # the measured one

    visible_ms: list[float] = []
    work_ratios: list[float] = []
    first_hot: list[float] = []
    first_fresh: list[float] = []
    outcomes: list[Outcome] = []
    traced_outcomes: list[Outcome] = []
    plain_outcomes: list[Outcome] = []
    busy = 0.0
    edit_rng = random.Random(f"append:{seed}")
    store, service, loop = deployment.store, deployment.service, deployment.loop
    try:
        warm = loop.run(hot)  # the hot set enters the service's recent ring
        result.attempted += len(warm.outcomes)
        result.failed += warm.failed
        hits0, misses0 = cache_counts(service)
        rounds = iter(enumerate(schedule))
        last_round = -1
        for slice_number in range(sizes.churn_setups):
            if slice_number:
                set_up(slice_number)[0].close()
            traced_now = traced_slice(tracer, slice_number)
            if traced_now:
                install_publish_path(tracer, system.chain.components)
                install_search_path(tracer)
            deadline = time.perf_counter() + seconds / sizes.churn_setups
            while time.perf_counter() < deadline:
                number, change = next(rounds)
                if tracer is not None:
                    tracer.segment = f"round{number}" if traced_now else "untraced"
                span = tracer if traced_now else NullTracer()
                # 1. edit the archive (untimed)
                for path in change.edit_paths:
                    dataset = by_path[path]
                    append_observations(dataset, edit_rng, rows=2)
                    system.state.fs.put(path, write_dataset(dataset))
                if change.add_path is not None:
                    system.state.fs.put(
                        change.add_path, write_dataset(by_path[change.add_path])
                    )
                if change.remove_path is not None:
                    system.state.fs.remove(change.remove_path)
                # 2-3. rerun the wrangle and refresh the served snapshot
                result.attempted += 1
                t0 = time.perf_counter()
                try:
                    with span.span("round.wrangle"):
                        report = system.wrangle()
                    with span.span("serve.refresh"):
                        service.refresh(
                            hierarchy=system.state.hierarchy,
                            delta=system.state.published_delta,
                        )
                except Exception as exc:  # a raising publish round is a failure
                    result.failed += 1
                    result.notes.append(f"round {number} raised {exc!r}")
                    continue
                visible = (time.perf_counter() - t0) * 1e3
                live = store.version
                if service.snapshot_version != live:
                    result.mismatch(
                        f"round {number}: serving version "
                        f"{service.snapshot_version}, store is {live}"
                    )
                seen = sum(r.items_seen for r in report.component_reports)
                work_ratios.append(report.total_changes / seen if seen else 0.0)
                # 4. a fixed batch of searches, half hot and half fresh
                batch = loop.run(batches[number], tag=traced_now)
                busy += batch.elapsed
                result.attempted += len(batch.outcomes)
                result.failed += batch.failed
                outcomes.extend(batch.outcomes)
                (traced_outcomes if traced_now else plain_outcomes).extend(batch.outcomes)
                ok = [o for o in batch.outcomes if o.ok]
                if not ok or ok[0].payload["version"] != live:
                    result.mismatch(
                        f"round {number}: first answer after refresh does not "
                        f"carry version {live}"
                    )
                else:
                    visible_ms.append(visible)
                for outcome in ok:
                    if outcome.payload["version"] != live:
                        result.mismatch(
                            f"round {number}: request {outcome.seq} served "
                            f"version {outcome.payload['version']}, store is {live}"
                        )
                        break
                hot_first = next((o for o in ok if o.text in hot), None)
                fresh_first = next((o for o in ok if o.text not in hot), None)
                if hot_first is not None:
                    first_hot.append(hot_first.rtt_ms)
                if fresh_first is not None:
                    first_fresh.append(fresh_first.rtt_ms)
                # correctness: one hot and one fresh page against a cache-off
                # engine over the same store version
                if tracer is not None:
                    tracer.segment = "verify"
                reference = cold_engine(store.snapshot(), system.state.hierarchy)
                for outcome in (hot_first, fresh_first):
                    if outcome is not None:
                        check_page(result, outcome, reference, f"round {number}")
                if number == 0:
                    probe_round(result, loop, store, system, probe, number)
                last_round = number
            if traced_now:
                tracer.uninstall()
        if tracer is not None:
            tracer.segment = "verify"
        hits1, misses1 = cache_counts(service)
        lookups = (hits1 - hits0) + (misses1 - misses0)
        hit_ratio = (hits1 - hits0) / lookups if lookups else 0.0
        if last_round > 0:
            probe_round(result, loop, store, system, probe, last_round)
        if not visible_ms:
            result.mismatch("no rerun round completed")
        latency_metrics(result, outcomes, busy)
        result.notes.append(
            f"publish_to_visible_ms per round ({len(visible_ms)} rounds): "
            + " ".join(f"{v:.0f}" for v in visible_ms)
        )
        delta = service.telemetry.counter("refresh.delta_applied")
        full = service.telemetry.counter("refresh.full_rebuilds")
        delta_ratio = delta / (delta + full) if delta + full else 0.0
        # Workload guard: the O(changed) refresh path must run.
        if delta_ratio <= 0.0:
            result.mismatch("guard: no refresh took the delta path")
        result.notes.append(
            f"refresh.delta_ratio: {delta_ratio:.3f} ({delta} delta, {full} full)"
        )
        if tracer is not None:
            values = traced_request_values(tracer, traced_outcomes, plain_outcomes)
            values["cache.hit_ratio"] = [hit_ratio]
            values["refresh.delta_ratio"] = [delta_ratio]
            values["publish_to_visible_ms"] = visible_ms
            values["rerun.work_ratio"] = work_ratios
            values["refresh.first_query_hot_ms"] = first_hot
            values["refresh.first_query_fresh_ms"] = first_fresh
            for name, runs in component_layers(tracer, "round", 1.0).items():
                values[f"rerun.{name}_ms"] = runs
            values["store.write_ms"] = segment_sums(tracer, "round", "store.write")
            refresh = {"serve.refresh"}
            values["refresh.snapshot_ms"] = segment_sums(
                tracer, "round", "store.snapshot", under=refresh
            )
            values["refresh.freeze_ms"] = segment_sums(
                tracer, "round", "columnar.freeze", under=refresh
            )
            values["refresh.index_ms"] = segment_sums(
                tracer, "round", "index.maintain", under=refresh
            )
            values["refresh.ms"] = segment_sums(tracer, "round", "serve.refresh")
            values["refresh.warm_ms"] = segment_sums(
                tracer, "round", "engine.search", under=refresh
            )
    finally:
        deployment.close()
    result.end_to_end["setup_s"] = (statistics.median(setup_times), "s")
    result.end_to_end["peak_rss_mb"] = (peak_rss_mb(), "MB")
    result.notes.append(
        f"setup_s is the median of {len(setup_times)} set-ups: "
        + " ".join(f"{t:.2f}" for t in setup_times)
    )
    if tracer is not None:
        for name, runs in component_layers(tracer, "setup", 1e-3).items():
            values[f"ingest.{name}_s"] = runs
        result.layers = values
        result.tracer = tracer
    return result


def probe_round(result, loop, store, system, probe, number) -> None:
    """A probe page over HTTP must equal a cold engine over the live store."""
    answer = loop.run([probe])
    result.attempted += 1
    result.failed += answer.failed
    if answer.ok:
        reference = cold_engine(store, system.state.hierarchy)
        check_page(result, answer.ok[0], reference, f"probe round {number}")
