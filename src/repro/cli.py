"""Command-line interface: generate, wrangle, search, validate, summarize.

The production shape of the system as an operator sees it::

    python -m repro generate ./archive --datasets 60 --mess 0.3
    python -m repro wrangle  ./archive --catalog catalog.db
    python -m repro search   catalog.db "near 45.5, -124.4 in mid-2010 \
        with temperature between 5 and 10"
    python -m repro serve-bench catalog.db --clients 8 --think-ms 5
    python -m repro summary  catalog.db stations/saturn01/saturn01_2009.csv
    python -m repro validate ./archive
    python -m repro menu     catalog.db

Every command prints to stdout and returns a process exit code, so the
functions are directly testable.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from . import __version__
from .archive import (
    ArchiveSpec,
    VirtualArchive,
    generate_archive,
    inject_mess,
    render_archive,
    uniform_mess_spec,
)
from .catalog import SqliteCatalog
from .core import SearchEngine
from .core.qparser import QueryParseError, parse_query
from .core.summary import summarize
from .hierarchy import vocabulary_hierarchy
from .obs import Telemetry, use_telemetry, write_trace
from .system import DataNearHere
from .ui import (
    render_search_text,
    render_span_tree,
    render_summary_text,
    render_telemetry_report,
)
from .wrangling import WranglingState, default_chain, validate
from .wrangling.scan import ScanArchive


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Taming the Metadata Mess — wrangle and search "
        "scientific data archives",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate", help="write a synthetic messy archive to a directory"
    )
    generate.add_argument("directory")
    generate.add_argument("--datasets", type=int, default=30)
    generate.add_argument("--mess", type=float, default=None,
                          help="uniform mess rate in [0,1] "
                          "(default: the mixed default rates)")
    generate.add_argument("--seed", type=int, default=7)

    wrangle = sub.add_parser(
        "wrangle", help="scan + wrangle an archive directory into a "
        "SQLite catalog"
    )
    wrangle.add_argument("directory")
    wrangle.add_argument("--catalog", default="metadata_catalog.db")
    wrangle.add_argument(
        "--config", default=None,
        help="load a saved process configuration (JSON) before wrangling",
    )
    wrangle.add_argument(
        "--save-config", default=None,
        help="write the process configuration (JSON) after wrangling",
    )
    wrangle.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="parse/extract parallelism for the archive scan "
        "(default: one per CPU; 1 forces the serial path)",
    )
    wrangle.add_argument(
        "--timings", action="store_true",
        help="print the span-tree timing breakdown for the wrangling run",
    )
    wrangle.add_argument(
        "--stats", action="store_true",
        help="print the full telemetry report (span tree, counters, "
        "latency histograms) after the run",
    )
    wrangle.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the run's telemetry trace to FILE as JSONL "
        "(validate with 'python -m repro.obs FILE')",
    )
    wrangle.add_argument(
        "--show-quarantine", action="store_true",
        help="print the quarantine report (files the scan set aside, "
        "with typed reasons) after the run",
    )

    search = sub.add_parser(
        "search", help="ranked search over a published catalog"
    )
    search.add_argument("catalog")
    search.add_argument("query", help="query text, e.g. "
                        "'near 45.5, -124.4 with salinity'")
    search.add_argument("--limit", type=int, default=10)
    search.add_argument(
        "--repeat", type=int, default=1,
        help="issue the query N times (exercises the query cache)",
    )
    search.add_argument(
        "--stats", action="store_true",
        help="print engine statistics (cache hits/misses, index state) "
        "and the telemetry report",
    )
    search.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the search telemetry trace to FILE as JSONL",
    )

    serve = sub.add_parser(
        "serve",
        help="serve ranked search over HTTP "
        "(GET /search, /healthz, /telemetry)",
    )
    serve.add_argument("catalog")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="TCP port (0 = ephemeral; the bound port is printed)",
    )
    serve.add_argument(
        "--concurrency", type=int, default=4,
        help="max concurrent requests (default 4)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=16,
        help="admitted requests allowed to wait (default 16)",
    )
    serve.add_argument(
        "--drain-seconds", type=float, default=5.0,
        help="graceful drain budget on shutdown (default 5)",
    )
    serve.add_argument(
        "--max-seconds", type=float, default=None,
        help="exit (gracefully) after N seconds — smoke tests/CI",
    )
    serve.add_argument(
        "--refresh-seconds", type=float, default=None,
        help="poll the catalog every N seconds and refresh the engine "
        "when its version changed (default: no polling)",
    )
    serve.add_argument(
        "--access-log", default=None, metavar="FILE",
        help="write one JSONL access event per request to FILE "
        "(schema-validated by `python -m repro.obs`)",
    )
    serve.add_argument(
        "--flight-out", default=None, metavar="FILE",
        help="dump the slow-query flight recorder to FILE (JSON) "
        "on shutdown",
    )
    serve.add_argument(
        "--slo-p95-ms", type=float, default=500.0,
        help="SLO target: p95 latency, milliseconds (default 500)",
    )
    serve.add_argument(
        "--slo-error-rate", type=float, default=0.01,
        help="SLO target: tolerated error fraction (default 0.01)",
    )
    serve.add_argument(
        "--slo-availability", type=float, default=0.99,
        help="SLO target: answered-request fraction (default 0.99)",
    )

    serve_bench = sub.add_parser(
        "serve-bench",
        help="closed-loop load benchmark against the concurrent "
        "search service",
    )
    serve_bench.add_argument("catalog")
    serve_bench.add_argument(
        "--query", action="append", default=None, metavar="TEXT",
        help="workload query text (repeatable; default: a mix derived "
        "from the catalog's variables and coverage)",
    )
    serve_bench.add_argument(
        "--clients", type=int, default=4,
        help="number of closed-loop client threads (default 4)",
    )
    serve_bench.add_argument(
        "--requests", type=int, default=25,
        help="requests per client (default 25)",
    )
    serve_bench.add_argument(
        "--think-ms", type=float, default=0.0,
        help="per-client think time between requests, milliseconds",
    )
    serve_bench.add_argument(
        "--zipf", type=float, default=1.1,
        help="Zipf skew of query selection (0 = uniform; default 1.1)",
    )
    serve_bench.add_argument("--limit", type=int, default=10)
    serve_bench.add_argument(
        "--concurrency", type=int, default=4,
        help="service max concurrent requests (default 4)",
    )
    serve_bench.add_argument(
        "--queue-depth", type=int, default=16,
        help="admitted requests allowed to wait (default 16)",
    )
    serve_bench.add_argument(
        "--http", action="store_true",
        help="drive the workload over a local HTTP server (socket "
        "mode) instead of in-process calls",
    )
    serve_bench.add_argument("--seed", type=int, default=0)

    summary = sub.add_parser(
        "summary", help="show one dataset's summary page"
    )
    summary.add_argument("catalog")
    summary.add_argument("dataset_id")

    check = sub.add_parser(
        "validate", help="run the curatorial validation checks on an "
        "archive directory"
    )
    check.add_argument("directory")

    menu = sub.add_parser(
        "menu", help="print the hierarchical variable menu of a catalog"
    )
    menu.add_argument("catalog")

    export = sub.add_parser(
        "export", help="dump a catalog to interchange JSON"
    )
    export.add_argument("catalog")
    export.add_argument("output", help="JSON file path ('-' for stdout)")

    facets = sub.add_parser(
        "facets", help="print the search sidebar facet counts"
    )
    facets.add_argument("catalog")

    report = sub.add_parser(
        "report", help="print the catalog health report"
    )
    report.add_argument("catalog")

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    share = args.datasets / 30.0
    spec = ArchiveSpec(
        stations=max(1, round(8 * share)),
        cruises=max(1, round(6 * share)),
        casts=max(1, round(10 * share)),
        gliders=max(1, round(3 * share)),
        met_stations=max(1, round(3 * share)),
        seed=args.seed,
    )
    archive = generate_archive(spec)
    if args.mess is None:
        inject_mess(archive)
    else:
        if not 0.0 <= args.mess <= 1.0:
            print("error: --mess must lie in [0, 1]", file=sys.stderr)
            return 2
        inject_mess(archive, uniform_mess_spec(args.mess, seed=args.seed))
    fs, __ = render_archive(archive)
    count = fs.export_to(args.directory)
    print(f"wrote {count} files ({len(archive.datasets)} datasets) "
          f"under {args.directory}")
    return 0


def _cmd_wrangle(args: argparse.Namespace) -> int:
    from .wrangling import (
        ProcessConfigError,
        dump_process_config,
        load_process_config,
    )

    fs = VirtualArchive.import_from(args.directory)
    if len(fs) == 0:
        print(f"error: no files under {args.directory}", file=sys.stderr)
        return 2
    published = SqliteCatalog(args.catalog)
    system = DataNearHere(fs, published=published)
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                chain, state = load_process_config(fh.read(), fs=fs)
        except (OSError, ProcessConfigError) as exc:
            print(f"error: cannot load config: {exc}", file=sys.stderr)
            published.close()
            return 2
        state.published = published
        system.chain = chain
        system.state = state
        print(f"loaded process config from {args.config}")
    if args.workers is not None:
        if args.workers < 1:
            print("error: --workers must be >= 1", file=sys.stderr)
            published.close()
            return 2
        # After any --config load, so the flag wins over the saved value.
        system.set_scan_workers(args.workers)
    report = system.wrangle()
    snapshot = system.telemetry_snapshot()
    if args.timings:
        print(
            f"wrangle run #{report.run_number}: "
            f"{report.total_changes} changes in "
            f"{report.duration_seconds:.3f}s"
        )
        print(render_span_tree(snapshot))
    else:
        print(
            f"wrangle run #{report.run_number}: "
            f"{report.total_changes} changes in "
            f"{report.duration_seconds:.3f}s "
            f"(--timings for the span-tree breakdown)"
        )
    print()
    print("validation:", system.validate().summary())
    if args.show_quarantine:
        print()
        print(system.quarantine_report())
    elif len(system.quarantine):
        print()
        print(
            f"quarantine: {len(system.quarantine)} files set aside "
            "(--show-quarantine for details)"
        )
    if args.stats:
        print()
        print(render_telemetry_report(snapshot))
    if args.trace_out is not None:
        events = write_trace(snapshot, args.trace_out)
        print()
        print(f"trace: {events} events written to {args.trace_out}")
    print()
    print(f"published {len(published)} datasets to {args.catalog}")
    if args.save_config is not None:
        with open(args.save_config, "w", encoding="utf-8") as fh:
            fh.write(dump_process_config(system.chain, system.state))
        print(f"process config saved to {args.save_config}")
    published.close()
    return 0


def _open_catalog(path: str) -> SqliteCatalog | None:
    catalog = SqliteCatalog(path)
    if len(catalog) == 0:
        print(f"error: catalog {path!r} is empty (run 'wrangle' first)",
              file=sys.stderr)
        catalog.close()
        return None
    return catalog


def _cmd_search(args: argparse.Namespace) -> int:
    if args.limit < 1:
        print("error: --limit must be >= 1", file=sys.stderr)
        return 2
    try:
        query = parse_query(args.query)
    except QueryParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    catalog = _open_catalog(args.catalog)
    if catalog is None:
        return 2
    telemetry = Telemetry()
    with use_telemetry(telemetry):
        engine = SearchEngine(catalog, hierarchy=vocabulary_hierarchy())
        repeats = max(1, args.repeat)
        for __ in range(repeats):
            results = engine.search(query, limit=args.limit)
    print(render_search_text(query, results))
    if args.stats:
        stats = engine.stats()
        cache = stats["cache"]
        print()
        print(
            f"engine: catalog v{stats['catalog_version']} "
            f"({stats['catalog_size']} datasets)"
        )
        print(
            f"cache:  {cache['hits']} hits / {cache['misses']} misses "
            f"/ {cache['evictions']} evictions "
            f"(hit rate {cache['hit_rate']:.2f}, "
            f"{cache['size']}/{cache['maxsize']} entries)"
        )
        print()
        print(render_telemetry_report(telemetry.snapshot()))
    if args.trace_out is not None:
        events = write_trace(telemetry.snapshot(), args.trace_out)
        print()
        print(f"trace: {events} events written to {args.trace_out}")
    catalog.close()
    return 0


def _default_workload(catalog) -> list:
    """A query mix derived from the catalog itself.

    A few variable-only queries over the most common names (the cache
    favourites), plus located queries at dataset bbox centres (the
    index-pruned tail) — enough modality spread to exercise scoring,
    pruning and the cache without the operator hand-writing a workload.
    """
    from .core.query import Query, VariableTerm
    from .geo import GeoPoint

    names = [
        name
        for name, __ in catalog.variable_name_counts().most_common(3)
    ]
    queries = [
        Query(variables=(VariableTerm(name=name),)) for name in names
    ]
    var_terms = (
        (VariableTerm(name=names[0]),) if names else ()
    )
    for dataset_id in catalog.dataset_ids()[:5]:
        feature = catalog.get(dataset_id)
        bbox = feature.bbox
        queries.append(
            Query(
                location=GeoPoint(
                    (bbox.min_lat + bbox.max_lat) / 2.0,
                    (bbox.min_lon + bbox.max_lon) / 2.0,
                ),
                radius_km=100.0,
                interval=feature.interval,
                variables=var_terms,
            )
        )
    return queries


def _default_workload_texts(catalog) -> list[str]:
    """The textual twin of :func:`_default_workload` for socket mode —
    HTTP clients send qparser *text*, not Query objects."""
    names = [
        name
        for name, __ in catalog.variable_name_counts().most_common(3)
    ]
    texts = [f"with {name}" for name in names]
    anchor = names[0] if names else "salinity"
    for dataset_id in catalog.dataset_ids()[:5]:
        bbox = catalog.get(dataset_id).bbox
        lat = (bbox.min_lat + bbox.max_lat) / 2.0
        lon = (bbox.min_lon + bbox.max_lon) / 2.0
        texts.append(
            f"near {lat:.3f}, {lon:.3f} within 100 km with {anchor}"
        )
    return texts


def _serve_config_from_args(args: argparse.Namespace):
    from .serve import ServeConfig

    return ServeConfig(
        max_concurrency=args.concurrency,
        queue_depth=args.queue_depth,
    )


def _validate_serve_args(args: argparse.Namespace) -> str | None:
    for flag, value, minimum in (
        ("--limit", getattr(args, "limit", 1), 1),
        ("--concurrency", args.concurrency, 1),
        ("--queue-depth", args.queue_depth, 0),
    ):
        if value < minimum:
            return f"{flag} must be >= {minimum}"
    return None


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .obs import AccessLogWriter, FlightRecorder, SLOConfig, SLOTracker
    from .serve import SearchHTTPServer, SearchService

    problem = _validate_serve_args(args)
    if problem is None and args.port < 0:
        problem = "--port must be >= 0"
    if problem is None and args.drain_seconds < 0.0:
        problem = "--drain-seconds must be >= 0"
    if (
        problem is None
        and args.refresh_seconds is not None
        and args.refresh_seconds <= 0.0
    ):
        problem = "--refresh-seconds must be > 0"
    if problem is None and args.slo_p95_ms <= 0.0:
        problem = "--slo-p95-ms must be > 0"
    if problem is None and not 0.0 <= args.slo_error_rate <= 1.0:
        problem = "--slo-error-rate must lie in [0, 1]"
    if problem is None and not 0.0 < args.slo_availability <= 1.0:
        problem = "--slo-availability must lie in (0, 1]"
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    catalog = _open_catalog(args.catalog)
    if catalog is None:
        return 2
    service = SearchService(
        catalog,
        hierarchy=vocabulary_hierarchy(),
        config=_serve_config_from_args(args),
    )
    slo = SLOTracker(
        SLOConfig(
            latency_p95_seconds=args.slo_p95_ms / 1e3,
            max_error_rate=args.slo_error_rate,
            min_availability=args.slo_availability,
        )
    )
    flight = FlightRecorder()
    access_log = (
        AccessLogWriter(args.access_log)
        if args.access_log is not None
        else None
    )
    server = SearchHTTPServer(
        service,
        host=args.host,
        port=args.port,
        slo=slo,
        flight=flight,
        access_log=access_log,
    ).start()
    host, port = server.address
    print(
        f"serving {args.catalog} at http://{host}:{port} "
        f"(GET /search?q=..., /healthz, /telemetry, /metrics, "
        f"/debug/slow)",
        flush=True,
    )
    stop = threading.Event()
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, lambda *_: stop.set())
        print("Ctrl-C (or SIGTERM) drains and exits", flush=True)
    deadline = (
        time.monotonic() + args.max_seconds
        if args.max_seconds is not None
        else None
    )
    next_refresh = (
        time.monotonic() + args.refresh_seconds
        if args.refresh_seconds is not None
        else None
    )
    refreshes = 0
    try:
        while not stop.wait(0.2):
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                break
            if next_refresh is not None and now >= next_refresh:
                # refresh() is a version-compare no-op when nothing was
                # published, so polling is cheap; external writers give
                # us no PublishDelta, hence the full-rebuild path.
                if service.refresh():
                    refreshes += 1
                next_refresh = now + args.refresh_seconds
    finally:
        drained = server.close(timeout=args.drain_seconds)
        stats = service.stats()
        print(
            f"shutdown: drained={drained}, "
            f"served {stats['requests_admitted']} requests, "
            f"refreshed {refreshes} snapshots",
            flush=True,
        )
        from .ui import render_slo_report

        print(render_slo_report(slo.report()), flush=True)
        if args.flight_out is not None:
            kept = flight.dump(args.flight_out)
            print(
                f"flight recorder: {kept} records -> {args.flight_out}",
                flush=True,
            )
        if access_log is not None:
            access_log.close()
            print(
                f"access log: {access_log.lines} lines -> "
                f"{args.access_log}",
                flush=True,
            )
        catalog.close()
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from .serve import (
        SearchHTTPServer,
        SearchService,
        run_load,
        run_load_http,
    )
    from .ui import render_serve_report

    problem = _validate_serve_args(args)
    for flag, value, minimum in (
        ("--clients", args.clients, 1),
        ("--requests", args.requests, 1),
    ):
        if problem is None and value < minimum:
            problem = f"{flag} must be >= {minimum}"
    if problem is None and args.think_ms < 0.0:
        problem = "--think-ms must be >= 0"
    if problem is None and args.zipf < 0.0:
        problem = "--zipf must be >= 0"
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    catalog = _open_catalog(args.catalog)
    if catalog is None:
        return 2
    texts = args.query or None
    if texts:
        try:
            queries = [parse_query(text) for text in texts]
        except QueryParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            catalog.close()
            return 2
    elif args.http:
        texts = _default_workload_texts(catalog)
        queries = [parse_query(text) for text in texts]
    else:
        queries = _default_workload(catalog)
    config = _serve_config_from_args(args)
    with SearchService(
        catalog, hierarchy=vocabulary_hierarchy(), config=config
    ) as service:
        if args.http:
            with SearchHTTPServer(service, port=0).start() as server:
                print(f"socket mode: {server.url}")
                report = run_load_http(
                    server.url,
                    texts,
                    clients=args.clients,
                    requests_per_client=args.requests,
                    think_seconds=args.think_ms / 1e3,
                    zipf_s=args.zipf,
                    limit=args.limit,
                    seed=args.seed,
                    live_version=lambda: catalog.version,
                )
                print(render_serve_report(report, service.stats()))
        else:
            report = run_load(
                service,
                queries,
                clients=args.clients,
                requests_per_client=args.requests,
                think_seconds=args.think_ms / 1e3,
                zipf_s=args.zipf,
                limit=args.limit,
                seed=args.seed,
                live_version=lambda: catalog.version,
            )
            print(render_serve_report(report, service.stats()))
    catalog.close()
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    catalog = _open_catalog(args.catalog)
    if catalog is None:
        return 2
    try:
        feature = catalog.get(args.dataset_id)
    except KeyError:
        print(f"error: no dataset {args.dataset_id!r} in catalog",
              file=sys.stderr)
        catalog.close()
        return 2
    print(render_summary_text(summarize(feature)))
    catalog.close()
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    fs = VirtualArchive.import_from(args.directory)
    if len(fs) == 0:
        print(f"error: no files under {args.directory}", file=sys.stderr)
        return 2
    state = WranglingState(fs=fs)
    chain = default_chain(scan=ScanArchive())
    chain.run(state)
    report = validate(state)
    print(report.summary())
    for failure in report.failures[:20]:
        print(f"  [{failure.check}] {failure.message}")
    if len(report.failures) > 20:
        print(f"  ... and {len(report.failures) - 20} more")
    return 0 if report.ok else 1


def _cmd_menu(args: argparse.Namespace) -> int:
    catalog = _open_catalog(args.catalog)
    if catalog is None:
        return 2
    present = set(catalog.variable_name_counts())
    hierarchy = vocabulary_hierarchy()
    lines = []
    for name, depth in hierarchy.walk():
        descendants = hierarchy.expand(name)
        count = sum(1 for d in descendants if d in present)
        if count == 0 and name not in present:
            continue
        marker = "" if hierarchy.node(name).measurable else " *"
        lines.append("  " * depth + f"- {name}{marker}")
    print("\n".join(lines))
    catalog.close()
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .catalog import dump_catalog

    catalog = _open_catalog(args.catalog)
    if catalog is None:
        return 2
    text = dump_catalog(catalog, indent=2)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"exported {len(catalog)} datasets to {args.output}")
    catalog.close()
    return 0


def _cmd_facets(args: argparse.Namespace) -> int:
    from .core import render_facet_sidebar, render_menu_with_counts

    catalog = _open_catalog(args.catalog)
    if catalog is None:
        return 2
    print(render_facet_sidebar(catalog))
    print()
    print("variable menu:")
    print(render_menu_with_counts(catalog, vocabulary_hierarchy()))
    catalog.close()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .ui import render_health_report

    catalog = _open_catalog(args.catalog)
    if catalog is None:
        return 2
    print(render_health_report(catalog))
    catalog.close()
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "wrangle": _cmd_wrangle,
    "search": _cmd_search,
    "serve": _cmd_serve,
    "serve-bench": _cmd_serve_bench,
    "summary": _cmd_summary,
    "validate": _cmd_validate,
    "menu": _cmd_menu,
    "export": _cmd_export,
    "facets": _cmd_facets,
    "report": _cmd_report,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
