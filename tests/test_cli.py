"""Unit tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import main


@pytest.fixture()
def archive_dir(tmp_path):
    directory = str(tmp_path / "archive")
    code = main(["generate", directory, "--datasets", "12", "--seed", "3"])
    assert code == 0
    return directory


@pytest.fixture()
def catalog_path(archive_dir, tmp_path):
    path = str(tmp_path / "catalog.db")
    code = main(["wrangle", archive_dir, "--catalog", path])
    assert code == 0
    return path


class TestGenerate:
    def test_creates_files(self, archive_dir, capsys):
        files = []
        for root, __, names in os.walk(archive_dir):
            files.extend(names)
        assert len(files) > 10

    def test_mess_rate_flag(self, tmp_path, capsys):
        directory = str(tmp_path / "clean")
        assert main(["generate", directory, "--mess", "0.0"]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out

    def test_bad_mess_rate(self, tmp_path, capsys):
        assert main(
            ["generate", str(tmp_path / "x"), "--mess", "1.5"]
        ) == 2
        assert "error" in capsys.readouterr().err


class TestWrangle:
    def test_publishes_catalog(self, catalog_path, capsys):
        assert os.path.exists(catalog_path)
        assert os.path.getsize(catalog_path) > 0

    def test_empty_directory_errors(self, tmp_path, capsys):
        empty = str(tmp_path / "empty")
        os.makedirs(empty)
        assert main(["wrangle", empty]) == 2
        assert "error" in capsys.readouterr().err

    def test_reports_validation(self, archive_dir, tmp_path, capsys):
        path = str(tmp_path / "cat2.db")
        main(["wrangle", archive_dir, "--catalog", path])
        out = capsys.readouterr().out
        assert "validation:" in out
        assert "published" in out


class TestSearch:
    def test_query_returns_page(self, catalog_path, capsys):
        code = main([
            "search", catalog_path,
            "near 46.1, -123.9 with salinity", "--limit", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Data Near Here" in out
        assert "score" in out or "1." in out

    def test_paper_query_text(self, catalog_path, capsys):
        code = main([
            "search", catalog_path,
            "near 45.5, -124.4 in mid-2010 with temperature "
            "between 5 and 10",
        ])
        assert code == 0

    def test_bad_query_errors(self, catalog_path, capsys):
        assert main(["search", catalog_path, "gibberish text"]) == 2
        assert "error" in capsys.readouterr().err

    def test_empty_catalog_errors(self, tmp_path, capsys):
        empty = str(tmp_path / "empty.db")
        assert main(["search", empty, "with salinity"]) == 2


class TestSummary:
    def test_shows_dataset(self, catalog_path, capsys):
        from repro.catalog import SqliteCatalog

        with SqliteCatalog(catalog_path) as catalog:
            dataset_id = catalog.dataset_ids()[0]
        assert main(["summary", catalog_path, dataset_id]) == 0
        out = capsys.readouterr().out
        assert "Dataset summary:" in out

    def test_unknown_dataset_errors(self, catalog_path, capsys):
        assert main(["summary", catalog_path, "ghost.csv"]) == 2


class TestValidate:
    def test_messy_archive_fails_validation(self, archive_dir, capsys):
        code = main(["validate", archive_dir])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "failures" in out or "passed" in out


class TestMenu:
    def test_prints_hierarchy(self, catalog_path, capsys):
        assert main(["menu", catalog_path]) == 0
        out = capsys.readouterr().out
        assert "- " in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestExport:
    def test_export_to_file(self, catalog_path, tmp_path, capsys):
        out = str(tmp_path / "catalog.json")
        assert main(["export", catalog_path, out]) == 0
        import json

        with open(out) as fh:
            payload = json.load(fh)
        assert payload["format"] == "repro-metadata-catalog"
        assert payload["datasets"]

    def test_export_stdout(self, catalog_path, capsys):
        assert main(["export", catalog_path, "-"]) == 0
        assert "repro-metadata-catalog" in capsys.readouterr().out

    def test_export_roundtrip_via_load(self, catalog_path, tmp_path):
        from repro.catalog import MemoryCatalog, SqliteCatalog, load_catalog

        out = str(tmp_path / "catalog.json")
        main(["export", catalog_path, out])
        restored = MemoryCatalog()
        with open(out) as fh:
            count = load_catalog(fh.read(), restored)
        with SqliteCatalog(catalog_path) as original:
            assert count == len(original)


class TestFacets:
    def test_facets_output(self, catalog_path, capsys):
        assert main(["facets", catalog_path]) == 0
        out = capsys.readouterr().out
        assert "platforms:" in out
        assert "variable menu:" in out


class TestWrangleConfig:
    def test_save_and_reload_config(self, archive_dir, tmp_path, capsys):
        config = str(tmp_path / "process.json")
        cat1 = str(tmp_path / "c1.db")
        cat2 = str(tmp_path / "c2.db")
        assert main(["wrangle", archive_dir, "--catalog", cat1,
                     "--save-config", config]) == 0
        assert os.path.exists(config)
        assert main(["wrangle", archive_dir, "--catalog", cat2,
                     "--config", config]) == 0
        out = capsys.readouterr().out
        assert "loaded process config" in out
        from repro.catalog import SqliteCatalog

        with SqliteCatalog(cat1) as a, SqliteCatalog(cat2) as b:
            assert a.variable_name_counts() == b.variable_name_counts()

    def test_bad_config_path_errors(self, archive_dir, tmp_path, capsys):
        assert main([
            "wrangle", archive_dir,
            "--catalog", str(tmp_path / "c.db"),
            "--config", str(tmp_path / "missing.json"),
        ]) == 2
        assert "cannot load config" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        {"discovered_rules": [{"op": "core/mass-edit",
                               "columnName": "c", "edits": 7}]},
        {"decisions": [{"name": "temp", "action": "shrug"}]},
        {"scan_targets": [{}]},
    ])
    def test_bad_config_content_errors(
        self, archive_dir, tmp_path, capsys, content
    ):
        config = tmp_path / "process.json"
        config.write_text(json.dumps(
            {"format": "repro-process-config", "version": 1, **content}
        ))
        assert main([
            "wrangle", archive_dir,
            "--catalog", str(tmp_path / "c.db"),
            "--config", str(config),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load config: ")
        assert err.count("\n") == 1


class TestWrangleWorkers:
    def test_workers_flag_matches_serial(self, archive_dir, tmp_path,
                                          capsys):
        from repro.catalog import SqliteCatalog

        serial = str(tmp_path / "serial.db")
        parallel = str(tmp_path / "parallel.db")
        assert main(["wrangle", archive_dir, "--catalog", serial,
                     "--workers", "1"]) == 0
        assert main(["wrangle", archive_dir, "--catalog", parallel,
                     "--workers", "2"]) == 0
        from repro.catalog.io import feature_to_dict

        with SqliteCatalog(serial) as a, SqliteCatalog(parallel) as b:
            assert (
                [feature_to_dict(f) for f in a.features()]
                == [feature_to_dict(f) for f in b.features()]
            )

    def test_bad_workers_errors(self, archive_dir, tmp_path, capsys):
        assert main([
            "wrangle", archive_dir,
            "--catalog", str(tmp_path / "c.db"),
            "--workers", "0",
        ]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_timings_flag(self, archive_dir, tmp_path, capsys):
        assert main(["wrangle", archive_dir,
                     "--catalog", str(tmp_path / "t.db"),
                     "--timings"]) == 0
        out = capsys.readouterr().out
        assert "scan-archive" in out
        assert "publish" in out
        # The span-tree view: component spans show their sub-stages.
        assert "Span timings" in out
        assert "scan.extract" in out

    def test_default_output_is_compact(self, archive_dir, tmp_path,
                                       capsys):
        assert main(["wrangle", archive_dir,
                     "--catalog", str(tmp_path / "t.db")]) == 0
        out = capsys.readouterr().out
        assert "wrangle run #" in out
        assert "--timings for the span-tree breakdown" in out
        assert "Span timings" not in out


class TestTelemetrySurfaces:
    def test_wrangle_trace_out_is_valid_jsonl(self, archive_dir, tmp_path,
                                              capsys):
        from repro.obs import read_trace, validate_trace_file

        trace = str(tmp_path / "wrangle.jsonl")
        assert main(["wrangle", archive_dir,
                     "--catalog", str(tmp_path / "t.db"),
                     "--trace-out", trace]) == 0
        out = capsys.readouterr().out
        assert "events written to" in out
        assert validate_trace_file(trace) == []
        snapshot = read_trace(trace)
        assert "wrangle" in snapshot["span_stats"]
        assert snapshot["counters"]["scan.seen"] > 0

    def test_wrangle_stats_report(self, archive_dir, tmp_path, capsys):
        assert main(["wrangle", archive_dir,
                     "--catalog", str(tmp_path / "t.db"),
                     "--stats"]) == 0
        out = capsys.readouterr().out
        assert "Counters" in out
        assert "scan.seen" in out
        assert "Latency histograms" in out

    def test_search_trace_and_stats(self, catalog_path, tmp_path, capsys):
        from repro.obs import read_trace, validate_trace_file

        trace = str(tmp_path / "search.jsonl")
        assert main(["search", catalog_path, "with salinity",
                     "--repeat", "3", "--stats",
                     "--trace-out", trace]) == 0
        out = capsys.readouterr().out
        assert "search.queries" in out
        assert validate_trace_file(trace) == []
        snapshot = read_trace(trace)
        assert snapshot["counters"]["search.queries"] == 3
        assert snapshot["counters"]["search.cache_hits"] == 2


class TestSearchValidation:
    def test_limit_zero_rejected(self, catalog_path, capsys):
        assert main(["search", catalog_path, "with salinity",
                     "--limit", "0"]) == 2
        err = capsys.readouterr().err
        assert "--limit must be >= 1" in err

    def test_limit_negative_rejected(self, catalog_path, capsys):
        assert main(["search", catalog_path, "with salinity",
                     "--limit", "-3"]) == 2
        assert "--limit must be >= 1" in capsys.readouterr().err

    def test_nonfinite_radius_rejected(self, catalog_path, capsys):
        assert main(["search", catalog_path,
                     "near 45.0, -124.0 within inf km"]) == 2
        err = capsys.readouterr().err
        assert "radius must be positive and finite" in err

    def test_nonfinite_latitude_rejected(self, catalog_path, capsys):
        assert main(["search", catalog_path,
                     "near nan, -124.0 within 50 km"]) == 2
        err = capsys.readouterr().err
        assert "latitude and longitude must be finite" in err


class TestServeBench:
    def test_happy_path_reports(self, catalog_path, capsys):
        assert main(["serve-bench", catalog_path,
                     "--clients", "2", "--requests", "5",
                     "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "Serve load report" in out
        assert "throughput" in out
        assert "rejected" in out
        assert "p99" in out

    def test_explicit_queries(self, catalog_path, capsys):
        assert main(["serve-bench", catalog_path,
                     "--query", "with salinity",
                     "--query", "within 100 km of 45.0, -124.0",
                     "--clients", "2", "--requests", "4"]) == 0
        out = capsys.readouterr().out
        assert "completed" in out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--clients", "0"],
            ["--requests", "0"],
            ["--limit", "0"],
            ["--concurrency", "0"],
            ["--queue-depth", "-1"],
            ["--think-ms", "-1"],
            ["--zipf", "-0.5"],
        ],
    )
    def test_bad_flags_rejected(self, catalog_path, capsys, flags):
        assert main(["serve-bench", catalog_path, *flags]) == 2
        assert capsys.readouterr().err.strip()

    def test_bad_query_rejected(self, catalog_path, capsys):
        assert main(["serve-bench", catalog_path,
                     "--query", "near 45.0, -124.0 within inf km"]) == 2
        assert "radius" in capsys.readouterr().err

    def test_missing_catalog_rejected(self, tmp_path, capsys):
        assert main(["serve-bench", str(tmp_path / "nope.db")]) == 2
        assert capsys.readouterr().err.strip()


class TestServe:
    def test_boot_and_drain_with_observability_outputs(
        self, catalog_path, tmp_path, capsys
    ):
        """`repro serve --max-seconds 0`: boot, drain, dump, validate.

        The HTTP routes themselves are exercised in test_serve_http /
        test_serve_trace; here the CLI wiring is pinned — banner, SLO
        report on shutdown, flight-recorder dump, access-log file that
        the standard validator accepts.
        """
        access = str(tmp_path / "access.jsonl")
        flight = str(tmp_path / "flight.json")
        assert main(["serve", catalog_path, "--port", "0",
                     "--max-seconds", "0",
                     "--access-log", access,
                     "--flight-out", flight]) == 0
        out = capsys.readouterr().out
        assert "serving" in out
        assert "/metrics" in out and "/debug/slow" in out
        assert "shutdown: drained=True" in out
        assert "SLO report" in out
        assert f"-> {flight}" in out
        assert f"-> {access}" in out

        import json

        from repro.obs import validate_trace_lines

        payload = json.load(open(flight))
        assert payload["captured"] == 0  # no requests were served
        with open(access) as fh:
            lines = fh.read().splitlines()
        assert validate_trace_lines(lines) == []
        assert json.loads(lines[0])["stream"] == "access-log"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--port", "-1"],
            ["--drain-seconds", "-1"],
            ["--slo-p95-ms", "0"],
            ["--slo-error-rate", "1.5"],
            ["--slo-error-rate", "-0.1"],
            ["--slo-availability", "0"],
            ["--slo-availability", "1.5"],
            ["--concurrency", "0"],
        ],
    )
    def test_bad_flags_rejected(self, catalog_path, capsys, flags):
        assert main(["serve", catalog_path, *flags]) == 2
        assert capsys.readouterr().err.strip()

    def test_missing_catalog_rejected(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "nope.db")]) == 2
        assert capsys.readouterr().err.strip()
