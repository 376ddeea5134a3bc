"""Unit tests for repro.archive.formats (CSV / CDL round-trips)."""

import math
import pickle

import pytest

from repro.archive import (
    Dataset,
    FileFormat,
    FormatError,
    ObservationColumn,
    ObservationTable,
    Platform,
    parse_cdl,
    parse_csv,
    parse_file,
    write_cdl,
    write_csv,
    write_dataset,
)


def make_dataset(fmt: FileFormat, with_nan: bool = False) -> Dataset:
    values = [10.5, float("nan") if with_nan else 11.0, 12.25]
    return Dataset(
        path=f"test/sample.{fmt.value}",
        platform=Platform.STATION,
        file_format=fmt,
        attributes={"title": "Test dataset", "platform": "station",
                    "station": "saturn01"},
        table=ObservationTable(
            times=[0.0, 900.0, 1800.0],
            lats=[46.1, 46.1, 46.1],
            lons=[-123.9, -123.9, -123.9],
            columns=[
                ObservationColumn("salinity", "PSU", values),
                ObservationColumn("depth", "m", [1.0, 2.0, 3.0]),
            ],
        ),
    )


class TestCsvRoundTrip:
    def test_roundtrip_preserves_everything(self):
        original = make_dataset(FileFormat.CSV)
        parsed = parse_csv(write_csv(original), path=original.path)
        assert parsed.attributes == original.attributes
        assert parsed.variable_names() == original.variable_names()
        assert parsed.table.times == original.table.times
        assert parsed.table.columns[0].values == (
            original.table.columns[0].values
        )
        assert parsed.table.columns[0].unit == "PSU"
        assert parsed.platform is Platform.STATION

    def test_nan_roundtrip(self):
        original = make_dataset(FileFormat.CSV, with_nan=True)
        parsed = parse_csv(write_csv(original))
        assert math.isnan(parsed.table.columns[0].values[1])

    def test_header_comment_block(self):
        text = write_csv(make_dataset(FileFormat.CSV))
        assert text.startswith("# title: Test dataset")

    def test_missing_header_raises(self):
        with pytest.raises(FormatError):
            parse_csv("# title: x\n")

    def test_ragged_row_raises(self):
        text = (
            "time [s],latitude [degrees],longitude [degrees],x [m]\n"
            "0,46,-123\n"
        )
        with pytest.raises(FormatError):
            parse_csv(text)

    def test_non_numeric_cell_raises(self):
        text = (
            "time [s],latitude [degrees],longitude [degrees],x [m]\n"
            "0,46,-123,abc\n"
        )
        with pytest.raises(FormatError):
            parse_csv(text)

    def test_unitless_column(self):
        original = make_dataset(FileFormat.CSV)
        original.table.columns[0].unit = ""
        parsed = parse_csv(write_csv(original))
        assert parsed.table.columns[0].unit == ""


class TestCdlRoundTrip:
    def test_roundtrip_preserves_everything(self):
        original = make_dataset(FileFormat.CDL)
        parsed = parse_cdl(write_cdl(original), path=original.path)
        assert parsed.attributes == original.attributes
        assert parsed.variable_names() == original.variable_names()
        assert parsed.table.lats == original.table.lats
        assert parsed.table.columns[1].values == [1.0, 2.0, 3.0]
        assert parsed.table.columns[0].unit == "PSU"

    def test_missing_coordinate_raises(self):
        text = "netcdf x {\ndata:\n time = 1 ;\n}"
        with pytest.raises(FormatError):
            parse_cdl(text)

    def test_header_contains_dimensions(self):
        text = write_cdl(make_dataset(FileFormat.CDL))
        assert "row = 3 ;" in text
        assert 'salinity:units = "PSU"' in text


class TestDispatch:
    def test_write_dataset_dispatches(self):
        assert write_dataset(make_dataset(FileFormat.CSV)).startswith("#")
        assert write_dataset(make_dataset(FileFormat.CDL)).startswith(
            "netcdf"
        )

    def test_parse_file_by_extension(self):
        csv_ds = make_dataset(FileFormat.CSV)
        parsed = parse_file(write_csv(csv_ds), "a/b.csv")
        assert parsed.path == "a/b.csv"
        cdl_ds = make_dataset(FileFormat.CDL)
        parsed = parse_file(write_cdl(cdl_ds), "a/b.cdl")
        assert parsed.file_format is FileFormat.CDL

    def test_unknown_extension_raises(self):
        with pytest.raises(FormatError):
            parse_file("whatever", "a/b.xyz")


CSV_HEADER = "time [s],latitude [degrees],longitude [degrees],x [m]\n"

CDL_DATA = (
    "netcdf x {{\nvariables:\n\tdouble x(row) ;\n"
    "{attrs}data:\n time = 0, 1 ;\n latitude = 46, 46 ;\n"
    " longitude = -123, -123 ;\n x = {x} ;\n}}\n"
)


class TestErrorsNameTheFile:
    def test_csv_bad_cell_names_path_and_line(self):
        text = "# platform: station\n" + CSV_HEADER + "0,46,-123,1\n\n1,46,-123,abc\n"
        with pytest.raises(FormatError) as excinfo:
            parse_file(text, "stations/s0.csv")
        assert excinfo.value.path == "stations/s0.csv"
        assert excinfo.value.line == 5
        assert str(excinfo.value) == (
            "stations/s0.csv: line 5: not a number: 'abc'"
        )

    def test_cdl_bad_cell_names_path_and_line(self):
        text = CDL_DATA.format(attrs="", x="1, ?")
        with pytest.raises(FormatError) as excinfo:
            parse_file(text, "casts/c0.cdl")
        assert excinfo.value.path == "casts/c0.cdl"
        assert excinfo.value.line == 8
        assert str(excinfo.value) == "casts/c0.cdl: line 8: not a number: '?'"

    def test_ragged_row_names_path_and_line(self):
        with pytest.raises(FormatError) as excinfo:
            parse_csv(CSV_HEADER + "0,46,-123,1\n0,46\n", path="a.csv")
        assert excinfo.value.path == "a.csv"
        assert excinfo.value.line == 3
        assert str(excinfo.value) == "a.csv: row has 2 cells, header has 4"

    def test_blank_cells_are_nan_not_errors(self):
        parsed = parse_csv(CSV_HEADER + "0,46,-123, \n1,46,-123,\n")
        assert all(math.isnan(v) for v in parsed.table.columns[0].values)
        parsed = parse_cdl(CDL_DATA.format(attrs="", x="1, "))
        assert math.isnan(parsed.table.columns[0].values[1])

    @pytest.mark.parametrize("fmt", ["csv", "cdl"])
    def test_unknown_platform_is_a_format_error(self, fmt):
        if fmt == "csv":
            text = "# platform: buoy\n" + CSV_HEADER + "0,46,-123,1\n"
        else:
            text = CDL_DATA.format(attrs='\t\t:platform = "buoy" ;\n', x="1, 2")
        with pytest.raises(FormatError) as excinfo:
            parse_file(text, f"moorings/m0.{fmt}")
        assert excinfo.value.path == f"moorings/m0.{fmt}"
        assert str(excinfo.value) == (
            f"moorings/m0.{fmt}: unknown platform 'buoy'"
        )

    def test_structural_errors_carry_the_path(self):
        with pytest.raises(FormatError) as excinfo:
            parse_cdl("netcdf x {\ndata:\n time = 1 ;\n}", path="c.cdl")
        assert excinfo.value.path == "c.cdl"
        with pytest.raises(FormatError) as excinfo:
            parse_file("whatever", "a/b.xyz")
        assert excinfo.value.path == "a/b.xyz"

    def test_path_and_line_survive_pickling(self):
        error = FormatError("a.csv: line 3: not a number: 'x'", "a.csv", 3)
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is FormatError
        assert (str(copy), copy.path, copy.line) == (str(error), "a.csv", 3)


class TestGeneratedArchiveRoundTrip:
    def test_every_generated_dataset_roundtrips(self, clean_archive):
        for original in clean_archive.datasets:
            text = write_dataset(original)
            parsed = parse_file(text, original.path)
            assert parsed.variable_names() == original.variable_names()
            assert parsed.table.row_count == original.table.row_count
            assert parsed.platform == original.platform
