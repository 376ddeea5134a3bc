"""On-disk formats for the synthetic archive: CSV-ish and CDL-ish.

Real scientific archives mix formats; the poster's scan component is
configured with "directories, file types, naming conventions".  We provide
two text formats with symmetric writers and parsers:

* **CSV** — a ``# key: value`` comment header, then a header row of
  ``name [unit]`` columns, then numeric rows.
* **CDL** — a minimal NetCDF-CDL-like rendering: ``variables:`` block with
  ``units`` attributes, ``// global attributes``, and a ``data:`` block.

Both round-trip exactly through :func:`write_dataset` / :func:`parse_file`.
"""

from __future__ import annotations

import math
import re
from itertools import repeat

from .dataset import Dataset, FileFormat, Platform
from .observations import InconsistentLengthError, ObservationColumn, ObservationTable


class FormatError(ValueError):
    """Raised when a file cannot be parsed in its claimed format.

    ``path`` names the file and ``line`` the 1-based line at fault, when
    the parser knows them.  Both are instance attributes, so they
    survive the pickling that brings a scan worker's error back whole.
    """

    def __init__(
        self, message: str, path: str | None = None, line: int | None = None
    ) -> None:
        super().__init__(message)
        self.path = path
        self.line = line


_CSV_COL_RE = re.compile(r"^(?P<name>.*?)\s*(?:\[(?P<unit>[^\]]*)\])?$")
_CDL_VAR_RE = re.compile(r"^\s*double\s+(?P<name>\S+)\s*\(row\)\s*;\s*$")
_CDL_ATTR_RE = re.compile(
    r"^\s*(?P<var>\S+):(?P<attr>\w+)\s*=\s*\"(?P<value>.*)\"\s*;\s*$"
)
_CDL_GLOBAL_RE = re.compile(
    r"^\s*:(?P<attr>[\w ]+)\s*=\s*\"(?P<value>.*)\"\s*;\s*$"
)


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    return repr(float(value))


def _parse_value(token: str, path: str, line: int) -> float:
    token = token.strip()
    if token.lower() in {"nan", ""}:
        return float("nan")
    try:
        return float(token)
    except ValueError:
        raise FormatError(
            f"{path}: line {line}: not a number: {token!r}",
            path=path,
            line=line,
        ) from None


def _parse_cells(cells: list[str], path: str, line: int) -> list[float]:
    """Convert one line's cells: in bulk, or cell by cell on a miss.

    ``float`` gives the same value as ``_parse_value`` for every cell,
    NaN sign included, and rejects the same malformed cells, plus blank
    ones, which ``_parse_value`` reads as NaN.  So the per-cell loop
    only runs for a line holding a blank or malformed cell, and raises
    the first malformed one's error.
    """
    try:
        return list(map(float, cells))
    except ValueError:
        return [_parse_value(cell, path, line) for cell in cells]


def _platform(attributes: dict[str, str], path: str) -> Platform:
    value = attributes.get("platform", Platform.STATION.value)
    try:
        return Platform(value)
    except ValueError:
        raise FormatError(
            f"{path}: unknown platform {value!r}", path=path
        ) from None


# --------------------------------------------------------------------------
# CSV
# --------------------------------------------------------------------------

def write_csv(dataset: Dataset) -> str:
    """Serialize a dataset in the archive's CSV dialect."""
    lines = [f"# {key}: {value}" for key, value in dataset.attributes.items()]
    header = ["time [s]", "latitude [degrees]", "longitude [degrees]"]
    header.extend(
        f"{col.name} [{col.unit}]" if col.unit else col.name
        for col in dataset.table.columns
    )
    lines.append(",".join(header))
    table = dataset.table
    for i in range(table.row_count):
        row = [
            _format_value(table.times[i]),
            _format_value(table.lats[i]),
            _format_value(table.lons[i]),
        ]
        row.extend(_format_value(col.values[i]) for col in table.columns)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def parse_csv(text: str, path: str = "<memory>") -> Dataset:
    """Parse the archive's CSV dialect back into a :class:`Dataset`.

    Raises:
        FormatError: on malformed headers or non-numeric cells.
    """
    attributes: dict[str, str] = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        body = lines[i][1:].strip()
        if ":" in body:
            key, __, value = body.partition(":")
            attributes[key.strip()] = value.strip()
        i += 1
    if i >= len(lines):
        raise FormatError(f"{path}: no column header row", path=path)
    names: list[str] = []
    units: list[str] = []
    for cell in lines[i].split(","):
        match = _CSV_COL_RE.match(cell.strip())
        if match is None:  # pragma: no cover - regex matches everything
            raise FormatError(
                f"{path}: bad column header {cell!r}", path=path
            )
        names.append(match.group("name"))
        units.append(match.group("unit") or "")
    if len(names) < 3:
        raise FormatError(
            f"{path}: expected time/lat/lon columns", path=path
        )
    expected_coords = ("time", "lat", "lon")
    for name, prefix in zip(names, expected_coords):
        if not name.lower().startswith(prefix):
            # Guards against a lost header row: a row of numbers must
            # not be mistaken for column names.
            raise FormatError(
                f"{path}: coordinate header {name!r} does not look like "
                f"{prefix!r} — missing header row?",
                path=path,
            )
    i += 1
    data = _csv_columns_bulk(lines[i:], len(names))
    if data is None:
        data = _csv_columns(lines, i, len(names), path)
    columns = [
        ObservationColumn(name=names[j], unit=units[j], values=data[j])
        for j in range(3, len(names))
    ]
    try:
        table = ObservationTable(
            times=data[0], lats=data[1], lons=data[2], columns=columns
        )
    except InconsistentLengthError as exc:  # pragma: no cover - built equal
        raise FormatError(f"{path}: {exc}", path=path)
    return Dataset(
        path=path,
        platform=_platform(attributes, path),
        file_format=FileFormat.CSV,
        attributes=attributes,
        table=table,
    )


def _csv_columns_bulk(
    lines: list[str], width: int
) -> list[list[float]] | None:
    """The data rows' columns, converted in one pass over all cells.

    Returns None when a row has the wrong width or a cell is not a plain
    float; :func:`_csv_columns` then raises that row's error (or maps a
    blank cell to NaN), exactly as it would have alone.
    """
    rows = list(filter(str.strip, lines))
    if not rows:
        return [[] for __ in range(width)]
    if set(map(str.count, rows, repeat(","))) != {width - 1}:
        return None
    try:
        values = list(map(float, ",".join(rows).split(",")))
    except ValueError:
        return None
    return [values[j::width] for j in range(width)]


def _csv_columns(
    lines: list[str], start: int, width: int, path: str
) -> list[list[float]]:
    """Row-by-row conversion of ``lines[start:]``: the error path."""
    data: list[list[float]] = [[] for __ in range(width)]
    for number, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise FormatError(
                f"{path}: row has {len(cells)} cells, header has {width}",
                path=path,
                line=number,
            )
        for column, value in zip(data, _parse_cells(cells, path, number)):
            column.append(value)
    return data


# --------------------------------------------------------------------------
# CDL (NetCDF-header-like)
# --------------------------------------------------------------------------

def write_cdl(dataset: Dataset) -> str:
    """Serialize a dataset in the archive's CDL-like dialect."""
    table = dataset.table
    lines = [f"netcdf {dataset.name} {{"]
    lines.append(f"dimensions:\n\trow = {table.row_count} ;")
    lines.append("variables:")
    all_columns = _cdl_columns(table)
    for name, unit, __ in all_columns:
        lines.append(f"\tdouble {name}(row) ;")
        lines.append(f'\t\t{name}:units = "{unit}" ;')
    lines.append("")
    lines.append("// global attributes:")
    for key, value in dataset.attributes.items():
        lines.append(f'\t\t:{key} = "{value}" ;')
    lines.append("data:")
    for name, __, values in all_columns:
        rendered = ", ".join(_format_value(v) for v in values)
        lines.append(f" {name} = {rendered} ;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cdl_columns(
    table: ObservationTable,
) -> list[tuple[str, str, list[float]]]:
    out: list[tuple[str, str, list[float]]] = [
        ("time", "s", table.times),
        ("latitude", "degrees", table.lats),
        ("longitude", "degrees", table.lons),
    ]
    out.extend((col.name, col.unit, col.values) for col in table.columns)
    return out


def parse_cdl(text: str, path: str = "<memory>") -> Dataset:
    """Parse the CDL-like dialect back into a :class:`Dataset`.

    Raises:
        FormatError: when required blocks or coordinates are missing.
    """
    var_order: list[str] = []
    units: dict[str, str] = {}
    attributes: dict[str, str] = {}
    data: dict[str, list[float]] = {}
    in_data = False
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line or line in {"}", "variables:"}:
            continue
        if line.startswith("data:"):
            in_data = True
            continue
        if in_data:
            stripped = line.strip()
            if "=" not in stripped:
                continue
            name, __, rest = stripped.partition("=")
            rest = rest.strip().rstrip(";").strip()
            values = (
                _parse_cells(rest.split(","), path, number) if rest else []
            )
            data[name.strip()] = values
            continue
        var_match = _CDL_VAR_RE.match(line)
        if var_match:
            var_order.append(var_match.group("name"))
            continue
        attr_match = _CDL_ATTR_RE.match(line)
        if attr_match and attr_match.group("attr") == "units":
            units[attr_match.group("var")] = attr_match.group("value")
            continue
        global_match = _CDL_GLOBAL_RE.match(line)
        if global_match:
            attributes[global_match.group("attr").strip()] = (
                global_match.group("value")
            )
    for coord in ("time", "latitude", "longitude"):
        if coord not in data:
            raise FormatError(
                f"{path}: missing coordinate {coord!r}", path=path
            )
    columns = [
        ObservationColumn(
            name=name, unit=units.get(name, ""), values=data.get(name, [])
        )
        for name in var_order
        if name not in {"time", "latitude", "longitude"}
    ]
    try:
        table = ObservationTable(
            times=data["time"],
            lats=data["latitude"],
            lons=data["longitude"],
            columns=columns,
        )
    except InconsistentLengthError as exc:
        raise FormatError(f"{path}: {exc}", path=path)
    return Dataset(
        path=path,
        platform=_platform(attributes, path),
        file_format=FileFormat.CDL,
        attributes=attributes,
        table=table,
    )


# --------------------------------------------------------------------------
# dispatch
# --------------------------------------------------------------------------

def write_dataset(dataset: Dataset) -> str:
    """Serialize ``dataset`` in its declared :class:`FileFormat`."""
    if dataset.file_format is FileFormat.CSV:
        return write_csv(dataset)
    return write_cdl(dataset)


def parse_file(text: str, path: str) -> Dataset:
    """Parse a file by extension (``.csv`` / ``.cdl``).

    Raises:
        FormatError: for unknown extensions or malformed content.
    """
    if path.endswith(".csv"):
        return parse_csv(text, path=path)
    if path.endswith(".cdl"):
        return parse_cdl(text, path=path)
    raise FormatError(f"unknown file extension: {path!r}", path=path)
