"""Oracles for the cold-scan kernels.

Each fast kernel of the scan -> extract -> resolve path is checked
against a frozen copy of the per-value code it replaced: the per-cell
parse loop, the per-point bounding box, the generator-expression column
statistics, the unbounded Damerau-Levenshtein distance and the linear
unit-spelling scan.  Results must match bit for bit (NaN signs and
signed zeros included), and inputs the old code rejected must raise the
same exception type with the same message.

The ingest benchmark's exactness gate cannot catch a divergence here:
its reference path calls the same ``parse_file``/``extract_feature``.
"""

from __future__ import annotations

import math
import struct
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archive import (
    Dataset,
    FileFormat,
    FormatError,
    ObservationColumn,
    ObservationTable,
    Platform,
    parse_cdl,
    parse_csv,
)
from repro.archive import vocabulary
from repro.archive.observations import ColumnStats
from repro.archive.vocabulary import UNIT_SYNONYMS, VOCABULARY, preferred_unit
from repro.core import extract_feature
from repro.geo import BoundingBox, GeoPoint
from repro.refine.clustering import nearest_neighbour_clusters
from repro.semantics import MisspellingResolver, SpellingMatch
from repro.text import (
    damerau_levenshtein,
    damerau_levenshtein_within,
    fingerprint,
    ngram_fingerprint,
    normalize_name,
)

# --------------------------------------------------------------------------
# frozen reference kernels
# --------------------------------------------------------------------------


def ref_value(token: str, path: str, line: int) -> float:
    """The per-cell conversion (its message now names path and line)."""
    token = token.strip()
    if token.lower() in {"nan", ""}:
        return float("nan")
    try:
        return float(token)
    except ValueError:
        raise FormatError(f"{path}: line {line}: not a number: {token!r}")


def ref_csv_columns(text: str, path: str) -> list[list[float]]:
    """The per-row, per-cell CSV data loop below a one-line header."""
    lines = text.splitlines()
    width = len(lines[0].split(","))
    data: list[list[float]] = [[] for __ in range(width)]
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise FormatError(
                f"{path}: row has {len(cells)} cells, header has {width}"
            )
        for j, cell in enumerate(cells):
            data[j].append(ref_value(cell, path, number))
    return data


def ref_bbox(lats: list[float], lons: list[float]) -> BoundingBox:
    return BoundingBox.from_points(
        GeoPoint(lat, lon) for lat, lon in zip(lats, lons)
    )


def ref_stats(values: list[float]) -> ColumnStats:
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        raise ValueError("no finite values to summarize")
    n = len(finite)
    mean = sum(finite) / n
    variance = sum((v - mean) ** 2 for v in finite) / n
    return ColumnStats(
        count=n,
        minimum=min(finite),
        maximum=max(finite),
        mean=mean,
        stddev=math.sqrt(variance),
    )


def ref_preferred_unit(unit: str) -> str:
    lowered = unit.strip().lower()
    for preferred, spellings in UNIT_SYNONYMS.items():
        for spelling in spellings:
            if lowered == spelling.lower():
                return preferred
    return unit


def ref_resolve(resolver: MisspellingResolver, written: str):
    """The resolver's three steps, with the unbounded distance."""
    normalized = normalize_name(written)
    if not normalized:
        return None
    hits = resolver._by_fingerprint.get(fingerprint(written), set())
    if len(hits) == 1:
        return SpellingMatch(written, next(iter(hits)), "fingerprint", 0)
    hits = resolver._by_ngram.get(ngram_fingerprint(written), set())
    if len(hits) == 1:
        return SpellingMatch(written, next(iter(hits)), "ngram", 0)
    limit = min(
        resolver.max_distance,
        max(1, int(len(normalized) * resolver.max_distance_fraction)),
    )
    best_distance = limit + 1
    best_names: list[str] = []
    for name in resolver.canonical_names:
        if abs(len(name) - len(normalized)) > limit:
            continue
        d = damerau_levenshtein(normalized, name)
        if d < best_distance:
            best_distance = d
            best_names = [name]
        elif d == best_distance:
            best_names.append(name)
    if best_distance <= limit and len(best_names) == 1:
        return SpellingMatch(written, best_names[0], "edit", best_distance)
    return None


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def bits(values) -> list[bytes]:
    """Exact float identity: NaN signs and signed zeros included."""
    return [struct.pack("<d", float(v)) for v in values]


def outcome(fn, *args):
    """``("ok", value)`` or ``("error", type, message)``."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - comparing what escapes
        return ("error", type(exc), str(exc))


CELLS = st.one_of(
    st.sampled_from(
        [
            "", " ", " nan ", "NaN", "-nan", "+NAN", "inf", "-Infinity",
            "1_0", "1__0", "_1", "1e400", "-0", "0.0", " 2 ", "3.",
            ".5e-3", "0x10", "###", "1,5", "−" "1", "١", "nan0",
        ]
    ),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.text(alphabet="0123456789.-+eE_ nNaAiIfF", max_size=6),
)

#: A data line: a row of 1-6 cells (4 is the header's width), a row
#: of plain floats (the bulk path's case), or blank.
LINES = st.one_of(
    st.lists(CELLS, min_size=1, max_size=6).map(",".join),
    st.lists(st.floats().map(repr), min_size=4, max_size=4).map(",".join),
    st.sampled_from(["", "   ", "\t"]),
)

SEPARATORS = st.sampled_from(["\n", "\r\n", "\r"])

HEADER = "time [s],latitude [degrees],longitude [degrees],x [m]"


# --------------------------------------------------------------------------
# CSV / CDL bulk conversion
# --------------------------------------------------------------------------


def csv_columns(text: str, path: str) -> list[list[float]]:
    table = parse_csv(text, path=path).table
    return [table.times, table.lats, table.lons] + [
        column.values for column in table.columns
    ]


@given(
    rows=st.lists(LINES, max_size=12),
    sep=SEPARATORS,
    trailing=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_csv_bulk_parse_matches_per_cell_loop(rows, sep, trailing):
    text = sep.join([HEADER, *rows]) + (sep if trailing else "")
    want = outcome(ref_csv_columns, text, "d/f.csv")
    got = outcome(csv_columns, text, "d/f.csv")
    assert got[0] == want[0]
    if want[0] == "ok":
        assert [bits(c) for c in got[1]] == [bits(c) for c in want[1]]
    else:
        assert got[1:] == want[1:]


@pytest.mark.parametrize("width", [1, 2, 3, 5])
def test_csv_rows_of_one_wrong_width_fall_back(width):
    rows = ["0,46,-123,1", ",".join(["7"] * width), "2,46,-123,3"]
    text = "\n".join([HEADER, *rows])
    with pytest.raises(FormatError) as excinfo:
        parse_csv(text, path="a.csv")
    assert str(excinfo.value) == f"a.csv: row has {width} cells, header has 4"
    assert excinfo.value.line == 3


def test_csv_widths_that_cancel_out_are_still_caught():
    # 3 + 5 cells total 8 = 2 rows of 4: the width check is per row.
    text = "\n".join([HEADER, "0,46,-123", "1,46,-123,4,5"])
    with pytest.raises(FormatError, match="row has 3 cells"):
        parse_csv(text, path="a.csv")


def ref_cdl_data(text: str, path: str) -> dict[str, list[float]]:
    data: dict[str, list[float]] = {}
    in_data = False
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if line.startswith("data:"):
            in_data = True
            continue
        if in_data and "=" in line:
            name, __, rest = line.strip().partition("=")
            rest = rest.strip().rstrip(";").strip()
            data[name.strip()] = (
                [ref_value(tok, path, number) for tok in rest.split(",")]
                if rest
                else []
            )
    return data


CDL_LINE = st.lists(CELLS, max_size=6).map(", ".join)


@given(
    coords=st.lists(CDL_LINE, min_size=3, max_size=3),
    x=CDL_LINE,
    sep=SEPARATORS,
)
@settings(max_examples=300, deadline=None)
def test_cdl_bulk_parse_matches_per_cell_loop(coords, x, sep):
    names = ["time", "latitude", "longitude", "x"]
    lines = ["netcdf x {", "variables:", "\tdouble x(row) ;", "data:"]
    lines += [f" {name} = {rest} ;" for name, rest in zip(names, [*coords, x])]
    lines.append("}")
    text = sep.join(lines) + sep
    want = outcome(ref_cdl_data, text, "c.cdl")
    got = outcome(parse_cdl, text, "c.cdl")
    if want[0] == "error":
        assert got[1:] == want[1:]
        return
    data = want[1]
    if len({len(values) for values in data.values()}) > 1:
        assert got[0] == "error" and got[1] is FormatError
        return
    table = got[1].table
    columns = [table.times, table.lats, table.lons, table.columns[0].values]
    assert [bits(c) for c in columns] == [bits(data[n]) for n in names]


# --------------------------------------------------------------------------
# bounding box and column statistics
# --------------------------------------------------------------------------

#: Mostly in-range coordinates, so one bad value (a NaN that ``min`` and
#: ``max`` would skip over, an infinity, an out-of-range number) often
#: sits among good ones.
BAD_COORDS = st.sampled_from(
    [math.nan, -math.nan, math.inf, -math.inf, 95.0, -200.0, 1e300]
)
LATS = st.one_of(
    st.floats(-90.0, 90.0),
    st.sampled_from([0.0, -0.0, 90.0, -90.0]),
    BAD_COORDS,
    st.floats(allow_nan=True, allow_infinity=True),
)
LONS = st.one_of(
    st.floats(-180.0, 180.0),
    st.sampled_from([0.0, -0.0, 180.0, -180.0]),
    BAD_COORDS,
    st.floats(allow_nan=True, allow_infinity=True),
)


def dataset_at(lats: list[float], lons: list[float]) -> Dataset:
    n = len(lats)
    return Dataset(
        path="d/f.csv",
        platform=Platform.STATION,
        file_format=FileFormat.CSV,
        attributes={},
        table=ObservationTable(
            times=[float(i) for i in range(n)],
            lats=lats,
            lons=lons,
            columns=[ObservationColumn("x", "m", [1.0] * n)],
        ),
    )


@given(
    points=st.lists(st.tuples(LATS, LONS), min_size=1, max_size=20)
)
@settings(max_examples=400, deadline=None)
def test_bbox_from_min_max_matches_per_point_walk(points):
    lats = [lat for lat, __ in points]
    lons = [lon for __, lon in points]
    want = outcome(ref_bbox, lats, lons)
    got = outcome(lambda: extract_feature(dataset_at(lats, lons)).bbox)
    assert got[0] == want[0]
    if want[0] == "ok":
        assert bits(got[1].as_tuple()) == bits(want[1].as_tuple())
    else:
        assert got[1:] == want[1:]


@pytest.mark.parametrize(
    "lats, lons, message",
    [
        ([46.0, math.nan, 47.0], [-124.0] * 3, "latitude nan"),
        ([46.0] * 3, [-124.0, math.nan, -123.0], "longitude nan"),
        ([46.0, math.nan, 95.0], [-124.0, -124.0, -190.0], "latitude nan"),
        ([46.0, 47.0], [-124.0, math.inf], "longitude inf"),
    ],
)
def test_bbox_reports_the_first_bad_point(lats, lons, message):
    with pytest.raises(ValueError) as excinfo:
        extract_feature(dataset_at(lats, lons))
    assert str(excinfo.value).startswith(message + " outside")


def test_bbox_of_integer_coordinates_is_float():
    box = extract_feature(dataset_at([46, 47], [-124, -123])).bbox
    assert all(type(v) is float for v in box.as_tuple())


STAT_VALUES = st.lists(
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(-1e6, 1e6),
        st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324]),
        st.integers(-1000, 1000),
    ),
    max_size=40,
)


@given(values=STAT_VALUES)
@settings(max_examples=500, deadline=None)
def test_column_stats_bit_identical_to_generator_form(values):
    want = outcome(ref_stats, values)
    got = outcome(ColumnStats.from_values, values)
    assert got[0] == want[0]
    if want[0] == "ok":
        fields = ("minimum", "maximum", "mean", "stddev")
        assert got[1].count == want[1].count
        assert bits(getattr(got[1], f) for f in fields) == bits(
            getattr(want[1], f) for f in fields
        )
    else:
        assert got[1:] == want[1:]


# --------------------------------------------------------------------------
# bounded Damerau-Levenshtein
# --------------------------------------------------------------------------

WORDS = st.text(alphabet="abcd_", max_size=9)


@given(a=WORDS, b=WORDS, limit=st.integers(0, 3))
@settings(max_examples=1500, deadline=None)
def test_bounded_distance_matches_unbounded(a, b, limit):
    d = damerau_levenshtein(a, b)
    assert damerau_levenshtein_within(a, b, limit) == min(d, limit + 1)


@given(a=WORDS, b=WORDS)
@settings(max_examples=300, deadline=None)
def test_bounded_distance_with_a_loose_limit_is_exact(a, b):
    limit = max(len(a), len(b))
    assert damerau_levenshtein_within(a, b, limit) == damerau_levenshtein(
        a, b
    )


def test_bounded_distance_transposition_costs_one():
    assert damerau_levenshtein_within("air_temperatrue", "air_temperature", 1) == 1
    assert damerau_levenshtein_within("ab", "ba", 0) == 1
    assert damerau_levenshtein_within("abc", "", 2) == 3


def test_bounded_distance_rejects_a_negative_limit():
    with pytest.raises(ValueError):
        damerau_levenshtein_within("a", "b", -1)


CANONICALS = sorted(VOCABULARY)


@st.composite
def misspellings(draw) -> str:
    """A vocabulary name with up to three random edits."""
    name = list(draw(st.sampled_from(CANONICALS)))
    for __ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, max(0, len(name) - 1)))
        kind = draw(st.sampled_from(["swap", "drop", "add", "case"]))
        if kind == "swap" and i + 1 < len(name):
            name[i], name[i + 1] = name[i + 1], name[i]
        elif kind == "drop" and name:
            del name[i]
        elif kind == "add":
            name.insert(i, draw(st.sampled_from("aeiou_xs")))
        elif name:
            name[i] = name[i].upper()
    return "".join(name)


@given(names=st.lists(misspellings() | st.text(max_size=8), max_size=25))
@settings(max_examples=150, deadline=None)
def test_memoised_resolver_matches_fresh_and_unbounded(names):
    memoised = MisspellingResolver(CANONICALS)
    for name in names + names:  # the second pass answers from the memo
        want = ref_resolve(MisspellingResolver(CANONICALS), name)
        assert MisspellingResolver(CANONICALS).resolve(name) == want
        assert memoised.resolve(name) == want


@given(
    counts=st.dictionaries(WORDS, st.integers(1, 5), max_size=14),
    radius=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 100.0, math.inf]),
)
@settings(max_examples=200, deadline=None)
def test_nearest_neighbour_clusters_match_unbounded_distance(counts, radius):
    got = nearest_neighbour_clusters(counts, radius=radius, block_chars=0)
    unbounded = mock.patch(
        "repro.refine.clustering.damerau_levenshtein_within",
        lambda a, b, limit: damerau_levenshtein(a, b),
    )
    with unbounded:
        want = nearest_neighbour_clusters(counts, radius=radius, block_chars=0)
    assert got == want


# --------------------------------------------------------------------------
# unit spellings
# --------------------------------------------------------------------------

ALL_SPELLINGS = [s for family in UNIT_SYNONYMS.values() for s in family]


@given(
    unit=st.one_of(
        st.sampled_from(ALL_SPELLINGS),
        st.sampled_from(ALL_SPELLINGS).map(lambda s: f"  {s.upper()} "),
        st.sampled_from(ALL_SPELLINGS).map(str.swapcase),
        st.text(max_size=8),
    )
)
@settings(max_examples=400, deadline=None)
def test_preferred_unit_matches_linear_scan(unit):
    assert preferred_unit(unit) == ref_preferred_unit(unit)


def test_spelling_index_keeps_the_first_family(monkeypatch):
    families = {"a": ("x", "Y"), "b": ("y", "z")}
    monkeypatch.setattr(vocabulary, "UNIT_SYNONYMS", families)
    assert vocabulary._spelling_index() == {"x": "a", "y": "a", "z": "b"}

