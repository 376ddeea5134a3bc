"""Fuzz of the /search boundary: ``q`` and ``limit`` as any client sends them.

Whatever the query text and the limit, ``GET /search`` answers 200 with
a page, or 400 with a typed JSON error (``bad-request`` for the limit,
``bad-query`` for the text) — never a 500 or a dropped connection.
"""

from __future__ import annotations

import http.client
import json
from urllib.parse import quote, urlencode

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import MemoryCatalog
from repro.catalog.records import DatasetFeature, VariableEntry
from repro.geo import BoundingBox, TimeInterval
from repro.serve import SearchHTTPServer, SearchService


def make_feature(i: int) -> DatasetFeature:
    lat, lon = 45.0 + i * 0.1, -124.0 + i * 0.1
    return DatasetFeature(
        dataset_id=f"stations/s{i}.csv",
        title=f"Station {i}",
        platform="station",
        file_format="csv",
        bbox=BoundingBox(lat, lon, lat + 0.05, lon + 0.05),
        interval=TimeInterval(1262304000.0 + i * 86400.0, 1293839999.0),
        row_count=100,
        source_directory="stations",
        variables=[
            VariableEntry.from_written(
                name, "u", 100, 0.0, 30.0, 12.0, 3.0
            )
            for name in ("water_temperature", "salinity")[: 1 + i % 2]
        ],
    )


@pytest.fixture(scope="module")
def server():
    store = MemoryCatalog()
    store.upsert_many(make_feature(i) for i in range(8))
    http_server = SearchHTTPServer(SearchService(store), port=0).start()
    yield http_server
    http_server.close(timeout=5.0)


#: Words of the query grammar, so many texts get past the first token.
WORDS = [
    "near", "within", "km", "mi", "in", "during", "from", "to", "with",
    "between", "and", "early", "mid", "late", "2010", "mid-2010",
    "45.5,", "-124.4", "45.5", ",", "-0", "1e309", "nan", "inf", "-inf",
    "999", "-91", "181", "water_temperature", "salinity", "°C", "ä",
    "0x10", "1_000", "", "  ", "\t", "\x00", "%", "&", "=", "+",
]
#: Numbers as a client may spell them, out-of-range and non-finite too.
numbers = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["-0", "1e309", "nan", "inf", "-inf", ".5", "5."]),
)
years = st.integers(-10, 10**5).map(str)
#: Well-formed clauses around fuzzed values, so many texts parse.
clauses = st.one_of(
    st.builds("near {}, {}".format, numbers, numbers),
    st.builds("near {}, {} within {} km".format, numbers, numbers, numbers),
    st.builds(
        "with {} between {} and {}".format,
        st.sampled_from(["water_temperature", "salinity", "x"]),
        numbers,
        numbers,
    ),
    st.builds(
        "in {}-{}".format,
        st.sampled_from(["early", "mid", "late"]),
        years,
    ),
    st.builds("during {}".format, years),
    st.builds("from {} to {}".format, years, years),
)
query_texts = st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(WORDS), max_size=12).map(" ".join),
    st.lists(clauses, min_size=1, max_size=3).map(" ".join),
)
limits = st.one_of(
    st.integers(-3, 50).map(str),
    st.sampled_from(
        ["0", "-1", "1e3", "1.5", "", " 7", "٣", "9" * 5000, "10" * 20]
    ),
    st.text(max_size=6),
)


def fetch(server, target: str):
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", target)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@settings(max_examples=150, deadline=None)
@given(
    text=query_texts,
    limit=st.one_of(st.none(), st.integers(1, 100).map(str), limits),
)
def test_search_answers_200_or_a_typed_400(server, text, limit):
    params = {"q": text} if limit is None else {"q": text, "limit": limit}
    status, body = fetch(server, "/search?" + urlencode(params))
    payload = json.loads(body)
    assert status in (200, 400), (status, payload)
    if status == 400:
        assert payload["code"] in ("bad-request", "bad-query"), payload
        assert isinstance(payload["error"], str) and payload["error"]
    else:
        assert len(payload["results"]) <= int(limit or 10)
        assert payload["total_matches"] >= len(payload["results"])


@settings(max_examples=60, deadline=None)
@given(raw=st.text(max_size=30))
def test_raw_query_strings_never_500(server, raw):
    # Unencoded bytes and stray escapes straight into the query string.
    status, body = fetch(server, "/search?" + quote(raw, safe="=&%+"))
    assert status in (200, 400), (status, body)
    json.loads(body)
