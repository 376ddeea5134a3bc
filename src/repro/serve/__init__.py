"""Concurrent query serving over immutable catalog snapshots."""

from .http import SearchHTTPServer, search_payload
from .loadgen import LoadReport, percentile, run_load, run_load_http
from .service import (
    SearchService,
    ServeConfig,
    ServeResponse,
    ServiceClosedError,
)

__all__ = [
    "LoadReport",
    "SearchHTTPServer",
    "SearchService",
    "ServeConfig",
    "ServeResponse",
    "ServiceClosedError",
    "percentile",
    "run_load",
    "run_load_http",
    "search_payload",
]
