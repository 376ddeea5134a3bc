"""Catalog interchange: JSON export/import.

Published catalogs move between installations (a lab mirrors a site's
catalog, a curator diffs two wrangling runs); a stable, versioned JSON
encoding makes that possible without sharing SQLite files.  NaN-valued
statistics (all-dropout columns) are encoded as ``null`` so the output
is strict JSON.
"""

from __future__ import annotations

import json
import math
from typing import Any

from ..geo import BoundingBox, TimeInterval
from .records import DatasetFeature, VariableEntry
from .store import CatalogStore

FORMAT_VERSION = 1


class CatalogFormatError(ValueError):
    """Raised when JSON cannot be interpreted as a catalog."""


def _num(value: float) -> float | None:
    return None if math.isnan(value) else value


def _denum(value: Any) -> Any:
    return math.nan if value is None else value


def feature_to_dict(feature: DatasetFeature) -> dict[str, Any]:
    """One dataset feature as a JSON-ready dict."""
    return {
        "dataset_id": feature.dataset_id,
        "title": feature.title,
        "platform": feature.platform,
        "file_format": feature.file_format,
        "bbox": list(feature.bbox.as_tuple()),
        "interval": list(feature.interval.as_tuple()),
        "row_count": feature.row_count,
        "source_directory": feature.source_directory,
        "attributes": dict(feature.attributes),
        "content_hash": feature.content_hash,
        "variables": [
            {
                "written_name": v.written_name,
                "written_unit": v.written_unit,
                "name": v.name,
                "unit": v.unit,
                "count": v.count,
                "minimum": _num(v.minimum),
                "maximum": _num(v.maximum),
                "mean": _num(v.mean),
                "stddev": _num(v.stddev),
                "excluded": v.excluded,
                "ambiguous": v.ambiguous,
                "context": v.context,
                "resolution": v.resolution,
            }
            for v in feature.variables
        ],
    }


def feature_from_dict(data: dict[str, Any]) -> DatasetFeature:
    """Inverse of :func:`feature_to_dict`.

    The values go to the record constructors as parsed, and they reject
    any that is not in stored form (a non-integral count, a non-``str``
    text field).

    Raises:
        CatalogFormatError: on any malformed record.
    """
    try:
        variables = [
            VariableEntry(
                written_name=v["written_name"],
                written_unit=v["written_unit"],
                name=v["name"],
                unit=v["unit"],
                count=v["count"],
                minimum=_denum(v["minimum"]),
                maximum=_denum(v["maximum"]),
                mean=_denum(v["mean"]),
                stddev=_denum(v["stddev"]),
                excluded=v.get("excluded", False),
                ambiguous=v.get("ambiguous", False),
                context=v.get("context", ""),
                resolution=v.get("resolution", ""),
            )
            for v in data["variables"]
        ]
        return DatasetFeature(
            dataset_id=data["dataset_id"],
            title=data["title"],
            platform=data["platform"],
            file_format=data["file_format"],
            bbox=BoundingBox(*data["bbox"]),
            interval=TimeInterval(*data["interval"]),
            row_count=data["row_count"],
            source_directory=data["source_directory"],
            attributes=data.get("attributes", {}),
            variables=variables,
            content_hash=data.get("content_hash", ""),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # AttributeError: a record, variable or attributes value that
        # is not a JSON object.
        raise CatalogFormatError(f"bad feature record: {exc}")


def dump_catalog(catalog: CatalogStore, indent: int | None = None) -> str:
    """Serialize a whole catalog to JSON text."""
    payload = {
        "format": "repro-metadata-catalog",
        "version": FORMAT_VERSION,
        "datasets": [feature_to_dict(feature) for feature in catalog],
    }
    return json.dumps(payload, indent=indent, allow_nan=False)


def load_catalog(text: str, into: CatalogStore) -> int:
    """Parse JSON text and upsert every feature into ``into``.

    Returns the number of datasets loaded.

    Raises:
        CatalogFormatError: on wrong format markers or versions.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogFormatError(f"not JSON: {exc}")
    if not isinstance(payload, dict) or payload.get("format") != (
        "repro-metadata-catalog"
    ):
        raise CatalogFormatError("missing catalog format marker")
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise CatalogFormatError(
            f"unsupported catalog version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    records = payload.get("datasets", [])
    if not isinstance(records, list):
        raise CatalogFormatError("datasets is not a list")
    count = 0
    for record in records:
        into.upsert(feature_from_dict(record))
        count += 1
    return count
