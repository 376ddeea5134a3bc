"""Feature extraction: scan a dataset once, summarize into the catalog.

"Individual datasets scanned once, summarized into a 'feature' per
dataset" — the feature is the dataset's spatial bounding box, temporal
interval and per-variable summary statistics.  Raw data never enters the
catalog.
"""

from __future__ import annotations

import math

from ..archive.dataset import Dataset
from ..catalog.records import DatasetFeature, VariableEntry
from ..geo import BoundingBox, GeoPoint, TimeInterval


class EmptyDatasetError(ValueError):
    """Raised when a dataset has no rows to summarize."""


def _bounding_box(lats: list[float], lons: list[float]) -> BoundingBox:
    """The box of the coordinate columns, from their ``min``/``max``.

    When every coordinate is finite and in range the box is exactly what
    the per-point walk gives (both keep the first of equal extremes).
    Otherwise the walk runs, so the first bad point raises the same
    error it always did.  A NaN can hide from ``min``/``max`` but not
    from ``sum``, and in-range values cannot overflow it.
    """
    min_lat, max_lat = min(lats), max(lats)
    min_lon, max_lon = min(lons), max(lons)
    if (
        -90.0 <= min_lat
        and max_lat <= 90.0
        and -180.0 <= min_lon
        and max_lon <= 180.0
        and math.isfinite(sum(lats) + sum(lons))
    ):
        return BoundingBox(
            float(min_lat), float(min_lon), float(max_lat), float(max_lon)
        )
    return BoundingBox.from_points(
        GeoPoint(lat, lon) for lat, lon in zip(lats, lons)
    )


def extract_feature(dataset: Dataset, content_hash: str = "") -> DatasetFeature:
    """Summarize ``dataset`` into a :class:`DatasetFeature`.

    Columns whose samples are all non-finite are summarized with zero
    count and NaN statistics rather than dropped — the curator should see
    that the variable exists even if the sensor never reported.

    Raises:
        EmptyDatasetError: when the dataset has zero rows.
    """
    table = dataset.table
    if table.row_count == 0:
        raise EmptyDatasetError(f"{dataset.path}: no rows")
    bbox = _bounding_box(table.lats, table.lons)
    interval = TimeInterval(min(table.times), max(table.times))
    variables = []
    for column in table.columns:
        try:
            stats = column.stats()
            entry = VariableEntry.from_written(
                written_name=column.name,
                written_unit=column.unit,
                count=stats.count,
                minimum=stats.minimum,
                maximum=stats.maximum,
                mean=stats.mean,
                stddev=stats.stddev,
            )
        except ValueError:
            entry = VariableEntry.from_written(
                written_name=column.name,
                written_unit=column.unit,
                count=0,
                minimum=math.nan,
                maximum=math.nan,
                mean=math.nan,
                stddev=math.nan,
            )
        variables.append(entry)
    directory = (
        dataset.path.rsplit("/", 1)[0] if "/" in dataset.path else ""
    )
    return DatasetFeature(
        dataset_id=dataset.path,
        title=dataset.attributes.get("title", dataset.name),
        platform=dataset.platform.value,
        file_format=dataset.file_format.value,
        bbox=bbox,
        interval=interval,
        row_count=table.row_count,
        source_directory=directory,
        attributes=dict(dataset.attributes),
        variables=variables,
        content_hash=content_hash,
    )
