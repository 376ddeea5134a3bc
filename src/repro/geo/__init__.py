"""Geospatial and temporal primitives for dataset footprints.

Every dataset feature in the metadata catalog carries a spatial bounding
box and a time interval; this package supplies those primitives and the
distance computations ranking is built on.
"""

from .bbox import (
    BoundingBox,
    EmptyBoundingBoxError,
    box_distance_km_to_box,
    box_distance_km_to_point,
)
from .point import (
    EARTH_RADIUS_KM,
    GeoPoint,
    InvalidCoordinateError,
    as_real,
    haversine_km,
    normalize_longitude,
    validate_latitude,
    validate_longitude,
)
from .timeinterval import (
    SECONDS_PER_DAY,
    EmptyIntervalSetError,
    TimeInterval,
    from_epoch,
    interval_gap_seconds,
    to_epoch,
)

__all__ = [
    "BoundingBox",
    "EARTH_RADIUS_KM",
    "EmptyBoundingBoxError",
    "EmptyIntervalSetError",
    "GeoPoint",
    "InvalidCoordinateError",
    "SECONDS_PER_DAY",
    "TimeInterval",
    "as_real",
    "box_distance_km_to_box",
    "box_distance_km_to_point",
    "from_epoch",
    "haversine_km",
    "interval_gap_seconds",
    "normalize_longitude",
    "to_epoch",
    "validate_latitude",
    "validate_longitude",
]
