"""Geographic points and great-circle distances.

The Data Near Here system ranks datasets by distance between the query
location and each dataset's spatial footprint.  This module supplies the
point primitive and the haversine great-circle distance used throughout
the scoring code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

EARTH_RADIUS_KM = 6371.0088
"""Mean Earth radius (IUGG), in kilometres."""

_MAX_LAT = 90.0
_MAX_LON = 180.0


class InvalidCoordinateError(ValueError):
    """Raised when a latitude/longitude pair is outside the legal range."""


def as_real(value: object) -> float:
    """``value`` in the form a SQLite REAL column stores and reads back.

    An int (or bool) converts to float, ``-0.0`` becomes ``0.0`` and any
    NaN becomes :data:`math.nan`, so two records holding the same
    numbers hold equal values, NaN included.

    Raises:
        TypeError: for a non-number, or an int too large for a float.
    """
    if not isinstance(value, (int, float)):
        raise TypeError(f"not a real number: {value!r}")
    try:
        value = float(value) + 0.0
    except OverflowError:
        raise TypeError(f"not a real number: {value!r}") from None
    return value if value == value else math.nan


def validate_latitude(lat: float) -> float:
    """Return ``lat`` if it lies in [-90, 90], else raise.

    Raises:
        InvalidCoordinateError: if ``lat`` is not a finite number in range.
    """
    if not math.isfinite(lat) or not -_MAX_LAT <= lat <= _MAX_LAT:
        raise InvalidCoordinateError(f"latitude {lat!r} outside [-90, 90]")
    return float(lat)


def validate_longitude(lon: float) -> float:
    """Return ``lon`` if it lies in [-180, 180], else raise.

    Raises:
        InvalidCoordinateError: if ``lon`` is not a finite number in range.
    """
    if not math.isfinite(lon) or not -_MAX_LON <= lon <= _MAX_LON:
        raise InvalidCoordinateError(f"longitude {lon!r} outside [-180, 180]")
    return float(lon)


def normalize_longitude(lon: float) -> float:
    """Wrap an arbitrary finite longitude into [-180, 180]."""
    if not math.isfinite(lon):
        raise InvalidCoordinateError(f"longitude {lon!r} is not finite")
    wrapped = math.fmod(lon + 180.0, 360.0)
    if wrapped < 0:
        wrapped += 360.0
    return wrapped - 180.0


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """An immutable (latitude, longitude) pair in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lat", validate_latitude(self.lat))
        object.__setattr__(self, "lon", validate_longitude(self.lon))

    def distance_km(self, other: "GeoPoint") -> float:
        """Great-circle distance to ``other`` in kilometres."""
        return haversine_km(self.lat, self.lon, other.lat, other.lon)

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(lat, lon)``."""
        return (self.lat, self.lon)

    def __str__(self) -> str:
        ns = "N" if self.lat >= 0 else "S"
        ew = "E" if self.lon >= 0 else "W"
        return f"{abs(self.lat):.4f}{ns} {abs(self.lon):.4f}{ew}"


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two lat/lon pairs, in kilometres.

    Uses the haversine formula, which is numerically stable for small
    distances (unlike the spherical law of cosines).
    """
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlambda = math.radians(lon2 - lon1)
    a = (
        math.sin(dphi / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlambda / 2.0) ** 2
    )
    # Clamp to [0, 1] against floating-point drift before asin.
    a = min(1.0, max(0.0, a))
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))
