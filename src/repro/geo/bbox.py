"""Geographic bounding boxes.

Each dataset's *feature* (its catalog summary) carries a spatial bounding
box; query ranking measures the distance from the query point or region to
that box.  Boxes here never cross the antimeridian — the synthetic archive
(Columbia River estuary / NE Pacific, like CMOP's) does not need it, and
the catalog stores min/max pairs directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .point import (
    EARTH_RADIUS_KM,
    GeoPoint,
    as_real,
    haversine_km,
    validate_latitude,
    validate_longitude,
)


class EmptyBoundingBoxError(ValueError):
    """Raised when a bounding box is built from no points."""


def box_distance_km_to_point(
    min_lat: float,
    min_lon: float,
    max_lat: float,
    max_lon: float,
    lat: float,
    lon: float,
) -> float:
    """Scalar core of :meth:`BoundingBox.distance_km_to_point`.

    Operates on bare floats so the columnar scoring engine can run it
    over flat coordinate columns without constructing a box or point per
    row; the method delegates here, which is what makes the two scoring
    paths bit-identical.
    """
    # The haversine half-angle term ``a`` (see :func:`haversine_km`) is
    # monotone in distance, so the minimum over candidate points can be
    # taken on ``a`` directly and converted once at the end.  That lets
    # the query point's trig be hoisted out of the candidate loop and
    # the per-edge longitude term be shared by its three candidate
    # latitudes — this kernel runs per row of the columnar scan, and the
    # seven full haversine evaluations it replaces dominated that loop.
    radians = math.radians
    sin = math.sin
    cos = math.cos
    near_lat = min(max(lat, min_lat), max_lat)
    near_lon = min(max(lon, min_lon), max_lon)
    phi1 = radians(lat)
    cos_phi1 = cos(phi1)
    best_a = (
        sin(radians(near_lat - lat) / 2.0) ** 2
        + cos_phi1 * cos(radians(near_lat))
        * sin(radians(near_lon - lon) / 2.0) ** 2
    )
    if best_a != 0.0:
        t_min = sin(radians(min_lat - lat) / 2.0) ** 2
        cc_min = cos_phi1 * cos(radians(min_lat))
        t_max = sin(radians(max_lat - lat) / 2.0) ** 2
        cc_max = cos_phi1 * cos(radians(max_lat))
        tan_phi1 = math.tan(phi1)
        # On a sphere the nearest point of a meridian edge is not the
        # clamped latitude when the longitude gap is large: minimizing
        # the spherical law of cosines over latitude gives
        # tan(lat*) = tan(q_lat) / cos(dlon).  Check both edges (which
        # also covers the shorter way around the antimeridian).
        for edge_lon in (min_lon, max_lon):
            cos_dlon = cos(radians(lon - edge_lon))
            if abs(cos_dlon) > 1e-12:
                optimal = math.degrees(math.atan(tan_phi1 / cos_dlon))
            else:
                optimal = 0.0
            clamped = min(max(optimal, min_lat), max_lat)
            sin_sq_dlambda = sin(radians(edge_lon - lon) / 2.0) ** 2
            # The stationary point may be the far side of the great
            # circle; the constrained minimum is then at an edge corner,
            # so evaluate those too.
            a = (
                sin(radians(clamped - lat) / 2.0) ** 2
                + cos_phi1 * cos(radians(clamped)) * sin_sq_dlambda
            )
            if a < best_a:
                best_a = a
            a = t_min + cc_min * sin_sq_dlambda
            if a < best_a:
                best_a = a
            a = t_max + cc_max * sin_sq_dlambda
            if a < best_a:
                best_a = a
    best_a = min(1.0, max(0.0, best_a))
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(best_a))


def box_distance_km_to_box(
    min_lat: float,
    min_lon: float,
    max_lat: float,
    max_lon: float,
    other_min_lat: float,
    other_min_lon: float,
    other_max_lat: float,
    other_max_lon: float,
) -> float:
    """Scalar core of :meth:`BoundingBox.distance_km_to_box`."""
    if not (
        other_min_lat > max_lat
        or other_max_lat < min_lat
        or other_min_lon > max_lon
        or other_max_lon < min_lon
    ):
        return 0.0
    # Clamp this box's nearest corner toward the other box, then clamp
    # that point back into the other box.
    lat = min(max(other_min_lat, min_lat), max_lat)
    lon = min(max(other_min_lon, min_lon), max_lon)
    near_lat = min(max(lat, other_min_lat), other_max_lat)
    near_lon = min(max(lon, other_min_lon), other_max_lon)
    return haversine_km(lat, lon, near_lat, near_lon)


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """An immutable lat/lon axis-aligned rectangle.

    Invariant: ``min_lat <= max_lat`` and ``min_lon <= max_lon``.
    A degenerate box (single point) is legal and common: a fixed station's
    footprint is a point.
    """

    min_lat: float
    min_lon: float
    max_lat: float
    max_lon: float

    def __post_init__(self) -> None:
        # The stored form (``repro.catalog.records``): four floats, no
        # ``-0.0``.  A box of nonzero floats already is.
        if not (
            float is type(self.min_lat) is type(self.min_lon)
            is type(self.max_lat) is type(self.max_lon)
            and self.min_lat and self.min_lon and self.max_lat
            and self.max_lon
        ):
            for name in self.__slots__:
                object.__setattr__(self, name, as_real(getattr(self, name)))
        validate_latitude(self.min_lat)
        validate_latitude(self.max_lat)
        validate_longitude(self.min_lon)
        validate_longitude(self.max_lon)
        if self.min_lat > self.max_lat:
            raise ValueError(
                f"min_lat {self.min_lat} > max_lat {self.max_lat}"
            )
        if self.min_lon > self.max_lon:
            raise ValueError(
                f"min_lon {self.min_lon} > max_lon {self.max_lon}"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_point(cls, point: GeoPoint) -> "BoundingBox":
        """A degenerate box covering a single point."""
        return cls(point.lat, point.lon, point.lat, point.lon)

    @classmethod
    def from_points(cls, points: Iterable[GeoPoint]) -> "BoundingBox":
        """The tightest box covering ``points``.

        Raises:
            EmptyBoundingBoxError: if ``points`` is empty.
        """
        iterator: Iterator[GeoPoint] = iter(points)
        try:
            first = next(iterator)
        except StopIteration:
            raise EmptyBoundingBoxError("cannot build a box from no points")
        min_lat = max_lat = first.lat
        min_lon = max_lon = first.lon
        for p in iterator:
            min_lat = min(min_lat, p.lat)
            max_lat = max(max_lat, p.lat)
            min_lon = min(min_lon, p.lon)
            max_lon = max(max_lon, p.lon)
        return cls(min_lat, min_lon, max_lat, max_lon)

    # -- accessors ---------------------------------------------------------

    @property
    def center(self) -> GeoPoint:
        """Box centroid (arithmetic midpoint; fine away from the poles)."""
        return GeoPoint(
            (self.min_lat + self.max_lat) / 2.0,
            (self.min_lon + self.max_lon) / 2.0,
        )

    @property
    def is_point(self) -> bool:
        """True if the box degenerates to a single point."""
        return self.min_lat == self.max_lat and self.min_lon == self.max_lon

    @property
    def width_degrees(self) -> float:
        """Longitudinal extent in degrees."""
        return self.max_lon - self.min_lon

    @property
    def height_degrees(self) -> float:
        """Latitudinal extent in degrees."""
        return self.max_lat - self.min_lat

    # -- geometry ----------------------------------------------------------

    def contains_point(self, point: GeoPoint) -> bool:
        """True if ``point`` lies inside or on the border of the box."""
        return (
            self.min_lat <= point.lat <= self.max_lat
            and self.min_lon <= point.lon <= self.max_lon
        )

    def intersects(self, other: "BoundingBox") -> bool:
        """True if the two boxes share any point (borders count)."""
        return not (
            other.min_lat > self.max_lat
            or other.max_lat < self.min_lat
            or other.min_lon > self.max_lon
            or other.max_lon < self.min_lon
        )

    def union(self, other: "BoundingBox") -> "BoundingBox":
        """The tightest box covering both boxes."""
        return BoundingBox(
            min(self.min_lat, other.min_lat),
            min(self.min_lon, other.min_lon),
            max(self.max_lat, other.max_lat),
            max(self.max_lon, other.max_lon),
        )

    def expand(self, degrees: float) -> "BoundingBox":
        """A box grown by ``degrees`` on every side, clamped to the globe."""
        if degrees < 0:
            raise ValueError("expand() takes a non-negative margin")
        return BoundingBox(
            max(-90.0, self.min_lat - degrees),
            max(-180.0, self.min_lon - degrees),
            min(90.0, self.max_lat + degrees),
            min(180.0, self.max_lon + degrees),
        )

    def closest_point_to(self, point: GeoPoint) -> GeoPoint:
        """The point of the box nearest to ``point`` (point itself if inside)."""
        lat = min(max(point.lat, self.min_lat), self.max_lat)
        lon = min(max(point.lon, self.min_lon), self.max_lon)
        return GeoPoint(lat, lon)

    def distance_km_to_point(self, point: GeoPoint) -> float:
        """Great-circle distance from ``point`` to the nearest box point.

        Zero when the point is inside the box.  This is the quantity the
        ranking function's location term is built on.  The nearest box
        point is found by lat/lon clamping; because the shorter way
        around the globe may pass the antimeridian, both box edges are
        also considered (which keeps the result within ~0.1% of the true
        spherical minimum even at planetary scales).
        """
        return box_distance_km_to_point(
            self.min_lat, self.min_lon, self.max_lat, self.max_lon,
            point.lat, point.lon,
        )

    def distance_km_to_box(self, other: "BoundingBox") -> float:
        """Great-circle distance between nearest points of two boxes.

        Zero when they intersect.
        """
        return box_distance_km_to_box(
            self.min_lat, self.min_lon, self.max_lat, self.max_lon,
            other.min_lat, other.min_lon, other.max_lat, other.max_lon,
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        """Return ``(min_lat, min_lon, max_lat, max_lon)``."""
        return (self.min_lat, self.min_lon, self.max_lat, self.max_lon)
