"""Candidate-selection indexes over catalog features.

These indexes select candidates cheaply and conservatively (they never
drop a dataset that could score above zero on the indexed term within
the given radius/expansion).  Ranked search no longer reads them: a
cache miss scores every dataset in one columnar array pass (DESIGN
note 5).
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from typing import Iterable

from ..geo import BoundingBox, GeoPoint, TimeInterval
from .records import DatasetFeature


def spatial_query_margins(
    lat: float, radius_km: float
) -> tuple[float, float]:
    """Degree margins (lat, lon) covering ``radius_km`` around ``lat``.

    Conservative: longitude degrees shrink with latitude, so the lon
    margin is bounded with the extreme latitude reachable within the
    radius.  Shared by the in-memory grid index and the SQLite pushdown
    prefilter so both prune with *identical* (superset-safe) windows.
    A margin of ``(>=180, ...)`` or ``(..., >=360)`` means the window
    covers the globe — callers should return "everything".
    """
    if radius_km < 0:
        raise ValueError("radius_km must be non-negative")
    lat_margin = radius_km / 111.0  # km per degree latitude
    extreme_lat = min(89.0, abs(lat) + lat_margin)
    km_per_lon_degree = 111.320 * math.cos(math.radians(extreme_lat))
    lon_margin = (
        radius_km / km_per_lon_degree if km_per_lon_degree > 1e-9
        else 360.0
    )
    return lat_margin, lon_margin


class SpatialGridIndex:
    """A fixed-resolution lat/lon grid over dataset bounding boxes.

    Each dataset is registered in every grid cell its box touches; a
    query enumerates the cells within ``radius_km`` of the query point.
    Conservative: possibly returns extra candidates, never misses one
    whose box lies within the radius.
    """

    def __init__(self, cell_degrees: float = 0.5) -> None:
        if cell_degrees <= 0:
            raise ValueError("cell_degrees must be positive")
        self.cell_degrees = cell_degrees
        self._cells: dict[tuple[int, int], set[str]] = defaultdict(set)
        self._boxes: dict[str, BoundingBox] = {}

    def _cell_of(self, lat: float, lon: float) -> tuple[int, int]:
        return (
            int(math.floor(lat / self.cell_degrees)),
            int(math.floor(lon / self.cell_degrees)),
        )

    def insert(self, dataset_id: str, bbox: BoundingBox) -> None:
        """Register (or re-register) a dataset's box."""
        if dataset_id in self._boxes:
            self.remove(dataset_id)
        self._boxes[dataset_id] = bbox
        lo = self._cell_of(bbox.min_lat, bbox.min_lon)
        hi = self._cell_of(bbox.max_lat, bbox.max_lon)
        for ci in range(lo[0], hi[0] + 1):
            for cj in range(lo[1], hi[1] + 1):
                self._cells[(ci, cj)].add(dataset_id)

    def remove(self, dataset_id: str) -> None:
        """Drop a dataset from the index (no-op when absent)."""
        bbox = self._boxes.pop(dataset_id, None)
        if bbox is None:
            return
        lo = self._cell_of(bbox.min_lat, bbox.min_lon)
        hi = self._cell_of(bbox.max_lat, bbox.max_lon)
        for ci in range(lo[0], hi[0] + 1):
            for cj in range(lo[1], hi[1] + 1):
                cell = self._cells.get((ci, cj))
                if cell is not None:
                    cell.discard(dataset_id)
                    if not cell:
                        del self._cells[(ci, cj)]

    def __len__(self) -> int:
        return len(self._boxes)

    def candidates_near(
        self, point: GeoPoint, radius_km: float
    ) -> set[str]:
        """Dataset ids whose box may lie within ``radius_km`` of ``point``.

        The radius is converted to a degree margin using the worst-case
        (smallest) km-per-degree of longitude over the cells in play.
        """
        lat_margin, lon_margin = spatial_query_margins(
            point.lat, radius_km
        )
        # A margin beyond the globe means "everything"; clamping keeps
        # the cell scan bounded even for huge decay horizons.
        if lat_margin >= 180.0 or lon_margin >= 360.0:
            return set(self._boxes)
        lo = self._cell_of(
            max(-90.0, point.lat - lat_margin),
            max(-180.0, point.lon - lon_margin),
        )
        hi = self._cell_of(
            min(90.0, point.lat + lat_margin),
            min(180.0, point.lon + lon_margin),
        )
        cell_count = (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1)
        if cell_count > len(self._cells):
            # Cheaper to test every occupied cell than to enumerate the
            # query rectangle.
            out: set[str] = set()
            for (ci, cj), members in self._cells.items():
                if lo[0] <= ci <= hi[0] and lo[1] <= cj <= hi[1]:
                    out.update(members)
            return out
        out = set()
        for ci in range(lo[0], hi[0] + 1):
            for cj in range(lo[1], hi[1] + 1):
                out.update(self._cells.get((ci, cj), ()))
        return out

    def all_ids(self) -> set[str]:
        """Every registered dataset id."""
        return set(self._boxes)

    def copy(self) -> "SpatialGridIndex":
        """A structurally independent copy (shared immutable values).

        O(cells + datasets) dict/set duplication — far below a rebuild,
        which re-derives every box's cell range.  Mutating either copy
        never affects the other; the ``BoundingBox`` values themselves
        are shared (never mutated by the index).
        """
        out = SpatialGridIndex(cell_degrees=self.cell_degrees)
        out._cells = defaultdict(
            set,
            {cell: set(members) for cell, members in self._cells.items()},
        )
        out._boxes = dict(self._boxes)
        return out


class IntervalIndex:
    """A sorted-endpoint index over dataset time intervals.

    Supports "all intervals overlapping [a, b] expanded by ``margin``"
    via two bisections over sorted start/end lists plus one set
    subtraction — O(log n + answer).

    The endpoint lists are built lazily (one O(n log n) sort on the
    first query after a bulk load) and then maintained *incrementally*:
    a later insert or remove costs two bisections per list instead of a
    full re-sort, so catalog edits update the index in O(changed).
    """

    def __init__(self) -> None:
        self._intervals: dict[str, TimeInterval] = {}
        self._dirty = True
        self._starts: list[tuple[float, str]] = []
        self._ends: list[tuple[float, str]] = []

    def insert(self, dataset_id: str, interval: TimeInterval) -> None:
        """Register (or re-register) a dataset's time interval."""
        old = self._intervals.get(dataset_id)
        self._intervals[dataset_id] = interval
        if self._dirty:
            return
        if old is not None:
            self._discard_endpoints(dataset_id, old)
        bisect.insort(self._starts, (interval.start, dataset_id))
        bisect.insort(self._ends, (interval.end, dataset_id))

    def remove(self, dataset_id: str) -> None:
        """Drop a dataset (no-op when absent)."""
        old = self._intervals.pop(dataset_id, None)
        if old is not None and not self._dirty:
            self._discard_endpoints(dataset_id, old)

    def _discard_endpoints(
        self, dataset_id: str, interval: TimeInterval
    ) -> None:
        start_key = (interval.start, dataset_id)
        i = bisect.bisect_left(self._starts, start_key)
        if i < len(self._starts) and self._starts[i] == start_key:
            self._starts.pop(i)
        end_key = (interval.end, dataset_id)
        j = bisect.bisect_left(self._ends, end_key)
        if j < len(self._ends) and self._ends[j] == end_key:
            self._ends.pop(j)

    def __len__(self) -> int:
        return len(self._intervals)

    def _rebuild(self) -> None:
        self._starts = sorted(
            (iv.start, did) for did, iv in self._intervals.items()
        )
        self._ends = sorted(
            (iv.end, did) for did, iv in self._intervals.items()
        )
        self._dirty = False

    def candidates_overlapping(
        self, interval: TimeInterval, margin_seconds: float = 0.0
    ) -> set[str]:
        """Ids whose interval overlaps ``interval`` grown by the margin."""
        if margin_seconds < 0:
            raise ValueError("margin_seconds must be non-negative")
        if self._dirty:
            self._rebuild()
        lo = interval.start - margin_seconds
        hi = interval.end + margin_seconds
        # Not overlapping  <=>  start > hi  OR  end < lo.
        i = bisect.bisect_right(self._starts, (hi, "￿"))
        starts_too_late = {did for __, did in self._starts[i:]}
        j = bisect.bisect_left(self._ends, (lo, ""))
        ends_too_early = {did for __, did in self._ends[:j]}
        return (
            set(self._intervals) - starts_too_late - ends_too_early
        )

    def all_ids(self) -> set[str]:
        """Every registered dataset id."""
        return set(self._intervals)

    def copy(self) -> "IntervalIndex":
        """A structurally independent copy, laziness state included."""
        out = IntervalIndex()
        out._intervals = dict(self._intervals)
        out._dirty = self._dirty
        out._starts = list(self._starts)
        out._ends = list(self._ends)
        return out


#: Above this fraction of the indexed size, :meth:`CatalogIndexes.apply`
#: prefers a full rebuild over item-by-item incremental updates.
REBUILD_CHURN_FRACTION = 0.5


class CatalogIndexes:
    """Both indexes, kept in lockstep, built from a catalog store.

    ``catalog_version`` remembers the :attr:`CatalogStore.version` these
    indexes reflect; search engines compare it against the live catalog
    to detect staleness without scanning (``None`` means unknown — the
    engine falls back to a size comparison).
    """

    def __init__(
        self,
        cell_degrees: float = 0.5,
        catalog_version: int | None = None,
    ) -> None:
        self.spatial = SpatialGridIndex(cell_degrees=cell_degrees)
        self.temporal = IntervalIndex()
        self.catalog_version = catalog_version

    @classmethod
    def build(
        cls, features: list[DatasetFeature] | None = None,
        cell_degrees: float = 0.5,
        catalog_version: int | None = None,
    ) -> "CatalogIndexes":
        """Construct and bulk-load from ``features``."""
        indexes = cls(
            cell_degrees=cell_degrees, catalog_version=catalog_version
        )
        for feature in features or []:
            indexes.insert(feature)
        return indexes

    def insert(self, feature: DatasetFeature) -> None:
        """Register a feature in both indexes."""
        self.spatial.insert(feature.dataset_id, feature.bbox)
        self.temporal.insert(feature.dataset_id, feature.interval)

    def remove(self, dataset_id: str) -> None:
        """Drop a dataset from both indexes."""
        self.spatial.remove(dataset_id)
        self.temporal.remove(dataset_id)

    def apply(
        self,
        added: Iterable[DatasetFeature] = (),
        removed: Iterable[str] = (),
        updated: Iterable[DatasetFeature] = (),
        *,
        catalog_version: int | None = None,
        rebuild_from: Iterable[DatasetFeature] | None = None,
    ) -> "CatalogIndexes":
        """Fold a catalog delta into both indexes in O(changed).

        ``added``/``updated`` carry the new feature states, ``removed``
        the withdrawn dataset ids.  When the churn exceeds
        ``REBUILD_CHURN_FRACTION`` of the indexed size and
        ``rebuild_from`` (an iterable of the *full* current catalog) is
        given, the indexes are rebuilt from scratch instead — beyond
        that point a bulk rebuild is cheaper than item-by-item updates.
        ``catalog_version`` stamps the store version this delta brings
        the indexes up to.
        """
        added = tuple(added)
        removed = tuple(removed)
        updated = tuple(updated)
        churn = len(added) + len(removed) + len(updated)
        if (
            rebuild_from is not None
            and churn > REBUILD_CHURN_FRACTION * max(len(self), 1)
        ):
            self.spatial = SpatialGridIndex(
                cell_degrees=self.spatial.cell_degrees
            )
            self.temporal = IntervalIndex()
            for feature in rebuild_from:
                self.insert(feature)
        else:
            for dataset_id in removed:
                self.remove(dataset_id)
            for feature in added:
                self.insert(feature)
            for feature in updated:
                self.insert(feature)
        if catalog_version is not None:
            self.catalog_version = catalog_version
        return self

    def copy(self) -> "CatalogIndexes":
        """A structurally independent copy of both indexes.

        The refresh path's migration primitive: in-flight requests may
        still be scanning the *old* engine's indexes, and
        :meth:`apply` mutates in place — so a refresh copies first,
        applies the delta to the copy, and hands the copy to the new
        engine.  O(index size) pointer work, no geometric re-derivation.
        """
        out = CatalogIndexes(
            cell_degrees=self.spatial.cell_degrees,
            catalog_version=self.catalog_version,
        )
        out.spatial = self.spatial.copy()
        out.temporal = self.temporal.copy()
        return out

    def __len__(self) -> int:
        return len(self.temporal)
