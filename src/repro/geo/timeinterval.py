"""Closed time intervals and the interval algebra used by ranking.

Dataset features carry the observation time range; queries carry a target
interval ("mid-2010").  The ranking's time term is built from gap and
overlap computations defined here.  Timestamps are Unix epoch seconds
(floats), which keeps the catalog schema flat and arithmetic trivial;
helpers convert to and from ``datetime``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Iterator

from .point import as_real

SECONDS_PER_DAY = 86400.0


class EmptyIntervalSetError(ValueError):
    """Raised when an interval hull is requested over no intervals."""


def interval_gap_seconds(
    a_start: float, a_end: float, b_start: float, b_end: float
) -> float:
    """Scalar core of :meth:`TimeInterval.gap_seconds`.

    Operates on bare endpoint floats so the columnar scoring engine can
    run it over flat time columns without constructing an interval per
    row; the method delegates here, keeping both scoring paths
    bit-identical.
    """
    if a_start <= b_end and b_start <= a_end:
        return 0.0
    if a_end < b_start:
        return b_start - a_end
    return a_start - b_end


def to_epoch(dt: datetime) -> float:
    """Convert a datetime to epoch seconds (naive datetimes assumed UTC)."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def from_epoch(epoch: float) -> datetime:
    """Convert epoch seconds to an aware UTC datetime."""
    return datetime.fromtimestamp(epoch, tz=timezone.utc)


@dataclass(frozen=True, slots=True)
class TimeInterval:
    """A closed interval ``[start, end]`` in epoch seconds.

    Invariant: ``start <= end``.  An instant (``start == end``) is legal —
    a single-sample dataset has an instant footprint.
    """

    start: float
    end: float

    def __post_init__(self) -> None:
        # The stored form (``repro.catalog.records``): two floats, no
        # ``-0.0``.
        if not (
            float is type(self.start) is type(self.end)
            and self.start and self.end
        ):
            object.__setattr__(self, "start", as_real(self.start))
            object.__setattr__(self, "end", as_real(self.end))
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError("interval endpoints must be finite")
        if self.start > self.end:
            raise ValueError(f"start {self.start} > end {self.end}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_datetimes(cls, start: datetime, end: datetime) -> "TimeInterval":
        """Build from two datetimes (naive treated as UTC)."""
        return cls(to_epoch(start), to_epoch(end))

    @classmethod
    def instant(cls, epoch: float) -> "TimeInterval":
        """A zero-length interval at ``epoch``."""
        return cls(epoch, epoch)

    @classmethod
    def hull(cls, intervals: Iterable["TimeInterval"]) -> "TimeInterval":
        """The tightest interval covering all of ``intervals``.

        Raises:
            EmptyIntervalSetError: if ``intervals`` is empty.
        """
        iterator: Iterator[TimeInterval] = iter(intervals)
        try:
            first = next(iterator)
        except StopIteration:
            raise EmptyIntervalSetError("hull of no intervals")
        start, end = first.start, first.end
        for iv in iterator:
            start = min(start, iv.start)
            end = max(end, iv.end)
        return cls(start, end)

    # -- accessors ---------------------------------------------------------

    @property
    def duration_seconds(self) -> float:
        """Length of the interval in seconds (zero for an instant)."""
        return self.end - self.start

    @property
    def duration_days(self) -> float:
        """Length of the interval in days."""
        return self.duration_seconds / SECONDS_PER_DAY

    @property
    def midpoint(self) -> float:
        """Epoch seconds of the interval's midpoint."""
        return (self.start + self.end) / 2.0

    @property
    def start_datetime(self) -> datetime:
        """Start as an aware UTC datetime."""
        return from_epoch(self.start)

    @property
    def end_datetime(self) -> datetime:
        """End as an aware UTC datetime."""
        return from_epoch(self.end)

    # -- algebra -----------------------------------------------------------

    def contains(self, epoch: float) -> bool:
        """True if ``epoch`` lies within the closed interval."""
        return self.start <= epoch <= self.end

    def overlaps(self, other: "TimeInterval") -> bool:
        """True if the closed intervals share at least one instant."""
        return self.start <= other.end and other.start <= self.end

    def overlap_seconds(self, other: "TimeInterval") -> float:
        """Length of the intersection, in seconds (zero when disjoint)."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        return max(0.0, hi - lo)

    def gap_seconds(self, other: "TimeInterval") -> float:
        """Distance between the closed intervals (zero when they overlap).

        This is the quantity the ranking's time term is built on: how far
        the dataset's coverage is from the query window.
        """
        return interval_gap_seconds(
            self.start, self.end, other.start, other.end
        )

    def intersection(self, other: "TimeInterval") -> "TimeInterval | None":
        """The overlapping interval, or None when disjoint."""
        if not self.overlaps(other):
            return None
        return TimeInterval(
            max(self.start, other.start), min(self.end, other.end)
        )

    def union_hull(self, other: "TimeInterval") -> "TimeInterval":
        """The tightest interval covering both (gap included)."""
        return TimeInterval(
            min(self.start, other.start), max(self.end, other.end)
        )

    def expand(self, seconds: float) -> "TimeInterval":
        """An interval grown by ``seconds`` on each side."""
        if seconds < 0:
            raise ValueError("expand() takes a non-negative margin")
        return TimeInterval(self.start - seconds, self.end + seconds)

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(start, end)`` in epoch seconds."""
        return (self.start, self.end)

    def __str__(self) -> str:
        return (
            f"[{self.start_datetime:%Y-%m-%d %H:%M}"
            f" .. {self.end_datetime:%Y-%m-%d %H:%M}]"
        )
