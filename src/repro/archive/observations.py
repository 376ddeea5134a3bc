"""Observation data model: columns of numeric samples with metadata.

A dataset in a scientific archive is, at heart, a table: a time column,
position columns and one column per observed environmental variable.
``ObservationColumn`` holds one variable's samples plus the metadata the
archive *happens* to record for it (name as written, unit string as
written) — which is exactly the raw material the metadata mess lives in.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import repeat
from typing import Sequence


class InconsistentLengthError(ValueError):
    """Raised when a table's columns disagree on row count."""


@dataclass(frozen=True, slots=True)
class ColumnStats:
    """Summary statistics of a numeric column (the catalog's per-variable
    'feature' content)."""

    count: int
    minimum: float
    maximum: float
    mean: float
    stddev: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "ColumnStats":
        """Compute stats over the finite values of ``values``.

        Non-finite samples (sensor dropouts encoded as NaN) are ignored,
        matching what a scanner summarizing raw files must do.

        Raises:
            ValueError: if no finite values remain.
        """
        finite = list(filter(math.isfinite, values))
        if not finite:
            raise ValueError("no finite values to summarize")
        n = len(finite)
        total = sum(finite)
        mean = total / n
        # ``pow(v - mean, 2)`` is ``(v - mean) ** 2`` term for term, and
        # ``sum`` adds them in the same order, so the result is
        # bit-identical to the per-value generator without its frames.
        deviations = map(operator.sub, finite, repeat(mean))
        variance = sum(map(pow, deviations, repeat(2))) / n
        return cls(
            count=n,
            minimum=min(finite),
            maximum=max(finite),
            mean=mean,
            stddev=math.sqrt(variance),
        )

    def overlaps_range(self, lo: float, hi: float) -> bool:
        """True if [min, max] intersects the closed range [lo, hi]."""
        return self.minimum <= hi and lo <= self.maximum


@dataclass(slots=True)
class ObservationColumn:
    """One observed variable: name/unit *as written in the file* plus data."""

    name: str
    unit: str
    values: list[float] = field(default_factory=list)

    def stats(self) -> ColumnStats:
        """Summary statistics of this column's finite values."""
        return ColumnStats.from_values(self.values)


@dataclass(slots=True)
class ObservationTable:
    """A rectangular observation table.

    ``times`` is epoch seconds; ``lats``/``lons`` give per-row position
    (constant for a fixed station, varying for a cruise or glider).

    Raises:
        InconsistentLengthError: on construction if lengths disagree.
    """

    times: list[float]
    lats: list[float]
    lons: list[float]
    columns: list[ObservationColumn]

    def __post_init__(self) -> None:
        n = len(self.times)
        if len(self.lats) != n or len(self.lons) != n:
            raise InconsistentLengthError(
                "times/lats/lons lengths disagree: "
                f"{n}/{len(self.lats)}/{len(self.lons)}"
            )
        for col in self.columns:
            if len(col.values) != n:
                raise InconsistentLengthError(
                    f"column {col.name!r} has {len(col.values)} rows, "
                    f"table has {n}"
                )

    @property
    def row_count(self) -> int:
        """Number of rows (samples)."""
        return len(self.times)

    def column_named(self, name: str) -> ObservationColumn:
        """Return the column with exactly the as-written ``name``.

        Raises:
            KeyError: if no such column exists.
        """
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(name)

    def column_names(self) -> list[str]:
        """As-written names of all observation columns, in file order."""
        return [col.name for col in self.columns]
