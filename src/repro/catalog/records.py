"""Catalog records: the dataset *feature* and its per-variable entries.

The IR-architecture figure: "Individual datasets scanned once, summarized
into a 'feature' per dataset; features stored in catalog; similarity
search is performed over catalog's contents."  A feature is the dataset's
spatial bounding box, time interval and per-variable summary statistics —
never the raw data.

Both records are immutable: a feature is written once and read by every
search, so stores, snapshots and search pages share one object per
dataset version instead of copying it.  A writer that changes a feature
builds a replacement and upserts it.

Both are also built in *stored form*: the constructors (with those of
:class:`~repro.geo.BoundingBox` and :class:`~repro.geo.TimeInterval`)
hold every value exactly as a SQLite catalog stores and reads it back,
so a record equals a read of itself, field for field and type for
type, and the SQLite mirror can hold the input records themselves.

* text fields and attribute keys and values are ``str``;
* counts are ints in SQLite's 64-bit range: a bool or an integral
  float converts;
* statistics and coordinates are floats: an int converts, ``-0.0``
  becomes ``0.0`` and any NaN (an all-dropout column's statistics)
  becomes :data:`math.nan`, so records holding the same numbers compare
  equal, NaN included (tuple comparison checks identity first);
* flags are bools, ``variables`` is a tuple of entries and
  ``attributes`` a read-only view of a dict in sorted key order.

Any other value (a non-integral count, a non-``str`` text field, a
non-number statistic) raises :class:`TypeError`.  Values already in
stored form pass one type-and-value check and are kept as they are;
only a feature's attributes are always copied, into sorted order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from ..geo import BoundingBox, TimeInterval, as_real

#: SQLite's INTEGER range.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _integer(value: object) -> int:
    """``value`` as an INTEGER column stores it: an int in range."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, int) and _INT64_MIN <= value <= _INT64_MAX:
        return int(value)
    raise TypeError(f"not a 64-bit integer: {value!r}")


_ENTRY_TEXT = (
    "written_name", "written_unit", "name", "unit", "context", "resolution"
)
_FEATURE_TEXT = (
    "dataset_id", "title", "platform", "file_format", "source_directory",
    "content_hash",
)


def _check_text(record: object, names: tuple[str, ...]) -> None:
    for name in names:
        value = getattr(record, name)
        if type(value) is not str:
            raise TypeError(f"{name} is not a str: {value!r}")


@dataclass(frozen=True, slots=True)
class VariableEntry:
    """One variable of one dataset, as the catalog knows it.

    ``written_name``/``written_unit`` are provenance — exactly what the
    file said.  ``name``/``unit`` are the *current* (searchable) forms
    that wrangling transformations rewrite by building a replacement
    entry.  ``excluded`` marks the Table's "excessive variables": hidden
    from search, shown in detail views.  ``ambiguous`` marks names a
    curator must clarify.
    """

    written_name: str
    written_unit: str
    name: str
    unit: str
    count: int
    minimum: float
    maximum: float
    mean: float
    stddev: float
    excluded: bool = False
    ambiguous: bool = False
    context: str = ""
    resolution: str = ""  # which wrangling step produced `name`

    def __post_init__(self) -> None:
        # Stored form (module docstring).  A record already in it passes
        # both checks at once; the second admits no ``-0.0`` or NaN.
        if not (
            str is type(self.written_name) is type(self.written_unit)
            is type(self.name) is type(self.unit) is type(self.context)
            is type(self.resolution)
            and type(self.count) is int
            and _INT64_MIN <= self.count <= _INT64_MAX
            and bool is type(self.excluded) is type(self.ambiguous)
        ):
            _check_text(self, _ENTRY_TEXT)
            if not bool is type(self.excluded) is type(self.ambiguous):
                raise TypeError(
                    f"flags are not bools: {self.excluded!r}, "
                    f"{self.ambiguous!r}"
                )
            object.__setattr__(self, "count", _integer(self.count))
        minimum, maximum, mean, stddev = (
            self.minimum, self.maximum, self.mean, self.stddev
        )
        if not (
            float is type(minimum) is type(maximum) is type(mean)
            is type(stddev)
            and minimum and maximum and mean and stddev
            and minimum == minimum and maximum == maximum
            and mean == mean and stddev == stddev
        ):
            object.__setattr__(self, "minimum", as_real(minimum))
            object.__setattr__(self, "maximum", as_real(maximum))
            object.__setattr__(self, "mean", as_real(mean))
            object.__setattr__(self, "stddev", as_real(stddev))

    def __reduce__(self):
        # Rebuild through the constructor, so a NaN statistic that
        # crosses a process boundary is ``math.nan`` again.
        return VariableEntry, tuple(
            getattr(self, name) for name in self.__slots__
        )

    @classmethod
    def from_written(
        cls,
        written_name: str,
        written_unit: str,
        count: int,
        minimum: float,
        maximum: float,
        mean: float,
        stddev: float,
    ) -> "VariableEntry":
        """A fresh entry whose current form equals the written form."""
        return cls(
            written_name,
            written_unit,
            written_name,
            written_unit,
            count,
            minimum,
            maximum,
            mean,
            stddev,
        )


@dataclass(frozen=True, slots=True)
class DatasetFeature:
    """The catalog's summary of one dataset.

    ``variables`` is stored as a tuple and ``attributes`` as a read-only
    view of a private dict in sorted key order, whatever sequence and
    mapping were passed.
    """

    dataset_id: str  # archive-relative path; unique
    title: str
    platform: str
    file_format: str
    bbox: BoundingBox
    interval: TimeInterval
    row_count: int
    source_directory: str
    attributes: Mapping[str, str] = field(default_factory=dict)
    variables: tuple[VariableEntry, ...] = ()
    content_hash: str = ""  # hash of the source file, for incremental runs

    def __post_init__(self) -> None:
        # Stored form (module docstring).
        if not (
            str is type(self.dataset_id) is type(self.title)
            is type(self.platform) is type(self.file_format)
            is type(self.source_directory) is type(self.content_hash)
            and type(self.row_count) is int
            and _INT64_MIN <= self.row_count <= _INT64_MAX
            and type(self.bbox) is BoundingBox
            and type(self.interval) is TimeInterval
        ):
            _check_text(self, _FEATURE_TEXT)
            object.__setattr__(self, "row_count", _integer(self.row_count))
            if type(self.bbox) is not BoundingBox:
                raise TypeError(f"bbox is not a BoundingBox: {self.bbox!r}")
            if type(self.interval) is not TimeInterval:
                raise TypeError(
                    f"interval is not a TimeInterval: {self.interval!r}"
                )
        variables = tuple(self.variables)
        for entry in variables:
            if type(entry) is not VariableEntry:
                raise TypeError(f"not a VariableEntry: {entry!r}")
        attributes = sorted(self.attributes.items())
        for key, value in attributes:
            if not str is type(key) is type(value):
                raise TypeError(
                    f"attribute is not str to str: {key!r}: {value!r}"
                )
        object.__setattr__(
            self, "attributes", MappingProxyType(dict(attributes))
        )
        object.__setattr__(self, "variables", variables)

    def __reduce__(self):
        # A mapping proxy does not pickle, and the scan's worker
        # processes send features back: rebuild through the constructor.
        return DatasetFeature, (
            self.dataset_id,
            self.title,
            self.platform,
            self.file_format,
            self.bbox,
            self.interval,
            self.row_count,
            self.source_directory,
            dict(self.attributes),
            self.variables,
            self.content_hash,
        )

    def variable(self, name: str) -> VariableEntry:
        """The entry whose *current* name is ``name``.

        Raises:
            KeyError: when absent.
        """
        for entry in self.variables:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def searchable_variables(self) -> list[VariableEntry]:
        """Entries visible to search (not excluded)."""
        return [v for v in self.variables if not v.excluded]

    def variable_names(self) -> list[str]:
        """Current names of all variables (excluded included)."""
        return [v.name for v in self.variables]
