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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from ..geo import BoundingBox, TimeInterval


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
    view of a private dict, whatever sequence and mapping were passed.
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
        object.__setattr__(
            self, "attributes", MappingProxyType(dict(self.attributes))
        )
        object.__setattr__(self, "variables", tuple(self.variables))

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
