"""Catalog records: the dataset *feature* and its per-variable entries.

The IR-architecture figure: "Individual datasets scanned once, summarized
into a 'feature' per dataset; features stored in catalog; similarity
search is performed over catalog's contents."  A feature is the dataset's
spatial bounding box, time interval and per-variable summary statistics —
never the raw data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..geo import BoundingBox, TimeInterval


@dataclass(slots=True)
class VariableEntry:
    """One variable of one dataset, as the catalog knows it.

    ``written_name``/``written_unit`` are immutable provenance — exactly
    what the file said.  ``name``/``unit`` are the *current* (searchable)
    forms that wrangling transformations rewrite.  ``excluded`` marks the
    Table's "excessive variables": hidden from search, shown in detail
    views.  ``ambiguous`` marks names a curator must clarify.
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
            written_name=written_name,
            written_unit=written_unit,
            name=written_name,
            unit=written_unit,
            count=count,
            minimum=minimum,
            maximum=maximum,
            mean=mean,
            stddev=stddev,
        )

    def copy(self) -> "VariableEntry":
        """A detached copy (stores hand out copies, never internals).

        Spelled out field by field: ``dataclasses.replace`` costs about
        three times as much, and every search page copies its features.
        """
        return VariableEntry(
            written_name=self.written_name,
            written_unit=self.written_unit,
            name=self.name,
            unit=self.unit,
            count=self.count,
            minimum=self.minimum,
            maximum=self.maximum,
            mean=self.mean,
            stddev=self.stddev,
            excluded=self.excluded,
            ambiguous=self.ambiguous,
            context=self.context,
            resolution=self.resolution,
        )


@dataclass(slots=True)
class DatasetFeature:
    """The catalog's summary of one dataset."""

    dataset_id: str  # archive-relative path; unique
    title: str
    platform: str
    file_format: str
    bbox: BoundingBox
    interval: TimeInterval
    row_count: int
    source_directory: str
    attributes: dict[str, str] = field(default_factory=dict)
    variables: list[VariableEntry] = field(default_factory=list)
    content_hash: str = ""  # hash of the source file, for incremental runs

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

    def copy(self) -> "DatasetFeature":
        """A deep-enough copy: fresh variable list with copied entries."""
        return DatasetFeature(
            dataset_id=self.dataset_id,
            title=self.title,
            platform=self.platform,
            file_format=self.file_format,
            bbox=self.bbox,
            interval=self.interval,
            row_count=self.row_count,
            source_directory=self.source_directory,
            attributes=dict(self.attributes),
            variables=[v.copy() for v in self.variables],
            content_hash=self.content_hash,
        )
