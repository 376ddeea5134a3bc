"""Dataset summary: the content behind the poster's summary-page figure.

"Search result leads to 'dataset summary'; displays dataset & variable
information from metadata catalog."  :func:`summarize` assembles that
content as a plain data structure; ``repro.ui`` renders it as text/HTML.
Excluded (auxiliary) variables appear here — the Table's desired result
for excessive variables is "exclude from search, show in detailed
dataset views".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..catalog.records import DatasetFeature
from ..hierarchy import TaxonomyLinks


@dataclass(frozen=True, slots=True)
class VariableSummary:
    """Variable-level lines of the summary page."""

    name: str
    written_name: str
    unit: str
    count: int
    minimum: float
    maximum: float
    mean: float
    excluded: bool
    ambiguous: bool
    context: str
    taxonomy_links: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class DatasetSummary:
    """Dataset-level header plus per-variable detail."""

    dataset_id: str
    title: str
    platform: str
    file_format: str
    location_text: str
    time_text: str
    row_count: int
    source_directory: str
    attributes: tuple[tuple[str, str], ...]
    searchable: tuple[VariableSummary, ...]
    detail_only: tuple[VariableSummary, ...]

    @property
    def variable_count(self) -> int:
        """All variables, searchable and detail-only."""
        return len(self.searchable) + len(self.detail_only)


def summarize(
    feature: DatasetFeature,
    taxonomy_links: TaxonomyLinks | None = None,
) -> DatasetSummary:
    """Build the summary-page content for one dataset feature."""
    searchable: list[VariableSummary] = []
    detail_only: list[VariableSummary] = []
    for entry in feature.variables:
        links: tuple[str, ...] = ()
        if taxonomy_links is not None:
            links = tuple(
                str(link) for link in taxonomy_links.links_for(entry.name)
            )
        summary = VariableSummary(
            name=entry.name,
            written_name=entry.written_name,
            unit=entry.unit,
            count=entry.count,
            minimum=entry.minimum,
            maximum=entry.maximum,
            mean=entry.mean,
            excluded=entry.excluded,
            ambiguous=entry.ambiguous,
            context=entry.context,
            taxonomy_links=links,
        )
        (detail_only if entry.excluded else searchable).append(summary)
    bbox = feature.bbox
    if bbox.is_point:
        location_text = str(bbox.center)
    else:
        location_text = (
            f"{bbox.min_lat:.4f}..{bbox.max_lat:.4f} N, "
            f"{bbox.min_lon:.4f}..{bbox.max_lon:.4f} E"
        )
    return DatasetSummary(
        dataset_id=feature.dataset_id,
        title=feature.title,
        platform=feature.platform,
        file_format=feature.file_format,
        location_text=location_text,
        time_text=str(feature.interval),
        row_count=feature.row_count,
        source_directory=feature.source_directory,
        attributes=tuple(feature.attributes.items()),
        searchable=tuple(searchable),
        detail_only=tuple(detail_only),
    )
