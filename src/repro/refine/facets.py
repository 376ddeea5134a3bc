"""Refine engine configuration: facets and row filtering.

Every Refine operation carries an ``engineConfig`` whose facets select
the rows the operation touches (the poster's example has an empty facet
list and ``"mode": "row-based"``).  We implement the two facet kinds the
wrangling rules need: the *list* facet (column value in a selected set)
and the *text* facet (substring / regex match).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any


class FacetConfigError(ValueError):
    """Raised when a facet JSON dict cannot be interpreted."""


@dataclass(frozen=True, slots=True)
class ListFacet:
    """Keep rows whose ``column`` value is in ``selection``."""

    column: str
    selection: tuple[Any, ...]
    invert: bool = False

    def matches(self, row: dict[str, Any]) -> bool:
        hit = row.get(self.column) in self.selection
        return not hit if self.invert else hit

    def to_json(self) -> dict[str, Any]:
        """Refine-shaped facet dict."""
        return {
            "type": "list",
            "name": self.column,
            "columnName": self.column,
            "expression": "value",
            "selection": [
                {"v": {"v": value, "l": str(value)}}
                for value in self.selection
            ],
            "invert": self.invert,
        }


@dataclass(frozen=True, slots=True)
class TextFacet:
    """Keep rows whose ``column`` value matches ``query``."""

    column: str
    query: str
    mode: str = "text"  # 'text' (substring) or 'regex'
    case_sensitive: bool = False

    def __post_init__(self) -> None:
        if self.mode not in {"text", "regex"}:
            raise FacetConfigError(f"unknown text facet mode {self.mode!r}")

    def matches(self, row: dict[str, Any]) -> bool:
        value = row.get(self.column)
        if value is None:
            return False
        text = str(value)
        if self.mode == "regex":
            flags = 0 if self.case_sensitive else re.IGNORECASE
            return re.search(self.query, text, flags) is not None
        if self.case_sensitive:
            return self.query in text
        return self.query.lower() in text.lower()

    def to_json(self) -> dict[str, Any]:
        """Refine-shaped facet dict."""
        return {
            "type": "text",
            "name": self.column,
            "columnName": self.column,
            "query": self.query,
            "mode": self.mode,
            "caseSensitive": self.case_sensitive,
        }


Facet = ListFacet | TextFacet


def facet_from_json(config: dict[str, Any]) -> Facet:
    """Parse one facet dict (as found in ``engineConfig.facets``).

    Raises:
        FacetConfigError: for unknown facet types or missing fields.
    """
    if not isinstance(config, dict):
        raise FacetConfigError(f"facet must be an object: {config!r}")
    facet_type = config.get("type", "list")
    column = config.get("columnName") or config.get("name")
    if not column or not isinstance(column, str):
        raise FacetConfigError(f"facet without a column: {config!r}")
    if facet_type == "list":
        items = config.get("selection", [])
        if not isinstance(items, list):
            raise FacetConfigError(f"facet selection not a list: {config!r}")
        selection = []
        for item in items:
            v = item.get("v", item) if isinstance(item, dict) else item
            selection.append(v.get("v") if isinstance(v, dict) else v)
        return ListFacet(
            column=column,
            selection=tuple(selection),
            invert=bool(config.get("invert", False)),
        )
    if facet_type == "text":
        mode = config.get("mode", "text")
        if not isinstance(mode, str):
            raise FacetConfigError(f"text facet mode not a string: {config!r}")
        return TextFacet(
            column=column,
            query=str(config.get("query", "")),
            mode=mode,
            case_sensitive=bool(config.get("caseSensitive", False)),
        )
    raise FacetConfigError(f"unknown facet type {facet_type!r}")


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """The facet set + mode attached to every operation."""

    facets: tuple[Facet, ...] = ()
    mode: str = "row-based"

    def matches(self, row: dict[str, Any]) -> bool:
        """Row passes when *all* facets match (Refine semantics)."""
        return all(facet.matches(row) for facet in self.facets)

    def to_json(self) -> dict[str, Any]:
        """Refine-shaped engineConfig dict."""
        return {
            "facets": [facet.to_json() for facet in self.facets],
            "mode": self.mode,
        }

    @classmethod
    def from_json(cls, config: dict[str, Any] | None) -> "EngineConfig":
        """Parse an engineConfig dict (None means match-all).

        Raises:
            FacetConfigError: when the dict or one of its facets is
                malformed.
        """
        if not config:
            return cls()
        if not isinstance(config, dict):
            raise FacetConfigError(f"bad engineConfig {config!r}")
        facets = config.get("facets", [])
        mode = config.get("mode", "row-based")
        if not isinstance(facets, list) or not isinstance(mode, str):
            raise FacetConfigError(f"bad engineConfig {config!r}")
        return cls(
            facets=tuple(facet_from_json(f) for f in facets),
            mode=mode,
        )
