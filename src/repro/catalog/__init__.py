"""Metadata catalog substrate: records, stores and indexes."""

from .index import (
    CatalogIndexes,
    IntervalIndex,
    SpatialGridIndex,
    spatial_query_margins,
)
from .io import (
    CatalogFormatError,
    dump_catalog,
    feature_from_dict,
    feature_to_dict,
    load_catalog,
)
from .records import DatasetFeature, VariableEntry
from .sqlite_store import SqliteCatalog
from .store import (
    CatalogSnapshot,
    CatalogStore,
    DatasetNotFoundError,
    MemoryCatalog,
    SnapshotMutationError,
)

__all__ = [
    "CatalogFormatError",
    "CatalogIndexes",
    "CatalogSnapshot",
    "CatalogStore",
    "DatasetFeature",
    "DatasetNotFoundError",
    "IntervalIndex",
    "MemoryCatalog",
    "SnapshotMutationError",
    "SpatialGridIndex",
    "SqliteCatalog",
    "VariableEntry",
    "dump_catalog",
    "feature_from_dict",
    "feature_to_dict",
    "load_catalog",
    "spatial_query_margins",
]
