"""The metadata wrangling process: composable components, chains,
validation."""

from .chain import (
    ChainCompositionError,
    ChainRunReport,
    ProcessChain,
    default_chain,
)
from .component import Component, ComponentReport
from .config_io import (
    ProcessConfigError,
    dump_process_config,
    load_process_config,
)
from .discover import (
    DiscoverTransformations,
    PerformDiscoveredTransformations,
)
from .external import AddExternalMetadata
from .hierarchy_gen import UNRESOLVED_BRANCH, GenerateHierarchies
from .known import PerformKnownTransformations
from .provenance import ProvenanceEvent, ProvenanceJournal
from .publish import Publish
from .scan import ScanArchive, ScanTarget
from .state import (
    PublishDelta,
    QuarantineEntry,
    QuarantineLog,
    WranglingState,
)
from .validate import (
    DEFAULT_CHECKS,
    AmbiguousRemaining,
    DirectoryFormatConsistency,
    ExpectedDatasets,
    SynonymCoverage,
    UnknownUnits,
    UnresolvedNames,
    ValidationCheck,
    ValidationFailure,
    ValidationReport,
    validate,
)

__all__ = [
    "AddExternalMetadata",
    "AmbiguousRemaining",
    "ChainCompositionError",
    "ChainRunReport",
    "Component",
    "ComponentReport",
    "DEFAULT_CHECKS",
    "DirectoryFormatConsistency",
    "DiscoverTransformations",
    "ExpectedDatasets",
    "GenerateHierarchies",
    "PerformDiscoveredTransformations",
    "PerformKnownTransformations",
    "ProcessChain",
    "ProcessConfigError",
    "ProvenanceEvent",
    "ProvenanceJournal",
    "Publish",
    "ScanArchive",
    "ScanTarget",
    "SynonymCoverage",
    "UNRESOLVED_BRANCH",
    "UnknownUnits",
    "UnresolvedNames",
    "ValidationCheck",
    "ValidationFailure",
    "ValidationReport",
    "PublishDelta",
    "QuarantineEntry",
    "QuarantineLog",
    "WranglingState",
    "default_chain",
    "dump_process_config",
    "load_process_config",
    "validate",
]
