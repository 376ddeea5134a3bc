"""Process-configuration serialization.

"Details of process different for each archive" — the chain composition,
scan targets, curated tables, context rules, ambiguity decisions and
discovered rules *are* the process.  Serializing them as one JSON
document lets curators version-control their process and reproduce a
wrangle on a fresh machine, which is what makes the poster's
run-improve-rerun loop durable.
"""

from __future__ import annotations

import json
import re
from typing import Any

from ..refine.history import RuleSet
from ..semantics import (
    AbbreviationTable,
    AmbiguityAction,
    AmbiguityDecision,
    ContextRules,
    ExclusionPolicy,
    SynonymTable,
    TermResolver,
)
from .chain import ProcessChain, default_chain
from .scan import ScanArchive, ScanTarget
from .state import WranglingState

CONFIG_VERSION = 1


class ProcessConfigError(ValueError):
    """Raised when a process-configuration document is malformed."""


def dump_process_config(
    chain: ProcessChain, state: WranglingState, indent: int | None = 2
) -> str:
    """Serialize the process (chain config + curated knowledge) to JSON."""
    scan_targets: list[dict[str, Any]] = []
    scan_workers: int | None = None
    try:
        scan = chain.component("scan-archive")
        if isinstance(scan, ScanArchive):
            scan_targets = [
                {
                    "directory": target.directory,
                    "pattern": target.pattern,
                    "recursive": target.recursive,
                }
                for target in scan.targets
            ]
            scan_workers = scan.workers
    except Exception:
        pass
    resolver = state.resolver
    payload = {
        "format": "repro-process-config",
        "version": CONFIG_VERSION,
        "components": chain.names(),
        "scan_targets": scan_targets,
        "scan_workers": scan_workers,
        "synonyms": [
            [spelling, preferred] for spelling, preferred in resolver.synonyms
        ],
        "abbreviations": resolver.abbreviations.items(),
        "context_rules": [
            [bare, context, canonical]
            for (bare, context), canonical in sorted(
                resolver.context_rules.rules.items()
            )
        ],
        "exclusion_patterns": list(resolver.exclusion.patterns),
        "decisions": [
            {
                "name": d.name,
                "action": d.action.value,
                "canonical": d.canonical,
                "scope": d.scope,
            }
            for d in state.decisions
        ],
        "discovered_rules": (
            state.discovered_rules.to_json()
            if state.discovered_rules is not None
            else []
        ),
    }
    return json.dumps(payload, indent=indent)


def load_process_config(
    text: str, fs=None
) -> tuple[ProcessChain, WranglingState]:
    """Rebuild (chain, state) from a configuration document.

    ``fs`` is the archive filesystem the new state should wrangle; pass
    the target archive (it is not part of the configuration).

    Raises:
        ProcessConfigError: on wrong markers, versions or content.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProcessConfigError(f"not JSON: {exc}")
    if not isinstance(payload, dict) or payload.get("format") != (
        "repro-process-config"
    ):
        raise ProcessConfigError("missing process-config format marker")
    if payload.get("version") != CONFIG_VERSION:
        raise ProcessConfigError(
            f"unsupported config version {payload.get('version')!r}"
        )
    try:
        return _process_from_payload(payload, fs)
    except ProcessConfigError:
        raise
    except (ValueError, re.error) as exc:
        # Conflicting table rows, an unknown decision action, a bad
        # exclusion regex or a malformed discovered rule.
        raise ProcessConfigError(f"bad content: {exc}") from exc


def _list(payload: dict[str, Any], key: str) -> list:
    value = payload.get(key, [])
    if not isinstance(value, list):
        raise ProcessConfigError(f"{key} must be a list, got {value!r}")
    return value


def _string_rows(
    payload: dict[str, Any], key: str, width: int, what: str
) -> list[list[str]]:
    """``payload[key]`` as rows of ``width`` strings."""
    rows = _list(payload, key)
    for row in rows:
        if not (
            isinstance(row, list)
            and len(row) == width
            and all(isinstance(cell, str) for cell in row)
        ):
            raise ProcessConfigError(f"bad {what} {row!r}")
    return rows


def _object(item: Any, what: str, required: str, **kinds) -> dict:
    """``item`` as a dict holding ``required``, with every present key of
    ``kinds`` of its type."""
    if not (
        isinstance(item, dict)
        and required in item
        and all(
            isinstance(item[key], kind)
            for key, kind in kinds.items()
            if key in item
        )
    ):
        raise ProcessConfigError(f"bad {what} {item!r}")
    return item


def _process_from_payload(
    payload: dict[str, Any], fs
) -> tuple[ProcessChain, WranglingState]:
    from ..archive.filesystem import VirtualArchive

    synonyms = SynonymTable()
    for spelling, preferred in _string_rows(
        payload, "synonyms", 2, "synonym row"
    ):
        if spelling == preferred:
            synonyms.add(preferred)
        else:
            synonyms.add(preferred, spelling)

    abbreviations = AbbreviationTable()
    for abbreviation, canonical in _string_rows(
        payload, "abbreviations", 2, "abbreviation row"
    ):
        abbreviations.add(abbreviation, canonical)

    context_rules = ContextRules(rules={})
    for bare, context, canonical in _string_rows(
        payload, "context_rules", 3, "context rule"
    ):
        context_rules.add(bare, context, canonical)

    patterns = _list(payload, "exclusion_patterns")
    if not all(isinstance(pattern, str) for pattern in patterns):
        raise ProcessConfigError(f"bad exclusion patterns {patterns!r}")
    resolver = TermResolver(
        synonyms=synonyms,
        abbreviations=abbreviations,
        context_rules=context_rules,
        exclusion=ExclusionPolicy(patterns=list(patterns)),
    )

    decisions = []
    for item in _list(payload, "decisions"):
        d = _object(
            item, "decision", "name",
            name=str, canonical=(str, type(None)), scope=str,
        )
        decisions.append(
            AmbiguityDecision(
                name=d["name"],
                action=AmbiguityAction(d.get("action")),
                canonical=d.get("canonical"),
                scope=d.get("scope", ""),
            )
        )

    rules_json = _list(payload, "discovered_rules")
    discovered = RuleSet.from_json(rules_json) if rules_json else None

    state = WranglingState(
        fs=fs if fs is not None else VirtualArchive(),
        resolver=resolver,
        decisions=decisions,
        discovered_rules=discovered,
    )

    scan_workers = payload.get("scan_workers")
    if scan_workers is not None and (
        not isinstance(scan_workers, int) or scan_workers < 1
    ):
        raise ProcessConfigError(f"bad scan_workers {scan_workers!r}")
    targets = []
    for item in _list(payload, "scan_targets"):
        t = _object(
            item, "scan target", "directory", directory=str, pattern=str
        )
        targets.append(
            ScanTarget(
                directory=t["directory"],
                pattern=t.get("pattern", "*"),
                recursive=bool(t.get("recursive", True)),
            )
        )
    scan = ScanArchive(
        targets=targets or [ScanTarget(directory="")],
        workers=scan_workers,
    )
    chain = default_chain(scan=scan)
    # Honour the recorded component order where it names known
    # components; unknown names are a config error.
    known = {c.name for c in chain.components}
    for name in _list(payload, "components"):
        if not isinstance(name, str) or name not in known:
            raise ProcessConfigError(f"unknown component {name!r}")
    return chain, state
