"""Operation-history JSON: export, import, replay.

"Export JSON rules" / "Run rules against metadata" — the poster's
round-trip.  A :class:`RuleSet` is an ordered list of operations that
serializes to the Refine operation-history format (a JSON array) and
replays against a table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .ops import Operation, OperationError, operation_from_json
from .table import RefineTable


@dataclass(slots=True)
class RuleSet:
    """An ordered, replayable list of Refine operations."""

    operations: list[Operation] = field(default_factory=list)

    def append(self, operation: Operation) -> None:
        """Add an operation at the end."""
        self.operations.append(operation)

    def extend(self, operations: list[Operation]) -> None:
        """Add several operations."""
        self.operations.extend(operations)

    def __len__(self) -> int:
        return len(self.operations)

    def apply(self, table: RefineTable) -> int:
        """Replay all operations in order; returns total changes."""
        return sum(op.apply(table) for op in self.operations)

    # -- JSON ------------------------------------------------------------------

    def to_json(self) -> list[dict[str, Any]]:
        """The operation-history array."""
        return [op.to_json() for op in self.operations]

    def dumps(self, indent: int = 2) -> str:
        """Serialized JSON text."""
        return json.dumps(self.to_json(), indent=indent)

    @classmethod
    def from_json(cls, history: list[dict[str, Any]]) -> "RuleSet":
        """Parse an operation-history array.

        Raises:
            OperationError: on unknown or malformed operations, or when
                ``history`` is not a list.
        """
        if not isinstance(history, list):
            raise OperationError(
                "operation history must be a list, "
                f"got {type(history).__name__}"
            )
        return cls(operations=[operation_from_json(op) for op in history])

    @classmethod
    def loads(cls, text: str) -> "RuleSet":
        """Parse JSON text (object or array; a single op dict is accepted).

        Raises:
            OperationError: when the text is not JSON or not an operation
                history.
        """
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise OperationError(
                f"operation history is not JSON: {exc}"
            ) from exc
        if isinstance(data, dict):
            data = [data]
        return cls.from_json(data)

    def rename_mapping(self) -> dict[str, str]:
        """The combined old -> new value map across all mass-edits,
        composed in application order (a->b then b->c yields a->c)."""
        combined: dict[str, str] = {}
        for operation in self.operations:
            mapping = getattr(operation, "rename_mapping", None)
            if mapping is None:
                continue
            step = mapping()
            for old, new in list(combined.items()):
                combined[old] = step.get(new, new)
            for old, new in step.items():
                combined.setdefault(old, new)
        return {k: v for k, v in combined.items() if k != v}
