"""Refine operations: the JSON rules the poster exports and replays.

The poster shows a verbatim ``core/mass-edit`` operation (renaming
``ATastn`` to ``sea surface temperature``); a metadata processing chain
exports such rules as JSON and runs them "against metadata".  Each
operation here serializes to (and parses from) the operation-history
format Google Refine produces, and applies itself to a
:class:`~repro.refine.table.RefineTable`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from .facets import EngineConfig, FacetConfigError
from .grel import GrelExpression
from .table import RefineTable


class OperationError(ValueError):
    """Raised when an operation dict is malformed or cannot apply."""


class Operation(ABC):
    """One replayable edit."""

    op: str  # the Refine op identifier, e.g. 'core/mass-edit'

    @abstractmethod
    def apply(self, table: RefineTable) -> int:
        """Apply to ``table``; returns the number of cells/rows changed."""

    @abstractmethod
    def to_json(self) -> dict[str, Any]:
        """The Refine operation-history dict."""


@dataclass(slots=True)
class MassEditEdit:
    """One edit group of a mass-edit: several 'from' values, one 'to'."""

    from_values: tuple[str, ...]
    to_value: str
    from_blank: bool = False
    from_error: bool = False


@dataclass(slots=True)
class MassEditOperation(Operation):
    """``core/mass-edit``: bulk value rewrites in one column."""

    column: str
    edits: list[MassEditEdit]
    engine_config: EngineConfig = field(default_factory=EngineConfig)
    expression: str = "value"
    description: str = ""
    op = "core/mass-edit"

    def apply(self, table: RefineTable) -> int:
        table.require_column(self.column)
        expr = GrelExpression(self.expression)
        mapping: dict[str, str] = {}
        for edit in self.edits:
            for from_value in edit.from_values:
                mapping[from_value] = edit.to_value

        def rewrite(value: Any, row: dict[str, Any]) -> Any:
            keyed = expr.evaluate(value, cells=row)
            return mapping.get(keyed, value)

        return table.transform_column(
            self.column, rewrite, row_filter=self.engine_config.matches
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "op": self.op,
            "description": self.description
            or f"Mass edit cells in column {self.column}",
            "engineConfig": self.engine_config.to_json(),
            "columnName": self.column,
            "expression": self.expression,
            "edits": [
                {
                    "fromBlank": edit.from_blank,
                    "fromError": edit.from_error,
                    "from": list(edit.from_values),
                    "to": edit.to_value,
                }
                for edit in self.edits
            ],
        }

    def rename_mapping(self) -> dict[str, str]:
        """The flat from -> to map this operation encodes."""
        out: dict[str, str] = {}
        for edit in self.edits:
            for from_value in edit.from_values:
                out[from_value] = edit.to_value
        return out


@dataclass(slots=True)
class TextTransformOperation(Operation):
    """``core/text-transform``: apply a GREL expression to a column."""

    column: str
    expression: str
    engine_config: EngineConfig = field(default_factory=EngineConfig)
    on_error: str = "keep-original"  # or 'set-to-blank'
    repeat: bool = False
    repeat_count: int = 10
    description: str = ""
    op = "core/text-transform"

    def apply(self, table: RefineTable) -> int:
        table.require_column(self.column)
        expr = GrelExpression(self.expression)

        def rewrite(value: Any, row: dict[str, Any]) -> Any:
            try:
                result = expr.evaluate(value, cells=row)
                if self.repeat:
                    for __ in range(self.repeat_count):
                        again = expr.evaluate(result, cells=row)
                        if again == result:
                            break
                        result = again
                return result
            except Exception:
                if self.on_error == "set-to-blank":
                    return None
                return value

        return table.transform_column(
            self.column, rewrite, row_filter=self.engine_config.matches
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "op": self.op,
            "description": self.description
            or f"Text transform on cells in column {self.column}",
            "engineConfig": self.engine_config.to_json(),
            "columnName": self.column,
            "expression": (
                self.expression
                if self.expression.startswith("grel:")
                else f"grel:{self.expression}"
            ),
            "onError": self.on_error,
            "repeat": self.repeat,
            "repeatCount": self.repeat_count,
        }


@dataclass(slots=True)
class ColumnRenameOperation(Operation):
    """``core/column-rename``."""

    old_name: str
    new_name: str
    description: str = ""
    op = "core/column-rename"

    def apply(self, table: RefineTable) -> int:
        table.rename_column(self.old_name, self.new_name)
        return len(table)

    def to_json(self) -> dict[str, Any]:
        return {
            "op": self.op,
            "description": self.description
            or f"Rename column {self.old_name} to {self.new_name}",
            "oldColumnName": self.old_name,
            "newColumnName": self.new_name,
        }


@dataclass(slots=True)
class ColumnRemovalOperation(Operation):
    """``core/column-removal``."""

    column: str
    description: str = ""
    op = "core/column-removal"

    def apply(self, table: RefineTable) -> int:
        table.remove_column(self.column)
        return len(table)

    def to_json(self) -> dict[str, Any]:
        return {
            "op": self.op,
            "description": self.description
            or f"Remove column {self.column}",
            "columnName": self.column,
        }


@dataclass(slots=True)
class RowRemovalOperation(Operation):
    """``core/row-removal``: drop the rows the engine config selects."""

    engine_config: EngineConfig = field(default_factory=EngineConfig)
    description: str = ""
    op = "core/row-removal"

    def apply(self, table: RefineTable) -> int:
        return table.remove_rows(self.engine_config.matches)

    def to_json(self) -> dict[str, Any]:
        return {
            "op": self.op,
            "description": self.description or "Remove rows",
            "engineConfig": self.engine_config.to_json(),
        }


@dataclass(slots=True)
class ColumnAdditionOperation(Operation):
    """``core/column-addition``: a new column from a GREL expression over
    an existing one."""

    base_column: str
    new_column: str
    expression: str
    engine_config: EngineConfig = field(default_factory=EngineConfig)
    on_error: str = "set-to-blank"
    description: str = ""
    op = "core/column-addition"

    def apply(self, table: RefineTable) -> int:
        table.require_column(self.base_column)
        expr = GrelExpression(self.expression)
        values = []
        for row in table.rows:
            if not self.engine_config.matches(row):
                values.append(None)
                continue
            try:
                values.append(
                    expr.evaluate(row[self.base_column], cells=row)
                )
            except Exception:
                values.append(None)
        table.add_column(self.new_column, values=values)
        return len(table)

    def to_json(self) -> dict[str, Any]:
        return {
            "op": self.op,
            "description": self.description
            or f"Create column {self.new_column} based on column "
            f"{self.base_column}",
            "engineConfig": self.engine_config.to_json(),
            "baseColumnName": self.base_column,
            "newColumnName": self.new_column,
            "expression": (
                self.expression
                if self.expression.startswith("grel:")
                else f"grel:{self.expression}"
            ),
            "onError": self.on_error,
        }


@dataclass(slots=True)
class FillDownOperation(Operation):
    """``core/fill-down``: copy the last non-blank value into blanks."""

    column: str
    engine_config: EngineConfig = field(default_factory=EngineConfig)
    description: str = ""
    op = "core/fill-down"

    def apply(self, table: RefineTable) -> int:
        table.require_column(self.column)
        changed = 0
        last: Any = None
        for row in table.rows:
            if not self.engine_config.matches(row):
                continue
            value = row[self.column]
            if value is None or value == "":
                if last is not None:
                    row[self.column] = last
                    changed += 1
            else:
                last = value
        return changed

    def to_json(self) -> dict[str, Any]:
        return {
            "op": self.op,
            "description": self.description
            or f"Fill down cells in column {self.column}",
            "engineConfig": self.engine_config.to_json(),
            "columnName": self.column,
        }


_REQUIRED = object()


def _field(config: dict[str, Any], key: str, kind: type, default=_REQUIRED):
    """``config[key]`` checked to be a ``kind`` (``default`` if absent).

    Raises:
        OperationError: when the field is missing or wrongly typed.
    """
    value = config.get(key, default)
    if value is _REQUIRED:
        raise OperationError(f"missing field {key!r}: {config!r}")
    if not isinstance(value, kind):
        raise OperationError(
            f"field {key!r} must be {kind.__name__}: {config!r}"
        )
    return value


def _engine_config(config: dict[str, Any]) -> EngineConfig:
    try:
        return EngineConfig.from_json(config.get("engineConfig"))
    except FacetConfigError as exc:
        raise OperationError(f"bad engineConfig: {exc}") from exc


def _mass_edit_edit(edit: Any) -> MassEditEdit:
    if not isinstance(edit, dict):
        raise OperationError(f"mass-edit edit must be an object: {edit!r}")
    from_values = _field(edit, "from", list, [])
    if not all(isinstance(value, str) for value in from_values):
        raise OperationError(f"mass-edit from values not strings: {edit!r}")
    return MassEditEdit(
        from_values=tuple(from_values),
        to_value=_field(edit, "to", str, ""),
        from_blank=_field(edit, "fromBlank", bool, False),
        from_error=_field(edit, "fromError", bool, False),
    )


def operation_from_json(config: dict[str, Any]) -> Operation:
    """Parse one operation dict (including the poster's verbatim
    ``core/mass-edit`` example).

    Raises:
        OperationError: for unknown ops, missing or wrongly typed fields.
    """
    if not isinstance(config, dict):
        raise OperationError(f"operation must be an object: {config!r}")
    op = config.get("op")
    description = _field(config, "description", str, "")
    if op == "core/mass-edit":
        column = _field(config, "columnName", str, "")
        if not column:
            raise OperationError(f"mass-edit without columnName: {config!r}")
        return MassEditOperation(
            column=column,
            edits=[
                _mass_edit_edit(edit)
                for edit in _field(config, "edits", list, [])
            ],
            engine_config=_engine_config(config),
            expression=_field(config, "expression", str, "value"),
            description=description,
        )
    if op == "core/text-transform":
        column = _field(config, "columnName", str, "")
        expression = _field(config, "expression", str, "")
        if not column or not expression:
            raise OperationError(
                f"text-transform needs columnName+expression: {config!r}"
            )
        return TextTransformOperation(
            column=column,
            expression=expression,
            engine_config=_engine_config(config),
            on_error=_field(config, "onError", str, "keep-original"),
            repeat=_field(config, "repeat", bool, False),
            repeat_count=_field(config, "repeatCount", int, 10),
            description=description,
        )
    if op == "core/column-rename":
        return ColumnRenameOperation(
            old_name=_field(config, "oldColumnName", str),
            new_name=_field(config, "newColumnName", str),
            description=description,
        )
    if op == "core/column-removal":
        return ColumnRemovalOperation(
            column=_field(config, "columnName", str),
            description=description,
        )
    if op == "core/column-addition":
        expression = _field(config, "expression", str, "")
        if not expression:
            raise OperationError(
                f"column-addition needs an expression: {config!r}"
            )
        return ColumnAdditionOperation(
            base_column=_field(config, "baseColumnName", str),
            new_column=_field(config, "newColumnName", str),
            expression=expression,
            engine_config=_engine_config(config),
            on_error=_field(config, "onError", str, "set-to-blank"),
            description=description,
        )
    if op == "core/fill-down":
        return FillDownOperation(
            column=_field(config, "columnName", str),
            engine_config=_engine_config(config),
            description=description,
        )
    if op == "core/row-removal":
        return RowRemovalOperation(
            engine_config=_engine_config(config),
            description=description,
        )
    raise OperationError(f"unknown operation {op!r}")
