"""Perform-known-transformations component.

"Perform known transformations — often exists as a translation table."
Applies the curated knowledge to the working catalog:

* synonym/abbreviation translation (the tables),
* unit-spelling normalization,
* source-context resolution of bare names,
* evidence-based clarification of ambiguous forms,
* curator ambiguity decisions (clarify/hide/leave),
* excessive-variable marking (exclude from search).

Everything the resolver cannot tame stays as written — "the mess that's
left" that discovery then attacks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..archive.vocabulary import VOCABULARY, preferred_unit
from ..catalog.records import VariableEntry
from ..semantics import AmbiguityAction, ResolutionMethod, UnitRegistry
from .component import Component, ComponentReport
from .state import WranglingState


@dataclass(slots=True)
class PerformKnownTransformations(Component):
    """The figure's translation-table box."""

    normalize_units: bool = True
    convert_units: bool = True  # cross-family conversion (degF -> degC)
    mark_excessive: bool = True
    apply_decisions: bool = True

    name = "known-transformations"

    @staticmethod
    def _converted(
        entry: VariableEntry, name: str, unit: str, units: UnitRegistry
    ) -> tuple[str, float, float, float, float] | None:
        """The entry's unit and statistics (minimum, maximum, mean,
        stddev) converted to ``name``'s canonical unit when the source
        reported a convertible foreign ``unit`` (degF temperatures,
        knots wind); ``None`` when no conversion applies."""
        var = VOCABULARY.get(name)
        if var is None or entry.count == 0:
            return None
        current = units.normalize(unit)
        target = var.unit
        if current == target or not units.convertible(current, target):
            return None
        lo = units.convert(entry.minimum, current, target)
        hi = units.convert(entry.maximum, current, target)
        scale = abs(
            units.convert(1.0, current, target)
            - units.convert(0.0, current, target)
        )
        return (
            target,
            min(lo, hi),
            max(lo, hi),
            units.convert(entry.mean, current, target),
            entry.stddev * scale,
        )

    def run(self, state: WranglingState, report: ComponentReport) -> None:
        resolver = state.resolver
        units = UnitRegistry()
        replacements = []
        for feature in state.working.features():
            dataset_id = feature.dataset_id
            context = resolver.context_rules.context_of_platform(
                feature.platform
            )
            variables = list(feature.variables)
            touched = False
            for position, entry in enumerate(variables):
                report.items_seen += 1
                # The entry's new fields; one replacement is built at
                # the end if any of them moved.
                name, unit, label = entry.name, entry.unit, entry.resolution
                excluded, ambiguous = entry.excluded, entry.ambiguous
                stats = entry.minimum, entry.maximum, entry.mean, entry.stddev
                changed = entry.context != context
                # Evidence-based resolution runs first; curator decisions
                # are the fallback for what evidence cannot tame.  This
                # ordering makes re-runs deterministic no matter *when*
                # a decision was added (a global HIDE never swallows
                # entries the evidence would have clarified anyway).
                resolution = resolver.resolve_entry(
                    entry, feature.platform, dataset_id
                )
                if resolution.resolved and resolution.canonical != name:
                    name = resolution.canonical
                    label = resolution.method.value
                    report.changes += 1
                    changed = True
                elif not resolution.resolved and self.apply_decisions:
                    decision = self._decision_for(state, dataset_id, name)
                    if decision is not None:
                        if decision.action is AmbiguityAction.CLARIFY:
                            if name != decision.canonical:
                                name = decision.canonical or name
                                label = ResolutionMethod.CURATOR.value
                                ambiguous = False
                                changed = True
                                report.changes += 1
                        elif decision.action is AmbiguityAction.HIDE:
                            if not excluded:
                                excluded = True
                                ambiguous = False
                                changed = True
                                report.changes += 1
                        else:  # LEAVE: flagged but untouched
                            if not ambiguous:
                                ambiguous = True
                                changed = True
                        resolution = None  # decision handled the entry
                if resolution is not None and resolution.ambiguous and not (
                    ambiguous or excluded
                ):
                    ambiguous = True
                    changed = True
                if self.mark_excessive and resolution is not None:
                    auxiliary = resolution.auxiliary or (
                        resolution.canonical is None
                        and resolver.exclusion.is_auxiliary(name)
                    )
                    if auxiliary and not excluded:
                        excluded = True
                        report.changes += 1
                        changed = True
                if self.normalize_units:
                    normalized = preferred_unit(unit)
                    if normalized != unit:
                        unit = normalized
                        report.changes += 1
                        changed = True
                if self.convert_units:
                    converted = self._converted(entry, name, unit, units)
                    if converted is not None:
                        unit, *stats = converted
                        report.changes += 1
                        changed = True
                if changed:
                    variables[position] = VariableEntry(
                        entry.written_name,
                        entry.written_unit,
                        name,
                        unit,
                        entry.count,
                        *stats,
                        excluded,
                        ambiguous,
                        context,
                        label,
                    )
                    touched = True
            if touched:
                replacements.append(replace(feature, variables=variables))
        if replacements:
            state.working.upsert_many(replacements)
        report.add(f"resolved entries across {len(state.working)} datasets")

    @staticmethod
    def _decision_for(state: WranglingState, dataset_id: str, name: str):
        for decision in state.decisions:
            if decision.name == name and decision.applies_to(dataset_id):
                return decision
        return None
