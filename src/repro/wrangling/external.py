"""Add-external-metadata component.

"Add external metadata" — the archive's station registry (and any other
side tables) enriches the working catalog: dataset titles gain the
registry's official station names, and registry coordinates fill or
cross-check the scanned footprints.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..archive.generator import parse_station_registry
from ..archive.render import STATION_REGISTRY_PATH
from ..geo import GeoPoint
from .component import Component, ComponentReport
from .state import WranglingState


@dataclass(slots=True)
class AddExternalMetadata(Component):
    """The figure's external-metadata box."""

    registry_path: str = STATION_REGISTRY_PATH
    max_position_discrepancy_km: float = 5.0

    name = "external-metadata"

    def run(self, state: WranglingState, report: ComponentReport) -> None:
        if not state.fs.exists(self.registry_path):
            report.add(f"no registry at {self.registry_path}")
            return
        text = state.fs.get(self.registry_path).content
        try:
            stations = parse_station_registry(text)
        except ValueError as exc:
            report.add(f"registry parse error: {exc}")
            return
        state.stations = stations
        by_id = {s.station_id: s for s in stations}
        replacements = []
        for feature in state.working.features():
            report.items_seen += 1
            station_id = feature.attributes.get("station")
            if station_id is None or station_id not in by_id:
                continue
            station = by_id[station_id]
            attributes = dict(feature.attributes)
            if attributes.get("station_name") != station.name:
                attributes["station_name"] = station.name
                report.changes += 1
            attributes["station_description"] = station.description
            # Cross-check: scanned footprint vs registry position.
            registry_point = GeoPoint(station.lat, station.lon)
            distance = feature.bbox.distance_km_to_point(registry_point)
            if distance > self.max_position_discrepancy_km:
                message = (
                    f"{feature.dataset_id}: scanned footprint "
                    f"{distance:.1f} km from registry position of "
                    f"{station_id}"
                )
                report.add(message)
                attributes["position_flag"] = "discrepant"
            if attributes != feature.attributes:
                replacements.append(replace(feature, attributes=attributes))
        if replacements:
            state.working.upsert_many(replacements)
        report.add(f"registry has {len(stations)} stations")
