"""The canonical environmental-variable vocabulary.

This plays the role of "the list of environmental variables in the minds
of the scientists" that the poster says the archive's harvested names fail
to match.  It defines, for each canonical variable: preferred name, unit,
measurement context (air / water / seafloor / platform), parent concept in
the hierarchy, whether it is an *auxiliary* variable (QA/housekeeping —
the Table's "excessive variables" category), and known synonyms and
abbreviations (ground truth for the wrangling experiments).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Context(str, Enum):
    """Measurement context of a variable (the Table's 'source-context')."""

    AIR = "air"
    WATER = "water"
    SEAFLOOR = "seafloor"
    PLATFORM = "platform"
    NONE = "none"


@dataclass(frozen=True, slots=True)
class CanonicalVariable:
    """One entry in the scientists' vocabulary."""

    name: str
    unit: str
    context: Context
    parent: str | None = None
    auxiliary: bool = False
    synonyms: tuple[str, ...] = ()
    abbreviations: tuple[str, ...] = ()
    description: str = ""


# Unit synonym families, per the Table's "Synonyms" row (C, degC,
# Centigrade).  The first entry of each family is the preferred spelling.
UNIT_SYNONYMS: dict[str, tuple[str, ...]] = {
    "degC": ("degC", "C", "Centigrade", "celsius", "deg_C", "°C"),
    "PSU": ("PSU", "psu", "practical salinity units", "PSS-78"),
    "m": ("m", "meters", "metres", "meter"),
    "m/s": ("m/s", "m s-1", "meters/second", "m.s-1"),
    "mg/L": ("mg/L", "mg l-1", "milligrams/liter", "mg/l"),
    "uM": ("uM", "umol/L", "micromolar", "µM"),
    "NTU": ("NTU", "ntu", "nephelometric turbidity units"),
    "hPa": ("hPa", "mbar", "millibar", "hectopascal"),
    "dbar": ("dbar", "decibar", "db"),
    "%": ("%", "percent", "pct"),
    "degrees": ("degrees", "deg", "°"),
    "V": ("V", "volts", "volt"),
    "S/m": ("S/m", "siemens/meter", "S m-1"),
    "mm": ("mm", "millimeters", "millimetres"),
    "ug/L": ("ug/L", "ug l-1", "micrograms/liter", "µg/L"),
    "W/m^2": ("W/m^2", "W m-2", "watts/m2"),
    "1": ("1", "dimensionless", "unitless", "none", ""),
}


def _spelling_index() -> dict[str, str]:
    """Lowercased spelling -> preferred unit.

    Built in ``UNIT_SYNONYMS`` order, keeping the first family that
    claims a spelling, so a lookup answers what a scan of the families
    in order would.
    """
    index: dict[str, str] = {}
    for preferred, spellings in UNIT_SYNONYMS.items():
        for spelling in spellings:
            index.setdefault(spelling.lower(), preferred)
    return index


_PREFERRED_BY_SPELLING = _spelling_index()


def preferred_unit(unit: str) -> str:
    """Map any known unit spelling to its preferred form.

    Unknown units are returned unchanged (the resolver reports them).
    """
    return _PREFERRED_BY_SPELLING.get(unit.strip().lower(), unit)


def _v(
    name: str,
    unit: str,
    context: Context,
    parent: str | None = None,
    auxiliary: bool = False,
    synonyms: tuple[str, ...] = (),
    abbreviations: tuple[str, ...] = (),
    description: str = "",
) -> CanonicalVariable:
    return CanonicalVariable(
        name=name,
        unit=unit,
        context=context,
        parent=parent,
        auxiliary=auxiliary,
        synonyms=synonyms,
        abbreviations=abbreviations,
        description=description,
    )


#: The full canonical vocabulary, keyed by preferred name.  Parents that
#: are pure *concepts* (no data of their own) appear with unit "1" and
#: ``Context.NONE`` — they exist to support the Table's "concepts at
#: multiple levels of detail" category (fluorescence vs fluores375).
VOCABULARY: dict[str, CanonicalVariable] = {
    v.name: v
    for v in [
        # --- temperature family (source-context naming) ------------------
        _v("temperature", "degC", Context.NONE,
           description="Abstract temperature concept"),
        _v("air_temperature", "degC", Context.AIR, parent="temperature",
           synonyms=("atmospheric temperature", "airtemp"),
           abbreviations=("AT", "ATMP"),
           description="Dry-bulb air temperature"),
        _v("water_temperature", "degC", Context.WATER, parent="temperature",
           synonyms=("sea water temperature", "watertemp"),
           abbreviations=("WT", "WTMP"),
           description="In-situ water temperature"),
        _v("sea_surface_temperature", "degC", Context.WATER,
           parent="water_temperature",
           synonyms=("surface temperature",),
           abbreviations=("SST", "ATastn"),
           description="Water temperature at the surface"),
        # --- salinity / conductivity --------------------------------------
        _v("salinity", "PSU", Context.WATER,
           synonyms=("practical salinity", "salt"),
           abbreviations=("SAL", "PSAL"),
           description="Practical salinity"),
        _v("conductivity", "S/m", Context.WATER,
           synonyms=("electrical conductivity",),
           abbreviations=("COND", "CNDC"),
           description="Electrical conductivity of sea water"),
        # --- oxygen / chemistry -------------------------------------------
        _v("dissolved_oxygen", "mg/L", Context.WATER,
           synonyms=("oxygen", "do concentration"),
           abbreviations=("DO", "DOXY"),
           description="Dissolved oxygen concentration"),
        _v("oxygen_saturation", "%", Context.WATER,
           parent="dissolved_oxygen",
           synonyms=("o2sat",),
           abbreviations=("DOSAT",),
           description="Dissolved oxygen percent saturation"),
        _v("ph", "1", Context.WATER,
           synonyms=("acidity",),
           abbreviations=("PH",),
           description="pH of sea water"),
        _v("nitrate", "uM", Context.WATER,
           synonyms=("nitrate concentration", "no3"),
           abbreviations=("NTRA",),
           description="Nitrate concentration"),
        _v("phosphate", "uM", Context.WATER,
           synonyms=("phosphate concentration", "po4"),
           abbreviations=("PHOS",),
           description="Phosphate concentration"),
        # --- optics / biology ---------------------------------------------
        _v("fluorescence", "1", Context.WATER,
           synonyms=("fluorometric signal",),
           abbreviations=("FLUOR",),
           description="Abstract fluorescence concept"),
        _v("fluorescence_375nm", "1", Context.WATER, parent="fluorescence",
           synonyms=("fluores375",),
           description="Fluorescence, 375 nm excitation"),
        _v("fluorescence_400nm", "1", Context.WATER, parent="fluorescence",
           synonyms=("fluores400",),
           description="Fluorescence, 400 nm excitation"),
        _v("chlorophyll", "ug/L", Context.WATER, parent="fluorescence",
           synonyms=("chlorophyll a", "chl-a", "chl"),
           abbreviations=("CHL", "CPHL"),
           description="Chlorophyll-a concentration from fluorescence"),
        _v("turbidity", "NTU", Context.WATER,
           abbreviations=("TURB",),
           description="Optical turbidity"),
        _v("par", "W/m^2", Context.WATER,
           synonyms=("photosynthetically active radiation",),
           abbreviations=("PAR",),
           description="Photosynthetically active radiation"),
        # --- physics: pressure / depth / currents --------------------------
        _v("air_pressure", "hPa", Context.AIR,
           synonyms=("barometric pressure", "atmospheric pressure"),
           abbreviations=("BARO", "PRES"),
           description="Air pressure at station height"),
        _v("water_pressure", "dbar", Context.WATER,
           abbreviations=("WPRES",),
           description="In-situ water pressure"),
        _v("depth", "m", Context.WATER,
           synonyms=("water depth", "sensor depth"),
           abbreviations=("DEP", "DEPH"),
           description="Depth below surface"),
        _v("current_speed", "m/s", Context.WATER,
           synonyms=("water velocity",),
           abbreviations=("CSPD",),
           description="Horizontal current speed"),
        _v("current_direction", "degrees", Context.WATER,
           abbreviations=("CDIR",),
           description="Horizontal current direction"),
        _v("wave_height", "m", Context.WATER,
           synonyms=("significant wave height",),
           abbreviations=("SWH", "MWHLA"),
           description="Mean wave height, low-pass averaged"),
        # --- meteorology ----------------------------------------------------
        _v("wind_speed", "m/s", Context.AIR,
           abbreviations=("WSPD",),
           description="Wind speed"),
        _v("wind_direction", "degrees", Context.AIR,
           abbreviations=("WDIR",),
           description="Wind direction (from)"),
        _v("relative_humidity", "%", Context.AIR,
           synonyms=("humidity",),
           abbreviations=("RH", "RELH"),
           description="Relative humidity"),
        _v("precipitation", "mm", Context.AIR,
           synonyms=("rainfall",),
           abbreviations=("PRCP",),
           description="Accumulated precipitation"),
        _v("solar_radiation", "W/m^2", Context.AIR,
           synonyms=("shortwave radiation",),
           abbreviations=("SRAD",),
           description="Downwelling solar radiation"),
        # --- auxiliary / housekeeping (the 'excessive variables' row) -----
        _v("qa_level", "1", Context.PLATFORM, auxiliary=True,
           synonyms=("quality assurance level",),
           description="Dataset quality-assurance level"),
        _v("qc_flag", "1", Context.PLATFORM, auxiliary=True,
           synonyms=("quality flag", "quality control flag"),
           description="Per-sample quality-control flag"),
        _v("battery_voltage", "V", Context.PLATFORM, auxiliary=True,
           synonyms=("battery",),
           abbreviations=("BATT",),
           description="Instrument battery voltage"),
        _v("instrument_tilt", "degrees", Context.PLATFORM, auxiliary=True,
           description="Instrument tilt from vertical"),
        _v("sample_number", "1", Context.PLATFORM, auxiliary=True,
           synonyms=("record number",),
           description="Monotone sample counter"),
    ]
}


#: Ambiguous short forms, per the Table's "Ambiguous usages" row.  Each
#: maps to the canonical variables it might mean; ``None`` in the tuple
#: means "not an environmental variable at all" (e.g. *temporary*).
AMBIGUOUS_FORMS: dict[str, tuple[str | None, ...]] = {
    "temp": ("air_temperature", "water_temperature", None),
    "pres": ("air_pressure", "water_pressure"),
    "cond": ("conductivity", None),
    "do": ("dissolved_oxygen", None),
    "dir": ("wind_direction", "current_direction"),
    "speed": ("wind_speed", "current_speed"),
}


def searchable_variables() -> list[CanonicalVariable]:
    """Canonical variables that should appear in search (non-auxiliary,
    non-abstract)."""
    return [
        v
        for v in VOCABULARY.values()
        if not v.auxiliary and not _is_abstract(v)
    ]


def auxiliary_variables() -> list[CanonicalVariable]:
    """The QA/housekeeping variables (excluded from search by default)."""
    return [v for v in VOCABULARY.values() if v.auxiliary]


def _is_abstract(variable: CanonicalVariable) -> bool:
    """A pure concept node: some other variable names it as parent and it
    is never measured directly in the synthetic archive."""
    return variable.name in _ABSTRACT_CONCEPTS


_ABSTRACT_CONCEPTS = frozenset({"temperature", "fluorescence"})


def concept_children(name: str) -> list[str]:
    """Names of canonical variables whose parent is ``name``."""
    return sorted(
        v.name for v in VOCABULARY.values() if v.parent == name
    )
