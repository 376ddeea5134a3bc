"""Seeded inputs for every workload.

Everything here runs before any timer starts, and everything is a pure
function of the seed: the same seed gives the same catalog features,
query texts, archive files and edit schedule.  The program under test
only ever sees what these functions return.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.archive import (
    MessSpec,
    SyntheticArchive,
    generate_archive,
    inject_mess,
    station_registry_text,
    write_dataset,
)
from repro.archive.render import STATION_REGISTRY_PATH
from repro.catalog import DatasetFeature, VariableEntry
from repro.experiments.builders import spec_for_size
from repro.geo import BoundingBox, TimeInterval

SECONDS_PER_DAY = 86_400.0
EPOCH_2008 = 1_199_145_600.0  # 2008-01-01T00:00:00Z

#: Canonical variable names plus the suffixed, abbreviated and misspelled
#: variants real archives accumulate; the same pool feeds the catalog and
#: the queries' ``with`` clauses.
VARIABLE_POOL = (
    "water_temperature", "water_temp", "watertemperature",
    "air_temperature", "air_temp", "air_temperatrue",
    "salinity", "salinity_psu", "salnity",
    "dissolved_oxygen", "oxygen", "do_mg_l",
    "chlorophyll", "chlorophyll_a", "chl_a",
    "fluorescence", "fluorescence_375nm", "fluores375",
    "turbidity", "turbidity_ntu",
    "ph", "ph_total",
    "conductivity", "specific_conductivity",
    "pressure", "water_pressure",
    "wind_speed", "wind_gust",
    "wave_height", "significant_wave_height",
    "depth", "sensor_depth",
    "nitrate", "nitrate_umol",
    "current_speed", "current_direction",
)


def coastal_catalog(n_datasets: int, seed: int) -> list[DatasetFeature]:
    """``n_datasets`` stations scattered along a synthetic coast."""
    rng = random.Random(f"catalog:{seed}")
    features = []
    for i in range(n_datasets):
        lat = rng.uniform(42.0, 49.0)
        lon = rng.uniform(-127.0, -121.0)
        d_lat = rng.uniform(0.0, 0.3)
        d_lon = rng.uniform(0.0, 0.3)
        start = EPOCH_2008 + rng.uniform(0.0, 5 * 365) * SECONDS_PER_DAY
        length = rng.uniform(5.0, 400.0) * SECONDS_PER_DAY
        variables = []
        for name in rng.sample(VARIABLE_POOL, rng.randint(4, 8)):
            lo = rng.uniform(-5.0, 20.0)
            hi = lo + rng.uniform(0.5, 25.0)
            variables.append(
                VariableEntry.from_written(
                    name, "unit", rng.randint(50, 5000),
                    lo, hi, (lo + hi) / 2.0, (hi - lo) / 4.0,
                )
            )
        features.append(
            DatasetFeature(
                dataset_id=f"station_{i:05d}",
                title=f"Synthetic station {i}",
                platform="station",
                file_format="csv",
                bbox=BoundingBox(lat, lon, lat + d_lat, lon + d_lon),
                interval=TimeInterval(start, start + length),
                row_count=rng.randint(100, 10_000),
                source_directory=f"stations/{i:05d}",
                variables=variables,
            )
        )
    return features


def _time_clause(rng: random.Random) -> str:
    year = rng.randint(2008, 2012)
    kind = rng.randrange(3)
    if kind == 0:
        month = rng.randint(1, 10)
        end_month = month + rng.randint(1, 2)
        return (
            f"from {year}-{month:02d}-{rng.randint(1, 28):02d} "
            f"to {year}-{end_month:02d}-{rng.randint(1, 28):02d}"
        )
    if kind == 1:
        if rng.random() < 0.5:
            return f"during {year}"
        return f"during {year}-{rng.randint(1, 12):02d}"
    return f"in {rng.choice(('early', 'mid', 'late'))}-{year}"


def _with_clause(rng: random.Random) -> str:
    parts = []
    for name in rng.sample(VARIABLE_POOL, rng.randint(1, 3)):
        shape = rng.random()
        if shape < 0.25:
            lo = round(rng.uniform(0.0, 10.0), 1)
            parts.append(f"{name} between {lo} and {lo + 8.0}")
        elif shape < 0.35:
            parts.append(f"{name} above {round(rng.uniform(0.0, 15.0), 1)}")
        else:
            parts.append(name)
    return "with " + ", ".join(parts)


def query_text(rng: random.Random) -> str:
    """One portal query: a point and radius, maybe a time, 1-3 variables."""
    text = (
        f"near {rng.uniform(43.0, 48.0):.4f}, {rng.uniform(-126.0, -122.0):.4f} "
        f"within {rng.randint(25, 300)} km"
    )
    if rng.random() < 0.5:
        text += " " + _time_clause(rng)
    return text + " " + _with_clause(rng)


def fresh_texts(count: int, seed: int, stream: str) -> list[str]:
    """``count`` distinct query texts; ``stream`` separates independent
    uses of one seed (timed requests, warm-up, probes)."""
    rng = random.Random(f"{stream}:{seed}")
    seen: set[str] = set()
    texts = []
    while len(texts) < count:
        text = query_text(rng)
        if text not in seen:
            seen.add(text)
            texts.append(text)
    return texts


def zipf_texts(
    n_texts: int, count: int, seed: int, s: float = 1.1
) -> tuple[list[str], list[str]]:
    """(the hot set, ``count`` requests drawn from it Zipf-weighted)."""
    hot = fresh_texts(n_texts, seed, "hot")
    rng = random.Random(f"zipf:{seed}")
    weights = [1.0 / (rank ** s) for rank in range(1, n_texts + 1)]
    return hot, rng.choices(hot, weights=weights, k=count)


# -- the messy archive and its edit schedule -----------------------------------


@dataclass(slots=True)
class ChurnRound:
    """What one rerun round changes in the archive."""

    edit_paths: list[str]
    add_path: str | None
    remove_path: str | None


def messy_archive(
    n_datasets: int, held_back: int, seed: int
) -> tuple[SyntheticArchive, list[str]]:
    """A messy archive plus the paths held back for later additions."""
    archive = generate_archive(spec_for_size(n_datasets + held_back, seed=seed))
    inject_mess(archive, MessSpec(seed=seed + 1))
    rng = random.Random(f"held:{seed}")
    paths = sorted(ds.path for ds in archive.datasets)
    return archive, sorted(rng.sample(paths, held_back))


def edit_schedule(
    archive: SyntheticArchive,
    held: list[str],
    rounds: int,
    seed: int,
    small: int,
    large: int,
) -> list[ChurnRound]:
    """Which files each round edits, adds and removes.

    Most rounds edit ``small`` files; every fifth edits ``large``; every
    third round also adds one held-back file and removes one present file.
    """
    rng = random.Random(f"edits:{seed}")
    present = sorted(ds.path for ds in archive.datasets if ds.path not in held)
    waiting = list(held)
    schedule = []
    for number in range(rounds):
        count = large if number % 5 == 4 else small
        edits = rng.sample(present, min(count, len(present)))
        add = remove = None
        if number % 3 == 2:
            if waiting:
                add = waiting.pop(0)
            if len(present) > 2 * large:  # keep the archive from draining
                remove = rng.choice([p for p in present if p not in edits])
                present.remove(remove)
            if add is not None:
                present.append(add)
                present.sort()
        schedule.append(ChurnRound(edits, add, remove))
    return schedule


def render_files(archive: SyntheticArchive, held: list[str]) -> dict[str, str]:
    """path -> content of every file present before the first round."""
    skip = set(held)
    files = {
        ds.path: write_dataset(ds)
        for ds in archive.datasets
        if ds.path not in skip
    }
    files[STATION_REGISTRY_PATH] = station_registry_text(archive.stations)
    return files


def append_observations(dataset, rng: random.Random, rows: int) -> None:
    """Append ``rows`` later observations to ``dataset`` in place."""
    table = dataset.table
    step = 3600.0
    for __ in range(rows):
        table.times.append(table.times[-1] + step)
        table.lats.append(table.lats[-1])
        table.lons.append(table.lons[-1])
        for column in table.columns:
            last = column.values[-1]
            if last != last:  # NaN: keep the gap
                column.values.append(last)
            else:
                column.values.append(last + rng.uniform(-0.5, 0.5))
