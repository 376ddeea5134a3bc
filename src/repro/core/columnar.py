"""Columnar snapshot scoring: frozen facet columns, two-stage scan.

The object scoring path walks :class:`~repro.catalog.records.DatasetFeature`
instances — per-query that means a dict lookup and a cascade of
attribute reads per dataset.  At catalog scale the hot loop is
dominated by that object traffic, not by the scoring arithmetic.

:class:`ColumnarSnapshot` freezes the numeric facets ranking actually
reads — bbox extents, time-interval endpoints, per-variable stats and an
interned variable-name table — into flat :mod:`array` columns keyed by a
dense row index, version-stamped like
:class:`~repro.catalog.store.CatalogSnapshot`.  :meth:`ColumnarSnapshot.arrays`
exposes the same buffers to numpy without copying.

:class:`ColumnarScorer` scores those rows in two stages:

1. :meth:`ColumnarScorer.approximate_totals` — one numpy array pass over
   the columns (location kernels, interval gap, decay shapes, variable
   terms reduced per CSR segment).  It reads query-independent columns
   derived once per view (:class:`ColumnArrays`): the trigonometry of
   the box edges, so the point location kernel runs no full-length
   sine or cosine, and an inverted name index, so a variable term
   visits only the entries whose name it matches.  numpy's
   transcendentals are not guaranteed to match libm bit for bit, and
   the location kernel takes its sines by the angle-difference
   identity, so these totals only *select* rows: every approximate
   total lies within :data:`APPROX_TOLERANCE` of the exact one.  The
   rows it proves bit-exact (see :meth:`ColumnarScorer.approximate_totals`)
   are counted without a rescore.
2. :meth:`ColumnarScorer.score_row_bounded` — the scalar kernels,
   reproducing :meth:`~repro.core.scoring.QueryScorer.score_bounded`
   **bit-identically**, rescore just the selected rows:

   * every scalar kernel is shared with the object path
     (:func:`~repro.geo.bbox.box_distance_km_to_point`,
     :func:`~repro.geo.timeinterval.interval_gap_seconds`,
     :func:`~repro.core.scoring.range_similarity_values`,
     :func:`~repro.core.scoring.name_similarity`) — one source of truth,
     so the floats cannot drift;
   * term weights, accumulation order, the top-k floor prune check and
     the :class:`~repro.core.scoring.ScoreBreakdown` construction mirror
     ``score_bounded`` operation for operation;
   * rows are laid out in sorted-dataset-id order — the order every
     store's ``dataset_ids()`` returns.

``tests/test_search_columnar.py`` pins columnar == object on ids,
scores, ordering and full breakdowns under Hypothesis;
``tests/test_search_vectorised.py`` bounds the stage-1 error and pins
the selection, ``total_matches`` and the column layout;
``tests/test_columnar_kernels.py`` holds the location kernel to the
scalar one over the whole globe and pins the derived columns.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterable, Sequence

import numpy as np

from ..geo import SECONDS_PER_DAY
from ..geo.bbox import box_distance_km_to_box, box_distance_km_to_point
from ..geo.point import EARTH_RADIUS_KM
from ..geo.timeinterval import interval_gap_seconds
from ..obs import get_telemetry
from .scoring import (
    QueryScorer,
    ScoreBreakdown,
    ScoringConfig,
    decay,
    name_similarity,
    range_similarity_values,
)


#: Bound on ``|approximate - exact|`` for one row's total.  Why the
#: array pass stays inside it, term by term:
#:
#: * time and variable terms run the scalar kernels' operations in the
#:   same order, so they differ only where numpy's ``exp`` rounds
#:   differently from libm's (a few ULP);
#: * the point location term is not the scalar's sequence of
#:   operations (see :func:`box_distance_km_to_point_array`), but the
#:   same haversine candidates from products of correctly rounded
#:   sines and cosines: each ``sin((edge - q)/2)`` is off by a few
#:   ULP of 1 (~1e-15), and ``sqrt(a)``, the length of the vector
#:   ``(sin(dlat/2), sqrt(cos cos) sin(dlon/2))``, by as little.  So
#:   the great-circle angle ``asin(sqrt(a))`` is off by ~1e-15 divided
#:   by ``sqrt(1 - a)``: at most ~5e-11 rad, 6e-7 km, because rows
#:   within :data:`ANTIPODAL_SLACK` of the antipode take the scalar
#:   kernel.  The region term runs the scalar's operations and the same
#:   antipode rule.  :data:`LOCATION_ERROR_KM` bounds both with headroom;
#: * a decay shape's slope is at most ``1 / scale``, and the weighted
#:   mean keeps totals in [0, 1].
#:
#: Over 200k random rows of the scalar-order pass the largest observed
#: gap was 2.2e-16 (one ULP of 1.0); the property tests in
#: ``tests/test_search_vectorised.py`` and
#: ``tests/test_columnar_kernels.py`` (global boxes: poles, antipodes,
#: interior meridian optima) pin both bounds.
APPROX_TOLERANCE = 1e-9

#: Bound on ``|array - scalar|`` of the point- and region-to-box
#: distances, in km (observed: below 1e-7 km).  It is also the margin
#: past the linear shape's cutoff beyond which a row's location term is
#: proven exactly 0 (see :func:`_zero_beyond_cutoff`).
LOCATION_ERROR_KM = 1e-5

#: Rows whose haversine term ``a`` lies within this of 1 (within ~0.4
#: km of the antipode) are measured by the scalar kernels: there
#: ``asin(sqrt(a))`` turns a rounding error of 1e-16 in ``a`` into up
#: to ~2e-4 km.
ANTIPODAL_SLACK = 1e-9

#: Name-similarity rows memoised per snapshot (see
#: :meth:`ColumnarSnapshot.name_similarities`); the memo is dropped
#: whole when it fills, which bounds it without LRU bookkeeping.
NAME_SIMS_MEMO_SIZE = 256

#: The columns :meth:`ColumnarSnapshot.arrays` exposes, with their
#: numpy dtype.  Per-row columns have ``len(view)`` entries,
#: ``var_offsets`` one more, and the per-variable columns
#: ``var_offsets[-1]``.
COLUMN_DTYPES = (
    ("min_lat", np.float64), ("min_lon", np.float64),
    ("max_lat", np.float64), ("max_lon", np.float64),
    ("t_start", np.float64), ("t_end", np.float64),
    ("var_offsets", np.int64), ("var_name_ids", np.int64),
    ("var_counts", np.int64), ("var_mins", np.float64),
    ("var_maxs", np.float64),
)


#: The query-independent columns :class:`ColumnArrays` derives once per
#: view (all float64, one entry per row): the half-angle sine and cosine
#: of every box edge, and the cosine and tangent of both latitude bounds.
#: ``sin_half_min_lat`` is ``sin(radians(min_lat) / 2)``, and so on.
DERIVED_COLUMNS = tuple(
    f"{fn}_half_{edge}"
    for edge in ("min_lat", "min_lon", "max_lat", "max_lon")
    for fn in ("sin", "cos")
) + ("cos_min_lat", "cos_max_lat", "tan_min_lat", "tan_max_lat")


def _read_only(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


class ColumnArrays:
    """Read-only numpy views over a snapshot's ``array`` columns.

    ``np.frombuffer`` shares the ``array`` buffers, so nothing is held
    twice; the views are marked read-only because the snapshot is
    frozen.  (An exported buffer also pins the ``array`` against
    resizing, which a frozen column never needs.)

    Derived once per view, so no query pays for them:

    * ``var_rows`` — the row of each per-variable entry, expanded from
      ``var_offsets``;
    * the :data:`DERIVED_COLUMNS` — the trigonometry of the box edges,
      from which a query's location kernel takes every per-row sine
      and cosine it needs by the angle-difference identity;
    * an inverted index over ``var_name_ids``: ``name_entries`` lists
      the per-variable entries grouped by interned name (ascending
      within a name), and name ``k``'s entries are
      ``name_entries[name_offsets[k]:name_offsets[k + 1]]``.
    """

    __slots__ = tuple(name for name, __ in COLUMN_DTYPES) + (
        "var_rows", "name_entries", "name_offsets",
    ) + DERIVED_COLUMNS

    def __init__(self, view: "ColumnarSnapshot") -> None:
        for name, dtype in COLUMN_DTYPES:
            column = np.frombuffer(getattr(view, name), dtype=dtype)
            setattr(self, name, _read_only(column))
        offsets = self.var_offsets
        self.var_rows = _read_only(np.repeat(
            np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets)
        ))
        for edge in ("min_lat", "min_lon", "max_lat", "max_lon"):
            half = np.radians(getattr(self, edge)) / 2.0
            setattr(self, f"sin_half_{edge}", _read_only(np.sin(half)))
            setattr(self, f"cos_half_{edge}", _read_only(np.cos(half)))
        for edge in ("min_lat", "max_lat"):
            angle = np.radians(getattr(self, edge))
            setattr(self, f"cos_{edge}", _read_only(np.cos(angle)))
            setattr(self, f"tan_{edge}", _read_only(np.tan(angle)))
        name_ids = self.var_name_ids
        self.name_entries = _read_only(
            np.argsort(name_ids, kind="stable").astype(np.int64, copy=False)
        )
        counts = np.bincount(name_ids, minlength=len(view.names))
        name_offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=name_offsets[1:])
        self.name_offsets = _read_only(name_offsets)

    def entries_named(self, name_ids: np.ndarray) -> np.ndarray:
        """The per-variable entries whose name is one of ``name_ids``,
        in ascending (row) order."""
        offsets = self.name_offsets
        entries = self.name_entries
        if len(name_ids) == 1:
            k = int(name_ids[0])
            return entries[offsets[k]:offsets[k + 1]]
        return np.sort(np.concatenate(
            [entries[offsets[k]:offsets[k + 1]] for k in name_ids.tolist()]
        ))


# -- stage 1: array twins of the scalar kernels --------------------------------
#
# Each mirrors its scalar kernel operation for operation (same formula,
# same evaluation order, Python's ``min``/``max`` NaN semantics spelled
# out with ``np.where``), so the only difference left is the rounding of
# numpy's transcendentals — see APPROX_TOLERANCE.


def _py_max(a, b):
    """Elementwise ``max(a, b)`` with Python's semantics (a unless b > a)."""
    return np.where(b > a, b, a)


def _py_min(a, b):
    """Elementwise ``min(a, b)`` with Python's semantics (a unless b < a)."""
    return np.where(b < a, b, a)


def _zero_beyond_cutoff(exact, scaled, shape: str, margin: float):
    """Narrow ``exact`` to the rows whose term is proven exactly 0.

    Only the linear shape reaches 0: ``max(0, 1 - d)`` is 0 for every
    ``d >= 1``.  A row whose array-pass scaled distance is above
    ``1 + margin``, with ``margin`` covering the array kernel's error
    in scaled units, is at or past the cutoff in the scalar kernel
    too, so both score the term exactly 0.0.  Returns None (no row
    bit-exact) for the other shapes, which never reach 0.
    """
    if exact is None or shape != "linear":
        return None
    return exact & (scaled > 1.0 + margin)


def decay_array(distance_in_scales: np.ndarray, shape: str) -> np.ndarray:
    """Array twin of :func:`~repro.core.scoring.decay`."""
    if shape == "exponential":
        return np.exp(-distance_in_scales)
    if shape == "reciprocal":
        return 1.0 / (1.0 + distance_in_scales)
    if shape == "linear":
        return _py_max(0.0, 1.0 - distance_in_scales)
    raise ValueError(f"unknown decay shape {shape!r}")


def _half_sin_sq(cols: ColumnArrays, edge: str, span: slice, sin_q, cos_q):
    """``sin((edge - q) / 2) ** 2`` per row, by the angle-difference
    identity over the edge's derived half-angle columns."""
    s = (
        getattr(cols, f"sin_half_{edge}")[span] * cos_q
        - getattr(cols, f"cos_half_{edge}")[span] * sin_q
    )
    return s * s


def box_distance_km_to_point_array(
    cols: ColumnArrays, start: int, stop: int, lat: float, lon: float
) -> np.ndarray:
    """Array twin of :func:`~repro.geo.bbox.box_distance_km_to_point`
    over the rows ``[start, stop)``.

    The same candidates as the scalar kernel — the clamped point, both
    meridian edges' optimum and their four corners — with their
    haversine terms ``sin**2(dlat/2) + cos(lat1) cos(lat2) sin**2(dlon/2)``
    built from the view's derived columns instead of per-row
    transcendentals:

    * each ``sin((edge - q) / 2)`` is ``sin(e/2) cos(q/2) - cos(e/2)
      sin(q/2)``; the clamped point's coordinates are the query's own
      or an edge's, so its term reuses the edge terms;
    * ``cos(lon - edge)`` is ``1 - 2 sin**2((lon - edge) / 2)``.  It
      only decides, against the ``tan`` columns, which rows' meridian
      optimum ``atan(tan(q) / cos(dlon))`` lies strictly inside the
      box's latitude band.  Elsewhere the clamped optimum is a corner,
      already a candidate; a row misjudged at the band's edge loses
      nothing, since the optimum is a stationary point.  Only the rows
      inside (and those with ``cos(dlon)`` near 0, where the scalar
      kernel falls back to the equator) run the scalar kernel's
      formula, ``arctan`` and all.

    The scalar kernel skips the edge candidates when the clamped point
    is already at distance 0; here they are always evaluated, which
    cannot change the minimum (every candidate term is >= 0).
    """
    span = slice(start, stop)
    min_lat, max_lat = cols.min_lat[span], cols.max_lat[span]
    min_lon, max_lon = cols.min_lon[span], cols.max_lon[span]
    phi1 = math.radians(lat)
    cos_phi1 = math.cos(phi1)
    tan_phi1 = math.tan(phi1)
    sin_q, cos_q = math.sin(phi1 / 2.0), math.cos(phi1 / 2.0)
    t_min = _half_sin_sq(cols, "min_lat", span, sin_q, cos_q)
    t_max = _half_sin_sq(cols, "max_lat", span, sin_q, cos_q)
    cc_min = cos_phi1 * cols.cos_min_lat[span]
    cc_max = cos_phi1 * cols.cos_max_lat[span]
    half_lon = math.radians(lon) / 2.0
    sin_q, cos_q = math.sin(half_lon), math.cos(half_lon)
    edges = (
        (min_lon, _half_sin_sq(cols, "min_lon", span, sin_q, cos_q)),
        (max_lon, _half_sin_sq(cols, "max_lon", span, sin_q, cos_q)),
    )
    below, above = lat < min_lat, lat > max_lat
    west, east = lon < min_lon, lon > max_lon
    best_a = (
        np.where(below, t_min, np.where(above, t_max, 0.0))
        + np.where(below, cc_min, np.where(above, cc_max, cos_phi1 ** 2))
        * np.where(west, edges[0][1], np.where(east, edges[1][1], 0.0))
    )
    tan_min, tan_max = cols.tan_min_lat[span], cols.tan_max_lat[span]
    for edge_lon, sin_sq_dlambda in edges:
        best_a = np.minimum(best_a, t_min + cc_min * sin_sq_dlambda)
        best_a = np.minimum(best_a, t_max + cc_max * sin_sq_dlambda)
        cos_dlon = 1.0 - 2.0 * sin_sq_dlambda
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = tan_phi1 / cos_dlon
        inside = (ratio > tan_min) & (ratio < tan_max)
        rows = np.flatnonzero(inside | (np.abs(cos_dlon) < 1e-11))
        if len(rows) == 0:
            continue
        lo_lat, hi_lat = min_lat[rows], max_lat[rows]
        cos_dlon = np.cos(np.radians(lon - edge_lon[rows]))
        with np.errstate(divide="ignore", invalid="ignore"):
            optimal = np.where(
                np.abs(cos_dlon) > 1e-12,
                np.degrees(np.arctan(tan_phi1 / cos_dlon)),
                0.0,
            )
        clamped = np.minimum(np.maximum(optimal, lo_lat), hi_lat)
        best_a[rows] = np.minimum(
            best_a[rows],
            np.sin(np.radians(clamped - lat) / 2.0) ** 2
            + cos_phi1 * np.cos(np.radians(clamped)) * sin_sq_dlambda[rows],
        )
    return _great_circle_km(
        best_a,
        lambda row: box_distance_km_to_point(
            float(min_lat[row]), float(min_lon[row]),
            float(max_lat[row]), float(max_lon[row]), lat, lon,
        ),
    )


def _great_circle_km(a: np.ndarray, scalar_km) -> np.ndarray:
    """``2 R asin(sqrt(a))`` per row of the haversine terms ``a``.

    Near the antipode ``asin(sqrt(a))`` is ill-conditioned (see
    :data:`ANTIPODAL_SLACK`); those rows, none on a regional catalog,
    take their distance from the scalar kernel, ``scalar_km(row)``.
    """
    antipodal = np.flatnonzero(a > 1.0 - ANTIPODAL_SLACK).tolist()
    a = np.minimum(1.0, np.maximum(0.0, a))
    distance_km = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))
    for row in antipodal:
        distance_km[row] = scalar_km(row)
    return distance_km


def box_distance_km_to_box_array(
    min_lat, min_lon, max_lat, max_lon, region
) -> np.ndarray:
    """Array twin of :func:`~repro.geo.bbox.box_distance_km_to_box`
    (then :func:`~repro.geo.point.haversine_km`) against one region."""
    apart = (
        (region.min_lat > max_lat)
        | (region.max_lat < min_lat)
        | (region.min_lon > max_lon)
        | (region.max_lon < min_lon)
    )
    lat1 = np.minimum(np.maximum(region.min_lat, min_lat), max_lat)
    lon1 = np.minimum(np.maximum(region.min_lon, min_lon), max_lon)
    lat2 = np.minimum(np.maximum(lat1, region.min_lat), region.max_lat)
    lon2 = np.minimum(np.maximum(lon1, region.min_lon), region.max_lon)
    a = (
        np.sin(np.radians(lat2 - lat1) / 2.0) ** 2
        + np.cos(np.radians(lat1)) * np.cos(np.radians(lat2))
        * np.sin(np.radians(lon2 - lon1) / 2.0) ** 2
    )
    distance = _great_circle_km(
        a,
        lambda row: box_distance_km_to_box(
            float(min_lat[row]), float(min_lon[row]),
            float(max_lat[row]), float(max_lon[row]),
            region.min_lat, region.min_lon, region.max_lat, region.max_lon,
        ),
    )
    return np.where(apart, distance, 0.0)


def interval_gap_seconds_array(
    a_start, a_end, b_start: float, b_end: float
) -> np.ndarray:
    """Array twin of :func:`~repro.geo.timeinterval.interval_gap_seconds`."""
    overlap = (a_start <= b_end) & (b_start <= a_end)
    gap = np.where(a_end < b_start, b_start - a_end, a_start - b_end)
    return np.where(overlap, 0.0, gap)


def range_similarity_array(
    term, counts, minimums, maximums, config
) -> tuple[np.ndarray, np.ndarray | None]:
    """Array twin of :func:`~repro.core.scoring.range_similarity_values`.

    Returns the similarities and a mask of the entries scored through
    the decay branch (None when none was) — the only one that calls a
    transcendental; every other entry is bit-identical to the scalar's.
    """
    if not term.has_range:
        return np.ones(len(counts)), None
    lo = np.full(len(counts), term.low) if term.low is not None else minimums
    hi = np.full(len(counts), term.high) if term.high is not None else maximums
    swap = lo > hi
    lo, hi = np.where(swap, hi, lo), np.where(swap, lo, hi)
    width = _py_max(hi - lo, 1e-9)
    overlap_lo = _py_max(lo, minimums)
    overlap_hi = _py_min(hi, maximums)
    # Both branches are evaluated everywhere; the one ``np.where``
    # discards may overflow or divide by zero harmlessly.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        inside = _py_min(1.0, (overlap_hi - overlap_lo) / width + 1e-12)
        outside = decay_array(
            (overlap_lo - overlap_hi) / (width * config.range_decay_fraction),
            config.decay_shape,
        )
    overlap = overlap_hi >= overlap_lo
    unscored = (counts == 0) | np.isnan(minimums)
    sim = np.where(unscored, 0.0, np.where(overlap, inside, outside))
    return sim, ~(overlap | unscored)


def _append_variables(
    feature,
    name_ids: dict,
    names: list,
    var_name_ids,
    var_counts,
    var_mins,
    var_maxs,
) -> int:
    """Append one feature's searchable variables to the CSR columns.

    The single source of truth for the per-feature inner loop: the cold
    ``__init__`` freeze and the incremental :meth:`freeze_from` both run
    it, so a refrozen row's CSR segment cannot drift from a cold one's.
    Returns the number of entries appended.
    """
    added = 0
    for entry in feature.variables:
        if entry.excluded:
            continue
        name_id = name_ids.get(entry.name)
        if name_id is None:
            name_id = len(names)
            name_ids[entry.name] = name_id
            names.append(entry.name)
        var_name_ids.append(name_id)
        var_counts.append(entry.count)
        var_mins.append(entry.minimum)
        var_maxs.append(entry.maximum)
        added += 1
    return added


def _name_sims_row(key: tuple, row: list, names: list) -> tuple:
    """A name-similarity memo entry for ``key``: ``row`` (the
    similarities of a prefix of ``names``, left untouched) extended
    over the rest of ``names``, as a list and a read-only array."""
    term_name, expansion, threshold = key
    config = ScoringConfig(name_partial_threshold=threshold)
    full = row + [
        name_similarity(term_name, name, expansion, config)
        for name in names[len(row):]
    ]
    return full, _read_only(np.array(full, dtype=np.float64))


def _carry_name_sims(memo: dict, names: list, kept: int) -> dict:
    """A spliced view's name-similarity memo, from its base's ``memo``.

    A splice only appends to the interned name table, and the first
    ``kept`` names are the base's, in order; so every memoised row
    stays valid for them and only the appended names are scored.  The
    base's rows are shared or extended into new lists, never mutated:
    in-flight queries over the base may still read them.
    """
    memo = memo.copy()  # one atomic read; the base's memo may change
    if len(names) == kept:
        return memo
    return {
        key: _name_sims_row(key, row, names)
        for key, (row, __) in memo.items()
    }


class ColumnarSnapshot:
    """Dataset facets frozen into flat columns keyed by dense row index.

    Immutable after construction (by convention — the arrays are never
    written again) and version-stamped with the source catalog's
    mutation counter, so engines can detect staleness in O(1) exactly as
    they do for :class:`~repro.catalog.store.CatalogSnapshot`.

    Variable stats use a CSR-style layout: row ``r``'s searchable
    variables (non-excluded, in position order — the order
    ``searchable_variables()`` yields) occupy the half-open slice
    ``var_offsets[r] : var_offsets[r + 1]`` of the flat per-variable
    columns, and ``var_name_ids`` indexes the interned ``names`` table.
    """

    __slots__ = (
        "version", "ids", "row_of",
        "min_lat", "min_lon", "max_lat", "max_lon",
        "t_start", "t_end",
        "var_offsets", "var_name_ids", "var_counts", "var_mins", "var_maxs",
        "names", "_arrays", "_name_sims",
    )

    def __init__(self, features: Iterable, version: int) -> None:
        feats = sorted(features, key=lambda f: f.dataset_id)
        self.version = version
        self.ids: list[str] = [f.dataset_id for f in feats]
        self.row_of: dict[str, int] = {
            dataset_id: row for row, dataset_id in enumerate(self.ids)
        }
        n = len(feats)
        self.min_lat = array("d", bytes(8 * n))
        self.min_lon = array("d", bytes(8 * n))
        self.max_lat = array("d", bytes(8 * n))
        self.max_lon = array("d", bytes(8 * n))
        self.t_start = array("d", bytes(8 * n))
        self.t_end = array("d", bytes(8 * n))
        self.var_offsets = array("q", bytes(8 * (n + 1)))
        name_ids: dict[str, int] = {}
        names: list[str] = []
        var_name_ids = array("q")
        var_counts = array("q")
        var_mins = array("d")
        var_maxs = array("d")
        total = 0
        for row, feature in enumerate(feats):
            bbox = feature.bbox
            interval = feature.interval
            self.min_lat[row] = bbox.min_lat
            self.min_lon[row] = bbox.min_lon
            self.max_lat[row] = bbox.max_lat
            self.max_lon[row] = bbox.max_lon
            self.t_start[row] = interval.start
            self.t_end[row] = interval.end
            total += _append_variables(
                feature, name_ids, names,
                var_name_ids, var_counts, var_mins, var_maxs,
            )
            self.var_offsets[row + 1] = total
        self.var_name_ids = var_name_ids
        self.var_counts = var_counts
        self.var_mins = var_mins
        self.var_maxs = var_maxs
        self.names = names
        self._arrays: ColumnArrays | None = None
        self._name_sims: dict = {}

    @classmethod
    def freeze(cls, features: Iterable, version: int) -> "ColumnarSnapshot":
        """Build a columnar view, recording the ``columnar.freeze`` span."""
        telemetry = get_telemetry()
        with telemetry.span("columnar.freeze"):
            view = cls(features, version=version)
        telemetry.count("columnar.freezes")
        return view

    @classmethod
    def freeze_from(
        cls,
        previous: "ColumnarSnapshot",
        upserted: Iterable,
        removed: Iterable[str],
        version: int,
    ) -> "ColumnarSnapshot":
        """Incremental refreeze: splice a delta into ``previous``.

        Rebuilds only the upserted rows; every unchanged row's scalars
        and CSR segment are copied straight out of ``previous`` by
        index, and the interned name table is *reused and extended*
        rather than re-derived.  The cost is O(rows) pointer work plus
        O(changed) feature traversal — no per-variable object walk for
        the unchanged majority.

        Exactness: rows stay in sorted-dataset-id order (a sorted merge
        of kept and fresh ids), so scan order matches a cold freeze.
        The name table may *permute* relative to a cold freeze of the
        same features (a name first seen by an earlier generation keeps
        its old id; cold freezing re-interns in first-encounter order),
        but scoring is invariant under that: similarities are computed
        per interned *name string* (``ColumnarScorer`` builds its
        term-sim table by name), never per id, so every row scores
        bit-identically.  ``tests/test_search_columnar.py`` pins this.

        The base's name-similarity memo is carried over: only the
        appended names are scored (see :func:`_carry_name_sims`), so
        the first query naming a term after a refresh skips the
        Levenshtein pass over the whole name table.

        Raises ``KeyError`` when ``previous`` does not contain a row the
        delta claims is unchanged — the caller treats that as an
        inconsistent base and falls back to a cold freeze.
        """
        telemetry = get_telemetry()
        changed = {}
        for feature in upserted:
            changed[feature.dataset_id] = feature
        drop = set(removed)
        drop.update(changed)
        with telemetry.span(
            "columnar.refreeze", upserted=len(changed), removed=len(drop) - len(changed)
        ):
            kept = [did for did in previous.ids if did not in drop]
            fresh = sorted(changed)
            # Sorted merge: kept ids are already sorted (a subsequence
            # of previous.ids), fresh ids are sorted above.
            ids: list[str] = []
            i = j = 0
            n_kept, n_fresh = len(kept), len(fresh)
            while i < n_kept and j < n_fresh:
                if kept[i] < fresh[j]:
                    ids.append(kept[i])
                    i += 1
                else:
                    ids.append(fresh[j])
                    j += 1
            ids.extend(kept[i:])
            ids.extend(fresh[j:])

            view = cls.__new__(cls)
            view.version = version
            view.ids = ids
            view.row_of = {
                dataset_id: row for row, dataset_id in enumerate(ids)
            }
            n = len(ids)
            view.min_lat = array("d", bytes(8 * n))
            view.min_lon = array("d", bytes(8 * n))
            view.max_lat = array("d", bytes(8 * n))
            view.max_lon = array("d", bytes(8 * n))
            view.t_start = array("d", bytes(8 * n))
            view.t_end = array("d", bytes(8 * n))
            view.var_offsets = array("q", bytes(8 * (n + 1)))
            names = list(previous.names)
            name_ids = {name: idx for idx, name in enumerate(names)}
            var_name_ids = array("q")
            var_counts = array("q")
            var_mins = array("d")
            var_maxs = array("d")

            prev_row_of = previous.row_of
            p_min_lat, p_min_lon = previous.min_lat, previous.min_lon
            p_max_lat, p_max_lon = previous.max_lat, previous.max_lon
            p_t_start, p_t_end = previous.t_start, previous.t_end
            p_offsets = previous.var_offsets
            p_name_ids = previous.var_name_ids
            p_counts = previous.var_counts
            p_mins = previous.var_mins
            p_maxs = previous.var_maxs

            total = 0
            reused = 0
            for row, dataset_id in enumerate(ids):
                feature = changed.get(dataset_id)
                if feature is None:
                    r = prev_row_of[dataset_id]  # KeyError: bad base
                    view.min_lat[row] = p_min_lat[r]
                    view.min_lon[row] = p_min_lon[r]
                    view.max_lat[row] = p_max_lat[r]
                    view.max_lon[row] = p_max_lon[r]
                    view.t_start[row] = p_t_start[r]
                    view.t_end[row] = p_t_end[r]
                    lo, hi = p_offsets[r], p_offsets[r + 1]
                    if hi > lo:
                        var_name_ids.extend(p_name_ids[lo:hi])
                        var_counts.extend(p_counts[lo:hi])
                        var_mins.extend(p_mins[lo:hi])
                        var_maxs.extend(p_maxs[lo:hi])
                        total += hi - lo
                    reused += 1
                else:
                    bbox = feature.bbox
                    interval = feature.interval
                    view.min_lat[row] = bbox.min_lat
                    view.min_lon[row] = bbox.min_lon
                    view.max_lat[row] = bbox.max_lat
                    view.max_lon[row] = bbox.max_lon
                    view.t_start[row] = interval.start
                    view.t_end[row] = interval.end
                    total += _append_variables(
                        feature, name_ids, names,
                        var_name_ids, var_counts, var_mins, var_maxs,
                    )
                view.var_offsets[row + 1] = total
            view.var_name_ids = var_name_ids
            view.var_counts = var_counts
            view.var_mins = var_mins
            view.var_maxs = var_maxs
            view.names = names
            view._arrays = None
            view._name_sims = _carry_name_sims(
                previous._name_sims, names, len(previous.names)
            )
        if telemetry.enabled:
            telemetry.count("columnar.refreezes")
            telemetry.count("columnar.rows_refrozen", len(changed))
            telemetry.count("columnar.rows_reused", reused)
        return view

    def __len__(self) -> int:
        return len(self.ids)

    def arrays(self) -> ColumnArrays:
        """Zero-copy read-only numpy views of the columns (built once).

        Two threads racing the first call build equal views over the
        same buffers; either may win.
        """
        arrays = self._arrays
        if arrays is None:
            arrays = self._arrays = ColumnArrays(self)
        return arrays

    def name_similarities(
        self, term_name: str, expansion: set[str], config
    ) -> tuple[list[float], np.ndarray]:
        """:func:`~repro.core.scoring.name_similarity` of one query term
        against every interned name, as a list (for the scalar kernels)
        and an array (for the array pass).

        Memoised by content — the term name, its hierarchy expansion
        and ``name_partial_threshold``, the only inputs the similarity
        reads — so every query naming the same term skips the
        Levenshtein work.  Never keyed by object identity: a freed
        hierarchy's address may be reused by a different one.
        """
        key = (term_name, frozenset(expansion), config.name_partial_threshold)
        memo = self._name_sims
        sims = memo.get(key)
        if sims is None:
            sims = _name_sims_row(key, [], self.names)
            if len(memo) >= NAME_SIMS_MEMO_SIZE:
                memo.clear()
            memo[key] = sims
        return sims


class ColumnarScorer:
    """Scores :class:`ColumnarSnapshot` rows: approximately over arrays
    (stage 1), and bit-identically to the wrapped
    :class:`~repro.core.scoring.QueryScorer` row by row (stage 2).

    Wraps the query's object scorer so the precomputed term weights,
    hierarchy expansions and use-flags are literally the same values the
    object path divides and prunes with.  The per-(term, interned-name)
    similarity table comes from the snapshot's content-keyed memo
    (:meth:`ColumnarSnapshot.name_similarities`) — the interned name
    table is small (unique variable names across the catalog), so the
    scorer builds its per-term rows once per query rather than per
    row.
    """

    __slots__ = ("scorer", "view", "_term_sims", "_term_sim_arrays")

    def __init__(self, scorer: QueryScorer, view: ColumnarSnapshot) -> None:
        self.scorer = scorer
        self.view = view
        self._term_sims: list[list[float]] = []
        self._term_sim_arrays: list[np.ndarray] = []
        if scorer._use_variables:
            for index, term in enumerate(scorer.query.variables):
                row, array_row = view.name_similarities(
                    term.name, scorer._expansions[index], scorer.config
                )
                self._term_sims.append(row)
                self._term_sim_arrays.append(array_row)

    def approximate_totals(
        self, rows: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Stage 1: every row's total, approximately, in ``rows`` order.

        One array pass over the rows' span of the columns; each value
        lies within :data:`APPROX_TOLERANCE` of what
        :meth:`score_row_bounded` returns unbounded.  The second array
        marks the rows whose value is *bit-identical* to it (None when
        no row's can be): a row whose variable entries never went
        through the range decay ran only correctly rounded arithmetic,
        in the scalar kernels' order, and its location and time terms,
        if the query has them, must be proven exactly 0 — which only
        the linear shape reaches, past its cutoff.  So a linear-decay
        query counts its far rows as exact zeros without a rescore.
        """
        if isinstance(rows, range) and rows.step == 1:
            return self._span_totals(rows.start, rows.stop)
        picked = np.asarray(rows, dtype=np.int64)
        if len(picked) == 0:
            return np.zeros(0), None
        start = int(picked.min())
        totals, exact = self._span_totals(start, int(picked.max()) + 1)
        local = picked - start
        return totals[local], None if exact is None else exact[local]

    def _span_totals(
        self, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """:meth:`approximate_totals` of the rows ``[start, stop)``."""
        scorer = self.scorer
        config = scorer.config
        query = scorer.query
        shape = config.decay_shape
        cols = self.view.arrays()
        n = max(0, stop - start)
        if scorer._total_weight <= 0:
            return np.ones(n), np.ones(n, dtype=bool)
        # A row stays bit-exact while each term is: a location or time
        # term only where it is proven exactly 0, see _zero_beyond_cutoff.
        exact = np.ones(n, dtype=bool)
        weighted_sum = np.zeros(n)
        if scorer._use_location:
            if query.location is not None:
                distance_km = box_distance_km_to_point_array(
                    cols, start, stop,
                    query.location.lat, query.location.lon,
                )
            else:
                distance_km = box_distance_km_to_box_array(
                    cols.min_lat[start:stop], cols.min_lon[start:stop],
                    cols.max_lat[start:stop], cols.max_lon[start:stop],
                    query.region,
                )
            scaled = distance_km / config.location_decay_km
            weighted_sum += config.location_weight * decay_array(scaled, shape)
            exact = _zero_beyond_cutoff(
                exact, scaled, shape,
                LOCATION_ERROR_KM / config.location_decay_km,
            )
        if scorer._use_time:
            interval = query.interval
            gap_days = interval_gap_seconds_array(
                cols.t_start[start:stop], cols.t_end[start:stop],
                interval.start, interval.end,
            ) / SECONDS_PER_DAY
            scaled = gap_days / config.time_decay_days
            weighted_sum += config.time_weight * decay_array(scaled, shape)
            exact = _zero_beyond_cutoff(exact, scaled, shape, 0.0)
        if scorer._use_variables:
            lo = int(cols.var_offsets[start])
            hi = int(cols.var_offsets[stop])
            for index, term in enumerate(query.variables):
                # Only entries whose name matches can score: an entry
                # with a zero name similarity contributes exactly 0 (the
                # scalar loop skips it), so a pass over the matching
                # entries alone gives bit-identical totals and ``exact``.
                # The inverted index lists them without a gather over
                # every entry.
                sims_by_name = self._term_sim_arrays[index]
                matched = np.flatnonzero(sims_by_name)
                best = np.zeros(n)
                entries = cols.entries_named(matched) if len(matched) else ()
                if len(entries) and (lo > 0 or hi < len(cols.var_name_ids)):
                    first, last = np.searchsorted(entries, (lo, hi))
                    entries = entries[first:last]
                if len(entries):
                    range_sims, decayed = range_similarity_array(
                        term,
                        cols.var_counts[entries],
                        cols.var_mins[entries],
                        cols.var_maxs[entries],
                        config,
                    )
                    name_sims = sims_by_name[cols.var_name_ids[entries]]
                    sims = name_sims * range_sims
                    # The scalar loop keeps its best only on
                    # ``sim > best``, so a NaN similarity never wins.
                    sims[np.isnan(sims)] = 0.0
                    # Entries are in row order, so each row's hits form
                    # one run; reduce every run to its row's best.
                    hit_rows = cols.var_rows[entries] - start
                    runs = np.flatnonzero(
                        np.concatenate(([True], hit_rows[1:] != hit_rows[:-1]))
                    )
                    best[hit_rows[runs]] = np.maximum.reduceat(sims, runs)
                    if exact is not None and decayed is not None:
                        # A decayed entry with a name match costs its
                        # row the bit-exact guarantee.
                        exact[hit_rows[decayed]] = False
                weighted_sum += (config.variable_weight * term.weight) * best
        return weighted_sum / scorer._total_weight, exact

    def score_row_bounded(
        self, row: int, floor: tuple[float, str] | None
    ) -> tuple[ScoreBreakdown | None, bool]:
        """Columnar twin of :meth:`QueryScorer.score_bounded`.

        Same contract: ``(breakdown, known_positive)``, with ``None``
        instead of a breakdown when the top-k floor proves the row
        cannot make the page.
        """
        scorer = self.scorer
        config = scorer.config
        query = scorer.query
        view = self.view
        shape = config.decay_shape
        weighted_sum = 0.0
        loc_sim: float | None = None
        time_sim: float | None = None
        var_sims: list[tuple[str, float]] = []

        if scorer._use_location:
            if query.location is not None:
                distance_km = box_distance_km_to_point(
                    view.min_lat[row], view.min_lon[row],
                    view.max_lat[row], view.max_lon[row],
                    query.location.lat, query.location.lon,
                )
            else:
                region = query.region
                distance_km = box_distance_km_to_box(
                    view.min_lat[row], view.min_lon[row],
                    view.max_lat[row], view.max_lon[row],
                    region.min_lat, region.min_lon,
                    region.max_lat, region.max_lon,
                )
            loc_sim = decay(
                distance_km / config.location_decay_km, shape
            )
            weighted_sum += config.location_weight * loc_sim
        if scorer._use_time:
            interval = query.interval
            gap_days = interval_gap_seconds(
                view.t_start[row], view.t_end[row],
                interval.start, interval.end,
            ) / SECONDS_PER_DAY
            time_sim = decay(gap_days / config.time_decay_days, shape)
            weighted_sum += config.time_weight * time_sim
        if scorer._use_variables:
            if floor is not None and scorer._total_weight > 0:
                # Best possible total: every variable term scores 1.0.
                best_total = (
                    weighted_sum + scorer._variables_weight
                ) / scorer._total_weight
                floor_score, floor_id = floor
                if best_total < floor_score or (
                    best_total == floor_score
                    and view.ids[row] > floor_id
                ):
                    return None, weighted_sum > 0.0
            lo = view.var_offsets[row]
            hi = view.var_offsets[row + 1]
            name_ids = view.var_name_ids
            counts = view.var_counts
            mins = view.var_mins
            maxs = view.var_maxs
            for index, term in enumerate(query.variables):
                sims = self._term_sims[index]
                best = 0.0
                for k in range(lo, hi):
                    n_sim = sims[name_ids[k]]
                    if n_sim == 0.0:
                        continue
                    sim = n_sim * range_similarity_values(
                        term, counts[k], mins[k], maxs[k], config
                    )
                    if sim > best:
                        best = sim
                        if best >= 1.0:
                            break
                var_sims.append((term.name, best))
                w = config.variable_weight * term.weight
                weighted_sum += w * best

        total = (
            weighted_sum / scorer._total_weight
            if scorer._total_weight > 0 else 1.0
        )
        breakdown = ScoreBreakdown(
            total=total,
            location=loc_sim,
            time=time_sim,
            variables=tuple(var_sims),
        )
        return breakdown, total > 0.0

    def score_row(self, row: int) -> ScoreBreakdown:
        """Unbounded scoring of one row (always returns a breakdown)."""
        breakdown, __ = self.score_row_bounded(row, None)
        return breakdown
