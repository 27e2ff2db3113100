"""Vehicle-level sample construction and model-ready encoding.

Curated person rows are aggregated to one sample per unit (target = most
severe injury among the unit's occupants), filtered to passenger-like
vehicles, then imputed and encoded: numeric pass-through with mean
imputation, cyclical sin/cos pairs, and one-hot blocks over training-time
vocabularies with an explicit "missing" level.
"""

from __future__ import annotations

import json
import logging
import math
import operator
import os
import struct
from dataclasses import dataclass, field
from itertools import groupby
from typing import Iterable, Optional, Sequence

import numpy as np

from .ingest import (
    CrashOrderError,
    InputFileError,
    MemoTable,
    PersonRow,
    PersonType,
    SeverityClass,
    json_int,
    json_strings,
    max_severity,
    read_fields,
    read_json_file,
)

log = logging.getLogger(__name__)

__all__ = [
    "SEVERE",
    "NON_SEVERE",
    "VehicleSamples",
    "AggregationConfig",
    "PreprocessModel",
    "ColumnInfo",
    "FeatureMatrix",
    "EncodedMatrix",
    "binarize_severity",
    "build_vehicle_samples",
    "filter_passenger_vehicles",
    "drop_postcrash_features",
    "fit_preprocess",
    "encode",
    "save_matrix",
    "load_matrix",
]

SEVERE = "Severe"
NON_SEVERE = "NonSevere"

MISSING_LEVEL = "missing"
NONE_LEVEL = "none"


def binarize_severity(s: SeverityClass) -> str:
    """Severe = {SuspectedSeriousInjury, Fatal}; the other three are NonSevere."""
    if s is SeverityClass.UNKNOWN:
        raise ValueError("Unknown severity cannot be binarized")
    if s in (SeverityClass.SUSPECTED_SERIOUS_INJURY, SeverityClass.FATAL):
        return SEVERE
    return NON_SEVERE


class VehicleSamples:
    """Vehicle-level samples in columns: entry i of every list is sample i.

    ``numeric`` and ``categorical`` map each feature name to its column, in
    which None and "" are missing values."""

    def __init__(self, crash_id: list[str], unit_vin: list[str], target: list[str],
                 numeric: dict[str, list[Optional[float]]], categorical: dict[str, list[str]]):
        if any(len(column) != len(target) for column in
               (crash_id, unit_vin, *numeric.values(), *categorical.values())):
            raise ValueError("every sample column must hold one entry per target")
        if any(v is not None and v < 1 for v in numeric.get("NumberOfOccupants", ())):
            raise ValueError("NumberOfOccupants must be at least 1")
        self.crash_id = crash_id
        self.unit_vin = unit_vin
        self.target = target
        self.numeric = numeric
        self.categorical = categorical

    def __len__(self) -> int:
        return len(self.target)

    def keep(self, indices: Sequence[int]) -> "VehicleSamples":
        """Keep only the samples at ``indices``, in that order, and return
        these samples. Each column is replaced in place as its subset is
        built, so at most one column is held twice. An index out of range
        raises IndexError before any column changes."""
        n = len(self)
        if len(indices) and not (-n <= min(indices) and max(indices) < n):
            raise IndexError(f"a sample index is out of range for {n} samples")

        def pick(column: list) -> list:
            return [column[i] for i in indices]

        self.crash_id = pick(self.crash_id)
        self.unit_vin = pick(self.unit_vin)
        self.target = pick(self.target)
        for columns in (self.numeric, self.categorical):
            for name, column in columns.items():
                columns[name] = pick(column)
        return self


def _norm_type(value: str) -> str:
    return "".join(ch for ch in value.casefold() if ch.isalnum())


DEFAULT_PASSENGER_TYPES = frozenset(
    {"passengercar", "suv", "multipurposepassengervehicle", "multipurposepassengervehiclempv"}
)

DEFAULT_POSTCRASH_DENYLIST = (
    "MostHarmfulEvent",
    "NumberOfFatalities",
    "NumberOfInjuries",
    "CrashSeverity",
)


@dataclass
class AggregationConfig:
    """Which raw columns become vehicle features, and how."""

    numeric_attrs: tuple[str, ...] = ("PostedSpeed",)
    categorical_attrs: tuple[str, ...] = (
        "DriverCondition",
        "DriverDistraction",
        "DriverGender",
        "Belted",
        "Location",
        "RoadContour",
        "AnimalRelated",
        "ContributingCircumstance",
        "PreCrashAction",
        "AlcoholRelated",
        "DrugRelated",
    )
    cyclical_periods: dict[str, float] = field(
        default_factory=lambda: {"CrashMonth": 12.0, "CrashWeekDay": 7.0, "CrashTime24h": 24.0}
    )
    passenger_types: frozenset = DEFAULT_PASSENGER_TYPES
    postcrash_denylist: tuple[str, ...] = DEFAULT_POSTCRASH_DENYLIST
    n_interacting_slots: int = 5

    def __post_init__(self) -> None:
        if not all(0 < p < math.inf for p in self.cyclical_periods.values()):
            raise ValueError(f"cyclical periods must be finite and > 0: {self.cyclical_periods}")
        if self.n_interacting_slots < 0:
            raise ValueError(f"n_interacting_slots must be >= 0: {self.n_interacting_slots}")

    @classmethod
    def from_file(cls, path) -> "AggregationConfig":
        """The defaults overlaid with JSON file ``path``; a malformed file, a
        top level that is not an object, a repeated or unknown key, or a value
        of the wrong JSON type or out of range raises InputFileError."""
        readers = {
            "numeric_attrs": lambda names: tuple(json_strings(names)),
            "categorical_attrs": lambda names: tuple(json_strings(names)),
            "cyclical_periods": lambda periods: {k: _json_number(v) for k, v in periods.items()},
            "passenger_types": lambda types: frozenset(map(_norm_type, json_strings(types))),
            "postcrash_denylist": lambda names: tuple(json_strings(names)),
            "n_interacting_slots": json_int,
        }
        return read_json_file(path, "aggregation config",
                              lambda raw: cls(**read_fields(raw, readers)))


def _json_number(value) -> float:
    """A JSON number as a float; ``true`` or a string is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"not a number: {value!r}")
    return float(value)


def _time_of_day_hours(crash_time: Optional[str]) -> Optional[float]:
    """'HH:MM' (or 'HH:MM:SS') to fractional hours; an hour outside 0-23 or
    a minute outside 0-59 (such as the unknown-time code 99:99) is missing."""
    if not crash_time:
        return None
    parts = crash_time.strip().split(":")
    try:
        hours = int(parts[0])
        minutes = int(parts[1]) if len(parts) > 1 else 0
    except (ValueError, IndexError):
        return None
    if not (0 <= hours <= 23 and 0 <= minutes <= 59):
        return None
    return hours + minutes / 60.0


def _parse_float(value: str) -> Optional[float]:
    """A finite float, or None: a blank, unparseable, NaN or infinite value
    (1e400 overflows to inf) would poison its column's imputed mean."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        return None
    return number if math.isfinite(number) else None


def build_vehicle_samples(
    rows: Iterable[PersonRow],
    config: Optional[AggregationConfig] = None,
) -> VehicleSamples:
    """Aggregate curated person rows into one sample per unit, one crash at
    a time.

    ``rows`` come in curate's order: each crash's rows together, and the
    crashes in increasing crash id order. A crash id that is not greater
    than the one before it raises CrashOrderError naming the crash and its
    line. Only the current crash's rows are held, so ``rows`` may be a
    generator over a file of any size.

    The target is the most severe injury among the unit's occupants;
    driver attributes copy onto the vehicle record; occupant ages collapse
    to min/mean/max; up to five other units in the crash fill interacting
    type/model/year slots ordered by VIN, absent slots reading "none".
    Units whose severities are all Unknown are excluded.
    """
    cfg = config or AggregationConfig()
    # the interacting-slot columns, three per slot
    slot_names = [
        f"Interacting{part}{slot}"
        for slot in range(1, cfg.n_interacting_slots + 1)
        for part in ("UnitType", "VehicleModel", "VehicleYear")
    ]
    # equal values share one object: floats of equal ints or means (never
    # -0.0 or NaN here), and each distinct raw string's parse or strip
    year_levels = MemoTable(str)
    as_float = MemoTable(float)
    floats = MemoTable(_parse_float)
    hours = MemoTable(_time_of_day_hours)
    stripped = MemoTable(str.strip)
    skipped: list[tuple[str, str]] = []
    excluded: list[tuple[str, str]] = []

    crash_ids: list[str] = []
    vins: list[str] = []
    targets: list[str] = []
    numeric_columns: dict[str, list[Optional[float]]] = {}
    categorical_columns: dict[str, list[str]] = {}

    def add_crash(crash_id: str, crash_rows: Iterable[PersonRow]) -> None:
        """The samples of one crash's units, appended to the columns."""
        units: dict[str, list[PersonRow]] = {}
        for p in crash_rows:
            units.setdefault(p.unit_id or p.unit_vin, []).append(p)
        # each unit's levels when it fills another unit's slot, by VIN
        slot_levels = {}
        for unit in sorted(units, key=lambda u: (units[u][0].unit_vin, u)):
            lead = units[unit][0]
            slot_levels[unit] = (
                lead.unit_type or MISSING_LEVEL,
                lead.vehicle_model or MISSING_LEVEL,
                year_levels[lead.vehicle_year] if lead.vehicle_year else MISSING_LEVEL,
            )

        for unit in sorted(units):
            persons = units[unit]
            drivers = [p for p in persons if p.person_type is PersonType.DRIVER]
            if len(drivers) != 1:
                skipped.append((crash_id, unit))
                continue
            driver = drivers[0]
            worst = max_severity(p.severity for p in persons)
            if worst is None:
                excluded.append((crash_id, unit))
                continue

            ages = [
                as_float[p.reported_age]
                for p in persons
                if p.reported_age is not None and not p.age_invalid
            ]
            numeric: dict[str, Optional[float]] = {
                "DriverAge": (
                    as_float[driver.reported_age]
                    if driver.reported_age is not None and not driver.age_invalid
                    else None
                ),
                "OccupantsMinAge": min(ages) if ages else None,
                "OccupantsMeanAge": as_float[sum(ages) / len(ages)] if ages else None,
                "OccupantsMaxAge": max(ages) if ages else None,
                "NumberOfOccupants": as_float[len(persons)],
                "VehicleYear": as_float[driver.vehicle_year] if driver.vehicle_year else None,
            }
            for attr in cfg.numeric_attrs:
                numeric[attr] = floats[driver.raw_attributes.get(attr, "")]
            if "CrashMonth" in cfg.cyclical_periods:
                numeric["CrashMonth"] = (
                    as_float[driver.crash_date.month] if driver.crash_date else None
                )
            if "CrashWeekDay" in cfg.cyclical_periods:
                numeric["CrashWeekDay"] = (
                    as_float[driver.crash_date.weekday()] if driver.crash_date else None
                )
            if "CrashTime24h" in cfg.cyclical_periods:
                numeric["CrashTime24h"] = hours[driver.crash_time]

            categorical: dict[str, str] = {"UnitType": driver.unit_type}
            for attr in cfg.categorical_attrs:
                categorical[attr] = stripped[driver.raw_attributes.get(attr, "")]

            others = [u for u in slot_levels if u != unit][: cfg.n_interacting_slots]
            levels = [level for u in others for level in slot_levels[u]]
            levels += [NONE_LEVEL] * (len(slot_names) - len(levels))
            categorical.update(zip(slot_names, levels))

            if not targets:  # every unit lists the same features in this order
                numeric_columns.update((name, []) for name in numeric)
                categorical_columns.update((name, []) for name in categorical)
            crash_ids.append(crash_id)
            vins.append(persons[0].unit_vin)
            targets.append(binarize_severity(worst))
            for column, value in zip(numeric_columns.values(), numeric.values(), strict=True):
                column.append(value)
            for column, level in zip(categorical_columns.values(), categorical.values(),
                                     strict=True):
                column.append(level)

    previous: Optional[str] = None
    for crash_id, crash_rows in groupby(rows, key=operator.attrgetter("crash_id")):
        if previous is not None and crash_id <= previous:
            raise CrashOrderError(
                f"input line {next(crash_rows).line_number}: crash {crash_id!r} follows crash "
                f"{previous!r}, out of curate's crash id order; curate the file again to "
                "order it"
            )
        previous = crash_id
        # a call per crash: its rows are freed before the next crash is read
        add_crash(crash_id, crash_rows)
    if skipped:
        log.warning("%d units skipped: not exactly one driver after curation (first: %s)",
                    len(skipped), _first_keys(skipped))
    if excluded:
        log.info("%d units excluded: all severities Unknown (first: %s)",
                 len(excluded), _first_keys(excluded))
    return VehicleSamples(crash_ids, vins, targets, numeric_columns, categorical_columns)


def _first_keys(keys: Sequence[tuple[str, str]], n: int = 3) -> str:
    """The first ``n`` unit keys, for a log line that counts many units."""
    shown = ", ".join("/".join(key) for key in keys[:n])
    return shown + (", ..." if len(keys) > n else "")


def filter_passenger_vehicles(
    samples: VehicleSamples,
    passenger_types: frozenset = DEFAULT_PASSENGER_TYPES,
) -> VehicleSamples:
    """Keep samples whose own unit type is passenger-like, in place (see
    ``VehicleSamples.keep``), and return them.

    Interacting-unit slots keep all vehicle types; only the subject vehicle
    is filtered.
    """
    passenger = MemoTable(lambda unit_type: _norm_type(unit_type) in passenger_types)
    unit_types = enumerate(samples.categorical.get("UnitType", ()))
    return samples.keep([i for i, unit_type in unit_types if passenger[unit_type]])


def drop_postcrash_features(
    feature_names: Sequence[str],
    denylist: Sequence[str] = DEFAULT_POSTCRASH_DENYLIST,
) -> tuple[list[str], list[str]]:
    """Remove post-crash outcome columns before any modeling.

    Returns (kept, removed); a denylisted name absent from the schema only
    warns.
    """
    names = set(feature_names)
    removed = [d for d in denylist if d in names]
    for d in denylist:
        if d not in names:
            log.warning("post-crash denylist entry %r not present in schema", d)
    kept = [n for n in feature_names if n not in set(removed)]
    if removed:
        log.info("dropped post-crash columns: %s", ", ".join(removed))
    return kept, removed


# ---------------------------------------------------------------------------
# Fitted preprocessing model

PREPROCESS_FORMAT_VERSION = 1


@dataclass
class PreprocessModel:
    """Imputation means, vocabularies, and cyclical periods fitted on training rows."""

    numeric_order: list[str]
    cyclical_order: list[str]
    categorical_order: list[str]
    numeric_means: dict[str, float]
    vocabularies: dict[str, list[str]]
    cyclical_periods: dict[str, float]
    dropped_numeric: list[str]
    removed_postcrash: list[str]
    version: int = PREPROCESS_FORMAT_VERSION

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.__dict__, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "PreprocessModel":
        """The model ``save`` wrote to ``path``; a file that is not one, or of
        another format version, raises InputFileError."""

        def build(raw) -> "PreprocessModel":
            if raw.get("version") != PREPROCESS_FORMAT_VERSION:
                raise ValueError(f"unsupported preprocess model version {raw.get('version')!r}")
            return cls(**raw)

        return read_json_file(path, "preprocess model", build)


def _level(raw: str) -> str:
    """The vocabulary level of a raw categorical value."""
    return raw.strip() or MISSING_LEVEL


def fit_preprocess(
    samples: VehicleSamples,
    config: Optional[AggregationConfig] = None,
) -> PreprocessModel:
    """Fit imputation means and vocabularies on training samples only."""
    if not samples:
        raise ValueError("cannot fit preprocessing on zero samples")
    cfg = config or AggregationConfig()

    _, removed = drop_postcrash_features([*samples.numeric, *samples.categorical],
                                         cfg.postcrash_denylist)
    numeric_names = sorted(n for n in samples.numeric if n not in removed)
    categorical_names = sorted(n for n in samples.categorical if n not in removed)

    cyclical = [n for n in numeric_names if n in cfg.cyclical_periods]
    plain_numeric = [n for n in numeric_names if n not in cfg.cyclical_periods]

    means: dict[str, float] = {}
    dropped: list[str] = []
    for name in plain_numeric + cyclical:
        values = [v for v in samples.numeric[name] if v is not None]
        if not values:
            dropped.append(name)
            log.warning("numeric column %r is all-missing on training rows; dropped", name)
            continue
        means[name] = float(sum(values) / len(values))

    # a "missing" level exists only where missing values were actually seen,
    # so a fully observed feature one-hots into exactly its observed levels
    vocabularies = {name: sorted({_level(v) for v in set(samples.categorical[name])})
                    for name in categorical_names}

    return PreprocessModel(
        numeric_order=[n for n in plain_numeric if n not in dropped],
        cyclical_order=[n for n in cyclical if n not in dropped],
        categorical_order=categorical_names,
        numeric_means=means,
        vocabularies=vocabularies,
        cyclical_periods={n: cfg.cyclical_periods[n] for n in cyclical},
        dropped_numeric=dropped,
        removed_postcrash=sorted(set(removed)),
    )


# ---------------------------------------------------------------------------
# Encoded matrix


@dataclass(frozen=True)
class ColumnInfo:
    name: str
    kind: str  # numeric | onehot | cyc_sin | cyc_cos
    source: str
    level: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "source": self.source, "level": self.level}


class FeatureMatrix:
    """Row-major float64 design matrix with column descriptors and 0/1 labels."""

    def __init__(self, X: np.ndarray, y: np.ndarray, columns: list[ColumnInfo]):
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int8)
        if X.ndim != 2 or X.shape[0] != y.size or X.shape[1] != len(columns):
            raise ValueError("matrix, labels, and descriptors disagree on shape")
        self.X = X
        self.y = y
        self.columns = list(columns)
        self._row_hook = None  # set by the orchestrator to track row access
        # source feature -> its read-only column indices, in first-appearance order
        groups: dict[str, list[int]] = {}
        for i, c in enumerate(self.columns):
            groups.setdefault(c.source, []).append(i)
        self.groups = {s: np.array(idx, dtype=np.intp) for s, idx in groups.items()}
        for idx in self.groups.values():
            idx.flags.writeable = False

    @classmethod
    def from_arrays(cls, X, y, names: Optional[Sequence[str]] = None) -> "FeatureMatrix":
        X = np.asarray(X, dtype=np.float64)
        if names is None:
            width = len(str(max(X.shape[1] - 1, 0)))
            names = [f"f{i:0{width}d}" for i in range(X.shape[1])]
        cols = [ColumnInfo(name=n, kind="numeric", source=n) for n in names]
        return cls(X, y, cols)

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_cols(self) -> int:
        return self.X.shape[1]

    def group_names(self) -> list[str]:
        return list(self.groups)

    def group_columns(self, sources: str | Sequence[str]) -> np.ndarray:
        """The column indices of one source feature (read-only), or those of
        a sequence of them, concatenated in the order given."""
        if not isinstance(sources, str):
            return np.concatenate([np.empty(0, dtype=np.intp),
                                   *(self.group_columns(s) for s in sources)])
        try:
            return self.groups[sources]
        except KeyError:
            raise KeyError(f"no columns for source feature {sources!r}") from None

    def take_rows(self, idx) -> "FeatureMatrix":
        idx = np.asarray(idx, dtype=np.intp)
        if self._row_hook is not None:
            self._row_hook(idx)
        return FeatureMatrix(self.X[idx], self.y[idx], self.columns)

    def take_groups(self, sources: Sequence[str]) -> "FeatureMatrix":
        cols = self.group_columns(sources)
        return FeatureMatrix(self.X[:, cols], self.y, [self.columns[i] for i in cols])


class EncodedMatrix:
    """An encoded matrix in compact form, one array per source feature.

    ``values`` holds the leading numeric, sin and cos columns of ``X``, one
    imputed float64 vector each, in column order. ``codes`` holds each
    categorical group as (its first column, one level code per row), where a
    code indexes the group's vocabulary and -1 marks a level outside it (an
    all-zero block). ``_expand`` writes rows of the dense row-major ``X`` from
    them; nothing else builds that layout.
    """

    def __init__(self, values: list[np.ndarray], codes: list[tuple[int, np.ndarray]],
                 y: np.ndarray, columns: list[ColumnInfo]):
        self.values = values
        self.codes = codes
        self.y = y
        self.columns = columns
        self.n_rows = int(y.size)
        self.n_cols = len(columns)

    def group_names(self) -> list[str]:
        return list(dict.fromkeys(c.source for c in self.columns))

    def _expand(self, start: int, out: np.ndarray) -> np.ndarray:
        """Write rows ``start`` to ``start + len(out)`` of ``X`` into ``out``
        and return it."""
        stop = start + out.shape[0]
        out.fill(0.0)
        for j, column in enumerate(self.values):
            out[:, j] = column[start:stop]
        for first, codes in self.codes:
            block = codes[start:stop]
            rows = np.flatnonzero(block >= 0)
            out[rows, first + block[rows]] = 1.0
        return out

    def row_blocks(self):
        """``X`` in consecutive blocks of at most ``SAVE_BLOCK_ROWS`` rows,
        each expanded into the same buffer, which the next block overwrites."""
        step = max(1, min(SAVE_BLOCK_ROWS, self.n_rows))
        buffer = np.empty((step, self.n_cols), dtype=np.float64)
        for start in range(0, self.n_rows, step):
            yield self._expand(start, buffer[: min(step, self.n_rows - start)])

    @property
    def X(self) -> np.ndarray:
        """The dense ``X``, expanded whole."""
        return self._expand(0, np.empty((self.n_rows, self.n_cols), dtype=np.float64))


def encode(samples: VehicleSamples, model: PreprocessModel) -> EncodedMatrix:
    """Apply a fitted PreprocessModel: impute, cyclical-transform, one-hot.

    Unseen categorical levels produce an all-zero block (counted and logged);
    in-vocabulary encoding is lossless. The result is compact: one vector per
    numeric, sin and cos column and one vector of level codes per categorical
    feature, which save_matrix expands a block of rows at a time. A feature
    that the model knows and the samples lack reads as missing throughout.
    """
    values: list[np.ndarray] = []
    codes: list[tuple[int, np.ndarray]] = []
    columns: list[ColumnInfo] = []

    def imputed(name: str) -> np.ndarray:
        mean = model.numeric_means[name]
        column = samples.numeric.get(name) or [None] * len(samples)
        return np.array([mean if v is None else v for v in column], dtype=np.float64)

    for name in model.numeric_order:
        values.append(imputed(name))
        columns.append(ColumnInfo(name=name, kind="numeric", source=name))

    for name in model.cyclical_order:
        period = model.cyclical_periods[name]
        angle = 2.0 * math.pi * imputed(name) / period
        values += [np.sin(angle), np.cos(angle)]
        columns.append(ColumnInfo(name=f"{name}#sin", kind="cyc_sin", source=name))
        columns.append(ColumnInfo(name=f"{name}#cos", kind="cyc_cos", source=name))

    unseen = 0
    for name in model.categorical_order:
        vocab = model.vocabularies[name]
        index = {lvl: j for j, lvl in enumerate(vocab)}
        raw = samples.categorical.get(name) or [""] * len(samples)
        code_of = {v: index.get(_level(v), -1) for v in set(raw)}
        group = np.array([code_of[v] for v in raw], dtype=np.int32)
        unseen += int(np.count_nonzero(group < 0))
        codes.append((len(columns), group))
        for lvl in vocab:
            columns.append(ColumnInfo(name=f"{name}={lvl}", kind="onehot", source=name, level=lvl))

    if unseen:
        log.info("encode: %d categorical values outside the training vocabulary", unseen)

    y = np.array([1 if t == SEVERE else 0 for t in samples.target], dtype=np.int8)
    return EncodedMatrix(values, codes, y, columns)


# ---------------------------------------------------------------------------
# Matrix persistence: magic "CSFM1", little-endian counts, float64 payload

MATRIX_MAGIC = b"CSFM1"
# Rows of an EncodedMatrix that save_matrix expands and writes at a time; its
# one buffer of this many rows stands in for the whole dense X.
SAVE_BLOCK_ROWS = 4096


def save_matrix(matrix: FeatureMatrix | EncodedMatrix, path) -> None:
    """Write ``matrix`` as load_matrix reads it: the magic ``CSFM1``, the
    column and row counts as little-endian uint64, ``X`` as row-major
    little-endian float64, then the labels as float64; plus a sidecar
    ``.desc.json`` describing every column (name, kind, source, level).

    A FeatureMatrix's ``X`` is written from its own buffer. An EncodedMatrix
    is expanded and written ``SAVE_BLOCK_ROWS`` rows at a time, so its dense
    ``X`` is never held."""
    path = str(path)
    blocks = matrix.row_blocks() if isinstance(matrix, EncodedMatrix) else [matrix.X]
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<QQ", matrix.n_cols, matrix.n_rows))
        for block in blocks:
            # the block's own buffer: no copy for C-contiguous float64 on a
            # little-endian host
            fh.write(block.astype("<f8", copy=False))
        fh.write(matrix.y.astype("<f8"))
    desc = {
        "version": 1,
        "n_rows": matrix.n_rows,
        "n_cols": matrix.n_cols,
        "columns": [c.to_dict() for c in matrix.columns],
        "label": {"positive": SEVERE, "negative": NON_SEVERE},
    }
    with open(path + ".desc.json", "w", encoding="utf-8") as fh:
        json.dump(desc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_matrix(path) -> FeatureMatrix:
    """Read a matrix written by save_matrix; a file that is not one, is cut
    short, holds a label other than 0.0 or 1.0, or has an unreadable
    descriptor raises InputFileError. The payload is read straight into the
    returned ``X``."""
    path = str(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(MATRIX_MAGIC))
        if magic != MATRIX_MAGIC:
            raise InputFileError(f"not a feature-matrix file: bad magic {magic!r}")
        header = fh.read(16)
        if len(header) < 16:
            raise InputFileError(f"feature-matrix file {path} is truncated")
        n_cols, n_rows = struct.unpack("<QQ", header)
        size = os.fstat(fh.fileno()).st_size
        expected = len(MATRIX_MAGIC) + 16 + 8 * n_rows * (n_cols + 1)
        if size != expected:
            raise InputFileError(
                f"feature-matrix file {path} has {size} bytes; its header implies {expected}"
            )
        X = np.empty((n_rows, n_cols), dtype="<f8")
        labels = np.empty(n_rows, dtype="<f8")
        if fh.readinto(X) != X.nbytes or fh.readinto(labels) != labels.nbytes:
            raise InputFileError(f"feature-matrix file {path} is truncated")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise InputFileError(f"feature-matrix file {path} holds a label other than 0 or 1")
    y = labels.astype(np.int8)

    def build(desc) -> FeatureMatrix:
        return FeatureMatrix(X, y, [ColumnInfo(name=c["name"], kind=c["kind"], source=c["source"],
                                               level=c.get("level", "")) for c in desc["columns"]])

    return read_json_file(path + ".desc.json", "matrix descriptor", build)
