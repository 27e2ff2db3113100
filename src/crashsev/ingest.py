"""Parse raw person-level crash records and apply the curation workflow:
VIN validation, driver/occupant reconciliation, and age verification.

Source files carry one row per person, grouped into units (vehicles) by a
shared VIN (or explicit unit id) and into crashes by a shared crash id.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import operator
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from datetime import date, datetime
from enum import Enum
from typing import Iterable, Optional, Protocol

log = logging.getLogger(__name__)

__all__ = [
    "SeverityClass",
    "PersonType",
    "SeatingPosition",
    "PersonRow",
    "KeyedTuple",
    "VinVerdict",
    "VinStatus",
    "DecodedVehicle",
    "DecoderClient",
    "StubDecoder",
    "DisabledDecoder",
    "ColumnSchema",
    "SchemaError",
    "InputFileError",
    "ParseError",
    "ParseResult",
    "CurationAudit",
    "CurationResult",
    "SummaryReport",
    "parse_person_rows",
    "validate_vin",
    "vin_check_digit",
    "compute_age",
    "reconcile_unit_persons",
    "curate",
    "group_units",
    "summarize_dataset",
    "write_curated_csv",
]


class SeverityClass(Enum):
    NO_APPARENT_INJURY = "NoApparentInjury"
    POSSIBLE_INJURY = "PossibleInjury"
    SUSPECTED_MINOR_INJURY = "SuspectedMinorInjury"
    SUSPECTED_SERIOUS_INJURY = "SuspectedSeriousInjury"
    FATAL = "Fatal"
    UNKNOWN = "Unknown"


# Total order over the five known classes; Unknown never wins a max.
_SEVERITY_RANK = {
    SeverityClass.NO_APPARENT_INJURY: 0,
    SeverityClass.POSSIBLE_INJURY: 1,
    SeverityClass.SUSPECTED_MINOR_INJURY: 2,
    SeverityClass.SUSPECTED_SERIOUS_INJURY: 3,
    SeverityClass.FATAL: 4,
}


def max_severity(values: Iterable[SeverityClass]) -> Optional[SeverityClass]:
    """Most severe known class among values, or None if all are Unknown."""
    best: Optional[SeverityClass] = None
    for v in values:
        if v is SeverityClass.UNKNOWN:
            continue
        if best is None or _SEVERITY_RANK[v] > _SEVERITY_RANK[best]:
            best = v
    return best


class PersonType(Enum):
    DRIVER = "Driver"
    OCCUPANT = "Occupant"
    NON_MOTORIST = "NonMotorist"


class SeatingPosition(Enum):
    FRONT_LEFT = "FrontLeftSide"
    OTHER = "Other"
    UNKNOWN = "Unknown"


class KeyedTuple(Mapping):
    """A read-only mapping of one tuple of values, keyed through an index
    (key -> position) that every mapping built by one call shares. It holds
    a row's or a sample's columns in a fraction of a dict's memory."""

    __slots__ = ("_index", "_values")

    def __init__(self, index: dict[str, int], values: tuple):
        self._index = index
        self._values = values

    def __getitem__(self, key):
        return self._values[self._index[key]]

    def get(self, key, default=None):
        i = self._index.get(key)
        return default if i is None else self._values[i]

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


@dataclass(slots=True)
class PersonRow:
    """One raw person-level record from the three-level crash report."""

    crash_id: str
    unit_vin: str
    person_type: PersonType
    seating_position: SeatingPosition
    severity: SeverityClass
    date_of_birth: Optional[date] = None
    reported_age: Optional[int] = None
    crash_date: Optional[date] = None
    crash_time: Optional[str] = None
    unit_id: str = ""
    unit_type: str = ""
    vehicle_make: str = ""
    vehicle_model: str = ""
    vehicle_year: Optional[int] = None
    age_invalid: bool = False
    raw_attributes: Mapping[str, str] = field(default_factory=dict)
    line_number: int = 0

    def __post_init__(self) -> None:
        if not self.crash_id:
            raise ValueError("crash_id is empty")

    @property
    def unit_key(self) -> tuple[str, str]:
        """Unit identity within a crash: explicit unit id when present."""
        return (self.crash_id, self.unit_id or self.unit_vin)


# ---------------------------------------------------------------------------
# VIN validation

VIN_ALPHABET = frozenset("0123456789ABCDEFGHJKLMNPRSTUVWXYZ")

_VIN_VALUES = {str(d): d for d in range(10)}
_VIN_VALUES.update({c: i for i, c in enumerate("ABCDEFGH", start=1)})
_VIN_VALUES.update({c: i for i, c in enumerate("JKLMN", start=1)})
_VIN_VALUES.update({"P": 7, "R": 9})
_VIN_VALUES.update({c: i for i, c in enumerate("STUVWXYZ", start=2)})

_VIN_WEIGHTS = (8, 7, 6, 5, 4, 3, 2, 10, 0, 9, 8, 7, 6, 5, 4, 3, 2)


class VinStatus(Enum):
    VALID_FORMAT = "ValidFormat"
    INVALID_BLANK = "InvalidBlank"
    INVALID_REPEATING = "InvalidRepeating"
    INVALID_CHARACTERS = "InvalidCharacters"
    INVALID_LENGTH = "InvalidLength"
    INVALID_CHECK_DIGIT = "InvalidCheckDigit"
    DECODER_ERROR = "DecoderError"
    YEAR_TOO_RECENT = "YearTooRecent"


@dataclass(frozen=True)
class DecodedVehicle:
    make: str
    model: str
    model_year: Optional[int]


@dataclass(frozen=True)
class VinVerdict:
    vin: str
    status: VinStatus
    decoded: Optional[DecodedVehicle] = None

    @property
    def valid(self) -> bool:
        return self.status is VinStatus.VALID_FORMAT


class DecoderUnavailable(Exception):
    """The decoder cannot resolve this VIN (lookup miss or service failure)."""


class DecoderClient(Protocol):
    def decode(self, vin: str) -> DecodedVehicle: ...


class DisabledDecoder:
    """Decoding switched off: every lookup succeeds with unknown fields."""

    def decode(self, vin: str) -> DecodedVehicle:
        return DecodedVehicle(make="unknown", model="unknown", model_year=None)


class StubDecoder:
    """Offline decoder backed by a vin-prefix -> make/model/year lookup table.

    The longest matching prefix wins; a miss raises DecoderUnavailable, which
    the validator turns into a DecoderError verdict (the unit is excluded).
    """

    def __init__(self, table: dict[str, DecodedVehicle]):
        self._table = dict(table)
        self._lengths = sorted({len(prefix) for prefix in self._table}, reverse=True)

    @classmethod
    def from_file(cls, path) -> "StubDecoder":
        """The lookup table in JSON file ``path``; a malformed one raises
        InputFileError."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)  # a JSONDecodeError is a ValueError
            table = {}
            for prefix, entry in raw.items():
                year = entry.get("model_year")
                table[prefix.upper()] = DecodedVehicle(
                    make=str(entry.get("make", "unknown")),
                    model=str(entry.get("model", "unknown")),
                    model_year=int(year) if year is not None else None,
                )
        except (ValueError, TypeError, AttributeError) as exc:
            raise InputFileError(f"unreadable decoder table {path}: {exc!r}") from exc
        return cls(table)

    def decode(self, vin: str) -> DecodedVehicle:
        # one probe per distinct prefix length, longest first; a VIN shorter
        # than a length probes with itself, the longest prefix it can have
        for n in self._lengths:
            hit = self._table.get(vin[:n])
            if hit is not None:
                return hit
        raise DecoderUnavailable(vin)


def vin_check_digit(vin: str) -> str:
    """ISO 3779 check character for a 17-char VIN over the allowed alphabet."""
    total = sum(map(operator.mul, _VIN_WEIGHTS, map(_VIN_VALUES.__getitem__, vin)))
    r = total % 11
    return "X" if r == 10 else str(r)


def validate_vin(vin: str, crash_year: Optional[int], decoder: DecoderClient) -> VinVerdict:
    """Format, check-digit, and decoder validation of one VIN.

    Checks run in a fixed order: blank, length, alphabet, repeating
    characters, ISO 3779 check digit at position 9, decoder lookup, and a
    decoded model year more than one year past the crash year.
    """
    v = vin.strip().upper()
    if not v:
        return VinVerdict(vin=vin, status=VinStatus.INVALID_BLANK)
    if len(v) != 17:
        return VinVerdict(vin=vin, status=VinStatus.INVALID_LENGTH)
    if not set(v) <= VIN_ALPHABET:
        return VinVerdict(vin=vin, status=VinStatus.INVALID_CHARACTERS)
    if len(set(v)) == 1:
        return VinVerdict(vin=vin, status=VinStatus.INVALID_REPEATING)
    if vin_check_digit(v) != v[8]:
        return VinVerdict(vin=vin, status=VinStatus.INVALID_CHECK_DIGIT)
    try:
        decoded = decoder.decode(v)
    except DecoderUnavailable:
        return VinVerdict(vin=vin, status=VinStatus.DECODER_ERROR)
    except Exception:
        log.exception("decoder failed on %s", v)
        return VinVerdict(vin=vin, status=VinStatus.DECODER_ERROR)
    if (
        crash_year is not None
        and decoded.model_year is not None
        and decoded.model_year > crash_year + 1
    ):
        return VinVerdict(vin=vin, status=VinStatus.YEAR_TOO_RECENT, decoded=decoded)
    return VinVerdict(vin=vin, status=VinStatus.VALID_FORMAT, decoded=decoded)


# ---------------------------------------------------------------------------
# CSV schema and parsing


class SchemaError(Exception):
    """A required column is missing or the schema file is malformed."""


class InputFileError(ValueError):
    """An input file exists but is corrupt, truncated or of the wrong format."""


REQUIRED_COLUMNS = ("crash_id", "unit_vin", "person_type", "seating_position", "severity")
OPTIONAL_COLUMNS = (
    "unit_id",
    "date_of_birth",
    "reported_age",
    "crash_date",
    "crash_time",
    "unit_type",
    "vehicle_make",
    "vehicle_model",
    "vehicle_year",
)

_DEFAULT_PERSON_TYPES = {
    "driver": PersonType.DRIVER,
    "occupant": PersonType.OCCUPANT,
    "passenger": PersonType.OCCUPANT,
    "non-motorist": PersonType.NON_MOTORIST,
    "nonmotorist": PersonType.NON_MOTORIST,
    "pedestrian": PersonType.NON_MOTORIST,
    "pedalcyclist": PersonType.NON_MOTORIST,
}

_DEFAULT_SEVERITIES = {
    "no apparent injury": SeverityClass.NO_APPARENT_INJURY,
    "possible injury": SeverityClass.POSSIBLE_INJURY,
    "suspected minor injury": SeverityClass.SUSPECTED_MINOR_INJURY,
    "suspected serious injury": SeverityClass.SUSPECTED_SERIOUS_INJURY,
    "fatal": SeverityClass.FATAL,
    "unknown": SeverityClass.UNKNOWN,
    "": SeverityClass.UNKNOWN,
}


@dataclass
class ColumnSchema:
    """Maps canonical fields to CSV headers and raw values to enums."""

    columns: dict[str, str]
    person_type_values: dict[str, PersonType] = field(
        default_factory=lambda: dict(_DEFAULT_PERSON_TYPES)
    )
    front_left_values: frozenset = frozenset({"front left side", "frontleftside"})
    severity_values: dict[str, SeverityClass] = field(
        default_factory=lambda: dict(_DEFAULT_SEVERITIES)
    )

    @classmethod
    def default(cls) -> "ColumnSchema":
        return cls(
            columns={
                "crash_id": "CrashID",
                "unit_vin": "VIN",
                "unit_id": "UnitID",
                "person_type": "PersonType",
                "seating_position": "SeatingPosition",
                "severity": "Severity",
                "date_of_birth": "DateOfBirth",
                "reported_age": "Age",
                "crash_date": "CrashDate",
                "crash_time": "CrashTime",
                "unit_type": "UnitType",
                "vehicle_make": "VehicleMake",
                "vehicle_model": "VehicleModel",
                "vehicle_year": "VehicleYear",
            }
        )

    @classmethod
    def from_file(cls, path) -> "ColumnSchema":
        """The default schema overlaid with JSON file ``path``; a malformed
        file, or one naming an unknown person type or severity class, raises
        InputFileError."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)  # a JSONDecodeError is a ValueError
            columns = dict(cls.default().columns)
            columns.update(raw.get("columns", {}))
            schema = cls(columns=columns)
            if "person_type_values" in raw:
                schema.person_type_values = {
                    k.casefold(): PersonType(v) for k, v in raw["person_type_values"].items()
                }
            if "front_left_values" in raw:
                schema.front_left_values = frozenset(v.casefold() for v in raw["front_left_values"])
            if "severity_values" in raw:
                schema.severity_values = {
                    k.casefold(): SeverityClass(v) for k, v in raw["severity_values"].items()
                }
        except (ValueError, TypeError, AttributeError) as exc:
            raise InputFileError(f"unreadable schema file {path}: {exc!r}") from exc
        return schema

    def severity_of(self, value: str) -> SeverityClass:
        return self.severity_values.get(value.strip().casefold(), SeverityClass.UNKNOWN)

    def seating_of(self, value: str) -> SeatingPosition:
        v = value.strip().casefold()
        if not v:
            return SeatingPosition.UNKNOWN
        return SeatingPosition.FRONT_LEFT if v in self.front_left_values else SeatingPosition.OTHER

    def person_type_of(self, value: str) -> PersonType:
        v = value.strip().casefold()
        if v not in self.person_type_values:
            raise ValueError(f"unrecognized person type {value!r}")
        return self.person_type_values[v]


@dataclass(frozen=True)
class ParseError:
    line_number: int
    message: str
    raw: str = ""


def _csv_line(record: list[str]) -> str:
    """``record`` as one CSV line, without its line end, that parses back to
    the same fields."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(record)
    return buf.getvalue()


@dataclass
class ParseResult:
    rows: list[PersonRow]
    errors: list[ParseError]


def _parse_date(value: str) -> Optional[date]:
    v = value.strip()
    if not v:
        return None
    for fmt in ("%Y-%m-%d", "%m/%d/%Y"):
        try:
            return datetime.strptime(v, fmt).date()
        except ValueError:
            continue
    raise ValueError(f"unparseable date {value!r}")


def _parse_int(value: str) -> Optional[int]:
    v = value.strip()
    if not v:
        return None
    return int(float(v)) if v.replace(".", "", 1).isdigit() else int(v)


class MemoTable(dict):
    """``fn`` of each distinct key, computed on its first lookup. A call that
    raises stores nothing, so every occurrence of a bad value raises. Tables
    are made per call and dropped with it."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def parse_person_rows(stream, schema: ColumnSchema) -> ParseResult:
    """Read a UTF-8 CSV with a header into PersonRows.

    Unknown columns are preserved, unstripped, in raw_attributes, a
    KeyedTuple over one index per call. Equal field values share one string
    object, so a row holds little beyond its own slots. Malformed lines are
    collected as ParseErrors, never silently dropped. A missing required
    column raises SchemaError naming the column.
    """
    if isinstance(stream, (bytes, bytearray)):
        stream = io.BytesIO(stream)
    if not (hasattr(stream, "read") and isinstance(stream.read(0), bytes)):
        return _parse_text(stream, schema)
    # the caller owns the binary stream: detach, never close, the wrapper
    text = io.TextIOWrapper(stream, encoding="utf-8", newline="")
    try:
        return _parse_text(text, schema)
    finally:
        text.detach()


def _parse_text(stream, schema: ColumnSchema) -> ParseResult:
    """``parse_person_rows`` on a stream of text."""
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("input has no header row")

    positions = {name: i for i, name in enumerate(header)}
    for canon in REQUIRED_COLUMNS:
        if schema.columns[canon] not in positions:
            raise SchemaError(f"missing required column {schema.columns[canon]!r}")
    width = len(header)
    # a canonical field the header lacks reads the empty field appended at
    # index ``width`` of each record
    canon_pos = [positions.get(schema.columns.get(canon, ""), width)
                 for canon in REQUIRED_COLUMNS + OPTIONAL_COLUMNS]
    fields = operator.itemgetter(*canon_pos)
    mapped = set(canon_pos)
    extra = [(name, i) for name, i in positions.items() if i not in mapped]
    extra_index = {name: j for j, (name, _) in enumerate(extra)}
    extra_pos = [i for _, i in extra]

    # each distinct raw string is decoded once per call, and equal strings
    # are kept as one shared object
    person_types = MemoTable(schema.person_type_of)
    seats = MemoTable(schema.seating_of)
    severities = MemoTable(schema.severity_of)
    dates = MemoTable(_parse_date)
    ints = MemoTable(_parse_int)
    stripped = MemoTable(str.strip)
    shared = MemoTable(str)

    rows: list[PersonRow] = []
    errors: list[ParseError] = []
    for line_number, record in enumerate(reader, start=2):
        if not any(map(str.strip, record)):
            continue
        if len(record) != width:
            errors.append(
                ParseError(line_number, f"expected {width} fields, got {len(record)}",
                           raw=_csv_line(record))
            )
            continue
        record.append("")
        (crash_id, unit_vin, person_type, seating_position, severity, unit_id, date_of_birth,
         reported_age, crash_date, crash_time, unit_type, vehicle_make, vehicle_model,
         vehicle_year) = fields(record)
        try:
            row = PersonRow(
                crash_id=stripped[crash_id],
                unit_vin=stripped[unit_vin],
                person_type=person_types[person_type],
                seating_position=seats[seating_position],
                severity=severities[severity],
                date_of_birth=dates[date_of_birth],
                reported_age=ints[reported_age],
                crash_date=dates[crash_date],
                crash_time=stripped[crash_time] or None,
                unit_id=stripped[unit_id],
                unit_type=stripped[unit_type],
                vehicle_make=stripped[vehicle_make],
                vehicle_model=stripped[vehicle_model],
                vehicle_year=ints[vehicle_year],
                raw_attributes=KeyedTuple(
                    extra_index, tuple(map(shared.__getitem__, map(record.__getitem__, extra_pos)))
                ),
                line_number=line_number,
            )
        except (ValueError, KeyError) as exc:
            errors.append(ParseError(line_number, str(exc), raw=_csv_line(record[:width])))
            continue
        rows.append(row)
    return ParseResult(rows=rows, errors=errors)


# ---------------------------------------------------------------------------
# Age verification


def compute_age(date_of_birth: date, crash_date: date) -> int:
    """Completed years between birth and crash date (floor)."""
    if date_of_birth > crash_date:
        raise ValueError("date_of_birth is after crash_date")
    years = crash_date.year - date_of_birth.year
    if (crash_date.month, crash_date.day) < (date_of_birth.month, date_of_birth.day):
        years -= 1
    return years


_PLAUSIBLE_AGE = range(0, 121)


def verify_age(row: PersonRow) -> PersonRow:
    """Replace reported age with the date-of-birth-derived age when both exist.

    An impossible ordering (birth after crash) flags the age invalid and keeps
    the reported age only if plausible.
    """
    if row.date_of_birth is None or row.crash_date is None:
        return row
    try:
        derived = compute_age(row.date_of_birth, row.crash_date)
    except ValueError:
        keep = row.reported_age if row.reported_age in _PLAUSIBLE_AGE else None
        return replace(row, reported_age=keep, age_invalid=True)
    if row.reported_age != derived:
        return replace(row, reported_age=derived)
    return row


# ---------------------------------------------------------------------------
# Person-type / seating reconciliation

MIN_DRIVER_AGE = 14


@dataclass
class UnitReconciliation:
    persons: list[PersonRow]
    removed_persons: list[tuple[PersonRow, str]]
    reassigned: int
    unit_removed: bool
    removal_reason: Optional[str] = None


def reconcile_unit_persons(persons: list[PersonRow]) -> UnitReconciliation:
    """Resolve person-type vs seating-position conflicts within one unit.

    A sole front-left occupant with no competing driver is retyped Driver;
    extra driver-typed persons outside the front-left seat become Occupants;
    unresolvable seat conflicts drop the conflicting rows; a unit ending with
    zero drivers, several drivers, or an underage driver is removed whole.
    """
    if not persons:
        raise ValueError("unit has no persons")
    rows = list(persons)
    reassigned = 0
    removed: list[tuple[PersonRow, str]] = []

    drivers = [p for p in rows if p.person_type is PersonType.DRIVER]
    front_left = [p for p in rows if p.seating_position is SeatingPosition.FRONT_LEFT]

    if not drivers and len(front_left) == 1 and front_left[0].person_type is PersonType.OCCUPANT:
        fixed = replace(front_left[0], person_type=PersonType.DRIVER)
        rows = [fixed if p is front_left[0] else p for p in rows]
        reassigned += 1
    elif len(drivers) > 1:
        seated = [p for p in drivers if p.seating_position is SeatingPosition.FRONT_LEFT]
        if len(seated) == 1:
            confirmed = seated[0]
            demoted = {id(p) for p in drivers if p is not confirmed}
            new_rows = []
            for p in rows:
                if id(p) in demoted:
                    new_rows.append(replace(p, person_type=PersonType.OCCUPANT))
                    reassigned += 1
                else:
                    new_rows.append(p)
            rows = new_rows

    drivers = [p for p in rows if p.person_type is PersonType.DRIVER]
    if len(drivers) == 1:
        # occupant-typed rows in the driver's seat conflict with the
        # confirmed driver; their location is uncertain, so they go
        confirmed = drivers[0]
        conflicting = [
            p
            for p in rows
            if p is not confirmed and p.seating_position is SeatingPosition.FRONT_LEFT
        ]
        for p in conflicting:
            removed.append((p, "seat_conflict"))
        rows = [p for p in rows if p is confirmed or p.seating_position is not SeatingPosition.FRONT_LEFT]

    drivers = [p for p in rows if p.person_type is PersonType.DRIVER]
    if len(drivers) == 0:
        return UnitReconciliation(rows, removed, reassigned, True, "no_driver")
    if len(drivers) > 1:
        return UnitReconciliation(rows, removed, reassigned, True, "multiple_drivers")
    age = drivers[0].reported_age
    if age is not None and age < MIN_DRIVER_AGE:
        return UnitReconciliation(rows, removed, reassigned, True, "underage_driver")
    return UnitReconciliation(rows, removed, reassigned, False)


# ---------------------------------------------------------------------------
# Whole-workflow curation


@dataclass
class CurationAudit:
    rows_in: int = 0
    rows_out: int = 0
    units_removed: int = 0
    unit_removal_reasons: Counter = field(default_factory=Counter)
    persons_in_removed_units: int = 0
    persons_reassigned: int = 0
    persons_removed: int = 0
    person_removal_reasons: Counter = field(default_factory=Counter)

    def conservation_holds(self) -> bool:
        return self.rows_out + self.persons_removed + self.persons_in_removed_units == self.rows_in

    def to_dict(self) -> dict:
        return {
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "units_removed": self.units_removed,
            "unit_removal_reasons": dict(sorted(self.unit_removal_reasons.items())),
            "persons_in_removed_units": self.persons_in_removed_units,
            "persons_reassigned": self.persons_reassigned,
            "persons_removed": self.persons_removed,
            "person_removal_reasons": dict(sorted(self.person_removal_reasons.items())),
            "conservation_holds": self.conservation_holds(),
        }


@dataclass
class CurationResult:
    rows: list[PersonRow]
    audit: CurationAudit
    removed_units: dict[tuple[str, str], str]


def group_units(rows: Iterable[PersonRow]) -> dict[tuple[str, str], list[PersonRow]]:
    """Rows grouped by unit key, in first-appearance order."""
    units: dict[tuple[str, str], list[PersonRow]] = {}
    for row in rows:
        units.setdefault(row.unit_key, []).append(row)
    return units


def _duplicate_vin_survivors(
    units: dict[tuple[str, str], list[PersonRow]],
    verdicts: dict[tuple[str, str], VinVerdict],
) -> dict[tuple[str, str], str]:
    """Units to drop because several units in one crash share a VIN.

    The unit whose reported make and year match the decoder survives; with no
    single match, all duplicates go.
    """
    by_crash_vin: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for key, persons in units.items():
        vin = persons[0].unit_vin.strip().upper()
        by_crash_vin.setdefault((key[0], vin), []).append(key)

    to_remove: dict[tuple[str, str], str] = {}
    shared = sorted(item for item in by_crash_vin.items() if len(item[1]) > 1)
    for (_, _), keys in shared:
        matching = []
        for key in sorted(keys):
            decoded = verdicts[key].decoded
            lead = units[key][0]
            if decoded is None or decoded.model_year is None:
                continue
            make_ok = lead.vehicle_make.strip().casefold() == decoded.make.strip().casefold()
            year_ok = lead.vehicle_year == decoded.model_year
            if make_ok and year_ok:
                matching.append(key)
        survivors = set(matching) if len(matching) == 1 else set()
        for key in keys:
            if key not in survivors:
                to_remove[key] = "duplicate_vin"
    return to_remove


def curate(rows: list[PersonRow], decoder: DecoderClient) -> CurationResult:
    """Run the full curation workflow over parsed person rows.

    Order: non-motorist exclusion, per-unit VIN validation, duplicate-VIN
    resolution within each crash, age verification, then per-unit person-type
    reconciliation. Output order is deterministic (crash id, unit key, line).
    """
    audit = CurationAudit(rows_in=len(rows))

    motorists: list[PersonRow] = []
    for row in rows:
        if row.person_type is PersonType.NON_MOTORIST:
            audit.persons_removed += 1
            audit.person_removal_reasons["non_motorist"] += 1
        else:
            motorists.append(row)

    units = group_units(motorists)
    verdicts: dict[tuple[str, str], VinVerdict] = {}
    removed_units: dict[tuple[str, str], str] = {}
    for key in sorted(units):
        persons = units[key]
        crash_year = next((p.crash_date.year for p in persons if p.crash_date), None)
        verdict = validate_vin(persons[0].unit_vin, crash_year, decoder)
        verdicts[key] = verdict
        if not verdict.valid:
            removed_units[key] = verdict.status.value

    surviving = {k: v for k, v in units.items() if k not in removed_units}
    removed_units.update(_duplicate_vin_survivors(surviving, verdicts))

    curated: list[PersonRow] = []
    for key in sorted(units):
        persons = units[key]
        if key in removed_units:
            audit.units_removed += 1
            audit.unit_removal_reasons[removed_units[key]] += 1
            audit.persons_in_removed_units += len(persons)
            continue
        persons = [verify_age(p) for p in persons]
        outcome = reconcile_unit_persons(persons)
        audit.persons_reassigned += outcome.reassigned
        if outcome.unit_removed:
            removed_units[key] = outcome.removal_reason or "reconciliation"
            audit.units_removed += 1
            audit.unit_removal_reasons[removed_units[key]] += 1
            audit.persons_in_removed_units += len(persons)
            continue
        for _, reason in outcome.removed_persons:
            audit.persons_removed += 1
            audit.person_removal_reasons[reason] += 1
        curated.extend(outcome.persons)

    curated.sort(key=lambda r: (r.crash_id, r.unit_key[1], r.line_number))
    audit.rows_out = len(curated)
    return CurationResult(rows=curated, audit=audit, removed_units=removed_units)


# ---------------------------------------------------------------------------
# Dataset summary


@dataclass
class SummaryReport:
    n_persons: int
    n_units: int
    n_crashes: int
    crash_severity_shares: dict[str, float]
    occupants_per_vehicle: dict[int, int]
    mean_occupant_age: Optional[float]
    mean_driver_age: Optional[float]
    mean_units_per_crash: Optional[float]

    def to_dict(self) -> dict:
        return {
            "n_persons": self.n_persons,
            "n_units": self.n_units,
            "n_crashes": self.n_crashes,
            "crash_severity_shares": self.crash_severity_shares,
            "occupants_per_vehicle": {str(k): v for k, v in sorted(self.occupants_per_vehicle.items())},
            "mean_occupant_age": self.mean_occupant_age,
            "mean_driver_age": self.mean_driver_age,
            "mean_units_per_crash": self.mean_units_per_crash,
        }


def summarize_dataset(rows: list[PersonRow]) -> SummaryReport:
    """Crash-level severity distribution plus occupancy and age statistics."""
    if not rows:
        return SummaryReport(0, 0, 0, {}, {}, None, None, None)

    units = group_units(rows)
    crashes: dict[str, list[SeverityClass]] = {}
    for row in rows:
        crashes.setdefault(row.crash_id, []).append(row.severity)

    severity_counts: Counter = Counter()
    for crash_id, severities in crashes.items():
        worst = max_severity(severities)
        severity_counts[(worst or SeverityClass.UNKNOWN).value] += 1
    n_crashes = len(crashes)
    shares = {k: v / n_crashes for k, v in sorted(severity_counts.items())}

    occupancy: Counter = Counter(len(v) for v in units.values())
    ages = [r.reported_age for r in rows if r.reported_age is not None and not r.age_invalid]
    driver_ages = [
        r.reported_age
        for r in rows
        if r.person_type is PersonType.DRIVER and r.reported_age is not None and not r.age_invalid
    ]
    units_per_crash: Counter = Counter()
    for key in units:
        units_per_crash[key[0]] += 1

    return SummaryReport(
        n_persons=len(rows),
        n_units=len(units),
        n_crashes=n_crashes,
        crash_severity_shares=shares,
        occupants_per_vehicle=dict(occupancy),
        mean_occupant_age=sum(ages) / len(ages) if ages else None,
        mean_driver_age=sum(driver_ages) / len(driver_ages) if driver_ages else None,
        mean_units_per_crash=sum(units_per_crash.values()) / n_crashes,
    )


# ---------------------------------------------------------------------------
# Curated output


def write_curated_csv(rows: list[PersonRow], schema: ColumnSchema, path) -> None:
    """Write curated rows back out in the input schema (re-curation is a no-op)."""
    extra_keys = sorted({k for r in rows for k in r.raw_attributes})
    canon = REQUIRED_COLUMNS + OPTIONAL_COLUMNS
    keep = [i for i, c in enumerate(canon) if c in schema.columns]
    header = [schema.columns[canon[i]] for i in keep] + extra_keys

    type_names = {t: t.value for t in PersonType}
    type_names.update({v: k for k, v in schema.person_type_values.items()})
    # a blank seat reads back as Unknown only when written blank
    seat_names = {s: s.value for s in SeatingPosition}
    seat_names[SeatingPosition.UNKNOWN] = ""
    if schema.front_left_values:
        seat_names[SeatingPosition.FRONT_LEFT] = min(schema.front_left_values)
    sev_names = {s: s.value for s in SeverityClass}
    sev_names.update({v: k for k, v in schema.severity_values.items() if k})

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            # the canonical fields in REQUIRED_COLUMNS + OPTIONAL_COLUMNS order
            record = [
                row.crash_id,
                row.unit_vin,
                type_names[row.person_type],
                seat_names[row.seating_position],
                sev_names[row.severity],
                row.unit_id,
                row.date_of_birth.isoformat() if row.date_of_birth else "",
                "" if row.reported_age is None else str(row.reported_age),
                row.crash_date.isoformat() if row.crash_date else "",
                row.crash_time or "",
                row.unit_type,
                row.vehicle_make,
                row.vehicle_model,
                "" if row.vehicle_year is None else str(row.vehicle_year),
            ]
            if len(keep) < len(canon):
                record = [record[i] for i in keep]
            # csv writes the None of an absent attribute as an empty field
            record += map(row.raw_attributes.get, extra_keys)
            writer.writerow(record)
