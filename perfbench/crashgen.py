"""Seeded generator of person-level crash records for the benchmark.

It writes a CSV in the program's default column schema plus an offline VIN
decoder table, and plants every curation branch at the shares in
``UNIT_BRANCHES``: blank, short, bad-alphabet, repeating and bad-check-digit
VINs, decoder misses, model years too recent for the crash, duplicate VINs
within a crash, units with no driver, several drivers, a surplus driver to
demote, a front-left occupant to retype, a seat conflict or an underage
driver, non-motorists, units whose severities are all unknown, and malformed
lines.

Because the generator decides every verdict itself, it also returns what the
program must report: the exact curation audit, the number of quarantined
lines and the shape and positive count of the encoded matrix. VIN check
digits and ages are computed here, independently of ``crashsev.ingest``.

Severity is planted from driver attributes (belt use, alcohol, drugs, speed,
age, condition, unit type, location), so a model trained on the encoded
matrix has signal to find.
"""

from __future__ import annotations

import csv
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, timedelta

HEADER = [
    "CrashID", "UnitID", "VIN", "PersonType", "SeatingPosition", "Severity",
    "DateOfBirth", "Age", "CrashDate", "CrashTime", "UnitType", "VehicleMake",
    "VehicleModel", "VehicleYear", "PostedSpeed", "DriverCondition",
    "DriverDistraction", "DriverGender", "Belted", "Location", "RoadContour",
    "AnimalRelated", "ContributingCircumstance", "PreCrashAction",
    "AlcoholRelated", "DrugRelated",
]

# ISO 3779: transliteration of letters, position weights, mod-11 check.
_TRANSLIT = dict(zip("ABCDEFGHJKLMNPRSTUVWXYZ", (1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5,
                                                7, 9, 2, 3, 4, 5, 6, 7, 8, 9)))
_TRANSLIT.update({str(d): d for d in range(10)})
_WEIGHTS = (8, 7, 6, 5, 4, 3, 2, 10, 0, 9, 8, 7, 6, 5, 4, 3, 2)
VIN_CHARS = "0123456789ABCDEFGHJKLMNPRSTUVWXYZ"


def check_digit(vin: str) -> str:
    total = sum(_TRANSLIT[c] * w for c, w in zip(vin, _WEIGHTS))
    r = total % 11
    return "X" if r == 10 else str(r)


def age_at(born: date, on: date) -> int:
    years = on.year - born.year
    return years - 1 if (on.month, on.day) < (born.month, born.day) else years


PASSENGER = ("Passenger Car", "SUV", "Multipurpose Passenger Vehicle")
NON_PASSENGER = ("Pickup", "Motorcycle")

_MAKES = {
    "Honda": ("Accord", "Civic"), "Toyota": ("Corolla", "Camry"), "Ford": ("Focus", "Escape"),
    "Chevrolet": ("Malibu", "Equinox"), "Nissan": ("Altima", "Rogue"),
    "Subaru": ("Legacy", "Outback"), "Hyundai": ("Elantra", "Tucson"),
    "Mazda": ("Mazda3", "CX5"), "Kia": ("Soul", "Sorento"), "Jeep": ("Cherokee", "Wrangler"),
}

# driver / crash attribute levels, first level most common
LEVELS = {
    "DriverCondition": ("Normal", "Fatigued", "Ill", "Impaired"),
    "DriverDistraction": ("None", "Phone", "Passenger", "Other"),
    "DriverGender": ("M", "F", "U"),
    "Belted": ("Yes", "No", "Unknown"),
    "Location": ("City", "Township", "Village", "Rural"),
    "RoadContour": ("Straight Level", "Curve Level", "Straight Grade", "Curve Grade"),
    "AnimalRelated": ("No", "Yes"),
    "ContributingCircumstance": ("None", "Speed", "Failure To Yield", "Following Too Close",
                                 "Improper Lane Change", "Disregard Signal"),
    "PreCrashAction": ("Going Straight", "Turning Left", "Turning Right", "Stopped",
                       "Backing", "Changing Lanes"),
    "AlcoholRelated": ("No", "Yes"),
    "DrugRelated": ("No", "Yes"),
}
_LEVEL_WEIGHTS = {
    "DriverCondition": (85, 7, 3, 5), "DriverDistraction": (80, 8, 7, 5),
    "DriverGender": (50, 47, 3), "Belted": (85, 10, 5), "Location": (45, 30, 10, 15),
    "RoadContour": (60, 20, 12, 8), "AnimalRelated": (96, 4),
    "ContributingCircumstance": (40, 15, 15, 12, 10, 8),
    "PreCrashAction": (55, 15, 8, 12, 4, 6), "AlcoholRelated": (93, 7), "DrugRelated": (96, 4),
}
CRASH_LEVEL = ("Location", "RoadContour", "AnimalRelated")
N_SLOTS = 5  # interacting-unit slots of the program's default aggregation

# unit-level branch -> share of generated units; duplicate VINs are planted
# per crash (DUPLICATE_SHARE of multi-unit crashes), non-motorists and
# malformed lines per crash as extra rows
UNIT_BRANCHES = {
    "clean": 0.700,
    "vin_blank": 0.015,
    "vin_short": 0.015,
    "vin_bad_alphabet": 0.015,
    "vin_repeating": 0.010,
    "vin_bad_check": 0.020,
    "decoder_miss": 0.020,
    "year_too_recent": 0.015,
    "no_driver": 0.020,
    "multiple_drivers": 0.010,
    "demoted_driver": 0.030,
    "retyped_driver": 0.035,
    "seat_conflict": 0.030,
    "underage_driver": 0.015,
    "unknown_severity": 0.020,
    "non_passenger": 0.020,
}
DUPLICATE_SHARE = 0.06
NON_MOTORIST_SHARE = 0.03
MALFORMED_SHARE = 0.004

_REMOVAL_REASON = {
    "vin_blank": "InvalidBlank",
    "vin_short": "InvalidLength",
    "vin_bad_alphabet": "InvalidCharacters",
    "vin_repeating": "InvalidRepeating",
    "vin_bad_check": "InvalidCheckDigit",
    "decoder_miss": "DecoderError",
    "year_too_recent": "YearTooRecent",
    "no_driver": "no_driver",
    "multiple_drivers": "multiple_drivers",
    "underage_driver": "underage_driver",
}

SEVERE = ("Suspected Serious Injury", "Fatal")
NON_SEVERE = ("No Apparent Injury", "Possible Injury", "Suspected Minor Injury")


@dataclass
class _Unit:
    unit_id: str
    vin: str
    unit_type: str
    make: str
    model: str
    year: int
    branch: str
    attrs: dict
    severe: bool
    persons: list = field(default_factory=list)


@dataclass
class Expected:
    """What a correct ``curate`` + ``preprocess`` must report for the data."""

    audit: dict
    lines_quarantined: int
    samples: int
    columns: int
    positives: int
    person_rows: int


class _Catalogue:
    """Vehicle models with decoder prefixes; fixed, independent of the seed."""

    def __init__(self) -> None:
        rng = random.Random(20250101)
        self.models = []     # (prefix8, make, model, year, unit_type)
        self.recent = []     # prefixes that decode to a model year past every crash
        self.missing = []    # well-formed prefixes absent from the decoder table
        used: set[str] = set()

        def prefix() -> str:
            while True:
                p = "".join(rng.choice(VIN_CHARS) for _ in range(8))
                if p not in used:
                    used.add(p)
                    return p

        types = PASSENGER * 3 + NON_PASSENGER
        for make, models in _MAKES.items():
            for model in models:
                for year in (2003, 2009, 2014):
                    self.models.append((prefix(), make, model, year, rng.choice(types)))
        self.recent = [(prefix(), make, models[0], 2031) for make, models in _MAKES.items()]
        self.missing = [prefix() for _ in range(8)]

    def decoder_table(self) -> dict:
        table = {p: {"make": mk, "model": md, "model_year": yr} for p, mk, md, yr, _ in self.models}
        table.update({p: {"make": mk, "model": md, "model_year": yr} for p, mk, md, yr in self.recent})
        return table


def _full_vin(rng: random.Random, prefix8: str) -> str:
    serial = "".join(rng.choice(VIN_CHARS) for _ in range(8))
    body = prefix8 + "0" + serial
    return prefix8 + check_digit(body) + serial


def _weighted(rng: random.Random, name: str) -> str:
    return rng.choices(LEVELS[name], weights=_LEVEL_WEIGHTS[name])[0]


def _severity_logit(unit: _Unit, driver_age: int) -> float:
    a = unit.attrs
    logit = -2.6
    logit += 2.2 * (a["Belted"] == "No") + 0.8 * (a["Belted"] == "Unknown")
    logit += 2.0 * (a["AlcoholRelated"] == "Yes") + 1.4 * (a["DrugRelated"] == "Yes")
    logit += 0.07 * (float(a["PostedSpeed"]) - 40.0)
    logit += 0.04 * (driver_age - 45)
    logit += 1.6 * (a["DriverCondition"] == "Impaired") + 0.6 * (a["DriverCondition"] == "Ill")
    logit += 1.0 * (a["Location"] == "Rural") + 0.8 * (a["ContributingCircumstance"] == "Speed")
    logit += 2.4 * (unit.unit_type == "Motorcycle") - 0.6 * (unit.unit_type == "SUV")
    return logit


def generate(path, seed: int, n_crashes: int) -> tuple[dict, Expected]:
    """Write the person-level CSV to ``path``; return (decoder table, expected)."""
    rng = random.Random(seed)
    cat = _Catalogue()
    branches = list(UNIT_BRANCHES)
    weights = [UNIT_BRANCHES[b] for b in branches]

    audit = Counter()
    unit_reasons: Counter = Counter()
    person_reasons: Counter = Counter()
    lines_quarantined = 0
    sample_levels: dict[str, set] = {}
    samples = positives = 0
    rows: list[list[str]] = []

    start = date(2016, 1, 1).toordinal()
    span = date(2022, 12, 28).toordinal() - start
    for c in range(n_crashes):
        crash_id = f"K{seed % 1000:03d}{c:07d}"
        day = date.fromordinal(start + rng.randrange(span))
        if day.day > 28:
            day = day.replace(day=28)
        crash_date = day.isoformat()
        crash_time = f"{rng.randrange(24):02d}:{rng.randrange(60):02d}"
        crash_attrs = {k: _weighted(rng, k) for k in CRASH_LEVEL}
        n_units = rng.choices((1, 2, 3), weights=(45, 40, 15))[0]

        units: list[_Unit] = []
        for u in range(n_units):
            branch = rng.choices(branches, weights=weights)[0]
            p8, make, model, year, utype = rng.choice(cat.models)
            if branch == "non_passenger":
                utype = rng.choice(NON_PASSENGER)
            elif utype not in PASSENGER and branch != "clean":
                utype = rng.choice(PASSENGER)
            vin = _full_vin(rng, p8)
            if branch == "vin_blank":
                vin = rng.choice(("", "   "))
            elif branch == "vin_short":
                vin = vin[: rng.randrange(5, 17)]
            elif branch == "vin_bad_alphabet":
                pos = rng.choice([i for i in range(17) if i != 8])
                vin = vin[:pos] + rng.choice("IOQ") + vin[pos + 1:]
            elif branch == "vin_repeating":
                vin = rng.choice(VIN_CHARS) * 17
            elif branch == "vin_bad_check":
                wrong = rng.choice([d for d in "0123456789X" if d != vin[8]])
                vin = vin[:8] + wrong + vin[9:]
            elif branch == "decoder_miss":
                vin = _full_vin(rng, rng.choice(cat.missing))
            elif branch == "year_too_recent":
                p8, make, model, year = rng.choice(cat.recent)
                vin = _full_vin(rng, p8)
            attrs = dict(crash_attrs)
            for k in LEVELS:
                if k not in attrs:
                    attrs[k] = _weighted(rng, k)
            if rng.random() < 0.03:
                attrs["DriverDistraction"] = ""
            attrs["PostedSpeed"] = str(rng.choice(range(25, 75, 5)))
            units.append(_Unit(str(u + 1), vin, utype, make, model, year, branch, attrs, False))

        # duplicate VIN: the second unit copies the first unit's VIN; either
        # the first matches the decoder and survives, or neither does
        if n_units >= 2 and rng.random() < DUPLICATE_SHARE:
            a, b = units[0], units[1]
            dup_p8, make, model, year, _ = rng.choice(cat.models)
            a.vin = b.vin = _full_vin(rng, dup_p8)
            a.make, a.model, a.year = make, model, year
            b.make, b.model, b.year = "Unmatched", model, year
            a.branch = "dup_survivor" if rng.random() < 0.5 else "dup_removed"
            if a.branch == "dup_removed":
                a.year = year + 1
            b.branch = "dup_removed"
            for x in (a, b):
                if x.unit_type not in PASSENGER:
                    x.unit_type = PASSENGER[0]

        for unit in units:
            _add_persons(rng, unit, day, crash_id, crash_date, crash_time)

        # expected curation verdicts
        kept: list[_Unit] = []
        for unit in units:
            size = len(unit.persons)
            audit["rows_in"] += size
            reason = _REMOVAL_REASON.get(unit.branch) or (
                "duplicate_vin" if unit.branch == "dup_removed" else "")
            if reason:
                audit["units_removed"] += 1
                unit_reasons[reason] += 1
                audit["persons_in_removed_units"] += size
                if unit.branch in ("retyped_driver", "demoted_driver"):
                    audit["persons_reassigned"] += 1
                continue
            if unit.branch in ("retyped_driver", "demoted_driver"):
                audit["persons_reassigned"] += 1
            if unit.branch == "seat_conflict":
                audit["persons_removed"] += 1
                person_reasons["seat_conflict"] += 1
            kept.append(unit)

        # expected vehicle samples and their categorical levels
        order = sorted(kept, key=lambda x: (x.vin, x.unit_id))
        for unit in kept:
            if unit.unit_type not in PASSENGER or unit.branch == "unknown_severity":
                continue
            samples += 1
            positives += unit.severe
            levels = {"UnitType": unit.unit_type}
            for k in LEVELS:
                levels[k] = unit.attrs[k].strip() or "missing"
            others = [o for o in order if o is not unit][:N_SLOTS]
            for s in range(1, N_SLOTS + 1):
                o = others[s - 1] if s <= len(others) else None
                levels[f"InteractingUnitType{s}"] = o.unit_type if o else "none"
                levels[f"InteractingVehicleModel{s}"] = o.model if o else "none"
                levels[f"InteractingVehicleYear{s}"] = str(o.year) if o else "none"
            for k, v in levels.items():
                sample_levels.setdefault(k, set()).add(v)

        for unit in units:
            rows.extend(unit.persons)
        if rng.random() < NON_MOTORIST_SHARE:
            rows.append([crash_id, "NM1", "", rng.choice(("Pedestrian", "Pedalcyclist")), "",
                         rng.choice(SEVERE + NON_SEVERE), "", str(rng.randrange(8, 80)),
                         crash_date, crash_time, "", "", "", ""]
                        + [crash_attrs.get(k, "") for k in HEADER[14:]])
            audit["rows_in"] += 1
            audit["persons_removed"] += 1
            person_reasons["non_motorist"] += 1
        if rng.random() < MALFORMED_SHARE:
            bad = [f"Q{crash_id}", "1", "", "Driver", "Front Left Side", "Fatal"]
            if rng.random() < 0.5:
                bad += ["", "40", "2020-13-45"] + [""] * (len(HEADER) - 9)  # bad date
            rows.append(bad)  # otherwise: short record
            lines_quarantined += 1

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        writer.writerows(rows)

    audit["rows_out"] = (audit["rows_in"] - audit["persons_removed"]
                         - audit["persons_in_removed_units"])
    expected_audit = {
        "rows_in": audit["rows_in"],
        "rows_out": audit["rows_out"],
        "units_removed": audit["units_removed"],
        "unit_removal_reasons": dict(sorted(unit_reasons.items())),
        "persons_in_removed_units": audit["persons_in_removed_units"],
        "persons_reassigned": audit["persons_reassigned"],
        "persons_removed": audit["persons_removed"],
        "person_removal_reasons": dict(sorted(person_reasons.items())),
        "conservation_holds": True,
    }
    # numeric: driver age, occupant min/mean/max age, occupants, vehicle year,
    # posted speed; cyclical: month, weekday, time of day as sin/cos pairs
    columns = 7 + 2 * 3 + sum(len(v) for v in sample_levels.values())
    expected = Expected(expected_audit, lines_quarantined, samples, columns, positives,
                        audit["rows_in"])
    return cat.decoder_table(), expected


def _add_persons(rng, unit: _Unit, day: date, crash_id: str, crash_date: str,
                 crash_time: str) -> None:
    """Fill ``unit.persons`` with rows whose layout realises the unit's branch."""
    fls, other_seats = "Front Left Side", ("Right Front", "Second Row Left", "Second Row Right")
    driver_age = rng.randrange(16, 86)
    if unit.branch == "underage_driver":
        driver_age = rng.randrange(10, 14)
    occupants = rng.choices((0, 1, 2, 3), weights=(55, 25, 12, 8))[0]

    # (person type, seat, age): the layout of each branch
    if unit.branch == "no_driver":
        layout = [("Occupant", rng.choice(other_seats), driver_age)]
    elif unit.branch == "multiple_drivers":
        layout = [("Driver", other_seats[0], driver_age),
                  ("Driver", other_seats[1], rng.randrange(16, 86))]
    elif unit.branch == "retyped_driver":
        layout = [("Occupant", fls, driver_age)]
    elif unit.branch == "demoted_driver":
        layout = [("Driver", fls, driver_age), ("Driver", other_seats[0], rng.randrange(16, 86))]
    elif unit.branch == "seat_conflict":
        layout = [("Driver", fls, driver_age), ("Occupant", fls, rng.randrange(16, 86))]
    else:
        layout = [("Driver", fls, driver_age)]
    for _ in range(occupants):
        layout.append((rng.choice(("Occupant", "Passenger")), rng.choice(other_seats[1:]),
                       rng.randrange(0, 86)))

    unit.severe = rng.random() < 1.0 / (1.0 + math.exp(-_severity_logit(unit, driver_age)))
    for i, (ptype, seat, age) in enumerate(layout):
        if unit.branch == "unknown_severity":
            severity = rng.choice(("", "Unknown"))
        elif i == 0 and unit.severe:
            severity = rng.choice(SEVERE)
        elif unit.branch == "seat_conflict" and i == 1:
            severity = "No Apparent Injury"  # removed row; keeps the target as planted
        else:
            severity = rng.choice(NON_SEVERE)
        dob, reported = "", str(age)
        if rng.random() < 0.4:
            anniversary = day.replace(year=day.year - age)
            born = anniversary - timedelta(days=rng.randrange(1, 300))
            assert age_at(born, day) == age
            dob = born.isoformat()
            if rng.random() < 0.2:
                reported = str(age + 1)  # contradicts the date of birth, which wins
        unit.persons.append(
            [crash_id, unit.unit_id, unit.vin, ptype, seat, severity, dob, reported,
             crash_date, crash_time, unit.unit_type, unit.make, unit.model, str(unit.year)]
            + [unit.attrs[k] for k in HEADER[14:]]
        )
