"""Recorded output of the ``curate`` and ``preprocess`` commands.

``data/ingest_fixture.json`` holds the sha256 digest of every file the two
commands write for each input case below, plus the matrix and model of an
``encode`` whose model was fitted on a subset of the samples, so that
levels unseen at fit time occur. A change to parsing, curation, the curated
writer, aggregation or encoding must reproduce them byte for byte. Record
again (``python tests/test_ingest_fixture.py``) only for a change that means
to alter an output, and say which entries moved: writing a blank seating
position as an empty field, not as ``Unknown``, changed the curated CSV of
the ``edge`` case, the one case with blank seats. Writing an age that
``curate`` flagged invalid as a blank field changed the curated CSV of the
``generated`` case, whose one such row (G043, born after the crash, age 0)
is now blank, and the matrices and encoding model built from it.

The inputs cover both date formats (``%Y-%m-%d`` and ``%m/%d/%Y``),
whitespace-padded values, an unparseable date repeated on two lines, an
unknown person type, a short line, decoder prefixes of several lengths that
nest, all-Unknown severities and a crash with more than five other units.
"""

import csv
import gc
import hashlib
import io
import json
import random
import tracemalloc
from pathlib import Path

import pytest

from crashsev.cli import main
from crashsev.ingest import (
    ColumnSchema,
    DecodedVehicle,
    StubDecoder,
    curate,
    group_units,
    parse_person_rows,
    summarize_dataset,
    vin_check_digit,
)
from crashsev.preprocess import (
    AggregationConfig,
    build_vehicle_samples,
    encode,
    filter_passenger_vehicles,
    fit_preprocess,
    save_matrix,
)

FIXTURE = Path(__file__).parent / "data" / "ingest_fixture.json"

CURATE_FILES = ("curated.csv", "audit.json", "summary.json", "quarantine.csv")
PREPROCESS_FILES = ("matrix.csfm", "matrix.csfm.desc.json", "preprocess_model.json")

# nested prefixes: a VIN takes the entry of the longest prefix it starts with
DECODER_TABLE = {
    "1HG": {"make": "Honda", "model": "unknown", "model_year": None},
    "1HGCM": {"make": "Honda", "model": "Accord", "model_year": 2003},
    "1HGCM826": {"make": "Honda", "model": "Accord", "model_year": 2005},
    "1HGCM8263X": {"make": "Honda", "model": "AccordEX", "model_year": 2019},
    "2T1": {"make": "Toyota", "model": "Corolla", "model_year": 2012},
    "2T1BURHE": {"make": "Toyota", "model": "CorollaS", "model_year": 2014},
    "5YJSA1E2": {"make": "Tesla", "model": "ModelS", "model_year": 2022},
    "JM1BK": {"make": "Mazda", "model": "Mazda3", "model_year": 2008},
}
# prefixes the generator draws VINs from; "3VW" and "KNA" miss the table
VIN_PREFIXES = ("1HG", "1HGCM", "1HGCM826", "1HGCM8263X", "2T1", "2T1BURHE", "5YJSA1E2",
                "JM1BK", "1HG", "1HGCM826", "2T1BURHE", "JM1BK", "3VW", "KNA")
VIN_CHARS = "0123456789ABCDEFGHJKLMNPRSTUVWXYZ"

HEADER = [
    "CrashID", "UnitID", "VIN", "PersonType", "SeatingPosition", "Severity", "DateOfBirth",
    "Age", "CrashDate", "CrashTime", "UnitType", "VehicleMake", "VehicleModel",
    "VehicleYear", "PostedSpeed", "Belted", "Location", "DriverGender", "AlcoholRelated",
]

PERSON_TYPES = ("Driver", "driver", " DRIVER ", "Occupant", "Passenger", "occupant ")
OTHER_SEATS = ("Right Front", "Rear", " rear left", "Second Row Middle")
FRONT_LEFT = ("Front Left Side", "FrontLeftSide", " front left side ")
SEVERITIES = ("No Apparent Injury", "Possible Injury", " possible injury",
              "Suspected Minor Injury", "Suspected Serious Injury", "Fatal", "FATAL",
              "Unknown", "")
UNIT_TYPES = ("Passenger Car", "SUV", "Multipurpose Passenger Vehicle (MPV)", "Pickup",
              "Motorcycle", "passenger car ")


def _vin(rng: random.Random, prefix: str) -> str:
    """A 17-character VIN starting with ``prefix`` whose check digit holds."""
    while True:
        body = prefix + "".join(rng.choice(VIN_CHARS) for _ in range(17 - len(prefix)))
        if len(prefix) > 8:
            if vin_check_digit(body) == body[8]:
                return body
        else:
            return body[:8] + vin_check_digit(body) + body[9:]


def _date(rng: random.Random, year: int, padded: bool) -> str:
    y, m, d = year, rng.randint(1, 12), rng.randint(1, 28)
    text = f"{y:04d}-{m:02d}-{d:02d}" if rng.random() < 0.5 else f"{m:02d}/{d:02d}/{y:04d}"
    return f" {text} " if padded else text


def _generated_lines(seed: int, n_crashes: int) -> list[list[str]]:
    rng = random.Random(seed)
    lines = []
    for c in range(n_crashes):
        crash_year = rng.randint(2015, 2021)
        crash_date = _date(rng, crash_year, padded=rng.random() < 0.1)
        crash_time = rng.choice(("", f"{rng.randint(0, 23)}:{rng.randint(0, 59):02d}",
                                 f"{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:00"))
        n_units = 8 if c == 3 else rng.choice((1, 1, 2, 2, 2, 3, 4, 7))
        for u in range(n_units):
            # now and then a unit repeats the previous unit's VIN
            vin = vin if u and rng.random() < 0.1 else _vin(rng, rng.choice(VIN_PREFIXES))
            unit_id = f"U{u}" if rng.random() < 0.3 else ""
            unit_type = rng.choice(UNIT_TYPES)
            make = rng.choice(("Honda", "honda ", "Toyota", "Tesla", "Mazda", "Kia", ""))
            model = rng.choice(("Accord", "Corolla", "ModelS", "Mazda3", "Rio", ""))
            year = rng.choice(("2003", "2005", "2012", "2014", "2019", "2022", "", " 2008 "))
            driver_age = rng.randint(12, 85)
            for p in range(rng.randint(1, 4)):
                if p == 0:
                    ptype = rng.choice(PERSON_TYPES[:3] + ("Occupant",))
                    seat = rng.choice(FRONT_LEFT + OTHER_SEATS[:1])
                    age = driver_age
                else:
                    ptype = rng.choice(PERSON_TYPES + ("Pedestrian",))
                    seat = rng.choice(OTHER_SEATS + FRONT_LEFT[:1])
                    age = rng.randint(0, 90)
                birth_year = crash_year - age
                dob = (_date(rng, birth_year, padded=rng.random() < 0.1)
                       if rng.random() < 0.6 else "")
                age_text = rng.choice((str(age), f" {age} ", f"{age}.0", "", str(age + 1)))
                lines.append([
                    f"G{c:03d}", unit_id, vin, ptype, seat, rng.choice(SEVERITIES), dob,
                    age_text, crash_date, crash_time, unit_type, make, model, year,
                    rng.choice(("25", "35", " 45", "65", "", "n/a")),
                    rng.choice(("Yes", "No", " yes", "")),
                    rng.choice(("City", "Township", "Rural", "")),
                    rng.choice(("F", "M", "U")),
                    rng.choice(("Yes", "No")),
                ])
    return lines


def _edge_lines() -> list[list[str]]:
    honda = _vin(random.Random(1), "1HGCM826")
    mazda = _vin(random.Random(2), "JM1BK")
    tesla = _vin(random.Random(3), "5YJSA1E2")
    pad = ["35", "Yes", "City", "F", "No"]
    return [
        # blank seats: the driver's own seat unknown, an occupant's unknown
        ["E01", "", honda, "Driver", "", "Fatal", "1980-03-10", "40", "2020-06-15", "14:30",
         "Passenger Car", "Honda", "Accord", "2005", *pad],
        ["E01", "", honda, "Occupant", "  ", "Possible Injury", "", "35", "06/15/2020", "14:30",
         "Passenger Car", "Honda", "Accord", "2005", *pad],
        # whitespace-padded values throughout
        [" E02 ", " ", f" {mazda} ", " Driver ", " Front Left Side ", " Fatal ",
         " 03/10/1975 ", " 45 ", " 2019-11-02 ", " 07:05 ", " SUV ", " Mazda ", " Mazda3 ",
         " 2008 ", " 55 ", " No ", " Rural ", " M ", " Yes "],
        # one unparseable date on two lines, in the second format's shape
        ["E03", "", tesla, "Driver", "Front Left Side", "Fatal", "13/45/1990", "30",
         "2021-04-01", "09:00", "Passenger Car", "Tesla", "ModelS", "2022", *pad],
        ["E03", "", tesla, "Occupant", "Rear", "Fatal", "13/45/1990", "30", "2021-04-01",
         "09:00", "Passenger Car", "Tesla", "ModelS", "2022", *pad],
        # an unknown person type, and a short line
        ["E04", "", honda, "Starfish", "Rear", "Fatal", "", "30", "2021-04-01", "09:00",
         "Passenger Car", "Honda", "Accord", "2005", *pad],
        ["E05", "", honda, "Driver", "Front Left Side"],
        # all severities Unknown: curated, then excluded by aggregation
        ["E06", "", mazda, "Driver", "Front Left Side", "Unknown", "", "50", "2018-08-08",
         "", "Pickup", "Mazda", "Mazda3", "2008", *pad],
        ["E06", "", mazda, "Occupant", "", "", "", "20", "2018-08-08", "", "Pickup", "Mazda",
         "Mazda3", "2008", *pad],
    ]


CASES = {
    "generated": lambda: _generated_lines(seed=20261018, n_crashes=150),
    "edge": lambda: _generated_lines(seed=7, n_crashes=12) + _edge_lines(),
}


def _digest(path: Path):
    """sha256 of the file at ``path``, or None where none was written."""
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _input_csv(case: str) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HEADER)
    writer.writerows(CASES[case]())
    return buf.getvalue()


def _outputs(case: str, work: Path) -> dict[str, str]:
    """Digest of every output file for input case ``case``, written under
    ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    (work / "input.csv").write_text(_input_csv(case), encoding="utf-8", newline="")
    (work / "decoder.json").write_text(json.dumps(DECODER_TABLE), encoding="utf-8")

    curated, encoded = work / "curated", work / "encoded"
    assert main(["curate", "--input", str(work / "input.csv"), "--decoder-table",
                 str(work / "decoder.json"), "--out-dir", str(curated)]) == 0
    assert main(["preprocess", "--input", str(curated / "curated.csv"),
                 "--out-dir", str(encoded)]) == 0
    digests = {name: _digest(curated / name) for name in CURATE_FILES}
    digests.update({name: _digest(encoded / name) for name in PREPROCESS_FILES})

    # a model fitted on every third sample, applied to all of them
    with open(curated / "curated.csv", "rb") as fh:
        parsed = parse_person_rows(fh, ColumnSchema.default())
    agg = AggregationConfig()

    def vehicle_samples():
        return filter_passenger_vehicles(build_vehicle_samples(parsed.rows, agg),
                                         agg.passenger_types)

    # keep cuts the samples it is called on down, so the subset comes from a second build
    samples = vehicle_samples()
    model = fit_preprocess(vehicle_samples().keep(range(0, len(samples), 3)), agg)
    save_matrix(encode(samples, model), work / "subset.csfm")
    model.save(work / "subset_model.json")
    digests["subset_fit/matrix.csfm"] = _digest(work / "subset.csfm")
    digests["subset_fit/preprocess_model.json"] = _digest(work / "subset_model.json")
    return digests


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_record_byte_for_byte(recorded, case, tmp_path):
    assert _outputs(case, tmp_path) == recorded[case]


def _retained_per_item(build) -> tuple[float, list]:
    """Bytes that the collection ``build()`` returns keeps allocated, per item,
    as tracemalloc counts them, and the collection. A first, unmeasured call fills the
    caches a process fills once (strptime's patterns)."""
    build()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        items = build()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / len(items), items


def test_rows_and_samples_retain_at_most_half_the_dict_layouts_bytes():
    """Memory guard on the generated case's 1,142 parsed person rows (five
    extra columns) and the 186 samples built from them. With a ``__dict__``
    per row and per sample, a dict of extra columns per row, two feature
    dicts per sample and a fresh string per field, CPython 3.11.7 retained
    962 B per parsed PersonRow and 1,496 B per sample here. Slotted rows with
    keyed tuples of shared values retain 389 B per row, and the samples'
    columns (one list per feature, of shared values) 400 B per sample. The
    bounds are half the dict layout's numbers. Under another interpreter,
    compare its sys.getsizeof of a slotted object, a tuple, a list and a dict
    first."""
    data = _input_csv("generated").encode("utf-8")
    per_row, rows = _retained_per_item(
        lambda: parse_person_rows(io.BytesIO(data), ColumnSchema.default()).rows)
    per_sample, samples = _retained_per_item(lambda: build_vehicle_samples(rows))
    assert (len(rows), len(samples)) == (1142, 186)
    assert per_row <= 962 / 2
    assert per_sample <= 1496 / 2


def _peak_above_start(call) -> int:
    """tracemalloc's peak during ``call()``, less what was traced when it began."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_curation_peak_is_under_two_and_a_half_groupings_of_its_rows():
    """Memory guard on ``curate``: its tracemalloc peak against that of
    ``group_units``, which it calls, on the same 10,319 parsed rows (1,500
    generated crashes). Curating one crash at a time holds little beyond the
    grouping and the curated rows. Making two passes over every unit, with a
    verdict per unit, a copy of the surviving units, a (crash, VIN) map over
    every unit and a sort of the output, held more: under CPython 3.11.7 that
    curate peaked at 2.33 MiB against 0.70 MiB (3.3x), and the one-pass
    curate at 1.32 MiB (1.9x). On perfbench's curate_encode seed-1 input
    (74,198 rows) the same comparison read 22.4 and 9.7 MiB against 7.0 MiB.
    The bound sits between the two."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HEADER)
    writer.writerows(_generated_lines(seed=20261018, n_crashes=1500))
    rows = parse_person_rows(io.BytesIO(buf.getvalue().encode("utf-8")),
                             ColumnSchema.default()).rows
    decoder = StubDecoder({prefix: DecodedVehicle(**entry)
                           for prefix, entry in DECODER_TABLE.items()})
    curate(rows, decoder)  # an unmeasured first call
    curate_peak = _peak_above_start(lambda: curate(rows, decoder))
    grouping_peak = _peak_above_start(lambda: group_units(rows))
    assert len(rows) == 10319
    assert curate_peak < 2.5 * grouping_peak


# summary.json's content for the generated case's curated rows (125 crashes,
# one all-Unknown crash severity in nine, one age flagged invalid)
GENERATED_SUMMARY = {
    "crash_severity_shares": {"Fatal": 0.56, "NoApparentInjury": 0.024, "PossibleInjury": 0.08,
                              "SuspectedMinorInjury": 0.096, "SuspectedSeriousInjury": 0.168,
                              "Unknown": 0.072},
    "mean_driver_age": 49.070422535211264,
    "mean_occupant_age": 44.78688524590164,
    "mean_units_per_crash": 1.84,
    "n_crashes": 125,
    "n_persons": 459,
    "n_units": 230,
    "occupants_per_vehicle": {"1": 93, "2": 66, "3": 52, "4": 17, "5": 2},
}


def test_summary_of_curated_rows_in_any_order_matches_the_record():
    rows = parse_person_rows(io.BytesIO(_input_csv("generated").encode("utf-8")),
                             ColumnSchema.default()).rows
    decoder = StubDecoder({prefix: DecodedVehicle(**entry)
                           for prefix, entry in DECODER_TABLE.items()})
    rows = curate(rows, decoder).rows
    order = random.Random(20261020)
    for _ in range(6):
        summary = summarize_dataset(rows).to_dict()
        assert json.dumps(summary, sort_keys=True) == json.dumps(GENERATED_SUMMARY, sort_keys=True)
        rows = order.sample(rows, len(rows))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {case: _outputs(case, Path(tmp) / case) for case in sorted(CASES)}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
