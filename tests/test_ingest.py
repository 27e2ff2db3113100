import csv
import gc
import io
import tempfile
import warnings
from datetime import date
from pathlib import Path

import pytest
from fixture_curation import (
    EXPECTED,
    ROWS,
    V_BADCHECK,
    V_HONDA,
    V_NODECODE,
    V_TESLA,
    V_TOYOTA,
    expected_verdicts,
    fixture_csv_bytes,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from crashsev.ingest import (
    ColumnSchema,
    DecodedVehicle,
    DecoderUnavailable,
    DisabledDecoder,
    PersonRow,
    PersonType,
    SchemaError,
    SeatingPosition,
    SeverityClass,
    StubDecoder,
    VinStatus,
    compute_age,
    curate,
    max_severity,
    parse_person_rows,
    reconcile_unit_persons,
    summarize_dataset,
    validate_vin,
    vin_check_digit,
    write_curated_csv,
)

VIN_ALPHABET = "0123456789ABCDEFGHJKLMNPRSTUVWXYZ"


def _row(**kwargs) -> PersonRow:
    defaults = dict(
        crash_id="C1",
        unit_vin=V_HONDA,
        person_type=PersonType.DRIVER,
        seating_position=SeatingPosition.FRONT_LEFT,
        severity=SeverityClass.NO_APPARENT_INJURY,
        reported_age=40,
    )
    defaults.update(kwargs)
    return PersonRow(**defaults)


class TestParse:
    def test_two_well_formed_lines(self, schema):
        csv = (
            "CrashID,VIN,PersonType,SeatingPosition,Severity\n"
            "C1,VIN1,Driver,Front Left Side,Fatal\n"
            "C1,VIN1,Occupant,Right Front,Possible Injury\n"
        )
        result = parse_person_rows(io.BytesIO(csv.encode()), schema)
        assert len(result.rows) == 2
        assert not result.errors
        assert result.rows[0].severity is SeverityClass.FATAL
        assert result.rows[1].seating_position is SeatingPosition.OTHER

    def test_empty_vin_is_parsed_not_rejected(self, schema):
        csv = "CrashID,VIN,PersonType,SeatingPosition,Severity\nC1,,Driver,Front Left Side,Fatal\n"
        result = parse_person_rows(io.BytesIO(csv.encode()), schema)
        assert len(result.rows) == 1
        assert result.rows[0].unit_vin == ""

    def test_header_only_gives_empty_sequence(self, schema):
        csv = "CrashID,VIN,PersonType,SeatingPosition,Severity\n"
        result = parse_person_rows(io.BytesIO(csv.encode()), schema)
        assert result.rows == []
        assert result.errors == []

    def test_missing_required_column_names_it(self, schema):
        csv = "CrashID,PersonType,SeatingPosition,Severity\nC1,Driver,Front Left Side,Fatal\n"
        with pytest.raises(SchemaError, match="VIN"):
            parse_person_rows(io.BytesIO(csv.encode()), schema)

    def test_malformed_line_collected_with_line_number(self, schema):
        csv = (
            "CrashID,VIN,PersonType,SeatingPosition,Severity\n"
            "C1,V,Driver,Front Left Side,Fatal\n"
            "C1,V,Driver,Front Left Side\n"           # short line
            "C2,V,Starfish,Front Left Side,Fatal\n"   # unknown person type
        )
        result = parse_person_rows(io.BytesIO(csv.encode()), schema)
        assert len(result.rows) == 1
        assert [e.line_number for e in result.errors] == [3, 4]

    def test_unknown_columns_preserved(self, schema):
        csv = (
            "CrashID,VIN,PersonType,SeatingPosition,Severity,Weather\n"
            "C1,V,Driver,Front Left Side,Fatal,Rain\n"
        )
        result = parse_person_rows(io.BytesIO(csv.encode()), schema)
        assert result.rows[0].raw_attributes == {"Weather": "Rain"}

    def test_callers_file_stays_open_and_nothing_leaks(self, schema, tmp_path):
        # the text wrapper around a binary handle is detached, not left for
        # the collector, which would close the caller's file and warn
        path = tmp_path / "persons.csv"
        path.write_bytes(b"CrashID,VIN,PersonType,SeatingPosition,Severity\n"
                         b"C1,V,Driver,Front Left Side,Fatal\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with open(path, "rb") as fh:
                result = parse_person_rows(fh, schema)
                gc.collect()
                assert not fh.closed
            gc.collect()
        assert len(result.rows) == 1
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_missing_column_still_leaves_the_callers_file_open(self, schema, tmp_path):
        path = tmp_path / "persons.csv"
        path.write_bytes(b"CrashID,PersonType,SeatingPosition,Severity\n")
        with open(path, "rb") as fh:
            with pytest.raises(SchemaError):
                parse_person_rows(fh, schema)
            gc.collect()
            assert not fh.closed


class TestValidateVin:
    def test_blank(self):
        assert validate_vin("", 2020, DisabledDecoder()).status is VinStatus.INVALID_BLANK

    def test_repeating(self):
        verdict = validate_vin("11111111111111111", 2020, DisabledDecoder())
        assert verdict.status is VinStatus.INVALID_REPEATING

    def test_spec_vin_check_digit_is_x(self):
        # independently verified against the ISO 3779 transliteration/weights
        vin = "1M8GDM9AXKP042788"
        assert vin_check_digit(vin) == "X"
        verdict = validate_vin(vin, 1990, DisabledDecoder())
        assert verdict.status is VinStatus.VALID_FORMAT

    def test_length_and_alphabet(self):
        assert validate_vin("1HG", 2020, DisabledDecoder()).status is VinStatus.INVALID_LENGTH
        bad = V_HONDA[:12] + "O" + V_HONDA[13:]
        assert validate_vin(bad, 2020, DisabledDecoder()).status is VinStatus.INVALID_CHARACTERS

    def test_check_digit_unique_over_alphabet(self):
        # exactly one of the 33 candidate characters self-validates position 9
        vin = V_HONDA
        matches = [
            c for c in VIN_ALPHABET
            if vin_check_digit(vin[:8] + c + vin[9:]) == c
        ]
        assert matches == [vin[8]]

    def test_year_too_recent_margin(self, decoder):
        # Tesla prefix decodes to model year 2021: fine for crash year 2020
        # (model years run one ahead), too recent for 2019
        ok = validate_vin("5YJSA1E29MF109876", 2020, decoder)
        assert ok.status is VinStatus.VALID_FORMAT
        bad = validate_vin("5YJSA1E29MF109876", 2019, decoder)
        assert bad.status is VinStatus.YEAR_TOO_RECENT

    def test_decoder_miss_is_verdict_not_crash(self, decoder):
        verdict = validate_vin("5NPE24AF71FH09134", 2020, decoder)
        assert verdict.status is VinStatus.DECODER_ERROR

    def test_pure_function(self, decoder):
        a = validate_vin(V_HONDA, 2020, decoder)
        b = validate_vin(V_HONDA, 2020, decoder)
        assert a == b

    def test_valid_format_implies_shape_constraints(self, rng):
        # fuzz: whenever a verdict is ValidFormat, the VIN is 17 characters
        # over the restricted alphabet
        pool = list("0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ ")
        allowed = set(VIN_ALPHABET)
        decoder = DisabledDecoder()
        seen_valid = 0
        for _ in range(500):
            length = int(rng.integers(0, 20))
            vin = "".join(rng.choice(pool, size=length))
            if length == 17 and set(vin) <= allowed and rng.random() < 0.5:
                vin = vin[:8] + vin_check_digit(vin) + vin[9:]
            verdict = validate_vin(vin, 2020, decoder)
            if verdict.status is VinStatus.VALID_FORMAT:
                seen_valid += 1
                v = vin.strip().upper()
                assert len(v) == 17
                assert not set(v) & set("IOQ")
        # ensure the interesting branch actually fired at least once
        good = validate_vin(V_HONDA, 2020, decoder)
        assert good.status is VinStatus.VALID_FORMAT


def _reference_decode(table: dict, vin: str) -> DecodedVehicle:
    """The decoder's lookup as a linear scan: every prefix tried, longest
    first."""
    for prefix in sorted(table, key=len, reverse=True):
        if vin.startswith(prefix):
            return table[prefix]
    raise DecoderUnavailable(vin)


class TestStubDecoder:
    def test_longest_prefix_wins_as_in_a_linear_scan(self, rng):
        # nested prefixes of lengths 1 to 9, and prefixes no VIN starts with
        table = {}
        for i, prefix in enumerate(["1", "1H", "1HG", "1HGCM", "1HGCM8", "1HGCM826",
                                    "1HGCM8263", "2T", "2T1BU", "5YJSA1E2", "ZZZZZZZ"]):
            table[prefix] = DecodedVehicle(make=f"m{i}", model=prefix, model_year=2000 + i)
        decoder = StubDecoder(table)
        pool = list("12HGCM8639TBUZ5YJSAE")
        starts = ["1HGCM8263", "1HGCM826", "1HGC", "1H", "2T1B", "5YJSA1E", "5YJSA1E2", "", "9"]
        for _ in range(2000):
            start = starts[int(rng.integers(len(starts)))]
            vin = start + "".join(rng.choice(pool, size=17 - len(start)))
            try:
                want = _reference_decode(table, vin)
            except DecoderUnavailable:
                with pytest.raises(DecoderUnavailable):
                    decoder.decode(vin)
                continue
            assert decoder.decode(vin) is want

    def test_empty_table_misses(self):
        with pytest.raises(DecoderUnavailable):
            StubDecoder({}).decode("1HGCM82633A004352")


class TestComputeAge:
    def test_exact_years(self):
        assert compute_age(date(2000, 1, 1), date(2020, 6, 1)) == 20

    def test_birthday_not_reached(self):
        assert compute_age(date(2000, 6, 2), date(2020, 6, 1)) == 19

    def test_impossible_ordering_raises(self):
        with pytest.raises(ValueError):
            compute_age(date(2021, 1, 1), date(2020, 1, 1))


class TestReconcile:
    def test_sole_front_left_occupant_retyped(self):
        out = reconcile_unit_persons([_row(person_type=PersonType.OCCUPANT)])
        assert not out.unit_removed
        assert out.persons[0].person_type is PersonType.DRIVER
        assert out.reassigned == 1

    def test_second_driver_demoted(self):
        persons = [
            _row(),
            _row(person_type=PersonType.DRIVER, seating_position=SeatingPosition.OTHER,
                 reported_age=22),
        ]
        out = reconcile_unit_persons(persons)
        assert not out.unit_removed
        types = [p.person_type for p in out.persons]
        assert types.count(PersonType.DRIVER) == 1
        assert types.count(PersonType.OCCUPANT) == 1

    def test_underage_driver_removes_unit(self):
        out = reconcile_unit_persons([_row(reported_age=12)])
        assert out.unit_removed
        assert out.removal_reason == "underage_driver"

    def test_never_outputs_zero_or_multiple_drivers(self, rng):
        # random units: the surviving ones always hold exactly one driver
        for _ in range(300):
            persons = []
            for i in range(rng.integers(1, 5)):
                persons.append(
                    _row(
                        person_type=PersonType(rng.choice(["Driver", "Occupant"])),
                        seating_position=SeatingPosition(
                            rng.choice(["FrontLeftSide", "Other", "Unknown"])
                        ),
                        reported_age=int(rng.integers(10, 80)),
                    )
                )
            out = reconcile_unit_persons(persons)
            if not out.unit_removed:
                drivers = [p for p in out.persons if p.person_type is PersonType.DRIVER]
                assert len(drivers) == 1


class TestSeverity:
    def test_order_and_unknown(self):
        assert max_severity([SeverityClass.NO_APPARENT_INJURY, SeverityClass.FATAL]) is SeverityClass.FATAL
        assert max_severity([SeverityClass.UNKNOWN]) is None
        assert (
            max_severity([SeverityClass.UNKNOWN, SeverityClass.POSSIBLE_INJURY])
            is SeverityClass.POSSIBLE_INJURY
        )


@pytest.fixture(scope="module")
def outcome(schema, decoder, curation_csv):
    parsed = parse_person_rows(io.BytesIO(curation_csv), schema)
    assert not parsed.errors
    assert len(parsed.rows) == 50
    return parsed.rows, curate(parsed.rows, decoder)


class TestCurationWorkflow:

    def test_audit_tallies_match_hand_derivation(self, outcome):
        _, result = outcome
        audit = result.audit.to_dict()
        for key, want in EXPECTED.items():
            assert audit[key] == want, f"{key}: {audit[key]} != {want}"

    def test_conservation_identity(self, outcome):
        _, result = outcome
        assert result.audit.conservation_holds()

    def test_per_row_verdicts(self, outcome):
        rows, result = outcome
        verdicts = expected_verdicts()
        kept = {(r.crash_id, r.unit_key[1], r.line_number) for r in result.rows}
        retyped = {
            (r.crash_id, r.unit_key[1], r.line_number): r.person_type for r in result.rows
        }
        for row, verdict, spec in zip(rows, verdicts, ROWS):
            key = (row.crash_id, row.unit_key[1], row.line_number)
            if verdict.startswith("removed_unit:"):
                reason = verdict.split(":", 1)[1]
                assert key not in kept, f"{spec[0]} row should be gone"
                assert result.removed_units[row.unit_key] == reason
            elif verdict.startswith("removed_person:"):
                assert key not in kept, f"{spec[0]} row should be gone"
            elif verdict == "kept_retyped_driver":
                assert retyped[key] is PersonType.DRIVER
            elif verdict == "kept_demoted_occupant":
                assert retyped[key] is PersonType.OCCUPANT
            else:
                assert key in kept, f"{spec[0]} row should survive"

    def test_age_corrections(self, outcome):
        _, result = outcome
        by_crash = {}
        for r in result.rows:
            by_crash.setdefault(r.crash_id, []).append(r)
        assert by_crash["C18"][0].reported_age == 34      # dob overrides reported 99
        assert by_crash["C19"][0].reported_age == 30      # implausible dob, reported kept
        assert by_crash["C19"][0].age_invalid
        assert by_crash["C20"][0].reported_age is None    # nothing plausible left

    def test_curation_is_idempotent(self, outcome, schema, decoder, tmp_path):
        _, result = outcome
        out = tmp_path / "curated.csv"
        write_curated_csv(result.rows, schema, out)
        with open(out, "rb") as fh:
            reparsed = parse_person_rows(fh, schema)
        assert not reparsed.errors
        second = curate(reparsed.rows, decoder)
        assert second.audit.rows_in == second.audit.rows_out == len(result.rows)
        assert second.audit.persons_reassigned == 0
        assert second.audit.units_removed == 0


# generated person rows: units draw a crash, a VIN and whether they carry a
# unit id; each person belongs to one unit, so a unit's persons share its VIN
# and its crash's date
_CRASH_DATES = {"C1": "2020-06-15", "C2": "03/02/2019"}
_UNITS = st.lists(
    st.tuples(st.sampled_from(sorted(_CRASH_DATES)),
              st.sampled_from([V_HONDA, V_TOYOTA, V_TESLA, V_NODECODE, V_BADCHECK, ""]),
              st.booleans()),
    min_size=1, max_size=4,
)
_PERSONS = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.sampled_from(["Driver", " driver", "Occupant", "Passenger", "Pedestrian"]),
        st.sampled_from(["Front Left Side", "FrontLeftSide", "Right Front", "Rear", "", "  "]),
        st.sampled_from(["No Apparent Injury", "Possible Injury", "Fatal", "Unknown", ""]),
        st.one_of(st.none(), st.integers(5, 95)),
        st.one_of(st.none(), st.dates(min_value=date(1925, 1, 1), max_value=date(2021, 12, 31))),
        st.booleans(),
        st.sampled_from(["", "Rain", "Clear, dry"]),
    ),
    min_size=1, max_size=12,
)


def _person_csv(units, persons) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["CrashID", "UnitID", "VIN", "PersonType", "SeatingPosition", "Severity",
                     "DateOfBirth", "Age", "CrashDate", "Weather"])
    for unit, ptype, seat, severity, age, born, us_format, weather in persons:
        crash, vin, has_id = units[unit % len(units)]
        dob = "" if born is None else born.strftime("%m/%d/%Y" if us_format else "%Y-%m-%d")
        writer.writerow([crash, f"U{unit % len(units)}" if has_id else "", vin, ptype, seat,
                         severity, dob, "" if age is None else str(age), _CRASH_DATES[crash],
                         weather])
    return buf.getvalue().encode()


class TestFixedPoint:
    @settings(max_examples=300, deadline=None)
    @given(units=_UNITS, persons=_PERSONS)
    def test_curating_curated_output_changes_nothing(self, schema, decoder, units, persons):
        # curate -> write -> parse -> curate -> write: the second pass removes
        # and retypes nobody and writes the same bytes
        parsed = parse_person_rows(io.BytesIO(_person_csv(units, persons)), schema)
        assert not parsed.errors
        first = curate(parsed.rows, decoder)
        with tempfile.TemporaryDirectory() as tmp:
            once, twice = Path(tmp) / "once.csv", Path(tmp) / "twice.csv"
            write_curated_csv(first.rows, schema, once)
            with open(once, "rb") as fh:
                reparsed = parse_person_rows(fh, schema)
            assert not reparsed.errors
            second = curate(reparsed.rows, decoder)
            write_curated_csv(second.rows, schema, twice)
            assert twice.read_bytes() == once.read_bytes()
        audit = second.audit
        assert audit.rows_in == audit.rows_out == len(first.rows)
        assert audit.units_removed == audit.persons_removed == audit.persons_reassigned == 0


class TestSummary:
    def test_fatal_share(self):
        rows = []
        for i in range(10):
            sev = SeverityClass.FATAL if i == 0 else SeverityClass.NO_APPARENT_INJURY
            rows.append(_row(crash_id=f"C{i}", severity=sev))
        report = summarize_dataset(rows)
        assert report.crash_severity_shares["Fatal"] == pytest.approx(0.1)
        assert report.n_crashes == 10

    def test_empty_input(self):
        report = summarize_dataset([])
        assert report.n_persons == 0
        assert report.crash_severity_shares == {}
        assert report.mean_driver_age is None

    def test_counts_and_ages(self):
        rows = [
            _row(crash_id="A", reported_age=30),
            _row(
                crash_id="A",
                person_type=PersonType.OCCUPANT,
                seating_position=SeatingPosition.OTHER,
                reported_age=10,
            ),
            _row(crash_id="B", unit_vin="X", reported_age=50),
        ]
        report = summarize_dataset(rows)
        assert report.n_units == 2
        assert report.occupants_per_vehicle == {1: 1, 2: 1}
        assert report.mean_occupant_age == pytest.approx(30.0)
        assert report.mean_driver_age == pytest.approx(40.0)
        assert report.mean_units_per_crash == pytest.approx(1.0)
