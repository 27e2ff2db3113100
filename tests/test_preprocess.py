import gc
import io
import logging
import math
import struct
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from fixture_curation import fixture_csv_bytes
from hypothesis import given, settings
from hypothesis import strategies as st

import crashsev.preprocess as preprocess

from crashsev.ingest import (
    CrashOrderError,
    InputFileError,
    PersonRow,
    PersonType,
    SeatingPosition,
    SeverityClass,
    curate,
    iter_person_rows,
    parse_person_rows,
    write_curated_csv,
)
from crashsev.preprocess import (
    NON_SEVERE,
    SEVERE,
    AggregationConfig,
    ColumnInfo,
    FeatureMatrix,
    PreprocessModel,
    VehicleSamples,
    _parse_float,
    _time_of_day_hours,
    binarize_severity,
    build_vehicle_samples,
    drop_postcrash_features,
    _level,
    encode,
    filter_passenger_vehicles,
    fit_preprocess,
    load_matrix,
    save_matrix,
)


def _sample(target=NON_SEVERE, numeric=None, categorical=None, crash="C1", vin="V") -> dict:
    """One sample's record: its unit, its target and its features by name."""
    return {"crash_id": crash, "unit_vin": vin, "target": target,
            "numeric": numeric or {"NumberOfOccupants": 1.0}, "categorical": categorical or {}}


def _samples(records: list[dict]) -> VehicleSamples:
    """The records of ``_sample`` in columns; a feature that a record lacks
    reads as missing (None or "") in its row."""
    numeric = dict.fromkeys(name for r in records for name in r["numeric"])
    categorical = dict.fromkeys(name for r in records for name in r["categorical"])
    return VehicleSamples(
        [r["crash_id"] for r in records], [r["unit_vin"] for r in records],
        [r["target"] for r in records],
        {name: [r["numeric"].get(name) for r in records] for name in numeric},
        {name: [r["categorical"].get(name, "") for r in records] for name in categorical})


def _records(samples: VehicleSamples) -> list[dict]:
    """Each sample as the record ``_sample`` makes."""
    return [
        {"crash_id": samples.crash_id[i], "unit_vin": samples.unit_vin[i],
         "target": samples.target[i],
         "numeric": {name: column[i] for name, column in samples.numeric.items()},
         "categorical": {name: column[i] for name, column in samples.categorical.items()}}
        for i in range(len(samples))
    ]


def _find(samples: VehicleSamples, crash: str, vin_prefix: str) -> dict:
    """The record of the one sample of ``crash`` whose VIN starts with ``vin_prefix``."""
    found = [s for s in _records(samples)
             if s["crash_id"] == crash and s["unit_vin"].startswith(vin_prefix)]
    assert len(found) == 1
    return found[0]


class TestBinarize:
    def test_fatal_is_severe(self):
        assert binarize_severity(SeverityClass.FATAL) == SEVERE
        assert binarize_severity(SeverityClass.SUSPECTED_SERIOUS_INJURY) == SEVERE

    def test_minor_is_non_severe(self):
        assert binarize_severity(SeverityClass.SUSPECTED_MINOR_INJURY) == NON_SEVERE
        assert binarize_severity(SeverityClass.NO_APPARENT_INJURY) == NON_SEVERE
        assert binarize_severity(SeverityClass.POSSIBLE_INJURY) == NON_SEVERE

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            binarize_severity(SeverityClass.UNKNOWN)


@pytest.fixture(scope="module")
def curated_rows(schema, decoder, curation_csv):
    parsed = parse_person_rows(io.BytesIO(curation_csv), schema)
    return curate(parsed.rows, decoder).rows


class TestBuildSamples:
    def test_target_is_worst_occupant_severity(self, curated_rows):
        samples = build_vehicle_samples(curated_rows)
        target = dict(zip(zip(samples.crash_id, samples.unit_vin), samples.target))
        # C23 Toyota carried a Fatal driver; Ford had Serious + Possible
        assert target[("C23", "2T1BURHE25C047366")] == SEVERE
        assert target[("C23", "1FTFW1ET01FB12345")] == SEVERE
        assert target[("C23", "1HGCM82633A004352")] == NON_SEVERE

    def test_all_unknown_unit_excluded(self, curated_rows):
        samples = build_vehicle_samples(curated_rows)
        assert "C24" not in samples.crash_id

    def test_excluded_units_logged_once_per_reason(self, caplog):
        # four units with only Unknown severities and two without a driver:
        # one line per reason, with the count and the first three keys
        def person(unit, ptype, severity):
            return PersonRow(crash_id="C1", unit_vin=f"V{unit}", unit_id=f"U{unit}",
                             person_type=ptype, seating_position=SeatingPosition.FRONT_LEFT,
                             severity=severity)

        rows = [person(u, PersonType.DRIVER, SeverityClass.UNKNOWN) for u in range(4)]
        rows += [person(u, PersonType.OCCUPANT, SeverityClass.FATAL) for u in (4, 5)]
        rows.append(person(6, PersonType.DRIVER, SeverityClass.FATAL))
        with caplog.at_level(logging.INFO, logger="crashsev.preprocess"):
            samples = build_vehicle_samples(rows)
        assert len(samples) == 1
        lines = [(r.levelname, r.getMessage()) for r in caplog.records]
        assert lines == [
            ("WARNING", "2 units skipped: not exactly one driver after curation "
                        "(first: C1/U4, C1/U5)"),
            ("INFO", "4 units excluded: all severities Unknown (first: C1/U0, C1/U1, C1/U2, ...)"),
        ]

    def test_occupant_age_summaries(self, curated_rows):
        jeep = _find(build_vehicle_samples(curated_rows), "C28", "")["numeric"]
        assert jeep["OccupantsMinAge"] == 5
        assert jeep["OccupantsMeanAge"] == pytest.approx((35 + 5 + 65) / 3)
        assert jeep["OccupantsMaxAge"] == 65
        assert jeep["NumberOfOccupants"] == 3
        assert jeep["DriverAge"] == 35

    def test_interacting_slots_filled_then_none(self, curated_rows):
        honda = _find(build_vehicle_samples(curated_rows), "C23", "1HG")["categorical"]
        filled = [honda[f"InteractingUnitType{i}"] for i in range(1, 6)]
        assert filled[:2] == ["Passenger Car", "Passenger Car"]
        assert filled[2:] == ["none", "none", "none"]
        models = [honda[f"InteractingVehicleModel{i}"] for i in range(1, 3)]
        assert sorted(models) == ["Corolla", "F150"]

    def test_slot_order_is_by_vin(self, curated_rows):
        honda = _find(build_vehicle_samples(curated_rows), "C23", "1HG")["categorical"]
        # the other two units sorted by VIN: 1FTFW... (Ford) then 2T1BUR... (Toyota)
        assert honda["InteractingVehicleModel1"] == "F150"
        assert honda["InteractingVehicleModel2"] == "Corolla"

    def test_cyclical_sources_from_crash_datetime(self, curated_rows):
        s = _find(build_vehicle_samples(curated_rows), "C01", "1HG")["numeric"]
        assert s["CrashMonth"] == 6
        assert s["CrashTime24h"] == pytest.approx(14.5)


class TestStreaming:
    def test_holds_one_crash_of_rows_at_a_time(self, curated_rows, schema, tmp_path):
        # live rows at each row the parser yields: the crash being read, which
        # is the previous row's, and the new row; never every row
        write_curated_csv(curated_rows, schema, tmp_path / "curated.csv")
        sizes = Counter(row.crash_id for row in curated_rows)
        gc.collect()
        before = sum(isinstance(o, PersonRow) for o in gc.get_objects())
        seen = []

        def counted(stream):
            previous = None
            for row in iter_person_rows(stream, schema, []):
                live = sum(isinstance(o, PersonRow) for o in gc.get_objects()) - before
                seen.append((live, sizes[previous] + 1 if previous else 1))
                previous = row.crash_id
                yield row

        with open(tmp_path / "curated.csv", "rb") as fh:
            streamed = build_vehicle_samples(counted(fh))
        assert len(seen) == len(curated_rows) > max(sizes.values()) + 1
        assert all(live <= bound for live, bound in seen), seen
        with open(tmp_path / "curated.csv", "rb") as fh:
            listed = build_vehicle_samples(parse_person_rows(fh, schema).rows)
        assert _records(streamed) == _records(listed)

    @pytest.mark.parametrize("crashes, line", [
        (["C1", "C2", "C1"], 4),  # a crash's rows apart
        (["C2", "C1"], 3),
        (["C1", "C1", "C1", "C1"], None),
    ], ids=["split", "descending", "one-crash"])
    def test_crashes_out_of_order_are_refused(self, crashes, line):
        rows = [PersonRow(crash_id=crash, unit_vin=f"V{i}", person_type=PersonType.DRIVER,
                          seating_position=SeatingPosition.FRONT_LEFT,
                          severity=SeverityClass.FATAL, line_number=i + 2)
                for i, crash in enumerate(crashes)]
        if line is None:
            assert len(build_vehicle_samples(rows)) == len(rows)
            return
        with pytest.raises(CrashOrderError, match=f"line {line}: crash 'C1' follows crash 'C2'"):
            build_vehicle_samples(iter(rows))


class TestOutOfRangeFields:
    @pytest.mark.parametrize("text", ["NaN", "nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_float_reads_as_missing(self, text):
        assert _parse_float(text) is None

    def test_finite_floats_keep_their_bits(self):
        assert _parse_float(" 45") == 45.0
        assert math.copysign(1.0, _parse_float("-0")) == -1.0
        assert _parse_float("n/a") is None

    @pytest.mark.parametrize("text", ["99:99", "-1:30", "24:00", "12:60", "7:-5"])
    def test_out_of_range_time_reads_as_missing(self, text):
        assert _time_of_day_hours(text) is None

    def test_in_range_times(self):
        assert _time_of_day_hours("0:00") == 0.0
        assert _time_of_day_hours("23:59:30") == 23 + 59 / 60
        assert _time_of_day_hours(" 7 ") == 7.0

    def test_one_bad_value_does_not_poison_the_imputed_column(self):
        # speeds 30, NaN and blank; times 10:00, 99:99 and blank
        rows = [
            PersonRow(crash_id="C1", unit_vin=f"V{u}", person_type=PersonType.DRIVER,
                      seating_position=SeatingPosition.FRONT_LEFT, severity=SeverityClass.FATAL,
                      crash_time=time, unit_type="Passenger Car",
                      raw_attributes={"PostedSpeed": speed})
            for u, (speed, time) in enumerate([("30", "10:00"), ("NaN", "99:99"), ("", None)])
        ]
        samples = build_vehicle_samples(rows)
        model = fit_preprocess(samples)
        assert model.numeric_means["PostedSpeed"] == 30.0
        assert model.numeric_means["CrashTime24h"] == 10.0
        matrix = encode(samples, model)
        assert np.isfinite(matrix.X).all()
        speed = matrix.X[:, [c.name for c in matrix.columns].index("PostedSpeed")]
        assert speed.tolist() == [30.0, 30.0, 30.0]


class TestFilterAndDenylist:
    def test_truck_dropped_interactions_kept(self):
        car = _sample(categorical={"UnitType": "Passenger Car", "InteractingUnitType1": "Truck"},
                      vin="V1")
        truck = _sample(categorical={"UnitType": "Truck", "InteractingUnitType1": "none"},
                        vin="V2")
        kept = filter_passenger_vehicles(_samples([car, truck]))
        assert _records(kept) == [car]

    def test_empty_input(self):
        assert len(filter_passenger_vehicles(_samples([]))) == 0

    def test_samples_without_unit_type_are_all_dropped(self):
        assert len(filter_passenger_vehicles(_samples([_sample(), _sample()]))) == 0

    def test_denylist_removal_and_warning(self, caplog):
        kept, removed = drop_postcrash_features(
            ["PostedSpeed", "NumberOfFatalities", "Location"]
        )
        assert removed == ["NumberOfFatalities"]
        assert kept == ["PostedSpeed", "Location"]

    def test_fit_checks_the_denylist_once_over_all_columns(self, caplog):
        # a categorical CrashSeverity goes without a "not present" warning,
        # and each absent entry warns once
        samples = _samples([_sample(categorical={"CrashSeverity": "Fatal", "Belted": "Yes"}),
                            _sample(categorical={"CrashSeverity": "Minor", "Belted": "No"})])
        with caplog.at_level(logging.WARNING, logger="crashsev.preprocess"):
            model = fit_preprocess(samples)
        assert model.removed_postcrash == ["CrashSeverity"]
        assert model.categorical_order == ["Belted"]
        warned = [r.getMessage() for r in caplog.records if "denylist" in r.getMessage()]
        assert sorted(warned) == sorted(
            f"post-crash denylist entry {name!r} not present in schema"
            for name in ("MostHarmfulEvent", "NumberOfFatalities", "NumberOfInjuries")
        )

    def test_custom_denylist_extra_name(self):
        kept, removed = drop_postcrash_features(
            ["A", "B"], denylist=("B", "NumberOfFatalities")
        )
        assert kept == ["A"]
        assert removed == ["B"]


class TestAggregationConfigFile:
    def test_a_repeated_key_is_refused_by_name(self, tmp_path):
        path = tmp_path / "agg.json"
        path.write_text('{"cyclical_periods": {"CrashMonth": 12, "CrashMonth": 0.5}}')
        with pytest.raises(InputFileError, match="repeated key 'CrashMonth'"):
            AggregationConfig.from_file(path)


class TestFitPreprocess:
    def test_mean_imputation_value(self):
        samples = _samples([
            _sample(numeric={"Age": 10.0, "NumberOfOccupants": 1.0}),
            _sample(numeric={"Age": None, "NumberOfOccupants": 1.0}),
            _sample(numeric={"Age": 30.0, "NumberOfOccupants": 1.0}),
        ])
        model = fit_preprocess(samples)
        assert model.numeric_means["Age"] == pytest.approx(20.0)
        matrix = encode(samples, model)
        age_col = matrix.X[:, [c.name for c in matrix.columns].index("Age")]
        assert age_col[1] == pytest.approx(20.0)

    def test_missing_level_in_vocabulary(self):
        samples = _samples([
            _sample(categorical={"Belted": "A"}),
            _sample(categorical={"Belted": ""}),
            _sample(categorical={"Belted": "B"}),
        ])
        model = fit_preprocess(samples)
        assert model.vocabularies["Belted"] == ["A", "B", "missing"]

    def test_cyclical_periods(self):
        samples = _samples([_sample(numeric={"CrashWeekDay": 3.0, "NumberOfOccupants": 1.0})])
        model = fit_preprocess(samples)
        assert model.cyclical_periods["CrashWeekDay"] == 7.0

    def test_all_missing_numeric_dropped(self):
        samples = _samples([
            _sample(numeric={"Ghost": None, "NumberOfOccupants": 1.0}),
            _sample(numeric={"Ghost": None, "NumberOfOccupants": 1.0}),
        ])
        model = fit_preprocess(samples)
        assert "Ghost" in model.dropped_numeric
        assert "Ghost" not in model.numeric_order


class TestEncode:
    def test_quarter_turn(self):
        samples = _samples([_sample(numeric={"CrashMonth": 3.0, "NumberOfOccupants": 1.0})])
        model = fit_preprocess(samples)
        matrix = encode(samples, model)
        names = [c.name for c in matrix.columns]
        assert matrix.X[0, names.index("CrashMonth#sin")] == pytest.approx(1.0)
        assert matrix.X[0, names.index("CrashMonth#cos")] == pytest.approx(0.0, abs=1e-12)

    def test_zero_angle(self):
        samples = _samples([_sample(numeric={"CrashTime24h": 0.0, "NumberOfOccupants": 1.0})])
        model = fit_preprocess(samples)
        matrix = encode(samples, model)
        names = [c.name for c in matrix.columns]
        assert matrix.X[0, names.index("CrashTime24h#sin")] == pytest.approx(0.0, abs=1e-12)
        assert matrix.X[0, names.index("CrashTime24h#cos")] == pytest.approx(1.0)

    def test_level_count_matches_vocabulary(self):
        # a fully observed categorical expands into exactly its level count
        n_levels = 412
        samples = _samples([
            _sample(categorical={"VehicleMake": f"make{i:03d}"}) for i in range(n_levels)
        ])
        model = fit_preprocess(samples)
        matrix = encode(samples, model)
        onehot = [c for c in matrix.columns if c.source == "VehicleMake"]
        assert len(onehot) == n_levels

    def test_unseen_level_encodes_all_zero(self):
        train = _samples([_sample(categorical={"Belted": v}) for v in ("A", "B")])
        model = fit_preprocess(train)
        test = _samples([_sample(categorical={"Belted": "C"})])
        matrix = encode(test, model)
        block = matrix.X[0, [i for i, c in enumerate(matrix.columns) if c.source == "Belted"]]
        assert np.all(block == 0)

    def test_unseen_count_counts_rows(self, caplog):
        # three rows share one unseen value, and a fourth has another: four
        train = _samples([_sample(categorical={"Belted": v}) for v in ("A", "B")])
        model = fit_preprocess(train)
        test = _samples([_sample(categorical={"Belted": v}) for v in ("C", "A", "C", "C", " D ")])
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="crashsev.preprocess"):
            matrix = encode(test, model)
        assert [r.getMessage() for r in caplog.records] == [
            "encode: 4 categorical values outside the training vocabulary"]
        assert matrix.X[:, [c.level == "A" for c in matrix.columns]].ravel().tolist() == [
            0.0, 1.0, 0.0, 0.0, 0.0]

    def test_onehot_lossless_and_sums(self, rng):
        levels = ["a", "b", "c", "d"]
        samples = _samples([
            _sample(categorical={"F": levels[int(rng.integers(len(levels)))]})
            for _ in range(50)
        ])
        model = fit_preprocess(samples)
        matrix = encode(samples, model)
        idx = [i for i, c in enumerate(matrix.columns) if c.source == "F"]
        block = matrix.X[:, idx]
        assert np.all(block.sum(axis=1) <= 1.0)
        for row, level in zip(block, samples.categorical["F"]):
            decoded = matrix.columns[idx[int(np.argmax(row))]].level
            assert decoded == level

    def test_cyclical_identity_every_row(self, rng):
        samples = _samples([
            _sample(numeric={"CrashTime24h": float(rng.uniform(0, 24)), "NumberOfOccupants": 1.0})
            for _ in range(40)
        ])
        model = fit_preprocess(samples)
        matrix = encode(samples, model)
        names = [c.name for c in matrix.columns]
        sin = matrix.X[:, names.index("CrashTime24h#sin")]
        cos = matrix.X[:, names.index("CrashTime24h#cos")]
        assert np.allclose(sin**2 + cos**2, 1.0, atol=1e-9)

    def test_encode_idempotent_given_model(self):
        samples = _samples([
            _sample(numeric={"Age": float(i), "NumberOfOccupants": 1.0},
                    categorical={"F": "ab"[i % 2]})
            for i in range(10)
        ])
        model = fit_preprocess(samples)
        a = encode(samples, model)
        b = encode(samples, model)
        assert np.array_equal(a.X, b.X)
        assert a.columns == b.columns

    def test_means_unaffected_by_transforming_new_rows(self):
        train = _samples([_sample(numeric={"Age": 10.0, "NumberOfOccupants": 1.0}),
                          _sample(numeric={"Age": 30.0, "NumberOfOccupants": 1.0})])
        model = fit_preprocess(train)
        before = dict(model.numeric_means)
        test = _samples([_sample(numeric={"Age": 1000.0, "NumberOfOccupants": 9.0})])
        encode(test, model)
        assert model.numeric_means == before

    def test_a_feature_the_samples_lack_reads_as_missing(self):
        train = _samples([_sample(numeric={"Age": 10.0, "NumberOfOccupants": 1.0},
                                  categorical={"Belted": "A", "F": ""}),
                          _sample(numeric={"Age": 30.0, "NumberOfOccupants": 1.0},
                                  categorical={"Belted": "B", "F": "x"})])
        model = fit_preprocess(train)
        matrix = encode(_samples([_sample(), _sample()]), model)
        names = [c.name for c in matrix.columns]
        assert names == ["Age", "NumberOfOccupants", "Belted=A", "Belted=B",
                         "F=missing", "F=x"]
        assert matrix.X.tolist() == [[20.0, 1.0, 0.0, 0.0, 1.0, 0.0]] * 2


class TestColumnGroups:
    SOURCES = ["a", "b", "a", "c", "b", "a"]  # groups are not contiguous

    @pytest.fixture()
    def interleaved(self, rng):
        cols = [ColumnInfo(name=f"{s}{i}", kind="onehot", source=s)
                for i, s in enumerate(self.SOURCES)]
        return FeatureMatrix(rng.standard_normal((9, 6)), rng.integers(0, 2, 9), cols)

    def test_index_equals_column_scan(self, interleaved):
        derived = [
            interleaved,
            interleaved.take_rows([0, 3, 4]),
            interleaved.take_groups(["b", "a"]),
            interleaved.take_groups(["c", "a"]).take_rows([1, 2]),
            interleaved.take_groups([]),
        ]
        for m in derived:
            sources = list(dict.fromkeys(c.source for c in m.columns))
            assert m.group_names() == sources
            for s in sources:
                scan = [i for i, c in enumerate(m.columns) if c.source == s]
                assert m.group_columns(s).tolist() == scan

    def test_take_groups_orders_columns_by_request(self, interleaved):
        sub = interleaved.take_groups(["b", "a"])
        assert [c.name for c in sub.columns] == ["b1", "b4", "a0", "a2", "a5"]
        assert np.array_equal(sub.X, interleaved.X[:, [1, 4, 0, 2, 5]])
        assert interleaved.take_groups([]).X.shape == (9, 0)

    def test_index_is_read_only(self, interleaved):
        with pytest.raises(ValueError):
            interleaved.group_columns("a")[0] = 1

    def test_unknown_source_raises_key_error(self, interleaved):
        with pytest.raises(KeyError, match="'nope'"):
            interleaved.group_columns("nope")
        with pytest.raises(KeyError, match="'nope'"):
            interleaved.take_groups(["a", "nope"])


class TestPersistence:
    def test_matrix_roundtrip(self, tmp_path, rng):
        X = rng.standard_normal((7, 3))
        y = rng.integers(0, 2, 7)
        m = FeatureMatrix.from_arrays(X, y, names=["a", "b", "c"])
        path = tmp_path / "m.csfm"
        save_matrix(m, path)
        loaded = load_matrix(path)
        assert np.array_equal(loaded.X, m.X)
        assert np.array_equal(loaded.y, m.y)
        assert loaded.columns == m.columns
        with open(path, "rb") as fh:
            assert fh.read(5) == b"CSFM1"

    def test_preprocess_model_roundtrip(self, tmp_path):
        samples = _samples([
            _sample(numeric={"Age": 10.0, "NumberOfOccupants": 1.0},
                    categorical={"F": "x"}),
            _sample(numeric={"Age": None, "NumberOfOccupants": 2.0},
                    categorical={"F": ""}),
        ])
        model = fit_preprocess(samples)
        path = tmp_path / "pp.json"
        model.save(path)
        loaded = PreprocessModel.load(path)
        assert loaded == model

    @pytest.mark.parametrize("X", [
        # -0.0, NaNs (one with a payload and the sign bit), infinities, subnormals
        np.array([[-0.0, np.nan, np.inf],
                  [-np.inf, 5e-324, -2.5e-310],
                  [np.frombuffer(struct.pack("<Q", 0xFFF8000000000001), "<f8")[0], 0.0, 1.0]]),
        np.empty((3, 0)),
    ], ids=["special-values", "no-columns"])
    def test_matrix_bytes_equal_the_copying_writer(self, tmp_path, X):
        # the payload the writer built with astype().tobytes() before it
        # wrote X's own buffer
        m = FeatureMatrix.from_arrays(X, [0, 1, 1])
        expected = (b"CSFM1" + struct.pack("<QQ", m.n_cols, m.n_rows)
                    + m.X.astype("<f8").tobytes(order="C") + m.y.astype("<f8").tobytes())
        save_matrix(m, tmp_path / "m.csfm")
        assert (tmp_path / "m.csfm").read_bytes() == expected
        loaded = load_matrix(tmp_path / "m.csfm")
        assert loaded.X.tobytes() == m.X.tobytes()

    def test_loaded_x_is_one_writable_contiguous_array(self, tmp_path, rng):
        m = FeatureMatrix.from_arrays(rng.standard_normal((5, 4)), [0, 1, 0, 1, 1])
        save_matrix(m, tmp_path / "m.csfm")
        X = load_matrix(tmp_path / "m.csfm").X
        assert X.dtype == np.float64
        assert X.flags.c_contiguous and X.flags.writeable and X.flags.owndata

    @pytest.mark.parametrize("label", [2.5, float("nan"), -1.0, float("inf")])
    def test_matrix_rejects_a_label_other_than_0_or_1(self, tmp_path, label):
        path = tmp_path / "m.csfm"
        save_matrix(FeatureMatrix.from_arrays(np.zeros((3, 2)), [0, 1, 0]), path)
        data = bytearray(path.read_bytes())
        data[-8:] = struct.pack("<d", label)  # the last row's label
        path.write_bytes(bytes(data))
        with pytest.raises(InputFileError, match="label"):
            load_matrix(path)

    def test_matrix_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.csfm"
        path.write_bytes(b"NOPE!" + b"\0" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_matrix(path)


# special values a float64 round trip could lose: signed zeros, subnormals,
# the extremes, infinities and NaN
_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308,
                     1.7976931348623157e308, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)
# names and levels with the characters a descriptor format could trip on
_TEXT = st.text(alphabet=st.one_of(st.sampled_from(',"\'=#\\\n '), st.characters()), max_size=8)


@st.composite
def _feature_matrices(draw):
    n, width = draw(st.integers(0, 6)), draw(st.integers(0, 5))
    X = np.array(draw(st.lists(_FLOATS, min_size=n * width, max_size=n * width)),
                 dtype=np.float64).reshape(n, width)
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    kinds = st.sampled_from(["numeric", "onehot", "cyc_sin", "cyc_cos"])
    columns = [ColumnInfo(name=draw(_TEXT), kind=draw(kinds), source=draw(_TEXT),
                          level=draw(_TEXT)) for _ in range(width)]
    return FeatureMatrix(X, y, columns)


class TestMatrixRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(m=_feature_matrices())
    def test_load_after_save_returns_the_matrix(self, m):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csfm"
            save_matrix(m, path)
            loaded = load_matrix(path)
        assert loaded.X.shape == m.X.shape
        assert loaded.X.tobytes() == m.X.tobytes()  # bit for bit, NaN payloads too
        assert loaded.y.tolist() == m.y.tolist()
        assert loaded.columns == m.columns


def _mixed_samples(n: int, locations: int = 7) -> VehicleSamples:
    """``n`` samples with plain and cyclical numbers, some missing, and two
    categorical features; every third sample's Belted level is "Z"."""
    return _samples([
        _sample(
            target=SEVERE if i % 4 == 0 else NON_SEVERE,
            numeric={"NumberOfOccupants": float(1 + i % 3),
                     "Age": None if i % 5 == 0 else float(17 + i % 60),
                     "CrashTime24h": None if i % 7 == 3 else 5.0 * i % 24 + 0.25},
            categorical={"Belted": "Z" if i % 3 == 0 else "Yes" if i % 3 == 1
                         else "" if i % 6 == 2 else " No ",
                         "Location": f"L{i % locations}"},
        )
        for i in range(n)
    ])


def _model_without_z(samples: VehicleSamples) -> PreprocessModel:
    """A model fitted on the samples whose Belted level is not "Z", so that
    "Z" is outside its vocabulary; only those are left in ``samples``."""
    belted = samples.categorical["Belted"]
    return fit_preprocess(samples.keep([i for i, v in enumerate(belted) if v != "Z"]))


def _dense_reference(samples: VehicleSamples, model: PreprocessModel) -> np.ndarray:
    """``X`` built whole, one column at a time, as the encoder that held the
    dense matrix and one record per sample built it."""
    records = _records(samples)

    def imputed(name):
        mean = model.numeric_means[name]
        return np.array([mean if s["numeric"].get(name) is None
                         else s["numeric"].get(name) for s in records], dtype=np.float64)

    columns = [imputed(name) for name in model.numeric_order]
    for name in model.cyclical_order:
        angle = 2.0 * math.pi * imputed(name) / model.cyclical_periods[name]
        columns += [np.sin(angle), np.cos(angle)]
    for name in model.categorical_order:
        levels = [_level(s["categorical"].get(name, "")) for s in records]
        columns += [np.array([float(v == lvl) for v in levels]) for lvl in model.vocabularies[name]]
    return np.column_stack(columns)


class TestBlockWrite:
    BLOCK = 4

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_blocks_write_the_bytes_of_the_dense_matrix(self, tmp_path, monkeypatch, caplog, n):
        monkeypatch.setattr(preprocess, "SAVE_BLOCK_ROWS", self.BLOCK)
        samples = _mixed_samples(n)
        model = _model_without_z(_mixed_samples(40))
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="crashsev.preprocess"):
            encoded = encode(samples, model)
            save_matrix(encoded, tmp_path / "blocks.csfm")
        save_matrix(FeatureMatrix(_dense_reference(samples, model), encoded.y, encoded.columns),
                    tmp_path / "dense.csfm")
        for name in ("{}.csfm", "{}.csfm.desc.json"):
            written = (tmp_path / name.format("blocks")).read_bytes()
            assert written == (tmp_path / name.format("dense")).read_bytes(), name
        assert encoded.X.tobytes() == load_matrix(tmp_path / "blocks.csfm").X.tobytes()
        # one line for the whole matrix, counting the "Z" of every third row
        assert [r.getMessage() for r in caplog.records] == [
            f"encode: {len(range(0, n, 3))} categorical values outside the training vocabulary"]

    def test_encode_and_save_peak_below_half_the_dense_matrix(self, tmp_path, monkeypatch):
        # the compact form, encode's temporaries and one block buffer at a
        # time, against the dense float64 X that the writer never holds
        monkeypatch.setattr(preprocess, "SAVE_BLOCK_ROWS", 256)
        samples = _mixed_samples(4000, locations=40)
        model = _model_without_z(_mixed_samples(4000, locations=40))
        tracemalloc.start()
        try:
            encoded = encode(samples, model)
            save_matrix(encoded, tmp_path / "m.csfm")
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            save_matrix(encoded, tmp_path / "again.csfm")
            save_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        dense_bytes = 8 * encoded.n_rows * encoded.n_cols
        assert encoded.n_rows >= 3 * 256 and encoded.n_cols > 40
        assert peak < dense_bytes / 2
        assert save_peak < dense_bytes / 2


class TestSampleInvariants:
    def test_age_ordering_holds_from_fixture(self, curated_rows):
        numeric = build_vehicle_samples(curated_rows).numeric
        for lo, mid, hi in zip(numeric["OccupantsMinAge"], numeric["OccupantsMeanAge"],
                               numeric["OccupantsMaxAge"]):
            if lo is not None and mid is not None and hi is not None:
                assert lo <= mid <= hi

    def test_rows_have_no_instance_dict(self, curated_rows):
        assert not hasattr(curated_rows[0], "__dict__")

    def test_every_column_holds_one_entry_per_sample(self, curated_rows):
        samples = build_vehicle_samples(curated_rows)
        columns = [samples.crash_id, samples.unit_vin, *samples.numeric.values(),
                   *samples.categorical.values()]
        assert len(samples) > 0 and {len(c) for c in columns} == {len(samples)}
        with pytest.raises(ValueError, match="one entry per target"):
            VehicleSamples(["C1"], ["V"], [SEVERE], {"Age": [30.0, 40.0]}, {})

    def test_keep_picks_every_column_in_index_order(self):
        records = [_sample(target=t, numeric={"NumberOfOccupants": float(i + 1)},
                           categorical={"F": f"f{i}"}, crash=f"C{i}", vin=f"V{i}")
                   for i, t in enumerate([SEVERE, NON_SEVERE, NON_SEVERE])]
        samples = _samples(records)
        assert samples.keep([2, 0, 2]) is samples
        assert _records(samples) == [records[2], records[0], records[2]]
        assert len(_samples(records).keep([])) == 0

    @pytest.mark.parametrize("indices", [[0, 3], [-4, 1]])
    def test_keep_refuses_an_index_out_of_range_before_changing_a_column(self, indices):
        records = [_sample(numeric={"NumberOfOccupants": float(i + 1)}, categorical={"F": f"f{i}"},
                           crash=f"C{i}", vin=f"V{i}") for i in range(3)]
        samples = _samples(records)
        with pytest.raises(IndexError, match="out of range for 3 samples"):
            samples.keep(indices)
        assert _records(samples) == records

    def test_keep_replaces_one_column_at_a_time(self):
        n = 20_000
        tracemalloc.start()  # before the columns are built, so that freeing them counts
        try:
            samples = VehicleSamples(
                [f"C{i}" for i in range(n)], ["V"] * n, [SEVERE] * n,
                {f"N{j}": [float(j)] * n for j in range(6)},
                {f"F{j}": [f"f{j}"] * n for j in range(6)},
            )
            column_bytes = sys.getsizeof(samples.target)
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            samples.keep(range(n))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(samples) == n and len(samples.numeric) == len(samples.categorical) == 6
        # the new columns replace the 15 old ones and at most one is held
        # twice, its list growing by resizes that briefly hold two buffers:
        # building all new columns before dropping the old would peak at 15
        assert peak <= 3 * column_bytes

    def test_occupant_count_positive(self):
        with pytest.raises(ValueError, match="NumberOfOccupants"):
            _samples([_sample(), _sample(numeric={"NumberOfOccupants": 0.0})])
