import csv
import gc
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from fixture_curation import DECODER_TABLE, fixture_csv_bytes

from crashsev import cli, orchestrate
from crashsev.cli import main
from crashsev.config import ConfigError, RunConfig
from crashsev.ingest import PersonRow
from crashsev.learners import fit_decision_tree, fit_random_forest, fit_ridge_logistic, save_model
from crashsev.preprocess import FeatureMatrix, load_matrix, save_matrix
from crashsev.synth import planted_generator
from crashsev.tune import enumerate_search_space


@pytest.fixture()
def raw_csv(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_bytes(fixture_csv_bytes())
    return path


@pytest.fixture()
def decoder_file(tmp_path):
    path = tmp_path / "decoder.json"
    path.write_text(json.dumps(DECODER_TABLE))
    return path


def run_config_ini(tmp_path, matrix_path, out_dir, seed=42):
    path = tmp_path / "run.ini"
    path.write_text(
        f"""
[paths]
matrix = {matrix_path}
out_dir = {out_dir}

[subsets]
n_subsets = 4
subset_size = 350

[cv]
folds = 4
bbc_boot = 150

[search]
ses_kmax = [2]
ses_alpha = [0.05]
lasso_penalty = []
univariate_alpha = []
epilogi_threshold = []
include_no_selector = false
ridge_lambda = [0.1, 1.0]
tree_min_leaf = []
tree_alpha = []
forest_n_trees = []
forest_min_leaf = []
declared_total =

[stability]
threshold = 0.75

[final]
learner = ridge
lambda = 1.0

[run]
seed = {seed}
max_workers = 1
"""
    )
    return path


@pytest.fixture(scope="module")
def synth_matrix_file(tmp_path_factory):
    gen = planted_generator(n_features=12, n_informative=4, effect=0.8, prevalence=0.1)
    matrix = gen.matrix(2500, seed=3)
    path = tmp_path_factory.mktemp("matrix") / "matrix.csfm"
    save_matrix(matrix, path)
    return path


class TestCurateCommand:
    def test_happy_path(self, raw_csv, decoder_file, tmp_path, capsys):
        out_dir = tmp_path / "cur"
        code = main([
            "curate", "--input", str(raw_csv), "--decoder-table", str(decoder_file),
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "curated.csv").exists()
        audit = json.loads((out_dir / "audit.json").read_text())
        assert audit["rows_in"] == 50
        assert audit["rows_out"] == 26
        assert audit["conservation_holds"]
        assert "26" in capsys.readouterr().out

    def test_missing_column_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("CrashID,PersonType\nC1,Driver\n")
        code = main(["curate", "--input", str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "VIN" in capsys.readouterr().err

    def test_curating_curated_output_is_fixed_point(self, raw_csv, decoder_file, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["curate", "--input", str(raw_csv), "--decoder-table",
                     str(decoder_file), "--out-dir", str(first)]) == 0
        assert main(["curate", "--input", str(first / "curated.csv"), "--decoder-table",
                     str(decoder_file), "--out-dir", str(second)]) == 0
        audit = json.loads((second / "audit.json").read_text())
        assert audit["rows_in"] == audit["rows_out"] == 26
        assert audit["units_removed"] == 0
        assert audit["persons_reassigned"] == 0
        first_bytes = (first / "curated.csv").read_bytes()
        second_bytes = (second / "curated.csv").read_bytes()
        assert first_bytes == second_bytes

    def test_quarantine_file_on_malformed_lines(self, decoder_file, tmp_path):
        bad = tmp_path / "partial.csv"
        bad.write_text(
            "CrashID,VIN,PersonType,SeatingPosition,Severity\n"
            "C1,1HGCM82633A004352,Driver,Front Left Side,Fatal\n"
            "C2,V,Driver\n"
        )
        out = tmp_path / "o"
        assert main(["curate", "--input", str(bad), "--decoder-table",
                     str(decoder_file), "--out-dir", str(out)]) == 0
        assert "expected 5 fields" in (out / "quarantine.csv").read_text()

    def test_quarantine_fields_round_trip_commas_and_quotes(self, decoder_file, tmp_path):
        bad = tmp_path / "partial.csv"
        bad.write_text(
            "CrashID,VIN,PersonType,SeatingPosition,Severity\n"
            "C1,1HGCM82633A004352,Driver,Front Left Side,Fatal\n"
            'C2,"V,1","Dri""ver"\n'
            'C3,1HGCM82633A004352,"Dri""ver, x",Front Left Side,Fatal\n'
        )
        out = tmp_path / "o"
        assert main(["curate", "--input", str(bad), "--decoder-table",
                     str(decoder_file), "--out-dir", str(out)]) == 0
        text = (out / "quarantine.csv").read_text(encoding="utf-8")
        assert len(text.splitlines()) == 3  # one physical line per record
        header, short, unknown = csv.reader(io.StringIO(text))
        assert header == ["line_number", "message", "raw"]
        assert short[:2] == ["3", "expected 5 fields, got 3"]
        assert next(csv.reader([short[2]])) == ["C2", "V,1", 'Dri"ver']
        assert unknown[0] == "4" and 'Dri"ver, x' in unknown[1]
        assert next(csv.reader([unknown[2]])) == [
            "C3", "1HGCM82633A004352", 'Dri"ver, x', "Front Left Side", "Fatal"]

    def test_clean_rerun_removes_an_earlier_quarantine(self, raw_csv, decoder_file, tmp_path,
                                                       capsys):
        bad = tmp_path / "partial.csv"
        bad.write_text(
            "CrashID,VIN,PersonType,SeatingPosition,Severity\n"
            "C1,1HGCM82633A004352,Driver,Front Left Side,Fatal\n"
            "C2,V,Driver\n"
        )
        out = tmp_path / "o"
        assert main(["curate", "--input", str(bad), "--decoder-table",
                     str(decoder_file), "--out-dir", str(out)]) == 0
        assert (out / "quarantine.csv").exists()
        assert main(["curate", "--input", str(raw_csv), "--decoder-table",
                     str(decoder_file), "--out-dir", str(out)]) == 0
        assert "0 lines quarantined" in capsys.readouterr().out
        assert not (out / "quarantine.csv").exists()


class TestPreprocessCommand:
    def test_end_to_end_from_curated(self, raw_csv, decoder_file, tmp_path, capsys):
        cur = tmp_path / "cur"
        assert main(["curate", "--input", str(raw_csv), "--decoder-table",
                     str(decoder_file), "--out-dir", str(cur)]) == 0
        pre = tmp_path / "pre"
        code = main(["preprocess", "--input", str(cur / "curated.csv"),
                     "--out-dir", str(pre)])
        assert code == 0
        matrix = load_matrix(pre / "matrix.csfm")
        assert matrix.n_rows > 0
        assert (pre / "preprocess_model.json").exists()
        out = capsys.readouterr().out
        assert "encoded" in out and "columns" in out

    def test_rerun_is_byte_identical(self, raw_csv, decoder_file, tmp_path):
        cur = tmp_path / "cur"
        main(["curate", "--input", str(raw_csv), "--decoder-table",
              str(decoder_file), "--out-dir", str(cur)])
        pre_a, pre_b = tmp_path / "a", tmp_path / "b"
        main(["preprocess", "--input", str(cur / "curated.csv"), "--out-dir", str(pre_a)])
        main(["preprocess", "--input", str(cur / "curated.csv"), "--out-dir", str(pre_b)])
        assert (pre_a / "matrix.csfm").read_bytes() == (pre_b / "matrix.csfm").read_bytes()

    def test_parsed_rows_are_freed_before_encoding(self, raw_csv, decoder_file, tmp_path,
                                                   monkeypatch):
        cur = tmp_path / "cur"
        assert main(["curate", "--input", str(raw_csv), "--decoder-table",
                     str(decoder_file), "--out-dir", str(cur)]) == 0
        # a list: a row freed crash by crash may hand its id to a later row
        parsed_ids, alive = [], []
        parse, encode = cli.iter_person_rows, cli.encode

        def recording_parse(*args):
            for row in parse(*args):
                parsed_ids.append(id(row))
                yield row

        def counting_encode(*args):
            # the rows have no weak references; a freed row is no live object
            alive.append(sum(isinstance(o, PersonRow) and id(o) in parsed_ids
                             for o in gc.get_objects()))
            return encode(*args)

        monkeypatch.setattr(cli, "iter_person_rows", recording_parse)
        monkeypatch.setattr(cli, "encode", counting_encode)
        assert main(["preprocess", "--input", str(cur / "curated.csv"),
                     "--out-dir", str(tmp_path / "pre")]) == 0
        assert len(parsed_ids) == 26
        assert alive == [0]


class TestCollectorState:
    """curate and preprocess run with the cyclic garbage collector paused,
    and hand the caller back the collector state it had."""

    @pytest.fixture(autouse=True)
    def restore_gc(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_commands_restore_the_callers_state(self, raw_csv, decoder_file, tmp_path,
                                                monkeypatch, enabled):
        seen = []
        # curate parses the whole file, preprocess streams it
        for name in ("parse_person_rows", "iter_person_rows"):
            monkeypatch.setattr(cli, name, lambda *a, parse=getattr(cli, name):
                                seen.append(gc.isenabled()) or parse(*a))
        (gc.enable if enabled else gc.disable)()
        cur = tmp_path / "cur"
        assert main(["curate", "--input", str(raw_csv), "--decoder-table",
                     str(decoder_file), "--out-dir", str(cur)]) == 0
        assert gc.isenabled() is enabled
        assert main(["preprocess", "--input", str(cur / "curated.csv"),
                     "--out-dir", str(tmp_path / "pre")]) == 0
        assert gc.isenabled() is enabled
        assert seen == [False, False]

    def test_exit_2_restores_the_callers_state(self, raw_csv, tmp_path):
        gc.enable()
        table = tmp_path / "decoder.json"
        table.write_text("junk")
        assert main(["curate", "--input", str(raw_csv), "--decoder-table", str(table),
                     "--out-dir", str(tmp_path / "cur")]) == 2
        assert gc.isenabled()


# Run in a fresh interpreter, so no other test has bound the modelling names yet.
_INGEST_ONLY = textwrap.dedent("""
    import json, sys
    from pathlib import Path
    import crashsev.cli as cli

    raw, decoder, bad, tmp = map(Path, sys.argv[1:])
    codes = {
        "curate": cli.main(["curate", "--input", str(raw), "--decoder-table", str(decoder),
                            "--out-dir", str(tmp / "cur")]),
        "preprocess": cli.main(["preprocess", "--input", str(tmp / "cur" / "curated.csv"),
                                "--out-dir", str(tmp / "pre")]),
        "curate_missing_column": cli.main(["curate", "--input", str(bad),
                                           "--out-dir", str(tmp / "bad")]),
        "preprocess_missing_column": cli.main(["preprocess", "--input", str(bad),
                                               "--out-dir", str(tmp / "bad")]),
    }

    def fail(*args):
        raise RuntimeError("planted")

    cli.curate = fail
    try:
        cli.main(["curate", "--input", str(raw), "--out-dir", str(tmp / "cur")])
    except RuntimeError as exc:
        codes["unexpected"] = str(exc)
    print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
""")


class TestModellingImports:
    """curate and preprocess load no modelling module; the modelling names
    stay reachable as cli.<name>."""

    MODELLING = ("scipy", "crashsev.config", "crashsev.explain", "crashsev.learners",
                 "crashsev.orchestrate", "crashsev.selection", "crashsev.tune",
                 "crashsev.stats")

    def test_curate_and_preprocess_import_no_modelling_module(self, raw_csv, decoder_file,
                                                              tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("CrashID,PersonType\nC1,Driver\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", _INGEST_ONLY, str(raw_csv), str(decoder_file), str(bad),
             str(tmp_path)],
            capture_output=True, text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["codes"] == {
            "curate": 0,
            "preprocess": 0,
            "curate_missing_column": 2,
            "preprocess_missing_column": 2,
            "unexpected": "planted",
        }
        assert [m for m in result["modules"] if m in self.MODELLING] == []

    def test_curate_imports_no_numpy_and_preprocess_no_other_module(self, raw_csv,
                                                                    decoder_file, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = textwrap.dedent("""
            import json, sys
            import crashsev.cli as cli

            def loaded():
                return sorted(m for m in sys.modules
                              if m == "numpy" or m.split(".")[0] == "crashsev")

            raw, decoder = sys.argv[1:]
            seen = [cli.main(["curate", "--input", raw, "--decoder-table", decoder,
                              "--out-dir", "cur"]), loaded()]
            seen += [cli.main(["preprocess", "--input", "cur/curated.csv",
                               "--out-dir", "pre"]), loaded()]
            print(json.dumps(seen))
        """)
        proc = subprocess.run([sys.executable, "-c", probe, str(raw_csv), str(decoder_file)],
                              capture_output=True, text=True, cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        curate_code, after_curate, preprocess_code, after_preprocess = json.loads(
            proc.stdout.splitlines()[-1])
        assert curate_code == preprocess_code == 0
        assert after_curate == ["crashsev", "crashsev.cli", "crashsev.ingest"]
        assert after_preprocess == ["crashsev", "crashsev.cli", "crashsev.ingest",
                                    "crashsev.preprocess", "numpy"]

    def test_modelling_stack_loads_no_scipy_module(self, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = ("import sys; from crashsev import cli; cli._bind(*cli._LAZY_NAMES); "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_modelling_names_resolve_on_the_module(self):
        assert cli.run_protocol is orchestrate.run_protocol
        assert cli.RunConfig is RunConfig
        from crashsev.cli import ProtocolError
        assert ProtocolError is orchestrate.ProtocolError

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cli.no_such_name


class TestRunCommand:
    def test_dry_run_prints_count(self, synth_matrix_file, tmp_path, capsys):
        cfg = run_config_ini(tmp_path, synth_matrix_file, tmp_path / "out")
        code = main(["--config", str(cfg), "--dry-run", "run"])
        assert code == 0
        assert "3 configurations" in capsys.readouterr().out

    def test_full_run_writes_artifacts(self, synth_matrix_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = run_config_ini(tmp_path, synth_matrix_file, out_dir)
        code = main(["--config", str(cfg), "run"])
        assert code == 0
        for name in ("report.json", "final_model.json", "stability_matrix.txt",
                     "importance.csv", "plotdata.csv", "summary_plot.svg",
                     "progress.jsonl", "run_meta.json"):
            assert (out_dir / name).exists(), name
        report = json.loads((out_dir / "report.json").read_text())
        assert report["final"]["holdout_auc"] > 0.6
        assert report["explanation_method"] == "shap"
        assert len(report["subsets"]) == 4

    def test_reruns_byte_identical_reports(self, synth_matrix_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg = run_config_ini(tmp_path, synth_matrix_file, out_a)
        assert main(["--config", str(cfg), "run"]) == 0
        assert main(["--config", str(cfg), "run", "--out-dir", str(out_b)]) == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "summary_plot.svg").read_bytes() == (out_b / "summary_plot.svg").read_bytes()

    def test_rerun_does_not_duplicate_progress(self, synth_matrix_file, tmp_path):
        out_dir = tmp_path / "out"
        cfg = run_config_ini(tmp_path, synth_matrix_file, out_dir)
        log = out_dir / "progress.jsonl"
        assert main(["--config", str(cfg), "run"]) == 0
        first = log.read_text().splitlines()
        assert first
        assert main(["--config", str(cfg), "run"]) == 0
        assert log.read_text().splitlines() == first
        assert main(["--config", str(cfg), "--resume", "run"]) == 0
        assert log.read_text().splitlines() == first

    # the run is killed just after its kill_at-th record is written. The
    # uninterrupted run writes 27 records, 3 per fold: subsets 0-2 stop early
    # after 2 folds and subset 3 after 3, so record 4 opens subset 0's second
    # fold, 5 is within it, 17 is within subset 2's second fold and 25 opens
    # subset 3's last fold
    @pytest.mark.parametrize("kill_at", [4, 5, 17, 25])
    def test_resume_after_a_kill_writes_the_uninterrupted_log(self, synth_matrix_file, tmp_path,
                                                              monkeypatch, kill_at):
        whole, out_dir = tmp_path / "whole", tmp_path / "out"
        cfg = run_config_ini(tmp_path, synth_matrix_file, out_dir)
        assert main(["--config", str(cfg), "run", "--out-dir", str(whole)]) == 0
        expected = (whole / "progress.jsonl").read_text().splitlines()
        assert len(expected) == 27

        passed = []

        def killed_at_record(progress):
            def record(rec):
                progress(rec)
                passed.append(rec)
                # each record is on disk as soon as it is passed
                assert len((out_dir / "progress.jsonl").read_text().splitlines()) == len(passed)
                if len(passed) == kill_at:
                    raise KeyboardInterrupt("simulated kill")
            return record

        real_run = orchestrate.run_rnk_cv
        monkeypatch.setattr(orchestrate, "run_rnk_cv", lambda *a, **kw: real_run(
            *a, **{**kw, "progress": killed_at_record(kw["progress"])}))
        with pytest.raises(KeyboardInterrupt):
            main(["--config", str(cfg), "run"])
        monkeypatch.setattr(orchestrate, "run_rnk_cv", real_run)
        assert (out_dir / "progress.jsonl").read_text().splitlines() == expected[:kill_at]

        assert main(["--config", str(cfg), "--resume", "run"]) == 0
        assert (out_dir / "progress.jsonl").read_text().splitlines() == expected
        assert (out_dir / "report.json").read_bytes() == (whole / "report.json").read_bytes()

    def test_report_does_not_depend_on_checkout_directory(self, synth_matrix_file, tmp_path):
        reports = []
        for name in ("a", "b"):
            where = tmp_path / name / "deeper"
            where.mkdir(parents=True)
            for src in synth_matrix_file.parent.glob(synth_matrix_file.name + "*"):
                shutil.copy(src, where / src.name)
            matrix, out_dir = where / synth_matrix_file.name, where / "out"
            cfg = run_config_ini(where, matrix, out_dir)
            assert main(["--config", str(cfg), "run"]) == 0
            reports.append((out_dir / "report.json").read_bytes())
            meta = json.loads((out_dir / "run_meta.json").read_text())
            assert meta["paths"] == {"matrix": str(matrix), "out_dir": str(out_dir)}
        assert reports[0] == reports[1]
        assert b"deeper" not in reports[0]
        assert "paths" not in json.loads(reports[0])["run_config"]["raw"]

    def test_missing_matrix_exits_2(self, tmp_path, capsys):
        cfg = run_config_ini(tmp_path, tmp_path / "nope.csfm", tmp_path / "out")
        assert main(["--config", str(cfg), "run"]) == 2
        assert "feature matrix not found" in _assert_one_line_error(capsys)

    def test_seed_flag_matches_config_seed(self, synth_matrix_file, tmp_path):
        out_dir = tmp_path / "out"
        (tmp_path / "flag").mkdir()
        (tmp_path / "file").mkdir()
        by_flag = run_config_ini(tmp_path / "flag", synth_matrix_file, out_dir, seed=42)
        by_file = run_config_ini(tmp_path / "file", synth_matrix_file, out_dir, seed=5)
        assert main(["--config", str(by_flag), "--seed", "5", "run"]) == 0
        flag_bytes = (out_dir / "report.json").read_bytes()
        assert main(["--config", str(by_file), "run"]) == 0
        file_bytes = (out_dir / "report.json").read_bytes()
        flag_report, file_report = json.loads(flag_bytes), json.loads(file_bytes)
        assert flag_report["subset_plan"] == file_report["subset_plan"]
        assert flag_report["cv_plan"] == file_report["cv_plan"]
        # run_config.raw records each config file verbatim: only its seed entry differs
        assert flag_report["run_config"]["raw"]["run"]["seed"] == "42"
        assert flag_bytes.replace(b'"seed": "42"', b'"seed": "5"') == file_bytes


def _assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


# the first 300 bytes of a feature-matrix file: its magic, its shape and
# doubles, which are not UTF-8
NOT_UTF8 = (b"CSFM1" + struct.pack("<QQ", 3, 100)
            + np.arange(0.5, 40.5).astype("<f8").tobytes())[:300]


def _write(path, text) -> None:
    """``text`` into ``path``: a str as UTF-8, bytes as they are."""
    path.write_bytes(text if isinstance(text, bytes) else text.encode())


def _assert_names_the_first_bad_byte(err: str, text) -> None:
    """A refusal of NOT_UTF8 is short and names the offset of its first byte
    that is not UTF-8, where the file used to be quoted whole."""
    if text == NOT_UTF8:
        with pytest.raises(UnicodeDecodeError) as bad:
            NOT_UTF8.decode("utf-8")
        assert len(err) < 200 and f": byte {bad.value.start} is not UTF-8" in err, err


class TestInvalidPlan:
    @pytest.mark.parametrize("old, new", [
        ("folds = 4", "folds = 3\nn_complete = 5"),
        ("folds = 4", "folds = 1"),
        ("bbc_boot = 150", "bbc_boot = 50"),
        ("bbc_boot = 150", "bbc_ci = 1.5"),
        ("subset_size = 350", "subset_size = many"),
        ("subset_size = 350", "subset_size = 0"),
        ("subset_size = 350", "subset_size = -5"),
        ("[paths]", "paths"),
        ("threshold = 0.75", "threshold = 1.5"),
        ("threshold = 0.75", "threshold = 0"),
        ("n_subsets = 4", "n_subsets = 1"),
        ("ses_kmax = [2]", "ses_kmax = 3"),
        ("ses_kmax = [2]", 'ses_kmax = ["2"]'),
        ("ses_kmax = [2]", "ses_kmax = [2.5]"),
        ("ses_kmax = [2]", "ses_kmax = [6]"),
        ("ses_alpha = [0.05]", "ses_alpha = [1.5]"),
        ("lasso_penalty = []", "lasso_penalty = [-1]"),
        ("univariate_alpha = []", "univariate_alpha = [0]"),
        ("ridge_lambda = [0.1, 1.0]", "ridge_lambda = [0.1, -1.0]"),
        ("tree_min_leaf = []\ntree_alpha = []", "tree_min_leaf = [0]\ntree_alpha = [0.05]"),
        ("tree_min_leaf = []\ntree_alpha = []", "tree_min_leaf = [5]\ntree_alpha = [-1]"),
        ("tree_min_leaf = []\ntree_alpha = []", "tree_min_leaf = [5]\ntree_alpha = [1.5]"),
        ("tree_min_leaf = []\ntree_alpha = []", "tree_min_leaf = [5]\ntree_alpha = [NaN]"),
        ("learner = ridge\nlambda = 1.0", "learner = tree\nalpha = -1"),
        ("forest_n_trees = []\nforest_min_leaf = []", "forest_n_trees = [0]\nforest_min_leaf = [5]"),
        ("forest_n_trees = []\nforest_min_leaf = []", "forest_n_trees = [10]\nforest_min_leaf = [4.5]"),
        ("learner = ridge\nlambda = 1.0", "learner = ridge\nlambda = -1"),
        ("learner = ridge\nlambda = 1.0", "learner = tree\nmin_leaf = 2.5"),
        ("learner = ridge\nlambda = 1.0", "learner = forest\nn_trees = 0"),
        ("learner = ridge", "learner = svm"),
        # a [final] key the chosen learner does not read
        ("learner = ridge\nlambda = 1.0", "learner = ridge\nlambda = 1.0\nmin_leaf = 3\nn_trees = 7"),
        ("learner = ridge\nlambda = 1.0", "learner = tree\nlambda = 1.0"),
        ("learner = ridge\nlambda = 1.0", "learner = forest\nalpha = 0.05"),
        ("folds = 4", "folds = 4\nfold = 3"),
        ("[stability]", "[stabilty]"),
        ("max_workers = 1", "max_workers = 0"),
        ("bbc_boot = 150", "bbc_boot = 150\ndrop_margin = -0.5\ndrop_min_folds = 1"),
        ("bbc_boot = 150", "bbc_boot = 150\ndrop_margin = nan"),
        ("bbc_boot = 150", "bbc_boot = 150\ndrop_min_folds = 0"),
        ("bbc_boot = 150", "bbc_boot = 150\nstop_epsilon = -1"),
        ("bbc_boot = 150", "bbc_boot = 150\nstop_epsilon = nan"),
        ("max_workers = 1", "max_workers = 1\nclass_weights = 0,0"),
        ("max_workers = 1", "max_workers = 1\nclass_weights = nan,1"),
        ("max_workers = 1", "max_workers = 1\nclass_weights = -1,1"),
    ])
    def test_bad_settings_exit_2_at_load(self, synth_matrix_file, tmp_path, capsys, old, new):
        cfg = run_config_ini(tmp_path, synth_matrix_file, tmp_path / "out")
        cfg.write_text(cfg.read_text().replace(old, new))
        assert main(["--config", str(cfg), "--dry-run", "run"]) == 2
        _assert_one_line_error(capsys)
        assert main(["--config", str(cfg), "run"]) == 2
        _assert_one_line_error(capsys)
        assert not (tmp_path / "out").exists()

    def test_bad_worker_count_flag_exits_2(self, synth_matrix_file, tmp_path, capsys):
        cfg = run_config_ini(tmp_path, synth_matrix_file, tmp_path / "out")
        assert main(["--config", str(cfg), "--max-workers", "0", "run"]) == 2
        _assert_one_line_error(capsys)
        assert not (tmp_path / "out").exists()

    def test_holdout_without_a_class_exits_2_before_tuning(self, synth_matrix_file, tmp_path,
                                                           capsys):
        # 5 disjoint subsets of 47 positives and 452 negatives take all 235
        # positives and leave 5 negatives for the holdout
        out_dir = tmp_path / "out"
        cfg = run_config_ini(tmp_path, synth_matrix_file, out_dir)
        cfg.write_text(cfg.read_text().replace("n_subsets = 4\nsubset_size = 350",
                                               "n_subsets = 5\nsubset_size = 499"))
        assert main(["--config", str(cfg), "run"]) == 2
        _assert_one_line_error(capsys)
        assert (out_dir / "progress.jsonl").read_text() == ""
        assert not (out_dir / "subsets").exists()

    def test_subset_with_fewer_rows_of_a_class_than_folds_exits_2_before_tuning(
            self, synth_matrix_file, tmp_path, capsys):
        # 30-row subsets hold 3 of the matrix's 235 positives, too few for 4 folds
        out_dir = tmp_path / "out"
        cfg = run_config_ini(tmp_path, synth_matrix_file, out_dir)
        cfg.write_text(cfg.read_text().replace("subset_size = 350", "subset_size = 30"))
        assert main(["--config", str(cfg), "run"]) == 2
        err = _assert_one_line_error(capsys)
        assert "3 rows of class 1" in err and "4 folds" in err
        assert (out_dir / "progress.jsonl").read_text() == ""
        assert not (out_dir / "subsets").exists()


class TestUnreadableInput:
    def test_non_matrix_file_exits_2(self, tmp_path, capsys):
        junk = tmp_path / "junk.csfm"
        junk.write_bytes(b"this is not a matrix")
        cfg = run_config_ini(tmp_path, junk, tmp_path / "out")
        assert main(["--config", str(cfg), "run"]) == 2
        _assert_one_line_error(capsys)

    @pytest.mark.parametrize("corrupt", [
        lambda desc: NOT_UTF8,
        lambda desc: desc[:40],
        # a repeated key: the last value used to win without a word
        lambda desc: desc.replace(b'"version": 1', b'"version": 1, "version": 1'),
    ], ids=["not-utf8", "truncated", "repeated-key"])
    def test_unreadable_matrix_descriptor_exits_2(self, synth_matrix_file, tmp_path, capsys,
                                                  corrupt):
        matrix = tmp_path / "m.csfm"
        shutil.copyfile(synth_matrix_file, matrix)
        desc = (synth_matrix_file.parent / (synth_matrix_file.name + ".desc.json")).read_bytes()
        text = corrupt(desc)
        assert text != desc
        (tmp_path / "m.csfm.desc.json").write_bytes(text)
        out_dir = tmp_path / "out"
        assert main(["--config", str(run_config_ini(tmp_path, matrix, out_dir)), "run"]) == 2
        err = _assert_one_line_error(capsys)
        assert "unreadable matrix descriptor" in err
        _assert_names_the_first_bad_byte(err, text)
        assert not out_dir.exists()

    def test_truncated_matrix_exits_2(self, synth_matrix_file, tmp_path, capsys):
        cut = tmp_path / "cut.csfm"
        cut.write_bytes(synth_matrix_file.read_bytes()[:4096])
        (tmp_path / "cut.csfm.desc.json").write_bytes(
            (synth_matrix_file.parent / (synth_matrix_file.name + ".desc.json")).read_bytes()
        )
        cfg = run_config_ini(tmp_path, cut, tmp_path / "out")
        assert main(["--config", str(cfg), "run"]) == 2
        _assert_one_line_error(capsys)

    @pytest.mark.parametrize("command", ["run", "explain"])
    def test_matrix_with_a_non_binary_label_exits_2(self, synth_matrix_file, tmp_path, capsys,
                                                    command):
        bad = tmp_path / "bad.csfm"
        data = bytearray(synth_matrix_file.read_bytes())
        data[-8:] = struct.pack("<d", float("nan"))  # the last row's label
        bad.write_bytes(bytes(data))
        (tmp_path / "bad.csfm.desc.json").write_bytes(
            (synth_matrix_file.parent / (synth_matrix_file.name + ".desc.json")).read_bytes()
        )
        if command == "run":
            argv = ["--config", str(run_config_ini(tmp_path, bad, tmp_path / "out")), "run"]
        else:
            matrix = load_matrix(synth_matrix_file)
            model = tmp_path / "model.json"
            save_model(fit_ridge_logistic(matrix.X, matrix.y, 1.0,
                                          column_names=[c.name for c in matrix.columns]), model)
            argv = ["explain", "--model", str(model), "--matrix", str(bad),
                    "--out-dir", str(tmp_path / "exp")]
        assert main(argv) == 2
        _assert_one_line_error(capsys)

    def test_truncated_cv_checkpoint_exits_2(self, synth_matrix_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        (out_dir / "subsets").mkdir(parents=True)
        buf = io.BytesIO()
        np.savez(buf, pooled=np.zeros((3, 350)), evaluated_mask=np.zeros(350, dtype=bool))
        (out_dir / "subsets" / "subset_00.cv.npz").write_bytes(buf.getvalue()[:200])
        cfg = run_config_ini(tmp_path, synth_matrix_file, out_dir)
        assert main(["--config", str(cfg), "--resume", "run"]) == 2
        _assert_one_line_error(capsys)

    def test_cv_checkpoint_without_stamp_exits_2(self, synth_matrix_file, tmp_path, capsys):
        # a readable checkpoint that does not record the plan, configs and
        # matrix it was written for cannot be trusted to resume this run
        out_dir = tmp_path / "out"
        (out_dir / "subsets").mkdir(parents=True)
        meta = {"fold_aucs": {"0": [0.5], "1": [0.5], "2": [0.5]},
                "n_selected": {"0": [1], "1": [1], "2": [1]}, "dropped": {},
                "fitted_models": 2, "folds_completed": 1, "best_pooled_prev": 0.5,
                "stopped_early": False}
        np.savez(out_dir / "subsets" / "subset_00.cv.npz", pooled=np.zeros((3, 350)),
                 evaluated_mask=np.zeros(350, dtype=bool),
                 meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
        cfg = run_config_ini(tmp_path, synth_matrix_file, out_dir)
        assert main(["--config", str(cfg), "--resume", "run"]) == 2
        _assert_one_line_error(capsys)

    @pytest.mark.parametrize("finished", [False, True], ids=["killed", "finished"])
    def test_cv_checkpoint_of_another_seed_exits_2(self, synth_matrix_file, tmp_path, capsys,
                                                    monkeypatch, finished):
        out_dir = tmp_path / "out"
        cfg = run_config_ini(tmp_path, synth_matrix_file, out_dir)
        if finished:
            assert main(["--config", str(cfg), "run"]) == 0
        else:
            calls = {"n": 0}

            def kill_in_fold_two(record):
                calls["n"] += 1
                if calls["n"] == 4:
                    raise KeyboardInterrupt("simulated kill")

            real_run = orchestrate.run_rnk_cv
            monkeypatch.setattr(orchestrate, "run_rnk_cv", lambda *a, **kw: real_run(
                *a, **{**kw, "progress": kill_in_fold_two}))
            with pytest.raises(KeyboardInterrupt):
                main(["--config", str(cfg), "run"])
            monkeypatch.setattr(orchestrate, "run_rnk_cv", real_run)
        assert (out_dir / "subsets" / "subset_00.cv.npz").exists()
        capsys.readouterr()
        assert main(["--config", str(cfg), "--seed", "7", "--resume", "run"]) == 2
        assert "written for another plan" in _assert_one_line_error(capsys)

    @pytest.mark.parametrize("text", ['{"search_space": {"total_enu', NOT_UTF8],
                             ids=["truncated", "not-utf8"])
    def test_corrupt_report_exits_2(self, tmp_path, capsys, text):
        _write(tmp_path / "report.json", text)
        assert main(["report", "--run-dir", str(tmp_path)]) == 2
        _assert_names_the_first_bad_byte(_assert_one_line_error(capsys), text)

    def test_report_lacking_keys_exits_2(self, tmp_path, capsys):
        (tmp_path / "report.json").write_text("{}")
        assert main(["report", "--run-dir", str(tmp_path)]) == 2
        _assert_one_line_error(capsys)

    @pytest.mark.parametrize("text", [
        "junk",
        "{}",
        json.dumps({"version": 1, "kind": "tree", "root": {"prob": 0.5, "n": 4}, "min_leaf": 1,
                    "alpha_prune": 0.1, "class_weights": None, "column_names": ["x0"]}),
        # two column names but one weight: explain's matmul would fail
        json.dumps({"version": 2, "kind": "linear", "column_names": ["f00", "f01"],
                    "weights": [1.0], "intercept": 0.0, "means": [0.0, 0.0],
                    "scales": [1.0, 1.0], "lambda": 1.0, "class_weights": None,
                    "converged": True}),
        # node 0 is its own left child: predict would walk that cycle forever
        json.dumps({"version": 2, "kind": "tree", "min_leaf": 1, "alpha_prune": 0.1,
                    "class_weights": None, "column_names": ["f00"],
                    "nodes": {"column": [0, -1, -1], "threshold": [0.0, 0.0, 0.0],
                              "left": [0, -1, -1], "right": [2, -1, -1],
                              "prob": [0.5, 0.0, 1.0], "n_samples": [4, 2, 2]}}),
        # a repeated key: the last value used to win without a word
        pytest.param('{"version": 2, "kind": "naive", "prevalence": 0.1, "prevalence": 0.9}',
                     id="repeated-key"),
        pytest.param(NOT_UTF8, id="not-utf8"),
    ])
    def test_unreadable_model_exits_2(self, synth_matrix_file, tmp_path, capsys, text):
        _write(tmp_path / "model.json", text)
        assert main(["explain", "--model", str(tmp_path / "model.json"),
                     "--matrix", str(synth_matrix_file), "--out-dir", str(tmp_path / "exp")]) == 2
        _assert_names_the_first_bad_byte(_assert_one_line_error(capsys), text)

    @pytest.mark.parametrize("command", ["curate", "preprocess"])
    @pytest.mark.parametrize("bad_line", [
        b"C9,1HGCM82633A004352,Driver,Front Left Side,Fatal\xff",
        b"C9," + b"V" * (csv.field_size_limit() + 1) + b",Driver,Front Left Side,Fatal",
    ], ids=["not-utf8", "over-field-limit"])
    def test_malformed_person_csv_exits_2_naming_the_line(self, tmp_path, capsys, command,
                                                          bad_line):
        # past the first chunk that the text decoder reads ahead
        good = [b"C%d,1HGCM82633A004352,Driver,Front Left Side,Fatal" % i for i in range(400)]
        path = tmp_path / "persons.csv"
        path.write_bytes(b"\n".join([b"CrashID,VIN,PersonType,SeatingPosition,Severity",
                                     *good, bad_line, *good]) + b"\n")
        assert main([command, "--input", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert "line 402" in _assert_one_line_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["curate", "--input", "{dir}", "--out-dir", "{out}"],
        ["curate", "--input", "{csv}", "--schema", "{dir}", "--out-dir", "{out}"],
        ["explain", "--model", "{dir}", "--matrix", "{matrix}", "--out-dir", "{out}"],
        ["preprocess", "--input", "{dir}", "--out-dir", "{out}"],
    ], ids=["curate-input", "curate-schema", "explain-model", "preprocess-input"])
    def test_directory_path_exits_2(self, raw_csv, synth_matrix_file, tmp_path, capsys, argv):
        paths = {"dir": tmp_path, "out": tmp_path / "o", "csv": raw_csv,
                 "matrix": synth_matrix_file}
        assert main([arg.format(**paths) for arg in argv]) == 2
        _assert_one_line_error(capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["curate", "preprocess", "run", "explain"])
    @pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
    def test_out_dir_that_is_not_a_directory_exits_2(self, raw_csv, synth_matrix_file, tmp_path,
                                                     capsys, command, under):
        # making the directory used to end in a FileExistsError or a
        # NotADirectoryError traceback, with exit code 1
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        out_dir = blocker / "o" if under else blocker
        if command == "curate":
            argv = ["curate", "--input", str(raw_csv)]
        elif command == "preprocess":
            assert main(["curate", "--input", str(raw_csv), "--out-dir", str(tmp_path / "c")]) == 0
            argv = ["preprocess", "--input", str(tmp_path / "c" / "curated.csv")]
        elif command == "run":
            argv = ["--config", str(run_config_ini(tmp_path, synth_matrix_file, tmp_path / "x")),
                    "run"]
        else:
            matrix = load_matrix(synth_matrix_file)
            save_model(fit_ridge_logistic(matrix.X, matrix.y, 1.0,
                                          column_names=[c.name for c in matrix.columns]),
                       tmp_path / "model.json")
            argv = ["explain", "--model", str(tmp_path / "model.json"),
                    "--matrix", str(synth_matrix_file)]
        capsys.readouterr()
        assert main([*argv, "--out-dir", str(out_dir)]) == 2
        _assert_one_line_error(capsys)
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command", ["curate", "preprocess"])
    def test_missing_input_exits_2_leaving_no_output_directory(self, tmp_path, capsys, command):
        out_dir = tmp_path / "o"
        assert main([command, "--input", str(tmp_path / "absent.csv"),
                     "--out-dir", str(out_dir)]) == 2
        _assert_one_line_error(capsys)
        assert not out_dir.exists()


class TestRefusalMessages:
    """Each refusal is one ``error:`` line, and a refused ``preprocess``
    leaves no output directory."""

    def test_preprocess_names_the_first_malformed_line(self, raw_csv, decoder_file, tmp_path,
                                                       capsys):
        assert main(["curate", "--input", str(raw_csv), "--decoder-table", str(decoder_file),
                     "--out-dir", str(tmp_path / "cur")]) == 0
        curated = tmp_path / "cur" / "curated.csv"
        lines = curated.read_text().splitlines()
        curated.write_text("\n".join([*lines, "C1,short", "C2,short"]) + "\n")
        capsys.readouterr()
        out_dir = tmp_path / "pre"
        assert main(["preprocess", "--input", str(curated), "--out-dir", str(out_dir)]) == 2
        err = _assert_one_line_error(capsys)
        assert err.startswith("error: 2 malformed lines in curated input")
        assert f"line {len(lines) + 1}: expected" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("disorder, message", [
        ("split", "follows crash"),
        ("descending", "follows crash"),
        ("descending-and-malformed", "1 malformed lines"),
    ])
    def test_preprocess_refuses_crashes_out_of_curates_order(self, raw_csv, decoder_file,
                                                             tmp_path, capsys, disorder,
                                                             message):
        assert main(["curate", "--input", str(raw_csv), "--decoder-table", str(decoder_file),
                     "--out-dir", str(tmp_path / "cur")]) == 0
        curated = tmp_path / "cur" / "curated.csv"
        header, *lines = curated.read_text().splitlines()
        if disorder == "split":
            # the first crash's first row moved behind every other crash
            lines = lines[1:] + lines[:1]
        else:
            lines = lines[::-1]
        if disorder == "descending-and-malformed":
            # a malformed line is reported first, wherever it is
            lines.append("C1,short")
        curated.write_text("\n".join([header, *lines]) + "\n")
        capsys.readouterr()
        out_dir = tmp_path / "pre"
        assert main(["preprocess", "--input", str(curated), "--out-dir", str(out_dir)]) == 2
        err = _assert_one_line_error(capsys)
        assert message in err and "line " in err
        assert not out_dir.exists()

    def test_preprocess_without_samples(self, tmp_path, capsys):
        empty = tmp_path / "curated.csv"
        empty.write_text("CrashID,VIN,PersonType,SeatingPosition,Severity\n")
        out_dir = tmp_path / "pre"
        assert main(["preprocess", "--input", str(empty), "--out-dir", str(out_dir)]) == 2
        assert "no vehicle samples" in _assert_one_line_error(capsys)
        assert not out_dir.exists()

    def test_explain_with_a_matrix_lacking_model_columns(self, synth_matrix_file, tmp_path,
                                                        capsys):
        matrix = load_matrix(synth_matrix_file)
        save_model(fit_ridge_logistic(matrix.X, matrix.y, lam=1.0,
                                      column_names=[c.name for c in matrix.columns]),
                   tmp_path / "model.json")
        narrow = planted_generator(n_features=2, n_informative=1, effect=0.8, prevalence=0.3)
        save_matrix(narrow.matrix(200, seed=1), tmp_path / "narrow.csfm")
        out_dir = tmp_path / "exp"
        assert main(["explain", "--model", str(tmp_path / "model.json"),
                     "--matrix", str(tmp_path / "narrow.csfm"), "--out-dir", str(out_dir)]) == 2
        assert "matrix lacks model columns: f" in _assert_one_line_error(capsys)
        assert not out_dir.exists()

    @pytest.mark.parametrize("fit", [
        lambda X, y, names: fit_ridge_logistic(X, y, lam=1.0, column_names=names),
        lambda X, y, names: fit_decision_tree(X, y, min_leaf=20, alpha_prune=0.0,
                                              column_names=names),
    ], ids=["linear", "tree"])
    def test_explain_with_an_unknown_feature(self, synth_matrix_file, tmp_path, capsys, fit):
        # a tree's permutation importance never reads the names, and used to
        # ignore an unknown one; a linear model's plot refused it only after
        # the output directory was made
        matrix = load_matrix(synth_matrix_file)
        save_model(fit(matrix.X, matrix.y, [c.name for c in matrix.columns]),
                   tmp_path / "model.json")
        out_dir = tmp_path / "exp"
        assert main(["explain", "--model", str(tmp_path / "model.json"), "--matrix",
                     str(synth_matrix_file), "--features", "f00,NoSuchFeature",
                     "--out-dir", str(out_dir)]) == 3
        err = _assert_one_line_error(capsys)
        assert err.startswith("error: unknown feature(s) 'NoSuchFeature'; available: f00,")
        assert not out_dir.exists()


    @pytest.fixture()
    def one_class_matrix(self, synth_matrix_file, tmp_path):
        matrix = load_matrix(synth_matrix_file)
        path = tmp_path / "one_class.csfm"
        save_matrix(FeatureMatrix(matrix.X, np.zeros_like(matrix.y), matrix.columns), path)
        return path

    def test_run_on_labels_of_one_class(self, one_class_matrix, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = run_config_ini(tmp_path, one_class_matrix, out_dir)
        assert main(["--config", str(cfg), "run"]) == 2
        assert "only the classes [0]" in _assert_one_line_error(capsys)
        assert (out_dir / "progress.jsonl").read_text() == ""
        assert not (out_dir / "subsets").exists()

    @pytest.mark.parametrize("fit, code", [
        (lambda X, y, names: fit_ridge_logistic(X, y, lam=1.0, column_names=names), 0),
        (lambda X, y, names: fit_decision_tree(X, y, min_leaf=20, alpha_prune=0.0,
                                               column_names=names), 2),
        (lambda X, y, names: fit_random_forest(X, y, n_trees=3, min_leaf=20, seed=1,
                                               column_names=names), 2),
    ], ids=["linear", "tree", "forest"])
    def test_explain_on_labels_of_one_class(self, synth_matrix_file, one_class_matrix, tmp_path,
                                            capsys, fit, code):
        # a linear model's SHAP values read no labels; permutation AUC drops do
        matrix = load_matrix(synth_matrix_file)
        save_model(fit(matrix.X, matrix.y, [c.name for c in matrix.columns]),
                   tmp_path / "model.json")
        out_dir = tmp_path / "exp"
        assert main(["explain", "--model", str(tmp_path / "model.json"),
                     "--matrix", str(one_class_matrix), "--out-dir", str(out_dir)]) == code
        if code:
            assert "hold one class" in _assert_one_line_error(capsys)
            assert not out_dir.exists()
        else:
            assert (out_dir / "importance.csv").exists()


class TestMalformedSideInput:
    @pytest.mark.parametrize("command, flag, text", [
        ("curate", "--schema", "junk"),
        ("curate", "--schema", "[1, 2]"),
        ("curate", "--schema", '{"severity_values": {"fatal": "Nope"}}'),
        ("curate", "--decoder-table", "junk"),
        ("curate", "--decoder-table", '{"1HG": 5}'),
        # each of these once loaded: a misspelt top-level key ran the default
        # schema, an unknown canonical field was ignored, a string was read
        # as a set of single characters, a model year of 2.7 or true read as
        # 2 or 1, and a misspelt entry key left the make unknown
        ("curate", "--schema", '{"column": {"crash_id": "CrashID"}}'),
        ("curate", "--schema", '{"columns": {"crashid": "CrashID"}}'),
        ("curate", "--schema", '{"front_left_values": "Front Left Side"}'),
        ("curate", "--decoder-table", '{"1HG": {"make": "Honda", "model_year": 2.7}}'),
        ("curate", "--decoder-table", '{"1HG": {"make": "Honda", "model_year": true}}'),
        ("curate", "--decoder-table", '{"1HG": {"mak": "Honda", "model_year": 2003}}'),
        # prefixes equal in upper case, and one header for two fields: the
        # first loaded as one entry, the second read every crash id from VINs
        ("curate", "--decoder-table", '{"1hg": {"make": "Honda"}, "1HG": {"make": "Acura"}}'),
        ("curate", "--schema", '{"columns": {"crash_id": "VIN"}}'),
        # a repeated key: the last value used to win without a word
        ("curate", "--decoder-table", '{"1HG": {"make": "Honda"}, "1HG": {"make": "Acura"}}'),
        ("curate", "--decoder-table", '{"1HGCM": {"make": "Honda", "make": "Acura"}}'),
        ("curate", "--schema", '{"columns": {"crash_id": "CrashNo", "crash_id": "CrashID"}}'),
        ("curate", "--schema", '{"front_left_values": [], "front_left_values": ["Front Left Side"]}'),
        ("preprocess", "--agg-config", "junk"),
        ("preprocess", "--agg-config", '{"cyclical_periods": {"hour": "day"}}'),
        ("preprocess", "--schema", '{"severity_values": {"fatal": "Nope"}}'),
        # bytes that are not UTF-8 used to be quoted whole in the message
        pytest.param("curate", "--schema", NOT_UTF8, id="curate-schema-not-utf8"),
        pytest.param("curate", "--decoder-table", NOT_UTF8, id="curate-decoder-table-not-utf8"),
        pytest.param("preprocess", "--agg-config", NOT_UTF8, id="preprocess-agg-config-not-utf8"),
    ])
    def test_exits_2(self, raw_csv, tmp_path, capsys, command, flag, text):
        side = tmp_path / "side.json"
        _write(side, text)
        out_dir = tmp_path / "o"
        assert main([command, "--input", str(raw_csv), flag, str(side),
                     "--out-dir", str(out_dir)]) == 2
        _assert_names_the_first_bad_byte(_assert_one_line_error(capsys), text)
        assert not out_dir.exists()

    @pytest.mark.parametrize("text, named", [
        ('{"cyclical_periods": {"CrashMonth": 0}}', "cyclical periods"),
        ('{"cyclical_periods": {"CrashTime24h": -24}}', "cyclical periods"),
        ('{"cyclical_periods": {"CrashWeekDay": NaN}}', "cyclical periods"),
        ('{"cyclical_periods": {"CrashWeekDay": Infinity}}', "cyclical periods"),
        ('{"n_interacting_slots": -2}', "n_interacting_slots"),
        ('{"n_interacting_slots": true}', "n_interacting_slots"),
        ('{"n_interacting_slots": 2.7}', "n_interacting_slots"),
        ('{"n_interacting_slot": 0}', "unknown key(s) 'n_interacting_slot'"),
        ("[]", "not an object"),
        ('{"categorical_attrs": "Belted"}', "categorical_attrs"),
        ('{"passenger_types": "suv"}', "passenger_types"),
        ('{"numeric_attrs": [1]}', "numeric_attrs"),
        ('{"cyclical_periods": {"CrashMonth": true}}', "cyclical_periods"),
        ('{"n_interacting_slots": 5, "n_interacting_slots": 5}', "repeated key 'n_interacting_slots'"),
    ])
    def test_agg_config_value_out_of_range_exits_2(self, raw_csv, tmp_path, capsys, text,
                                                    named):
        # a zero period would write NaN into the matrix, and a negative slot
        # count would drop every interacting-slot group; a misspelt key or a
        # top level that is not an object would run the defaults, true or
        # 2.7 would run as 1 or 2, and a string where a list of names is
        # meant would run as one name per character
        cur = tmp_path / "cur"
        assert main(["curate", "--input", str(raw_csv), "--out-dir", str(cur)]) == 0
        capsys.readouterr()
        side = tmp_path / "agg.json"
        side.write_text(text)
        out_dir = tmp_path / "o"
        assert main(["preprocess", "--input", str(cur / "curated.csv"), "--agg-config",
                     str(side), "--out-dir", str(out_dir)]) == 2
        assert named in _assert_one_line_error(capsys)
        assert not out_dir.exists()


class TestExplainCommand:
    @pytest.fixture()
    def finished_run(self, synth_matrix_file, tmp_path):
        out_dir = tmp_path / "out"
        cfg = run_config_ini(tmp_path, synth_matrix_file, out_dir)
        assert main(["--config", str(cfg), "run"]) == 0
        return out_dir

    def test_importance_sorted_descending(self, finished_run, synth_matrix_file, tmp_path):
        exp = tmp_path / "exp"
        code = main(["explain", "--model", str(finished_run / "final_model.json"),
                     "--matrix", str(synth_matrix_file), "--out-dir", str(exp)])
        assert code == 0
        lines = (exp / "importance.csv").read_text().strip().splitlines()[1:]
        feature_rows = [l for l in lines if l.startswith("feature,")]
        values = [float(l.split(",")[2]) for l in feature_rows]
        assert values == sorted(values, reverse=True)

    def test_unknown_feature_exits_3(self, finished_run, synth_matrix_file, tmp_path, capsys):
        code = main(["explain", "--model", str(finished_run / "final_model.json"),
                     "--matrix", str(synth_matrix_file), "--features", "NotAFeature",
                     "--out-dir", str(tmp_path / "exp2")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "available" in err

    def test_same_seed_identical_svg(self, finished_run, synth_matrix_file, tmp_path):
        a, b = tmp_path / "ea", tmp_path / "eb"
        for out in (a, b):
            assert main(["--seed", "7", "explain",
                         "--model", str(finished_run / "final_model.json"),
                         "--matrix", str(synth_matrix_file), "--svg",
                         "--out-dir", str(out)]) == 0
        assert (a / "summary_plot.svg").read_bytes() == (b / "summary_plot.svg").read_bytes()


class TestReportCommand:
    def test_renders_sections(self, synth_matrix_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = run_config_ini(tmp_path, synth_matrix_file, out_dir)
        assert main(["--config", str(cfg), "run"]) == 0
        capsys.readouterr()
        assert main(["report", "--run-dir", str(out_dir)]) == 0
        text = capsys.readouterr().out
        for heading in ("configuration search", "per-subset winners", "stability", "final model"):
            assert heading in text

    def test_missing_report_exits_2(self, tmp_path, capsys):
        assert main(["report", "--run-dir", str(tmp_path)]) == 2
        assert "no report.json" in _assert_one_line_error(capsys)


class TestUsageErrors:
    def test_unknown_command_exits_3(self, capsys):
        assert main(["frobnicate"]) == 3

    def test_run_without_config_exits_3(self):
        assert main(["run"]) == 3

    def test_cv_flag_exits_3(self, synth_matrix_file, tmp_path):
        # every [cv] setting lives in the config file; run has no flag for one
        cfg = run_config_ini(tmp_path, synth_matrix_file, tmp_path / "out")
        assert main(["--config", str(cfg), "run", "--folds", "4"]) == 3
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nseed = 5\n",  # once read as an empty file with seed 0
        "[DEFAULT]\nseed = 5\n[cv]\nfolds = 3\n",  # once "unknown key 'seed' in section [cv]"
    ], ids=["alone", "beside-a-section"])
    def test_default_section_exits_2_naming_it(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        assert main(["--config", str(cfg), "--dry-run", "run"]) == 2
        assert "[DEFAULT]" in _assert_one_line_error(capsys)


class TestRunConfigParsing:
    def test_parses_plans_and_grid(self, synth_matrix_file, tmp_path):
        cfg = RunConfig.load(run_config_ini(tmp_path, synth_matrix_file, tmp_path / "o"))
        assert cfg.cv_plan.k == 4
        assert cfg.subset_plan.n_subsets == 4
        assert cfg.grid.ses_alpha == [0.05]
        assert cfg.grid.declared_total is None
        assert cfg.stability_threshold == 0.75
        assert cfg.final_learner().label() == "Ridge(lambda=1)"
        assert cfg.seed == 42

    def test_seed_drives_named_substreams(self, synth_matrix_file, tmp_path):
        a = RunConfig.load(run_config_ini(tmp_path, synth_matrix_file, tmp_path / "o", seed=1))
        b = RunConfig.load(run_config_ini(tmp_path, synth_matrix_file, tmp_path / "o2", seed=1))
        assert a.subset_plan.seed == b.subset_plan.seed
        assert a.cv_plan.seed == b.cv_plan.seed
        assert a.subset_plan.seed != a.cv_plan.seed

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.ini"
        path.write_text(example)
        cfg = RunConfig.load(path)
        assert enumerate_search_space(cfg.grid).summary()["total_enumerated"] == 476
        assert cfg.final_learner().label() == "Ridge(lambda=1)"

    def test_load_refuses_zero_workers(self, synth_matrix_file, tmp_path):
        path = run_config_ini(tmp_path, synth_matrix_file, tmp_path / "o")
        path.write_text(path.read_text().replace("max_workers = 1", "max_workers = 0"))
        with pytest.raises(ConfigError, match="max_workers"):
            RunConfig.load(path)

    def test_dump_covers_raw_sections(self, synth_matrix_file, tmp_path):
        cfg = RunConfig.load(run_config_ini(tmp_path, synth_matrix_file, tmp_path / "o"))
        dump = cfg.dump()
        assert "cv" in dump["raw"]
        assert dump["raw"]["run"]["seed"] == "42"
