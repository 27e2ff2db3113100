"""crashsev benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Set-up generates the workload's inputs from
the seed. It runs in ``SETUP_ROUNDS`` rounds, each of which repeats it for at
least ``SETUP_ROUND_S`` seconds; ``setup_s`` is the median of all repeats.
Then passes run one at a time from this single process (a closed loop with
one client) for ``--seconds``: a pass starts only if it would end within
them, but a run makes at least ``MIN_PASSES`` passes, so that their outputs
can be compared with each other. Each pass starts fresh interpreters that
call ``crashsev.cli.main`` with the workload's arguments, the path a user
takes: ``curate``, ``preprocess`` and ``run`` with an INI file. BLAS threads
are pinned to 1.

With ``--trace 0`` the passes are untraced and the result carries the
end-to-end metrics listed in ``BENCHMARK.json``:

- ``wall_s``: mean wall time of one pass (passes per second, inverted),
  interpreter start and imports of the child processes included;
- ``peak_rss_mb``: peak resident memory of a pass's child processes, each
  as the process itself reports it at exit (see ``child.py``), the largest
  of a pass's processes, median over the passes;
- ``setup_s``: median time of one set-up.

Host speed on shared machines drifts (up to 1.7x within a minute, measured
on a 2-vCPU virtual machine), so both times are rescaled to a reference
host: a time ``t`` taken while a fixed pure-Python kernel needed ``k``
seconds is reported as ``t * REF_NOMINAL_S / k``. For a set-up, ``k`` is the
mean of the kernel timed before and after its round. For a pass, ``k`` comes
from slices of the kernel timed on a thread of this process all through the
pass (about 2% of one core), because the host's speed changes within a pass
and a kernel timed only between passes tracked it poorly. The provenance
line keeps the raw times and the kernel times.

With ``--trace 1`` untraced and traced passes alternate, and the result
carries the per-layer metrics, computed from the spans of the traced passes
(see ``tracer.py``) and not rescaled.

Every pass checks the program's outputs against what the generators
planted, and hashes them; the hashes must agree across all passes of a run.
The last line of standard output is the JSON result; the lines before it
hold the provenance and a readable table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from pathlib import Path

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy loads, here and in every child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SETUP_ROUNDS = 3
SETUP_ROUND_S = 1.0
MIN_PASSES = 2
REF_LOOP = 1_000_000      # iterations of the fixed reference kernel
REF_SAMPLES = 5           # kernel timings (median) around each set-up round
REF_NOMINAL_S = 0.05      # kernel time of the reference host that times are rescaled to
CHILD_TIMEOUT_S = 100.0   # a pass that hangs is killed, and counts as failed
MAX_WORKERS = 2
SAMPLE_LOOP = 20_000      # iterations of one kernel slice timed during a pass
SAMPLE_EVERY_S = 0.05     # pause between two slices


def kernel_slice(iterations: int) -> float:
    """Time of ``iterations`` steps of a fixed pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i & 7
    return time.perf_counter() - start


def ref_kernel() -> float:
    """Median time of the whole reference kernel: the host's current speed."""
    return statistics.median(kernel_slice(REF_LOOP) for _ in range(REF_SAMPLES))


class SpeedSampler:
    """Times a slice of the reference kernel every ``SAMPLE_EVERY_S`` on a
    thread of this process while a pass runs. The median slice, scaled to the
    whole kernel, is the kernel time during the pass; this process is idle
    in ``wait4`` meanwhile, so the thread never waits for the GIL."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            self.samples.append(kernel_slice(SAMPLE_LOOP) * REF_LOOP / SAMPLE_LOOP)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def kernel_s(self) -> float:
        return statistics.median(self.samples) if self.samples else ref_kernel()


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _cli(argv: list[str]) -> None:
    """The program's own CLI, in-process, for set-up steps."""
    from crashsev.cli import main

    with redirect_stdout(sys.stderr):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"set-up step crashsev {' '.join(argv)} exited {code}")


def _run_ini(path: Path, matrix: Path, out_dir: Path, seed: int, search: dict,
             subsets: int, subset_size: int, folds: int, final: dict) -> None:
    lines = [
        "[paths]", f"matrix = {matrix}", f"out_dir = {out_dir}",
        "[subsets]", f"n_subsets = {subsets}", f"subset_size = {subset_size}", "disjoint = true",
        # The default early stop ends a subset's fold loop when the best pooled
        # AUC gains < 0.001, which on these sizes is a coin flip per fold, so
        # the work done per pass would vary 2x from seed to seed; the fold
        # loop therefore always runs all k folds. Early dropping stays default.
        "[cv]", f"folds = {folds}", "stop_epsilon = none", "bbc_boot = 100",
        "[search]",
    ]
    grid = {"ses_kmax": [], "ses_alpha": [], "lasso_penalty": [], "univariate_alpha": [],
            "epilogi_threshold": [], "include_no_selector": "false", "ridge_lambda": [],
            "tree_min_leaf": [], "tree_alpha": [], "forest_n_trees": [], "forest_min_leaf": [],
            "declared_total": ""}
    grid.update(search)
    lines += [f"{k} = {json.dumps(v) if isinstance(v, list) else v}" for k, v in grid.items()]
    lines += ["[stability]", "threshold = 0.75", "[final]"]
    lines += [f"{k} = {v}" for k, v in final.items()]
    lines += ["[run]", f"seed = {seed}", f"max_workers = {MAX_WORKERS}", "class_weights = balanced"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Workloads


class PlantedSes:
    """``synth.planted_generator`` matrix, SES x ridge, final ridge."""

    name = "planted_ses"
    n_features, n_informative, effect, n_rows = 11, 7, 1.5, 8000
    subsets, subset_size, folds = 4, 1500, 4
    min_recovered, max_false, auc_tolerance = 6, 1, 0.08
    expected_spans = ("cli.main", "preprocess.load", "orchestrate.protocol", "orchestrate.draw",
                      "tune.cv", "tune.select_winner", "stats.bbc", "stats.auc", "stats.lrt",
                      "stats.null_fit", "selection.ses", "selection.ci_cache",
                      "selection.stability", "learners.ridge_fit", "learners.predict",
                      "preprocess.take_rows", "preprocess.take_groups", "explain.shap",
                      "explain.importance", "explain.plot")
    absent_layers: tuple = ()

    def setup(self, work: Path, seed: int) -> None:
        from crashsev.preprocess import save_matrix
        from crashsev.synth import planted_generator

        gen = planted_generator(n_features=self.n_features, n_informative=self.n_informative,
                                effect=self.effect, prevalence=1.0 / 51.0)
        save_matrix(gen.matrix(self.n_rows, seed=seed), work / "planted.csfm")
        self.planted = set(gen.planted)
        self.bayes_auc = gen.bayes_auc()
        self.ini = work / "run.ini"
        _run_ini(self.ini, work / "planted.csfm", work / "pass", seed,
                 {"ses_kmax": [2], "ses_alpha": [0.01, 0.05],
                  "ridge_lambda": [0.0001, 0.001, 0.1, 1.0, 10, 100]},
                 self.subsets, self.subset_size, self.folds, {"learner": "ridge", "lambda": 1.0})

    def sizes(self) -> dict:
        return {"rows": self.n_rows, "features": self.n_features,
                "informative": self.n_informative, "effect": self.effect, "prevalence": 1 / 51,
                "subsets": self.subsets, "subset_size": self.subset_size, "folds": self.folds}

    def commands(self, out: Path) -> list[list[str]]:
        return [["--config", str(self.ini), "run"]]

    def check(self, out: Path) -> tuple[list[str], dict, dict]:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        stable = set(report["stable_features"])
        auc = report["final"]["holdout_auc"]
        problems = []
        if len(stable & self.planted) < self.min_recovered:
            problems.append(f"stable set {sorted(stable)} recovers fewer than "
                            f"{self.min_recovered} of {sorted(self.planted)}")
        if len(stable - self.planted) > self.max_false:
            problems.append(f"stable set {sorted(stable)} has more than {self.max_false} "
                            "unplanted features")
        if abs(auc - self.bayes_auc) > self.auc_tolerance:
            problems.append(f"holdout AUC {auc:.4f} is not within {self.auc_tolerance} of "
                            f"the Bayes AUC {self.bayes_auc:.4f}")
        facts = {"fitted_models_total": report["counts"]["fitted_models_total"],
                 "holdout_auc": auc, "stable_features": sorted(stable)}
        return problems, {"report.json": sha256(out / "report.json")}, facts


class CrashGrid:
    """Generated crash records encoded by the program's own curate +
    preprocess at set-up; lasso/univariate/none x ridge/tree/forest, final tree.

    How long the selectors and trees take depends on the data set, so a pass
    runs the protocol on ``datasets`` independently generated data sets, one
    ``run`` process each, and a run's time averages over them."""

    name = "crash_grid"
    n_crashes, datasets = 2800, 2
    subsets, subset_size, folds, n_trees = 2, 900, 3, 2
    expected_spans = ("cli.main", "preprocess.load", "orchestrate.protocol", "orchestrate.draw",
                      "tune.cv", "tune.select_winner", "stats.bbc", "stats.auc", "stats.lrt",
                      "stats.null_fit", "selection.ci_cache", "selection.lasso",
                      "selection.univariate", "selection.stability", "learners.ridge_fit",
                      "learners.tree_fit", "learners.forest_fit", "learners.predict",
                      "preprocess.take_rows", "preprocess.take_groups", "explain.permutation")
    absent_layers: tuple = ("selection.ses",)

    def setup(self, work: Path, seed: int) -> None:
        import crashgen
        from crashsev.preprocess import load_matrix

        self.shapes, self.inis = [], []
        for d in range(self.datasets):
            data, data_seed = work / f"data{d}", seed * self.datasets + d
            data.mkdir(exist_ok=True)
            table, expected = crashgen.generate(data / "crashes.csv", data_seed, self.n_crashes)
            (data / "decoder.json").write_text(json.dumps(table), encoding="utf-8")
            _cli(["curate", "--input", str(data / "crashes.csv"), "--decoder-table",
                  str(data / "decoder.json"), "--out-dir", str(data / "curated")])
            _cli(["preprocess", "--input", str(data / "curated" / "curated.csv"),
                  "--out-dir", str(data / "encoded")])
            matrix = load_matrix(data / "encoded" / "matrix.csfm")
            got = (matrix.n_rows, matrix.n_cols, int(matrix.y.sum()))
            want = (expected.samples, expected.columns, expected.positives)
            if got != want:
                raise RuntimeError(f"encoded matrix (rows, columns, positives) {got} != {want}")
            self.shapes.append({"samples": matrix.n_rows, "columns": matrix.n_cols,
                                "groups": len(matrix.group_names()),
                                "positives": int(matrix.y.sum()),
                                "person_rows": expected.person_rows})
            self.inis.append(data / "run.ini")
            _run_ini(self.inis[-1], data / "encoded" / "matrix.csfm", work / "pass" / f"run{d}",
                     data_seed,
                     {"lasso_penalty": [0.5, 1.0], "univariate_alpha": [0.01],
                      "include_no_selector": "true", "ridge_lambda": [0.1, 10],
                      "tree_min_leaf": [5], "tree_alpha": [0.05],
                      "forest_n_trees": [self.n_trees], "forest_min_leaf": [5]},
                     self.subsets, self.subset_size, self.folds,
                     {"learner": "tree", "min_leaf": 5, "alpha": 0.05})

    def sizes(self) -> dict:
        return {"crashes": self.n_crashes, "datasets": self.shapes, "subsets": self.subsets,
                "subset_size": self.subset_size, "folds": self.folds, "forest_trees": self.n_trees}

    def commands(self, out: Path) -> list[list[str]]:
        return [["--config", str(ini), "run"] for ini in self.inis]

    def check(self, out: Path) -> tuple[list[str], dict, dict]:
        problems, digests = [], {}
        facts = {"fitted_models_total": 0, "holdout_auc": [], "stable_features": []}
        for d in range(self.datasets):
            path = out / f"run{d}" / "report.json"
            report = json.loads(path.read_text(encoding="utf-8"))
            auc = report["final"]["holdout_auc"]
            if not auc > 0.5:
                problems.append(f"data set {d}: holdout AUC {auc:.4f} is not above 0.5")
            if not report["stable_features"]:
                problems.append(f"data set {d}: stable set is empty")
            facts["fitted_models_total"] += report["counts"]["fitted_models_total"]
            facts["holdout_auc"].append(auc)
            facts["stable_features"].append(report["stable_features"])
            digests[f"run{d}/report.json"] = sha256(path)
        return problems, digests, facts


class CurateEncode:
    """Generated person-level CSV and decoder table; CLI ``curate`` then
    ``preprocess``, each in its own process."""

    name = "curate_encode"
    n_crashes = 24000
    expected_spans = ("cli.main", "ingest.parse", "ingest.curate", "ingest.write",
                      "ingest.summary", "preprocess.aggregate", "preprocess.fit",
                      "preprocess.encode", "preprocess.save")
    absent_layers = ("stats.", "selection.", "learners.", "tune.")

    def setup(self, work: Path, seed: int) -> None:
        import crashgen

        table, self.expected = crashgen.generate(work / "crashes.csv", seed, self.n_crashes)
        (work / "decoder.json").write_text(json.dumps(table), encoding="utf-8")
        self.work = work

    def sizes(self) -> dict:
        e = self.expected
        return {"crashes": self.n_crashes, "person_rows": e.person_rows, "samples": e.samples,
                "columns": e.columns}

    def commands(self, out: Path) -> list[list[str]]:
        return [
            ["curate", "--input", str(self.work / "crashes.csv"), "--decoder-table",
             str(self.work / "decoder.json"), "--out-dir", str(out / "curated")],
            ["preprocess", "--input", str(out / "curated" / "curated.csv"),
             "--out-dir", str(out / "encoded")],
        ]

    def check(self, out: Path) -> tuple[list[str], dict, dict]:
        from crashsev.preprocess import load_matrix

        e = self.expected
        problems = []
        audit = json.loads((out / "curated" / "audit.json").read_text(encoding="utf-8"))
        if audit != e.audit:
            problems.append(f"audit {audit} != expected {e.audit}")
        with open(out / "curated" / "quarantine.csv", encoding="utf-8") as fh:
            quarantined = sum(1 for _ in fh) - 1
        if quarantined != e.lines_quarantined:
            problems.append(f"{quarantined} quarantined lines, expected {e.lines_quarantined}")
        matrix = load_matrix(out / "encoded" / "matrix.csfm")
        got = (matrix.n_rows, matrix.n_cols, int(matrix.y.sum()))
        want = (e.samples, e.columns, e.positives)
        if got != want:
            problems.append(f"matrix (rows, columns, positives) {got} != {want}")
        digests = {"curated.csv": sha256(out / "curated" / "curated.csv"),
                   "matrix.csfm": sha256(out / "encoded" / "matrix.csfm")}
        return problems, digests, {"rows_in": audit["rows_in"]}


WORKLOADS = {w.name: w for w in (PlantedSes, CrashGrid, CurateEncode)}


# ---------------------------------------------------------------------------
# Passes


def run_pass(workload, work: Path, pass_id: int, traced: bool) -> dict:
    out = work / "pass"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result = {"pass": pass_id, "traced": traced, "peak_rss_mb": 0.0, "cpu_s": 0.0}
    start = time.perf_counter()
    with SpeedSampler() as sampler:
        result["problems"] = run_children(workload.commands(out), work, pass_id, traced, result)
    result["wall_s"] = time.perf_counter() - start
    result["ref_kernel_s"] = sampler.kernel_s()
    result["wall_ref_s"] = result["wall_s"] * REF_NOMINAL_S / result["ref_kernel_s"]
    if not result["problems"]:
        try:
            problems, result["digests"], result["facts"] = workload.check(out)
        except (OSError, ValueError, KeyError) as exc:  # missing or malformed outputs
            problems = [f"output check failed: {exc!r}"]
        result["problems"] += problems
    return result


def run_children(commands: list[list[str]], work: Path, pass_id: int, traced: bool,
                 result: dict) -> list[str]:
    """Runs a pass's child processes one after another, adds their CPU time
    and peak memory to ``result`` and returns the problems seen."""
    out = work / "pass"
    rss_path = out / "peak_rss_kib.txt"
    for i, argv in enumerate(commands):
        spans = ["--spans", str(work / "spans" / f"{pass_id}-{i}.json")] if traced else []
        err_path = out / f"child{i}.err"
        rss_path.unlink(missing_ok=True)
        with open(out / f"child{i}.out", "wb") as fout, open(err_path, "wb") as ferr:
            proc = subprocess.Popen([sys.executable, str(CHILD), "--peak-rss", str(rss_path),
                                     *spans, *argv], stdout=fout, stderr=ferr, cwd=work)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        result["cpu_s"] += usage.ru_utime + usage.ru_stime
        stderr = err_path.read_bytes()
        if proc.returncode != 0 or b"Traceback" in stderr or not rss_path.is_file():
            tail = stderr.decode("utf-8", "replace")[-1500:]
            return [f"crashsev {argv[-1] if argv[0] == '--config' else argv[0]}"
                    f" exited {proc.returncode}: {tail}"]
        result["peak_rss_mb"] = max(result["peak_rss_mb"],
                                    int(rss_path.read_text(encoding="ascii")) / 1024.0)
    return []


def trace_metrics(workload, work: Path, result: dict) -> dict:
    import tracer

    spans = []
    for path in sorted((work / "spans").glob(f"{result['pass']}-*.json")):
        spans += json.loads(path.read_text(encoding="utf-8"))
    rows = tracer.span_table(spans)
    calls = tracer.span_calls(rows)
    for name in workload.expected_spans:
        if not calls.get(name):
            result["problems"].append(f"traced pass recorded no {name} span")
    for prefix in workload.absent_layers:
        seen = sorted(n for n in calls if n.startswith(prefix))
        if seen:
            result["problems"].append(f"traced pass recorded unexpected spans {seen}")
    metrics = tracer.layer_metrics(rows)
    facts = result.get("facts", {})
    if "fitted_models_total" in facts and metrics["tune.fitted_models"] != facts["fitted_models_total"]:
        result["problems"].append(
            f"traced fitted models {metrics['tune.fitted_models']} != report "
            f"{facts['fitted_models_total']}")
    result["span_calls"] = calls
    return metrics


def provenance(workload, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "max_workers": MAX_WORKERS,
        "seed": seed,
        "workload": workload.name,
        "input_sizes": workload.sizes(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "crashsev" / "cli.py").is_file():
        print(f"no crashsev sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]()
    work = HERE / "work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    (work / "spans").mkdir(parents=True)
    import crashsev.cli  # noqa: F401  -- compile and load the program before timing set-up

    # each set-up is rescaled by the reference kernel timed around its round
    kernel = [ref_kernel()]
    setup_times, setup_ref_times = [], []
    for _ in range(SETUP_ROUNDS):
        round_times = []
        while sum(round_times) < SETUP_ROUND_S:
            start = time.perf_counter()
            workload.setup(work, args.seed)
            round_times.append(time.perf_counter() - start)
        kernel.append(ref_kernel())
        setup_times += round_times
        setup_ref_times += [t * REF_NOMINAL_S / statistics.fmean(kernel[-2:]) for t in round_times]

    # a pass starts only if, at the length of the last one, it ends within
    # --seconds; traced runs alternate untraced and traced passes
    passes = []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start + passes[-1]["wall_s"] <= args.seconds):
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(workload, work, len(passes), traced))
        if traced:
            passes[-1]["layers"] = trace_metrics(workload, work, passes[-1])

    failed = [p for p in passes if p["problems"]]
    digests = {json.dumps(p.get("digests"), sort_keys=True) for p in passes if not p["problems"]}
    correct = not failed and len(digests) == 1
    for p in failed:
        print(f"pass {p['pass']} failed: " + "; ".join(p["problems"]), file=sys.stderr)
    if len(digests) > 1:
        print(f"output digests differ between passes: {sorted(digests)}", file=sys.stderr)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    values = {
        "setup_s": statistics.median(setup_ref_times),
        # passes done per second, inverted: pass times are bimodal on a host
        # whose speed switches between regimes, and a median flips between modes
        "wall_s": statistics.fmean(p["wall_ref_s"] for p in untraced),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "host.cpu_s": statistics.median(p["cpu_s"] for p in untraced),
        "host.ref_kernel_s": statistics.median(p["ref_kernel_s"] for p in passes),
    }
    if traced:
        for name in traced[0]["layers"]:
            values[name] = statistics.median(p["layers"][name] for p in traced)
        values["host.trace_overhead_ratio"] = (
            statistics.fmean(p["wall_ref_s"] for p in traced) / values["wall_s"] - 1.0)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics listed in BENCHMARK.json but not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "provenance": provenance(workload, args.seed),
        "setup_s_raw": setup_times,
        "digests": json.loads(sorted(digests)[0]) if digests else None,
        "ref_kernel_s_around_setups": kernel,
        "passes": [{k: p.get(k) for k in ("pass", "traced", "wall_s", "wall_ref_s", "peak_rss_mb",
                                           "cpu_s", "ref_kernel_s", "facts")} for p in passes],
    }
    if traced:
        record["span_calls"] = traced[-1]["span_calls"]
        # shares of the traced passes' own wall time, which say what each
        # workload stresses
        fit_predict = sum(values[f"learners.{k}_s"] for k in ("ridge_fit", "tree_fit",
                                                                "forest_fit", "predict"))
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        record["wall_shares"] = {
            "stats.lrt_s+selection.ses_s": (values["stats.lrt_s"] + values["selection.ses_s"])
            / traced_wall,
            "learners fit+predict": fit_predict / traced_wall,
            "cli.import_s": values["cli.import_s"] / traced_wall,
        }
    print(json.dumps(record, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(passes), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
