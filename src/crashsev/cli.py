"""Command-line entry points binding the pipeline together.

Commands: curate, preprocess, run, explain, report. Exit codes: 0 success,
2 input/schema error, 3 usage error, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import collections
import csv
import functools
import gc
import importlib
import json
import logging
import sys
from contextlib import closing
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .ingest import (
    ColumnSchema,
    CrashOrderError,
    DisabledDecoder,
    InputFileError,
    InvariantViolation,
    ParseError,
    SchemaError,
    StubDecoder,
    curate,
    iter_person_rows,
    parse_person_rows,
    read_json_file,
    summarize_dataset,
    write_curated_csv,
)

# The names that commands other than curate use, by module. They are bound into
# this module on first use (by main, or by ``cli.<name>`` from outside), one
# module at a time, so curate imports no numpy and preprocess no modelling
# module.
_LAZY_NAMES = {
    "preprocess": ("AggregationConfig", "build_vehicle_samples", "encode",
                   "filter_passenger_vehicles", "fit_preprocess", "load_matrix", "save_matrix"),
    "rng": ("spawn_seed",),
    "config": ("ConfigError", "RunConfig"),
    "explain": ("check_features", "export_summary_plot", "linear_shap",
                "permutation_importance", "variable_importance", "write_importance_csv"),
    "learners": ("LinearModel", "load_model", "save_model"),
    "orchestrate": ("ProtocolError", "run_protocol"),
    "selection": ("StabilityTable",),
    "tune": ("enumerate_search_space",),
}
_OWNER = {name: module for module, names in _LAZY_NAMES.items() for name in names}
_LAZY = _OWNER.keys()
# the modules each command binds before it runs; any other command binds all
_COMMAND_MODULES = {"curate": (), "preprocess": ("preprocess",)}


def _bind(*modules: str) -> None:
    """Bind every name of ``modules`` into this module. A name already bound,
    such as a wrapper a caller set on ``cli.<name>``, is kept."""
    bound = globals()
    for module in modules:
        owner = importlib.import_module(f".{module}", __package__)
        for name in _LAZY_NAMES[module]:
            bound.setdefault(name, getattr(owner, name))


def __getattr__(name: str):
    """Serve ``cli.<name>`` for a lazily bound name, loading its module on first use."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_OWNER[name])
    return globals()[name]


def _loaded(*names: str) -> tuple:
    """The named exception classes that are bound. One that is not was never
    imported by the command that ran, so it cannot have raised it."""
    bound = globals()
    return tuple(bound[name] for name in names if name in bound)


log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_USAGE = 3
EXIT_INVARIANT = 4


class _Parser(argparse.ArgumentParser):
    """argparse flags usage problems with exit code 3, not its default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="crashsev", description=__doc__)
    parser.add_argument("--version", action="version", version=f"crashsev {__version__}")
    parser.add_argument("--config", type=Path, help="run configuration file (INI)")
    parser.add_argument("--seed", type=int, help="override the root seed")
    parser.add_argument("--max-workers", type=int, help="worker pool size (overrides config)")
    parser.add_argument("--resume", action="store_true", help="resume from checkpoints")
    parser.add_argument("--dry-run", action="store_true",
                        help="validate configuration and print the plan without running")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_curate = sub.add_parser("curate", help="parse and curate raw person-level CSV")
    p_curate.add_argument("--input", type=Path, required=True)
    p_curate.add_argument("--schema", type=Path, help="schema map JSON")
    p_curate.add_argument("--decoder-table", type=Path,
                          help="vin-prefix lookup JSON for the offline decoder")
    p_curate.add_argument("--out-dir", type=Path, required=True)

    p_pre = sub.add_parser("preprocess", help="aggregate, filter, and encode curated rows")
    p_pre.add_argument("--input", type=Path, required=True, help="curated CSV")
    p_pre.add_argument("--schema", type=Path, help="schema map JSON")
    p_pre.add_argument("--agg-config", type=Path, help="aggregation config JSON")
    p_pre.add_argument("--no-vehicle-filter", action="store_true",
                       help="keep all unit types instead of passenger-like only")
    p_pre.add_argument("--out-dir", type=Path, required=True)

    p_run = sub.add_parser("run", help="run the full subset/tune/stability protocol")
    p_run.add_argument("--matrix", type=Path, help="feature matrix (overrides config)")
    p_run.add_argument("--out-dir", type=Path, help="output directory (overrides config)")

    p_explain = sub.add_parser("explain", help="attributions for a saved final model")
    p_explain.add_argument("--model", type=Path, required=True)
    p_explain.add_argument("--matrix", type=Path, required=True)
    p_explain.add_argument("--features", default="all",
                           help="comma-separated source features, or 'all'")
    p_explain.add_argument("--svg", action="store_true", help="also write a beeswarm SVG")
    p_explain.add_argument("--out-dir", type=Path, required=True)

    p_report = sub.add_parser("report", help="render a run report to the terminal")
    p_report.add_argument("--run-dir", type=Path, required=True)

    return parser


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _without_cyclic_gc(command):
    """``command`` with the cyclic garbage collector paused while it runs,
    and the caller's collector state restored on every exit. The rows and
    samples of an ingest command hold no reference cycles, so a collection
    during one would only scan every live row."""

    @functools.wraps(command)
    def paused(args) -> int:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return command(args)
        finally:
            if enabled:
                gc.enable()

    return paused


@_without_cyclic_gc
def cmd_curate(args) -> int:
    schema = ColumnSchema.from_file(args.schema) if args.schema else ColumnSchema.default()
    decoder = StubDecoder.from_file(args.decoder_table) if args.decoder_table else DisabledDecoder()
    with open(args.input, "rb") as fh:
        parsed = parse_person_rows(fh, schema)
    args.out_dir.mkdir(parents=True, exist_ok=True)

    quarantine = args.out_dir / "quarantine.csv"
    if parsed.errors:
        with open(quarantine, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["line_number", "message", "raw"])
            writer.writerows([err.line_number, err.message, err.raw] for err in parsed.errors)
    else:
        quarantine.unlink(missing_ok=True)  # an earlier run's, into the same directory

    result = curate(parsed.rows, decoder)
    if not result.audit.conservation_holds():
        raise InvariantViolation("curation audit conservation identity violated")

    write_curated_csv(result.rows, schema, args.out_dir / "curated.csv")
    _write_json(args.out_dir / "audit.json", result.audit.to_dict())
    _write_json(args.out_dir / "summary.json", summarize_dataset(result.rows).to_dict())
    print(
        f"curated {result.audit.rows_in} rows -> {result.audit.rows_out} "
        f"({result.audit.units_removed} units removed, "
        f"{len(parsed.errors)} lines quarantined)"
    )
    return EXIT_OK


@_without_cyclic_gc
def cmd_preprocess(args) -> int:
    schema = ColumnSchema.from_file(args.schema) if args.schema else ColumnSchema.default()
    agg = AggregationConfig.from_file(args.agg_config) if args.agg_config else AggregationConfig()
    errors: list[ParseError] = []
    disorder = None
    with open(args.input, "rb") as fh, closing(iter_person_rows(fh, schema, errors)) as rows:
        try:
            samples = build_vehicle_samples(rows, agg)
        except CrashOrderError as exc:
            # an unreadable line raises out of the drain, and malformed lines
            # are reported before the order
            collections.deque(rows, maxlen=0)
            disorder = exc
    if errors:
        raise InputFileError(f"{len(errors)} malformed lines in curated input, the first "
                             f"at line {errors[0].line_number}: {errors[0].message}")
    if disorder is not None:
        raise disorder

    if not args.no_vehicle_filter:
        samples = filter_passenger_vehicles(samples, agg.passenger_types)
    if not samples:
        raise InputFileError("no vehicle samples after aggregation/filtering")

    model = fit_preprocess(samples, agg)
    matrix = encode(samples, model)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    save_matrix(matrix, args.out_dir / "matrix.csfm")
    model.save(args.out_dir / "preprocess_model.json")
    positives = int(matrix.y.sum())
    print(
        f"encoded {matrix.n_rows} samples x {matrix.n_cols} columns "
        f"({len(matrix.group_names())} source features, "
        f"{positives} severe / {matrix.n_rows - positives} non-severe)"
    )
    return EXIT_OK


def _explain(model, X, y, columns, features, out_dir: Path, *, svg: bool, seed: int):
    """Write importance.csv for a final model and return its table: exact SHAP
    importance and plotdata.csv (plus summary_plot.svg when ``svg``) for a
    linear model, permutation AUC drops for any other."""
    plot_seed = spawn_seed(seed, "plot")
    if isinstance(model, LinearModel):
        shap = linear_shap(model, X, columns)
        table = variable_importance(shap)
        export_summary_plot(shap, table, X, features, out_dir / "plotdata.csv",
                            svg_path=out_dir / "summary_plot.svg" if svg else None, seed=plot_seed)
    else:
        table = permutation_importance(model, X, y, columns, seed=plot_seed)
    write_importance_csv(table, out_dir / "importance.csv")
    return table


def cmd_run(args) -> int:
    if not args.config:
        raise _UsageError("run requires --config")
    cfg = RunConfig.load(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    # the flags that override the file pass the same checks as its values
    overrides = {"max_workers": args.max_workers, "matrix_path": args.matrix,
                 "out_dir": args.out_dir}
    cfg = replace(cfg, **{name: value for name, value in overrides.items() if value is not None})

    space = enumerate_search_space(cfg.grid)
    if args.dry_run:
        summary = space.summary()
        print(
            f"search space: {summary['total_enumerated']} configurations "
            f"({summary['runnable']} runnable, {summary['marked_unsupported']} unsupported"
            + (
                f"; declared total {summary['declared_total']}"
                f"{'' if summary['matches_declared'] else ' does not match'})"
                if summary["declared_total"] is not None
                else ")"
            )
        )
        return EXIT_OK

    if not cfg.matrix_path or not Path(cfg.matrix_path).exists():
        raise InputFileError(f"feature matrix not found: {cfg.matrix_path}")
    matrix = load_matrix(cfg.matrix_path)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)

    # every run starts the log over: a resumed one rewrites the records of
    # its checkpointed folds first, so no record of a fold cut short stays.
    # Line buffering puts each record on disk as it is passed, for monitoring.
    progress_fh = open(cfg.out_dir / "progress.jsonl", "w", buffering=1, encoding="utf-8")

    def progress(record: dict) -> None:
        progress_fh.write(json.dumps(record, sort_keys=True) + "\n")

    try:
        final = run_protocol(
            matrix,
            cfg.subset_plan,
            space,
            cfg.cv_plan,
            stability_threshold=cfg.stability_threshold,
            final_learner=cfg.final_learner(),
            class_weights=cfg.class_weights,
            out_dir=cfg.out_dir,
            resume=args.resume,
            max_workers=cfg.max_workers,
            progress=progress,
        )
    finally:
        progress_fh.close()

    report = dict(final.report)
    report["run_config"] = cfg.dump()

    save_model(final.final_model, cfg.out_dir / "final_model.json")
    with open(cfg.out_dir / "stability_matrix.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(final.stability.matrix_lines()) + "\n")

    train_matrix = matrix.take_rows(final.train_indices).take_groups(final.stable_features)
    table = _explain(final.final_model, train_matrix.X, train_matrix.y, train_matrix.columns,
                     final.stable_features, cfg.out_dir, svg=True, seed=cfg.seed)
    report["explanation_method"] = table.method
    _write_json(cfg.out_dir / "report.json", report)
    _write_json(
        cfg.out_dir / "run_meta.json",
        {"generated_at": datetime.now(timezone.utc).isoformat(), "version": __version__,
         "paths": cfg.raw.get("paths", {})},
    )

    print(
        f"run complete: {len(final.stable_features)} stable features, "
        f"train AUC {final.train_auc:.4f}, holdout AUC {final.holdout_auc:.4f} "
        f"CI [{final.holdout_estimate.ci_low:.4f}, {final.holdout_estimate.ci_high:.4f}]"
    )
    return EXIT_OK


def cmd_explain(args) -> int:
    model = load_model(args.model)
    matrix = load_matrix(args.matrix)

    # align the matrix to the model's training columns, by name
    name_to_idx = {c.name: i for i, c in enumerate(matrix.columns)}
    model_names = getattr(model, "column_names", [c.name for c in matrix.columns])
    missing = [n for n in model_names if n not in name_to_idx]
    if missing:
        raise InputFileError(f"matrix lacks model columns: {', '.join(missing[:5])}")
    idx = [name_to_idx[n] for n in model_names]
    columns = [matrix.columns[i] for i in idx]

    features = (
        sorted({c.source for c in columns})
        if args.features.strip() == "all"
        else [f.strip() for f in args.features.split(",") if f.strip()]
    )
    try:
        check_features(columns, features)
    except KeyError as exc:
        raise _UsageError(exc.args[0]) from exc

    # a linear model's SHAP values read no labels; permutation AUC drops do
    if not isinstance(model, LinearModel) and not (matrix.y.any() and not matrix.y.all()):
        raise InputFileError(f"the labels of {args.matrix} hold one class; the permutation "
                             "importance of a non-linear model needs both")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    table = _explain(model, matrix.X[:, idx], matrix.y, columns, features, args.out_dir,
                     svg=args.svg, seed=args.seed or 0)
    if table.method != "shap":
        print("final model is not linear: wrote permutation importance instead of attributions")
    print(f"wrote importance for {len(table.ranking)} features to {args.out_dir}")
    return EXIT_OK


def cmd_report(args) -> int:
    report_path = args.run_dir / "report.json"
    if not report_path.exists():
        raise InputFileError(f"no report.json under {args.run_dir}")
    print("\n".join(read_json_file(report_path, "run report", _report_lines)))
    return EXIT_OK


def _report_lines(report: dict) -> list[str]:
    ss = report["search_space"]
    lines = [
        "== configuration search ==",
        f"configurations: {ss['total_enumerated']} enumerated, {ss['runnable']} runnable, "
        f"{ss['marked_unsupported']} unsupported; declared total: {ss['declared_total']}"
        + ("" if ss["matches_declared"] else " (MISMATCH, recorded)"),
        "",
        "== per-subset winners ==",
    ]
    for sub in report["subsets"]:
        est = sub["estimate"]
        lines.append(
            f"subset {sub['index'] + 1}: {sub['winner']['selector']} + {sub['winner']['learner']}"
            f"  AUC {est['point']:.4f} CI [{est['ci_low']:.4f}, {est['ci_high']:.4f}]"
            f"  ({sub['fitted_models']} models over {sub['folds_completed']} folds, "
            f"{len(sub['signature'])} features)"
        )
    lines += ["", "== stability ==", *StabilityTable(**report["stability"]).matrix_lines(), ""]
    final = report["final"]
    lines += [
        "== final model ==",
        f"{final['learner']} on {len(report['stable_features'])} stable features: "
        f"train AUC {final['train_auc']:.4f} ({final['n_train']} rows), "
        f"holdout AUC {final['holdout_auc']:.4f} "
        f"CI [{final['holdout_ci'][0]:.4f}, {final['holdout_ci'][1]:.4f}] "
        f"({final['n_holdout']} rows)",
    ]
    return lines


def main(argv=None) -> int:
    """Run one command. Each command returns EXIT_OK or raises; only here is a
    refusal printed, as one line, and its exit code chosen."""
    handlers = {
        "curate": cmd_curate,
        "preprocess": cmd_preprocess,
        "run": cmd_run,
        "explain": cmd_explain,
        "report": cmd_report,
    }
    try:
        args = _build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.INFO,
            format="%(asctime)s %(name)s %(levelname)s %(message)s",
        )
        _bind(*_COMMAND_MODULES.get(args.command, _LAZY_NAMES))
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # an OSError is a path a command cannot read or write: missing, a
    # directory, a file where a directory is meant, or no permission
    except (OSError, SchemaError, InputFileError, *_loaded("ConfigError", "ProtocolError")) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
