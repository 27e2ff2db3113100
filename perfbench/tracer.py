"""Span recorder for traced benchmark passes, and the per-layer metrics
computed from its spans.

The program carries no tracing of its own, so a traced pass wraps public
functions of the ``crashsev`` modules from outside, at the name each caller
looks up: modules import functions by name (``from .stats import auc_roc``),
so a function is wrapped in every module namespace that calls it, and
methods are wrapped on their class.

Each span records its name, start, end, parent span, thread and a few counts
taken from the return value (``PValue.converged``, ``LinearModel.converged``,
``Signature.converged``, ``TreeModel.leaves()``, ``CVResult``). Every thread
keeps its own span stack. Work submitted to the fold-level thread pool is
parented to the innermost open span of the submitting thread. Spans stay in
memory and are written out once, when the pass ends, to a file named after
the pass id.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, thread, start, end, counts)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append((next(self._ids), None, name, threading.get_ident(), start, end, None))

    def wrap(self, name: str, fn, count=None):
        """``fn`` traced as span ``name``; ``count(result, args)`` gives its counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counts = count(result, args) if count is not None else None
            self.spans.append((span_id, parent, name, threading.get_ident(), start, end, counts))
            return result

        return traced

    def adopt(self, parent, fn, *args, **kwargs):
        """Run ``fn`` on a pool thread with ``parent`` as its enclosing span."""
        stack = self._stack()
        saved = stack[:]
        stack[:] = [] if parent is None else [parent]
        try:
            return fn(*args, **kwargs)
        finally:
            stack[:] = saved

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _leaves_empty(tree) -> int:
    return sum(1 for leaf in tree.leaves() if leaf.n_samples == 0)


def _counts_table():
    """(module attribute or Class.method, span name, counts from (result, args))."""
    import numpy as np

    def sig_nonconverged(r, a):
        return {"nonconverged": int(not r.converged)}

    def scores(r, a):
        return {"rows": int(r.size), "nonfinite": int(r.size - np.count_nonzero(np.isfinite(r)))}

    def matrix_shape(r, a):
        return {"samples": r.n_rows, "columns": r.n_cols}

    return [
        # ingest: curate command, and the parse of curated rows in preprocess
        ("cli.parse_person_rows", "ingest.parse",
         lambda r, a: {"rows": len(r.rows) + len(r.errors), "errors": len(r.errors)}),
        ("cli.curate", "ingest.curate",
         lambda r, a: {"rows_in": r.audit.rows_in, "units_removed": r.audit.units_removed}),
        ("cli.write_curated_csv", "ingest.write", None),
        ("cli.summarize_dataset", "ingest.summary", None),
        # preprocess
        ("cli.build_vehicle_samples", "preprocess.aggregate", None),
        ("cli.filter_passenger_vehicles", "preprocess.aggregate", None),
        ("cli.fit_preprocess", "preprocess.fit", None),
        ("cli.encode", "preprocess.encode", matrix_shape),
        ("cli.save_matrix", "preprocess.save", None),
        ("cli.load_matrix", "preprocess.load", matrix_shape),
        ("preprocess.FeatureMatrix.take_rows", "preprocess.take_rows", None),
        ("preprocess.FeatureMatrix.take_groups", "preprocess.take_groups", None),
        # stats
        ("selection.lrt_ci_test_many", "stats.lrt",
         lambda r, a: {"tests": len(r), "nonconverged": sum(not p.converged for p in r)}),
        ("selection.fit_null_logistic", "stats.null_fit",
         lambda r, a: {"nonconverged": int(not r.converged)}),
        ("stats.auc_roc", "stats.auc", None),
        ("tune.auc_roc", "stats.auc", None),
        ("orchestrate.auc_roc", "stats.auc", None),
        ("explain.auc_roc", "stats.auc", None),
        ("tune.bbc_correct", "stats.bbc", None),
        # selection
        ("tune.ses_select", "selection.ses", None),
        ("selection.CITestCache.pvalues", "selection.ci_cache",
         lambda r, a: {"requests": len(a[1])}),
        ("tune.lasso_select", "selection.lasso", sig_nonconverged),
        ("tune.univariate_select", "selection.univariate", None),
        ("orchestrate.stability_select", "selection.stability", None),
        # learners (tune and orchestrate reach them as ``learners.<name>``)
        ("learners.fit_ridge_logistic", "learners.ridge_fit", sig_nonconverged),
        ("learners.fit_decision_tree", "learners.tree_fit",
         lambda r, a: {"empty_leaves": _leaves_empty(r)}),
        ("learners.fit_random_forest", "learners.forest_fit",
         lambda r, a: {"trees": len(r.trees), "empty_leaves": sum(map(_leaves_empty, r.trees))}),
        ("learners.predict_scores", "learners.predict", scores),
        ("explain.predict_scores", "learners.predict", scores),
        # tune
        ("orchestrate.run_rnk_cv", "tune.cv",
         lambda r, a: {"folds": r.folds_completed, "fitted": r.fitted_models,
                       "dropped": len(r.dropped), "early_stops": int(r.stopped_early)}),
        ("orchestrate.select_winner", "tune.select_winner", None),
        # orchestrate
        ("cli.run_protocol", "orchestrate.protocol", None),
        ("orchestrate.draw_subsets", "orchestrate.draw", None),
        # explain
        ("cli.linear_shap", "explain.shap", lambda r, a: {"rows": int(a[1].shape[0])}),
        ("cli.variable_importance", "explain.importance", None),
        ("cli.export_summary_plot", "explain.plot", None),
        ("cli.permutation_importance", "explain.permutation",
         lambda r, a: {"rows": int(a[1].shape[0])}),
    ]


def install(tracer: Tracer) -> None:
    """Wrap the program's public functions; call after importing ``crashsev.cli``."""
    import importlib

    for target, name, count in _counts_table():
        parts = target.split(".")
        owner = importlib.import_module("crashsev." + parts[0])
        for part in parts[1:-1]:
            owner = getattr(owner, part)
        setattr(owner, parts[-1], tracer.wrap(name, getattr(owner, parts[-1]), count))

    tune = importlib.import_module("crashsev.tune")

    class TracedPool(tune.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.adopt, tracer.current(), fn, *args, **kwargs)

    tune.ThreadPoolExecutor = TracedPool


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one pass


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_table(spans) -> list[dict]:
    """Spans as dicts with ``dur`` and ``self`` (duration minus the union of
    its children's intervals, clipped to the span)."""
    rows = [dict(id=s[0], parent=s[1], name=s[2], thread=s[3], start=s[4], end=s[5],
                 counts=s[6] or {}) for s in spans]
    children = defaultdict(list)
    for r in rows:
        if r["parent"] is not None:
            children[r["parent"]].append(r)
    for r in rows:
        clipped = [(max(c["start"], r["start"]), min(c["end"], r["end"]))
                   for c in children[r["id"]]]
        covered = _union_length([iv for iv in clipped if iv[1] > iv[0]])
        r["dur"] = r["end"] - r["start"]
        r["self"] = r["dur"] - covered
    return rows


SELECTOR_SPANS = ("selection.ses", "selection.lasso", "selection.univariate")
FIT_SPANS = ("learners.ridge_fit", "learners.tree_fit", "learners.forest_fit")


def layer_metrics(rows: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass (all its child processes' spans)."""
    by_name = defaultdict(list)
    for r in rows:
        by_name[r["name"]].append(r)

    def calls(name):
        return len(by_name[name])

    def self_s(name):
        return sum(r["self"] for r in by_name[name])

    def total_s(name):
        return sum(r["dur"] for r in by_name[name])

    def count(name, key):
        return sum(r["counts"].get(key, 0) for r in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    protocol_ids = {r["id"] for r in by_name["orchestrate.protocol"]}
    under_protocol = [r for r in rows if r["parent"] in protocol_ids]
    subsets: list[float] = []
    for r in sorted(under_protocol, key=lambda r: r["start"]):
        if r["name"] == "tune.cv":
            subsets.append(0.0)
        if subsets and r["name"] in ("tune.cv", "tune.select_winner") + SELECTOR_SPANS:
            subsets[-1] += r["dur"]

    lrt_tests = count("stats.lrt", "tests")
    requests = count("selection.ci_cache", "requests")
    parsed = count("ingest.parse", "rows")
    predicted = count("learners.predict", "rows")
    fitted = count("tune.cv", "fitted")
    trees = count("learners.forest_fit", "trees")
    shape_from = "preprocess.encode" if calls("preprocess.encode") else "preprocess.load"
    m = {
        "ingest.parse_s": self_s("ingest.parse"),
        "ingest.curate_s": self_s("ingest.curate"),
        "ingest.write_s": self_s("ingest.write"),
        "ingest.summary_s": self_s("ingest.summary"),
        "ingest.rows_in": count("ingest.curate", "rows_in"),
        "ingest.rows_per_s": ratio(parsed, self_s("ingest.parse")),
        "ingest.units_removed": count("ingest.curate", "units_removed"),
        "ingest.lines_quarantined": count("ingest.parse", "errors"),
        "preprocess.aggregate_s": self_s("preprocess.aggregate"),
        "preprocess.fit_s": self_s("preprocess.fit"),
        "preprocess.encode_s": self_s("preprocess.encode"),
        "preprocess.save_s": self_s("preprocess.save"),
        "preprocess.load_s": self_s("preprocess.load"),
        "preprocess.samples": count(shape_from, "samples"),
        "preprocess.columns": count(shape_from, "columns"),
        "preprocess.take_rows_s": self_s("preprocess.take_rows"),
        "preprocess.take_groups_calls": calls("preprocess.take_groups"),
        "preprocess.take_groups_s": self_s("preprocess.take_groups"),
        "stats.lrt_calls": calls("stats.lrt"),
        "stats.lrt_tests": lrt_tests,
        "stats.lrt_s": self_s("stats.lrt"),
        "stats.lrt_tests_per_s": ratio(lrt_tests, self_s("stats.lrt")),
        "stats.lrt_batch_mean": ratio(lrt_tests, calls("stats.lrt")),
        "stats.lrt_nonconverged": count("stats.lrt", "nonconverged"),
        "stats.null_fits": calls("stats.null_fit"),
        "stats.null_fit_s": self_s("stats.null_fit"),
        "stats.auc_calls": calls("stats.auc"),
        "stats.auc_s": self_s("stats.auc"),
        "stats.bbc_s": self_s("stats.bbc"),
        "selection.ses_calls": calls("selection.ses"),
        "selection.ses_s": self_s("selection.ses"),
        "selection.ci_requests": requests,
        "selection.ci_cache_s": self_s("selection.ci_cache"),
        "selection.ci_cache_hit_ratio": 1.0 - ratio(lrt_tests, requests) if requests else 0.0,
        "selection.lasso_calls": calls("selection.lasso"),
        "selection.lasso_s": self_s("selection.lasso"),
        "selection.lasso_nonconverged": count("selection.lasso", "nonconverged"),
        "selection.univariate_s": self_s("selection.univariate"),
        "selection.stability_s": self_s("selection.stability"),
        "learners.ridge_fits": calls("learners.ridge_fit"),
        "learners.ridge_fit_s": self_s("learners.ridge_fit"),
        "learners.ridge_nonconverged": count("learners.ridge_fit", "nonconverged"),
        "learners.tree_fits": calls("learners.tree_fit"),
        "learners.tree_fit_s": self_s("learners.tree_fit"),
        "learners.forest_fits": calls("learners.forest_fit"),
        "learners.forest_fit_s": self_s("learners.forest_fit"),
        "learners.trees_grown": trees,
        "learners.forest_s_per_tree": ratio(self_s("learners.forest_fit"), trees),
        "learners.predict_calls": calls("learners.predict"),
        "learners.predict_s": self_s("learners.predict"),
        "learners.predict_rows_per_s": ratio(predicted, self_s("learners.predict")),
        "learners.empty_leaves": (count("learners.tree_fit", "empty_leaves")
                                  + count("learners.forest_fit", "empty_leaves")),
        "learners.nonfinite_scores": count("learners.predict", "nonfinite"),
        "tune.cv_s": total_s("tune.cv"),
        "tune.self_s": self_s("tune.cv"),
        "tune.folds_completed": count("tune.cv", "folds"),
        "tune.fitted_models": fitted,
        "tune.fits_per_s": ratio(fitted, total_s("tune.cv")),
        "tune.configs_dropped": count("tune.cv", "dropped"),
        "tune.early_stops": count("tune.cv", "early_stops"),
        "tune.select_winner_s": self_s("tune.select_winner"),
        "orchestrate.protocol_s": total_s("orchestrate.protocol"),
        "orchestrate.self_s": self_s("orchestrate.protocol"),
        "orchestrate.draw_s": self_s("orchestrate.draw"),
        "orchestrate.subset_max_s": max(subsets, default=0.0),
        "orchestrate.subset_min_s": min(subsets, default=0.0),
        "orchestrate.refit_s": sum(r["dur"] for r in under_protocol if r["name"] in SELECTOR_SPANS),
        "orchestrate.final_fit_s": sum(r["dur"] for r in under_protocol if r["name"] in FIT_SPANS),
        "explain.shap_s": self_s("explain.shap"),
        "explain.importance_s": self_s("explain.importance"),
        "explain.plot_s": self_s("explain.plot"),
        "explain.permutation_s": self_s("explain.permutation"),
        "explain.rows_explained": count("explain.shap", "rows") + count("explain.permutation", "rows"),
        "cli.self_s": self_s("cli.main"),
        "cli.import_s": total_s("cli.import"),
    }
    return m


def span_calls(rows: list[dict]) -> dict[str, int]:
    out: dict[str, int] = defaultdict(int)
    for r in rows:
        out[r["name"]] += 1
    return dict(out)
