"""The traced benchmark pass (perfbench/tracer.py) wraps program functions by
the names callers look them up under; a rename or deletion in crashsev must
not silently drop a span from the traced run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import crashsev.selection
import crashsev.tune
from crashsev.learners import fit_decision_tree, fit_random_forest
from crashsev.preprocess import FeatureMatrix
from crashsev.synth import planted_generator
from crashsev.tune import (
    CVPlan,
    LassoSelector,
    ModelConfig,
    NaiveLearner,
    NoSelector,
    RidgeLearner,
    TreeLearner,
    run_rnk_cv,
)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_callable():
    for target, _, _ in _load_tracer()._counts_table():
        parts = target.split(".")
        owner = importlib.import_module("crashsev." + parts[0])
        for part in parts[1:]:
            assert hasattr(owner, part), f"{target}: no attribute {part!r}"
            owner = getattr(owner, part)
        assert callable(owner), target


def test_fold_pool_class_is_reachable_from_tune():
    assert isinstance(crashsev.tune.ThreadPoolExecutor, type)


def test_tree_counts_read_fitted_models():
    # the traced pass counts leaves through tree.leaves(), leaf.n_samples and
    # forest.trees; run those counts on real fits
    counts = {target: count for target, _, count in _load_tracer()._counts_table()}
    rng = np.random.default_rng(0)
    X = rng.standard_normal((120, 4))
    y = (X[:, 0] + rng.standard_normal(120) > 0).astype(int)
    tree = fit_decision_tree(X, y, min_leaf=5, alpha_prune=0.5)
    forest = fit_random_forest(X, y, n_trees=3, min_leaf=5, seed=1)
    assert len(tree.leaves()) > 1
    assert counts["learners.fit_decision_tree"](tree, (X, y)) == {"empty_leaves": 0}
    assert counts["learners.fit_random_forest"](forest, (X, y)) == {"trees": 3, "empty_leaves": 0}


def test_cv_counts_read_a_real_cv_result():
    # the traced pass counts folds, fits, drops and early stops through
    # these CVResult attributes; run that count on a real search
    counts = {target: count for target, _, count in _load_tracer()._counts_table()}
    rng = np.random.default_rng(5)
    X = rng.standard_normal((300, 4))
    y = (X[:, 0] + rng.standard_normal(300) > 0.5).astype(int)
    configs = [ModelConfig(0, NoSelector(), RidgeLearner(1.0)),
               ModelConfig(1, NoSelector(), NaiveLearner())]
    plan = CVPlan(k=8, seed=7, drop_margin=0.03, drop_min_folds=3, stop_epsilon=0.01)
    result = run_rnk_cv(FeatureMatrix.from_arrays(X, y), configs, plan)
    assert result.dropped == {1: 3} and result.stopped_early
    assert result.folds_completed == 4
    assert counts["orchestrate.run_rnk_cv"](result, ()) == {
        "folds": 4,
        "fitted": 4,  # the naive baseline is not counted
        "dropped": 1,
        "early_stops": 1,
    }


def test_every_cv_lasso_fit_goes_through_the_traced_name(monkeypatch):
    # selection.lasso_calls counts the spans of the name the tracer wraps;
    # a lasso fit reached any other way would go uncounted
    targets = [t for t, name, _ in _load_tracer()._counts_table() if name == "selection.lasso"]
    assert targets == ["tune.lasso_select"]
    depth = {"now": 0}
    spans, fits = [], []
    traced, real_cd = crashsev.tune.lasso_select, crashsev.selection._lasso_cd

    def span(*args, **kwargs):
        spans.append(args[1])
        depth["now"] += 1
        try:
            return traced(*args, **kwargs)
        finally:
            depth["now"] -= 1

    def fit(*args, **kwargs):
        fits.append(depth["now"])
        return real_cd(*args, **kwargs)

    monkeypatch.setattr(crashsev.tune, "lasso_select", span)
    monkeypatch.setattr(crashsev.selection, "_lasso_cd", fit)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((240, 5))
    y = (X[:, 0] + rng.standard_normal(240) > 0.5).astype(int)
    pairs = [(LassoSelector(p), learner) for p in (0.5, 1.0)
             for learner in (RidgeLearner(1.0), TreeLearner(5, 0.05))]
    configs = [ModelConfig(i, sel, learner) for i, (sel, learner) in enumerate(pairs)]
    plan = CVPlan(k=3, seed=2, drop_margin=None, stop_epsilon=None)
    run_rnk_cv(FeatureMatrix.from_arrays(X, y), configs, plan)
    assert sorted(spans) == [0.5] * 3 + [1.0] * 3  # one per penalty and fold
    assert fits == [1] * len(spans)


def test_lrt_counts_read_a_real_cache(monkeypatch):
    # stats.null_fits counts the spans of selection.fit_null_logistic and
    # stats.lrt_tests the PValues that selection.lrt_ci_test_many returns: a
    # cache fits one null per distinct conditioning set and one test per
    # request it does not hold, and a request it holds fits nothing
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    for name in ("stats.null_fit", "stats.lrt"):
        [(target, count)] = [(t, c) for t, n, c in tracer_module._counts_table() if n == name]
        module, attr = target.split(".")
        assert module == "selection"
        monkeypatch.setattr(crashsev.selection, attr,
                            tracer.wrap(name, getattr(crashsev.selection, attr), count))
    asked, real_pvalues = [], crashsev.selection.CITestCache.pvalues

    def pvalues(self, requests):
        asked.append(list(requests))
        return real_pvalues(self, requests)

    monkeypatch.setattr(crashsev.selection.CITestCache, "pvalues", pvalues)
    gen = planted_generator(n_features=8, n_informative=4, effect=1.0, prevalence=0.3)
    matrix = gen.matrix(400, seed=1)
    cache = crashsev.selection.CITestCache(matrix)
    crashsev.selection.ses_select(matrix, kmax=2, alpha=0.05, cache=cache)
    held, missing = set(), 0
    for requests in asked:
        missing += len(set(requests) - held)
        held |= set(requests)
    conditioning = {z for _, z in held}
    assert max(map(len, conditioning)) == 2  # SES conditioned on pairs
    metrics = tracer_module.layer_metrics(tracer_module.span_table(tracer.spans))
    assert metrics["stats.null_fits"] == len(conditioning)
    assert metrics["stats.lrt_tests"] == missing == len(held)

    spans = len(tracer.spans)
    for requests in list(asked):
        cache.pvalues(requests)
    assert len(tracer.spans) == spans


def test_a_wrapper_set_on_cli_before_main_is_the_one_run_calls(tmp_path, monkeypatch):
    # the tracer looks a modelling name up on crashsev.cli and sets its wrapper
    # there before main runs; main's own loading of those names must keep it
    import crashsev.cli as cli
    from crashsev.preprocess import save_matrix
    from crashsev.synth import planted_generator

    for name in cli._LAZY:  # as in a fresh process, where nothing bound them yet
        monkeypatch.delattr(cli, name, raising=False)
    assert not cli._LAZY & vars(cli).keys()
    gen = planted_generator(n_features=6, n_informative=2, effect=0.8, prevalence=0.2)
    save_matrix(gen.matrix(600, seed=1), tmp_path / "matrix.csfm")
    config = tmp_path / "run.ini"
    config.write_text(
        f"[paths]\nmatrix = {tmp_path / 'matrix.csfm'}\nout_dir = {tmp_path / 'out'}\n"
        "[subsets]\nn_subsets = 2\nsubset_size = 200\n"
        "[cv]\nfolds = 3\nbbc_boot = 100\n"
        "[search]\nses_kmax = []\nses_alpha = []\nlasso_penalty = []\nunivariate_alpha = []\n"
        "epilogi_threshold = []\ninclude_no_selector = true\nridge_lambda = [1.0]\n"
        "tree_min_leaf = []\ntree_alpha = []\nforest_n_trees = []\nforest_min_leaf = []\n"
        "declared_total =\n"
        "[stability]\nthreshold = 0.5\n[final]\nlearner = ridge\nlambda = 1.0\n"
        "[run]\nseed = 3\nmax_workers = 1\n"
    )
    calls = []
    real = cli.run_protocol

    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_protocol", wrapper)
    assert cli.main(["--config", str(config), "run"]) == 0
    assert calls == [1]
    assert cli.run_protocol is wrapper


def test_one_preprocess_encodes_once_and_saves_once(tmp_path, monkeypatch, curation_csv):
    # the traced pass times encoding in the preprocess.encode and
    # preprocess.save spans, one each, and takes preprocess.samples and
    # preprocess.columns from what encode returns
    import crashsev.cli as cli
    from crashsev.preprocess import load_matrix

    counts = {target: count for target, _, count in _load_tracer()._counts_table()}
    encoded, saved = [], []
    real_encode, real_save = cli.encode, cli.save_matrix

    def encode(*args, **kwargs):
        encoded.append(real_encode(*args, **kwargs))
        return encoded[-1]

    def save(matrix, path):
        saved.append(matrix)
        real_save(matrix, path)

    monkeypatch.setattr(cli, "encode", encode)
    monkeypatch.setattr(cli, "save_matrix", save)
    (tmp_path / "persons.csv").write_bytes(curation_csv)
    assert cli.main(["curate", "--input", str(tmp_path / "persons.csv"),
                     "--out-dir", str(tmp_path / "curated")]) == 0
    assert cli.main(["preprocess", "--input", str(tmp_path / "curated" / "curated.csv"),
                     "--out-dir", str(tmp_path / "encoded")]) == 0
    assert len(encoded) == 1 and len(saved) == 1 and saved[0] is encoded[0]
    matrix = load_matrix(tmp_path / "encoded" / "matrix.csfm")
    assert matrix.n_rows > 0
    assert counts["cli.encode"](encoded[0], ()) == {"samples": matrix.n_rows,
                                                   "columns": matrix.n_cols}
