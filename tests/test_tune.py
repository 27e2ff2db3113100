import dataclasses
import json

import numpy as np
import pytest

from crashsev import tune
from crashsev.ingest import InputFileError
from crashsev.preprocess import FeatureMatrix
from crashsev.rng import substream
from crashsev.selection import Signature
from crashsev.stats import stratified_folds
from crashsev.tune import (
    CVPlan,
    CVResult,
    EpilogiSelector,
    ForestLearner,
    LassoSelector,
    ModelConfig,
    NaiveLearner,
    NoSelector,
    RidgeLearner,
    SearchGrid,
    SesSelector,
    TreeLearner,
    UnivariateSelector,
    enumerate_search_space,
    run_rnk_cv,
    select_winner,
)


def planted_matrix(seed=0, n=600, p=8, k=3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    coef = np.zeros(p)
    coef[:k] = [1.0, -0.8, 0.7][:k]
    y = (rng.random(n) < 1 / (1 + np.exp(-(X @ coef - 1.2)))).astype(int)
    return FeatureMatrix.from_arrays(X, y)


class TestEnumeration:
    def test_default_grid_arithmetic(self):
        space = enumerate_search_space(SearchGrid())
        summary = space.summary()
        # 18 selector configs + no-selector = 19; 25 learners; + baseline
        assert summary["total_enumerated"] == 19 * 25 + 1 == 476
        assert summary["marked_unsupported"] == 25  # Epilogi x learners
        assert summary["declared_total"] == 738
        assert not summary["matches_declared"]

    def test_one_selector_one_learner_gives_two_configs(self):
        grid = SearchGrid(
            ses_kmax=[2], ses_alpha=[0.05], lasso_penalty=[], univariate_alpha=[],
            epilogi_threshold=[], include_no_selector=False,
            ridge_lambda=[1.0], tree_min_leaf=[], tree_alpha=[],
            forest_n_trees=[], forest_min_leaf=[], declared_total=None,
        )
        space = enumerate_search_space(grid)
        assert len(space.configs) == 2
        assert isinstance(space.configs[-1].learner, NaiveLearner)
        assert space.summary()["matches_declared"]

    def test_naive_baseline_reads_none_selector(self):
        naive = enumerate_search_space(SearchGrid()).configs[-1]
        assert naive.selector == NoSelector()
        assert naive.label() == "#475 None + NaiveBaseline"
        assert naive.to_dict()["selector"] == "None"

    def test_enumeration_deterministic(self):
        a = enumerate_search_space(SearchGrid())
        b = enumerate_search_space(SearchGrid())
        assert [c.label() for c in a.configs] == [c.label() for c in b.configs]
        assert [c.config_id for c in a.configs] == list(range(len(a.configs)))


class SpySelector:
    """Records the row-id column of every training set it is given."""

    def __init__(self):
        self.calls = []

    def label(self):
        return "Spy"

    def select(self, ctx):
        ids = frozenset(ctx.train.X[:, 0].astype(int).tolist())
        self.calls.append(ids)
        groups = [g for g in ctx.train.group_names() if g != "rowid"]
        return Signature(selected=groups, method="None", hyperparameters={})


class TestRunRnkCv:
    def test_full_grid_counts_without_dropping(self):
        matrix = planted_matrix()
        configs = [
            ModelConfig(0, NoSelector(), RidgeLearner(1.0)),
            ModelConfig(1, UnivariateSelector(0.05), RidgeLearner(0.1)),
            ModelConfig(2, NoSelector(), TreeLearner(3, 0.05)),
            ModelConfig(3, NoSelector(), NaiveLearner()),
        ]
        plan = CVPlan(k=4, seed=1, drop_margin=None, stop_epsilon=None)
        result = run_rnk_cv(matrix, configs, plan)
        assert result.folds_completed == 4
        assert result.fitted_models == 3 * 4  # baseline not counted
        for c in configs:
            assert len(result.fold_aucs[c.config_id]) == 4
        assert result.evaluated_mask.all()
        assert not np.isnan(result.pooled[:3]).any()

    def test_repeats_multiply_folds(self):
        matrix = planted_matrix(n=200)
        configs = [ModelConfig(0, NoSelector(), RidgeLearner(1.0))]
        plan = CVPlan(k=3, repeats=2, seed=1, drop_margin=None, stop_epsilon=None)
        result = run_rnk_cv(matrix, configs, plan)
        assert result.folds_completed == 6
        assert result.fitted_models == 6

    def test_n_complete_limits_folds(self):
        matrix = planted_matrix(n=300)
        configs = [ModelConfig(0, NoSelector(), RidgeLearner(1.0))]
        plan = CVPlan(k=5, n_complete=3, seed=1, drop_margin=None, stop_epsilon=None)
        result = run_rnk_cv(matrix, configs, plan)
        assert result.folds_completed == 3
        assert result.fitted_models == 3
        assert not result.evaluated_mask.all()

    def test_identical_configs_identical_scores(self):
        matrix = planted_matrix()
        configs = [
            ModelConfig(0, NoSelector(), RidgeLearner(1.0)),
            ModelConfig(1, NoSelector(), RidgeLearner(1.0)),
        ]
        plan = CVPlan(k=3, seed=5, drop_margin=None, stop_epsilon=None)
        result = run_rnk_cv(matrix, configs, plan)
        assert np.array_equal(result.pooled[0], result.pooled[1])

    def test_weak_config_dropped_at_min_folds(self):
        matrix = planted_matrix()
        configs = [
            ModelConfig(0, NoSelector(), RidgeLearner(1.0)),
            ModelConfig(1, NoSelector(), NaiveLearner()),  # stuck at AUC 0.5
        ]
        plan = CVPlan(k=6, seed=2, drop_margin=0.03, drop_min_folds=3, stop_epsilon=None)
        result = run_rnk_cv(matrix, configs, plan)
        assert result.dropped.get(1) == 3
        assert 0 not in result.dropped  # the best is never dropped
        assert len(result.fold_aucs[1]) == 3

    def test_early_stopping_plateau(self):
        matrix = planted_matrix()
        configs = [ModelConfig(0, NoSelector(), RidgeLearner(1.0))]
        plan = CVPlan(k=10, seed=3, drop_margin=None, stop_epsilon=0.5)
        result = run_rnk_cv(matrix, configs, plan)
        assert result.stopped_early
        assert result.folds_completed == 2  # needs one comparison point

    def test_unsupported_config_skipped(self):
        matrix = planted_matrix(n=200)
        configs = [
            ModelConfig(0, EpilogiSelector(0.01), RidgeLearner(1.0)),
            ModelConfig(1, NoSelector(), RidgeLearner(1.0)),
        ]
        plan = CVPlan(k=3, seed=1, drop_margin=None, stop_epsilon=None)
        result = run_rnk_cv(matrix, configs, plan)
        assert result.unsupported == [0]
        assert np.isnan(result.pooled[0]).all()
        assert result.fitted_models == 3

    def test_selector_never_sees_test_rows(self):
        matrix = planted_matrix(n=240, p=4, k=2)
        with_id = FeatureMatrix.from_arrays(
            np.column_stack([np.arange(matrix.n_rows), matrix.X]),
            matrix.y,
            names=["rowid"] + [c.name for c in matrix.columns],
        )
        spy = SpySelector()
        configs = [
            ModelConfig(0, spy, RidgeLearner(1.0)),
            ModelConfig(1, NoSelector(), NaiveLearner()),
        ]
        plan = CVPlan(k=4, seed=17, drop_margin=None, stop_epsilon=None)
        run_rnk_cv(with_id, configs, plan)

        assignment = stratified_folds(with_id.y, 4, substream(plan.seed, "folds", 0))
        assert len(spy.calls) == 4
        for j, seen in enumerate(spy.calls):
            test_rows = set(np.flatnonzero(assignment == j).tolist())
            train_rows = set(np.flatnonzero(assignment != j).tolist())
            assert seen == train_rows
            assert not (seen & test_rows)

    def test_empty_signature_trains_intercept_only(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((200, 5))
        y = np.array([0, 1] * 100)
        matrix = FeatureMatrix.from_arrays(X, y)
        configs = [ModelConfig(0, SesSelector(2, 1e-9), RidgeLearner(1.0))]
        plan = CVPlan(k=4, seed=1, drop_margin=None, stop_epsilon=None)
        result = run_rnk_cv(matrix, configs, plan)
        assert result.folds_completed == 4  # no crash; constant scores pool fine

    def test_empty_signature_forest_and_tree(self):
        matrix = planted_matrix(n=300)
        configs = [ModelConfig(0, LassoSelector(2.0), ForestLearner(3, 2)),
                   ModelConfig(1, LassoSelector(2.0), TreeLearner(2, 0.05))]
        plan = CVPlan(k=3, seed=2, drop_margin=None, stop_epsilon=None)
        result = run_rnk_cv(matrix, configs, plan)
        assert result.folds_completed == 3
        assert all(n == 0 for counts in result.n_selected.values() for n in counts)

    def test_worker_count_does_not_change_results(self):
        matrix = planted_matrix(n=400)
        configs = [
            ModelConfig(0, UnivariateSelector(0.05), RidgeLearner(1.0)),
            ModelConfig(1, NoSelector(), TreeLearner(3, 0.05)),
            ModelConfig(2, NoSelector(), NaiveLearner()),
        ]
        plan = CVPlan(k=3, seed=8, drop_margin=None, stop_epsilon=None)
        serial = run_rnk_cv(matrix, configs, plan, max_workers=1)
        threaded = run_rnk_cv(matrix, configs, plan, max_workers=4)
        assert np.array_equal(serial.pooled, threaded.pooled, equal_nan=True)
        assert serial.fold_aucs == threaded.fold_aucs

    def test_each_selector_runs_once_per_fold(self, monkeypatch):
        calls = {"select": 0, "design": 0}
        real_select, real_design = tune.lasso_select, tune.lasso_design

        def counting_select(*args, **kwargs):
            calls["select"] += 1
            return real_select(*args, **kwargs)

        def counting_design(*args, **kwargs):
            calls["design"] += 1
            return real_design(*args, **kwargs)

        monkeypatch.setattr(tune, "lasso_select", counting_select)
        monkeypatch.setattr(tune, "lasso_design", counting_design)
        matrix = planted_matrix(n=300)
        learners = [RidgeLearner(1.0), RidgeLearner(10.0), TreeLearner(3, 0.05)]
        selectors = [LassoSelector(0.5), LassoSelector(1.0), UnivariateSelector(0.05)]
        configs = [ModelConfig(len(learners) * i + k, sel, lrn)
                   for i, sel in enumerate(selectors) for k, lrn in enumerate(learners)]
        plan = CVPlan(k=3, seed=4, drop_margin=None, stop_epsilon=None)

        serial = run_rnk_cv(matrix, configs, plan)
        assert calls == {"select": 3 * 2, "design": 3}  # folds x penalties, folds
        for i in range(0, len(configs), len(learners)):
            first, *rest = (serial.n_selected[c.config_id] for c in configs[i:i + len(learners)])
            assert len(first) == 3 and all(counts == first for counts in rest)

        threaded = run_rnk_cv(matrix, configs, plan, max_workers=2)
        assert calls == {"select": 2 * 3 * 2, "design": 2 * 3}
        assert np.array_equal(serial.pooled, threaded.pooled, equal_nan=True)
        assert serial.n_selected == threaded.n_selected

    def test_mid_fold_interrupt_resume_equivalence(self, tmp_path):
        matrix = planted_matrix(n=300)
        configs = [
            ModelConfig(0, NoSelector(), RidgeLearner(1.0)),
            ModelConfig(1, NoSelector(), NaiveLearner()),
        ]
        plan = CVPlan(k=5, seed=21, drop_margin=None, stop_epsilon=None)
        clean = run_rnk_cv(matrix, configs, plan)

        path = tmp_path / "cv.npz"
        seen = {"n": 0}

        def exploding_progress(record):
            seen["n"] += 1
            if seen["n"] == 5:  # partway through fold 3
                raise KeyboardInterrupt("simulated kill")

        with pytest.raises(KeyboardInterrupt):
            run_rnk_cv(matrix, configs, plan, checkpoint_path=path,
                       progress=exploding_progress)
        resumed = run_rnk_cv(matrix, configs, plan, checkpoint_path=path, resume=True)
        assert np.array_equal(clean.pooled, resumed.pooled, equal_nan=True)
        assert clean.fold_aucs == resumed.fold_aucs
        assert clean.fitted_models == resumed.fitted_models

    def test_checkpoint_roundtrip(self, tmp_path):
        matrix = planted_matrix(n=300)
        configs = [
            ModelConfig(0, NoSelector(), RidgeLearner(1.0)),
            ModelConfig(1, NoSelector(), NaiveLearner()),
        ]
        plan = CVPlan(k=4, seed=9, drop_margin=None, stop_epsilon=None)
        path = tmp_path / "cv.npz"
        first = run_rnk_cv(matrix, configs, plan, checkpoint_path=path)
        assert path.exists()
        resumed = run_rnk_cv(matrix, configs, plan, checkpoint_path=path, resume=True)
        assert np.array_equal(first.pooled, resumed.pooled, equal_nan=True)
        assert first.fitted_models == resumed.fitted_models
        assert first.fold_aucs == resumed.fold_aucs

    @staticmethod
    def _interrupted_checkpoint(tmp_path, matrix, configs, plan, fold=2):
        """The checkpoint a run leaves when killed at the start of ``fold``."""
        path = tmp_path / "cv.npz"

        def kill_at_fold(record):
            if record["fold"] == fold:
                raise KeyboardInterrupt("simulated kill")

        with pytest.raises(KeyboardInterrupt):
            run_rnk_cv(matrix, configs, plan, checkpoint_path=path, progress=kill_at_fold)
        return path

    @pytest.mark.parametrize("change, field", [
        ("plan", "plan"), ("configs", "configs"), ("weights", "class_weights"),
        ("matrix", "data_sha256"),
    ])
    def test_stale_checkpoint_is_refused(self, tmp_path, change, field):
        matrix = planted_matrix(n=300)
        configs = [
            ModelConfig(0, NoSelector(), RidgeLearner(1.0)),
            ModelConfig(1, NoSelector(), NaiveLearner()),
        ]
        plan = CVPlan(k=5, seed=21, drop_margin=None, stop_epsilon=None)
        path = self._interrupted_checkpoint(tmp_path, matrix, configs, plan)
        if change == "plan":
            plan = CVPlan(k=5, seed=99, drop_margin=None, stop_epsilon=None)
        elif change == "configs":
            configs = configs + [ModelConfig(2, NoSelector(), RidgeLearner(10.0))]
        else:
            matrix = planted_matrix(seed=1, n=300)
        with pytest.raises(InputFileError, match=f"another {field};"):
            run_rnk_cv(matrix, configs, plan, checkpoint_path=path, resume=True,
                       class_weights=(1.0, 1.0) if change == "weights" else None)

    def test_checkpoint_without_stamp_is_refused(self, tmp_path):
        # the state alone, as checkpoints were written before they carried
        # the plan, the config labels and the matrix digest
        matrix = planted_matrix(n=300)
        configs = [ModelConfig(0, NoSelector(), RidgeLearner(1.0))]
        plan = CVPlan(k=5, seed=21, drop_margin=None, stop_epsilon=None)
        path = self._interrupted_checkpoint(tmp_path, matrix, configs, plan)
        with np.load(path) as data:
            members = {name: data[name] for name in data.files}
        meta = json.loads(members["meta"].tobytes())
        for key in ("plan", "configs", "class_weights", "data_sha256"):
            del meta[key]
        members["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **members)
        with pytest.raises(InputFileError, match="another plan;"):
            run_rnk_cv(matrix, configs, plan, checkpoint_path=path, resume=True)

    @pytest.mark.parametrize("kill_fold", range(6))
    def test_resume_with_dropping_and_early_stop(self, tmp_path, kill_fold):
        # the clean run drops two configs at fold 3 and stops early after
        # fold 5 of 6; kill_fold 5 is never reached, so that run finishes
        # and the resume reads the final checkpoint back
        matrix = planted_matrix(n=300)
        configs = [
            ModelConfig(0, NoSelector(), RidgeLearner(1.0)),
            ModelConfig(1, UnivariateSelector(0.05), TreeLearner(3, 0.05)),
            ModelConfig(2, NoSelector(), NaiveLearner()),
        ]
        plan = CVPlan(k=6, seed=4, drop_margin=0.03, drop_min_folds=3, stop_epsilon=0.01)
        clean = run_rnk_cv(matrix, configs, plan)
        assert clean.dropped == {1: 3, 2: 3}
        assert clean.stopped_early and clean.folds_completed == 5

        path = tmp_path / "cv.npz"

        def kill_at_fold(record):
            if record["fold"] == kill_fold:
                raise KeyboardInterrupt("simulated kill")

        try:
            run_rnk_cv(matrix, configs, plan, checkpoint_path=path, progress=kill_at_fold)
        except KeyboardInterrupt:
            assert kill_fold < clean.folds_completed
        else:
            assert kill_fold == clean.folds_completed
        resumed = run_rnk_cv(matrix, configs, plan, checkpoint_path=path, resume=True)
        for f in dataclasses.fields(CVResult):
            want, got = getattr(clean, f.name), getattr(resumed, f.name)
            if isinstance(want, np.ndarray):
                assert np.array_equal(want, got, equal_nan=want.dtype.kind == "f"), f.name
            else:
                assert want == got, f.name


class TestSelectWinner:
    def test_single_config_estimate_near_pooled(self):
        matrix = planted_matrix()
        configs = [ModelConfig(0, NoSelector(), RidgeLearner(1.0))]
        plan = CVPlan(k=4, seed=6, drop_margin=None, stop_epsilon=None, bbc_boot=200)
        result = run_rnk_cv(matrix, configs, plan)
        winner, estimate = select_winner(result)
        assert winner.config_id == 0
        pooled = result.pooled_auc(0)
        assert estimate.ci_low <= pooled <= estimate.ci_high

    def test_tie_breaks_to_simpler_learner(self):
        labels = np.array([0, 1] * 30)
        pooled = np.vstack([np.linspace(0, 1, 60)] * 2)  # identical scores
        configs = [
            ModelConfig(0, NoSelector(), ForestLearner(10, 4)),
            ModelConfig(1, NoSelector(), RidgeLearner(1.0)),
        ]
        result = CVResult(
            configs=configs,
            pooled=pooled,
            evaluated_mask=np.ones(60, dtype=bool),
            labels=labels,
            fold_aucs={0: [0.5, 0.5], 1: [0.5, 0.5]},
            n_selected={0: [2, 2], 1: [2, 2]},
            dropped={},
            unsupported=[],
            folds_completed=2,
            fitted_models=4,
            stopped_early=False,
            plan=CVPlan(k=2, seed=0, bbc_boot=120),
        )
        winner, _ = select_winner(result)
        assert winner.config_id == 1  # ridge beats forest on ties

    def test_fewer_features_wins_before_learner_class(self):
        labels = np.array([0, 1] * 30)
        pooled = np.vstack([np.linspace(0, 1, 60)] * 2)
        configs = [
            ModelConfig(0, NoSelector(), RidgeLearner(1.0)),
            ModelConfig(1, NoSelector(), RidgeLearner(0.1)),
        ]
        result = CVResult(
            configs=configs,
            pooled=pooled,
            evaluated_mask=np.ones(60, dtype=bool),
            labels=labels,
            fold_aucs={0: [0.5, 0.5], 1: [0.5, 0.5]},
            n_selected={0: [5, 5], 1: [2, 2]},
            dropped={},
            unsupported=[],
            folds_completed=2,
            fitted_models=4,
            stopped_early=False,
            plan=CVPlan(k=2, seed=0, bbc_boot=120),
        )
        winner, _ = select_winner(result)
        assert winner.config_id == 1

    def test_all_dropped_is_error(self):
        configs = [ModelConfig(0, EpilogiSelector(0.01), RidgeLearner(1.0))]
        result = CVResult(
            configs=configs,
            pooled=np.full((1, 10), np.nan),
            evaluated_mask=np.zeros(10, dtype=bool),
            labels=np.array([0, 1] * 5),
            fold_aucs={0: []},
            n_selected={0: []},
            dropped={},
            unsupported=[0],
            folds_completed=0,
            fitted_models=0,
            stopped_early=False,
            plan=CVPlan(k=2, seed=0),
        )
        with pytest.raises(RuntimeError, match="surviving"):
            select_winner(result)


class TestPlanValidation:
    def test_bad_n_complete(self):
        with pytest.raises(ValueError):
            CVPlan(k=5, n_complete=6)

    def test_bad_repeats(self):
        with pytest.raises(ValueError):
            CVPlan(k=5, repeats=0)
