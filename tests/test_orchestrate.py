import json
from dataclasses import replace

import numpy as np
import pytest

import crashsev.orchestrate as orch
import crashsev.tune as tune
from crashsev.learners import naive_baseline
from crashsev.preprocess import FeatureMatrix
from crashsev.selection import Signature
from crashsev.synth import planted_generator
from crashsev.orchestrate import (
    HoldoutViolation,
    ProtocolError,
    SubsetPlan,
    draw_subsets,
    run_protocol,
)
from crashsev.tune import CVPlan, SearchGrid, enumerate_search_space


@pytest.fixture(scope="module")
def small_generator():
    return planted_generator(n_features=15, n_informative=4, effect=0.8, prevalence=0.1)


@pytest.fixture(scope="module")
def small_matrix(small_generator):
    return small_generator.matrix(3000, seed=77)


def small_space():
    grid = SearchGrid(
        ses_kmax=[2], ses_alpha=[0.05],
        lasso_penalty=[], univariate_alpha=[], epilogi_threshold=[],
        include_no_selector=False,
        ridge_lambda=[0.1, 1.0], tree_min_leaf=[], tree_alpha=[],
        forest_n_trees=[], forest_min_leaf=[], declared_total=None,
    )
    return enumerate_search_space(grid)


def small_plans(seed_a=11, seed_b=22):
    return (
        SubsetPlan(n_subsets=4, subset_size=400, seed=seed_a),
        CVPlan(k=4, seed=seed_b, bbc_boot=150),
    )


# (subset, fold) after whose checkpoint a run of small_plans() can be killed:
# early stopping ends the subsets after 3, 2, 2 and 2 of their 4 folds
KILL_POINTS = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)]


@pytest.fixture(scope="module")
def clean_report(small_matrix):
    subset_plan, cv_plan = small_plans()
    return run_protocol(small_matrix, subset_plan, small_space(), cv_plan).report


class TestDrawSubsets:
    def test_forced_proportional_counts(self):
        labels = np.r_[np.zeros(100_000 // 10), np.ones(101)]  # keep it small
        labels = np.r_[np.zeros(10_100), np.ones(101)]
        plan = SubsetPlan(n_subsets=1, subset_size=505, seed=0)
        subsets, _ = draw_subsets(labels, plan)
        counts = np.bincount(labels[subsets[0]].astype(int))
        assert counts[0] == 500
        assert counts[1] == 5

    def test_counts_within_one_of_proportional(self, rng):
        labels = (rng.random(5000) < 0.13).astype(int)
        plan = SubsetPlan(n_subsets=3, subset_size=700, seed=4)
        subsets, _ = draw_subsets(labels, plan)
        global_pos = labels.mean()
        for s in subsets:
            assert s.size == 700
            pos = int(labels[s].sum())
            assert abs(pos - 700 * global_pos) < 1.0

    def test_disjoint_and_holdout_complement(self, rng):
        labels = (rng.random(2000) < 0.2).astype(int)
        plan = SubsetPlan(n_subsets=4, subset_size=300, seed=9)
        subsets, holdout = draw_subsets(labels, plan)
        seen = np.concatenate(subsets)
        assert len(set(seen.tolist())) == seen.size  # pairwise disjoint
        assert seen.size + holdout.size == 2000
        assert not set(seen.tolist()) & set(holdout.tolist())

    def test_deterministic(self, rng):
        labels = (rng.random(1000) < 0.3).astype(int)
        plan = SubsetPlan(n_subsets=2, subset_size=200, seed=31)
        a = draw_subsets(labels, plan)
        b = draw_subsets(labels, plan)
        assert all(np.array_equal(x, y) for x, y in zip(a[0], b[0]))
        assert np.array_equal(a[1], b[1])

    def test_infeasible_plan_names_constraint(self):
        labels = np.r_[np.zeros(100), np.ones(10)]
        plan = SubsetPlan(n_subsets=4, subset_size=30, seed=0)
        with pytest.raises(ProtocolError, match="class"):
            draw_subsets(labels, plan)

    def test_overlapping_subsets(self, rng):
        # each subset is drawn from every row of its class, so subsets share
        # rows, but no subset repeats one
        labels = (rng.random(3000) < 0.13).astype(int)
        plan = SubsetPlan(n_subsets=4, subset_size=900, seed=6, disjoint=False)
        subsets, holdout = draw_subsets(labels, plan)
        for s in subsets:
            assert s.size == 900 and np.unique(s).size == 900
            assert abs(int(labels[s].sum()) - 900 * labels.mean()) <= 1.0
        union = np.unique(np.concatenate(subsets))
        assert union.size < sum(s.size for s in subsets)  # they overlap
        assert np.array_equal(holdout, np.setdiff1d(np.arange(3000), union))

    @pytest.mark.parametrize("label", [0, 1])
    def test_labels_of_one_class_raise(self, label):
        # a plan the rows could fill: without the check the draw would succeed
        plan = SubsetPlan(n_subsets=2, subset_size=10, seed=0)
        with pytest.raises(ProtocolError, match=rf"only the classes \[{label}\]"):
            draw_subsets(np.full(100, label, dtype=np.int8), plan)

    @pytest.mark.parametrize("n_negative, missing", [(392, "0"), (500, "1")])
    def test_plan_leaving_holdout_without_a_class_raises(self, n_negative, missing):
        # 8 positives, 4 x 100 disjoint subsets: with 392 negatives the
        # holdout is empty; with 500 it keeps negatives but no positive
        labels = np.r_[np.zeros(n_negative, dtype=np.int8), np.ones(8, dtype=np.int8)]
        plan = SubsetPlan(n_subsets=4, subset_size=100, seed=0)
        with pytest.raises(ProtocolError, match=f"class {missing}, .*holdout"):
            draw_subsets(labels, plan)


class TestProtocol:
    def test_recovers_planted_features(self, small_generator, small_matrix):
        subset_plan, cv_plan = small_plans()
        final = run_protocol(small_matrix, subset_plan, small_space(), cv_plan,
                             stability_threshold=0.75)
        planted = set(small_generator.planted)
        assert planted <= set(final.stable_features)
        assert len(set(final.stable_features) - planted) <= 2
        assert 0.0 <= final.train_auc <= 1.0
        assert 0.0 <= final.holdout_auc <= 1.0
        assert final.report["final"]["train_holdout_gap"] == pytest.approx(
            abs(final.train_auc - final.holdout_auc)
        )

    def test_holdout_isolated_from_training(self, small_matrix):
        subset_plan, cv_plan = small_plans()
        final = run_protocol(small_matrix, subset_plan, small_space(), cv_plan)
        assert not set(final.train_indices.tolist()) & set(final.holdout_indices.tolist())

    def test_overlapping_subsets_train_on_their_union_and_never_read_holdout(
            self, small_matrix, monkeypatch):
        subset_plan = SubsetPlan(n_subsets=3, subset_size=500, seed=13, disjoint=False)
        cv_plan = small_plans()[1]
        subsets, holdout = draw_subsets(small_matrix.y, subset_plan)
        union = np.unique(np.concatenate(subsets))
        assert union.size < sum(s.size for s in subsets)

        trackers, final_rows = [], []

        class RecordingTracker(orch._AccessTracker):
            def __init__(self, n_rows):
                super().__init__(n_rows)
                trackers.append(self)

        class RecordingRidge(tune.RidgeLearner):
            def fit(self, X, y, names, class_weights, seed):
                final_rows.append(X.shape[0])
                return super().fit(X, y, names, class_weights, seed)

        monkeypatch.setattr(orch, "_AccessTracker", RecordingTracker)
        final = run_protocol(small_matrix, subset_plan, small_space(), cv_plan,
                             final_learner=RecordingRidge(lam=1.0))
        assert np.array_equal(final.train_indices, union)
        assert np.array_equal(final.holdout_indices, holdout)
        assert final_rows == [union.size] and final.report["final"]["n_train"] == union.size
        # the training phases read every union row and no other
        (tracker,) = trackers
        assert np.array_equal(np.flatnonzero(tracker.mask), union)

    def test_holdout_peek_raises(self, small_matrix):
        subset_plan, cv_plan = small_plans()

        class PeekingLearner:
            complexity = 0

            def label(self):
                return "Peeker"

            def fit(self, X, y, names, class_weights, seed):
                small_matrix.take_rows(np.arange(small_matrix.n_rows))  # reads holdout
                return naive_baseline(y)

        with pytest.raises(HoldoutViolation):
            run_protocol(
                small_matrix, subset_plan, small_space(), cv_plan,
                final_learner=PeekingLearner(),
            )

    def test_empty_stable_set_is_protocol_error(self, small_matrix, monkeypatch):
        subset_plan, cv_plan = small_plans()
        counter = {"n": 0}

        def disjoint_signature(winner, subset_matrix):
            counter["n"] += 1
            return Signature(
                selected=[subset_matrix.group_names()[counter["n"] - 1]],
                method="SES",
                hyperparameters={},
            )

        monkeypatch.setattr(orch, "_refit_winner_signature", disjoint_signature)
        with pytest.raises(ProtocolError, match="threshold"):
            run_protocol(small_matrix, subset_plan, small_space(), cv_plan,
                         stability_threshold=1.0)

    def test_holdout_estimate_records_skipped_replicates(self, small_matrix, monkeypatch):
        subset_plan, cv_plan = small_plans()
        real_ci = orch.bootstrap_auc_ci
        seen = {}

        def ci_with_skips(*args, **kwargs):
            est = real_ci(*args, **kwargs)
            seen["ci"] = [est.ci_low, est.ci_high]
            return replace(est, n_boot=est.n_boot - 7, n_skipped=est.n_skipped + 7)

        monkeypatch.setattr(orch, "bootstrap_auc_ci", ci_with_skips)
        final = run_protocol(small_matrix, subset_plan, small_space(), cv_plan)
        assert final.holdout_estimate.n_skipped == 7
        assert final.holdout_estimate.n_boot + 7 == 1000  # replicates scored of those requested
        assert final.report["final"]["holdout_ci"] == seen["ci"]

    def test_report_deterministic(self, small_matrix):
        subset_plan, cv_plan = small_plans()
        a = run_protocol(small_matrix, subset_plan, small_space(), cv_plan)
        b = run_protocol(small_matrix, subset_plan, small_space(), cv_plan)
        assert json.dumps(a.report, sort_keys=True) == json.dumps(b.report, sort_keys=True)

    def test_crash_at_subset_two_then_resume_matches(self, small_matrix, tmp_path, monkeypatch):
        subset_plan, cv_plan = small_plans()
        space = small_space()

        clean_dir = tmp_path / "clean"
        clean = run_protocol(small_matrix, subset_plan, space, cv_plan, out_dir=clean_dir)

        crash_dir = tmp_path / "crashy"
        real_run = orch.run_rnk_cv
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt("simulated kill at subset 3")
            return real_run(*args, **kwargs)

        monkeypatch.setattr(orch, "run_rnk_cv", flaky)
        with pytest.raises(KeyboardInterrupt):
            run_protocol(small_matrix, subset_plan, space, cv_plan, out_dir=crash_dir)
        monkeypatch.setattr(orch, "run_rnk_cv", real_run)

        assert sorted(p.name for p in (clean_dir / "subsets").iterdir()) == [
            f"subset_{s:02d}.cv.npz" for s in range(4)]
        assert sorted(p.name for p in (crash_dir / "subsets").iterdir()) == [
            "subset_00.cv.npz", "subset_01.cv.npz"]

        resumed = run_protocol(
            small_matrix, subset_plan, space, cv_plan, out_dir=crash_dir, resume=True
        )
        assert json.dumps(resumed.report, sort_keys=True) == json.dumps(
            clean.report, sort_keys=True
        )

    def test_kill_points_are_every_fold_of_the_clean_run(self, clean_report):
        assert KILL_POINTS == [(s, f) for s, sub in enumerate(clean_report["subsets"])
                               for f in range(sub["folds_completed"])]

    @pytest.mark.parametrize("subset, fold", KILL_POINTS)
    def test_kill_after_any_fold_then_resume_matches(self, small_matrix, clean_report,
                                                      tmp_path, monkeypatch, subset, fold):
        subset_plan, cv_plan = small_plans()
        space = small_space()
        real_save = tune.CVResult.save

        def save_then_kill(state, path, stamp):
            real_save(state, path, stamp)
            if path.name == f"subset_{subset:02d}.cv.npz" and state.folds_completed == fold + 1:
                raise KeyboardInterrupt("simulated kill")

        monkeypatch.setattr(tune.CVResult, "save", save_then_kill)
        with pytest.raises(KeyboardInterrupt):
            run_protocol(small_matrix, subset_plan, space, cv_plan, out_dir=tmp_path)
        monkeypatch.setattr(tune.CVResult, "save", real_save)

        resumed = run_protocol(small_matrix, subset_plan, space, cv_plan, out_dir=tmp_path,
                               resume=True)
        assert json.dumps(resumed.report, sort_keys=True) == json.dumps(
            clean_report, sort_keys=True)

    def test_fitted_model_accounting_in_report(self, small_matrix):
        subset_plan, cv_plan = small_plans()
        final = run_protocol(small_matrix, subset_plan, small_space(), cv_plan)
        per_subset = final.report["counts"]["fitted_models_per_subset"]
        assert len(per_subset) == 4
        assert final.report["counts"]["fitted_models_total"] == sum(per_subset)
        for sub in final.report["subsets"]:
            assert sub["folds_completed"] >= 2
