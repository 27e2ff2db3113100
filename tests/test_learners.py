import json
import math

import numpy as np
import pytest
from scipy.special import expit

from crashsev import learners
from crashsev.ingest import InputFileError
from crashsev.learners import (
    ForestModel,
    LinearModel,
    NaiveModel,
    _best_split,
    _chi2_split_pvalue,
    class_weight_vector,
    fit_decision_tree,
    fit_random_forest,
    fit_ridge_logistic,
    load_model,
    naive_baseline,
    predict_scores,
    save_model,
)
from crashsev.stats import auc_roc, chi2_sf


@pytest.fixture(scope="module")
def planted():
    rng = np.random.default_rng(314)
    n, p = 800, 6
    X = rng.standard_normal((n, p))
    coef = np.array([1.2, -0.9, 0.7, 0.0, 0.0, 0.0])
    y = (rng.random(n) < 1 / (1 + np.exp(-(X @ coef - 0.4)))).astype(int)
    return X, y


class TestRidge:
    def test_shrinkage_monotone(self, planted):
        X, y = planted
        small = fit_ridge_logistic(X, y, lam=0.0001)
        big = fit_ridge_logistic(X, y, lam=100.0)
        assert np.linalg.norm(big.weights) < np.linalg.norm(small.weights)

    def test_null_training_auc_near_half(self, planted):
        X, y = planted
        rng = np.random.default_rng(0)
        aucs = []
        for _ in range(5):
            yp = rng.permutation(y)
            model = fit_ridge_logistic(X, yp, lam=1.0)
            aucs.append(auc_roc(predict_scores(model, X), yp))
        assert all(0.45 <= a <= 0.6 for a in aucs)

    def test_class_weighting_equals_duplication(self, planted):
        X, y = planted
        weighted = fit_ridge_logistic(X, y, lam=1.0, class_weights=(1.0, 2.0))
        X_dup = np.vstack([X, X[y == 1]])
        y_dup = np.concatenate([y, np.ones(int(y.sum()), dtype=int)])
        duplicated = fit_ridge_logistic(X_dup, y_dup, lam=1.0, class_weights=(1.0, 1.0))
        # standardization stats differ between the two datasets, so compare
        # on the raw-input scale
        w_a = weighted.weights / weighted.scales
        w_b = duplicated.weights / duplicated.scales
        assert np.allclose(w_a, w_b, atol=1e-6)
        b_a = weighted.intercept - np.dot(weighted.weights, weighted.means / weighted.scales)
        b_b = duplicated.intercept - np.dot(duplicated.weights, duplicated.means / duplicated.scales)
        assert b_a == pytest.approx(b_b, abs=1e-6)

    def test_objective_decreases_monotonically(self, planted):
        X, y = planted
        w = class_weight_vector(y, None)
        w = w / w.sum()

        def objective(model):
            eta = model.decision_function(X)
            nll = float(np.dot(w, np.logaddexp(0.0, eta) - y * eta))
            return nll + 0.5 * model.lam * float(model.weights @ model.weights)

        fits = [fit_ridge_logistic(X, y, lam=1.0, max_iter=k) for k in range(8)]
        assert np.all(np.diff([objective(m) for m in fits]) <= 1e-12)
        assert fits[-1].converged

    def test_weights_continuous_in_lambda(self, planted):
        X, y = planted
        grid = [0.5, 0.6, 0.7]
        models = [fit_ridge_logistic(X, y, lam=l) for l in grid]
        d01 = np.linalg.norm(models[0].weights - models[1].weights)
        d02 = np.linalg.norm(models[0].weights - models[2].weights)
        assert d01 < d02
        assert d01 < 0.1

    def test_separation_handled_by_penalty(self):
        X = np.linspace(-1, 1, 40)[:, None]
        y = (X[:, 0] > 0).astype(int)
        model = fit_ridge_logistic(X, y, lam=1.0)
        assert model.converged
        assert np.isfinite(model.weights).all()

    def test_zero_columns_intercept_only(self, planted):
        _, y = planted
        model = fit_ridge_logistic(np.empty((y.size, 0)), y, lam=1.0)
        scores = predict_scores(model, np.empty((10, 0)))
        assert np.allclose(scores, scores[0])


def _reference_ridge(X, y, lam, class_weights=None):
    """The ridge fit as its own IRLS loop with step halving, stopped at a
    relative objective change below 1e-12 or within 200 iterations: the
    reference that ``fit_ridge_logistic`` must match to 1e-12. Returns
    (intercept + weights, converged)."""
    n, p = X.shape
    w = class_weight_vector(y, class_weights)
    w = w / w.sum()
    means = w @ X
    scales = np.sqrt(w @ (X - means) ** 2)
    scales = np.where(scales > 0, scales, 1.0)
    A = np.column_stack([np.ones(n), (X - means) / scales])
    pen = np.r_[0.0, np.full(p, lam)]
    yf = y.astype(np.float64)

    def objective(beta):
        eta = A @ beta
        return float(np.dot(w, np.logaddexp(0.0, eta) - yf * eta)) + 0.5 * float(pen @ (beta * beta))

    beta = np.zeros(p + 1)
    obj = objective(beta)
    for _ in range(200):
        mu = expit(A @ beta)
        grad = A.T @ (w * (yf - mu)) - pen * beta
        if np.abs(grad).max() < 1e-8:
            return beta, True
        hess = (A * (w * mu * (1.0 - mu))[:, None]).T @ A + np.diag(pen) + 1e-12 * np.eye(p + 1)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            return beta, False
        t = 1.0
        new_obj = objective(beta + step)
        for _half in range(30):
            if np.isfinite(new_obj) and new_obj <= obj + 1e-12:
                break
            t *= 0.5
            new_obj = objective(beta + t * step)
        else:
            return beta, False
        beta = beta + t * step
        if abs(obj - new_obj) < 1e-12 * (1.0 + abs(new_obj)):
            return beta, True
        obj = new_obj
    return beta, False


def _assert_same_ridge(X, y, lam, class_weights=None):
    model = fit_ridge_logistic(X, y, lam, class_weights)
    want, converged = _reference_ridge(X, y, lam, class_weights)
    assert model.converged == converged
    assert abs(model.intercept - want[0]) <= 1e-12
    assert np.abs(model.weights - want[1:]).max(initial=0.0) <= 1e-12


class TestRidgeEqualsReference:
    @pytest.mark.parametrize("n", [60, 300, 1125, 4000])
    def test_grid(self, n):
        rng = np.random.default_rng(n)
        for p in (0, 1, 6, 30):
            for onehot in (False, True):
                X = rng.standard_normal((n, p))
                if onehot:
                    # a one-hot block is collinear with the intercept
                    X = np.hstack([X, np.eye(5)[rng.integers(0, 5, n)]])
                coef = 0.8 * rng.standard_normal(X.shape[1])
                y = (rng.random(n) < 1 / (1 + np.exp(-(X @ coef - 1.0)))).astype(int)
                y[:2] = (0, 1)
                for lam in (1e-4, 1e-2, 1.0, 100.0):
                    for class_weights in (None, (1.0, 1.0), (1.0, 3.0)):
                        _assert_same_ridge(X, y, lam, class_weights)

    @pytest.mark.parametrize("lam", [1e-4, 1.0])
    def test_separable(self, lam):
        X = np.linspace(-1, 1, 40)[:, None]
        _assert_same_ridge(X, (X[:, 0] > 0).astype(int), lam)


class TestTree:
    def test_xor_learnable_with_unbalanced_cells(self):
        # cells weighted so that marginal splits carry signal and pass the
        # chi-square gate; XOR itself is then resolved at depth 2
        rows = []
        for (a, b), count in [((0, 0), 160), ((0, 1), 40), ((1, 0), 60), ((1, 1), 140)]:
            rows += [(a, b)] * count
        X = np.array(rows, dtype=float)
        y = np.array([int(a) ^ int(b) for a, b in rows])
        model = fit_decision_tree(X, y, min_leaf=1, alpha_prune=0.1, class_weights=(1.0, 1.0))
        pred = (model.predict(X) > 0.5).astype(int)
        assert np.array_equal(pred, y)

    def test_min_leaf_respected_everywhere(self, planted):
        X, y = planted
        model = fit_decision_tree(X, y, min_leaf=5, alpha_prune=0.1)
        assert all(leaf.n_samples >= 5 for leaf in model.leaves())

    def test_pure_labels_single_leaf(self):
        X = np.arange(20, dtype=float)[:, None]
        y = np.ones(20, dtype=int)
        model = fit_decision_tree(X, y, min_leaf=1, alpha_prune=0.1)
        assert model.leaves() == [(1.0, 20)]
        assert model.column.tolist() == [-1]

    def test_insignificant_split_rejected(self, rng):
        X = rng.standard_normal((200, 3))
        y = rng.integers(0, 2, 200)
        strict = fit_decision_tree(X, y, min_leaf=1, alpha_prune=0.0001)
        assert len(strict.leaves()) <= 3


class TestSplitPvalue:
    def test_equals_chi2_sf_bit_for_bit(self, rng):
        # every table of counts below 5, and random tables of larger counts
        tables = [(a, b, c, d) for a in range(5) for b in range(5)
                  for c in range(5) for d in range(5)]
        tables += [tuple(rng.integers(0, 5000, 4).tolist()) for _ in range(100)]
        for counts in tables:
            y_left, y_right = np.repeat([1, 0], counts[:2]), np.repeat([1, 0], counts[2:])
            # the statistic in the float arithmetic of the function
            a, b, c, d = map(float, counts)
            margins = (a + b) * (c + d) * (a + c) * (b + d)
            stat = (a + b + c + d) * (a * d - b * c) ** 2 / margins if margins else 0.0
            want = float(chi2_sf(1, stat))
            assert _chi2_split_pvalue(y_left, y_right).hex() == want.hex(), counts

    @pytest.mark.parametrize("stat", [0.0, 5e-324, 2.2e-308, 1e-12, 0.5, 3.841458820694124,
                                      10.0, 700.0, 1500.0, 1e15, 1e308])
    def test_erfc_form_is_chi2_sf_with_one_dof(self, stat):
        assert math.erfc(math.sqrt(stat / 2.0)).hex() == float(chi2_sf(1, stat)).hex()


# a cyclical-encoding value and the next float up: their midpoint rounds to
# the upper value
LOW = -0.9009688679024191
HIGH = float(np.nextafter(LOW, np.inf))


@pytest.fixture()
def adjacent_floats():
    """Column 0 holds LOW or HIGH and sets the class in 90% of 200 rows;
    columns 1-3 are 0/1 noise."""
    rng = np.random.default_rng(5)
    high = rng.random(200) < 0.5
    y = np.where(rng.random(200) < 0.9, high, ~high).astype(int)
    X = np.column_stack([np.where(high, HIGH, LOW), rng.integers(0, 2, (200, 3))])
    return X, y


class TestSplitThreshold:
    def test_adjacent_values_keep_a_threshold_between_them(self, adjacent_floats):
        X, y = adjacent_floats
        assert (LOW + HIGH) / 2 == HIGH
        found = _best_split(X, y, np.ones(y.size), np.arange(y.size), 1, np.array([0]))
        assert found is not None and found[0] == 0
        assert LOW <= found[1] < HIGH

    def test_tree_keeps_a_split_between_adjacent_values(self, adjacent_floats):
        X, y = adjacent_floats
        model = fit_decision_tree(X, y, min_leaf=5, alpha_prune=0.05)
        assert len(model.leaves()) > 1
        assert all(leaf.n_samples > 0 for leaf in model.leaves())
        high = X[:, 0] == HIGH
        assert model.predict(X[high]).min() > model.predict(X[~high]).max()

    def test_forest_grows_no_empty_leaves(self, adjacent_floats):
        X, y = adjacent_floats
        forest = fit_random_forest(X, y, n_trees=10, min_leaf=1, seed=3)
        assert all(leaf.n_samples > 0 for tree in forest.trees for leaf in tree.leaves())
        above = X.copy()
        above[:, 0] = np.nextafter(HIGH, np.inf)
        assert np.isfinite(forest.predict(np.vstack([X, above]))).all()


def _reference_best_split(X, y, w, idx, min_leaf, feature_pool):
    """The split search as a sorted scan of one column at a time: the
    reference that the block-vectorised ``_best_split`` must equal bit for
    bit."""
    yy = y[idx].astype(np.float64)
    ww = w[idx]
    total_w = ww.sum()
    total_pos = float(np.dot(ww, yy))
    p_parent = total_pos / total_w
    g_parent = 2.0 * p_parent * (1.0 - p_parent)

    best = None
    for j in feature_pool:
        vals = X[idx, j]
        order = np.argsort(vals, kind="mergesort")
        v = vals[order]
        cum_pos = np.cumsum((ww * yy)[order])
        cum_w = np.cumsum(ww[order])
        m = idx.size
        cut = np.flatnonzero(v[:-1] != v[1:]) + 1
        cut = cut[(cut >= min_leaf) & (m - cut >= min_leaf)]
        if cut.size == 0:
            continue
        left_w = cum_w[cut - 1]
        left_pos = cum_pos[cut - 1]
        right_w = total_w - left_w
        right_pos = total_pos - left_pos
        pl = left_pos / left_w
        pr = right_pos / right_w
        g_children = (left_w * 2 * pl * (1 - pl) + right_w * 2 * pr * (1 - pr)) / total_w
        dec = g_parent - g_children
        k = int(np.argmax(dec))
        if dec[k] <= 1e-12:
            continue
        threshold = (v[cut[k] - 1] + v[cut[k]]) / 2.0
        if not threshold < v[cut[k]]:
            threshold = v[cut[k] - 1]
        cand = (int(j), float(threshold), float(dec[k]))
        if best is None or cand[2] > best[2] + 1e-15 or (
            abs(cand[2] - best[2]) <= 1e-15 and (cand[0], cand[1]) < (best[0], best[1])
        ):
            best = cand
    return best


def _mixed_columns(rng, n):
    """Continuous, heavily tied, one-hot, constant and adjacent-float
    columns, with a class that leans on a few of them."""
    cats = rng.integers(0, 4, n)
    X = np.column_stack([
        rng.standard_normal(n),
        rng.integers(0, 3, n).astype(float),
        np.round(rng.standard_normal(n), 1),
        np.eye(4)[cats],
        np.full(n, 2.5),
        np.where(rng.random(n) < 0.5, HIGH, LOW),
        rng.integers(16, 90, n).astype(float),
    ])
    logit = -1.5 + 1.2 * (cats == 2) + 0.8 * X[:, 0] + 0.5 * X[:, 1]
    y = (rng.random(n) < 1 / (1 + np.exp(-logit))).astype(int)
    return X, y


def _assert_same_split(X, y, w, idx, min_leaf, pool):
    got = _best_split(X, y, w, idx, min_leaf, pool)
    want = _reference_best_split(X, y, w, idx, min_leaf, pool)
    assert got == want
    if got is not None:
        # bit for bit, not merely equal as floats
        assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
        assert np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes()


class TestBestSplitExactness:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_column_scan_on_mixed_columns(self, seed):
        rng = np.random.default_rng(seed)
        X, y = _mixed_columns(rng, 300)
        w = class_weight_vector(y, None)  # balanced: not whole numbers
        assert not np.array_equal(w, np.round(w))
        for m in (2, 3, 17, 120, 300):
            idx = np.sort(rng.choice(300, size=m, replace=False))
            if y[idx].min() == y[idx].max():
                continue
            pools = [np.arange(X.shape[1]), np.sort(rng.choice(X.shape[1], 4, replace=False))]
            for min_leaf in sorted({1, 2, 5, m // 2 - 1, m // 2, m // 2 + 1}):
                for pool in pools:
                    _assert_same_split(X, y, w, idx, min_leaf, pool)

    def test_equals_column_scan_on_adjacent_floats(self, adjacent_floats):
        X, y = adjacent_floats
        w = class_weight_vector(y, None)
        for min_leaf in (1, 50, 99, 100):
            _assert_same_split(X, y, w, np.arange(y.size), min_leaf, np.arange(4))

    def test_two_row_node(self):
        X = np.array([[0.0, 1.0, 3.0], [1.0, 1.0, 3.0]])
        y = np.array([0, 1])
        w = np.array([0.75, 1.5])
        for min_leaf in (1, 2):
            _assert_same_split(X, y, w, np.arange(2), min_leaf, np.arange(3))
        column, threshold, dec = _best_split(X, y, w, np.arange(2), 1, np.arange(3))
        assert (column, threshold) == (0, 0.5) and dec == pytest.approx(4 / 9)

    def test_constant_columns_give_no_split(self):
        X = np.full((40, 3), 7.0)
        y = np.arange(40) % 2
        assert _best_split(X, y, np.ones(40), np.arange(40), 1, np.arange(3)) is None

    def test_block_size_does_not_change_trees_or_forests(self, monkeypatch):
        rng = np.random.default_rng(11)
        X, y = _mixed_columns(rng, 400)
        tree = fit_decision_tree(X, y, min_leaf=3, alpha_prune=0.2)
        forest = fit_random_forest(X, y, n_trees=4, min_leaf=2, seed=7)
        monkeypatch.setattr(learners, "SPLIT_BLOCK_ELEMENTS", 1)  # one column per block
        small_tree = fit_decision_tree(X, y, min_leaf=3, alpha_prune=0.2)
        small_forest = fit_random_forest(X, y, n_trees=4, min_leaf=2, seed=7)
        assert len(tree.leaves()) > 2
        for name in ("column", "threshold", "left", "right", "prob", "n_samples"):
            assert np.array_equal(getattr(tree, name), getattr(small_tree, name)), name
        assert np.array_equal(forest.predict(X), small_forest.predict(X))


class TestForest:
    def test_single_tree_forest_equals_its_tree(self, planted):
        X, y = planted
        forest = fit_random_forest(X, y, n_trees=1, min_leaf=2, seed=5)
        assert np.array_equal(forest.predict(X), forest.trees[0].predict(X))

    def test_prediction_is_mean_of_trees(self, planted):
        X, y = planted
        forest = fit_random_forest(X, y, n_trees=7, min_leaf=3, seed=9)
        stacked = np.stack([t.predict(X[:50]) for t in forest.trees])
        assert np.allclose(forest.predict(X[:50]), stacked.mean(axis=0))

    def test_deterministic_given_seed(self, planted):
        X, y = planted
        a = fit_random_forest(X, y, n_trees=5, min_leaf=2, seed=123)
        b = fit_random_forest(X, y, n_trees=5, min_leaf=2, seed=123)
        assert np.array_equal(a.predict(X), b.predict(X))

    def test_zero_columns_single_leaf_trees(self, planted):
        _, y = planted
        forest = fit_random_forest(np.empty((y.size, 0)), y, n_trees=4, min_leaf=3, seed=1)
        assert all(len(tree.leaves()) == 1 for tree in forest.trees)
        scores = forest.predict(np.empty((5, 0)))
        assert np.all(scores == scores[0]) and 0.0 < scores[0] < 1.0

    def test_forest_beats_single_tree_on_nonlinear_data(self):
        rng = np.random.default_rng(21)
        n = 1500
        X = rng.standard_normal((n, 8))
        signal = np.sin(2 * X[:, 0]) + X[:, 1] * X[:, 2]
        y = (rng.random(n) < 1 / (1 + np.exp(-1.6 * signal))).astype(int)
        train, test = np.arange(0, 1000), np.arange(1000, n)
        wins = 0
        for seed in range(5):
            forest = fit_random_forest(X[train], y[train], n_trees=40, min_leaf=4, seed=seed)
            tree = fit_decision_tree(X[train], y[train], min_leaf=4, alpha_prune=0.1)
            f_auc = auc_roc(forest.predict(X[test]), y[test])
            t_auc = auc_roc(tree.predict(X[test]), y[test])
            wins += f_auc >= t_auc
        assert wins >= 4


class TestNaiveAndScoring:
    def test_constant_score_is_prevalence(self):
        y = np.array([0] * 99 + [1])
        model = naive_baseline(y)
        assert model.prevalence == pytest.approx(0.01)
        scores = predict_scores(model, np.zeros((7, 3)))
        assert np.all(scores == 0.01)

    def test_naive_auc_is_half(self, rng):
        y = rng.integers(0, 2, 60)
        model = naive_baseline(y)
        assert auc_roc(predict_scores(model, np.zeros((60, 2))), y) == 0.5

    def test_zero_linear_model_scores_zero(self):
        model = LinearModel(
            column_names=["a"], weights=np.zeros(1), intercept=0.0,
            means=np.zeros(1), scales=np.ones(1), lam=1.0, class_weights=None,
        )
        assert np.all(predict_scores(model, np.ones((4, 1))) == 0.0)

    def test_single_leaf_tree_constant(self):
        X = np.zeros((10, 2))
        y = np.array([0, 0, 0, 0, 0, 0, 0, 1, 1, 1])
        model = fit_decision_tree(X, y, min_leaf=1, alpha_prune=0.1, class_weights=(1.0, 1.0))
        assert np.allclose(model.predict(np.ones((3, 2))), 0.3)

    def test_column_mismatch_names_column(self, planted):
        X, y = planted
        model = fit_ridge_logistic(X, y, lam=1.0, column_names=[f"c{i}" for i in range(6)])
        with pytest.raises(ValueError, match="c0"):
            predict_scores(model, X, column_names=["wrong"] + [f"c{i}" for i in range(1, 6)])


def _tree_file(kind="tree", **nodes):
    """A version-2 model file holding one split on column "a" (nodes 0, 1,
    2), with ``nodes`` replacing node arrays."""
    arrays = {"column": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1],
              "right": [2, -1, -1], "prob": [0.5, 0.0, 1.0], "n_samples": [4, 2, 2], **nodes}
    raw = {"version": 2, "kind": kind, "column_names": ["a"], "min_leaf": 1,
           "alpha_prune": None, "class_weights": None}
    if kind == "tree":
        raw["nodes"] = arrays
    else:
        raw.update(trees=[arrays], n_trees=1, seed=0, mtry=1)
    return json.dumps(raw)


def _linear_file(**arrays):
    """A version-2 linear model file over columns "a" and "b", with
    ``arrays`` replacing its weights, means or scales."""
    raw = {"version": 2, "kind": "linear", "column_names": ["a", "b"], "weights": [0.5, -1.0],
           "intercept": 0.1, "means": [0.0, 1.0], "scales": [1.0, 2.0], "lambda": 1.0,
           "class_weights": None, "converged": True, **arrays}
    return json.dumps(raw)


class TestSerialization:
    def test_linear_roundtrip(self, planted, tmp_path):
        X, y = planted
        model = fit_ridge_logistic(X, y, lam=1.0)
        save_model(model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        assert np.array_equal(loaded.weights, model.weights)
        assert np.allclose(predict_scores(loaded, X), predict_scores(model, X))

    def test_tree_roundtrip(self, planted, tmp_path):
        X, y = planted
        model = fit_decision_tree(X, y, min_leaf=3, alpha_prune=0.1)
        save_model(model, tmp_path / "t.json")
        loaded = load_model(tmp_path / "t.json")
        assert np.array_equal(loaded.predict(X), model.predict(X))

    def test_forest_roundtrip(self, planted, tmp_path):
        X, y = planted
        model = fit_random_forest(X, y, n_trees=3, min_leaf=3, seed=2)
        save_model(model, tmp_path / "f.json")
        loaded = load_model(tmp_path / "f.json")
        assert isinstance(loaded, ForestModel)
        assert np.array_equal(loaded.predict(X), model.predict(X))

    def test_naive_roundtrip(self, tmp_path):
        model = naive_baseline(np.array([0, 1, 1, 0]))
        save_model(model, tmp_path / "n.json")
        loaded = load_model(tmp_path / "n.json")
        assert isinstance(loaded, NaiveModel)
        assert loaded.prevalence == 0.5

    def test_tree_file_stores_node_arrays(self, planted, tmp_path):
        X, y = planted
        model = fit_decision_tree(X, y, min_leaf=3, alpha_prune=0.1)
        save_model(model, tmp_path / "t.json")
        raw = json.loads((tmp_path / "t.json").read_text())
        assert raw["version"] == 2
        assert raw["nodes"]["column"] == model.column.tolist()
        assert raw["nodes"]["threshold"] == model.threshold.tolist()

    @pytest.mark.parametrize("text", [
        "junk",
        "{}",
        "[]",
        json.dumps({"version": 1, "kind": "tree", "root": {"prob": 0.5, "n": 4}, "min_leaf": 1,
                    "alpha_prune": 0.1, "class_weights": None, "column_names": ["a"]}),
        json.dumps({"version": 2, "kind": "tree"}),
        json.dumps({"version": 2, "kind": "bagged"}),
        # node arrays predict cannot walk: a cycle, a child past the arrays,
        # a split on a column the model does not name, unequal or no arrays
        _tree_file(left=[0, -1, -1]),
        _tree_file(column=[0, 0, -1], left=[1, 0, -1], right=[2, 2, -1]),
        _tree_file(kind="forest", left=[0, -1, -1]),
        _tree_file(right=[3, -1, -1]),
        _tree_file(kind="forest", left=[-1, -1, -1]),
        _tree_file(column=[1, -1, -1]),
        _tree_file(prob=[0.5, 0.0]),
        _tree_file(column=[], threshold=[], left=[], right=[], prob=[], n_samples=[]),
        # linear arrays that do not hold one value per column name
        _linear_file(weights=[0.5]),
        _linear_file(means=[0.0, 1.0, 2.0]),
        _linear_file(scales=[[1.0, 2.0]]),
    ])
    def test_unreadable_model_file_raises_input_file_error(self, tmp_path, text):
        (tmp_path / "m.json").write_text(text)
        with pytest.raises(InputFileError):
            load_model(tmp_path / "m.json")

    def test_consistent_linear_arrays_load(self, tmp_path):
        (tmp_path / "m.json").write_text(_linear_file())
        model = load_model(tmp_path / "m.json")
        # 0.1 + 0.5 * (2 - 0) / 1 - 1.0 * (5 - 1) / 2
        assert predict_scores(model, np.array([[2.0, 5.0]])) == pytest.approx([-0.9])

    @pytest.mark.parametrize("kind", ["tree", "forest"])
    def test_consistent_node_arrays_load(self, tmp_path, kind):
        (tmp_path / "m.json").write_text(_tree_file(kind=kind))
        model = load_model(tmp_path / "m.json")
        assert model.predict(np.array([[0.0], [1.0]])).tolist() == [0.0, 1.0]
