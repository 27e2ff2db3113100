import numpy as np
import pytest

from crashsev import selection
from crashsev.preprocess import FeatureMatrix
from crashsev.selection import (
    CITestCache,
    Signature,
    lasso_design,
    lasso_select,
    ses_select,
    stability_select,
    univariate_select,
)


def planted_matrix(seed, n=3000, p=60, k=6, effect=0.7, intercept=-2.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    coef = np.zeros(p)
    coef[:k] = effect * np.where(np.arange(k) % 2 == 0, 1.0, -1.0)
    y = (rng.random(n) < 1 / (1 + np.exp(-(intercept + X @ coef)))).astype(int)
    return FeatureMatrix.from_arrays(X, y), [f"f{i:02d}" for i in range(k)]


def noise_matrix(seed, n=400, p=50):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    y = rng.integers(0, 2, n)
    return FeatureMatrix.from_arrays(X, y)


class TestSes:
    def test_label_copy_selected_first(self, rng):
        n, p = 300, 10
        X = rng.standard_normal((n, p))
        y = rng.integers(0, 2, n)
        X[:, 4] = y  # exact copy of the label
        m = FeatureMatrix.from_arrays(X, y)
        sig = ses_select(m, kmax=2, alpha=0.05)
        assert sig.selected[0] == "f4"

    def test_planted_recovery(self):
        m, planted = planted_matrix(seed=42)
        sig = ses_select(m, kmax=2, alpha=0.05)
        hits = sum(1 for g in sig.selected if g in set(planted))
        false = len(sig.selected) - hits
        assert hits >= 5
        assert false <= 3

    def test_all_noise_controlled(self):
        sizes = []
        for seed in range(20):
            sig = ses_select(noise_matrix(seed), kmax=2, alpha=0.01)
            sizes.append(len(sig.selected))
        assert max(sizes) <= 5

    def test_unconditionally_independent_never_selected(self):
        m, _ = planted_matrix(seed=7, n=1500, p=20, k=3)
        cache = CITestCache(m)
        alpha = 0.05
        groups = m.group_names()
        uncond = cache.pvalues([(g, frozenset()) for g in groups])
        weak = {g for g, res in zip(groups, uncond) if res.value > alpha}
        sig = ses_select(m, kmax=2, alpha=alpha, cache=cache)
        assert not weak & set(sig.selected)

    def test_column_order_invariance(self):
        m, _ = planted_matrix(seed=3, n=1200, p=16, k=3)
        sig_a = ses_select(m, kmax=2, alpha=0.05)
        perm = np.random.default_rng(0).permutation(m.n_cols)
        shuffled = FeatureMatrix(
            m.X[:, perm], m.y, [m.columns[i] for i in perm]
        )
        sig_b = ses_select(shuffled, kmax=2, alpha=0.05)
        assert set(sig_a.selected) == set(sig_b.selected)

    def test_shared_cache_across_alphas(self):
        m, _ = planted_matrix(seed=11, n=900, p=15, k=3)
        cache = CITestCache(m)
        ses_select(m, kmax=2, alpha=0.05, cache=cache)
        tests_after_first = len(cache._cache)
        ses_select(m, kmax=2, alpha=0.01, cache=cache)
        # the stricter run reuses the looser run's tests almost entirely
        assert len(cache._cache) <= tests_after_first * 1.2

    def test_split_batches_give_same_pvalues(self, monkeypatch):
        m, _ = planted_matrix(seed=5, n=600, p=8, k=3)
        g = m.group_names()
        requests = [(c, frozenset(z)) for c in g for z in ((), g[:1], g[1:3])]
        whole = CITestCache(m).pvalues(requests)
        monkeypatch.setattr(selection, "LRT_BATCH_ELEMENTS", 1)  # one test per solve
        split = CITestCache(m).pvalues(requests)
        assert [r.value for r in split] == [r.value for r in whole]

    def test_empty_when_nothing_passes(self):
        sig = ses_select(noise_matrix(999, n=200, p=8), kmax=2, alpha=0.0001)
        assert sig.selected == []
        assert sig.method == "SES"


class TestLasso:
    def test_penalty_two_always_empty(self):
        for seed in range(5):
            m, _ = planted_matrix(seed=seed, n=500, p=20, k=4)
            assert lasso_select(m, 2.0).selected == []

    def test_unpenalized_keeps_planted_nonzero(self):
        m, planted = planted_matrix(seed=5, n=2000, p=12, k=4)
        sig = lasso_select(m, 0.0)
        assert set(planted) <= set(sig.selected)

    def test_path_nested_on_fixture(self):
        # nestedness along the penalty path is not guaranteed in general;
        # verified empirically on this fixed dataset and frozen
        m, _ = planted_matrix(seed=8, n=1500, p=30, k=5)
        active_15 = set(lasso_select(m, 1.5).selected)
        active_05 = set(lasso_select(m, 0.5).selected)
        assert active_15 <= active_05

    def test_intermediate_penalty_shrinks_set(self):
        m, _ = planted_matrix(seed=13, n=1200, p=30, k=5)
        sizes = [len(lasso_select(m, pen).selected) for pen in (0.25, 1.0, 1.75)]
        assert sizes[0] >= sizes[1] >= sizes[2]

    def test_shared_design_gives_the_same_signatures(self):
        m, _ = planted_matrix(seed=13, n=800, p=20, k=5)
        design = lasso_design(m)
        for pen in (0.25, 1.0, 1.75):
            assert lasso_select(m, pen, design) == lasso_select(m, pen)


class TestUnivariate:
    def test_label_copy_selected(self, rng):
        n, p = 250, 12
        X = rng.standard_normal((n, p))
        y = rng.integers(0, 2, n)
        X[:, 2] = y
        m = FeatureMatrix.from_arrays(X, y)
        sig = univariate_select(m, 0.01)
        assert "f02" in sig.selected

    def test_noise_false_discovery_controlled(self):
        total = 0
        trials = 100
        for seed in range(trials):
            sig = univariate_select(noise_matrix(seed, n=300, p=30), 0.01)
            total += len(sig.selected)
        assert total / trials <= 0.05 * 30

    def test_empty_matrix(self):
        m = FeatureMatrix.from_arrays(np.empty((10, 0)), np.array([0, 1] * 5))
        assert univariate_select(m, 0.01).selected == []


class TestStability:
    def _sigs(self, *sets):
        return [
            Signature(selected=list(s), method="SES", hyperparameters={}) for s in sets
        ]

    def test_three_of_four_threshold(self):
        sigs = self._sigs(
            ["A", "B", "C"], ["A", "B"], ["A", "B", "C"], ["A", "C"]
        )
        # counts: A=4, B=3, C=3
        stable, table = stability_select(sigs, 0.75)
        assert stable == ["A", "B", "C"]
        sigs2 = self._sigs(["A", "B"], ["A", "B"], ["A", "B", "C"], ["A", "C"])
        stable2, table2 = stability_select(sigs2, 0.75)
        assert stable2 == ["A", "B"]
        assert table2.counts == {"A": 4, "B": 3, "C": 2}

    def test_unanimity_is_intersection(self):
        sigs = self._sigs(["A", "B"], ["B", "C"], ["B"], ["B", "A"])
        stable, _ = stability_select(sigs, 1.0)
        assert stable == ["B"]

    def test_monotone_in_threshold(self):
        sigs = self._sigs(["A", "B", "C"], ["A", "B"], ["A"], ["A", "C"])
        previous = None
        for threshold in (0.25, 0.5, 0.75, 1.0):
            stable, _ = stability_select(sigs, threshold)
            if previous is not None:
                assert set(stable) <= previous
            previous = set(stable)

    def test_requires_two_runs(self):
        with pytest.raises(ValueError):
            stability_select(self._sigs(["A"]), 0.75)

    def test_matrix_lines_render(self):
        sigs = self._sigs(["A", "B"], ["A"])
        _, table = stability_select(sigs, 0.5)
        lines = table.matrix_lines()
        assert len(lines) == 3  # header + A + B
        assert lines[1].startswith("A")

    def test_matrix_lines_mark_follows_threshold(self):
        sigs = self._sigs(["A", "B"], ["A"], ["A", "C"], ["B"])  # A=3, B=2, C=1 of 4
        for threshold, marked in ((0.5, {"A", "B"}), (0.75, {"A"}), (1.0, set())):
            _, table = stability_select(sigs, threshold)
            rows = table.matrix_lines()[1:]
            assert {r.split()[0] for r in rows if r.endswith(" *")} == marked


class TestSignature:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Signature(selected=["A", "A"], method="SES", hyperparameters={})
