import tracemalloc

import numpy as np
import pytest
from test_plot_fixture import CASES, DIGESTS, _run_case

from crashsev import explain
from crashsev.explain import (
    export_summary_plot,
    filter_display_levels,
    linear_shap,
    permutation_importance,
    variable_importance,
    write_importance_csv,
)
from crashsev.learners import LinearModel, fit_random_forest, fit_ridge_logistic
from crashsev.preprocess import ColumnInfo


def identity_model(weights, intercept=0.0, names=None):
    weights = np.asarray(weights, dtype=float)
    names = names or [f"c{i}" for i in range(weights.size)]
    return LinearModel(
        column_names=list(names),
        weights=weights,
        intercept=intercept,
        means=np.zeros(weights.size),
        scales=np.ones(weights.size),
        lam=0.0,
        class_weights=None,
    )


def columns_for(names, source=None):
    return [ColumnInfo(name=n, kind="numeric", source=source or n) for n in names]


class TestLinearShap:
    def test_worked_example(self):
        # column means over the explanation rows are exactly [1, 0]
        X = np.array([[-1.0, -2.0], [1.0, 0.0], [3.0, 2.0]])
        model = identity_model([2.0, -1.0], intercept=0.5)
        shap = linear_shap(model, X, columns_for(model.column_names))
        assert shap.baseline == pytest.approx(2.5)
        assert shap.values[2].tolist() == pytest.approx([4.0, -2.0])
        f_x = model.decision_function(X[2:3])[0]
        assert f_x == pytest.approx(4.5)
        assert shap.baseline + shap.values[2].sum() == pytest.approx(f_x)

    def test_zero_weights(self):
        X = np.random.default_rng(0).standard_normal((5, 3))
        model = identity_model([0.0, 0.0, 0.0], intercept=0.7)
        shap = linear_shap(model, X, columns_for(model.column_names))
        assert np.all(shap.values == 0.0)
        assert shap.baseline == pytest.approx(0.7)

    def test_local_accuracy_random_models(self, rng):
        for _ in range(20):
            n, p = int(rng.integers(2, 40)), int(rng.integers(1, 12))
            X = rng.standard_normal((n, p)) * rng.uniform(0.5, 20)
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            model = fit_ridge_logistic(X, y, lam=1.0)
            cols = columns_for(model.column_names)
            shap = linear_shap(model, X, cols)
            f = model.decision_function(X)
            recon = shap.row_reconstruction()
            assert np.max(np.abs(f - recon)) <= 1e-9

    def test_attribution_independent_of_other_columns(self, rng):
        X = rng.standard_normal((30, 4))
        model = identity_model([1.0, -2.0, 0.5, 3.0])
        cols = columns_for(model.column_names)
        base = linear_shap(model, X, cols)
        X2 = X.copy()
        X2[:, 2] = rng.standard_normal(30) * 5  # perturb one column only
        changed = linear_shap(model, X2, cols)
        for j in (0, 1, 3):
            assert np.array_equal(base.values[:, j], changed.values[:, j])

    def test_column_mismatch_names_offender(self, rng):
        X = rng.standard_normal((5, 2))
        model = identity_model([1.0, 2.0], names=["a", "b"])
        with pytest.raises(ValueError, match="'a'"):
            linear_shap(model, X, columns_for(["z", "b"]))


class TestVariableImportance:
    def test_mean_absolute(self):
        shap = linear_shap(
            identity_model([1.0]), np.zeros((3, 1)), columns_for(["c0"])
        )
        shap.values = np.array([[1.0], [-1.0], [2.0]])
        table = variable_importance(shap)
        assert table.column_vi[0] == pytest.approx(4.0 / 3.0)

    def test_all_zero(self):
        model = identity_model([0.0, 0.0], names=["a", "b"])
        shap = linear_shap(model, np.zeros((4, 2)), columns_for(["a", "b"]))
        table = variable_importance(shap)
        assert np.all(table.column_vi == 0.0)

    def test_recomputable_exactly(self, rng):
        X = rng.standard_normal((50, 6))
        model = identity_model(rng.standard_normal(6))
        shap = linear_shap(model, X, columns_for(model.column_names))
        table = variable_importance(shap)
        assert np.array_equal(table.column_vi, np.abs(shap.values).mean(axis=0))

    def test_group_importance_is_max_over_levels(self):
        cols = [
            ColumnInfo(name="F=a", kind="onehot", source="F", level="a"),
            ColumnInfo(name="F=b", kind="onehot", source="F", level="b"),
            ColumnInfo(name="G", kind="numeric", source="G"),
        ]
        model = identity_model([1.0, 1.0, 1.0], names=[c.name for c in cols])
        shap = linear_shap(model, np.zeros((2, 3)), cols)
        shap.values = np.array([[0.2, 0.9, 0.5], [-0.2, -0.9, -0.5]])
        table = variable_importance(shap)
        assert table.group_vi["F"] == pytest.approx(0.9)
        assert table.group_vi["G"] == pytest.approx(0.5)
        assert [name for name, _ in table.ranking] == ["F", "G"]

    def test_row_permutation_invariant(self, rng):
        X = rng.standard_normal((40, 3))
        model = identity_model([1.0, -1.0, 2.0])
        cols = columns_for(model.column_names)
        a = variable_importance(linear_shap(model, X, cols))
        perm = rng.permutation(40)
        b = variable_importance(linear_shap(model, X[perm], cols))
        assert np.allclose(a.column_vi, b.column_vi)

    def test_rank_invariant_under_rescaling(self, rng):
        X = rng.standard_normal((30, 4))
        model = identity_model(rng.standard_normal(4))
        cols = columns_for(model.column_names)
        shap = linear_shap(model, X, cols)
        table = variable_importance(shap)
        shap.values = shap.values * 17.0
        scaled = variable_importance(shap)
        assert [n for n, _ in table.ranking] == [n for n, _ in scaled.ranking]


class TestDisplayFilter:
    def test_forty_percent_rule(self):
        kept = filter_display_levels({"a": 1.0, "b": 0.5, "c": 0.3})
        assert set(kept) == {"a", "b"}

    def test_single_level_kept(self):
        assert filter_display_levels({"only": 0.2}) == ["only"]

    def test_all_equal_all_kept(self):
        kept = filter_display_levels({"a": 0.4, "b": 0.4, "c": 0.4})
        assert set(kept) == {"a", "b", "c"}


class TestExport:
    def _shap(self, rng, n=3, names=("A", "B")):
        model = identity_model(np.ones(len(names)), names=list(names))
        X = rng.standard_normal((n, len(names)))
        cols = columns_for(list(names))
        return linear_shap(model, X, cols), X

    def test_record_cardinality(self, rng, tmp_path):
        shap, X = self._shap(rng)
        out = tmp_path / "plot.csv"
        export_summary_plot(shap, variable_importance(shap), X, ["A", "B"], out)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 3  # header + features x rows

    def test_constant_feature_colors_half(self, rng, tmp_path):
        shap, X = self._shap(rng)
        X[:, 0] = 4.2
        shap.values[:, 0] = 0.0
        out = tmp_path / "plot.csv"
        export_summary_plot(shap, variable_importance(shap), X, ["A"], out)
        colors = [line.split(",")[-1] for line in out.read_text().strip().splitlines()[1:]]
        assert all(c == "0.5" for c in colors)

    def test_byte_identical_given_seed(self, rng, tmp_path):
        shap, X = self._shap(rng, n=8)
        table = variable_importance(shap)
        a_csv, a_svg = tmp_path / "a.csv", tmp_path / "a.svg"
        b_csv, b_svg = tmp_path / "b.csv", tmp_path / "b.svg"
        export_summary_plot(shap, table, X, ["A", "B"], a_csv, svg_path=a_svg, seed=5)
        export_summary_plot(shap, table, X, ["A", "B"], b_csv, svg_path=b_svg, seed=5)
        assert a_csv.read_bytes() == b_csv.read_bytes()
        assert a_svg.read_bytes() == b_svg.read_bytes()
        assert a_svg.read_text().startswith("<svg")

    def test_unknown_feature_lists_available(self, rng, tmp_path):
        shap, X = self._shap(rng)
        with pytest.raises(KeyError, match="available"):
            export_summary_plot(shap, variable_importance(shap), X, ["Nope"], tmp_path / "x.csv")

    def test_plot_memory_does_not_grow_with_rows(self, tmp_path):
        """The traced peak of writing both plot files, 4 displayed columns.

        When the SVG was joined whole in memory it was 6.3 MB at 5,000 rows
        and 63.1 MB at 50,000; written in row blocks it is 1.6 MB at
        both (tracemalloc, numpy 2.4, Python 3.11)."""
        names = ["A", "B", "C", "D"]
        peaks = []
        for n in (5_000, 50_000):
            model = identity_model(np.ones(4), names=names)
            X = np.random.default_rng(n).standard_normal((n, 4))
            shap = linear_shap(model, X, columns_for(names))
            table = variable_importance(shap)
            tracemalloc.start()
            try:
                export_summary_plot(shap, table, X, names, tmp_path / "p.csv",
                                    svg_path=tmp_path / "p.svg")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    @pytest.mark.parametrize("block_rows", [1, 7, 4096 + 1])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_block_size_does_not_change_the_plot_files(self, name, block_rows, tmp_path,
                                                       monkeypatch):
        monkeypatch.setattr(explain, "PLOT_BLOCK_ROWS", block_rows)
        assert _run_case(name, tmp_path) == DIGESTS[name]

    def test_colour_channels_round_as_round_does(self, rng):
        # quarters give the exact halves 82.5, 73.5, 161.5 and 185.5
        t = np.concatenate([np.linspace(0.0, 1.0, 4097), rng.random(20_000)])
        blue, red = (31, 119, 237), (237, 28, 86)
        expected = [[round(b + (r - b) * v) for b, r in zip(blue, red)] for v in t.tolist()]
        assert explain._rgb_channels(t).tolist() == expected

    def test_percent_in_a_name_is_written_as_is(self, rng, tmp_path):
        shap, X = self._shap(rng, names=("Rate%d", "B"))
        out = tmp_path / "plot.csv"
        export_summary_plot(shap, variable_importance(shap), X, ["Rate%d"], out)
        assert [line.split(",")[:3] for line in out.read_text().splitlines()[1:]] == [
            ["Rate%d", "", str(r)] for r in range(3)]

    def test_importance_table_of_other_columns_is_refused(self, rng, tmp_path):
        shap, X = self._shap(rng)
        other, _ = self._shap(rng, names=("B", "A"))
        with pytest.raises(ValueError, match="importance table"):
            export_summary_plot(shap, variable_importance(other), X, ["A"], tmp_path / "x.csv")

    def test_importance_csv(self, rng, tmp_path):
        shap, X = self._shap(rng)
        table = variable_importance(shap)
        out = tmp_path / "imp.csv"
        write_importance_csv(table, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "kind,name,importance"
        assert len(lines) == 1 + 2 + 2  # groups + columns


class TestPermutationFallback:
    def test_forest_gets_permutation_importance(self, rng):
        n = 400
        X = rng.standard_normal((n, 4))
        y = (rng.random(n) < 1 / (1 + np.exp(-2 * X[:, 0]))).astype(int)
        forest = fit_random_forest(X, y, n_trees=15, min_leaf=4, seed=3)
        cols = columns_for([f"x{i}" for i in range(4)])
        table = permutation_importance(forest, X, y, cols, seed=1)
        assert table.method == "permutation"
        assert table.ranking[0][0] == "x0"  # the informative column dominates

    def test_deterministic(self, rng):
        X = rng.standard_normal((100, 3))
        y = rng.integers(0, 2, 100)
        model = fit_ridge_logistic(X, y, lam=1.0)
        cols = columns_for(model.column_names)
        a = permutation_importance(model, X, y, cols, seed=9)
        b = permutation_importance(model, X, y, cols, seed=9)
        assert np.array_equal(a.column_vi, b.column_vi)
