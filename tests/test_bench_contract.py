"""The traced benchmark pass (perfbench/tracer.py) wraps program functions by
the names callers look them up under; a rename or deletion in crashsev must
not silently drop a span from the traced run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import crashsev.tune
from crashsev.learners import fit_decision_tree, fit_random_forest

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
