"""Recorded output of the tree learners.

``data/tree_fixture.json`` holds the node structure that
``fit_decision_tree`` grew on each case below and the scores of
``fit_random_forest`` for fixed seeds, recorded from the linked-node
learner. A change to the tree layout or the split search must reproduce
them exactly: the same nodes, thresholds and leaf values, and forest scores
equal bit for bit. Record again (``python tests/test_tree_fixture.py``)
only for a change that means to alter the trees, and say so: the
split-threshold fix for adjacent floats changed the one-hot-heavy forest,
whose cosine column holds such a pair, and it was recorded again then.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from crashsev.learners import fit_decision_tree, fit_random_forest

FIXTURE = Path(__file__).parent / "data" / "tree_fixture.json"


def _planted():
    rng = np.random.default_rng(314)
    X = rng.standard_normal((800, 6))
    coef = np.array([1.2, -0.9, 0.7, 0.0, 0.0, 0.0])
    y = (rng.random(800) < expit(X @ coef - 0.4)).astype(int)
    return X, y


def _xor():
    rows = []
    for (a, b), count in [((0, 0), 160), ((0, 1), 40), ((1, 0), 60), ((1, 1), 140)]:
        rows += [(a, b)] * count
    X = np.array(rows, dtype=float)
    return X, (X[:, 0] != X[:, 1]).astype(int)


def _noise():
    rng = np.random.default_rng(20240817)
    return rng.standard_normal((200, 3)), rng.integers(0, 2, 200)


def _nonlinear():
    rng = np.random.default_rng(21)
    X = rng.standard_normal((1500, 8))
    signal = np.sin(2 * X[:, 0]) + X[:, 1] * X[:, 2]
    y = (rng.random(1500) < expit(1.6 * signal)).astype(int)
    return X[:1000], y[:1000]


def _one_hot_heavy():
    # five one-hot blocks, an integer age and a cyclical hour pair, as the
    # encoder lays out crash records; about 9% positives
    rng = np.random.default_rng(2718)
    n = 2000
    levels = (3, 5, 8, 4, 6)
    cats = [rng.integers(0, k, n) for k in levels]
    age = rng.integers(16, 90, n).astype(float)
    hour = 2 * np.pi * rng.integers(0, 24, n) / 24
    X = np.column_stack([np.eye(k)[c] for k, c in zip(levels, cats)]
                        + [age, np.sin(hour), np.cos(hour)])
    logit = (-3.2 + 1.5 * (cats[0] == 2) + 1.0 * (cats[2] >= 6) - 0.8 * (cats[3] == 0)
             + 0.02 * (age - 50) + 0.6 * np.sin(hour))
    return X, (rng.random(n) < expit(logit)).astype(int)


def _rare():
    # two positives in 400 rows: about one bootstrap in seven has none
    rng = np.random.default_rng(77)
    X = rng.standard_normal((400, 6))
    y = np.zeros(400, dtype=int)
    y[[17, 233]] = 1
    return X, y


def _zero_columns():
    _, y = _planted()
    return np.empty((y.size, 0)), y


TREE_CASES = {
    "planted_min_leaf_5": (_planted, dict(min_leaf=5, alpha_prune=0.1)),
    "planted_min_leaf_3": (_planted, dict(min_leaf=3, alpha_prune=0.1)),
    "planted_unweighted": (_planted, dict(min_leaf=1, alpha_prune=0.5, class_weights=(1.0, 1.0))),
    "xor": (_xor, dict(min_leaf=1, alpha_prune=0.1, class_weights=(1.0, 1.0))),
    "noise_strict": (_noise, dict(min_leaf=1, alpha_prune=0.0001)),
    "noise_loose": (_noise, dict(min_leaf=2, alpha_prune=0.5)),
    "nonlinear": (_nonlinear, dict(min_leaf=4, alpha_prune=0.1)),
    "one_hot_heavy": (_one_hot_heavy, dict(min_leaf=5, alpha_prune=0.05)),
    "one_hot_heavy_weighted": (_one_hot_heavy, dict(min_leaf=2, alpha_prune=0.2,
                                                     class_weights=(1.0, 5.0))),
    "zero_columns": (_zero_columns, dict(min_leaf=3, alpha_prune=0.1)),
}

FOREST_CASES = {
    "planted": (_planted, dict(n_trees=7, min_leaf=3, seed=9)),
    "nonlinear": (_nonlinear, dict(n_trees=5, min_leaf=4, seed=0)),
    "one_hot_heavy": (_one_hot_heavy, dict(n_trees=10, min_leaf=5, seed=4)),
    "rare_positive": (_rare, dict(n_trees=30, min_leaf=2, seed=11)),
    "zero_columns": (_zero_columns, dict(n_trees=3, min_leaf=3, seed=1)),
}


def _structure(tree, node=0) -> dict:
    """The tree as nested nodes: ``prob`` and ``n`` everywhere, and
    ``column``, ``threshold``, ``left`` and ``right`` at a split."""
    out = {"prob": float(tree.prob[node]), "n": int(tree.n_samples[node])}
    if tree.column[node] >= 0:
        out.update(column=int(tree.column[node]), threshold=float(tree.threshold[node]),
                   left=_structure(tree, tree.left[node]), right=_structure(tree, tree.right[node]))
    return out


def _fit_tree(name):
    data, kwargs = TREE_CASES[name]
    return fit_decision_tree(*data(), **kwargs)


def _forest_scores(name):
    data, kwargs = FOREST_CASES[name]
    X, y = data()
    return fit_random_forest(X, y, **kwargs).predict(X)


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(TREE_CASES))
def test_tree_structure_matches_record(recorded, name):
    assert _structure(_fit_tree(name)) == recorded["trees"][name]


@pytest.mark.parametrize("name", sorted(FOREST_CASES))
def test_forest_scores_match_record_bit_for_bit(recorded, name):
    want = np.array(recorded["forest_scores"][name], dtype=np.float64)
    assert np.array_equal(_forest_scores(name), want)


if __name__ == "__main__":
    record = {
        "trees": {name: _structure(_fit_tree(name)) for name in sorted(TREE_CASES)},
        "forest_scores": {name: _forest_scores(name).tolist() for name in sorted(FOREST_CASES)},
    }
    FIXTURE.parent.mkdir(exist_ok=True)
    text = json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False)
    FIXTURE.write_text(text + "\n", encoding="utf-8")
