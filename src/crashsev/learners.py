"""The three learners of the configuration search space, plus the naive
baseline: ridge-penalized logistic regression, a chi-square-pruned decision
tree, and a bootstrap random forest. All accept per-class cost weights to
face the severe class imbalance.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .ingest import read_json_file
from .rng import substream
from .stats import LOGISTIC_MAX_ITER, _newton_logistic_many

log = logging.getLogger(__name__)

__all__ = [
    "LinearModel",
    "TreeModel",
    "ForestModel",
    "NaiveModel",
    "fit_ridge_logistic",
    "fit_decision_tree",
    "fit_random_forest",
    "naive_baseline",
    "predict_scores",
    "class_weight_vector",
    "save_model",
    "load_model",
]

MODEL_FORMAT_VERSION = 2
# Largest block (node rows x candidate columns) that _best_split scores in
# one pass; the pass holds a few arrays of this size at once.
SPLIT_BLOCK_ELEMENTS = 2**14


def class_weight_vector(y: np.ndarray, class_weights: Optional[tuple[float, float]]) -> np.ndarray:
    """Per-sample weights; None means inverse class frequency (balanced)."""
    y = np.asarray(y)
    if class_weights is None:
        n = y.size
        npos = int(np.count_nonzero(y == 1))
        nneg = n - npos
        if npos == 0 or nneg == 0:
            return np.ones(n)
        class_weights = (n / (2.0 * nneg), n / (2.0 * npos))
    w_neg, w_pos = class_weights
    return np.where(y == 1, float(w_pos), float(w_neg))


# ---------------------------------------------------------------------------
# Ridge logistic regression


@dataclass
class LinearModel:
    column_names: list[str]
    weights: np.ndarray
    intercept: float
    means: np.ndarray
    scales: np.ndarray
    lam: float
    class_weights: Optional[tuple[float, float]]
    converged: bool = True

    def standardized(self, X: np.ndarray) -> np.ndarray:
        return (X - self.means) / self.scales

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        return self.intercept + self.standardized(X) @ self.weights


def fit_ridge_logistic(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    class_weights: Optional[tuple[float, float]] = None,
    column_names: Optional[Sequence[str]] = None,
    max_iter: int = LOGISTIC_MAX_ITER,
) -> LinearModel:
    """Weighted ridge logistic fit, a one-row batch of the Newton solver that
    also fits the likelihood-ratio tests' models (``stats._newton_logistic_many``).

    Minimizes mean weighted negative log-likelihood + (lam/2)||w||^2 on
    standardized columns; the intercept is unpenalized. The weighted mean
    keeps the objective invariant under sample duplication, so doubling a
    class's weight equals duplicating its samples.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if y.min() == y.max():
        raise ValueError("both classes must be present")
    n, p = X.shape
    w = class_weight_vector(y, class_weights)
    w = w / w.sum()

    # weight-aware standardization keeps class weighting exactly equivalent
    # to sample duplication
    means = w @ X
    scales = np.sqrt(w @ (X - means) ** 2)
    scales = np.where(scales > 0, scales, 1.0)
    A = np.column_stack([np.ones(n), (X - means) / scales])
    pen = np.r_[0.0, np.full(p, lam)]
    betas, _, conv = _newton_logistic_many(A[None], y, w, pen=pen, max_iter=max_iter)
    beta, converged = betas[0], bool(conv[0])

    if not converged:
        log.warning("ridge logistic did not converge (lam=%g): flagged", lam)
    names = list(column_names) if column_names is not None else [f"x{i}" for i in range(p)]
    return LinearModel(
        column_names=names,
        weights=beta[1:],
        intercept=float(beta[0]),
        means=means,
        scales=scales,
        lam=float(lam),
        class_weights=class_weights,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Decision tree


# TreeModel's node arrays, as they are stored and serialized
_NODE_DTYPES = {"column": np.intp, "threshold": np.float64, "left": np.intp, "right": np.intp,
                "prob": np.float64, "n_samples": np.intp}


class Leaf(NamedTuple):
    prob: float
    n_samples: int


@dataclass
class TreeModel:
    """One tree as parallel node arrays; node 0 is the root. A leaf has
    ``column`` -1; a split sends rows with ``X[:, column] <= threshold`` to
    ``left`` and the rest to ``right``. ``prob`` is the weighted
    positive-class frequency of the node's training rows, ``n_samples`` their
    count."""

    column: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    prob: np.ndarray
    n_samples: np.ndarray
    min_leaf: int
    alpha_prune: Optional[float]
    class_weights: Optional[tuple[float, float]]
    column_names: list[str]

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        node = np.zeros(X.shape[0], dtype=np.intp)
        rows = np.arange(X.shape[0])
        # every row still at a split moves down one level per step
        while rows.size:
            at = node[rows]
            col = self.column[at]
            inner = col >= 0
            rows, at, col = rows[inner], at[inner], col[inner]
            go_left = X[rows, col] <= self.threshold[at]
            node[rows] = np.where(go_left, self.left[at], self.right[at])
        return self.prob[node]

    def leaves(self) -> list[Leaf]:
        at = self.column < 0
        return [Leaf(float(p), int(n)) for p, n in zip(self.prob[at], self.n_samples[at])]


def _chi2_split_pvalue(y_left: np.ndarray, y_right: np.ndarray) -> float:
    """Pearson chi-square p-value of the 2x2 (side x class) count table.

    For one degree of freedom the survival function ``stats.chi2_sf(1, stat)``
    is exactly ``erfc(sqrt(stat / 2))``, taken here on the Python float."""
    a = float(np.count_nonzero(y_left == 1))
    b = float(y_left.size - a)
    c = float(np.count_nonzero(y_right == 1))
    d = float(y_right.size - c)
    n = a + b + c + d
    margins = (a + b) * (c + d) * (a + c) * (b + d)
    if margins == 0:
        return 1.0
    stat = n * (a * d - b * c) ** 2 / margins
    return math.erfc(math.sqrt(stat / 2.0))


def _gini_mass(w: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """``w * 2 * p * (1 - p)`` with ``p = pos / w``, elementwise, written
    over both arguments."""
    p = np.divide(pos, w, out=pos)
    w *= 2
    w *= p
    w *= 1 - p
    return w


def _best_split(
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    idx: np.ndarray,
    min_leaf: int,
    feature_pool: np.ndarray,
) -> Optional[tuple[int, float, float]]:
    """(column, threshold, gini decrease) of the best weighted-Gini split.

    The columns of ``feature_pool`` are scored in blocks of at most
    ``SPLIT_BLOCK_ELEMENTS`` node rows x columns. A block is gathered and
    stably sorted column by column in one call; its weighted class sums
    accumulate down the sorted rows, and the Gini decrease is taken at every
    boundary between two distinct values that leaves ``min_leaf`` rows on
    each side. Each column's first best boundary then enters the tie-break in
    ``feature_pool`` order. These are the floating-point operations, in the
    same order, of a sorted scan of one column at a time, so the split found
    is the same to the last bit.
    """
    m = idx.size
    # the boundary after sorted row r leaves r + 1 rows on the left: rows
    # lo..hi-1 leave min_leaf rows (and at least one) on each side
    lo, hi = max(min_leaf, 1) - 1, m - max(min_leaf, 1)
    if hi <= lo:
        return None
    yy = y[idx].astype(np.float64)
    ww = w[idx]
    wy = ww * yy
    total_w = ww.sum()
    total_pos = float(np.dot(ww, yy))
    p_parent = total_pos / total_w
    g_parent = 2.0 * p_parent * (1.0 - p_parent)

    pool = np.asarray(feature_pool, dtype=np.intp)
    step = max(1, SPLIT_BLOCK_ELEMENTS // m)
    best: Optional[tuple[int, float, float]] = None
    for start in range(0, pool.size, step):
        cols = pool[start:start + step]
        order = np.argsort(X[np.ix_(idx, cols)], axis=0, kind="stable")[:hi + 1]
        v = X[idx[order], cols]
        left_pos = np.cumsum(wy[order[:hi]], axis=0)[lo:]
        left_w = np.cumsum(ww[order[:hi]], axis=0)[lo:]
        right_pos = total_pos - left_pos
        right_w = total_w - left_w
        # g_parent - (left_w*2*pl*(1-pl) + right_w*2*pr*(1-pr)) / total_w,
        # in place and in that order
        dec = _gini_mass(left_w, left_pos)
        dec += _gini_mass(right_w, right_pos)
        dec /= total_w
        np.subtract(g_parent, dec, out=dec)
        # only a boundary between two distinct values is a cut
        dec[v[lo:hi] == v[lo + 1:]] = -np.inf
        k = np.argmax(dec, axis=0)
        at = np.arange(cols.size)
        lower, upper = v[lo + k, at], v[lo + k + 1, at]
        for j, d, low, up in zip(cols.tolist(), dec[k, at].tolist(), lower.tolist(),
                                 upper.tolist()):
            if d <= 1e-12:
                continue
            threshold = (low + up) / 2.0
            if not threshold < up:
                # adjacent floats: the midpoint rounded onto the upper value
                threshold = low
            cand = (j, threshold, d)
            if best is None or cand[2] > best[2] + 1e-15 or (
                abs(cand[2] - best[2]) <= 1e-15 and (cand[0], cand[1]) < (best[0], best[1])
            ):
                best = cand
    return best


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    min_leaf: int,
    alpha_prune: Optional[float],
    feature_sampler: Optional[Callable[[], np.ndarray]] = None,
) -> dict[str, np.ndarray]:
    """The node arrays of ``TreeModel``, grown depth first: a split appends
    its left then its right child, and the right child is split first."""
    all_features = np.arange(X.shape[1])
    nodes: list[list] = []  # one [column, threshold, left, right, prob, n_samples] each

    def add_node(idx: np.ndarray) -> int:
        ww = w[idx]
        prob = float(np.dot(ww, y[idx].astype(np.float64)) / ww.sum())
        nodes.append([-1, 0.0, -1, -1, prob, int(idx.size)])
        return len(nodes) - 1

    root_idx = np.arange(X.shape[0], dtype=np.intp)
    stack = [(add_node(root_idx), root_idx)]
    while stack:
        node, idx = stack.pop()
        yy = y[idx]
        if idx.size < 2 * min_leaf or yy.min() == yy.max():
            continue
        pool = feature_sampler() if feature_sampler is not None else all_features
        found = _best_split(X, y, w, idx, min_leaf, pool)
        if found is None:
            continue
        j, threshold, _ = found
        left_mask = X[idx, j] <= threshold
        left_idx = idx[left_mask]
        right_idx = idx[~left_mask]
        if alpha_prune is not None:
            if _chi2_split_pvalue(y[left_idx], y[right_idx]) > alpha_prune:
                continue
        left, right = add_node(left_idx), add_node(right_idx)
        nodes[node][:4] = [j, threshold, left, right]
        stack += [(left, left_idx), (right, right_idx)]
    return _node_arrays(dict(zip(_NODE_DTYPES, zip(*nodes))))


def _node_arrays(nodes: dict) -> dict[str, np.ndarray]:
    return {name: np.asarray(nodes[name], dtype=dtype) for name, dtype in _NODE_DTYPES.items()}


def _loaded_node_arrays(nodes: dict, n_columns: int) -> dict[str, np.ndarray]:
    """The node arrays of a tree read from a file, refused with ValueError
    unless ``predict`` can walk them: ``_grow_tree`` puts a split's children
    after it, so requiring that rules out a walk that loops or leaves the
    arrays."""
    arrays = _node_arrays(nodes)
    n = len(arrays["column"])
    if n == 0 or any(len(a) != n for a in arrays.values()):
        raise ValueError("tree node arrays are empty or of unequal lengths")
    at = np.flatnonzero(arrays["column"] >= 0)
    for child in (arrays["left"][at], arrays["right"][at]):
        if np.any((child <= at) | (child >= n)):
            raise ValueError("a tree split's child is not a later node")
    if at.size and arrays["column"][at].max() >= n_columns:
        raise ValueError("a tree split reads a column outside column_names")
    return arrays


def fit_decision_tree(
    X: np.ndarray,
    y: np.ndarray,
    min_leaf: int,
    alpha_prune: float,
    class_weights: Optional[tuple[float, float]] = None,
    column_names: Optional[Sequence[str]] = None,
) -> TreeModel:
    """Greedy binary splits by weighted Gini decrease.

    A split is kept only when the chi-square independence test of its 2x2
    side-by-class table reaches p <= alpha_prune; leaves emit the weighted
    positive-class frequency.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if min_leaf < 1:
        raise ValueError("min_leaf must be at least 1")
    w = class_weight_vector(y, class_weights)
    nodes = _grow_tree(X, y, w, min_leaf, alpha_prune)
    names = list(column_names) if column_names is not None else [f"x{i}" for i in range(X.shape[1])]
    return TreeModel(**nodes, min_leaf=min_leaf, alpha_prune=alpha_prune,
                     class_weights=class_weights, column_names=names)


# ---------------------------------------------------------------------------
# Random forest


@dataclass
class ForestModel:
    trees: list[TreeModel]
    n_trees: int
    min_leaf: int
    seed: int
    mtry: int
    class_weights: Optional[tuple[float, float]]
    column_names: list[str]

    def predict(self, X: np.ndarray) -> np.ndarray:
        preds = np.zeros(np.asarray(X).shape[0])
        for tree in self.trees:
            preds += tree.predict(X)
        return preds / len(self.trees)


def fit_random_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_trees: int,
    min_leaf: int,
    seed: int,
    class_weights: Optional[tuple[float, float]] = None,
    column_names: Optional[Sequence[str]] = None,
) -> ForestModel:
    """Bootstrap ensemble of Gini trees, ceil(sqrt(p)) columns per split.

    Tree t draws its bootstrap and split-time feature subsets from a
    substream of (seed, t), so the forest is reproducible bit-for-bit and
    trees could be grown in parallel without changing the result.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if n_trees < 1:
        raise ValueError("n_trees must be at least 1")
    n, p = X.shape
    mtry = max(1, math.isqrt(p) + (0 if math.isqrt(p) ** 2 == p else 1))
    w = class_weight_vector(y, class_weights)
    names = list(column_names) if column_names is not None else [f"x{i}" for i in range(p)]

    trees: list[TreeModel] = []
    for t in range(n_trees):
        rng = substream(seed, "forest-tree", t)
        boot = rng.integers(0, n, size=n)
        Xb, yb, wb = X[boot], y[boot], w[boot]
        # with no columns there is nothing to sample: the tree is a single
        # leaf, as fit_decision_tree grows on zero columns
        sampler = (lambda: np.sort(rng.choice(p, size=mtry, replace=False))) if p else None
        nodes = _grow_tree(Xb, yb, wb, min_leaf, None, feature_sampler=sampler)
        if yb.min() == yb.max():
            # a single-class resample grows one leaf, which emits the class
            # itself rather than a weighted mean that may round off it
            nodes["prob"][0] = float(yb[0])
        trees.append(
            TreeModel(**nodes, min_leaf=min_leaf, alpha_prune=None,
                      class_weights=class_weights, column_names=names)
        )
    return ForestModel(
        trees=trees,
        n_trees=n_trees,
        min_leaf=min_leaf,
        seed=int(seed),
        mtry=mtry,
        class_weights=class_weights,
        column_names=names,
    )


# ---------------------------------------------------------------------------
# Naive baseline


@dataclass
class NaiveModel:
    prevalence: float
    column_names: list[str] = field(default_factory=list)


def naive_baseline(y: np.ndarray) -> NaiveModel:
    """Constant-score model emitting the training positive-class prevalence."""
    y = np.asarray(y)
    return NaiveModel(prevalence=float(np.mean(y == 1)))


# ---------------------------------------------------------------------------
# Scoring


def _check_columns(model_names: list[str], names: Optional[Sequence[str]]) -> None:
    if names is None:
        return
    names = list(names)
    if len(names) != len(model_names):
        raise ValueError(
            f"column count mismatch: model has {len(model_names)}, matrix has {len(names)}"
        )
    for a, b in zip(model_names, names):
        if a != b:
            raise ValueError(f"column mismatch: model expects {a!r}, matrix has {b!r}")


def predict_scores(model, X: np.ndarray, column_names: Optional[Sequence[str]] = None) -> np.ndarray:
    """Ranking scores: log-odds for linear models, positive-class probability
    for trees and forests, constant prevalence for the baseline."""
    X = np.asarray(X, dtype=np.float64)
    if isinstance(model, LinearModel):
        _check_columns(model.column_names, column_names)
        return model.decision_function(X)
    if isinstance(model, (TreeModel, ForestModel)):
        _check_columns(model.column_names, column_names)
        return model.predict(X)
    if isinstance(model, NaiveModel):
        return np.full(X.shape[0], model.prevalence)
    raise TypeError(f"unknown model type {type(model).__name__}")


# ---------------------------------------------------------------------------
# Serialization (versioned structured text)


def save_model(model, path) -> None:
    if isinstance(model, LinearModel):
        payload = {
            "kind": "linear",
            "column_names": model.column_names,
            "weights": model.weights.tolist(),
            "intercept": model.intercept,
            "means": model.means.tolist(),
            "scales": model.scales.tolist(),
            "lambda": model.lam,
            "class_weights": list(model.class_weights) if model.class_weights else None,
            "converged": model.converged,
        }
    elif isinstance(model, TreeModel):
        payload = {
            "kind": "tree",
            "column_names": model.column_names,
            "nodes": {k: getattr(model, k).tolist() for k in _NODE_DTYPES},
            "min_leaf": model.min_leaf,
            "alpha_prune": model.alpha_prune,
            "class_weights": list(model.class_weights) if model.class_weights else None,
        }
    elif isinstance(model, ForestModel):
        payload = {
            "kind": "forest",
            "column_names": model.column_names,
            "trees": [{k: getattr(t, k).tolist() for k in _NODE_DTYPES} for t in model.trees],
            "n_trees": model.n_trees,
            "min_leaf": model.min_leaf,
            "seed": model.seed,
            "mtry": model.mtry,
            "class_weights": list(model.class_weights) if model.class_weights else None,
        }
    elif isinstance(model, NaiveModel):
        payload = {"kind": "naive", "prevalence": model.prevalence}
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    payload["version"] = MODEL_FORMAT_VERSION
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path):
    """The model ``save_model`` wrote to ``path``; a file that is not one, or
    of another format version, raises ``InputFileError``."""
    return read_json_file(path, "model file", _model_from_dict)


def _model_from_dict(raw: dict):
    if raw["version"] != MODEL_FORMAT_VERSION:
        raise ValueError(f"format version {raw['version']!r}, not {MODEL_FORMAT_VERSION}")
    kind = raw["kind"]
    cw = tuple(raw["class_weights"]) if raw.get("class_weights") else None
    if kind == "linear":
        n_columns = len(raw["column_names"])
        arrays = {name: np.array(raw[name], dtype=np.float64)
                  for name in ("weights", "means", "scales")}
        if any(a.shape != (n_columns,) for a in arrays.values()):
            raise ValueError("a linear model needs one weight, mean and scale per column name")
        return LinearModel(
            column_names=raw["column_names"],
            **arrays,
            intercept=float(raw["intercept"]),
            lam=float(raw["lambda"]),
            class_weights=cw,
            converged=bool(raw["converged"]),
        )
    if kind == "tree":
        return TreeModel(
            **_loaded_node_arrays(raw["nodes"], len(raw["column_names"])),
            min_leaf=int(raw["min_leaf"]),
            alpha_prune=raw["alpha_prune"],
            class_weights=cw,
            column_names=raw["column_names"],
        )
    if kind == "forest":
        n_columns = len(raw["column_names"])
        trees = [
            TreeModel(**_loaded_node_arrays(t, n_columns), min_leaf=int(raw["min_leaf"]),
                      alpha_prune=None, class_weights=cw, column_names=raw["column_names"])
            for t in raw["trees"]
        ]
        return ForestModel(
            trees=trees,
            n_trees=int(raw["n_trees"]),
            min_leaf=int(raw["min_leaf"]),
            seed=int(raw["seed"]),
            mtry=int(raw["mtry"]),
            class_weights=cw,
            column_names=raw["column_names"],
        )
    if kind == "naive":
        return NaiveModel(prevalence=float(raw["prevalence"]))
    raise ValueError(f"unknown model kind {kind!r}")
