"""Configuration search: enumerate the selector x learner grid and evaluate
it under repeated, incomplete, stratified K-fold cross-validation with early
dropping of weak configurations and early stopping of the fold loop, then
pick the winner and bias-correct its estimate.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import numbers
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import learners as L
from .ingest import InputFileError
from .preprocess import FeatureMatrix
from .rng import spawn_seed, substream
from .selection import (
    CITestCache,
    LassoDesign,
    Signature,
    lasso_design,
    lasso_select,
    ses_select,
    univariate_select,
)
from .stats import MIN_BBC_BOOT, PerformanceEstimate, auc_roc, bbc_correct, stratified_folds

log = logging.getLogger(__name__)

__all__ = [
    "SesSelector",
    "LassoSelector",
    "UnivariateSelector",
    "EpilogiSelector",
    "NoSelector",
    "RidgeLearner",
    "TreeLearner",
    "ForestLearner",
    "NaiveLearner",
    "ModelConfig",
    "SearchGrid",
    "SearchSpace",
    "CVPlan",
    "CVResult",
    "enumerate_search_space",
    "run_rnk_cv",
    "select_winner",
]


# ---------------------------------------------------------------------------
# Selector and learner specifications


class SelectionContext:
    """Per-training-set caches shared by every selector in one fold."""

    def __init__(self, train: FeatureMatrix):
        self.train = train
        self.ci_cache = CITestCache(train)

    @cached_property
    def lasso_design(self) -> LassoDesign:
        return lasso_design(self.train)


def _check(spec, name: str, ok: bool, what: str) -> None:
    if not ok:
        value = getattr(spec, name)
        raise ValueError(f"{type(spec).__name__}.{name} must be {what}, not {value!r}")


def _integer(spec, name: str, low: int, high: float = math.inf) -> None:
    """Store field ``name`` of a frozen spec as an int; a non-integral value
    or one outside low..high raises ValueError."""
    value = getattr(spec, name)
    integral = (isinstance(value, float) and value.is_integer()) or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool))
    _check(spec, name, integral and low <= value <= high,
           f"an integer >= {low}" if high == math.inf else f"an integer in {low}..{high}")
    object.__setattr__(spec, name, int(value))


@dataclass(frozen=True)
class SesSelector:
    kmax: int
    alpha: float

    def __post_init__(self) -> None:
        _integer(self, "kmax", 1, 5)
        _check(self, "alpha", 0.0 < self.alpha < 1.0, "in (0, 1)")

    def label(self) -> str:
        return f"SES(kmax={self.kmax},alpha={self.alpha:g})"

    def select(self, ctx: SelectionContext) -> Signature:
        return ses_select(ctx.train, self.kmax, self.alpha, cache=ctx.ci_cache)


@dataclass(frozen=True)
class LassoSelector:
    penalty: float

    def __post_init__(self) -> None:
        _check(self, "penalty", 0.0 <= self.penalty < math.inf, "finite and nonnegative")

    def label(self) -> str:
        return f"Lasso(penalty={self.penalty:g})"

    def select(self, ctx: SelectionContext) -> Signature:
        return lasso_select(ctx.train, self.penalty, ctx.lasso_design)


@dataclass(frozen=True)
class UnivariateSelector:
    alpha: float

    def __post_init__(self) -> None:
        _check(self, "alpha", 0.0 < self.alpha < 1.0, "in (0, 1)")

    def label(self) -> str:
        return f"Univariate(alpha={self.alpha:g})"

    def select(self, ctx: SelectionContext) -> Signature:
        return univariate_select(ctx.train, self.alpha, cache=ctx.ci_cache)


@dataclass(frozen=True)
class EpilogiSelector:
    """Named in the search space but defined externally; never runnable."""

    threshold: float

    def label(self) -> str:
        return f"Epilogi(threshold={self.threshold:g})"

    def select(self, ctx: SelectionContext) -> Signature:
        raise NotImplementedError("Epilogi is an unsupported selector")


@dataclass(frozen=True)
class NoSelector:
    """Every feature group; the naive baseline's selector too."""

    def label(self) -> str:
        return "None"

    def select(self, ctx: SelectionContext) -> Signature:
        return Signature(selected=ctx.train.group_names(), method="None", hyperparameters={})


@dataclass(frozen=True)
class RidgeLearner:
    lam: float

    complexity = 0

    def __post_init__(self) -> None:
        _check(self, "lam", 0.0 <= self.lam < math.inf, "finite and nonnegative")

    def label(self) -> str:
        return f"Ridge(lambda={self.lam:g})"

    def fit(self, X, y, names, class_weights, seed):
        return L.fit_ridge_logistic(X, y, self.lam, class_weights, column_names=names)


@dataclass(frozen=True)
class TreeLearner:
    min_leaf: int
    alpha_prune: float

    complexity = 1

    def __post_init__(self) -> None:
        _integer(self, "min_leaf", 1)
        _check(self, "alpha_prune", 0.0 <= self.alpha_prune <= 1.0, "in [0, 1]")

    def label(self) -> str:
        return f"Tree(min_leaf={self.min_leaf},alpha={self.alpha_prune:g})"

    def fit(self, X, y, names, class_weights, seed):
        return L.fit_decision_tree(X, y, self.min_leaf, self.alpha_prune, class_weights,
                                   column_names=names)


@dataclass(frozen=True)
class ForestLearner:
    n_trees: int
    min_leaf: int

    complexity = 2

    def __post_init__(self) -> None:
        _integer(self, "n_trees", 1)
        _integer(self, "min_leaf", 1)

    def label(self) -> str:
        return f"Forest(n_trees={self.n_trees},min_leaf={self.min_leaf})"

    def fit(self, X, y, names, class_weights, seed):
        return L.fit_random_forest(X, y, self.n_trees, self.min_leaf, seed, class_weights,
                                   column_names=names)


@dataclass(frozen=True)
class NaiveLearner:
    complexity = 3

    def label(self) -> str:
        return "NaiveBaseline"

    def fit(self, X, y, names, class_weights, seed):
        return L.naive_baseline(y)


Selector = Union[SesSelector, LassoSelector, UnivariateSelector, EpilogiSelector, NoSelector]
Learner = Union[RidgeLearner, TreeLearner, ForestLearner, NaiveLearner]


@dataclass(frozen=True)
class ModelConfig:
    """One point of the search space: a selector paired with a learner."""

    config_id: int
    selector: Selector
    learner: Learner

    @property
    def supported(self) -> bool:
        return not isinstance(self.selector, EpilogiSelector)

    @property
    def trainable(self) -> bool:
        """Counts toward the fitted-model tally (the naive baseline does not)."""
        return not isinstance(self.learner, NaiveLearner)

    def label(self) -> str:
        return f"#{self.config_id} {self.selector.label()} + {self.learner.label()}"

    def to_dict(self) -> dict:
        return {
            "config_id": self.config_id,
            "selector": self.selector.label(),
            "learner": self.learner.label(),
            "supported": self.supported,
        }


# ---------------------------------------------------------------------------
# Search-space enumeration


@dataclass
class SearchGrid:
    """Hyperparameter grids for the selector and learner families."""

    ses_kmax: list = field(default_factory=lambda: [2, 3])
    ses_alpha: list = field(default_factory=lambda: [0.01, 0.05, 0.1])
    lasso_penalty: list = field(
        default_factory=lambda: [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
    )
    univariate_alpha: list = field(default_factory=lambda: [0.01, 0.001])
    epilogi_threshold: list = field(default_factory=lambda: [0.01])
    include_no_selector: bool = True
    ridge_lambda: list = field(default_factory=lambda: [0.0001, 0.001, 0.1, 1.0, 10.0, 100.0])
    tree_min_leaf: list = field(default_factory=lambda: [1, 2, 3, 4, 5])
    tree_alpha: list = field(default_factory=lambda: [0.01, 0.05, 0.1])
    forest_n_trees: list = field(default_factory=lambda: [100, 1000])
    forest_min_leaf: list = field(default_factory=lambda: [4, 5])
    declared_total: Optional[int] = 738

    @classmethod
    def from_dict(cls, raw: dict) -> "SearchGrid":
        grid = cls()
        for key, value in raw.items():
            if not hasattr(grid, key):
                raise ValueError(f"unknown search-grid key {key!r}")
            setattr(grid, key, value)
        return grid


@dataclass
class SearchSpace:
    configs: list[ModelConfig]
    declared_total: Optional[int]

    @property
    def n_runnable(self) -> int:
        return sum(1 for c in self.configs if c.supported)

    @property
    def n_unsupported(self) -> int:
        return sum(1 for c in self.configs if not c.supported)

    def summary(self) -> dict:
        actual = len(self.configs)
        return {
            "total_enumerated": actual,
            "runnable": self.n_runnable,
            "marked_unsupported": self.n_unsupported,
            "declared_total": self.declared_total,
            "matches_declared": (self.declared_total is None or self.declared_total == actual),
        }


def enumerate_search_space(grid: SearchGrid) -> SearchSpace:
    """Deterministic cross product of selector and learner grids plus the
    naive baseline; unsupported named selectors stay in the enumeration but
    are skipped at run time. A value a spec refuses raises ValueError. Any
    mismatch with the grid's declared total is recorded in the summary (which
    the report and ``--dry-run`` show), not raised."""
    selectors: list[Selector] = []
    for kmax in grid.ses_kmax:
        for alpha in grid.ses_alpha:
            selectors.append(SesSelector(kmax=kmax, alpha=float(alpha)))
    selectors.extend(LassoSelector(penalty=float(p)) for p in grid.lasso_penalty)
    selectors.extend(UnivariateSelector(alpha=float(a)) for a in grid.univariate_alpha)
    selectors.extend(EpilogiSelector(threshold=float(t)) for t in grid.epilogi_threshold)
    if grid.include_no_selector:
        selectors.append(NoSelector())

    learner_list: list[Learner] = []
    learner_list.extend(RidgeLearner(lam=float(l)) for l in grid.ridge_lambda)
    for leaf in grid.tree_min_leaf:
        for alpha in grid.tree_alpha:
            learner_list.append(TreeLearner(min_leaf=leaf, alpha_prune=float(alpha)))
    for n_trees in grid.forest_n_trees:
        for leaf in grid.forest_min_leaf:
            learner_list.append(ForestLearner(n_trees=n_trees, min_leaf=leaf))

    configs: list[ModelConfig] = []
    for selector in selectors:
        for learner in learner_list:
            configs.append(ModelConfig(config_id=len(configs), selector=selector, learner=learner))
    configs.append(ModelConfig(config_id=len(configs), selector=NoSelector(), learner=NaiveLearner()))

    return SearchSpace(configs=configs, declared_total=grid.declared_total)


# ---------------------------------------------------------------------------
# The CV protocol


@dataclass(frozen=True)
class CVPlan:
    """Repeated (R), incomplete (N), stratified K-fold evaluation plan."""

    k: int = 10
    repeats: int = 1
    n_complete: Optional[int] = None  # folds evaluated per repeat; None = all k
    seed: int = 0
    drop_margin: Optional[float] = 0.03
    drop_min_folds: int = 3
    stop_epsilon: Optional[float] = 0.001
    bbc_boot: int = 500
    bbc_ci: float = 0.95

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("folds must be at least 2")
        n_complete = self.k if self.n_complete is None else self.n_complete
        if not 1 <= n_complete <= self.k:
            raise ValueError("n_complete must satisfy 1 <= n_complete <= folds")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if self.bbc_boot < MIN_BBC_BOOT:
            raise ValueError(f"bbc_boot must be at least {MIN_BBC_BOOT}")
        if not 0.0 < self.bbc_ci < 1.0:
            raise ValueError("bbc_ci must lie strictly between 0 and 1")
        for name in ("drop_margin", "stop_epsilon"):
            value = getattr(self, name)
            _check(self, name, value is None or 0.0 <= value < math.inf,
                   "none or finite and nonnegative")
        _check(self, "drop_min_folds", self.drop_min_folds >= 1, "at least 1")

    @property
    def folds_per_repeat(self) -> int:
        return self.k if self.n_complete is None else self.n_complete


# what a CV checkpoint holds: the arrays as npz members, the rest in ``meta``
_CHECKPOINT_STATE = ("pooled", "evaluated_mask", "fold_aucs", "n_selected", "dropped",
                     "fitted_models", "folds_completed", "best_pooled_prev", "stopped_early")


@dataclass
class CVResult:
    """The fold loop's state: ``run_rnk_cv`` advances it fold by fold,
    checkpoints it after each fold and returns it."""

    configs: list[ModelConfig]
    pooled: np.ndarray          # (C, n) out-of-fold scores, NaN where unevaluated
    evaluated_mask: np.ndarray  # samples belonging to completed folds
    labels: np.ndarray
    fold_aucs: dict[int, list[float]]
    n_selected: dict[int, list[int]]
    dropped: dict[int, int]     # config_id -> 1-based fold count at drop
    unsupported: list[int]
    folds_completed: int
    fitted_models: int
    stopped_early: bool
    plan: CVPlan
    best_pooled_prev: Optional[float] = None  # best pooled AUC after the last fold

    def surviving(self) -> list[ModelConfig]:
        return [
            c for c in self.configs
            if c.supported and c.config_id not in self.dropped
        ]

    def pooled_auc(self, config_id: int) -> float:
        mask = self.evaluated_mask & ~np.isnan(self.pooled[config_id])
        return auc_roc(self.pooled[config_id][mask], self.labels[mask])

    def save(self, path, stamp: dict) -> None:
        """Write the fold loop's state and ``stamp``, what it was computed
        for, to ``path``, atomically."""
        state = {name: getattr(self, name) for name in _CHECKPOINT_STATE}
        arrays = {k: v for k, v in state.items() if isinstance(v, np.ndarray)}
        meta = json.dumps({**{k: v for k, v in state.items() if k not in arrays}, **stamp})
        tmp = Path(str(path) + ".tmp")
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays, meta=np.frombuffer(meta.encode("utf-8"), dtype=np.uint8))
        tmp.replace(Path(path))

    def restore(self, path, stamp: dict) -> None:
        """Take the fold loop's state from the checkpoint at ``path``. An
        unreadable checkpoint, or one whose stamp is not ``stamp``, raises
        InputFileError."""
        try:
            # np.load(path) leaves its own handle open when the zip is unreadable
            with open(path, "rb") as fh, np.load(fh) as data:
                meta = json.loads(bytes(data["meta"].tobytes()).decode("utf-8"))
                state = {name: data[name].copy() if name in data.files else meta[name]
                         for name in _CHECKPOINT_STATE}
        except (zipfile.BadZipFile, EOFError, KeyError, ValueError) as exc:
            raise InputFileError(f"unreadable CV checkpoint {path}: {exc!r}") from exc
        for key, expected in stamp.items():
            if key not in meta or meta[key] != expected:
                raise InputFileError(f"CV checkpoint {path} was written for another {key}; "
                                     "delete it or run without --resume")
        for name, value in state.items():
            setattr(self, name, {int(k): v for k, v in value.items()}
                    if isinstance(value, dict) else value)


def _checkpoint_stamp(matrix: FeatureMatrix, configs: Sequence[ModelConfig], plan: CVPlan,
                      class_weights) -> dict:
    """What a CV checkpoint is written for, as JSON reads it back: the plan,
    the config labels in order, the class weights and a sha256 of the
    matrix's X and y."""
    digest = hashlib.sha256()
    for a in (matrix.X, matrix.y):
        digest.update(f"{a.dtype.str}{a.shape}".encode("ascii"))
        digest.update(np.ascontiguousarray(a))
    return json.loads(json.dumps({"plan": asdict(plan), "configs": [c.label() for c in configs],
                                  "class_weights": class_weights,
                                  "data_sha256": digest.hexdigest()}))


def _fit_and_score(
    config: ModelConfig,
    signature: Signature,
    train: FeatureMatrix,
    test: FeatureMatrix,
    class_weights,
    seed: int,
) -> np.ndarray:
    Xtr = train.take_groups(signature.selected)
    names = [c.name for c in Xtr.columns]
    model = config.learner.fit(Xtr.X, train.y, names, class_weights, seed)
    return L.predict_scores(model, test.take_groups(signature.selected).X, column_names=names)


def run_rnk_cv(
    matrix: FeatureMatrix,
    configs: Sequence[ModelConfig],
    plan: CVPlan,
    class_weights=None,
    checkpoint_path: Optional[Path] = None,
    resume: bool = False,
    progress: Optional[Callable[[dict], None]] = None,
    max_workers: int = 1,
) -> CVResult:
    """Evaluate every surviving configuration fold by fold.

    Selectors see only the training side of each fold, and each distinct
    selector runs once per fold: every config that pairs it with a learner
    gets the same signature. After each fold,
    configurations whose mean per-fold AUC trails the best by more than
    drop_margin (once drop_min_folds folds are in) are dropped, and the fold
    loop ends early when the best pooled AUC stops improving by stop_epsilon.
    A resumed run refuses a checkpoint written for another plan, config
    list, class weighting or matrix.
    """
    labels, n = matrix.y, matrix.n_rows
    state = CVResult(
        configs=list(configs),
        pooled=np.full((len(configs), n), np.nan),
        evaluated_mask=np.zeros(n, dtype=bool),
        labels=labels,
        fold_aucs={c.config_id: [] for c in configs},
        n_selected={c.config_id: [] for c in configs},
        dropped={},
        unsupported=[c.config_id for c in configs if not c.supported],
        folds_completed=0,
        fitted_models=0,
        stopped_early=False,
        plan=plan,
    )
    for cid in state.unsupported:
        log.info("config %s is unsupported and will be skipped", configs[cid].label())
    stamp = ({} if checkpoint_path is None
             else _checkpoint_stamp(matrix, configs, plan, class_weights))
    if resume and checkpoint_path is not None and Path(checkpoint_path).exists():
        state.restore(checkpoint_path, stamp)
        log.info("resuming CV from fold %d", state.folds_completed + 1)

    fold_sequence: list[tuple[int, int, np.ndarray]] = []
    for r in range(plan.repeats):
        assignment = stratified_folds(labels, plan.k, substream(plan.seed, "folds", r))
        for j in range(plan.folds_per_repeat):
            fold_sequence.append((r, j, assignment == j))

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        for r, j, test_mask in fold_sequence[state.folds_completed:]:
            if state.stopped_early:
                break
            train = matrix.take_rows(np.flatnonzero(~test_mask))
            test_idx = np.flatnonzero(test_mask)
            test = matrix.take_rows(test_idx)
            ctx = SelectionContext(train)
            surviving = state.surviving()
            signatures = {s: s.select(ctx) for s in dict.fromkeys(c.selector for c in surviving)}

            def evaluate(config: ModelConfig) -> np.ndarray:
                seed = spawn_seed(plan.seed, "learner", config.config_id, r, j)
                return _fit_and_score(
                    config, signatures[config.selector], train, test, class_weights, seed
                )

            for config, scores in zip(surviving, pool.map(evaluate, surviving)):
                cid = config.config_id
                state.pooled[cid, test_idx] = scores
                fauc = auc_roc(scores, labels[test_idx])
                state.fold_aucs[cid].append(fauc)
                n_sel = len(signatures[config.selector].selected)
                state.n_selected[cid].append(n_sel)
                if config.trainable:
                    state.fitted_models += 1
                if progress is not None:
                    progress({"repeat": r, "fold": j, "config_id": cid, "config": config.label(),
                              "fold_auc": fauc, "n_selected": n_sel})

            state.evaluated_mask |= test_mask
            state.folds_completed += 1
            done = state.folds_completed

            if plan.drop_margin is not None:
                means = {c.config_id: float(np.mean(state.fold_aucs[c.config_id]))
                         for c in surviving}
                best_mean = max(means.values())
                for c in surviving:
                    cid = c.config_id
                    if (len(state.fold_aucs[cid]) >= plan.drop_min_folds
                            and means[cid] < best_mean - plan.drop_margin):
                        state.dropped[cid] = done
                        log.info("dropped %s at fold %d (mean AUC %.4f vs best %.4f)",
                                 c.label(), done, means[cid], best_mean)

            best_pooled_now = max(state.pooled_auc(c.config_id) for c in state.surviving())
            prev = state.best_pooled_prev
            if (
                plan.stop_epsilon is not None
                and prev is not None
                and best_pooled_now - prev < plan.stop_epsilon
            ):
                state.stopped_early = True
                log.info("early stop after fold %d (best pooled AUC %.4f, prev %.4f)",
                         done, best_pooled_now, prev)
            state.best_pooled_prev = best_pooled_now

            if checkpoint_path is not None:
                state.save(checkpoint_path, stamp)
    return state


def select_winner(result: CVResult) -> tuple[ModelConfig, PerformanceEstimate]:
    """Best pooled AUC among surviving configurations, bias-corrected.

    Ties break toward fewer selected features, the simpler learner family
    (ridge < tree < forest), then the lower config id. The BBC runs over the
    surviving configurations' pooled scores on the commonly evaluated samples.
    """
    surviving = result.surviving()
    if not surviving:
        raise RuntimeError("no surviving configurations; the plan was too aggressive")
    if result.folds_completed < 2:
        raise RuntimeError("winner selection needs pooled scores from at least 2 folds")
    mask = result.evaluated_mask

    def sort_key(c: ModelConfig):
        auc = result.pooled_auc(c.config_id)
        sel = result.n_selected[c.config_id]
        mean_sel = float(np.mean(sel)) if sel else 0.0
        return (-auc, mean_sel, c.learner.complexity, c.config_id)

    winner = min(surviving, key=sort_key)
    S = np.stack([result.pooled[c.config_id][mask] for c in surviving])
    estimate = bbc_correct(
        S,
        result.labels[mask],
        n_boot=result.plan.bbc_boot,
        ci_level=result.plan.bbc_ci,
        seed=substream(result.plan.seed, "bbc"),
    )
    return winner, estimate
