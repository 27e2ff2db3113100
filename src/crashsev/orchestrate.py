"""The outer protocol: draw disjoint stratified training subsets, tune each,
aggregate the winners' signatures by cross-subset stability, train the final
model on the union of subsets, and evaluate once on the untouched holdout.

A subset's only saved state is its stamped CV checkpoint,
``subsets/subset_XX.cv.npz``, which stays on disk once the subset is done.
A resumed run passes every subset back through ``run_rnk_cv``: a finished
checkpoint comes back without a fit, and the subset's winner, BBC estimate
and signature are recomputed from it deterministically. A checkpoint
written for another plan, grid, class weighting or matrix is refused.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import learners as L
from .ingest import InvariantViolation
from .preprocess import FeatureMatrix
from .rng import spawn_seed, substream
from .selection import Signature, StabilityTable, stability_select
from .stats import PerformanceEstimate, auc_roc, bootstrap_auc_ci, roc_curve
from .tune import (
    CVPlan,
    ModelConfig,
    RidgeLearner,
    SearchSpace,
    SelectionContext,
    run_rnk_cv,
    select_winner,
)

log = logging.getLogger(__name__)

__all__ = [
    "SubsetPlan",
    "FinalRun",
    "ProtocolError",
    "HoldoutViolation",
    "draw_subsets",
    "run_protocol",
]


class ProtocolError(RuntimeError):
    """The protocol cannot proceed as configured."""


class HoldoutViolation(InvariantViolation):
    """A training-phase operation read holdout rows."""


@dataclass(frozen=True)
class SubsetPlan:
    n_subsets: int = 4
    subset_size: int = 55_000
    seed: int = 0
    disjoint: bool = True

    def __post_init__(self) -> None:
        if self.subset_size < 1:
            raise ValueError(f"subset_size must be at least 1, not {self.subset_size}")


def _per_class_allocation(labels: np.ndarray, subset_size: int) -> dict:
    """Largest-remainder allocation of one subset across classes.

    Every class count lands within one of exact proportionality.
    """
    n = labels.size
    classes, class_counts = np.unique(labels, return_counts=True)
    exact = {c: subset_size * cnt / n for c, cnt in zip(classes, class_counts)}
    base = {c: int(np.floor(v)) for c, v in exact.items()}
    shortfall = subset_size - sum(base.values())
    order = sorted(classes, key=lambda c: (-(exact[c] - base[c]), c))
    for c in order[:shortfall]:
        base[c] += 1
    return base


def draw_subsets(labels, plan: SubsetPlan) -> tuple[list[np.ndarray], np.ndarray]:
    """Stratified subset index lists plus the remaining holdout indices.

    Each subset preserves the global class ratio within one sample per class;
    subsets are pairwise disjoint when the plan says so. Labels of one class,
    or a plan that leaves the holdout without a class, raise ProtocolError.
    """
    y = np.asarray(labels)
    n = y.size
    if np.unique(y).size < 2:
        raise ProtocolError(f"the labels hold only the classes {np.unique(y).tolist()}; "
                            "the protocol needs both classes")
    alloc = _per_class_allocation(y, plan.subset_size)
    rng = substream(plan.seed, "subsets")

    for c, need in alloc.items():
        available = int(np.count_nonzero(y == c))
        demand = need * plan.n_subsets if plan.disjoint else need
        if demand > available:
            raise ProtocolError(
                f"class {c.item()!r} has {available} rows but the plan needs {demand} "
                f"({need} per subset x {plan.n_subsets} disjoint subsets)"
            )

    subsets: list[list[int]] = [[] for _ in range(plan.n_subsets)]
    for c in sorted(alloc):
        need = alloc[c]
        idx = np.flatnonzero(y == c)
        perm = rng.permutation(idx)
        if plan.disjoint:
            for s in range(plan.n_subsets):
                subsets[s].extend(perm[s * need : (s + 1) * need].tolist())
        else:
            for s in range(plan.n_subsets):
                draw = rng.choice(idx, size=need, replace=False)
                subsets[s].extend(draw.tolist())

    subset_arrays = [np.array(sorted(s), dtype=np.intp) for s in subsets]
    used = np.zeros(n, dtype=bool)
    for s in subset_arrays:
        used[s] = True
    holdout = np.flatnonzero(~used)
    for c in sorted(alloc):
        if not np.any(y[holdout] == c):
            raise ProtocolError(
                f"the subsets take all {int(np.count_nonzero(y == c))} rows of class {c.item()!r}, "
                "but the holdout needs both classes; use fewer or smaller subsets"
            )
    return subset_arrays, holdout


@dataclass
class FinalRun:
    stable_features: list[str]
    stability: StabilityTable
    final_model: object
    train_auc: float
    holdout_auc: float
    holdout_estimate: PerformanceEstimate
    report: dict
    train_indices: np.ndarray = field(repr=False, default=None)
    holdout_indices: np.ndarray = field(repr=False, default=None)


def _thin_points(fpr: np.ndarray, tpr: np.ndarray, max_points: int) -> list[list[float]]:
    n = fpr.size
    if n <= max_points:
        keep = np.arange(n)
    else:
        keep = np.unique(np.linspace(0, n - 1, max_points).round().astype(int))
    return [[float(fpr[i]), float(tpr[i])] for i in keep]


def _refit_winner_signature(winner: ModelConfig, subset_matrix: FeatureMatrix) -> Signature:
    """The winner's selector re-fitted on the whole subset, for stability."""
    return winner.selector.select(SelectionContext(subset_matrix))


class _AccessTracker:
    def __init__(self, n_rows: int):
        self.mask = np.zeros(n_rows, dtype=bool)

    def __call__(self, idx: np.ndarray) -> None:
        self.mask[idx] = True


def run_protocol(
    matrix: FeatureMatrix,
    subset_plan: SubsetPlan,
    space: SearchSpace,
    cv_plan: CVPlan,
    stability_threshold: float = 0.75,
    final_learner=None,
    class_weights=None,
    out_dir: Optional[Path] = None,
    resume: bool = False,
    max_workers: int = 1,
    progress=None,
) -> FinalRun:
    """Run the full protocol and assemble the run report.

    Holdout isolation is enforced: a row-access tracker on the matrix records
    every row the training phases touch, and any overlap with the holdout
    raises HoldoutViolation before the final evaluation is allowed to run.
    """
    final_learner = final_learner or RidgeLearner(lam=1.0)
    labels = matrix.y
    subsets, holdout = draw_subsets(labels, subset_plan)
    union = np.sort(np.concatenate(subsets)) if subset_plan.disjoint else np.unique(
        np.concatenate(subsets)
    )
    if np.intersect1d(union, holdout).size:
        raise ProtocolError("internal error: holdout overlaps training rows")

    for c in np.unique(labels):
        fewest = min(int(np.count_nonzero(labels[idx] == c)) for idx in subsets)
        if fewest < cv_plan.k:
            raise ProtocolError(
                f"a subset holds {fewest} rows of class {c.item()!r}, fewer than the "
                f"{cv_plan.k} folds; use larger subsets or fewer folds"
            )

    subset_dir = None
    if out_dir is not None:
        subset_dir = Path(out_dir) / "subsets"
        subset_dir.mkdir(parents=True, exist_ok=True)

    tracker = _AccessTracker(matrix.n_rows)
    previous_hook = matrix._row_hook
    matrix._row_hook = tracker

    try:
        subset_records: list[dict] = []
        signatures: list[Signature] = []
        for s, subset_idx in enumerate(subsets):
            sub_matrix = matrix.take_rows(subset_idx)
            plan_s = replace(cv_plan, seed=spawn_seed(cv_plan.seed, "subset", s))
            checkpoint = subset_dir / f"subset_{s:02d}.cv.npz" if subset_dir else None
            cv_result = run_rnk_cv(
                sub_matrix,
                space.configs,
                plan_s,
                class_weights=class_weights,
                checkpoint_path=checkpoint,
                resume=resume,
                progress=progress,
                max_workers=max_workers,
            )
            winner, estimate = select_winner(cv_result)
            signature = _refit_winner_signature(winner, sub_matrix)
            subset_records.append({
                "index": s,
                "winner": winner.to_dict(),
                "winner_id": winner.config_id,
                "winner_pooled_auc": cv_result.pooled_auc(winner.config_id),
                "estimate": estimate.to_dict(),
                "signature": list(signature.selected),
                "signature_method": signature.method,
                "signature_hyperparameters": dict(signature.hyperparameters),
                "folds_completed": cv_result.folds_completed,
                "fitted_models": cv_result.fitted_models,
                "stopped_early": cv_result.stopped_early,
                "dropped": {str(k): v for k, v in sorted(cv_result.dropped.items())},
                "n_rows": int(subset_idx.size),
            })
            signatures.append(signature)
            log.info(
                "subset %d/%d: winner %s, corrected AUC %.4f, %d stable-candidate features",
                s + 1, subset_plan.n_subsets, winner.label(), estimate.point,
                len(signature.selected),
            )

        stable, stability = stability_select(signatures, stability_threshold)
        if not stable:
            raise ProtocolError(
                "no feature reached the stability threshold "
                f"{stability_threshold:g}; lower the threshold"
            )

        union_matrix = matrix.take_rows(union)
        train_matrix = union_matrix.take_groups(stable)
        names = [c.name for c in train_matrix.columns]
        model = final_learner.fit(
            train_matrix.X,
            union_matrix.y,
            names,
            class_weights,
            spawn_seed(cv_plan.seed, "final-learner"),
        )
        train_scores = L.predict_scores(model, train_matrix.X, column_names=names)
        train_auc = auc_roc(train_scores, union_matrix.y)

        if tracker.mask[holdout].any():
            touched = int(tracker.mask[holdout].sum())
            raise HoldoutViolation(f"{touched} holdout rows were read during training")
    finally:
        matrix._row_hook = previous_hook

    holdout_matrix = matrix.take_rows(holdout).take_groups(stable)
    holdout_labels = labels[holdout]
    holdout_scores = L.predict_scores(model, holdout_matrix.X, column_names=names)
    # 1000 replicates of up to 100 draws each
    estimate = bootstrap_auc_ci(holdout_scores, holdout_labels, 1000, 0.95,
                                substream(subset_plan.seed, "holdout-ci"), max_redraws=99)
    holdout_auc = estimate.point
    roc = roc_curve(holdout_scores, holdout_labels)

    report = {
        "report_version": 1,
        "search_space": space.summary(),
        "subset_plan": asdict(subset_plan),
        "cv_plan": asdict(cv_plan),
        "stability_threshold": stability_threshold,
        "subsets": subset_records,
        "stability": stability.to_dict(),
        "stable_features": list(stable),
        "final": {
            "learner": final_learner.label(),
            "n_train": int(union.size),
            "n_holdout": int(holdout.size),
            "train_auc": train_auc,
            "holdout_auc": holdout_auc,
            "holdout_ci": [estimate.ci_low, estimate.ci_high],
            "train_holdout_gap": abs(train_auc - holdout_auc),
            "roc_points": _thin_points(roc.fpr, roc.tpr, 2000),
        },
        "counts": {
            "fitted_models_total": sum(s["fitted_models"] for s in subset_records),
            "fitted_models_per_subset": [s["fitted_models"] for s in subset_records],
        },
    }

    return FinalRun(
        stable_features=list(stable),
        stability=stability,
        final_model=model,
        train_auc=train_auc,
        holdout_auc=holdout_auc,
        holdout_estimate=estimate,
        report=report,
        train_indices=union,
        holdout_indices=holdout,
    )
