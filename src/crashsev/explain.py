"""Additive attributions for the final model.

For the linear model the attribution is exact on the log-odds scale:
column j of row i contributes weight_j * (x_ij - column mean over the
explanation rows), and the baseline is the mean prediction, so every row
reconstructs its score to machine precision. Importances are mean absolute
attributions, aggregated to source features by the maximum over encoded
levels, with a 40%-of-best display filter within each feature.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .learners import LinearModel, _check_columns, predict_scores
from .preprocess import ColumnInfo
from .rng import substream
from .stats import auc_roc

log = logging.getLogger(__name__)

__all__ = [
    "ShapMatrix",
    "ImportanceTable",
    "linear_shap",
    "variable_importance",
    "permutation_importance",
    "filter_display_levels",
    "export_summary_plot",
    "write_importance_csv",
]

DISPLAY_LEVEL_FRACTION = 0.4


@dataclass
class ShapMatrix:
    """Per-sample per-column attributions plus the mean-prediction baseline."""

    values: np.ndarray          # (N, p)
    baseline: float             # mean model score over the explanation rows
    columns: list[ColumnInfo]

    def row_reconstruction(self) -> np.ndarray:
        return self.baseline + self.values.sum(axis=1)


@dataclass
class ImportanceTable:
    column_names: list[str]
    column_vi: np.ndarray
    group_vi: dict[str, float]
    ranking: list[tuple[str, float]]     # (source feature, importance) descending
    method: str = "shap"


def linear_shap(model: LinearModel, X: np.ndarray, columns: Sequence[ColumnInfo]) -> ShapMatrix:
    """Exact additive attributions of the linear model on the log-odds scale.

    The baseline population is the explanation rows themselves.
    """
    _check_columns(model.column_names, [c.name for c in columns])
    Xs = model.standardized(np.asarray(X, dtype=np.float64))
    col_means = Xs.mean(axis=0)
    values = model.weights * (Xs - col_means)
    baseline = float(model.intercept + model.weights @ col_means)
    return ShapMatrix(values=values, baseline=baseline, columns=list(columns))


def _group_importance(
    columns: Sequence[ColumnInfo], vi: np.ndarray
) -> tuple[dict[str, float], list[tuple[str, float]]]:
    """Source-feature importance (maximum over its encoded columns) and the
    sources ranked by it, descending, ties by name."""
    group_vi: dict[str, float] = {}
    for info, v in zip(columns, vi):
        group_vi[info.source] = max(group_vi.get(info.source, 0.0), float(v))
    ranking = sorted(group_vi.items(), key=lambda kv: (-kv[1], kv[0]))
    return group_vi, ranking


def variable_importance(shap: ShapMatrix) -> ImportanceTable:
    """Mean absolute attribution per column; a source feature's importance is
    the maximum over its encoded columns."""
    if shap.values.shape[0] < 1:
        raise ValueError("need at least one explained row")
    vi = np.abs(shap.values).mean(axis=0)
    group_vi, ranking = _group_importance(shap.columns, vi)
    return ImportanceTable(
        column_names=[c.name for c in shap.columns],
        column_vi=vi,
        group_vi=group_vi,
        ranking=ranking,
        method="shap",
    )


def permutation_importance(
    model,
    X: np.ndarray,
    labels: np.ndarray,
    columns: Sequence[ColumnInfo],
    seed: int = 0,
    n_repeats: int = 5,
) -> ImportanceTable:
    """AUC drop under column permutation; the fallback when the final learner
    is not linear and exact additive attributions are unavailable."""
    X = np.asarray(X, dtype=np.float64)
    names = [c.name for c in columns]
    base = auc_roc(predict_scores(model, X, column_names=names), labels)
    rng = substream(seed, "permutation-importance")
    vi = np.zeros(X.shape[1])
    for j in range(X.shape[1]):
        drops = []
        for _ in range(n_repeats):
            Xp = X.copy()
            Xp[:, j] = Xp[rng.permutation(X.shape[0]), j]
            drops.append(base - auc_roc(predict_scores(model, Xp, column_names=names), labels))
        vi[j] = max(0.0, float(np.mean(drops)))
    group_vi, ranking = _group_importance(columns, vi)
    return ImportanceTable(
        column_names=names, column_vi=vi, group_vi=group_vi, ranking=ranking,
        method="permutation",
    )


def filter_display_levels(level_vi: dict[str, float]) -> list[str]:
    """Levels worth plotting: importance at least 40% of the feature's best."""
    if not level_vi:
        raise ValueError("empty level group")
    best = max(level_vi.values())
    return [lvl for lvl, v in level_vi.items() if v >= DISPLAY_LEVEL_FRACTION * best]


# ---------------------------------------------------------------------------
# Summary-plot export


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _color_values(col: np.ndarray) -> np.ndarray:
    lo, hi = float(col.min()), float(col.max())
    if hi == lo:
        return np.full(col.size, 0.5)
    return (col - lo) / (hi - lo)


def _displayed_columns(
    shap: ShapMatrix,
    features: Sequence[str],
    vi: np.ndarray,
) -> list[int]:
    """Column indices to plot: features ordered by group importance, levels
    within a feature filtered at 40% of the strongest level."""
    by_source: dict[str, list[int]] = {}
    for i, info in enumerate(shap.columns):
        by_source.setdefault(info.source, []).append(i)
    unknown = [f for f in features if f not in by_source]
    if unknown:
        raise KeyError(
            f"unknown feature(s) {', '.join(map(repr, unknown))}; "
            f"available: {', '.join(sorted(by_source))}"
        )
    group_vi, _ = _group_importance(shap.columns, vi)
    ordered = sorted(features, key=lambda f: (-group_vi[f], f))
    chosen: list[int] = []
    for src in ordered:
        idx = by_source[src]
        level_vi = {shap.columns[i].name: float(vi[i]) for i in idx}
        keep = set(filter_display_levels(level_vi))
        kept = [i for i in idx if shap.columns[i].name in keep]
        kept.sort(key=lambda i: (-float(vi[i]), shap.columns[i].name))
        chosen.extend(kept)
    return chosen


def export_summary_plot(
    shap: ShapMatrix,
    X: np.ndarray,
    features: Sequence[str],
    csv_path,
    svg_path=None,
    seed: int = 0,
) -> None:
    """Write beeswarm plot data (and optionally a self-contained SVG).

    One CSV record per displayed column and explained row: the attribution
    and a min-max color value of the raw feature (constant columns map to
    0.5). Output is deterministic for fixed inputs and seed.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape != shap.values.shape:
        raise ValueError("X must align with the attribution matrix")
    vi = np.abs(shap.values).mean(axis=0)
    chosen = _displayed_columns(shap, features, vi)

    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("feature,level,row_index,shap_value,color_value\n")
        for i in chosen:
            info = shap.columns[i]
            colors = _color_values(X[:, i])
            for r in range(X.shape[0]):
                fh.write(
                    f"{info.source},{info.level},{r},"
                    f"{_fmt(float(shap.values[r, i]))},{_fmt(float(colors[r]))}\n"
                )

    if svg_path is not None:
        _write_beeswarm_svg(shap, X, chosen, svg_path, seed)


def _lerp_color(t: float) -> str:
    blue = (31, 119, 237)
    red = (237, 28, 86)
    r = round(blue[0] + (red[0] - blue[0]) * t)
    g = round(blue[1] + (red[1] - blue[1]) * t)
    b = round(blue[2] + (red[2] - blue[2]) * t)
    return f"rgb({r},{g},{b})"


def _write_beeswarm_svg(
    shap: ShapMatrix,
    X: np.ndarray,
    chosen: list[int],
    svg_path,
    seed: int,
) -> None:
    row_height = 36
    left, right, top, bottom = 250, 30, 24, 34
    plot_width = 560
    width = left + plot_width + right
    height = top + row_height * len(chosen) + bottom
    max_abs = max(1e-12, float(np.abs(shap.values[:, chosen]).max()))

    def x_pos(v: float) -> float:
        return left + plot_width / 2.0 + (v / max_abs) * (plot_width / 2.0 - 6)

    rng = substream(seed, "beeswarm-jitter")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{x_pos(0.0):.2f}" y1="{top}" x2="{x_pos(0.0):.2f}" '
        f'y2="{height - bottom}" stroke="#888" stroke-width="1"/>',
    ]
    for band, i in enumerate(chosen):
        info = shap.columns[i]
        cy = top + row_height * band + row_height / 2.0
        label = info.name
        parts.append(
            f'<text x="{left - 8}" y="{cy + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{_xml_escape(label)}</text>'
        )
        colors = _color_values(X[:, i])
        jitter = rng.uniform(-row_height * 0.34, row_height * 0.34, size=X.shape[0])
        for r in range(X.shape[0]):
            parts.append(
                f'<circle cx="{x_pos(float(shap.values[r, i])):.2f}" '
                f'cy="{cy + jitter[r]:.2f}" r="2.2" '
                f'fill="{_lerp_color(float(colors[r]))}" fill-opacity="0.75"/>'
            )
    parts.append(
        f'<text x="{left + plot_width / 2.0:.2f}" y="{height - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">attribution (log-odds)</text>'
    )
    parts.append("</svg>")
    with open(svg_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


def _xml_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


def write_importance_csv(table: ImportanceTable, path) -> None:
    """Group ranking then per-column detail, both descending."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("kind,name,importance\n")
        for name, v in table.ranking:
            fh.write(f"feature,{name},{_fmt(v)}\n")
        order = np.argsort(-table.column_vi, kind="mergesort")
        for i in order:
            fh.write(f"column,{table.column_names[i]},{_fmt(float(table.column_vi[i]))}\n")
