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
    "check_features",
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


# Rows of one displayed column formatted and written per write call.
PLOT_BLOCK_ROWS = 4096

# The plot's colour scale, blue at colour value 0 to red at 1, one channel
# per entry.
_BLUE = np.array([31.0, 119.0, 237.0])
_RED = np.array([237.0, 28.0, 86.0])


def check_features(columns: Sequence[ColumnInfo], features: Sequence[str]) -> None:
    """Raise KeyError naming every feature that no column comes from."""
    sources = {info.source for info in columns}
    unknown = [f for f in features if f not in sources]
    if unknown:
        raise KeyError(
            f"unknown feature(s) {', '.join(map(repr, unknown))}; "
            f"available: {', '.join(sorted(sources))}"
        )


def _displayed_columns(
    shap: ShapMatrix,
    features: Sequence[str],
    table: ImportanceTable,
) -> list[int]:
    """Column indices to plot: features ordered by group importance, levels
    within a feature filtered at 40% of the strongest level."""
    check_features(shap.columns, features)
    by_source: dict[str, list[int]] = {}
    for i, info in enumerate(shap.columns):
        by_source.setdefault(info.source, []).append(i)
    vi, group_vi = table.column_vi, table.group_vi
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


def _column_blocks(shap: ShapMatrix, X: np.ndarray, i: int):
    """Column ``i`` in blocks of at most ``PLOT_BLOCK_ROWS`` rows: (first row,
    attributions, min-max colour values of the raw feature). A constant
    column's colour value is 0.5."""
    col = X[:, i]
    lo, hi = float(col.min()), float(col.max())
    for start in range(0, col.size, PLOT_BLOCK_ROWS):
        block = col[start:start + PLOT_BLOCK_ROWS]
        colors = np.full(block.size, 0.5) if hi == lo else (block - lo) / (hi - lo)
        yield start, shap.values[start:start + block.size, i], colors


def _format_rows(template: str, *columns: list) -> str:
    """``template`` once per row, filled with the row's entry of each column
    in turn: one ``%`` operation for the whole block."""
    n = len(columns[0])
    values = [None] * (n * len(columns))
    for k, column in enumerate(columns):
        values[k::len(columns)] = column
    return (template * n) % tuple(values)


def export_summary_plot(
    shap: ShapMatrix,
    table: ImportanceTable,
    X: np.ndarray,
    features: Sequence[str],
    csv_path,
    svg_path=None,
    seed: int = 0,
) -> None:
    """Write beeswarm plot data (and optionally a self-contained SVG).

    One CSV record per displayed column and explained row: the attribution
    and a min-max color value of the raw feature (constant columns map to
    0.5). ``table`` is ``variable_importance(shap)``, which orders the
    columns. Both files are written ``PLOT_BLOCK_ROWS`` rows at a time, so
    the memory they need does not grow with the rows. Output is
    deterministic for fixed inputs and seed.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape != shap.values.shape:
        raise ValueError("X must align with the attribution matrix")
    if table.column_names != [c.name for c in shap.columns]:
        raise ValueError("the importance table must describe the attribution matrix's columns")
    chosen = _displayed_columns(shap, features, table)

    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("feature,level,row_index,shap_value,color_value\n")
        for i in chosen:
            info = shap.columns[i]
            # %.17g is _fmt's format
            record = f"{info.source},{info.level},".replace("%", "%%") + "%d,%.17g,%.17g\n"
            for start, values, colors in _column_blocks(shap, X, i):
                rows = range(start, start + values.size)
                fh.write(_format_rows(record, rows, values.tolist(), colors.tolist()))

    if svg_path is not None:
        _write_beeswarm_svg(shap, X, chosen, svg_path, seed)


def _rgb_channels(t: np.ndarray) -> np.ndarray:
    """The red, green and blue channels of every colour value in ``t``, one
    row each: ``round(blue + (red - blue) * t)`` per channel, where ``rint``
    rounds half to even as ``round`` does."""
    if not np.isfinite(t).all():
        raise ValueError("colour values must be finite")
    return np.rint(_BLUE + (_RED - _BLUE) * t[:, None]).astype(np.int64)


_CIRCLE = '<circle cx="%.2f" cy="%.2f" r="2.2" fill="rgb(%d,%d,%d)" fill-opacity="0.75"/>\n'


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
    max_abs = max([1e-12, *(float(np.abs(shap.values[:, i]).max()) for i in chosen)])

    def x_pos(v):
        return left + plot_width / 2.0 + (v / max_abs) * (plot_width / 2.0 - 6)

    rng = substream(seed, "beeswarm-jitter")
    with open(svg_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n'
            f'<rect width="{width}" height="{height}" fill="white"/>\n'
            f'<line x1="{x_pos(0.0):.2f}" y1="{top}" x2="{x_pos(0.0):.2f}" '
            f'y2="{height - bottom}" stroke="#888" stroke-width="1"/>\n'
        )
        for band, i in enumerate(chosen):
            cy = top + row_height * band + row_height / 2.0
            fh.write(
                f'<text x="{left - 8}" y="{cy + 4:.2f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="12">'
                f'{_xml_escape(shap.columns[i].name)}</text>\n'
            )
            for _, values, colors in _column_blocks(shap, X, i):
                # drawn a block at a time, the jitter is the same stream of draws
                jitter = rng.uniform(-row_height * 0.34, row_height * 0.34, size=values.size)
                rgb = _rgb_channels(colors)
                fh.write(_format_rows(_CIRCLE, x_pos(values).tolist(), (cy + jitter).tolist(),
                                      *(rgb[:, c].tolist() for c in range(3))))
        fh.write(
            f'<text x="{left + plot_width / 2.0:.2f}" y="{height - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">attribution (log-odds)</text>\n'
            "</svg>\n"
        )


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
