"""Feature-selection methods of the search space.

Selection operates on source-feature groups (a group is one source feature
with all of its encoded columns), matching how the final signature is
reported. SES runs the forward/backward conditional-independence search,
LASSO the coordinate-descent L1 path point, and the univariate method a
BH-corrected screen. A per-dataset cache shares LRT results across
hyperparameter settings and takes its requests as lists of (candidate group,
conditioning groups) pairs: each SES forward step asks every pair at once,
the backward phase one subset size at a time, and the missing tests are
fitted as batched likelihood-ratio tests.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.special import expit

from .preprocess import FeatureMatrix
from .stats import NullFit, PValue, bh_select, fit_null_logistic, lrt_ci_test_many

log = logging.getLogger(__name__)

__all__ = [
    "Signature",
    "StabilityTable",
    "CITestCache",
    "ses_select",
    "LassoDesign",
    "lasso_design",
    "lasso_select",
    "univariate_select",
    "check_stability_plan",
    "stability_select",
]

COEF_NONZERO_TOL = 1e-10
# Largest design array (candidates x rows x columns) of one batched LRT solve;
# the solve holds about three arrays of this size at once.
LRT_BATCH_ELEMENTS = 1 << 21


@dataclass
class Signature:
    """Feature groups chosen by one selector run."""

    selected: list[str]
    method: str
    hyperparameters: dict
    converged: bool = True

    def __post_init__(self) -> None:
        if len(set(self.selected)) != len(self.selected):
            raise ValueError("signature contains duplicate feature groups")


class CITestCache:
    """Memoized likelihood-ratio conditional-independence tests on one dataset.

    Keys are (candidate group, frozenset of conditioning groups); SES runs at
    different alpha or kmax on the same training rows share every test.
    """

    def __init__(self, matrix: FeatureMatrix):
        self.matrix = matrix
        self.groups = matrix.group_names()
        self._cache: dict[tuple[str, frozenset], PValue] = {}
        self._nulls: dict[frozenset, NullFit] = {}

    def width(self, group: str) -> int:
        return int(self.matrix.groups[group].size)

    def _z_columns(self, z_groups: frozenset) -> Optional[np.ndarray]:
        if not z_groups:
            return None
        cols = np.concatenate([self.matrix.groups[g] for g in sorted(z_groups)])
        return self.matrix.X[:, cols]

    def pvalues(self, requests: Sequence[tuple[str, frozenset]]) -> list[PValue]:
        """p-values of the (candidate group, conditioning groups) pairs, in order.

        Each missing null is fitted once; the missing tests are fitted in one
        batch per (conditioning width, candidate width), split so that no
        batch's design array exceeds LRT_BATCH_ELEMENTS.
        """
        missing = [r for r in dict.fromkeys(requests) if r not in self._cache]
        X, y = self.matrix.X, self.matrix.y
        batches: dict[tuple[int, int], list[tuple[str, frozenset]]] = {}
        for g, z in missing:
            if z not in self._nulls:
                self._nulls[z] = fit_null_logistic(y, self._z_columns(z))
            z_width = sum(self.width(h) for h in z)
            batches.setdefault((z_width, self.width(g)), []).append((g, z))
        for (z_width, width), pairs in sorted(batches.items()):
            step = max(1, LRT_BATCH_ELEMENTS // (X.shape[0] * (1 + z_width + width)))
            for start in range(0, len(pairs), step):
                chunk = pairs[start:start + step]
                zs = {z: self._z_columns(z) for _, z in chunk}
                results = lrt_ci_test_many(
                    [X[:, self.matrix.groups[g]] for g, _ in chunk], y,
                    [zs[z] for _, z in chunk],
                    null=[self._nulls[z] for _, z in chunk],
                )
                self._cache.update(zip(chunk, results))
        return [self._cache[r] for r in requests]


def ses_select(
    matrix: FeatureMatrix,
    kmax: int,
    alpha: float,
    cache: Optional[CITestCache] = None,
) -> Signature:
    """Forward/backward selection driven by conditional-independence tests.

    Forward: repeatedly add the candidate with the smallest worst-case
    (max over conditioning subsets of the selected set, sizes <= kmax)
    p-value, dropping candidates whose worst case exceeds alpha for good;
    each step asks every (conditioning set, alive candidate) pair as one
    batch. Backward: remove any selected group rendered conditionally
    independent (p > alpha) by some subset of the others, one batch per
    subset size, smallest first. Returns the single surviving signature.
    """
    if not 1 <= kmax <= 5:
        raise ValueError("kmax must be in 1..5")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    cache = cache or CITestCache(matrix)
    groups = list(cache.groups)
    hyper = {"kmax": kmax, "alpha": alpha}

    res = cache.pvalues([(g, frozenset()) for g in groups])
    pmax = {g: r.value for g, r in zip(groups, res)}
    alive = [g for g in groups if pmax[g] <= alpha]
    selected: list[str] = []

    while alive:
        best = min(alive, key=lambda g: (pmax[g], g))
        selected.append(best)
        alive.remove(best)
        if not alive:
            break
        older = selected[:-1]
        requests = [
            (g, frozenset(combo) | {best})
            for size in range(0, kmax)
            for combo in combinations(older, size)
            for g in alive
        ]
        for (g, _), r in zip(requests, cache.pvalues(requests)):
            pmax[g] = max(pmax[g], r.value)
        alive = [g for g in alive if pmax[g] <= alpha]

    # backward: drop groups made redundant by later additions
    retained = list(selected)
    for g in selected:
        others = [h for h in retained if h != g]
        for size in range(0, min(kmax, len(others)) + 1):
            requests = [(g, frozenset(combo)) for combo in combinations(others, size)]
            if any(r.value > alpha for r in cache.pvalues(requests)):
                retained.remove(g)
                break

    return Signature(selected=retained, method="SES", hyperparameters=hyper)


# ---------------------------------------------------------------------------
# LASSO logistic regression by cyclic coordinate descent


# Unit roundoff of float64.
_UNIT_ROUNDOFF = 2.0 ** -53
# Added to each norm in the screen's error bound; it covers the absolute
# error of products that underflow, which the relative bound omits.
_UNDERFLOW_FLOOR = 2.0 ** -480


def _lasso_cd(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    max_outer: int = 100,
    max_inner: int = 1000,
    tol: float = 1e-7,
) -> tuple[np.ndarray, float, bool]:
    """L1-penalized logistic regression on already-standardized columns.

    Quadratic majorization (IRLS working response) with cyclic coordinate
    descent and soft thresholding; the intercept is unpenalized.

    A zero coefficient is visited only when a screen cannot show that its
    step leaves it at zero; a skipped step is one that would change
    nothing, so the result is the same, bit for bit, as visiting every
    coordinate. Each sweep starts from one product, c = X'(w*r)/n, which
    estimates every column's correlation with the residual, and keeps it
    current by subtracting step * X'(w*x_k)/n (the weighted Gram column,
    Friedman, Hastie & Tibshirani 2010) when coefficient k moves. The step
    at a zero coefficient j computes num_j as the rounded dot product
    w'(x_j*r)/n and keeps zero when |num_j| <= lam, so it is skipped when
    |c_j| + slack_j < lam, where slack_j bounds |num_j - c_j|.

    The bound (standard model of rounding, Higham 2002, ch. 3): a dot
    product of n terms, in any summation order, errs by at most about n*u
    times the sum of the terms' magnitudes, u = 2^-53, and by Cauchy-Schwarz
    that sum is at most ||x_j|| ||w*r|| / n. Adding the errors of c's
    product, of each Gram column, of each update to c and to r, and of the
    step's own dot product gives

        |num_j - c_j| <= (1 + 2^-8) (3n + 2p + 8) u ||x_j|| R / n,

    while (3n + 2p + 16) u <= 2^-10, where R = ||w*r|| at the sweep's start
    plus |step| ||w*x_k|| for each move since. slack_j is twice that, with
    u's factor rounded up to 3n + 2p + 16, which also covers the rounding of
    the norms and of the test; every norm gains _UNDERFLOW_FLOOR. The
    condition holds below about 10^12 rows (the paper's matrix has 2.3M);
    past it nothing is skipped. A NaN or an overflow fails the test.

    The screen costs one full pass over X per sweep, for c, and one per
    coefficient that moves in an outer iteration, for its Gram column. A
    sweep that cannot skip anything, because lam is 0 or no coefficient is
    zero when it starts, does none of that work and runs the exact steps
    alone.
    """
    n, p = X.shape
    yf = y.astype(np.float64)
    ybar = yf.mean()
    beta = np.zeros(p)
    b0 = float(np.log(ybar / (1.0 - ybar))) if 0.0 < ybar < 1.0 else 0.0
    factor = 2.0 * (3 * n + 2 * p + 16) * _UNIT_ROUNDOFF
    if factor > 2.0 ** -9:
        factor = math.inf
    col_slack = (factor * (np.sqrt(np.einsum("ij,ij->j", X, X)) + _UNDERFLOW_FLOOR) / n).tolist()

    converged = False
    for _ in range(max_outer):
        eta = b0 + X @ beta
        mu = expit(eta)
        w = np.clip(mu * (1.0 - mu), 1e-5, None)
        z = eta + (yf - mu) / w
        wsum = w.sum()
        denom = ((w[:, None] * X * X).sum(axis=0) / n).tolist()
        gram: dict[int, tuple[np.ndarray, float]] = {}  # k -> (X'(w*x_k)/n, ||w*x_k||)

        r = z - eta  # residual of the working response
        inner_done = False
        for _sweep in range(max_inner):
            # only a coefficient that is zero when the sweep starts can be
            # skipped, and none can be at lam = 0
            screen = lam > 0.0 and not beta.all()
            if screen:
                wr = w * r
                c = X.T @ wr / n
                bound = math.sqrt(float(wr @ wr)) + _UNDERFLOW_FLOOR
            delta = 0.0
            for j in range(p):
                bj = float(beta[j])
                if screen and bj == 0.0 and abs(c[j]) + col_slack[j] * bound < lam:
                    continue
                d = denom[j]
                num = float(w @ (X[:, j] * r)) / n + d * bj
                # np.sign(-0.0) is +0.0; adding 0.0 gives copysign that sign
                new = math.copysign(max(abs(num) - lam, 0.0), num + 0.0) / d if d > 0 else 0.0
                if new != bj:
                    step = new - bj
                    r -= X[:, j] * step
                    beta[j] = new
                    delta = max(delta, abs(step))
                    if screen:
                        if j not in gram:
                            wx = w * X[:, j]
                            gram[j] = (X.T @ wx / n, math.sqrt(float(wx @ wx)) + _UNDERFLOW_FLOOR)
                        column, weighted_norm = gram[j]
                        c -= step * column
                        bound += abs(step) * weighted_norm
            shift = float(w @ r) / wsum
            if shift != 0.0:
                b0 += shift
                r -= shift
                delta = max(delta, abs(shift))
            if delta < tol:
                inner_done = True
                break
        new_eta = b0 + X @ beta
        if inner_done and float(np.max(np.abs(new_eta - eta))) < tol * 10:
            converged = True
            break
    return beta, b0, converged


class LassoDesign(NamedTuple):
    """The penalty-free part of a lasso fit on one matrix: the standardized
    columns and lambda_max, the smallest strength zeroing every coefficient."""

    Xs: np.ndarray
    lam_max: float


def lasso_design(matrix: FeatureMatrix) -> LassoDesign:
    """Columns centred and scaled to unit variance (a constant column keeps
    scale 1), and lambda_max on them."""
    X = matrix.X
    y = matrix.y.astype(np.float64)
    means = X.mean(axis=0)
    scales = X.std(axis=0)
    scales = np.where(scales > 0, scales, 1.0)
    Xs = (X - means) / scales
    lam_max = float(np.max(np.abs(Xs.T @ (y - y.mean()))) / X.shape[0]) if X.shape[1] else 0.0
    return LassoDesign(Xs, lam_max)


def lasso_select(
    matrix: FeatureMatrix,
    penalty: float,
    design: Optional[LassoDesign] = None,
) -> Signature:
    """Groups with any nonzero coefficient under an L1 logistic fit.

    The unitless penalty in [0, 2] maps to penalty * lambda_max / 2, so 2.0
    forces the empty model and 0 is unpenalized. ``design`` is
    ``lasso_design(matrix)``, passed in when several penalties share it.
    """
    if penalty < 0:
        raise ValueError("penalty must be nonnegative")
    if design is None:
        design = lasso_design(matrix)
    lam = penalty * design.lam_max / 2.0
    beta, _, converged = _lasso_cd(design.Xs, matrix.y, lam)
    if not converged:
        log.warning("lasso_select(penalty=%g) hit the iteration budget; flagged", penalty)

    selected = [
        g for g, cols in matrix.groups.items()
        if np.any(np.abs(beta[cols]) > COEF_NONZERO_TOL)
    ]
    return Signature(selected=selected, method="Lasso",
                     hyperparameters={"penalty": penalty}, converged=converged)


def univariate_select(
    matrix: FeatureMatrix,
    alpha: float,
    cache: Optional[CITestCache] = None,
) -> Signature:
    """Per-group unconditional LRT screen with BH correction at level alpha."""
    cache = cache or CITestCache(matrix)
    groups = list(cache.groups)
    if not groups:
        return Signature(selected=[], method="Univariate", hyperparameters={"alpha": alpha})
    pvals = np.array([r.value for r in cache.pvalues([(g, frozenset()) for g in groups])])
    rejected = sorted(bh_select(pvals, alpha), key=lambda i: (pvals[i], groups[i]))
    return Signature(selected=[groups[i] for i in rejected], method="Univariate", hyperparameters={"alpha": alpha})


# ---------------------------------------------------------------------------
# Cross-subset stability


@dataclass
class StabilityTable:
    """Per-feature selection counts over the subset runs."""

    counts: dict[str, int]
    n_runs: int
    threshold: float
    runs: list[list[str]]

    def stable_features(self) -> list[str]:
        keep = [f for f, c in self.counts.items() if c / self.n_runs >= self.threshold]
        keep.sort(key=lambda f: (-self.counts[f], f))
        return keep

    def to_dict(self) -> dict:
        return {
            "counts": dict(sorted(self.counts.items())),
            "n_runs": self.n_runs,
            "threshold": self.threshold,
            "runs": [list(r) for r in self.runs],
        }

    def matrix_lines(self) -> list[str]:
        """feature x run presence grid for terminal display; a stable feature
        ends in " *"."""
        header = "feature".ljust(36) + " ".join(f"run{i+1}" for i in range(self.n_runs)) + "  count"
        lines = [header]
        run_sets = [set(r) for r in self.runs]
        stable = set(self.stable_features())
        for f in sorted(self.counts, key=lambda f: (-self.counts[f], f)):
            marks = " ".join(("  x " if f in rs else "  . ") for rs in run_sets)
            star = " *" if f in stable else ""
            lines.append(f.ljust(36) + marks + f"  {self.counts[f]}/{self.n_runs}{star}")
        return lines


def check_stability_plan(n_runs: int, threshold: float) -> None:
    """Raise ValueError unless there are at least 2 runs and 0 < threshold <= 1."""
    if n_runs < 2:
        raise ValueError(f"stability aggregation needs at least 2 runs, not {n_runs}")
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"stability threshold must be in (0, 1], not {threshold:g}")


def stability_select(
    signatures: Sequence[Signature],
    threshold: float,
) -> tuple[list[str], StabilityTable]:
    """Features selected in at least threshold of the runs.

    threshold 0.75 over four runs keeps features present in at least three.
    """
    check_stability_plan(len(signatures), threshold)
    counts: dict[str, int] = {}
    for sig in signatures:
        for f in sig.selected:
            counts[f] = counts.get(f, 0) + 1
    table = StabilityTable(
        counts=counts,
        n_runs=len(signatures),
        threshold=threshold,
        runs=[list(s.selected) for s in signatures],
    )
    return table.stable_features(), table
