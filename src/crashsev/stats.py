"""Statistical kernels shared by feature selection and tuning.

AUC-ROC from one exact weighted kernel, the nested-logistic likelihood-ratio
conditional-independence test, Benjamini-Hochberg step-up selection,
stratified fold assignment, and one bootstrap, which draws and summarises
the replicates of both the bias correction of the winning configuration's
score and the holdout AUC's interval.

Every AUC comes from one kernel: a score vector is sorted into tie groups
once, and each row of a (replicates, n) block of integer weights is scored
from int64 prefix sums at the group ends. The class totals and twice the
Mann-Whitney pair count are integers below 2^42 even at 2.3M rows, so they
are exact in any order or blocking and the one float64 division rounds once:
unit, bootstrap and 0/1 out-of-bag weights all give an exact pair count's bits.

The likelihood-ratio tests run in batches of (candidate, conditioning-set)
pairs: every pair brings its own conditioning columns and null fit, and the
whole batch is one Newton solve on stacked design arrays with batched matmul.
A pair's result does not depend on the batch it is fitted in.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "PValue",
    "RocCurve",
    "PerformanceEstimate",
    "NullFit",
    "SingleClassError",
    "expit",
    "chi2_sf",
    "auc_roc",
    "roc_curve",
    "fit_null_logistic",
    "lrt_ci_test",
    "lrt_ci_test_many",
    "bh_select",
    "stratified_folds",
    "bbc_correct",
    "bootstrap_auc_ci",
]

log = logging.getLogger(__name__)

LOGISTIC_MAX_ITER = 100
LOGISTIC_GRAD_TOL = 1e-8
LOGISTIC_DEV_TOL = 1e-10
MIN_BBC_BOOT = 100  # the fewest bootstrap replicates bbc_correct accepts
REPLICATE_BLOCK_ELEMENTS = 1 << 16  # cap on a (replicates, n) block of bootstrap weights


class SingleClassError(ValueError):
    """A metric that needs both classes saw only one."""


@dataclass(frozen=True)
class PValue:
    """Result of one likelihood-ratio conditional-independence test."""

    value: float
    statistic: float
    dof: int
    converged: bool = True


@dataclass(frozen=True)
class RocCurve:
    fpr: np.ndarray
    tpr: np.ndarray


@dataclass(frozen=True)
class PerformanceEstimate:
    """A bootstrap point estimate with a percentile confidence interval;
    ``n_boot`` replicates were scored and ``n_skipped`` skipped."""

    point: float
    ci_low: float
    ci_high: float
    ci_level: float
    n_boot: int
    n_skipped: int = 0
    naive_point: float = float("nan")

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Special functions


def expit(x):
    """The logistic function 1 / (1 + exp(-x)), elementwise. Where exp(-x)
    overflows (x below about -709) the result is 0.0, without a warning."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


_HALF_SQRT_PI = math.sqrt(math.pi) / 2.0  # Gamma(3/2)
_MAX_FLOAT = float(np.finfo(np.float64).max)


def chi2_sf(df: int, x):
    """P(X > x) for X chi-square with ``df`` degrees of freedom, elementwise.

    ``df`` must be a positive integer: its survival function then has a
    closed form (Abramowitz & Stegun 26.4.4-26.4.5). With h = x / 2, it is
    exp(-h) * sum_{0 <= i < k} h**i / i! for df = 2k, and
    erfc(sqrt(h)) + exp(-h) * sum_{1 <= i <= k} h**(i - 1/2) / Gamma(i + 1/2)
    for df = 2k + 1. Each term carries one factor exp(-h/2) and the sum the
    other, so a value that is a normal float is not lost where exp(-h) alone
    would underflow. x <= 0 gives 1.0, x = inf gives 0.0 and NaN stays NaN.
    """
    if isinstance(df, bool) or not isinstance(df, (int, np.integer)) or df < 1:
        raise ValueError(f"chi2_sf needs a positive integer df, got {df!r}")
    # inf is read as the largest float, whose terms are all 0 * h = 0
    h = np.clip(np.asarray(x, dtype=np.float64), 0.0, _MAX_FLOAT) / 2.0
    half = np.exp(-h / 2.0)
    odd = df % 2
    if odd:
        root = np.sqrt(h)
        head = np.array([math.erfc(v) for v in root.ravel().tolist()]).reshape(h.shape)
        term = root / _HALF_SQRT_PI * half  # h**(1/2) / Gamma(3/2), times exp(-h/2)
    else:
        head = 0.0
        term = half  # h**0 / 0!, times exp(-h/2)
    total = 0.0
    for j in range(df // 2):
        if j:
            term = term * h / (j + 0.5 * odd)
        total = total + term
    return head + total * half


# ---------------------------------------------------------------------------
# AUC-ROC


def _split_labels(labels) -> tuple[np.ndarray, int, int]:
    y = np.asarray(labels)
    pos = y == 1
    npos = int(np.count_nonzero(pos))
    nneg = int(y.size - npos)
    if npos == 0 or nneg == 0:
        raise SingleClassError("undefined AUC: labels contain a single class")
    return pos, npos, nneg


def _sorted_tie_groups(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ascending order permutation, offset of each tie group's last member
    in sorted order)."""
    perm = np.argsort(scores, kind="mergesort")
    s = scores[perm]
    last = np.flatnonzero(np.r_[s[1:] != s[:-1], True])
    return perm, last


def _weighted_aucs(groups: tuple[np.ndarray, np.ndarray], pos: np.ndarray, weights) -> np.ndarray:
    """AUC of one score vector, grouped by ``_sorted_tie_groups``, under each
    row of a (b, n) integer or boolean weight block with weight on both classes."""
    perm, last = groups
    w = np.take(weights, perm, axis=1).astype(np.int64, copy=False)
    # positive and negative weight at or below each tie group's top score
    cpos = np.cumsum(w * pos[perm].astype(np.int64), axis=1)[:, last]
    cneg = np.cumsum(w, axis=1)[:, last]
    cneg -= cpos
    # twice (pairs ranked right + half the tied ones): the positives of
    # group g beat cneg[g-1] negatives and tie with cneg[g] - cneg[g-1]
    gpos = cpos.copy()
    gpos[:, 1:] -= cpos[:, :-1]
    twice = np.einsum("bg,bg->b", gpos, cneg) + np.einsum("bg,bg->b", gpos[:, 1:], cneg[:, :-1])
    return twice / (2 * cpos[:, -1] * cneg[:, -1])


def auc_roc(scores, labels) -> float:
    """Mann-Whitney AUC: P(score+ > score-) + 0.5 * P(score+ = score-).

    The unit-weight case of the weighted-AUC kernel: O(n log n), and
    bit-identical to O(n^2) pair counting.
    """
    s = np.asarray(scores, dtype=np.float64)
    pos, _, _ = _split_labels(labels)
    if s.size != pos.size:
        raise ValueError("scores and labels differ in length")
    ones = np.ones((1, s.size), dtype=np.int64)
    return float(_weighted_aucs(_sorted_tie_groups(s), pos, ones)[0])


def roc_curve(scores, labels) -> RocCurve:
    """ROC points from a descending threshold sweep, tie groups collapsed."""
    s = np.asarray(scores, dtype=np.float64)
    pos, npos, nneg = _split_labels(labels)
    perm, last = _sorted_tie_groups(s)
    # positives and negatives scoring at or above each group, top group first
    below = np.r_[0, last[:-1] + 1]
    tp = npos - np.r_[0, np.cumsum(pos[perm])][below][::-1]
    fp = (s.size - below)[::-1] - tp
    tpr = np.r_[0.0, tp / npos]
    fpr = np.r_[0.0, fp / nneg]
    return RocCurve(fpr=fpr, tpr=tpr)


# ---------------------------------------------------------------------------
# Logistic likelihood-ratio test


def _eta_many(A: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Linear predictor per candidate: (C, n, m) @ (C, m) -> (C, n)."""
    return (A @ beta[:, :, None])[:, :, 0]


def _nll_many(eta: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted negative log-likelihood per candidate, sum_n w (softplus(eta)
    - y eta), with softplus(eta) = max(eta, 0) + log1p(exp(-|eta|)).

    That is log(1 + exp(eta)) without overflow at any eta: the formula of
    ``np.logaddexp(0, eta)``, which calls scalar libm per element, here in
    numpy's vectorised exp and log1p. numpy's reference states no accuracy
    for these ufuncs; its AVX-512 float64 kernels are stated to within 4 ulp
    (its own accuracy test holds exp and log1p to 1 ulp on sample points
    only). Taking 4 ulp for each exp and log1p, numpy's and libm's alike:
    log1p(u) passes a relative error of u on to its result at most 1:1, so
    log1p(exp(-|eta|)) is within 8 eps relative, and adding max(eta, 0) >= 0
    rounds once more, so each softplus is within 8.5 eps relative of the
    exact value and the two within 17 eps (35 ulp) of each other, far below
    the solver's 1e-10 relative stopping rule. Every step is elementwise
    and einsum sums each row on its own (a BLAS matrix-vector product over
    the stack would make a row's last bits depend on the batch size), so a
    row gives the same bits in any batch.
    """
    loss = np.abs(eta)
    np.negative(loss, out=loss)
    np.exp(loss, out=loss)
    np.log1p(loss, out=loss)
    part = np.maximum(eta, 0.0)
    loss += part
    np.multiply(eta, y, out=part)
    loss -= part
    return np.einsum("cn,n->c", loss, w)


def _solve_rows(
    hess: np.ndarray, grad: np.ndarray, skip: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps for a batch, and the rows whose Hessian is singular.

    One singular Hessian makes the batched solve raise, so the batch is then
    solved row by row (rows in ``skip`` left at zero) and only that row fails.
    """
    singular = np.zeros(grad.shape[0], dtype=bool)
    try:
        return np.linalg.solve(hess, grad[:, :, None])[:, :, 0], singular
    except np.linalg.LinAlgError:
        step = np.zeros_like(grad)
        for i in np.flatnonzero(~skip):
            try:
                step[i] = np.linalg.solve(hess[i], grad[i])
            except np.linalg.LinAlgError:
                singular[i] = True
        return step, singular


def _newton_logistic_many(
    A: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    beta0: np.ndarray | None = None,
    pen: np.ndarray | None = None,
    max_iter: int = LOGISTIC_MAX_ITER,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit C logistic models sharing (y, w): A is (C, n, m).

    ``pen`` (m,) adds the ridge term 0.5 * sum(pen * beta**2) to each row's
    objective. Returns (beta (C, m), -objective (C,), converged (C,) bool);
    without ``pen`` the second item is the log-likelihood. Convergence is
    gradient norm < 1e-8 or objective change < 1e-10 relative; iteration
    exhaustion or numerical breakdown leaves converged False. Each row's fit
    depends on that row alone, so a test gives the same bits in any batch.
    """
    C, n, m = A.shape
    yf = np.asarray(y, dtype=np.float64)
    beta = np.zeros((C, m)) if beta0 is None else np.array(beta0, dtype=np.float64)
    At = A.transpose(0, 2, 1)
    ridge = 1e-12 * np.eye(m) if pen is None else np.diag(pen) + 1e-12 * np.eye(m)

    def objective(eta: np.ndarray, beta: np.ndarray) -> np.ndarray:
        nll = _nll_many(eta, yf, w)
        return nll if pen is None else nll + 0.5 * np.einsum("cm,m->c", beta * beta, pen)

    def trial(new_beta: np.ndarray, obj: np.ndarray, active: np.ndarray):
        """The trial point's eta and objective, and the active rows it makes worse."""
        new_eta = _eta_many(A, new_beta)
        new_obj = objective(new_eta, new_beta)
        return new_eta, new_obj, active & ((new_obj > obj + 1e-12) | ~np.isfinite(new_obj))

    eta = _eta_many(A, beta)
    obj = objective(eta, beta)
    done = np.zeros(C, dtype=bool)
    failed = np.zeros(C, dtype=bool)

    for _ in range(max_iter):
        mu = expit(eta)
        grad = (At @ (w * (yf - mu))[:, :, None])[:, :, 0]
        if pen is not None:
            grad -= pen * beta
        done |= np.abs(grad).max(axis=1) < LOGISTIC_GRAD_TOL
        if bool(np.all(done | failed)):
            break
        hess = (At * (w * mu * (1.0 - mu))[:, None, :]) @ A + ridge
        step, singular = _solve_rows(hess, grad, done | failed)
        failed |= singular
        active = ~(done | failed)
        # the full step, then up to 30 halvings of the rows it overshoots
        new_beta = beta + step
        if not active.all():
            new_beta = np.where(active[:, None], new_beta, beta)
        new_eta, new_obj, worse = trial(new_beta, obj, active)
        if worse.any():
            t = np.ones(C)
            for _ in range(30):
                t = np.where(worse, t * 0.5, t)
                new_beta = np.where(active[:, None], beta + t[:, None] * step, beta)
                new_eta, new_obj, worse = trial(new_beta, obj, active)
                if not worse.any():
                    break
        failed |= worse
        delta = np.abs(obj - new_obj)
        if worse.any():
            accept = active & ~worse
            beta = np.where(accept[:, None], new_beta, beta)
            eta = np.where(accept[:, None], new_eta, eta)
            obj = np.where(accept, new_obj, obj)
        else:
            # a row left out of the step kept its beta, so its new eta
            # and objective are the old ones recomputed, bit for bit
            beta, eta, obj = new_beta, new_eta, new_obj
        done |= (~failed) & (delta < LOGISTIC_DEV_TOL * (1.0 + np.abs(obj)))

    return beta, -obj, done & ~failed


def _as_columns(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    return arr


def _z_block(z, n: int) -> np.ndarray:
    return np.empty((n, 0)) if z is None else _as_columns(z)


@dataclass(frozen=True)
class NullFit:
    """Fitted intercept + Z logistic model, reusable across many LRT calls."""

    beta: np.ndarray
    loglik: float
    converged: bool


def fit_null_logistic(y, z=None) -> NullFit:
    """Fit the reduced model y ~ Z once, for reuse as the LRT null. Its design
    is C-ordered like a row of a batch, so it gives the same bits either way."""
    yf = np.asarray(y, dtype=np.float64)
    n = yf.size
    zc = _z_block(z, n)
    base = np.empty((1, n, 1 + zc.shape[1]))
    base[0, :, 0] = 1.0
    base[0, :, 1:] = zc
    beta, ll, conv = _newton_logistic_many(base, yf, np.ones(n))
    return NullFit(beta=beta[0], loglik=float(ll[0]), converged=bool(conv[0]))


def lrt_ci_test_many(
    xs,
    y,
    z=None,
    *,
    null: NullFit | list[NullFit] | None = None,
) -> list[PValue]:
    """Likelihood-ratio tests of y ~ Z vs y ~ Z + x for each candidate x.

    ``z`` is either one conditioning block shared by every candidate or a
    list with one block (or None) per candidate; ``null`` is likewise one
    NullFit or a list of them, fitted here when omitted. All candidates must
    add the same number of columns to conditioning blocks of equal width:
    they are fitted as one batched Newton solve, each warm-started from its
    own null fit. Non-convergence is conservative: p = 1.0, flagged.
    """
    cols = [_as_columns(x) for x in xs]
    if not cols:
        return []
    C = len(cols)
    yf = np.asarray(y, dtype=np.float64)
    n = yf.size
    per_row = isinstance(z, list)
    zcs = [_z_block(zi, n) for zi in z] if per_row else [_z_block(z, n)] * C
    if null is None:
        null = [fit_null_logistic(y, zc) for zc in zcs] if per_row else fit_null_logistic(y, zcs[0])
    nulls = null if isinstance(null, list) else [null] * C
    if len(zcs) != C or len(nulls) != C:
        raise ValueError("need one conditioning block and one null fit per candidate")

    width = cols[0].shape[1]
    kz = 1 + zcs[0].shape[1]
    if any(c.shape[1] != width for c in cols) or any(zc.shape[1] != kz - 1 for zc in zcs):
        raise ValueError("all candidates in one batch must have equal width")
    A = np.empty((C, n, kz + width))
    A[:, :, 0] = 1.0
    beta0 = np.zeros((C, kz + width))
    for i in range(C):
        A[i, :, 1:kz] = zcs[i]
        A[i, :, kz:] = cols[i]
        beta0[i, :kz] = nulls[i].beta
    _, ll_alt, conv_alt = _newton_logistic_many(A, yf, np.ones(n), beta0=beta0)

    ll_null = np.array([nf.loglik for nf in nulls])
    ok = conv_alt & np.array([nf.converged for nf in nulls])
    stat = np.maximum(2.0 * (ll_alt - ll_null), 0.0)
    p = np.where(ok, chi2_sf(width, stat), 1.0)
    return [PValue(value=float(p[i]), statistic=float(stat[i]), dof=width, converged=bool(ok[i]))
            for i in range(C)]


def lrt_ci_test(x, y, z=None) -> PValue:
    """p-value of the nested-logistic LRT for x against y given columns Z."""
    return lrt_ci_test_many([x], y, z)[0]


# ---------------------------------------------------------------------------
# Benjamini-Hochberg


def bh_select(pvalues, alpha: float) -> np.ndarray:
    """Indices rejected by the BH step-up rule at level alpha (sorted)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    p = np.asarray(pvalues, dtype=np.float64)
    m = p.size
    if m == 0:
        return np.array([], dtype=np.intp)
    order = np.argsort(p, kind="mergesort")
    passed = np.flatnonzero(p[order] <= alpha * np.arange(1, m + 1) / m)
    if passed.size == 0:
        return np.array([], dtype=np.intp)
    k = int(passed[-1])
    return np.sort(order[: k + 1])


# ---------------------------------------------------------------------------
# Stratified folds


def stratified_folds(labels, k: int, seed) -> np.ndarray:
    """Fold index in [0, k) per sample; per-class counts differ by at most 1."""
    if k < 2:
        raise ValueError("need at least 2 folds")
    y = np.asarray(labels)
    rng = np.random.default_rng(seed)
    assign = np.empty(y.size, dtype=np.intp)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        if idx.size < k:
            raise ValueError(f"class {cls!r} has {idx.size} members, fewer than k={k}")
        perm = rng.permutation(idx)
        offset = int(rng.integers(k))
        assign[perm] = (np.arange(idx.size) + offset) % k
    return assign


# ---------------------------------------------------------------------------
# Bootstrap: bias correction and the holdout interval


def _row_blocks(rows, n: int):
    """Pack length-n integer vectors into (b, n) int64 blocks of at most
    REPLICATE_BLOCK_ELEMENTS; each block's buffer is reused for the next."""
    block = np.empty((max(1, REPLICATE_BLOCK_ELEMENTS // n), n), dtype=np.int64)
    kept = 0
    for row in rows:
        block[kept] = row
        kept += 1
        if kept == block.shape[0]:
            yield block
            kept = 0
    yield block[:kept]


def _draw_replicates(rng: np.random.Generator, y: np.ndarray, n_boot: int, max_redraws: int,
                     score_oob: bool):
    """Bootstrap multiplicity vectors, each redrawn up to ``max_redraws`` times
    until the in-bag multiset and, if ``score_oob``, the out-of-bag remainder
    hold both classes; a replicate none of whose draws does is skipped."""
    n = y.size
    for _ in range(n_boot):
        for _ in range(max_redraws + 1):
            counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
            scored = (counts > 0, counts == 0) if score_oob else (counts > 0,)
            if all(rows.any() and y[rows].min() < y[rows].max() for rows in scored):
                yield counts
                break


def _percentile_estimate(aucs: np.ndarray, naive_point: float, ci_level: float, n_boot: int,
                         caller: str, point: float | None = None) -> PerformanceEstimate:
    """The estimate from the AUCs of the replicates scored out of ``n_boot``
    requested, with their percentile interval at ``ci_level``; the point is
    ``point``, or the replicates' mean when it is None."""
    n_skipped = n_boot - aucs.size
    if not aucs.size:
        raise ValueError(f"{caller}: all {n_boot} bootstrap replicates skipped; "
                         "every draw missed a class")
    if n_skipped:
        log.warning("%s: %d of %d bootstrap replicates skipped; all their draws missed a class",
                    caller, n_skipped, n_boot)
    lo = (1.0 - ci_level) / 2.0
    return PerformanceEstimate(
        point=float(np.mean(aucs) if point is None else point),
        ci_low=float(np.quantile(aucs, lo)),
        ci_high=float(np.quantile(aucs, 1.0 - lo)),
        ci_level=ci_level,
        n_boot=int(aucs.size),
        n_skipped=int(n_skipped),
        naive_point=float(naive_point),
    )


def bbc_correct(
    oof_scores,
    labels,
    n_boot: int = 500,
    ci_level: float = 0.95,
    seed=0,
    max_redraws: int = 100,
) -> PerformanceEstimate:
    """Bootstrap bias correction of the winning configuration's pooled AUC.

    Per replicate: resample sample indices with replacement, pick the
    configuration with the best weighted AUC on the in-bag multiset, and score
    it on the out-of-bag samples. The corrected point estimate is the mean of
    the out-of-bag AUCs; the CI is the percentile interval at ci_level.
    """
    S = np.asarray(oof_scores, dtype=np.float64)
    if S.ndim != 2:
        raise ValueError("oof_scores must be (configs, samples)")
    if not np.isfinite(S).all():
        raise ValueError("every configuration needs a score for every sample")
    if n_boot < MIN_BBC_BOOT:
        raise ValueError(f"n_boot must be at least {MIN_BBC_BOOT}")
    C, n = S.shape
    y = np.asarray(labels)
    pos, _, _ = _split_labels(y)  # both classes required
    groups = [_sorted_tie_groups(S[c]) for c in range(C)]
    draws = _draw_replicates(np.random.default_rng(seed), y, n_boot, max_redraws, score_oob=True)
    oob_auc = []
    for counts in _row_blocks(draws, n):
        inbag = np.column_stack([_weighted_aucs(g, pos, counts) for g in groups])
        winners = np.argmax(inbag, axis=1)  # ties go to the lowest config index
        oob = counts == 0
        block_auc = np.empty(counts.shape[0])
        for c in np.unique(winners):
            won = winners == c
            block_auc[won] = _weighted_aucs(groups[c], pos, oob[won])
        oob_auc.append(block_auc)
    oob_auc = np.concatenate(oob_auc)
    naive = max(auc_roc(S[c], y) for c in range(C))
    return _percentile_estimate(oob_auc, naive, ci_level, n_boot, "bbc_correct")


def bootstrap_auc_ci(scores, labels, n_boot: int, ci_level: float, seed,
                     max_redraws: int) -> PerformanceEstimate:
    """AUC of one fixed model's scores on every row, with the percentile
    interval of its in-bag AUC over ``n_boot`` bootstrap replicates."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    point = auc_roc(s, y)
    pos = y == 1
    groups = _sorted_tie_groups(s)
    draws = _draw_replicates(np.random.default_rng(seed), y, n_boot, max_redraws, score_oob=False)
    aucs = np.concatenate([_weighted_aucs(groups, pos, w) for w in _row_blocks(draws, s.size)])
    return _percentile_estimate(aucs, point, ci_level, n_boot, "holdout CI", point=point)
