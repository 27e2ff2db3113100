"""Statistical kernels shared by feature selection and tuning.

AUC-ROC from one exact weighted kernel, the nested-logistic likelihood-ratio
conditional-independence test, Benjamini-Hochberg step-up selection,
stratified fold assignment, and one bootstrap, which draws and summarises
the replicates of both the bias correction of the winning configuration's
score and the holdout AUC's interval.

Every AUC comes from one kernel. A score vector's index holds its negatives
in ascending score order and, for each positive, the number of negatives
scoring below it and at or below it; each row of a (replicates, n) block of
integer weights is then scored from one int64 prefix sum over the negatives'
weights, read at those two counts. The class totals and twice the
Mann-Whitney pair count are integers below 2^42 even at 2.3M rows, so they
are exact in any order or blocking and the one float64 division rounds once:
unit, bootstrap and 0/1 out-of-bag weights all give an exact pair count's bits.

The likelihood-ratio tests run in batches of (candidate columns,
conditioning columns) index pairs into one matrix X: every pair brings its
own null fit, ``_designs`` copies each pair's columns from X into its row of
a stacked design array, and the whole batch is one Newton solve with batched
matmul. A pair's result does not depend on the batch it is fitted in. A null
fit is ``fit_null_logistic``'s, or any converged fit of the same model with
its coefficients in the null's column order, and ``lrt_ci_test_many`` can
pass out each test's fitted alternative as a ``NullFit``, so that a caller
can serve it as a later test's null.
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


@dataclass(frozen=True)
class _AucIndex:
    """One score vector ranked against fixed labels: ``neg`` and ``pos``
    list the negatives and the positives in ascending score order, and
    ``below`` and ``upto`` count, per positive, the negatives scoring below
    it and at or below it. NaN ranks above every number and ties with NaN."""

    pos: np.ndarray
    neg: np.ndarray
    below: np.ndarray
    upto: np.ndarray


def _auc_index(scores: np.ndarray, pos: np.ndarray) -> _AucIndex:
    # the order within tied scores is free: only prefix sums at tie ends are read
    neg = np.flatnonzero(~pos)
    neg = neg[np.argsort(scores[neg])]
    pos = np.flatnonzero(pos)
    pos = pos[np.argsort(scores[pos])]  # sorted needles keep the searches cache-local
    ranked, s = scores[neg], scores[pos]
    return _AucIndex(pos=pos, neg=neg, below=np.searchsorted(ranked, s, side="left"),
                     upto=np.searchsorted(ranked, s, side="right"))


def _pair_counts(index: _AucIndex, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Twice the weighted Mann-Whitney pair count (pairs ranked right, plus
    half the tied ones), the positives' weight and the negatives' weight, per
    row of a (k, n) integer or boolean weight block."""
    # weight of the first j negatives in score order, j = 0..N
    prefix = np.empty((weights.shape[0], index.neg.size + 1), dtype=np.int64)
    prefix[:, 0] = 0
    np.cumsum(np.take(weights, index.neg, axis=1), axis=1, dtype=np.int64, out=prefix[:, 1:])
    wpos = np.take(weights, index.pos, axis=1).astype(np.int64, copy=False)
    # a positive beats the negatives below it and ties with those up to it
    twice = np.einsum("kp,kp->k", wpos, prefix[:, index.below] + prefix[:, index.upto])
    return twice, wpos.sum(axis=1), prefix[:, -1].copy()


def _aucs(twice: np.ndarray, wpos: np.ndarray, wneg: np.ndarray) -> np.ndarray:
    """AUCs from ``_pair_counts``; a row without weight on a class (whose
    pair count is 0) reads 0.0."""
    return twice / np.maximum(2 * wpos * wneg, 1)


def _unit_auc(index: _AucIndex) -> float:
    ones = np.ones((1, index.pos.size + index.neg.size), dtype=np.int64)
    return float(_aucs(*_pair_counts(index, ones))[0])


def auc_roc(scores, labels) -> float:
    """Mann-Whitney AUC: P(score+ > score-) + 0.5 * P(score+ = score-).

    The unit-weight case of the weighted-AUC kernel: O(n log n), and
    bit-identical to O(n^2) pair counting.
    """
    s = np.asarray(scores, dtype=np.float64)
    pos, _, _ = _split_labels(labels)
    if s.size != pos.size:
        raise ValueError("scores and labels differ in length")
    return _unit_auc(_auc_index(s, pos))


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


def _designs(X: np.ndarray, tests) -> np.ndarray:
    """The C-ordered (C, n, 1 + m) designs of ``tests``, (candidate columns,
    conditioning columns) index pairs into X of equal widths, each column
    copied from X: per test ones, the conditioning and the candidate columns."""
    widths = (len(tests[0][0]), len(tests[0][1]))
    A = np.empty((len(tests), X.shape[0], 1 + sum(widths)))
    A[:, :, 0] = 1.0
    for i, (x, z) in enumerate(tests):
        if (len(x), len(z)) != widths:
            raise ValueError("all tests in one batch must have equal widths")
        for k, c in enumerate((*z, *x), start=1):
            A[i, :, k] = X[:, c]
    return A


@dataclass(frozen=True)
class NullFit:
    """Fitted intercept + Z logistic model, reusable across many LRT calls."""

    beta: np.ndarray
    loglik: float
    converged: bool


def fit_null_logistic(y, X, z=None) -> NullFit:
    """Fit the reduced model y ~ X[:, z] (z every column when omitted) once,
    for reuse as the LRT null. Its design is C-ordered like a row of a batch,
    so it gives the same bits either way."""
    A = _designs(X, [((), range(X.shape[1]) if z is None else z)])
    beta, ll, conv = _newton_logistic_many(A, y, np.ones(X.shape[0]))
    return NullFit(beta=beta[0], loglik=float(ll[0]), converged=bool(conv[0]))


def lrt_ci_test_many(X, y, tests, nulls: list[NullFit],
                     alternatives: list[NullFit] | None = None) -> list[PValue]:
    """Likelihood-ratio tests of y ~ X[:, z] vs y ~ X[:, z] + X[:, x], one per
    (x, z) column-index pair of ``tests``, each against its null fit of
    y ~ X[:, z] in ``nulls``: ``fit_null_logistic(y, X, z)``, or a converged
    fit of the same model taken from elsewhere, its coefficients in z's
    order. The tests, of equal widths, are one batched Newton solve, each
    warm-started from its null fit. Non-convergence is conservative:
    p = 1.0, flagged.

    When ``alternatives`` is a list, each test's fitted alternative is
    appended to it in test order, as a NullFit of the model on the
    intercept, X[:, z] and X[:, x], in that column order.
    """
    if not tests:
        return []
    if len(nulls) != len(tests):
        raise ValueError("need one null fit per test")
    A = _designs(X, tests)
    width = len(tests[0][0])
    beta0 = np.pad(np.array([nf.beta for nf in nulls]), ((0, 0), (0, width)))
    beta, ll_alt, conv_alt = _newton_logistic_many(A, y, np.ones(A.shape[1]), beta0=beta0)
    if alternatives is not None:
        alternatives.extend(NullFit(beta=b, loglik=ll, converged=c)
                            for b, ll, c in zip(beta, ll_alt.tolist(), conv_alt.tolist()))

    ll_null = np.array([nf.loglik for nf in nulls])
    ok = conv_alt & np.array([nf.converged for nf in nulls])
    stat = np.maximum(2.0 * (ll_alt - ll_null), 0.0)
    p = np.where(ok, chi2_sf(width, stat), 1.0)
    return [PValue(value=v, statistic=s, dof=width, converged=c)
            for v, s, c in zip(p.tolist(), stat.tolist(), ok.tolist())]


def lrt_ci_test(x, y, z=None) -> PValue:
    """p-value of the nested-logistic LRT for columns x against y given
    columns Z: one test of ``lrt_ci_test_many``, on the block [Z, x]."""
    xc = _as_columns(x)
    X = xc if z is None else np.hstack([_as_columns(z), xc])
    kz = X.shape[1] - xc.shape[1]
    x_cols, z_cols = range(kz, X.shape[1]), range(kz)
    return lrt_ci_test_many(X, y, [(x_cols, z_cols)], [fit_null_logistic(y, X, z_cols)])[0]


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


def _replicate_aucs(rng: np.random.Generator, n: int, n_boot: int, max_redraws: int,
                    score) -> np.ndarray:
    """AUCs of ``n_boot`` bootstrap replicates over ``n`` rows, less those skipped.

    ``score(counts)`` takes a (k, n) int64 block of multiplicity vectors and
    returns each row's AUC and whether its scored rows hold both classes. A
    replicate is redrawn up to ``max_redraws`` times until they do, and
    skipped when none of its draws does. Draws come a block of at most
    ``REPLICATE_BLOCK_ELEMENTS`` weights at a time, as one
    ``rng.integers(0, n, size=(k, n))``, which takes the generator's stream
    as k draws of size n do. k never exceeds the replicates not yet scored
    or skipped, each of which takes at least one more draw, so the replicates,
    the skips and the generator's final state are those of drawing one
    vector at a time.
    """
    rows = max(1, REPLICATE_BLOCK_ELEMENTS // n)
    aucs = [np.empty(0)]
    resolved = tries = 0  # replicates scored or skipped; failed draws of the next one
    while resolved < n_boot:
        k = min(rows, n_boot - resolved)
        draws = rng.integers(0, n, size=(k, n))
        if k > 1:
            draws += np.arange(0, k * n, n)[:, None]  # row r counts into bins r*n .. r*n + n - 1
        counts = np.bincount(draws.ravel(), minlength=k * n).reshape(k, n)
        del draws
        block, ok = score(counts)
        aucs.append(block[ok])
        for good in ok.tolist():
            if good or tries == max_redraws:
                resolved += 1
                tries = 0
            else:
                tries += 1
    return np.concatenate(aucs)


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
    if pos.size != n:
        raise ValueError("oof_scores and labels differ in sample count")
    indexes = [_auc_index(S[c], pos) for c in range(C)]

    def score(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        inbag = [_pair_counts(index, counts) for index in indexes]
        _, wpos, wneg = inbag[0]
        # ties go to the lowest config index
        winners = np.argmax(np.column_stack([_aucs(*part) for part in inbag]), axis=1)
        oob = counts == 0
        parts = np.empty((3, counts.shape[0]), dtype=np.int64)
        for c in np.unique(winners):
            won = winners == c
            parts[:, won] = _pair_counts(indexes[c], oob[won])
        twice, opos, oneg = parts
        return _aucs(twice, opos, oneg), (wpos > 0) & (wneg > 0) & (opos > 0) & (oneg > 0)

    oob_auc = _replicate_aucs(np.random.default_rng(seed), n, n_boot, max_redraws, score)
    naive = max(_unit_auc(index) for index in indexes)
    return _percentile_estimate(oob_auc, naive, ci_level, n_boot, "bbc_correct")


def bootstrap_auc_ci(scores, labels, n_boot: int, ci_level: float, seed,
                     max_redraws: int) -> PerformanceEstimate:
    """AUC of one fixed model's scores on every row, with the percentile
    interval of its in-bag AUC over ``n_boot`` bootstrap replicates."""
    s = np.asarray(scores, dtype=np.float64)
    pos, _, _ = _split_labels(labels)
    if s.size != pos.size:
        raise ValueError("scores and labels differ in length")
    index = _auc_index(s, pos)
    point = _unit_auc(index)

    def score(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        twice, wpos, wneg = _pair_counts(index, counts)
        return _aucs(twice, wpos, wneg), (wpos > 0) & (wneg > 0)

    aucs = _replicate_aucs(np.random.default_rng(seed), s.size, n_boot, max_redraws, score)
    return _percentile_estimate(aucs, point, ci_level, n_boot, "holdout CI", point=point)
