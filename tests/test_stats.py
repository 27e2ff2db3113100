import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_bootstrap_fixture import BBC_CASES, CI_CASES

from crashsev import stats

from crashsev.stats import (
    SingleClassError,
    auc_roc,
    bbc_correct,
    bh_select,
    bootstrap_auc_ci,
    chi2_sf,
    expit,
    fit_null_logistic,
    lrt_ci_test,
    lrt_ci_test_many,
    roc_curve,
    stratified_folds,
)
from crashsev.stats import (  # internal, checked against pair counting
    _auc_index,
    _aucs,
    _pair_counts,
    _replicate_aucs,
    _sorted_tie_groups,
)
from crashsev.stats import (  # internal, the batched Newton solve and its objective
    LOGISTIC_DEV_TOL,
    LOGISTIC_GRAD_TOL,
    LOGISTIC_MAX_ITER,
    _eta_many,
    _newton_logistic_many,
    _nll_many,
    _solve_rows,
)
from crashsev.synth import planted_generator


def brute_force_auc(scores, labels):
    """O(n^2) positive-negative pair count; the reference definition."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = np.sum(pos[:, None] > neg[None, :])
    ties = np.sum(pos[:, None] == neg[None, :])
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_separation(self):
        assert auc_roc([0.9, 0.8, 0.3], [1, 0, 0]) == 1.0

    def test_complete_tie(self):
        assert auc_roc([0.5, 0.5], [1, 0]) == 0.5

    def test_derived_pair_enumeration(self):
        # pairs: (0.4>0.1), (0.4<0.8), (0.35>0.1), (0.35<0.8) -> 2/4
        scores = [0.1, 0.4, 0.35, 0.8]
        labels = [0, 1, 1, 0]
        assert brute_force_auc(scores, labels) == 0.5
        assert auc_roc(scores, labels) == 0.5

    def test_single_class_raises(self):
        with pytest.raises(SingleClassError):
            auc_roc([0.1, 0.2], [1, 1])

    def test_matches_brute_force_with_ties(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 120))
            scores = rng.integers(0, 8, n) / 4.0
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                continue
            assert auc_roc(scores, labels) == brute_force_auc(scores, labels)

    def test_negation_identity_exact(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 60))
            scores = rng.integers(0, 5, n) / 2.0
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                continue
            assert auc_roc(scores, labels) + auc_roc(-scores, labels) == 1.0

    def test_monotone_transform_invariance(self, rng):
        scores = rng.standard_normal(80)
        labels = rng.integers(0, 2, 80)
        a = auc_roc(scores, labels)
        assert auc_roc(np.exp(scores), labels) == a
        assert auc_roc(3 * scores + 7, labels) == a


class TestRocCurve:
    def test_endpoints_and_monotone(self, rng):
        scores = rng.standard_normal(200)
        labels = (rng.random(200) < 0.3).astype(int)
        curve = roc_curve(scores, labels)
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)

    def test_trapezoid_equals_mann_whitney(self, rng):
        scores = rng.integers(0, 6, 150) / 3.0
        labels = rng.integers(0, 2, 150)
        curve = roc_curve(scores, labels)
        trap = np.trapezoid(curve.tpr, curve.fpr)
        assert trap == pytest.approx(auc_roc(scores, labels), abs=1e-12)


class TestLrt:
    def test_perfect_association_tiny_p(self, rng):
        y = rng.integers(0, 2, 200)
        res = lrt_ci_test(y.astype(float), y)
        assert res.value < 1e-6
        assert res.converged

    def test_redundant_regressor_p_near_one(self, rng):
        z = rng.standard_normal(300)
        y = (rng.random(300) < 1 / (1 + np.exp(-z))).astype(int)
        res = lrt_ci_test(z, y, z)
        assert res.value > 0.99
        assert res.statistic == pytest.approx(0.0, abs=1e-6)

    def test_null_pvalues_roughly_uniform(self, rng):
        # full KS criterion lives in the acceptance suite; quick sanity here
        ps = []
        for _ in range(200):
            x = rng.standard_normal(250)
            y = rng.integers(0, 2, 250)
            ps.append(lrt_ci_test(x, y).value)
        ps = np.array(ps)
        assert 0.35 < np.mean(ps < 0.5) < 0.65

    def test_dof_tracks_added_columns(self, rng):
        x = rng.standard_normal((150, 3))
        y = rng.integers(0, 2, 150)
        res = lrt_ci_test(x, y)
        assert res.dof == 3

    def test_batch_matches_single(self, rng):
        y = rng.integers(0, 2, 200)
        z = rng.standard_normal(200)
        xs = [rng.standard_normal(200) for _ in range(5)]
        X = np.column_stack([z, *xs])
        null = fit_null_logistic(y, X, (0,))
        batch = lrt_ci_test_many(X, y, [((i,), (0,)) for i in range(1, 6)], [null] * 5)
        singles = [lrt_ci_test(x, y, z) for x in xs]
        for b, s in zip(batch, singles):
            assert b.value == pytest.approx(s.value, rel=1e-6, abs=1e-12)

    def test_conditioning_removes_mediated_association(self, rng):
        # y depends on z; x is a noisy copy of z -> dependent marginally,
        # independent given z
        n = 2000
        z = rng.standard_normal(n)
        x = z + 0.3 * rng.standard_normal(n)
        y = (rng.random(n) < 1 / (1 + np.exp(-2 * z))).astype(int)
        marginal = lrt_ci_test(x, y)
        conditional = lrt_ci_test(x, y, z)
        assert marginal.value < 1e-6
        assert conditional.value > 0.01


# (candidate columns, conditioning columns, statistic, p-value), recorded from
# the einsum Newton kernel with scipy.stats.chi2.sf on planted_data()
RECORDED_LRT = [
    ((0,), (), 62.31113743299136, 2.9326186547677915e-15),
    ((3,), (), 0.3407516086982696, 0.5593957001183518),
    ((1,), (0,), 44.391806770940434, 2.6880975472205888e-11),
    ((4,), (0, 2), 0.9080242813257087, 0.3406391790172661),
    ((3, 5), (1,), 1.752170896569396, 0.416409782998459),
    ((1, 2), (), 70.4239324887227, 5.100789050479811e-16),
    ((5,), (0, 1, 2), 2.6755620360002013, 0.10189934628080716),
    ((2,), (1,), 30.635775543408727, 3.113004581955771e-08),
]
LRT_GATE = 1e-10


def planted_data():
    gen = planted_generator(n_features=6, n_informative=3, effect=0.8, prevalence=0.2)
    m = gen.matrix(500, seed=3)
    return m.X, m.y


def _block(X, cols):
    return X[:, list(cols)] if cols else None


class TestLrtRecorded:
    def test_matches_recorded_values(self):
        X, y = planted_data()
        for xc, zc, stat, p in RECORDED_LRT:
            res = lrt_ci_test(_block(X, xc), y, _block(X, zc))
            assert res.converged and res.dof == len(xc)
            assert res.statistic == pytest.approx(stat, rel=LRT_GATE, abs=LRT_GATE)
            assert res.value == pytest.approx(p, abs=LRT_GATE)

    def test_mixed_conditioning_batch_matches_single_calls(self):
        X, y = planted_data()
        pairs = [(xc, zc) for xc, zc, _, _ in RECORDED_LRT if len(xc) == 1 and len(zc) == 1]
        pairs += [((4,), (3,)), ((0,), (5,))]
        batch = lrt_ci_test_many(X, y, pairs, [fit_null_logistic(y, X, zc) for _, zc in pairs])
        for (xc, zc), got in zip(pairs, batch):
            want = lrt_ci_test(_block(X, xc), y, _block(X, zc))
            assert got.converged == want.converged
            assert got.statistic == want.statistic and got.value == want.value

    def test_singular_row_fails_alone(self):
        X, y = planted_data()
        # two identical large columns: the Hessian is exactly singular
        dup = np.column_stack([1e4 * X[:, 3], 1e4 * X[:, 3]])
        xs = [X[:, [3, 5]], dup, X[:, [1, 2]]]
        block = np.hstack(xs)
        batch = lrt_ci_test_many(block, y, [((0, 1), ()), ((2, 3), ()), ((4, 5), ())],
                                 [fit_null_logistic(y, block, ())] * 3)
        assert not batch[1].converged and batch[1].value == 1.0
        for i in (0, 2):
            want = lrt_ci_test(xs[i], y)
            assert batch[i].converged
            assert batch[i].value == pytest.approx(want.value, abs=LRT_GATE)


class TestNullFitLayout:
    def test_a_null_gives_the_same_bits_alone_or_in_a_batch(self):
        # every conditioning set of width 1-3 over planted_ses-sized data
        gen = planted_generator(n_features=11, n_informative=7, effect=1.5, prevalence=1 / 51)
        m = gen.matrix(1500, seed=1)
        n = m.n_rows
        for width in (1, 2, 3):
            sets = list(combinations(range(m.n_cols), width))
            A = np.empty((len(sets), n, 1 + width))  # C-ordered, as batches are
            A[:, :, 0] = 1.0
            for i, cols in enumerate(sets):
                A[i, :, 1:] = m.X[:, cols]
            beta, loglik, converged = _newton_logistic_many(A, m.y, np.ones(n))
            for i, cols in enumerate(sets):
                alone = fit_null_logistic(m.y, m.X[:, cols])
                assert alone.beta.tobytes() == beta[i].tobytes(), cols
                assert alone.loglik == loglik[i] and alone.converged == converged[i], cols


class TestNllMany:
    """The objective against softplus(eta) - y eta with softplus from
    np.logaddexp(0, eta), the scalar libm loop. Both compute max(eta, 0) +
    log1p(exp(-|eta|)). With exp and log1p each within 4 ulp (numpy's stated
    bound for its AVX-512 kernels, taken for libm too), log1p(exp(-|eta|))
    is within 8 eps relative of its exact value and the sum with max(eta, 0)
    adds half an ulp, so each softplus is within 8.5 eps relative of the
    exact one and the two are within 17 eps relative of each other: below
    35 ulp of logaddexp's value, and 16 ulp where that value is subnormal."""

    ETA = np.concatenate([
        np.linspace(-745.0, 745.0, 298_001),
        20.0 * np.random.default_rng(11).standard_normal(50_000),
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
         -2.2250738585072014e-308, 1e-300, -1e-300, 709.78, -709.78, 745.1, -745.1],
    ])

    @staticmethod
    def _per_element(eta, y):
        # one element per row and unit weight: each row sum is the element
        return _nll_many(eta[:, None], np.array([float(y)]), np.ones(1))

    def test_each_element_within_35_ulp_of_logaddexp(self):
        soft = np.logaddexp(0.0, self.ETA)
        got = self._per_element(self.ETA, 0)
        assert np.all(np.abs(got - soft) <= 35 * np.spacing(soft))
        # with y = 1 each side subtracts eta with one more rounding, half an
        # ulp of its own result, which is at most one ulp of the reference's
        want = soft - self.ETA
        got = self._per_element(self.ETA, 1)
        assert np.all(np.abs(got - want) <= 35 * np.spacing(soft) + 2 * np.spacing(np.abs(want)))

    @pytest.mark.parametrize("y", [0, 1])
    def test_infinities_and_nan_as_logaddexp_gives_them(self, y):
        eta = np.array([np.inf, -np.inf, np.nan])
        with np.errstate(invalid="ignore"):
            want = np.logaddexp(0.0, eta) - y * eta
            got = self._per_element(eta, y)
        np.testing.assert_array_equal(got, want)

    def test_row_sums_within_relative_bound(self):
        # per element 17 eps of softplus as above, plus each side's
        # subtraction of y eta (half an ulp each) and each side's weighted
        # sum of n terms (at most n eps / 2 of the summed magnitudes), so
        # at most (18 + n) eps of those magnitudes, and one eps to spare
        rng = np.random.default_rng(5)
        scales = np.array([0.1, 1.0, 10.0, 100.0, 700.0]).repeat(4)[:, None]
        for n in (1, 7, 1125, 4001):
            eta = scales * rng.standard_normal((20, n))
            y = (rng.random(n) < 0.3).astype(np.float64)
            w = rng.random(n) + 0.5
            soft = np.logaddexp(0.0, eta)
            want = np.einsum("cn,n->c", soft - y * eta, w)
            magnitude = np.einsum("cn,n->c", soft + np.abs(y * eta), w)
            bound = (19 + n) * np.finfo(np.float64).eps * magnitude
            assert np.all(np.abs(_nll_many(eta, y, w) - want) <= bound), n

    def test_a_row_gives_the_same_bits_alone_or_in_a_batch(self):
        rng = np.random.default_rng(9)
        n = 1125  # not a multiple of 8, so each row starts at another SIMD lane
        eta = np.concatenate([30.0 * rng.standard_normal((6, n)),
                              self.ETA[: 3 * n].reshape(3, n)])
        y = (rng.random(n) < 0.2).astype(np.float64)
        w = rng.random(n)
        batch = _nll_many(eta, y, w)
        for i in range(eta.shape[0]):
            assert _nll_many(eta[i : i + 1].copy(), y, w).tobytes() == batch[i : i + 1].tobytes(), i
            assert _nll_many(eta[i:], y, w)[0] == batch[i], i


def _reference_newton(A, y, w, beta0=None, pen=None, max_iter=LOGISTIC_MAX_ITER):
    """The batched Newton solve written as plainly as possible: every trial
    point merges the rows with np.where, the halving vector is built every
    iteration and the accepted rows are merged back with np.where. It shares
    ``_nll_many`` with ``_newton_logistic_many``, which must give the same
    bits. Besides (beta, -objective, converged) it returns, per row, the
    halvings taken, the iteration the row finished at (-1 if it never did)
    and whether its Hessian was singular, so that a case can show what it
    exercises."""
    C, n, m = A.shape
    yf = np.asarray(y, dtype=np.float64)
    beta = np.zeros((C, m)) if beta0 is None else np.array(beta0, dtype=np.float64)
    At = A.transpose(0, 2, 1)
    ridge = 1e-12 * np.eye(m) if pen is None else np.diag(pen) + 1e-12 * np.eye(m)

    def objective(eta, beta):
        nll = _nll_many(eta, yf, w)
        return nll if pen is None else nll + 0.5 * np.einsum("cm,m->c", beta * beta, pen)

    eta = _eta_many(A, beta)
    obj = objective(eta, beta)
    done = np.zeros(C, dtype=bool)
    failed = np.zeros(C, dtype=bool)
    halved = np.zeros(C, dtype=int)
    finished = np.full(C, -1)
    singular_any = np.zeros(C, dtype=bool)
    for it in range(max_iter):
        mu = expit(eta)
        grad = (At @ (w * (yf - mu))[:, :, None])[:, :, 0]
        if pen is not None:
            grad -= pen * beta
        done |= np.abs(grad).max(axis=1) < LOGISTIC_GRAD_TOL
        finished[(done | failed) & (finished < 0)] = it
        if bool(np.all(done | failed)):
            break
        hess = (At * (w * mu * (1.0 - mu))[:, None, :]) @ A + ridge
        step, singular = _solve_rows(hess, grad, done | failed)
        singular_any |= singular
        failed |= singular
        active = ~(done | failed)
        t = np.ones(C)
        for halvings in range(31):
            if halvings:
                t = np.where(worse, t * 0.5, t)
                halved += worse
            new_beta = np.where(active[:, None], beta + t[:, None] * step, beta)
            new_eta = _eta_many(A, new_beta)
            new_obj = objective(new_eta, new_beta)
            worse = active & ((new_obj > obj + 1e-12) | ~np.isfinite(new_obj))
            if not worse.any():
                break
        failed |= worse
        delta = np.abs(obj - new_obj)
        accept = active & ~worse
        beta = np.where(accept[:, None], new_beta, beta)
        eta = np.where(accept[:, None], new_eta, eta)
        obj = np.where(accept, new_obj, obj)
        done |= (~failed) & (delta < LOGISTIC_DEV_TOL * (1.0 + np.abs(obj)))
        finished[(done | failed) & (finished < 0)] = it
    return (beta, -obj, done & ~failed), (halved, finished, singular_any)


def _loop_case(name):
    """(A, y, w, keyword arguments) of one case for the Newton loop check."""
    X, y = planted_data()
    n = y.size
    designs = [X[:, [0, 1]], X[:, [2, 3]], X[:, [4, 5]], X[:, [1, 4]]]
    if name == "singular":
        designs.append(1e4 * X[:, [3, 3]])  # two equal columns
    if name == "halvings":
        designs.append(1e200 * X[:, [1, 2]])  # every step overflows, even halved 30 times
    A = np.empty((len(designs), n, 3))
    A[:, :, 0] = 1.0
    for i, cols in enumerate(designs):
        A[i, :, 1:] = cols
    w = np.ones(n)
    if name == "halvings":
        # warm starts far out on the saturated side overshoot
        beta0 = np.array([[6.0, -6.0, 6.0], [0.0, 0.0, 0.0], [-8.0, 8.0, 8.0], [4.0, 4.0, -4.0],
                          [0.0, 0.0, 0.0]])
        return A, y, w, {"beta0": beta0}
    if name == "max_iter":
        return A, y, w, {"max_iter": 3}
    if name == "pen":
        w = np.where(y == 1, 4.0, 1.0)
        return A, y, w / w.sum(), {"pen": np.array([0.0, 0.5, 2.0])}
    return A, y, w, {}


class TestNewtonLoop:
    @pytest.mark.parametrize("case", ["halvings", "singular", "max_iter", "pen", "staggered"])
    def test_same_bits_as_the_reference_loop(self, case):
        A, y, w, kw = _loop_case(case)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _newton_logistic_many(A, y, w, **kw)
            want, (halved, finished, singular) = _reference_newton(A, y, w, **kw)
        for g, r in zip(got, want):
            assert g.tobytes() == r.tobytes()
        # the case exercises what it is named for
        if case == "halvings":
            assert halved[:4].any() and (halved[:4] == 0).any() and want[2][:4].all()
            assert halved[4] == 30 and not want[2][4]
        elif case == "singular":
            assert singular.tolist() == [False] * 4 + [True] and want[2][:4].all()
        elif case == "max_iter":
            assert not want[2].any() and (finished < 0).all()
        elif case == "pen":
            assert want[2].all()
        else:
            assert want[2].all() and len(set(finished.tolist())) > 1


class TestChi2Sf:
    def test_matches_scipy_where_its_value_is_normal(self):
        from scipy.stats import chi2  # the reference, imported by the tests alone

        x = np.concatenate([[0.0, 1e-12], np.geomspace(1e-9, 1500.0, 400),
                            np.linspace(0.0, 1500.0, 301)])
        for df in range(1, 41):
            want = chi2.sf(x, df)
            normal = want >= np.finfo(np.float64).tiny
            np.testing.assert_allclose(chi2_sf(df, x)[normal], want[normal], rtol=1e-12, atol=0,
                                       err_msg=f"df={df}")

    @pytest.mark.parametrize("df", [1, 2, 3, 8])
    def test_edges(self, df):
        got = chi2_sf(df, np.array([-1.0, 0.0, np.inf, np.nan, 1e300]))
        assert got[:3].tolist() == [1.0, 1.0, 0.0]
        assert np.isnan(got[3]) and got[4] == 0.0
        assert isinstance(chi2_sf(df, 2.0), float)

    def test_one_degree_is_the_normal_two_sided_tail(self):
        assert chi2_sf(1, 1.959963984540054 ** 2) == pytest.approx(0.05, rel=1e-14)

    @pytest.mark.parametrize("df", [0, -1, 1.5, 2.0, True, None])
    def test_df_must_be_a_positive_integer(self, df):
        with pytest.raises(ValueError, match="positive integer"):
            chi2_sf(df, 1.0)


class TestExpit:
    def test_within_4_ulp_of_scipy(self):
        from scipy.special import expit as reference  # imported by the tests alone

        rng = np.random.default_rng(7)
        x = np.concatenate([np.linspace(-760.0, 760.0, 300_001),
                            20.0 * rng.standard_normal(100_000)])
        want = reference(x)
        assert np.all(np.abs(expit(x) - want) <= 4 * np.spacing(want))

    def test_keeps_nan_and_saturates_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expit(np.array([-1000.0, 1000.0, np.nan]))
        assert got[:2].tolist() == [0.0, 1.0] and np.isnan(got[2])


def brute_force_bh(pvalues, alpha):
    p = list(pvalues)
    m = len(p)
    order = sorted(range(m), key=lambda i: p[i])
    k_best = -1
    for rank, i in enumerate(order, start=1):
        if p[i] <= alpha * rank / m:
            k_best = rank
    if k_best < 0:
        return set()
    return set(order[:k_best])


class TestBH:
    def test_spec_example(self):
        rejected = bh_select([0.01, 0.02, 0.04, 0.2], 0.05)
        assert set(rejected.tolist()) == {0, 1}

    def test_all_ones_empty(self):
        assert bh_select([1.0, 1.0, 1.0], 0.05).size == 0

    def test_all_zeros_everything(self):
        assert set(bh_select([0.0, 0.0, 0.0], 0.05).tolist()) == {0, 1, 2}

    def test_empty_input(self):
        assert bh_select([], 0.05).size == 0

    def test_matches_brute_force(self, rng):
        for _ in range(300):
            m = int(rng.integers(1, 40))
            p = rng.random(m) ** 2
            alpha = float(rng.uniform(0.01, 0.3))
            assert set(bh_select(p, alpha).tolist()) == brute_force_bh(p, alpha)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30),
        st.floats(min_value=0.01, max_value=0.4),
        st.floats(min_value=0.01, max_value=0.4),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_alpha(self, pvals, a1, a2):
        lo, hi = sorted([a1, a2])
        r_lo = set(bh_select(pvals, lo).tolist())
        r_hi = set(bh_select(pvals, hi).tolist())
        assert r_lo <= r_hi


class TestStratifiedFolds:
    def test_exact_divisibility(self):
        labels = np.r_[np.zeros(100), np.ones(10)]
        assign = stratified_folds(labels, 10, seed=3)
        for j in range(10):
            fold = assign == j
            assert np.sum(fold & (labels == 0)) == 10
            assert np.sum(fold & (labels == 1)) == 1

    def test_remainder_spread(self):
        labels = np.r_[np.zeros(101), np.ones(10)]
        assign = stratified_folds(labels, 10, seed=3)
        neg_counts = [int(np.sum((assign == j) & (labels == 0))) for j in range(10)]
        assert sorted(neg_counts) == [10] * 9 + [11]

    def test_deterministic(self):
        labels = np.r_[np.zeros(57), np.ones(13)]
        a = stratified_folds(labels, 5, seed=9)
        b = stratified_folds(labels, 5, seed=9)
        assert np.array_equal(a, b)

    def test_partition(self, rng):
        labels = rng.integers(0, 2, 83)
        if labels.sum() < 4 or (1 - labels).sum() < 4:
            labels[:4] = 1
            labels[4:8] = 0
        assign = stratified_folds(labels, 4, seed=1)
        assert assign.size == labels.size
        assert set(assign.tolist()) == {0, 1, 2, 3}

    def test_class_smaller_than_k_raises(self):
        labels = np.r_[np.zeros(50), np.ones(3)]
        with pytest.raises(ValueError, match="class"):
            stratified_folds(labels, 5, seed=0)


def brute_force_weighted_auc(scores, labels, weights):
    num = 0.0
    wpos = 0.0
    wneg = 0.0
    for i in range(len(scores)):
        for j in range(len(scores)):
            if labels[i] == 1 and labels[j] == 0:
                pair = weights[i] * weights[j]
                if scores[i] > scores[j]:
                    num += pair
                elif scores[i] == scores[j]:
                    num += 0.5 * pair
    wpos = sum(w for w, l in zip(weights, labels) if l == 1)
    wneg = sum(w for w, l in zip(weights, labels) if l == 0)
    return num / (wpos * wneg)


class TestBBC:
    def test_inbag_matrix_matches_pair_counting(self, rng):
        for _ in range(20):
            n = 30
            S = rng.integers(0, 5, size=(3, n)) / 3.0
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                continue
            counts = np.array([np.bincount(rng.integers(0, n, n), minlength=n) for _ in range(4)])
            # keep only replicates with both classes in-bag; add the out-of-bag
            # 0/1 rows where both classes are out of bag
            ok = [b for b in range(4)
                  if len(set(y[counts[b] > 0])) == 2]
            oob = [b for b in ok if len(set(y[counts[b] == 0])) == 2]
            weights = np.concatenate([counts[ok], (counts[oob] == 0).astype(int)])
            for c in range(3):
                got = _aucs(*_pair_counts(_auc_index(S[c], y == 1), weights))
                for b in range(weights.shape[0]):
                    want = brute_force_weighted_auc(S[c], y, weights[b])
                    assert got[b] == pytest.approx(want, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                # tied grid values mixed with arbitrary floats
                st.one_of(st.integers(0, 6).map(float), st.floats(-10, 10)),
                st.integers(0, 1),
                st.integers(0, 9),
            ),
            min_size=2,
            max_size=40,
        )
    )
    def test_kernel_equals_pair_count_and_repeated_sample(self, rows):
        scores, labels, weights = (np.array(col) for col in zip(*rows))
        wpos = weights[labels == 1].sum()
        wneg = weights[labels == 0].sum()
        if wpos == 0 or wneg == 0:
            return
        got = _aucs(*_pair_counts(_auc_index(scores, labels == 1), weights[None, :]))[0]
        assert got == brute_force_weighted_auc(scores, labels, weights)
        assert got == auc_roc(np.repeat(scores, weights), np.repeat(labels, weights))

    def test_single_config_ci_contains_pooled(self, rng):
        y = (rng.random(300) < 0.3).astype(int)
        s = rng.standard_normal(300) + 1.2 * y
        est = bbc_correct(s[None, :], y, n_boot=300, seed=5)
        pooled = auc_roc(s, y)
        assert est.ci_low <= pooled <= est.ci_high
        assert est.naive_point == pooled

    def test_bitwise_reproducible(self, rng):
        y = (rng.random(200) < 0.4).astype(int)
        S = rng.standard_normal((5, 200))
        a = bbc_correct(S, y, n_boot=150, seed=77)
        b = bbc_correct(S, y, n_boot=150, seed=77)
        assert a == b

    def test_labels_must_match_the_samples(self, rng):
        y = (rng.random(60) < 0.5).astype(int)
        with pytest.raises(ValueError, match="sample count"):
            bbc_correct(rng.standard_normal((2, 50)), y, n_boot=100)
        with pytest.raises(ValueError, match="sample count"):
            bbc_correct(rng.standard_normal((2, 70)), y, n_boot=100)

    def test_requires_minimum_replicates(self, rng):
        y = (rng.random(50) < 0.5).astype(int)
        with pytest.raises(ValueError):
            bbc_correct(rng.standard_normal((2, 50)), y, n_boot=50)

    def test_corrects_winner_optimism(self, rng):
        # many noise configs: the naive winner looks good, the corrected
        # estimate does not
        y = (rng.random(400) < 0.5).astype(int)
        S = rng.standard_normal((80, 400))
        est = bbc_correct(S, y, n_boot=200, seed=1)
        assert est.naive_point > 0.52
        assert est.point < est.naive_point


def _reference_weighted_aucs(groups, pos, weights):
    """The tie-group prefix-sum kernel that ``_pair_counts`` replaced: AUC of
    one score vector under each row of a (b, n) weight block with weight on
    both classes."""
    perm, last = groups
    w = np.take(weights, perm, axis=1).astype(np.int64, copy=False)
    cpos = np.cumsum(w * pos[perm].astype(np.int64), axis=1)[:, last]
    cneg = np.cumsum(w, axis=1)[:, last]
    cneg -= cpos
    gpos = cpos.copy()
    gpos[:, 1:] -= cpos[:, :-1]
    twice = np.einsum("bg,bg->b", gpos, cneg) + np.einsum("bg,bg->b", gpos[:, 1:], cneg[:, :-1])
    return twice / (2 * cpos[:, -1] * cneg[:, -1])


def _pair_count_totals(scores, labels, weights):
    """(twice the weighted pair count, positive weight, negative weight) of
    one weight row, in Python integers over every positive-negative pair."""
    w = [int(v) for v in weights]
    pos = [i for i, label in enumerate(labels) if label == 1]
    neg = [j for j, label in enumerate(labels) if label != 1]
    twice = sum(w[i] * w[j] * (2 * (scores[i] > scores[j]) + (scores[i] == scores[j]))
                for i in pos for j in neg)
    return twice, sum(w[i] for i in pos), sum(w[j] for j in neg)


class TestAucKernel:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                # tied grid values mixed with arbitrary floats
                st.one_of(st.integers(0, 4).map(float), st.floats(-10, 10)),
                st.integers(0, 1),
            ),
            min_size=1,
            max_size=30,
        ),
        data=st.data(),
    )
    def test_pair_counts_equal_pair_counting(self, rows, data):
        scores, labels = (np.array(col) for col in zip(*rows))
        shape = (data.draw(st.integers(1, 4)), scores.size)
        if data.draw(st.booleans()):
            weights = data.draw(arrays(np.bool_, shape))
        else:
            weights = data.draw(arrays(np.int64, shape, elements=st.integers(0, 1 << 20)))
        twice, wpos, wneg = _pair_counts(_auc_index(scores, labels == 1), weights)
        for b in range(shape[0]):
            assert (twice[b], wpos[b], wneg[b]) == _pair_count_totals(scores, labels, weights[b])
        both = (wpos > 0) & (wneg > 0)
        if both.any():
            want = _reference_weighted_aucs(_sorted_tie_groups(scores), labels == 1, weights[both])
            assert _aucs(twice, wpos, wneg)[both].tobytes() == want.tobytes()

    def test_a_row_without_a_class_reads_zero(self):
        index = _auc_index(np.array([0.1, 0.5, 0.3]), np.array([True, False, False]))
        weights = np.array([[0, 2, 1], [3, 0, 0], [1, 1, 0]])
        assert _aucs(*_pair_counts(index, weights)).tolist() == [0.0, 0.0, 0.0]

    def test_nan_ranks_above_every_number_and_ties_with_nan(self):
        # the positive NaN beats 1.0 and 5.0 and ties with the negative NaN
        scores = [np.nan, 1.0, np.nan, 5.0, -np.inf]
        assert auc_roc(scores, [1, 0, 0, 0, 1]) == 5 / 12


def _reference_draw_replicates(rng, y, n_boot, max_redraws, score_oob):
    """The one-vector-at-a-time draw loop that ``_replicate_aucs`` replaced:
    bootstrap multiplicity vectors, each redrawn up to ``max_redraws`` times
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


def _recording_score(y, score_oob):
    """A ``_replicate_aucs`` score that keeps every drawn vector and reads
    each draw's position among them as its AUC, judging draws as the
    reference loop does."""
    seen = []

    def score(counts):
        ok = np.array([all(rows.any() and y[rows].min() < y[rows].max()
                           for rows in ((c > 0, c == 0) if score_oob else (c > 0,)))
                       for c in counts])
        ids = np.arange(len(seen), len(seen) + len(counts), dtype=np.float64)
        seen.extend(counts.copy())
        return ids, ok

    return seen, score


# name -> (labels, n_boot, seed, max_redraws, score_oob): the bootstrap
# fixture's cases whose redraws run out, and one where none do
DRAW_CASES = {
    "bbc_skipped_c1": (BBC_CASES["skipped_c1"][0]()[1], 150, 5, 1, True),
    "bbc_skipped_c3": (BBC_CASES["skipped_c3"][0]()[1], 150, 6, 1, True),
    "ci_skipped": (CI_CASES["skipped"][0]()[1], 400, 34, 1, False),
    "bbc_rare_redraws": (BBC_CASES["skipped_c1"][0]()[1], 120, 7, 100, True),
    "ci_imbalanced": (CI_CASES["imbalanced"][0]()[1], 50, 33, 99, False),
}


class TestReplicateDraws:
    @pytest.mark.parametrize("case", sorted(DRAW_CASES))
    @pytest.mark.parametrize("block_rows", [1, 2, "more than n_boot"])
    def test_blocks_draw_the_sequential_replicates(self, monkeypatch, case, block_rows):
        y, n_boot, seed, max_redraws, score_oob = DRAW_CASES[case]
        rows = n_boot + 7 if block_rows == "more than n_boot" else block_rows
        monkeypatch.setattr(stats, "REPLICATE_BLOCK_ELEMENTS", rows * y.size)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        # a caller's generator mid-stream, holding half of a 64-bit draw
        for g in (rng, ref_rng):
            g.integers(0, 60, size=3)
        seen, score = _recording_score(y, score_oob)
        got = [seen[i] for i in _replicate_aucs(rng, y.size, n_boot, max_redraws, score).astype(int)]
        want = list(_reference_draw_replicates(ref_rng, y, n_boot, max_redraws, score_oob))
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_skipping_cases_skip_and_redraw(self):
        for case in ("bbc_skipped_c1", "bbc_skipped_c3", "ci_skipped"):
            y, n_boot, seed, max_redraws, score_oob = DRAW_CASES[case]
            rng = np.random.default_rng(seed)
            kept = sum(1 for _ in _reference_draw_replicates(rng, y, n_boot, max_redraws, score_oob))
            assert 0 < kept < n_boot

    def test_callers_generator_ends_where_the_sequential_loop_leaves_it(self):
        S, y = BBC_CASES["skipped_c3"][0]()
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        est = bbc_correct(S, y, n_boot=150, seed=rng, max_redraws=1)
        kept = sum(1 for _ in _reference_draw_replicates(ref_rng, y, 150, 1, True))
        assert (est.n_boot, est.n_skipped) == (kept, 150 - kept)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

        scores, y = CI_CASES["skipped"][0]()
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        est = bootstrap_auc_ci(scores, y, 300, 0.95, rng, 1)
        kept = sum(1 for _ in _reference_draw_replicates(ref_rng, y, 300, 1, False))
        assert (est.n_boot, est.n_skipped) == (kept, 300 - kept)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
