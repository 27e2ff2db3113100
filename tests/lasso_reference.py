"""The lasso kernel as it was before its screen, kept as the reference
that ``selection._lasso_cd`` must match byte for byte."""

import numpy as np

from crashsev.stats import expit


def reference_lasso_cd(X, y, lam, max_outer=100, max_inner=1000, tol=1e-7):
    """The unscreened kernel: every coordinate takes the exact update on
    every sweep. ``selection._lasso_cd`` must return the same bytes."""
    n, p = X.shape
    yf = y.astype(np.float64)
    ybar = yf.mean()
    beta = np.zeros(p)
    b0 = float(np.log(ybar / (1.0 - ybar))) if 0.0 < ybar < 1.0 else 0.0

    converged = False
    for _ in range(max_outer):
        eta = b0 + X @ beta
        mu = expit(eta)
        w = np.clip(mu * (1.0 - mu), 1e-5, None)
        z = eta + (yf - mu) / w
        wsum = w.sum()
        denom = (w[:, None] * X * X).sum(axis=0) / n

        r = z - eta
        inner_done = False
        for _sweep in range(max_inner):
            delta = 0.0
            for j in range(p):
                bj = beta[j]
                num = float(w @ (X[:, j] * r)) / n + denom[j] * bj
                new = float(np.sign(num) * max(abs(num) - lam, 0.0)) / denom[j] if denom[j] > 0 else 0.0
                if new != bj:
                    r -= X[:, j] * (new - bj)
                    beta[j] = new
                    delta = max(delta, abs(new - bj))
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


def first_sweep_nums(X, y):
    """|num_j| of each coordinate against the intercept-only start: what the
    first sweep computes for j when no earlier coordinate has moved."""
    n, p = X.shape
    yf = y.astype(np.float64)
    ybar = yf.mean()
    b0 = float(np.log(ybar / (1.0 - ybar))) if 0.0 < ybar < 1.0 else 0.0
    eta = b0 + X @ np.zeros(p)
    mu = expit(eta)
    w = np.clip(mu * (1.0 - mu), 1e-5, None)
    r = (eta + (yf - mu) / w) - eta
    return [abs(float(w @ (X[:, j] * r)) / n) for j in range(p)]
