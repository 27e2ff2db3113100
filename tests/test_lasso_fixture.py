"""Recorded output of the lasso kernel.

``data/lasso_fixture.json`` holds, for each design and penalty below, the
sha256 of the coefficient bytes that ``selection._lasso_cd`` returns, its
intercept and its convergence flag, recorded from the unscreened cyclic
coordinate descent. A change to the kernel that means to keep its results
must reproduce them bit for bit, signed zeros included. Record again
(``python tests/test_lasso_fixture.py``) only for a change that means to
alter the lasso fits, and say so.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from lasso_reference import first_sweep_nums
from scipy.special import expit

from crashsev.preprocess import FeatureMatrix
from crashsev.selection import _lasso_cd, lasso_design

FIXTURE = Path(__file__).parent / "data" / "lasso_fixture.json"

PENALTIES = (0.0, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0)


def _planted():
    rng = np.random.default_rng(41)
    X = rng.standard_normal((400, 10))
    coef = np.array([0.5, 1.4, -1.1, 0.0, 0.0, 0.3, 0.0, 0.0, 0.0, 0.0])
    y = (rng.random(400) < expit(X @ coef - 0.8)).astype(int)
    return X, y


def _planted_correlated():
    # pairs of columns share a factor, so an update to one moves the other's
    # correlation with the residual; about 15% positives
    rng = np.random.default_rng(42)
    factors = rng.standard_normal((300, 8))
    X = np.repeat(factors, 2, axis=1) + 0.6 * rng.standard_normal((300, 16))
    coef = np.zeros(16)
    coef[[0, 3, 6, 11]] = [0.6, -1.2, 0.9, 0.7]
    y = (rng.random(300) < expit(X @ coef - 2.0)).astype(int)
    return X, y


def _one_hot():
    # three full one-hot blocks, a constant column and an integer age, as
    # the encoder lays out crash records
    rng = np.random.default_rng(43)
    n = 500
    levels = (3, 4, 6)
    cats = [rng.integers(0, k, n) for k in levels]
    age = rng.integers(16, 90, n).astype(float)
    X = np.column_stack([np.eye(k)[c] for k, c in zip(levels, cats)]
                        + [np.ones(n), age])
    logit = (-1.5 + 0.6 * (cats[0] == 0) + 1.2 * (cats[1] == 2) - 0.9 * (cats[2] >= 4)
             + 0.02 * (age - 50))
    return X, (rng.random(n) < expit(logit)).astype(int)


DESIGNS = {"planted": _planted, "planted_correlated": _planted_correlated, "one_hot": _one_hot}


def _cases():
    """(design, label) -> (standardized design, labels, lambda)."""
    cases = {}
    for name, data in DESIGNS.items():
        X, y = data()
        design = lasso_design(FeatureMatrix.from_arrays(X, y))
        for penalty in PENALTIES:
            cases[name, f"penalty={penalty}"] = (design.Xs, y, penalty * design.lam_max / 2.0)
        cases[name, "lambda=|num_0|"] = (design.Xs, y, first_sweep_nums(design.Xs, y)[0])
    return cases


def _fit_record(Xs, y, lam) -> dict:
    beta, b0, converged = _lasso_cd(Xs, y, lam)
    return {"beta_sha256": hashlib.sha256(beta.tobytes()).hexdigest(),
            "b0": float(b0), "converged": bool(converged)}


CASES = _cases()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("design,label", sorted(CASES))
def test_lasso_fit_matches_record_bit_for_bit(recorded, design, label):
    assert _fit_record(*CASES[design, label]) == recorded[design][label]


if __name__ == "__main__":
    record: dict = {}
    for (design, label), case in sorted(CASES.items()):
        record.setdefault(design, {})[label] = _fit_record(*case)
    FIXTURE.parent.mkdir(exist_ok=True)
    text = json.dumps(record, sort_keys=True, indent=1, allow_nan=False)
    FIXTURE.write_text(text + "\n", encoding="utf-8")
