"""Recorded output of the two bootstraps that score AUCs.

``data/bootstrap_fixture.json`` holds the ``PerformanceEstimate`` of
``bbc_correct`` and the interval of the holdout CI (``bootstrap_auc_ci``)
on each case below, recorded from the midrank AUC with a float ``reduceat``
in-bag matrix and per-replicate AUC loops. Every AUC in them is an exact pair count divided once, so any exact
kernel must reproduce them bit for bit. Record again
(``python tests/test_bootstrap_fixture.py``) only for a change that means to
alter the bootstraps' draws or their statistics, and say so.
"""

import json
import logging
from pathlib import Path

import numpy as np
import pytest

from crashsev.stats import bbc_correct, bootstrap_auc_ci

FIXTURE = Path(__file__).parent / "data" / "bootstrap_fixture.json"


def _ties(n_configs):
    # scores on a grid of five values: nearly every pair of rows ties
    rng = np.random.default_rng(11)
    y = (rng.random(300) < 0.35).astype(int)
    S = rng.integers(0, 5, size=(n_configs, 300)) / 4.0 + 0.25 * y
    return S.round(2), y


def _imbalanced(n_configs):
    # 1:50, 20 positives in 1020 rows, continuous scores
    rng = np.random.default_rng(12)
    y = np.zeros(1020, dtype=int)
    y[rng.choice(1020, 20, replace=False)] = 1
    S = rng.standard_normal((n_configs, 1020)) + np.linspace(0.2, 1.0, n_configs)[:, None] * y
    return S, y


def _rare(n_configs):
    # two positives in 60 rows: an out-of-bag remainder often lacks one, so
    # a few replicates exhaust their redraws and are skipped
    rng = np.random.default_rng(13)
    y = np.zeros(60, dtype=int)
    y[[5, 41]] = 1
    return rng.integers(0, 6, size=(n_configs, 60)) / 5.0, y


# name -> (data, bbc_correct keywords)
BBC_CASES = {
    "ties_c1": (lambda: _ties(1), {"n_boot": 200, "seed": 1}),
    "ties_c4": (lambda: _ties(4), {"n_boot": 300, "seed": 2}),
    "imbalanced_c1": (lambda: _imbalanced(1), {"n_boot": 200, "seed": 3}),
    "imbalanced_c5": (lambda: _imbalanced(5), {"n_boot": 250, "seed": 4, "ci_level": 0.9}),
    "skipped_c1": (lambda: _rare(1), {"n_boot": 150, "seed": 5, "max_redraws": 1}),
    "skipped_c3": (lambda: _rare(3), {"n_boot": 150, "seed": 6, "max_redraws": 1}),
}


def _holdout_continuous():
    rng = np.random.default_rng(21)
    y = (rng.random(2000) < 0.1).astype(int)
    return rng.standard_normal(2000) + 0.9 * y, y


def _holdout_ties():
    rng = np.random.default_rng(22)
    y = (rng.random(500) < 0.3).astype(int)
    return rng.integers(0, 4, 500) / 3.0 + 0.3 * y, y


def _holdout_imbalanced():
    s, y = _imbalanced(1)
    return s[0], y


def _holdout_rare():
    # one positive in 60 rows: about one draw in three misses it, so with
    # two draws (one redraw) a replicate is skipped about one time in eight
    rng = np.random.default_rng(24)
    y = np.zeros(60, dtype=int)
    y[30] = 1
    return rng.integers(0, 6, 60) / 5.0, y


# name -> (data, n_boot, ci_level, seed, max_redraws); 99 redraws are the
# 100 draws per replicate that the protocol's holdout CI allows
CI_CASES = {
    "continuous": (_holdout_continuous, 1000, 0.95, 31, 99),
    "ties": (_holdout_ties, 1000, 0.95, 32, 99),
    "imbalanced": (_holdout_imbalanced, 1000, 0.9, 33, 99),
    "skipped": (_holdout_rare, 400, 0.95, 34, 1),
}


def _bbc(name):
    data, kwargs = BBC_CASES[name]
    S, y = data()
    return bbc_correct(S, y, **kwargs).to_dict()


def _ci_estimate(name):
    data, n_boot, ci_level, seed, max_redraws = CI_CASES[name]
    scores, y = data()
    return bootstrap_auc_ci(scores, y, n_boot, ci_level, seed, max_redraws)


def _ci(name):
    est = _ci_estimate(name)
    return [est.ci_low, est.ci_high]


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(BBC_CASES))
def test_bbc_estimate_matches_fixture(recorded, name):
    assert _bbc(name) == recorded["bbc"][name]


@pytest.mark.parametrize("name", sorted(CI_CASES))
def test_holdout_ci_matches_fixture(recorded, name):
    assert _ci(name) == recorded["holdout_ci"][name]


def test_holdout_ci_counts_and_logs_skipped_replicates(caplog):
    with caplog.at_level(logging.WARNING, logger="crashsev.stats"):
        est = _ci_estimate("skipped")
    assert est.n_skipped == 48  # of 400 replicates, 2 draws each
    assert [r.getMessage() for r in caplog.records] == [
        "holdout CI: 48 of 400 bootstrap replicates skipped; all their draws missed a class"
    ]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="crashsev.stats"):
        assert _ci_estimate("ties").n_skipped == 0
    assert not caplog.records


def test_scored_and_skipped_replicates_add_up_to_the_requested_count():
    for name in ("skipped_c1", "skipped_c3"):
        est = _bbc(name)
        assert est["n_boot"] + est["n_skipped"] == BBC_CASES[name][1]["n_boot"]
    est = _ci_estimate("skipped")
    assert est.n_skipped > 0
    assert est.n_boot + est.n_skipped == CI_CASES["skipped"][1]


def test_no_replicate_scored_is_a_value_error():
    # with one positive, no replicate holds it both in-bag and out-of-bag
    y = np.zeros(40, dtype=int)
    y[3] = 1
    with pytest.raises(ValueError, match="all 100 bootstrap replicates skipped"):
        bbc_correct(np.tile(np.arange(40.0), (2, 1)), y, n_boot=100)


def test_fixture_covers_skipped_replicates(recorded):
    assert all(recorded["bbc"][name]["n_skipped"] > 0 for name in ("skipped_c1", "skipped_c3"))
    assert all(est["n_skipped"] == 0 for name, est in recorded["bbc"].items()
               if not name.startswith("skipped"))


def record() -> None:
    payload = {
        "bbc": {name: _bbc(name) for name in sorted(BBC_CASES)},
        "holdout_ci": {name: _ci(name) for name in sorted(CI_CASES)},
    }
    FIXTURE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
