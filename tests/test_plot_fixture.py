"""Recorded bytes of the explanation's plot files.

Each case saves a linear model and a feature matrix, runs ``crashsev
explain --svg`` on them, and compares the sha256 digests of
``plotdata.csv`` and ``summary_plot.svg`` with those recorded in
``DIGESTS``. The cases cover a one-hot group whose weak levels the 40%
display filter drops, a constant column (colour value 0.5, whose green and
blue channels are exact halves), a column whose colour values are the
quarters 0 to 1 (red channels 82.5 and 185.5, rounded half to even), a
label holding ``&``, ``<``, ``>`` and ``"``, attributions of both signs and
of ``0`` and ``-0``, and a matrix of more than 4,096 rows.

The data are built from integer arithmetic and exact divisions, and the
model's weights are set, not fitted, so the digests do not depend on a
solver. A change to how the plot files are written must reproduce them.
Record again (``python tests/test_plot_fixture.py``) only for a change that
means to alter the files, and say so.
"""

import hashlib
import sys

import numpy as np
import pytest

from crashsev.cli import main
from crashsev.learners import LinearModel, save_model
from crashsev.preprocess import ColumnInfo, FeatureMatrix, save_matrix

LABEL = 'Tag&<"x">'

DIGESTS = {
    "all_features": {
        "plotdata.csv": "ef77d1a867a9adbe7ddbf15e0bc58001200f90300c81f32491d2d0d0401b1030",
        "summary_plot.svg": "c956036663cfaa9c0d4b180372fc97e9753344723874cd28f7eb943e7829c239",
    },
    "feature_subset": {
        "plotdata.csv": "5eb412cab0440144942071658096453944e3d7fd07efba2a0d3abbb3c6b2d723",
        "summary_plot.svg": "2deee44a768730af6bc77532dce5f53488ec9049380b609c3fdfc71b7a624341",
    },
    "over_one_block": {
        "plotdata.csv": "422f9aaffa8181ba32e49039aaae6bbb408da9c3927acbf067f793d7ac12b57c",
        "summary_plot.svg": "6962e273a78aca48d4ab49d1f46eb4fd762a819996ec5b206f5b22ec249df061",
    },
}


def _mixed(n: int):
    """A one-hot group, and numeric, label, constant, zero-weight and
    quarter-step columns."""
    i = np.arange(n)
    levels = ("clear", "rain", "snow", "fog")
    weather = (i * 7) % 11 % len(levels)
    columns = [ColumnInfo(name=f"Weather={lvl}", kind="onehot", source="Weather", level=lvl)
               for lvl in levels]
    X = [(weather == k).astype(np.float64) for k in range(len(levels))]
    for name in ("Speed", LABEL, "Const", "Zero", "Steps"):
        columns.append(ColumnInfo(name=name, kind="numeric", source=name))
    X.append(((i * 37) % 101) / 4.0 - 12.5)
    X.append(((i * 13) % 17) / 8.0)
    X.append(np.full(n, 3.25))
    X.append(((i * 5) % 9) / 2.0 - 2.0)
    X.append((i % 5).astype(np.float64))
    weights = np.array([1.5, -1.25, 0.25, 0.125, -0.75, 0.5, 0.875, 0.0, 0.375])
    return np.column_stack(X), weights, columns


def _wide(n: int):
    """Three numeric columns over more rows than one 4,096-row block."""
    i = np.arange(n)
    columns = [ColumnInfo(name=name, kind="numeric", source=name) for name in ("A", "B", "C")]
    X = np.column_stack([((i * 31) % 97) / 8.0, ((i * 11) % 23) / 4.0 - 2.5,
                         ((i * 3) % 7) / 2.0])
    return X, np.array([0.625, -1.5, 0.25]), columns


CASES = {
    "all_features": (lambda: _mixed(240), "all", 7),
    "feature_subset": (lambda: _mixed(240), f"Steps,Weather,{LABEL}", 3),
    "over_one_block": (lambda: _wide(4500), "all", 11),
}


def _run_case(name: str, tmp_path) -> dict:
    build, features, seed = CASES[name]
    X, weights, columns = build()
    n, p = X.shape
    model = LinearModel(column_names=[c.name for c in columns], weights=weights,
                        intercept=-0.5, means=np.full(p, 0.5), scales=np.full(p, 2.0),
                        lam=1.0, class_weights=None)
    save_model(model, tmp_path / "model.json")
    save_matrix(FeatureMatrix(X, (np.arange(n) % 3 == 0), columns), tmp_path / "matrix.csfm")
    out = tmp_path / "explain"
    assert main(["--seed", str(seed), "explain", "--model", str(tmp_path / "model.json"),
                 "--matrix", str(tmp_path / "matrix.csfm"), "--features", features,
                 "--svg", "--out-dir", str(out)]) == 0
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in ("plotdata.csv", "summary_plot.svg")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_plot_files_match_the_recorded_digests(name, tmp_path):
    assert _run_case(name, tmp_path) == DIGESTS[name]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            digests = _run_case(case, Path(tmp))
        sys.stdout.write(f"    {case!r}: {{\n")
        for file, digest in digests.items():
            sys.stdout.write(f"        {file!r}: {digest!r},\n")
        sys.stdout.write("    },\n")
