"""Recorded parse of run configuration files.

``data/config_fixture.json`` holds, for each INI file below, what
``RunConfig.load`` made of it: ``dump()``, both plans, the search grid, the
paths, the class weights and the final learner's label. The files cover
every key of every section, the forms the benchmark writes, the empty and
``none`` values, and the README example. A change to the parser that means
to keep its results must reproduce them exactly. Record again
(``python tests/test_config_fixture.py``) only for a change that means to
alter what a file loads to, and say so.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from crashsev.config import ConfigError, RunConfig

FIXTURE = Path(__file__).parent / "data" / "config_fixture.json"
README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_example() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("```ini\n", 1)[1].split("```", 1)[0]


# the shape the benchmark's planted_ses workload writes
PLANTED_SES = """
[paths]
matrix = work/planted.csfm
out_dir = work/pass
[subsets]
n_subsets = 4
subset_size = 1500
disjoint = true
[cv]
folds = 4
stop_epsilon = none
bbc_boot = 100
[search]
ses_kmax = [2]
ses_alpha = [0.01, 0.05]
lasso_penalty = []
univariate_alpha = []
epilogi_threshold = []
include_no_selector = false
ridge_lambda = [0.0001, 0.001, 0.1, 1.0, 10, 100]
tree_min_leaf = []
tree_alpha = []
forest_n_trees = []
forest_min_leaf = []
declared_total =
[stability]
threshold = 0.75
[final]
learner = ridge
lambda = 1.0
[run]
seed = 1
max_workers = 2
class_weights = balanced
"""

# the shape the benchmark's crash_grid workload writes
CRASH_GRID = """
[paths]
matrix = data/encoded/matrix.csfm
out_dir = work/pass/run0
[subsets]
n_subsets = 2
subset_size = 900
disjoint = true
[cv]
folds = 3
stop_epsilon = none
bbc_boot = 100
[search]
ses_kmax = []
ses_alpha = []
lasso_penalty = [0.5, 1.0]
univariate_alpha = [0.01]
epilogi_threshold = []
include_no_selector = true
ridge_lambda = [0.1, 10]
tree_min_leaf = [5]
tree_alpha = [0.05]
forest_n_trees = [2]
forest_min_leaf = [5]
declared_total =
[stability]
threshold = 0.75
[final]
learner = tree
min_leaf = 5
alpha = 0.05
[run]
seed = 41
max_workers = 2
class_weights = balanced
"""

# every key of every section, each away from its default
EVERY_KEY = """
[paths]
matrix = m.csfm
out_dir = elsewhere
[run]
seed = 7
max_workers = 3
class_weights = 2.5, 1
[subsets]
n_subsets = 5
subset_size = 1000
disjoint = no
[cv]
folds = 5
repeats = 2
n_complete = 3
drop_margin = 0.05
drop_min_folds = 2
stop_epsilon = 0.01
bbc_boot = 200
bbc_ci = 0.9
[search]
ses_kmax = [1, 4]
ses_alpha = [0.2]
lasso_penalty = [0, 3]
univariate_alpha = [0.5]
epilogi_threshold = [0.02, 0.03]
include_no_selector = Off
ridge_lambda = [5]
tree_min_leaf = [7]
tree_alpha = [0, 1]
forest_n_trees = [3]
forest_min_leaf = [9]
declared_total = 100
[stability]
threshold = 0.6
[final]
learner = forest
n_trees = 50
min_leaf = 3
"""

CASES = {
    "readme": _readme_example(),
    "planted_ses_form": PLANTED_SES,
    "crash_grid_form": CRASH_GRID,
    "every_key": EVERY_KEY,
    "empty_file": "",
    "empty_sections": "[paths]\n[run]\n[subsets]\n[cv]\n[search]\n[stability]\n[final]\n",
    "empty_values": """
[paths]
matrix =
out_dir =
[run]
class_weights =
[cv]
n_complete =
drop_margin =
stop_epsilon =
[search]
declared_total =
[final]
learner = tree
min_leaf =
alpha =
""",
    "none_values": """
[run]
class_weights = none
[cv]
drop_margin = none
stop_epsilon = none
[final]
learner = forest
n_trees =
min_leaf = 2
""",
    "final_without_learner": "[final]\nlambda = 2\n",
    "final_ridge_empty_lambda": "[final]\nlearner = ridge\nlambda =\n",
    "final_tree_defaults": "[final]\nlearner = tree\n",
    "integral_float_learner_numbers": "[final]\nlearner = forest\nn_trees = 7.0\nmin_leaf = 2.0\n",
    "one_search_key": "[search]\ndeclared_total = 476\n",
    "seed_only": "[run]\nseed = 1\n",
}

# empty or ``none`` where the key has no such form: refused, not defaulted
REFUSED = {
    "empty_seed": "[run]\nseed =\n",
    "empty_max_workers": "[run]\nmax_workers =\n",
    "empty_n_subsets": "[subsets]\nn_subsets =\n",
    "empty_subset_size": "[subsets]\nsubset_size =\n",
    "empty_disjoint": "[subsets]\ndisjoint =\n",
    "empty_folds": "[cv]\nfolds =\n",
    "empty_repeats": "[cv]\nrepeats =\n",
    "empty_drop_min_folds": "[cv]\ndrop_min_folds =\n",
    "empty_bbc_boot": "[cv]\nbbc_boot =\n",
    "empty_bbc_ci": "[cv]\nbbc_ci =\n",
    "none_n_complete": "[cv]\nn_complete = none\n",
    "capital_none_drop_margin": "[cv]\ndrop_margin = None\n",
    "empty_search_list": "[search]\nses_kmax =\n",
    "empty_include_no_selector": "[search]\ninclude_no_selector =\n",
    "none_declared_total": "[search]\ndeclared_total = none\n",
    "empty_threshold": "[stability]\nthreshold =\n",
    "empty_learner": "[final]\nlearner =\n",
    "one_class_weight": "[run]\nclass_weights = 2\n",
}


def _loaded(text: str, tmp_path: Path) -> dict:
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    cfg = RunConfig.load(path)
    return {
        "dump": cfg.dump(),
        "subset_plan": asdict(cfg.subset_plan),
        "cv_plan": asdict(cfg.cv_plan),
        "grid": vars(cfg.grid),
        "final_learner": cfg.final_learner().label(),
        "class_weights": None if cfg.class_weights is None else list(cfg.class_weights),
        "matrix_path": None if cfg.matrix_path is None else str(cfg.matrix_path),
        "out_dir": str(cfg.out_dir),
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_loads_to_the_recorded_values(name, recorded, tmp_path):
    # through JSON, as recorded: tuples become lists
    assert json.loads(json.dumps(_loaded(CASES[name], tmp_path))) == recorded[name]


def test_every_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused(name, tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(REFUSED[name], encoding="utf-8")
    with pytest.raises(ConfigError):
        RunConfig.load(path)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {name: _loaded(text, Path(tmp)) for name, text in sorted(CASES.items())}
    FIXTURE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
