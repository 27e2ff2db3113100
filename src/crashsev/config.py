"""Run configuration: a single INI-style file (key = value with sections)
parsed into the plans and grids the pipeline consumes, and dumped verbatim
into the run report for provenance, all but its ``[paths]`` section, which
goes to ``run_meta.json``.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

from .orchestrate import SubsetPlan
from .rng import spawn_seed
from .selection import check_stability_plan
from .tune import (
    CVPlan,
    ForestLearner,
    RidgeLearner,
    SearchGrid,
    TreeLearner,
    enumerate_search_space,
)

__all__ = ["RunConfig", "ConfigError"]


class ConfigError(Exception):
    """The run configuration is missing or malformed."""


_DEFAULT = object()  # a reader's answer that leaves its field at the default


def _or_default(read):
    """``read``, with an empty value meaning the field's default."""
    return lambda text: read(text) if text else _DEFAULT


def _or_none(read):
    """``read``, with ``none`` meaning None and an empty value the default."""
    return lambda text: None if text == "none" else _or_default(read)(text)


def _boolean(text: str) -> bool:
    if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"not a boolean: {text!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


def _numbers(text: str) -> list:
    try:
        values = json.loads(text)
    except json.JSONDecodeError:
        values = None
    if not isinstance(values, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        raise ValueError("not a JSON list of numbers")
    return values


def _class_weights(text: str) -> Optional[tuple[float, float]]:
    if text in ("", "balanced"):
        return None
    if text == "none":
        return (1.0, 1.0)
    weights = tuple(float(v) for v in text.split(","))
    if len(weights) != 2 or not all(math.isfinite(v) and v > 0 for v in weights):
        raise ValueError(f"class_weights must be two finite positive numbers, not {text!r}")
    return weights


# Every key a run file may hold: (section, key) -> (what it sets: the run, a
# plan, the grid or the final learner; the field it sets there; the function
# that reads its text). Any other section or key is an error, and a key the
# file leaves out keeps its field's default.
_KEYS = {
    ("paths", "matrix"): ("run", "matrix_path", _or_default(Path)),
    ("paths", "out_dir"): ("run", "out_dir", _or_default(Path)),
    ("run", "seed"): ("run", "seed", int),
    ("run", "max_workers"): ("run", "max_workers", int),
    ("run", "class_weights"): ("run", "class_weights", _class_weights),
    ("subsets", "n_subsets"): ("subsets", "n_subsets", int),
    ("subsets", "subset_size"): ("subsets", "subset_size", int),
    ("subsets", "disjoint"): ("subsets", "disjoint", _boolean),
    ("cv", "folds"): ("cv", "k", int),
    ("cv", "repeats"): ("cv", "repeats", int),
    ("cv", "n_complete"): ("cv", "n_complete", _or_default(int)),
    ("cv", "drop_margin"): ("cv", "drop_margin", _or_none(float)),
    ("cv", "drop_min_folds"): ("cv", "drop_min_folds", int),
    ("cv", "stop_epsilon"): ("cv", "stop_epsilon", _or_none(float)),
    ("cv", "bbc_boot"): ("cv", "bbc_boot", int),
    ("cv", "bbc_ci"): ("cv", "bbc_ci", float),
    **{("search", f.name): ("search", f.name, _numbers) for f in fields(SearchGrid)
       if f.name not in ("include_no_selector", "declared_total")},
    ("search", "include_no_selector"): ("search", "include_no_selector", _boolean),
    ("search", "declared_total"): ("search", "declared_total",
                                   lambda text: int(text) if text else None),
    ("stability", "threshold"): ("run", "stability_threshold", float),
    ("final", "learner"): ("final", "learner", str),
    **{("final", key): ("final", key, _or_default(float))
       for key in ("lambda", "min_leaf", "alpha", "n_trees")},
}
_SECTIONS = {section for section, _ in _KEYS}

# each final learner's class, and the [final] keys it reads -> (its argument,
# the default)
_FINAL_LEARNERS = {
    "ridge": (RidgeLearner, {"lambda": ("lam", 1.0)}),
    "tree": (TreeLearner, {"min_leaf": ("min_leaf", 5), "alpha": ("alpha_prune", 0.05)}),
    "forest": (ForestLearner, {"n_trees": ("n_trees", 100), "min_leaf": ("min_leaf", 5)}),
}


@dataclass(frozen=True)
class RunConfig:
    matrix_path: Optional[Path] = None
    out_dir: Path = Path("out")
    seed: int = 0
    max_workers: int = 1
    class_weights: Optional[tuple[float, float]] = None  # None = balanced
    subset_plan: SubsetPlan = field(default_factory=SubsetPlan)
    cv_plan: CVPlan = field(default_factory=CVPlan)
    grid: SearchGrid = field(default_factory=SearchGrid)
    stability_threshold: float = 0.75
    final_learner_spec: dict = field(default_factory=lambda: {"learner": "ridge", "lambda": 1.0})
    raw: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # a setting the run cannot use fails here, before any subset is drawn
        if self.max_workers < 1:
            raise ConfigError(f"max_workers must be at least 1, not {self.max_workers}")
        enumerate_search_space(self.grid)
        check_stability_plan(self.subset_plan.n_subsets, self.stability_threshold)
        self.final_learner()

    @classmethod
    def load(cls, path) -> "RunConfig":
        """Parse a config file; a malformed or out-of-range value raises
        ConfigError."""
        # no header can name the empty section, so a [DEFAULT] section, whose
        # keys configparser would copy into every other section, reads as an
        # ordinary section and is refused as unknown
        parser = configparser.ConfigParser(default_section="")
        values: dict = {"run": {}, "subsets": {}, "cv": {}, "search": {}, "final": {}}
        try:
            if not parser.read(path):
                raise ConfigError(f"cannot read config file {path}")
            raw = {s: dict(parser.items(s)) for s in parser.sections()}
            for section, items in raw.items():
                if section not in _SECTIONS:
                    raise ConfigError(f"unknown section [{section}]")
                for key, text in items.items():
                    if (section, key) not in _KEYS:
                        raise ConfigError(f"unknown key {key!r} in section [{section}]")
                    target, name, read = _KEYS[section, key]
                    try:
                        value = read(text)
                    except ValueError as exc:
                        raise ValueError(f"[{section}] {key}: {exc}") from exc
                    if value is not _DEFAULT:
                        values[target][name] = value
            if "final" in raw:
                values["run"]["final_learner_spec"] = {"learner": "ridge", **values["final"]}
            cfg = cls(subset_plan=SubsetPlan(**values["subsets"]), cv_plan=CVPlan(**values["cv"]),
                      grid=SearchGrid(**values["search"]), raw=raw, **values["run"])
            return cfg.with_seed(cfg.seed)
        except (ValueError, configparser.Error) as exc:
            raise ConfigError(f"bad config file {path}: {' '.join(str(exc).split())}") from exc

    def with_seed(self, seed: int) -> "RunConfig":
        """This configuration under root seed ``seed``: the subset and CV
        plans take their seeds from its named substreams."""
        return replace(
            self,
            seed=seed,
            subset_plan=replace(self.subset_plan, seed=spawn_seed(seed, "subsets")),
            cv_plan=replace(self.cv_plan, seed=spawn_seed(seed, "cv")),
        )

    def final_learner(self):
        """The learner the final model is fitted with. An unknown learner, or
        a ``[final]`` key the learner does not read, raises ConfigError."""
        spec = dict(self.final_learner_spec)
        kind = spec.pop("learner", "ridge")
        if kind not in _FINAL_LEARNERS:
            raise ConfigError(f"unknown final learner {kind!r}")
        learner, reads = _FINAL_LEARNERS[kind]
        unread = sorted(set(spec) - set(reads))
        if unread:
            raise ConfigError(f"final learner {kind!r} does not read [final] {unread[0]}")
        return learner(**{arg: spec.get(key, default) for key, (arg, default) in reads.items()})

    def dump(self) -> dict:
        """The configuration as the run report records it. The file's
        ``[paths]`` section is left out, so that the report does not depend
        on where the matrix and the outputs live."""
        return {
            "seed": self.seed,
            "max_workers": self.max_workers,
            "stability_threshold": self.stability_threshold,
            "final_learner": self.final_learner_spec,
            "raw": {name: items for name, items in self.raw.items() if name != "paths"},
        }
