"""Run configuration: a single INI-style file (key = value with sections)
parsed into the plans and grids the pipeline consumes, and dumped verbatim
into the run report for provenance, all but its ``[paths]`` section, which
goes to ``run_meta.json``.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass, field, replace
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


_SEARCH_LIST_KEYS = (
    "ses_kmax",
    "ses_alpha",
    "lasso_penalty",
    "univariate_alpha",
    "epilogi_threshold",
    "ridge_lambda",
    "tree_min_leaf",
    "tree_alpha",
    "forest_n_trees",
    "forest_min_leaf",
)

# the keys each section may hold; any other section or key is an error
_SECTION_KEYS = {
    "paths": {"matrix", "out_dir"},
    "run": {"seed", "max_workers", "class_weights"},
    "subsets": {"n_subsets", "subset_size", "disjoint"},
    "cv": {"folds", "repeats", "n_complete", "drop_margin", "drop_min_folds", "stop_epsilon",
           "bbc_boot", "bbc_ci"},
    "search": {*_SEARCH_LIST_KEYS, "include_no_selector", "declared_total"},
    "stability": {"threshold"},
    "final": {"learner", "lambda", "min_leaf", "alpha", "n_trees"},
}


@dataclass
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

    @classmethod
    def load(cls, path) -> "RunConfig":
        """Parse a config file; a malformed or out-of-range value raises
        ConfigError."""
        parser = configparser.ConfigParser()
        try:
            if not parser.read(path):
                raise ConfigError(f"cannot read config file {path}")
            return cls._from_parser(parser)
        except (ValueError, configparser.Error) as exc:
            raise ConfigError(f"bad config file {path}: {' '.join(str(exc).split())}") from exc

    @classmethod
    def _from_parser(cls, parser: configparser.ConfigParser) -> "RunConfig":
        cfg = cls()
        cfg.raw = {s: dict(parser.items(s)) for s in parser.sections()}
        for name, items in cfg.raw.items():
            if name not in _SECTION_KEYS:
                raise ConfigError(f"unknown section [{name}]")
            unknown = sorted(set(items) - _SECTION_KEYS[name])
            if unknown:
                raise ConfigError(f"unknown key {unknown[0]!r} in section [{name}]")

        if parser.has_section("paths"):
            p = parser["paths"]
            cfg.matrix_path = Path(p["matrix"]) if p.get("matrix") else None
            if p.get("out_dir"):
                cfg.out_dir = Path(p["out_dir"])

        if parser.has_section("run"):
            r = parser["run"]
            cfg.seed = r.getint("seed", cfg.seed)
            cfg.max_workers = r.getint("max_workers", cfg.max_workers)
            weights = r.get("class_weights", "balanced").strip()
            if weights == "none":
                cfg.class_weights = (1.0, 1.0)
            elif weights and weights != "balanced":
                try:
                    w_neg, w_pos = (float(v) for v in weights.split(","))
                except ValueError as exc:
                    raise ConfigError(f"bad class_weights {weights!r}") from exc
                if not all(math.isfinite(v) and v > 0 for v in (w_neg, w_pos)):
                    raise ConfigError(f"class_weights must be two finite positive numbers, "
                                      f"not {weights!r}")
                cfg.class_weights = (w_neg, w_pos)

        if parser.has_section("subsets"):
            s = parser["subsets"]
            cfg.subset_plan = SubsetPlan(
                n_subsets=s.getint("n_subsets", 4),
                subset_size=s.getint("subset_size", 55_000),
                disjoint=s.getboolean("disjoint", True),
            )

        cv_kwargs: dict = {}
        if parser.has_section("cv"):
            c = parser["cv"]
            cv_kwargs["k"] = c.getint("folds", 10)
            cv_kwargs["repeats"] = c.getint("repeats", 1)
            if c.get("n_complete"):
                cv_kwargs["n_complete"] = c.getint("n_complete")
            if c.get("drop_margin", "").strip() == "none":
                cv_kwargs["drop_margin"] = None
            elif c.get("drop_margin"):
                cv_kwargs["drop_margin"] = c.getfloat("drop_margin")
            cv_kwargs["drop_min_folds"] = c.getint("drop_min_folds", 3)
            if c.get("stop_epsilon", "").strip() == "none":
                cv_kwargs["stop_epsilon"] = None
            elif c.get("stop_epsilon"):
                cv_kwargs["stop_epsilon"] = c.getfloat("stop_epsilon")
            cv_kwargs["bbc_boot"] = c.getint("bbc_boot", 500)
            cv_kwargs["bbc_ci"] = c.getfloat("bbc_ci", 0.95)
        cfg.cv_plan = CVPlan(**cv_kwargs)

        if parser.has_section("search"):
            s = parser["search"]
            grid_dict: dict = {}
            for key in _SEARCH_LIST_KEYS:
                if s.get(key) is not None:
                    try:
                        values = json.loads(s[key])
                    except json.JSONDecodeError:
                        values = None
                    if not isinstance(values, list) or not all(
                        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
                    ):
                        raise ConfigError(f"search.{key} is not a JSON list of numbers")
                    grid_dict[key] = values
            if s.get("include_no_selector") is not None:
                grid_dict["include_no_selector"] = s.getboolean("include_no_selector")
            if s.get("declared_total", "").strip():
                grid_dict["declared_total"] = s.getint("declared_total")
            elif "declared_total" in s:
                grid_dict["declared_total"] = None
            cfg.grid = SearchGrid.from_dict(grid_dict) if grid_dict else SearchGrid()
        enumerate_search_space(cfg.grid)  # an out-of-range value fails here, as in [final]

        if parser.has_section("stability"):
            cfg.stability_threshold = parser["stability"].getfloat("threshold", 0.75)
        check_stability_plan(cfg.subset_plan.n_subsets, cfg.stability_threshold)

        if parser.has_section("final"):
            f = parser["final"]
            cfg.final_learner_spec = {"learner": f.get("learner", "ridge")}
            for key in ("lambda", "min_leaf", "alpha", "n_trees"):
                if f.get(key):
                    cfg.final_learner_spec[key] = float(f[key])
        cfg.final_learner()  # an unknown learner or a bad value fails here, before any draw
        return cfg.with_seed(cfg.seed)

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
        spec = self.final_learner_spec
        kind = spec.get("learner", "ridge")
        if kind == "ridge":
            return RidgeLearner(lam=float(spec.get("lambda", 1.0)))
        if kind == "tree":
            return TreeLearner(
                min_leaf=spec.get("min_leaf", 5), alpha_prune=float(spec.get("alpha", 0.05))
            )
        if kind == "forest":
            return ForestLearner(n_trees=spec.get("n_trees", 100), min_leaf=spec.get("min_leaf", 5))
        raise ConfigError(f"unknown final learner {kind!r}")

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
