"""Synthetic planted-signal generator for desk-scale validation.

Standard-normal features, a sparse logistic link with known coefficients,
and a quadrature oracle for the generator's Bayes-optimal AUC, so
end-to-end runs can be checked against an analytically known ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .preprocess import FeatureMatrix
from .rng import substream
from .stats import expit

__all__ = ["PlantedGenerator", "planted_generator"]


@dataclass
class PlantedGenerator:
    """x ~ N(0, I_p); logit P(y=1 | x) = intercept + coef . x."""

    n_features: int
    coef: np.ndarray
    intercept: float
    feature_names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.coef = np.asarray(self.coef, dtype=np.float64)
        if self.coef.size != self.n_features:
            raise ValueError("coefficient vector length must match n_features")
        if not self.feature_names:
            width = len(str(self.n_features - 1))
            self.feature_names = [f"f{i:0{width}d}" for i in range(self.n_features)]

    @property
    def planted(self) -> list[str]:
        return [self.feature_names[i] for i in np.flatnonzero(self.coef != 0.0)]

    def sample(self, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        rng = substream(seed, "synth")
        X = rng.standard_normal((n, self.n_features))
        p = expit(self.intercept + X @ self.coef)
        y = (rng.random(n) < p).astype(np.int8)
        return X, y

    def matrix(self, n: int, seed: int) -> FeatureMatrix:
        X, y = self.sample(n, seed)
        return FeatureMatrix.from_arrays(X, y, names=self.feature_names)

    # -- analytic properties of the generating process ----------------------

    def _score_grid(self, n_points: int = 20001) -> tuple[np.ndarray, np.ndarray]:
        sigma = float(np.linalg.norm(self.coef))
        if sigma == 0.0:
            raise ValueError("generator has no informative features")
        s = np.linspace(-10.0 * sigma, 10.0 * sigma, n_points)
        density = np.exp(-0.5 * (s / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        return s, density

    def prevalence(self) -> float:
        """E[sigmoid(intercept + s)] with s ~ N(0, ||coef||^2), by quadrature."""
        s, density = self._score_grid()
        return float(np.trapezoid(expit(self.intercept + s) * density, s))

    def bayes_auc(self) -> float:
        """AUC of the Bayes-optimal score, by two-level quadrature.

        The optimal score is s = coef . x; conditioning on labels gives
        AUC = E[1(s+ > s-)] = E[p(s1)(1-p(s2)) 1(s1 > s2)] / (pbar (1-pbar)).
        """
        s, density = self._score_grid()
        p = expit(self.intercept + s)
        pos = p * density
        neg = (1.0 - p) * density
        # cumulative mass of negatives strictly below each grid point
        neg_cum = np.concatenate(([0.0], np.cumsum((neg[1:] + neg[:-1]) / 2.0 * np.diff(s))))
        inner = float(np.trapezoid(pos * neg_cum, s))
        pbar = float(np.trapezoid(pos, s))
        return inner / (pbar * (1.0 - pbar))


def _calibrate_intercept(coef: np.ndarray, target_prevalence: float) -> float:
    """Intercept making E[sigmoid(b0 + coef.x)] hit the target, by bisection."""
    lo, hi = -30.0, 30.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        gen = PlantedGenerator(n_features=coef.size, coef=coef, intercept=mid)
        if gen.prevalence() < target_prevalence:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def planted_generator(
    n_features: int = 200,
    n_informative: int = 10,
    effect: float = 0.5,
    prevalence: float = 1.0 / 51.0,
) -> PlantedGenerator:
    """Generator with n_informative leading features of alternating-sign
    effect size, intercept calibrated to the requested class imbalance
    (prevalence 1/51 is a 50:1 ratio)."""
    if n_informative > n_features:
        raise ValueError("cannot plant more informative features than exist")
    coef = np.zeros(n_features)
    signs = np.where(np.arange(n_informative) % 2 == 0, 1.0, -1.0)
    coef[:n_informative] = effect * signs
    intercept = _calibrate_intercept(coef, prevalence)
    return PlantedGenerator(n_features=n_features, coef=coef, intercept=intercept)
