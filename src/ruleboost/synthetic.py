"""Synthetic two-dimensional benchmarks with known Bayes-optimal losses.

Points are drawn uniformly from the closed unit disk.  Each label gets a
linear decision boundary through the origin: label k is +1 on the side
its normal direction points to (points exactly on a boundary count as
+1).  Three scenarios control how the boundaries and the noise interact:

* marginal_independence: independent uniform boundary directions; each
  label of each example is flipped independently with the noise rate.
* marginal_dependence: all boundary directions packed into a small
  angular fan, same label-wise flip noise.
* conditional_dependence: independent boundaries, but the noise flips
  every label of an affected example at once.

With flip probability p below one half, the noiseless half-plane labels
are Bayes-optimal for both Hamming and subset 0/1 loss: per-label flips
give a Bayes Hamming loss of p and a Bayes subset 0/1 loss of
1 - (1 - p)^l, whole-row flips give p for both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .choices import CONDITIONAL_DEPENDENCE, MARGINAL_DEPENDENCE, MARGINAL_INDEPENDENCE, SCENARIOS
from .dataset import NUMERIC, Attribute, AttributeSchema, Dataset
from .errors import ConfigError, check_finite, check_integer

_STREAM_BOUNDARIES = 100
_STREAM_TRAIN = 101
_STREAM_TEST = 102


@dataclass(frozen=True)
class SyntheticConfig:
    scenario: str
    n_examples: int = 10000
    n_labels: int = 6
    noise_rate: float = 0.1
    boundary_angle_spread: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_integer(self, "n_examples", "n_labels", "seed")
        check_finite(self, "noise_rate", "boundary_angle_spread")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        if not (0.0 <= self.noise_rate < 1.0):
            raise ConfigError("noise_rate must be in [0, 1)")
        if self.n_examples < 1 or self.n_labels < 1:
            raise ConfigError("n_examples and n_labels must be positive")
        if self.boundary_angle_spread < 0.0:
            raise ConfigError("boundary_angle_spread must be nonnegative")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")


def _schema(n_labels: int) -> tuple[AttributeSchema, list[str]]:
    schema = AttributeSchema((Attribute("x1", NUMERIC), Attribute("x2", NUMERIC)))
    return schema, [f"label{k + 1}" for k in range(n_labels)]


class SyntheticProcess:
    """A fixed set of boundary directions plus the scenario's noise model."""

    def __init__(self, config: SyntheticConfig):
        self.config = config
        rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, _STREAM_BOUNDARIES])
        )
        if config.scenario == MARGINAL_DEPENDENCE:
            base = rng.uniform(0.0, 2.0 * np.pi)
            half = config.boundary_angle_spread / 2.0
            offsets = rng.uniform(-half, half, size=config.n_labels - 1)
            self.angles = np.concatenate([[base], base + offsets])
        else:
            self.angles = rng.uniform(0.0, 2.0 * np.pi, size=config.n_labels)
        self.normals = np.column_stack([np.cos(self.angles), np.sin(self.angles)])

    def noiseless_labels(self, points: np.ndarray) -> np.ndarray:
        margins = points @ self.normals.T
        return np.where(margins >= 0.0, 1, -1).astype(np.int8)

    def _sample_points(self, n: int, rng: np.random.Generator) -> np.ndarray:
        radius = np.sqrt(rng.random(n))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
        return np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])

    def sample_dataset(self, n: int, stream: int) -> Dataset:
        rng = np.random.default_rng(np.random.SeedSequence([self.config.seed, stream]))
        points = self._sample_points(n, rng)
        labels = self.noiseless_labels(points)
        p = self.config.noise_rate
        if self.config.scenario == CONDITIONAL_DEPENDENCE:
            flip = rng.random(n) < p
            labels = np.where(flip[:, None], -labels, labels)
        else:
            flip = rng.random((n, self.config.n_labels)) < p
            labels = np.where(flip, -labels, labels)
        schema, label_names = _schema(self.config.n_labels)
        return Dataset(
            schema,
            [points[:, 0].copy(), points[:, 1].copy()],
            labels.astype(np.int8),
            label_names,
        )


def generate(config: SyntheticConfig) -> tuple[Dataset, Dataset]:
    """Train and test sets from disjoint random streams of one process."""
    process = SyntheticProcess(config)
    train = process.sample_dataset(config.n_examples, _STREAM_TRAIN)
    test = process.sample_dataset(config.n_examples, _STREAM_TEST)
    return train, test


def bayes_optimal_predict(config: SyntheticConfig, features) -> np.ndarray:
    """Noiseless half-plane labels for one point or an (n, 2) array."""
    process = SyntheticProcess(config)
    points = np.asarray(features, dtype=np.float64)
    if points.ndim == 1:
        return process.noiseless_labels(points[None, :])[0]
    return process.noiseless_labels(points)
