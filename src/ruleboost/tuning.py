"""Holdout grid search over shrinkage, L2 weight and rule count.

The rule-count axis is evaluated by walking ensemble prefixes: one
training run per (shrinkage, l2) pair at the largest rule count provides
every smaller count exactly, because per-round randomness is keyed by the
round index.  Failed grid points are recorded and do not abort the sweep.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .choices import DEFAULT_L2_WEIGHTS, DEFAULT_RULE_COUNTS, DEFAULT_SHRINKAGES, HEAD_MULTI
from .dataset import Dataset
from .errors import ConfigError, RuleBoostError, check_finite
from .losses import LOSSES
from .metrics import hamming_loss, subset_zero_one_loss
from .prediction import decode_scores, default_decode_method
from .training import TrainConfig, train
from .trajectory import staged_scores

_STREAM_SPLIT = 200

METRICS = {"hamming": hamming_loss, "subset01": subset_zero_one_loss}


@dataclass(frozen=True)
class GridSearchConfig:
    loss: str = "label-wise-logistic"
    head_mode: str = HEAD_MULTI
    shrinkages: tuple = DEFAULT_SHRINKAGES
    l2_weights: tuple = DEFAULT_L2_WEIGHTS
    rule_counts: tuple = DEFAULT_RULE_COUNTS
    validation_fraction: float = 1.0 / 3.0
    metric: str = "subset01"
    seed: int = 0
    bagging: bool = True
    feature_sampling: bool = True

    def validate(self):
        check_finite(self, "shrinkages", "l2_weights", "validation_fraction")
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}")
        if not self.shrinkages or not self.l2_weights or not self.rule_counts:
            raise ConfigError("every grid must be non-empty")
        if not (0.0 < self.validation_fraction < 1.0):
            raise ConfigError("validation_fraction must be in (0, 1)")
        if self.metric not in METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}; expected one of {sorted(METRICS)}")
        if any(t < 1 for t in self.rule_counts):
            raise ConfigError("rule counts must be >= 1")


@dataclass(frozen=True)
class GridCell:
    shrinkage: float
    l2_weight: float
    n_rules: int
    value: float


@dataclass(frozen=True)
class GridFailure:
    shrinkage: float
    l2_weight: float
    error: str


@dataclass
class GridSearchReport:
    metric: str
    n_train: int
    n_validation: int
    cells: list[GridCell] = field(default_factory=list)
    failures: list[GridFailure] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def train_validation_split(dataset: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled holdout split; both parts are non-empty."""
    if not (0.0 < fraction < 1.0):
        raise ConfigError("validation fraction must be in (0, 1)")
    n = dataset.n_examples
    if n < 2:
        raise ConfigError("dataset too small to split")
    n_val = min(max(int(round(n * fraction)), 1), n - 1)
    order = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_SPLIT])).permutation(n)
    return dataset.subset(order[n_val:]), dataset.subset(order[:n_val])


def _select_best(cells: list[GridCell]) -> GridCell:
    """Minimum metric; ties prefer fewer rules, then smaller l2, then smaller shrinkage."""
    return min(cells, key=lambda c: (c.value, c.n_rules, c.l2_weight, c.shrinkage))


def grid_search(dataset: Dataset, config: GridSearchConfig) -> tuple[TrainConfig, GridSearchReport]:
    config.validate()
    train_split, val_split = train_validation_split(
        dataset, config.validation_fraction, config.seed
    )
    report = GridSearchReport(
        metric=config.metric,
        n_train=train_split.n_examples,
        n_validation=val_split.n_examples,
    )
    metric_fn = METRICS[config.metric]
    method = default_decode_method(config.loss)
    base = TrainConfig(
        loss=config.loss,
        n_rules=max(config.rule_counts),
        head_mode=config.head_mode,
        bagging=config.bagging,
        feature_sampling=config.feature_sampling,
        seed=config.seed,
    )

    for shrinkage in config.shrinkages:
        for l2_weight in config.l2_weights:
            point = replace(base, shrinkage=shrinkage, l2_weight=l2_weight)
            try:
                ensemble = train(train_split, point)
                for t, scores in staged_scores(ensemble, val_split, config.rule_counts):
                    predicted = decode_scores(scores, method, ensemble.label_vectors)
                    report.cells.append(
                        GridCell(
                            shrinkage=shrinkage,
                            l2_weight=l2_weight,
                            n_rules=t,
                            value=metric_fn(val_split.labels, predicted),
                        )
                    )
            except RuleBoostError as exc:
                report.failures.append(GridFailure(shrinkage, l2_weight, str(exc)))

    if not report.cells:
        raise RuleBoostError("every grid point failed; see the report failures")
    best = _select_best(report.cells)
    best_config = replace(
        base, n_rules=best.n_rules, shrinkage=best.shrinkage, l2_weight=best.l2_weight
    )
    return best_config, report
