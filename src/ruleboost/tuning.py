"""Holdout grid search over shrinkage, L2 weight and rule count.

Tuning is a trajectory over grid cells: one training run per (shrinkage,
l2) cell at the largest rule count gives every smaller count exactly, as
in ``trajectory``, and the cells go through the same worker map,
``workers.map_configs``, in grid order.
A ``GridSearchConfig`` declares the default grids, takes its loss, head
mode and seed defaults from ``TrainConfig``, checks its fields and builds
each cell's ``TrainConfig`` when built, so no cell trains or forks on a bad
setting; a cell that then raises a RuleBoostError is recorded, not fatal.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .choices import METRICS
from .dataset import Dataset
from .errors import ConfigError, RuleBoostError, check_fields
from .training import TrainConfig, train
from .trajectory import checkpoint_points
from .workers import map_configs

_STREAM_SPLIT = 200


def _check_fraction(fraction: float) -> None:
    if not (0.0 < fraction < 1.0):
        raise ConfigError("validation_fraction must be in (0, 1)")


@dataclass(frozen=True)
class GridSearchConfig:
    loss: str = TrainConfig.loss
    head_mode: str = TrainConfig.head_mode
    shrinkages: tuple[float, ...] = (0.1, 0.3, 0.5)
    l2_weights: tuple[float, ...] = (0.0, 0.25, 1.0, 4.0, 16.0, 64.0)
    rule_counts: tuple[int, ...] = tuple(range(50, 10001, 50))
    validation_fraction: float = 1.0 / 3.0
    metric: str = "subset01"
    seed: int = TrainConfig.seed

    def __post_init__(self):
        check_fields(self)
        if not self.shrinkages or not self.l2_weights or not self.rule_counts:
            raise ConfigError("every grid must be non-empty")
        _check_fraction(self.validation_fraction)
        if self.metric not in METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}; expected one of {sorted(METRICS)}")
        if any(t < 1 for t in self.rule_counts):
            raise ConfigError("rule counts must be >= 1")
        self.cells()

    def cells(self) -> list[TrainConfig]:
        """One ``TrainConfig`` per (shrinkage, l2) cell in grid order, to the largest rule count."""
        return [TrainConfig(loss=self.loss, n_rules=max(self.rule_counts), shrinkage=shrinkage,
                            l2_weight=l2_weight, head_mode=self.head_mode, seed=self.seed)
                for shrinkage in self.shrinkages for l2_weight in self.l2_weights]


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
    _check_fraction(fraction)
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
    train_split, val_split = train_validation_split(
        dataset, config.validation_fraction, config.seed
    )
    report = GridSearchReport(
        metric=config.metric,
        n_train=train_split.n_examples,
        n_validation=val_split.n_examples,
    )
    cells = config.cells()

    def cell_points(cell):
        """The cell's validation points, or the message of the RuleBoostError it raised."""
        try:
            return checkpoint_points(train(train_split, cell), val_split, config.rule_counts)
        except RuleBoostError as exc:
            return str(exc)

    for cell, outcome in zip(cells, map_configs(cell_points, cells)):
        if isinstance(outcome, str):
            report.failures.append(GridFailure(cell.shrinkage, cell.l2_weight, outcome))
        else:
            report.cells += [GridCell(cell.shrinkage, cell.l2_weight, point.n_rules,
                                      getattr(point, config.metric)) for point in outcome]

    if not report.cells:
        first = report.failures[0]
        raise RuleBoostError(f"every grid point failed; the first (shrinkage {first.shrinkage}, "
                             f"l2 {first.l2_weight}) with: {first.error}")
    best = _select_best(report.cells)
    best_config = replace(
        cells[0], n_rules=best.n_rules, shrinkage=best.shrinkage, l2_weight=best.l2_weight
    )
    return best_config, report
