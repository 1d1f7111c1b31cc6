"""Loss trajectories of growing ensembles.

Each variant (loss, head mode) is trained once to the largest checkpoint;
because rules are additive and every round draws its randomness from a
stream keyed by the round index, the ensemble prefix of length t is
bit-identical to a fresh run with t rules, so evaluating prefixes at the
checkpoints is exact.  ``staged_scores`` is that prefix walk; holdout
tuning walks its rule-count axis with it too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ConfigError
from .heads import HEAD_MULTI, HEAD_SINGLE
from .losses import EXAMPLE_WISE_LOGISTIC, LABEL_WISE_LOGISTIC
from .metrics import hamming_loss, subset_zero_one_loss
from .prediction import decode_scores, default_decode_method
from .rules import Ensemble, body_mask
from .training import TrainConfig, train

DEFAULT_CHECKPOINTS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000)

_LOSS_TAGS = {LABEL_WISE_LOGISTIC: "lwlog", EXAMPLE_WISE_LOGISTIC: "exwlog"}


@dataclass(frozen=True)
class TrajectoryVariant:
    loss: str
    head_mode: str

    @property
    def name(self) -> str:
        return f"{_LOSS_TAGS.get(self.loss, self.loss)}-{self.head_mode}"


ALL_VARIANTS = (
    TrajectoryVariant(LABEL_WISE_LOGISTIC, HEAD_SINGLE),
    TrajectoryVariant(LABEL_WISE_LOGISTIC, HEAD_MULTI),
    TrajectoryVariant(EXAMPLE_WISE_LOGISTIC, HEAD_SINGLE),
    TrajectoryVariant(EXAMPLE_WISE_LOGISTIC, HEAD_MULTI),
)


@dataclass(frozen=True)
class TrajectoryPoint:
    n_rules: int
    hamming: float
    subset01: float


def staged_scores(ensemble: Ensemble, dataset: Dataset, checkpoints):
    """Yield (t, scores of the first t rules) once per distinct checkpoint, ascending.

    One walk over the rules serves every checkpoint.  The yielded score
    matrix is updated in place by the next stage; copy it to keep it.
    """
    stages = sorted(set(checkpoints))
    if stages and not 1 <= stages[0] <= stages[-1] <= len(ensemble):
        raise ValueError(f"checkpoints must lie in 1..{len(ensemble)}, got {stages}")
    scores = np.zeros((dataset.n_examples, ensemble.n_labels))
    done = 0
    for t in stages:
        for rule in ensemble.rules[done:t]:
            scores[body_mask(dataset, rule.body)] += rule.head.scores
        done = t
        yield t, scores


def run_trajectory(
    train_data: Dataset,
    test_data: Dataset,
    variants,
    checkpoints=DEFAULT_CHECKPOINTS,
    *,
    shrinkage: float = 0.3,
    l2_weight: float = 0.0,
    seed: int = 0,
    bagging: bool = True,
    feature_sampling: bool = True,
) -> dict[str, list[TrajectoryPoint]]:
    """Per-variant (rules, hamming, subset01) series at the checkpoints."""
    checkpoints = list(checkpoints)
    if any(t < 1 for t in checkpoints) or any(
        a >= b for a, b in zip(checkpoints, checkpoints[1:])
    ):
        raise ConfigError("checkpoints must be ascending rule counts >= 1")
    series: dict[str, list[TrajectoryPoint]] = {}
    if not checkpoints:
        return series

    for variant in variants:
        config = TrainConfig(
            loss=variant.loss,
            n_rules=max(checkpoints),
            shrinkage=shrinkage,
            l2_weight=l2_weight,
            head_mode=variant.head_mode,
            bagging=bagging,
            feature_sampling=feature_sampling,
            seed=seed,
        )
        ensemble = train(train_data, config)
        method = default_decode_method(variant.loss)
        points: list[TrajectoryPoint] = []
        for t, scores in staged_scores(ensemble, test_data, checkpoints):
            predicted = decode_scores(scores, method, ensemble.label_vectors)
            points.append(
                TrajectoryPoint(
                    n_rules=t,
                    hamming=hamming_loss(test_data.labels, predicted),
                    subset01=subset_zero_one_loss(test_data.labels, predicted),
                )
            )
        series[variant.name] = points
    return series
