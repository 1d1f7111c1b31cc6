"""Loss trajectories of growing ensembles.

Each variant (loss, head mode) is trained once to the largest checkpoint;
because rules are additive and every round draws its randomness from a
stream keyed by the round index, the ensemble prefix of length t is
bit-identical to a fresh run with t rules, so evaluating prefixes at the
checkpoints is exact.  ``checkpoint_points`` scores them in one walk.

The variants are independent, separately seeded runs, trained through
``workers.map_configs`` longest first (see ``_expected_cost``); every
series is bit-identical to serial training.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

# The variants are defined beside the command line's choices; this module
# re-exports them with the walk that runs them.
from .choices import ALL_VARIANTS, DEFAULT_CHECKPOINTS, HEAD_MULTI, TrajectoryVariant
from .dataset import Dataset
from .errors import ConfigError
from .losses import EXAMPLE_WISE_LOGISTIC
from .metrics import hamming_loss, subset_zero_one_loss
from .prediction import decode_scores, default_decode_method
# ``body_mask`` is not used here; it is bound as ``trajectory.body_mask``
# because the benchmark's traced run (perfbench/spans.py) wraps that name.
from .rules import Ensemble, body_mask, staged_scores
from .training import TrainConfig, train
from .workers import map_configs


@dataclass(frozen=True)
class TrajectoryPoint:
    n_rules: int
    hamming: float
    subset01: float


def checkpoint_points(ensemble: Ensemble, data: Dataset, checkpoints) -> list[TrajectoryPoint]:
    """Losses on ``data`` of the ensemble's prefixes, once per distinct checkpoint, ascending.

    Each prefix is decoded with the default method of the model's loss.
    """
    method = default_decode_method(ensemble.meta.loss)
    points = []
    for t, scores in staged_scores(ensemble, data, checkpoints):
        predicted = decode_scores(scores, method, ensemble.label_vectors)
        points.append(TrajectoryPoint(t, hamming_loss(data.labels, predicted),
                                      subset_zero_one_loss(data.labels, predicted)))
    return points


def run_trajectory(
    train_data: Dataset,
    test_data: Dataset,
    variants,
    checkpoints=DEFAULT_CHECKPOINTS,
    *,
    shrinkage: float = 0.3,
    l2_weight: float = 0.0,
    seed: int = 0,
) -> dict[str, list[TrajectoryPoint]]:
    """Per-variant (rules, hamming, subset01) series at the checkpoints, in the order given."""
    checkpoints = list(checkpoints)
    if any(t < 1 for t in checkpoints) or any(
        a >= b for a, b in zip(checkpoints, checkpoints[1:])
    ):
        raise ConfigError("checkpoints must be ascending rule counts >= 1")
    variants = list(variants)
    if not checkpoints or not variants:
        return {}

    configs = [
        TrainConfig(
            loss=variant.loss,
            n_rules=max(checkpoints),
            shrinkage=shrinkage,
            l2_weight=l2_weight,
            head_mode=variant.head_mode,
            seed=seed,
        )
        for variant in variants
    ]
    for config in configs:  # before any variant trains or forks
        config.validate()
    work = partial(_variant_points, train_data=train_data, test_data=test_data,
                   checkpoints=checkpoints)
    all_points = map_configs(work, configs, cost=_expected_cost)
    return {variant.name: points for variant, points in zip(variants, all_points)}


def _variant_points(
    config: TrainConfig, *, train_data: Dataset, test_data: Dataset, checkpoints
) -> list[TrajectoryPoint]:
    """Train one variant to the last checkpoint and score its prefix at every checkpoint."""
    return checkpoint_points(train(train_data, config), test_data, checkpoints)


def _expected_cost(config: TrainConfig):
    """Sort key that puts the variants expected to train longest first.

    Dense example-wise Hessians take longer than diagonal ones and
    all-label heads longer than single-label ones, so with two shares of
    the four variants the first holds exwlog-multi and lwlog-single.
    """
    return (config.loss != EXAMPLE_WISE_LOGISTIC, config.head_mode != HEAD_MULTI)
