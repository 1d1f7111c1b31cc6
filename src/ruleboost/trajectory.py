"""Loss trajectories of growing ensembles.

Each variant (loss, head mode) is trained once to the largest checkpoint;
because rules are additive and every round draws its randomness from a
stream keyed by the round index, the ensemble prefix of length t is
bit-identical to a fresh run with t rules, so evaluating prefixes at the
checkpoints is exact.  ``staged_scores`` is that prefix walk; holdout
tuning walks its rule-count axis with it too.

The variants are independent, separately seeded runs, so
``run_trajectory`` trains them in parallel: one forked worker process per
usable CPU, up to the number of variants.  With one variant, one usable
CPU or no ``fork`` start method, it trains them one after another in
this process.  Either way each variant runs the same function on the
same inputs, so every series is bit-identical to serial training.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, RuleBoostError
from .heads import HEAD_MULTI, HEAD_SINGLE
from .losses import EXAMPLE_WISE_LOGISTIC, LABEL_WISE_LOGISTIC
from .metrics import hamming_loss, subset_zero_one_loss
from .prediction import decode_scores, default_decode_method
from .rules import Ensemble, add_head, body_mask
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
            add_head(scores, body_mask(dataset, rule.body), rule.head.scores)
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
            bagging=bagging,
            feature_sampling=feature_sampling,
            seed=seed,
        )
        for variant in variants
    ]
    work = partial(_variant_points, train_data=train_data, test_data=test_data,
                   checkpoints=checkpoints)
    workers = min(len(configs), _usable_cpus())
    context = _fork_context() if workers > 1 else None
    if context is None:
        all_points = [work(config) for config in configs]
    else:
        all_points = _map_in_workers(work, configs, context, workers)
    return {variant.name: points for variant, points in zip(variants, all_points)}


def _variant_points(
    config: TrainConfig, *, train_data: Dataset, test_data: Dataset, checkpoints
) -> list[TrajectoryPoint]:
    """Train one variant to the last checkpoint and score its prefix at every checkpoint."""
    ensemble = train(train_data, config)
    method = default_decode_method(config.loss)
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
    return points


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_context():
    """The ``fork`` multiprocessing context, or None where the platform has none.

    Imported here, so that commands that never train several variants do
    not load multiprocessing.
    """
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def _map_in_workers(work, configs, context, workers) -> list:
    """``[work(c) for c in configs]``, computed in forked worker processes.

    Forked workers inherit the loaded modules, so none pays numpy's import
    again.  Variants are submitted longest first (dense example-wise
    Hessians before diagonal ones, all-label heads before single-label
    ones), so the longest run does not start last.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    def expected_cost(i):
        return (configs[i].loss != EXAMPLE_WISE_LOGISTIC, configs[i].head_mode != HEAD_MULTI)

    pool = ProcessPoolExecutor(workers, mp_context=context)
    try:
        futures = {i: pool.submit(work, configs[i])
                   for i in sorted(range(len(configs)), key=expected_cost)}
        return [futures[i].result() for i in range(len(configs))]
    except BrokenProcessPool as exc:
        raise RuleBoostError(
            f"a trajectory worker exited before returning its series ({exc})"
        ) from exc
    finally:
        pool.shutdown(cancel_futures=True)
