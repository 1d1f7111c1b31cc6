"""Stagewise boosting of a rule ensemble.

Round 1 installs the default rule: empty body, full head over all labels
(even in single-label mode), no shrinkage.  Every later round first folds
the previous rule into the per-example scores and derivative store, draws
a bootstrap sample of n examples, refines a rule on it, recomputes the
head on the entire training set, and scales it by the shrinkage factor.
The run's buffers belong to its derivative store, which is dropped on return.

Randomness is organized as one stream per purpose and round: the bagging
draw of round t and the feature-subset draws of round t come from
generators seeded by (seed, purpose, t).  Toggling one kind of sampling
therefore never shifts the other, and a training prefix of length t is
bit-identical to a fresh run with t rules.

A ``TrainConfig`` declares each training setting's default (``run_trajectory``
and ``GridSearchConfig`` take theirs from it) and checks each setting's declared
type and range when it is built (and so under ``dataclasses.replace``), so
training checks only its data.  Its ``meta`` holds its values of
``EnsembleMeta``'s fields, the settings a model records, and checks all but
``n_rules`` and ``head_mode``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .choices import HEAD_MODES, HEAD_MULTI, LABEL_WISE_LOGISTIC
from .dataset import Dataset
from .errors import ConfigError, check_fields, declared_types
from .heads import aggregate_stats, find_head, solve_full_head, stats_for_rows
from .induction import RefinementContext, presort, refine_rule_with_trace
from .losses import init_store, make_loss, update_store
from .rules import Body, Ensemble, EnsembleMeta, Rule, add_head, body_mask

_STREAM_BAGGING = 0
_STREAM_FEATURES = 1


def _round_rng(seed: int, stream: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, round_index]))


@dataclass(frozen=True)
class TrainConfig:
    loss: str = LABEL_WISE_LOGISTIC
    n_rules: int = 100
    shrinkage: float = 0.3
    l2_weight: float = 0.0
    head_mode: str = HEAD_MULTI
    bagging: bool = True
    feature_sampling: bool = True
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        self.meta  # built only to check the settings a model records
        if self.n_rules < 1:
            raise ConfigError("n_rules must be at least 1")
        if self.head_mode not in HEAD_MODES:
            raise ConfigError(f"unknown head mode {self.head_mode!r}")

    @property
    def meta(self) -> EnsembleMeta:
        """The settings a model trained with this config records, checked as it is built."""
        return EnsembleMeta(**{name: getattr(self, name) for name in declared_types(EnsembleMeta)})


@dataclass
class TrainDiagnostics:
    """Side products of a training run used by invariants and experiments.

    ``prescale_heads`` holds the full-data head of every rule before
    shrinkage (the default rule is never shrunk).  ``final_scores`` is the
    per-example score matrix of the finished ensemble.
    """

    prescale_heads: list[np.ndarray]
    refinement_traces: list[list[float]]
    final_scores: np.ndarray


def train_with_diagnostics(dataset: Dataset, config: TrainConfig) -> tuple[Ensemble, TrainDiagnostics]:
    if dataset.n_examples == 0:
        raise ConfigError("cannot train on an empty dataset")
    if dataset.n_labels < 1:
        raise ConfigError("dataset has no labels")

    loss = make_loss(config.loss)
    n = dataset.n_examples
    store = init_store(loss, dataset)
    scores = np.zeros((n, dataset.n_labels))

    # The default rule covers everything and always scores every label.
    default_stats = stats_for_rows(store, np.arange(n))
    default_head = solve_full_head(default_stats, config.l2_weight)
    rules = [Rule(Body(), default_head)]
    prescale_heads = [default_head.scores]
    refinement_traces: list[list[float]] = []
    orders = presort(dataset)

    for round_index in range(2, config.n_rules + 1):
        update_store(store, loss, dataset, rules[-1], scores)
        if config.bagging:
            bag = _round_rng(config.seed, _STREAM_BAGGING, round_index).integers(0, n, size=n)
        else:
            bag = np.arange(n)
        context = RefinementContext(
            sample=bag,
            head_mode=config.head_mode,
            l2_weight=config.l2_weight,
            rng=_round_rng(config.seed, _STREAM_FEATURES, round_index),
            feature_sampling=config.feature_sampling,
            orders=orders,
        )
        draft, trace = refine_rule_with_trace(dataset, store, context)
        full_stats = aggregate_stats(store, draft.body, dataset)
        head = find_head(full_stats, config.l2_weight, config.head_mode)
        prescale_heads.append(head.scores)
        rules.append(Rule(draft.body, head.scaled(config.shrinkage)))
        refinement_traces.append(trace)

    # Bring the score matrix up to date with the last rule (the store is
    # only refreshed when the next round needs it).
    add_head(scores, body_mask(dataset, rules[-1].body), rules[-1].head.scores)

    ensemble = Ensemble(
        rules=rules,
        label_names=list(dataset.label_names),
        schema=dataset.schema,
        meta=config.meta,
        label_vectors=dataset.distinct_label_vectors(),
    )
    return ensemble, TrainDiagnostics(prescale_heads, refinement_traces, scores)


def train(dataset: Dataset, config: TrainConfig) -> Ensemble:
    ensemble, _ = train_with_diagnostics(dataset, config)
    return ensemble
