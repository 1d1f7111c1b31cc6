"""Boosting loop: default rule, shrinkage, score bookkeeping, determinism."""

import dataclasses
import gc
import re
import tracemalloc

import numpy as np
import pytest

from ruleboost.dataset import NUMERIC, Attribute, AttributeSchema, Dataset
from ruleboost.errors import ConfigError
from ruleboost.losses import make_loss
from ruleboost.rules import ensemble_scores
from ruleboost import training
from ruleboost.serialization import dumps
from ruleboost.synthetic import SyntheticConfig, generate
from ruleboost.training import TrainConfig, train, train_with_diagnostics

from conftest import dataset_from_rows, random_dataset


def _single_label_dataset(labels):
    schema = AttributeSchema((Attribute("x", NUMERIC),))
    rows = [[float(i)] for i in range(len(labels))]
    matrix = np.asarray(labels, dtype=np.int8).reshape(-1, 1)
    return dataset_from_rows(schema, rows, matrix, ["l0"])


class TestConfigValidation:
    def test_rule_count_must_be_positive(self, rng):
        dataset = random_dataset(rng, 10, n_numeric=1)
        with pytest.raises(ConfigError):
            train(dataset, TrainConfig(n_rules=0))

    def test_shrinkage_range(self, rng):
        dataset = random_dataset(rng, 10, n_numeric=1)
        with pytest.raises(ConfigError):
            train(dataset, TrainConfig(shrinkage=0.0))
        with pytest.raises(ConfigError):
            train(dataset, TrainConfig(shrinkage=1.5))

    def test_unknown_loss(self, rng):
        dataset = random_dataset(rng, 10, n_numeric=1)
        with pytest.raises(ConfigError):
            train(dataset, TrainConfig(loss="hinge"))

    def test_negative_l2(self, rng):
        dataset = random_dataset(rng, 10, n_numeric=1)
        with pytest.raises(ConfigError):
            train(dataset, TrainConfig(l2_weight=-1.0))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["shrinkage", "l2_weight"])
    def test_non_finite_float_names_its_field(self, rng, field, value):
        dataset = random_dataset(rng, 10, n_numeric=1)
        for loss in ("label-wise-logistic", "example-wise-logistic"):
            with pytest.raises(ConfigError, match=f"^{field} must be a finite number"):
                train(dataset, TrainConfig(loss=loss, n_rules=2, **{field: value}))


    @pytest.mark.parametrize("field,value", [
        ("n_rules", 2.5), ("n_rules", True), ("seed", 1.5), ("seed", "0"),
    ])
    def test_non_integer_names_its_field(self, rng, field, value):
        dataset = random_dataset(rng, 10, n_numeric=1)
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, not {value!r}$"):
            train(dataset, TrainConfig(**{field: value}))

    @pytest.mark.parametrize("setting,message", [
        ({"loss": ["x"]}, "loss must be a string, not ['x']"),
        ({"shrinkage": "0.3"}, "shrinkage must be a finite number, not '0.3'"),
        ({"shrinkage": True}, "shrinkage must be a finite number, not True"),
        ({"bagging": "no"}, "bagging must be a boolean, not 'no'"),
        ({"feature_sampling": 0}, "feature_sampling must be a boolean, not 0"),
        ({"shrinkage": 10**400}, f"shrinkage must be a finite number, not {10**400}"),
        ({"l2_weight": 10**400}, f"l2_weight must be a finite number, not {10**400}"),
    ], ids=["list-loss", "string-shrinkage", "bool-shrinkage", "string-bagging", "int-sampling",
            "huge-int-shrinkage", "huge-int-l2-weight"])
    def test_a_field_of_the_wrong_type_names_it(self, setting, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            TrainConfig(**setting)

    def test_a_config_checks_itself_when_built(self):
        with pytest.raises(ConfigError, match="^n_rules must be at least 1$"):
            TrainConfig(n_rules=0)
        with pytest.raises(ConfigError, match=r"^shrinkage must be in \(0, 1\]$"):
            dataclasses.replace(TrainConfig(), shrinkage=2.0)

    def test_an_empty_dataset_is_rejected(self):
        dataset = _single_label_dataset(np.ones(0))
        with pytest.raises(ConfigError, match="^cannot train on an empty dataset$"):
            train(dataset, TrainConfig(n_rules=2))

    def test_a_dataset_without_labels_is_rejected(self, rng):
        dataset = random_dataset(rng, 10, n_numeric=1)
        unlabelled = Dataset(dataset.schema, dataset.columns, np.ones((10, 0), dtype=np.int8), [])
        with pytest.raises(ConfigError, match="^dataset has no labels$"):
            train(unlabelled, TrainConfig(n_rules=2))

    def test_numpy_integers_are_integers(self, rng):
        dataset = random_dataset(rng, 10, n_numeric=1)
        config = TrainConfig(n_rules=np.int64(3), seed=np.int32(4))
        assert dumps(train(dataset, config)) == dumps(train(dataset, TrainConfig(n_rules=3, seed=4)))


class TestDefaultRule:
    def test_one_rule_ensemble_is_default_only(self, rng):
        dataset = random_dataset(rng, 12, n_numeric=2, n_labels=3)
        ensemble = train(dataset, TrainConfig(n_rules=1))
        assert len(ensemble) == 1
        assert len(ensemble.rules[0].body) == 0

    def test_balanced_label_gets_zero_default_score(self):
        dataset = _single_label_dataset([1, -1, 1, -1])
        ensemble = train(dataset, TrainConfig(n_rules=1, l2_weight=0.0))
        assert ensemble.rules[0].head.scores[0] == pytest.approx(0.0, abs=1e-15)

    def test_all_positive_label_default_score(self):
        # At zero scores each gradient is -0.5 and each curvature 0.25,
        # so the unregularized default score is 2.0.
        dataset = _single_label_dataset([1, 1, 1, 1, 1])
        ensemble = train(dataset, TrainConfig(n_rules=1, l2_weight=0.0))
        assert ensemble.rules[0].head.scores[0] == pytest.approx(2.0, rel=1e-12)

    def test_default_head_is_full_even_in_single_mode(self, rng):
        dataset = random_dataset(rng, 30, n_numeric=2, n_labels=3)
        ensemble = train(dataset, TrainConfig(n_rules=5, head_mode="single", seed=1))
        default = ensemble.rules[0].head
        assert default.label_index is None
        for rule in ensemble.rules[1:]:
            assert rule.head.label_index is not None

    def test_default_rule_not_shrunk(self, rng):
        dataset = random_dataset(rng, 30, n_numeric=2, n_labels=2)
        ensemble, diag = train_with_diagnostics(
            dataset, TrainConfig(n_rules=4, shrinkage=0.1, seed=5)
        )
        assert np.array_equal(ensemble.rules[0].head.scores, diag.prescale_heads[0])


class TestTrainingInvariants:
    @pytest.mark.parametrize("loss_id", ["label-wise-logistic", "example-wise-logistic"])
    @pytest.mark.parametrize("head_mode", ["single", "multi"])
    def test_shrinkage_scalar_relation_exact(self, loss_id, head_mode, rng):
        dataset = random_dataset(rng, 40, n_numeric=2, n_nominal=1, n_labels=2)
        config = TrainConfig(
            loss=loss_id, n_rules=15, shrinkage=0.3, head_mode=head_mode, seed=9
        )
        ensemble, diag = train_with_diagnostics(dataset, config)
        for rule, prescale in zip(ensemble.rules[1:], diag.prescale_heads[1:]):
            assert np.array_equal(rule.head.scores, prescale * 0.3)

    @pytest.mark.parametrize("loss_id", ["label-wise-logistic", "example-wise-logistic"])
    def test_score_matrix_matches_from_scratch_aggregation(self, loss_id, rng):
        dataset = random_dataset(rng, 50, n_numeric=2, n_nominal=1, n_labels=3,
                                 missing_rate=0.05)
        config = TrainConfig(loss=loss_id, n_rules=30, seed=3)
        ensemble, diag = train_with_diagnostics(dataset, config)
        recomputed = ensemble_scores(ensemble, dataset)
        np.testing.assert_allclose(diag.final_scores, recomputed, rtol=0, atol=1e-12)

    def test_refinement_objectives_strictly_decreasing(self, rng):
        dataset = random_dataset(rng, 60, n_numeric=3, n_labels=2)
        _, diag = train_with_diagnostics(dataset, TrainConfig(n_rules=20, seed=4))
        for trace in diag.refinement_traces:
            assert all(b < a for a, b in zip(trace, trace[1:]))

    def test_fixed_seed_bit_determinism(self, rng):
        dataset = random_dataset(rng, 40, n_numeric=2, n_nominal=1, n_labels=2)
        config = TrainConfig(loss="example-wise-logistic", n_rules=12, seed=11)
        first = dumps(train(dataset, config))
        second = dumps(train(dataset, config))
        assert first == second

    def test_different_seeds_differ(self, rng):
        dataset = random_dataset(rng, 40, n_numeric=2, n_labels=2)
        a = dumps(train(dataset, TrainConfig(n_rules=10, seed=1)))
        b = dumps(train(dataset, TrainConfig(n_rules=10, seed=2)))
        assert a != b

    @pytest.mark.parametrize("loss_id", ["label-wise-logistic", "example-wise-logistic"])
    @pytest.mark.parametrize("l2_weight", [0.0, 1.0])
    def test_training_objective_non_increasing_without_sampling(self, loss_id, l2_weight, rng):
        """Full-step, no-sampling boosting never increases the regularized objective."""
        dataset = random_dataset(rng, 50, n_numeric=2, n_labels=3)
        loss = make_loss(loss_id)
        config = TrainConfig(
            loss=loss_id,
            n_rules=25,
            shrinkage=1.0,
            l2_weight=l2_weight,
            bagging=False,
            feature_sampling=False,
            seed=0,
        )
        ensemble = train(dataset, config)
        labels = dataset.labels.astype(float)
        scores = np.zeros_like(labels)
        objectives = []
        penalty = 0.0
        for rule in ensemble.rules:
            from ruleboost.rules import body_mask

            scores[body_mask(dataset, rule.body)] += rule.head.scores
            penalty += 0.5 * l2_weight * float(rule.head.scores @ rule.head.scores)
            objectives.append(loss.evaluate_batch(labels, scores).sum() + penalty)
        assert all(b <= a + 1e-9 for a, b in zip(objectives, objectives[1:]))

    def test_prefix_training_equivalence(self, rng):
        """A fresh short run equals the prefix of a longer run, bit for bit."""
        dataset = random_dataset(rng, 40, n_numeric=2, n_nominal=1, n_labels=2)
        base = dict(loss="example-wise-logistic", shrinkage=0.5, seed=21)
        long = train(dataset, TrainConfig(n_rules=9, **base))
        short = train(dataset, TrainConfig(n_rules=4, **base))
        assert short.rules == long.rules[:4]

    def test_sampling_streams_independent(self, rng):
        """Toggling feature sampling must not change the bagging draws:
        rules that needed no feature draw stay identical."""
        names = ["l0", "l1"]
        schema = AttributeSchema((Attribute("x0", NUMERIC),))
        values = rng.uniform(0, 1, 30)
        labels = np.where(values[:, None] > 0.5, 1, -1).astype(np.int8)
        labels = np.repeat(labels, 2, axis=1)
        dataset = dataset_from_rows(schema, [[float(v)] for v in values], labels, names)
        with_fs = train(dataset, TrainConfig(n_rules=6, seed=13, feature_sampling=True))
        without_fs = train(dataset, TrainConfig(n_rules=6, seed=13, feature_sampling=False))
        # One attribute: the feature subset is forced either way, so the
        # bagging stream alone determines the rules.
        assert dumps(with_fs) == dumps(without_fs)


class TestEnsembleMetadata:
    def test_metadata_round_trip(self, rng):
        dataset = random_dataset(rng, 20, n_numeric=1, n_labels=2)
        config = TrainConfig(
            loss="example-wise-logistic", n_rules=3, shrinkage=0.5, l2_weight=2.0, seed=77
        )
        ensemble = train(dataset, config)
        assert ensemble.meta.loss == "example-wise-logistic"
        assert ensemble.meta.shrinkage == 0.5
        assert ensemble.meta.l2_weight == 2.0
        assert ensemble.meta.seed == 77

    def test_label_vectors_recorded_in_training_order(self, rng):
        dataset = random_dataset(rng, 25, n_numeric=1, n_labels=2)
        ensemble = train(dataset, TrainConfig(n_rules=2))
        assert ensemble.label_vectors is not None
        seen = []
        for row in dataset.labels:
            key = tuple(int(v) for v in row)
            if key not in seen:
                seen.append(key)
        assert [tuple(v) for v in ensemble.label_vectors] == seen


class TestRunWorkspace:
    """Each run owns its scan buffers: runs do not share them, and none outlives its run."""

    def test_interleaved_runs_equal_separate_runs(self, rng, monkeypatch):
        large = random_dataset(rng, 300, n_numeric=3, n_nominal=1, n_labels=3, missing_rate=0.1)
        small = random_dataset(rng, 60, n_numeric=2, n_nominal=1, n_labels=3, missing_rate=0.1)
        refine = training.refine_rule_with_trace
        for loss in ("label-wise-logistic", "example-wise-logistic"):
            for head_mode in ("single", "multi"):
                config = TrainConfig(loss=loss, head_mode=head_mode, n_rules=12, seed=3)
                separate = (dumps(train(large, config)), dumps(train(small, config)))
                rounds, inner = [], []

                def refine_and_train_the_other(dataset, store, context):
                    # The small run trains in full while the large one is in round 5.
                    rounds.append(dataset)
                    if len(rounds) == 4:
                        inner.append(dumps(train(small, config)))
                    return refine(dataset, store, context)

                monkeypatch.setattr(training, "refine_rule_with_trace", refine_and_train_the_other)
                outer = dumps(train(large, config))
                monkeypatch.setattr(training, "refine_rule_with_trace", refine)
                assert len(inner) == 1
                assert (outer, inner[0]) == separate

    def test_no_buffer_outlives_training(self):
        dataset, _ = generate(SyntheticConfig("marginal_dependence", 20000, 6, seed=0))
        config = TrainConfig(loss="example-wise-logistic", head_mode="multi", n_rules=3,
                             l2_weight=1.0)
        tracemalloc.start()
        try:
            ensemble = train(dataset, config)
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        numpy_domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
        alive = sum(stat.size for stat in
                    snapshot.filter_traces([numpy_domain]).statistics("filename"))
        assert len(ensemble.rules) == 3
        # The run itself held table-sized arrays; none of them is left.
        assert peak > 20 * 2 ** 20
        assert alive < 2 ** 20
