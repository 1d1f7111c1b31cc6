"""Checkpointed trajectory evaluation with exact prefix semantics."""

from dataclasses import replace

import numpy as np
import pytest

from ruleboost.errors import ConfigError
from ruleboost.metrics import hamming_loss, subset_zero_one_loss
from ruleboost.prediction import decode_scores, default_decode_method
from ruleboost.rules import ensemble_scores
from ruleboost.synthetic import SyntheticConfig, generate
from ruleboost.trajectory import ALL_VARIANTS, TrajectoryVariant, run_trajectory, staged_scores
from ruleboost.training import TrainConfig, train


@pytest.fixture(scope="module")
def small_data():
    config = SyntheticConfig("marginal_independence", n_examples=300, n_labels=3, seed=8)
    return generate(config)


class TestRunTrajectory:
    def test_empty_variant_list(self, small_data):
        train_data, test_data = small_data
        assert run_trajectory(train_data, test_data, [], [1, 2]) == {}

    def test_checkpoints_must_ascend(self, small_data):
        train_data, test_data = small_data
        variant = ALL_VARIANTS[0]
        with pytest.raises(ConfigError):
            run_trajectory(train_data, test_data, [variant], [4, 2])
        with pytest.raises(ConfigError):
            run_trajectory(train_data, test_data, [variant], [0, 2])

    def test_series_shape_and_names(self, small_data):
        train_data, test_data = small_data
        series = run_trajectory(
            train_data, test_data, ALL_VARIANTS, [1, 2, 4], seed=3
        )
        assert set(series) == {
            "lwlog-single", "lwlog-multi", "exwlog-single", "exwlog-multi"
        }
        for points in series.values():
            assert [p.n_rules for p in points] == [1, 2, 4]
            for p in points:
                assert 0.0 <= p.hamming <= 1.0
                assert 0.0 <= p.subset01 <= 1.0

    def test_checkpoint_one_is_default_rule_performance(self, small_data):
        """The first checkpoint must equal evaluating just the default rule."""
        train_data, test_data = small_data
        for variant in (ALL_VARIANTS[0], ALL_VARIANTS[3]):
            series = run_trajectory(train_data, test_data, [variant], [1, 2], seed=6)
            point = series[variant.name][0]
            config = TrainConfig(
                loss=variant.loss, n_rules=1, head_mode=variant.head_mode, seed=6
            )
            ensemble = train(train_data, config)
            scores = ensemble_scores(ensemble, test_data)
            predicted = decode_scores(
                scores, default_decode_method(variant.loss), ensemble.label_vectors
            )
            assert point.hamming == hamming_loss(test_data.labels, predicted)
            assert point.subset01 == subset_zero_one_loss(test_data.labels, predicted)

    def test_default_rules_differ_across_losses(self, small_data):
        """The two losses start from different default rules."""
        train_data, _ = small_data
        lw = train(train_data, TrainConfig(loss="label-wise-logistic", n_rules=1))
        exw = train(train_data, TrainConfig(loss="example-wise-logistic", n_rules=1))
        assert not np.allclose(lw.rules[0].head.scores, exw.rules[0].head.scores)

    def test_prefix_evaluation_equals_fresh_training(self, small_data):
        """Series values at checkpoint t match a fresh model with t rules."""
        train_data, test_data = small_data
        variant = TrajectoryVariant("example-wise-logistic", "multi")
        series = run_trajectory(train_data, test_data, [variant], [1, 3, 6], seed=17)
        for point in series[variant.name]:
            config = TrainConfig(
                loss=variant.loss,
                n_rules=point.n_rules,
                head_mode=variant.head_mode,
                seed=17,
            )
            fresh = train(train_data, config)
            scores = ensemble_scores(fresh, test_data)
            predicted = decode_scores(
                scores, default_decode_method(variant.loss), fresh.label_vectors
            )
            assert point.hamming == hamming_loss(test_data.labels, predicted)
            assert point.subset01 == subset_zero_one_loss(test_data.labels, predicted)


class TestStagedScores:
    def test_stage_equals_scores_of_the_prefix(self, small_data):
        """Unsorted and repeated checkpoints give each distinct stage once, ascending."""
        train_data, test_data = small_data
        ensemble = train(train_data, TrainConfig(loss="example-wise-logistic", n_rules=6, seed=2))
        stages = [
            (t, scores.copy()) for t, scores in staged_scores(ensemble, test_data, [4, 1, 6, 4, 2])
        ]
        assert [t for t, _ in stages] == [1, 2, 4, 6]
        for t, scores in stages:
            prefix = replace(ensemble, rules=ensemble.rules[:t])
            np.testing.assert_array_equal(scores, ensemble_scores(prefix, test_data))

    def test_checkpoints_outside_the_ensemble_rejected(self, small_data):
        train_data, test_data = small_data
        ensemble = train(train_data, TrainConfig(n_rules=3))
        assert list(staged_scores(ensemble, test_data, [])) == []
        for checkpoints in ([4], [0, 2]):
            with pytest.raises(ValueError):
                list(staged_scores(ensemble, test_data, checkpoints))
