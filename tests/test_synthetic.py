"""Synthetic scenario generator and its Bayes-optimal baselines."""

import re

import numpy as np
import pytest

from ruleboost.errors import ConfigError
from ruleboost.metrics import hamming_loss, subset_zero_one_loss
from ruleboost.synthetic import (
    SCENARIOS,
    SyntheticConfig,
    SyntheticProcess,
    bayes_optimal_predict,
    generate,
)


class TestConfigValidation:
    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            SyntheticConfig("linear")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["noise_rate", "boundary_angle_spread"])
    def test_non_finite_float_names_its_field(self, field, value):
        for scenario in SCENARIOS:
            with pytest.raises(ConfigError, match=f"^{field} must be a finite number"):
                SyntheticConfig(scenario, **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("n_examples", 10.5), ("n_labels", True), ("seed", 1.5),
    ])
    def test_non_integer_names_its_field(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, not {value!r}$"):
            SyntheticConfig("marginal_independence", **{field: value})

    @pytest.mark.parametrize("setting,message", [
        ({"noise_rate": "0.1"}, "noise_rate must be a finite number, not '0.1'"),
        ({"scenario": None}, "scenario must be a string, not None"),
        ({"noise_rate": 10**400}, f"noise_rate must be a finite number, not {10**400}"),
    ], ids=["string-noise", "no-scenario", "huge-int-noise"])
    def test_a_field_of_the_wrong_type_names_it(self, setting, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            SyntheticConfig(**{"scenario": "marginal_independence", **setting})

    def test_no_labels_rejected(self):
        with pytest.raises(ConfigError, match="^n_examples and n_labels must be positive$"):
            SyntheticConfig("marginal_independence", n_labels=0)

    def test_negative_spread_rejected(self):
        with pytest.raises(ConfigError, match="^boundary_angle_spread must be nonnegative$"):
            SyntheticConfig("marginal_dependence", boundary_angle_spread=-0.1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="^seed must be nonnegative$"):
            SyntheticConfig("marginal_independence", seed=-1)

    def test_noise_rate_range(self):
        with pytest.raises(ConfigError):
            SyntheticConfig("marginal_independence", noise_rate=1.0)
        with pytest.raises(ConfigError):
            SyntheticConfig("marginal_independence", noise_rate=-0.1)


class TestGeneration:
    def test_shapes_and_schema(self):
        config = SyntheticConfig("marginal_independence", n_examples=100, n_labels=4, seed=5)
        train, test = generate(config)
        for dataset in (train, test):
            assert dataset.n_examples == 100
            assert dataset.n_labels == 4
            assert dataset.n_attributes == 2
            assert all(a.is_numeric for a in dataset.schema.attributes)

    def test_points_inside_unit_disk(self):
        config = SyntheticConfig("conditional_dependence", n_examples=500, seed=2)
        train, _ = generate(config)
        radius = train.columns[0] ** 2 + train.columns[1] ** 2
        assert np.all(radius <= 1.0 + 1e-12)

    def test_deterministic_under_seed(self):
        config = SyntheticConfig("marginal_dependence", n_examples=50, seed=9)
        a_train, a_test = generate(config)
        b_train, b_test = generate(config)
        assert np.array_equal(a_train.columns[0], b_train.columns[0])
        assert np.array_equal(a_train.labels, b_train.labels)
        assert np.array_equal(a_test.labels, b_test.labels)

    def test_train_and_test_streams_disjoint(self):
        config = SyntheticConfig("marginal_independence", n_examples=200, seed=9)
        train, test = generate(config)
        assert not np.array_equal(train.columns[0], test.columns[0])

    def test_zero_noise_labels_are_half_plane_indicators(self):
        for scenario in SCENARIOS:
            config = SyntheticConfig(scenario, n_examples=300, noise_rate=0.0, seed=3)
            train, test = generate(config)
            process = SyntheticProcess(config)
            for dataset in (train, test):
                points = np.column_stack(dataset.columns)
                assert np.array_equal(dataset.labels, process.noiseless_labels(points))

    def test_zero_noise_bayes_losses_are_zero(self):
        config = SyntheticConfig("marginal_independence", n_examples=400, noise_rate=0.0, seed=4)
        _, test = generate(config)
        predicted = bayes_optimal_predict(config, np.column_stack(test.columns))
        assert hamming_loss(test.labels, predicted) == 0.0
        assert subset_zero_one_loss(test.labels, predicted) == 0.0


class TestBayesOptimal:
    def test_on_boundary_counts_as_positive(self):
        config = SyntheticConfig("marginal_independence", n_labels=1, seed=0)
        process = SyntheticProcess(config)
        # Pin the normal to an axis so the margin is exactly zero.
        process.normals = np.array([[1.0, 0.0]])
        on_boundary = np.array([[0.0, 0.5]])
        assert process.noiseless_labels(on_boundary)[0, 0] == 1

    def test_one_point_gets_one_label_row(self):
        config = SyntheticConfig("marginal_independence", n_labels=3, seed=4)
        points = np.array([[0.5, -0.25], [-0.1, 0.7]])
        batch = bayes_optimal_predict(config, points)
        for point, row in zip(points, batch):
            one = bayes_optimal_predict(config, point)
            assert one.shape == (3,)
            np.testing.assert_array_equal(one, row)

    def test_label_flip_noise_monte_carlo(self):
        """Empirical Bayes losses on a large fresh sample match p and 1-(1-p)^l."""
        config = SyntheticConfig("marginal_independence", n_examples=100000, seed=11)
        process = SyntheticProcess(config)
        test = process.sample_dataset(config.n_examples, stream=999)
        points = np.column_stack(test.columns)
        predicted = process.noiseless_labels(points)
        hamming = hamming_loss(test.labels, predicted)
        subset = subset_zero_one_loss(test.labels, predicted)
        assert abs(hamming - 0.10) < 0.005
        assert abs(subset - (1.0 - 0.9**6)) < 0.005

    def test_row_flip_noise_monte_carlo(self):
        config = SyntheticConfig("conditional_dependence", n_examples=100000, seed=12)
        process = SyntheticProcess(config)
        test = process.sample_dataset(config.n_examples, stream=999)
        points = np.column_stack(test.columns)
        predicted = process.noiseless_labels(points)
        assert abs(hamming_loss(test.labels, predicted) - 0.10) < 0.005
        assert abs(subset_zero_one_loss(test.labels, predicted) - 0.10) < 0.005

    def test_three_sigma_consistency(self):
        """Bayes Hamming within 3 standard errors of its analytic value."""
        n = 50000
        config = SyntheticConfig("marginal_independence", n_examples=n, seed=13)
        process = SyntheticProcess(config)
        test = process.sample_dataset(n, stream=1000)
        predicted = process.noiseless_labels(np.column_stack(test.columns))
        hamming = hamming_loss(test.labels, predicted)
        se = np.sqrt(0.1 * 0.9 / (n * 6))
        assert abs(hamming - 0.10) < 3 * se


class TestDependenceStructure:
    def test_small_spread_forces_label_agreement(self):
        config = SyntheticConfig(
            "marginal_dependence",
            n_examples=5000,
            noise_rate=0.0,
            boundary_angle_spread=0.05,
            seed=21,
        )
        train, _ = generate(config)
        labels = train.labels.astype(float)
        for j in range(1, labels.shape[1]):
            agreement = np.mean(labels[:, 0] == labels[:, j])
            assert agreement > 0.95

    def test_dependence_angles_inside_fan(self):
        config = SyntheticConfig(
            "marginal_dependence", boundary_angle_spread=0.2, seed=30
        )
        process = SyntheticProcess(config)
        base = process.angles[0]
        assert np.all(np.abs(process.angles - base) <= 0.1 + 1e-12)

    def test_independent_angles_spread_out(self):
        config = SyntheticConfig("marginal_independence", seed=30)
        process = SyntheticProcess(config)
        assert np.ptp(process.angles) > 0.5
