"""Edge cases across module boundaries."""

import numpy as np
import pytest

import ruleboost.tuning as tuning_module
from ruleboost.cli import main
from ruleboost.dataio import load_arff, save_arff
from ruleboost.errors import ConfigError, ParseError, RuleBoostError
from ruleboost.rules import Head
from ruleboost.serialization import dumps, load, loads, save
from ruleboost.synthetic import SyntheticConfig, generate
from ruleboost.training import TrainConfig, train
from ruleboost.tuning import GridSearchConfig, grid_search

from reference import row_values


class TestHeadValidation:
    def test_label_index_out_of_range(self):
        with pytest.raises(ValueError):
            Head(np.zeros(2), label_index=2)
        with pytest.raises(ValueError):
            Head(np.zeros(2), label_index=-1)


UPPERCASE_ARFF = """% uppercase keywords
@RELATION shouty

@ATTRIBUTE width NUMERIC
@ATTRIBUTE color {red, blue}
@ATTRIBUTE label1 {0, 1}

@DATA
1.5, red, 1
2.0, blue, 0
"""

MIDDLE_LABEL_ARFF = """@relation mixed
@attribute a numeric
@attribute label1 {0,1}
@attribute b numeric
@data
1.0, 1, 10.0
2.0, 0, 20.0
"""


class TestArffEdges:
    def test_uppercase_keywords(self, tmp_path):
        path = tmp_path / "up.arff"
        path.write_text(UPPERCASE_ARFF)
        dataset = load_arff(path, 1)
        assert dataset.n_examples == 2
        assert dataset.schema[0].is_numeric
        assert dataset.labels[:, 0].tolist() == [1, -1]

    def test_label_by_name_in_middle_position(self, tmp_path):
        path = tmp_path / "mid.arff"
        path.write_text(MIDDLE_LABEL_ARFF)
        dataset = load_arff(path, ["label1"])
        assert dataset.label_names == ["label1"]
        assert [a.name for a in dataset.schema.attributes] == ["a", "b"]
        assert row_values(dataset, 0) == (1.0, 10.0)
        assert dataset.labels[:, 0].tolist() == [1, -1]

    def test_loaded_dataset_export_reload_round_trip(self, tmp_path):
        first = tmp_path / "first.arff"
        first.write_text(UPPERCASE_ARFF)
        dataset = load_arff(first, 1)
        second = tmp_path / "second.arff"
        save_arff(dataset, second)
        reloaded = load_arff(second, 1)
        assert reloaded.schema == dataset.schema
        assert np.array_equal(reloaded.labels, dataset.labels)
        for a, b in zip(dataset.columns, reloaded.columns):
            np.testing.assert_array_equal(a, b)


class TestGridSearchFailures:
    def test_failures_recorded_without_aborting(self, monkeypatch):
        config = SyntheticConfig("marginal_independence", n_examples=120, n_labels=2, seed=2)
        dataset, _ = generate(config)
        real_train = tuning_module.train

        def flaky_train(data, train_config):
            if train_config.l2_weight == 4.0:
                raise RuleBoostError("injected failure")
            return real_train(data, train_config)

        monkeypatch.setattr(tuning_module, "train", flaky_train)
        best, report = grid_search(
            dataset,
            GridSearchConfig(
                shrinkages=(0.3,), l2_weights=(0.0, 4.0), rule_counts=(2, 3), seed=1
            ),
        )
        assert len(report.failures) == 1
        assert report.failures[0].l2_weight == 4.0
        assert "injected failure" in report.failures[0].error
        assert len(report.cells) == 2
        assert best.l2_weight == 0.0

    def test_all_points_failing_raises(self, monkeypatch):
        config = SyntheticConfig("marginal_independence", n_examples=80, n_labels=2, seed=2)
        dataset, _ = generate(config)

        def broken_train(data, train_config):
            raise RuleBoostError("nope")

        monkeypatch.setattr(tuning_module, "train", broken_train)
        with pytest.raises(RuleBoostError):
            grid_search(
                dataset,
                GridSearchConfig(shrinkages=(0.3,), l2_weights=(0.0,), rule_counts=(2,)),
            )


class TestDecodeWithoutCandidates:
    def _stripped_model(self, tmp_path):
        config = SyntheticConfig("marginal_independence", n_examples=80, n_labels=2, seed=4)
        train_data, _ = generate(config)
        ensemble = train(
            train_data, TrainConfig(loss="example-wise-logistic", n_rules=3, seed=4)
        )
        ensemble.label_vectors = None
        path = tmp_path / "model.json"
        save(ensemble, path)
        return train_data, path

    def test_cli_reports_actionable_error(self, tmp_path, capsys):
        train_data, model_path = self._stripped_model(tmp_path)
        data_path = tmp_path / "data.arff"
        save_arff(train_data, data_path)
        code = main(
            ["evaluate", "--data", str(data_path), "--labels", "2",
             "--model", str(model_path)]
        )
        assert code == 1
        assert "decode" in capsys.readouterr().err

    def test_sign_decode_still_works(self, tmp_path, capsys):
        train_data, model_path = self._stripped_model(tmp_path)
        data_path = tmp_path / "data.arff"
        save_arff(train_data, data_path)
        code = main(
            ["evaluate", "--data", str(data_path), "--labels", "2",
             "--model", str(model_path), "--decode", "sign"]
        )
        assert code == 0


class TestShapeMismatch:
    def test_loss_rejects_mismatched_shapes(self):
        from ruleboost.losses import make_loss

        loss = make_loss("label-wise-logistic")
        with pytest.raises(ValueError):
            loss.evaluate([1.0, -1.0], [0.0])


class TestSerializedLabelIndexValidation:
    def test_corrupt_label_index_rejected(self, tmp_path):
        config = SyntheticConfig("marginal_independence", n_examples=60, n_labels=2, seed=5)
        train_data, _ = generate(config)
        ensemble = train(
            train_data,
            TrainConfig(loss="label-wise-logistic", head_mode="single", n_rules=3, seed=5),
        )
        text = dumps(ensemble)
        corrupt = text.replace('"label": 0', '"label": 9', 1)
        if corrupt == text:
            corrupt = text.replace('"label": 1', '"label": 9', 1)
        assert corrupt != text
        with pytest.raises(ParseError, match=r"rules\[\d+\]: label index 9"):
            loads(corrupt)
