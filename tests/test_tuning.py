"""Holdout grid search behavior."""

import json
import os
import re

import numpy as np
import pytest

from ruleboost import tuning
from ruleboost.errors import ConfigError, RuleBoostError, SolverError
from ruleboost.synthetic import SyntheticConfig, generate
from ruleboost.tuning import (
    GridCell,
    GridFailure,
    GridSearchConfig,
    GridSearchReport,
    _select_best,
    grid_search,
    train_validation_split,
)

from test_trajectory import needs_fork, no_child_left, use_cpus


@pytest.fixture(scope="module")
def dataset():
    config = SyntheticConfig("marginal_independence", n_examples=240, n_labels=2, seed=31)
    train_data, _ = generate(config)
    return train_data


class TestSplit:
    def test_sizes(self, dataset):
        train_part, val_part = train_validation_split(dataset, 0.25, seed=1)
        assert val_part.n_examples == 60
        assert train_part.n_examples == 180

    def test_deterministic(self, dataset):
        a = train_validation_split(dataset, 0.25, seed=1)
        b = train_validation_split(dataset, 0.25, seed=1)
        assert np.array_equal(a[0].labels, b[0].labels)

    def test_fraction_validated(self, dataset):
        with pytest.raises(ConfigError, match=r"^validation_fraction must be in \(0, 1\)$"):
            train_validation_split(dataset, 1.5, seed=1)

    def test_one_row_cannot_be_split(self, dataset):
        with pytest.raises(ConfigError, match="^dataset too small to split$"):
            train_validation_split(dataset.subset([0]), 0.5, seed=1)


class TestSelection:
    def test_single_point_grid_returned(self, dataset):
        config = GridSearchConfig(
            loss="label-wise-logistic",
            shrinkages=(0.3,),
            l2_weights=(1.0,),
            rule_counts=(5,),
            seed=2,
        )
        best, report = grid_search(dataset, config)
        assert best.shrinkage == 0.3
        assert best.l2_weight == 1.0
        assert best.n_rules == 5
        assert len(report.cells) == 1

    def test_strict_dominance_wins(self):
        cells = [
            GridCell(0.1, 0.0, 100, 0.30),
            GridCell(0.3, 1.0, 50, 0.10),
        ]
        assert _select_best(cells) == cells[1]

    def test_tie_break_prefers_fewer_rules_then_l2_then_shrinkage(self):
        cells = [
            GridCell(0.5, 4.0, 100, 0.2),
            GridCell(0.5, 4.0, 50, 0.2),
            GridCell(0.1, 1.0, 50, 0.2),
            GridCell(0.3, 1.0, 50, 0.2),
        ]
        best = _select_best(cells)
        assert (best.n_rules, best.l2_weight, best.shrinkage) == (50, 1.0, 0.1)

    def test_grid_smoke_run_produces_all_cells(self, dataset):
        config = GridSearchConfig(
            loss="example-wise-logistic",
            head_mode="multi",
            shrinkages=(0.3, 0.5),
            l2_weights=(0.0, 1.0),
            rule_counts=(2, 4),
            metric="subset01",
            seed=3,
        )
        best, report = grid_search(dataset, config)
        assert len(report.cells) == 8
        assert not report.failures
        best_cell = min(
            report.cells, key=lambda c: (c.value, c.n_rules, c.l2_weight, c.shrinkage)
        )
        assert (best.shrinkage, best.l2_weight, best.n_rules) == (
            best_cell.shrinkage, best_cell.l2_weight, best_cell.n_rules,
        )

    def test_report_serializable(self, dataset):
        config = GridSearchConfig(
            shrinkages=(0.3,), l2_weights=(0.0,), rule_counts=(2,), seed=4
        )
        _, report = grid_search(dataset, config)
        payload = report.to_dict()
        assert payload["metric"] == config.metric
        assert len(payload["cells"]) == 1
        json.dumps(payload)

        report = GridSearchReport("hamming", 8, 4, [GridCell(0.3, 0.0, 2, 0.25)],
                                  [GridFailure(0.1, 1.0, "SolverError: singular")])
        expected = {
            "metric": "hamming",
            "n_train": 8,
            "n_validation": 4,
            "cells": [{"shrinkage": 0.3, "l2_weight": 0.0, "n_rules": 2, "value": 0.25}],
            "failures": [{"shrinkage": 0.1, "l2_weight": 1.0, "error": "SolverError: singular"}],
        }
        # Compared as JSON text, so the key order counts too.
        assert json.dumps(report.to_dict()) == json.dumps(expected)

    def test_empty_grid_rejected(self, dataset):
        with pytest.raises(ConfigError):
            grid_search(dataset, GridSearchConfig(shrinkages=()))

    @pytest.mark.parametrize("setting,message", [
        ({"validation_fraction": 1.0}, "validation_fraction must be in (0, 1)"),
        ({"metric": "f1"}, "unknown metric 'f1'; expected one of ['hamming', 'subset01']"),
        ({"rule_counts": (2, 0)}, "rule counts must be >= 1"),
        ({"shrinkages": 0.3}, "shrinkages must be a tuple or list, not 0.3"),
        ({"rule_counts": 50}, "rule_counts must be a tuple or list, not 50"),
        ({"l2_weights": 1.0}, "l2_weights must be a tuple or list, not 1.0"),
        ({"validation_fraction": "0.3"}, "validation_fraction must be a finite number, not '0.3'"),
        ({"metric": ["hamming"]}, "metric must be a string, not ['hamming']"),
        ({"l2_weights": (10**400,)}, f"l2_weights must be a finite number, not {10**400}"),
    ], ids=["fraction", "metric", "rule-count", "scalar-shrinkages", "scalar-rule-counts",
            "scalar-l2-weights", "string-fraction", "list-metric", "huge-int-l2-weights"])
    def test_bad_grid_setting_names_it(self, dataset, setting, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            grid_search(dataset, GridSearchConfig(**setting))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field,wrap", [
        ("shrinkages", lambda v: (0.3, v)),
        ("l2_weights", lambda v: (0.0, v)),
        ("validation_fraction", lambda v: v),
    ])
    def test_non_finite_float_names_its_field(self, dataset, field, wrap, value):
        with pytest.raises(ConfigError, match=f"^{field} must be a finite number"):
            grid_search(dataset, GridSearchConfig(rule_counts=(2,), **{field: wrap(value)}))

    @pytest.mark.parametrize("field,value", [
        ("rule_counts", (2, 2.5)), ("rule_counts", (True,)), ("seed", 1.5),
    ])
    def test_non_integer_names_its_field(self, dataset, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, not "):
            grid_search(dataset, GridSearchConfig(**{"rule_counts": (2,), field: value}))

    def test_negative_seed_rejected(self, dataset):
        with pytest.raises(ConfigError, match="^seed must be nonnegative$"):
            grid_search(dataset, GridSearchConfig(rule_counts=(2,), seed=-1))

    def test_unknown_head_mode_rejected_before_training(self, dataset, monkeypatch):
        def no_training(data, config):
            raise AssertionError("a grid cell was trained")

        monkeypatch.setattr(tuning, "train", no_training)
        with pytest.raises(ConfigError, match="^unknown head mode 'both'$"):
            grid_search(dataset, GridSearchConfig(head_mode="both", rule_counts=(2,)))

    @pytest.mark.parametrize("setting,message", [
        ({"loss": "hinge"}, "unknown loss 'hinge'"),
        ({"shrinkages": (0.3, 2.0)}, r"shrinkage must be in \(0, 1\]"),
        ({"shrinkages": (0.0,)}, r"shrinkage must be in \(0, 1\]"),
        ({"l2_weights": (1.0, -1.0)}, "l2_weight must be nonnegative"),
    ])
    def test_bad_cell_setting_rejected_before_training(self, dataset, monkeypatch, setting,
                                                      message):
        """Each cell's settings are checked as training checks them, before any cell trains."""
        use_cpus(monkeypatch, {0, 1})

        def no_training(data, config):
            raise AssertionError("a grid cell was trained")

        def no_forks():
            raise AssertionError("a child process was forked")

        monkeypatch.setattr(tuning, "train", no_training)
        monkeypatch.setattr(os, "fork", no_forks, raising=False)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            grid_search(dataset, GridSearchConfig(rule_counts=(2,), **setting))

    def test_a_config_checks_its_cells_when_built(self):
        with pytest.raises(ConfigError, match="^l2_weight must be nonnegative$"):
            GridSearchConfig(l2_weights=(1.0, -1.0))

    def test_a_bad_cell_names_its_first_bad_setting_in_training_order(self):
        """A cell's shrinkage is checked before its head mode, as ``TrainConfig`` checks them."""
        with pytest.raises(ConfigError, match=r"^shrinkage must be in \(0, 1\]$"):
            GridSearchConfig(head_mode="both", shrinkages=(2.0,))

    def test_every_cell_failing_names_the_first(self, dataset, monkeypatch):
        use_cpus(monkeypatch, {0})

        def fail(data, config):
            raise SolverError(f"l2 {config.l2_weight} is singular")

        monkeypatch.setattr(tuning, "train", fail)
        config = GridSearchConfig(shrinkages=(0.3, 0.5), l2_weights=(0.0, 1.0), rule_counts=(2,))
        with pytest.raises(RuleBoostError) as caught:
            grid_search(dataset, config)
        assert str(caught.value) == ("every grid point failed; the first (shrinkage 0.3, l2 0.0) "
                                     "with: l2 0.0 is singular")


@needs_fork
class TestParallelCells:
    CONFIG = GridSearchConfig(loss="example-wise-logistic", shrinkages=(0.3, 0.5),
                              l2_weights=(0.0, 1.0, 4.0), rule_counts=(4, 2, 6), seed=3)

    def test_report_equals_serial(self, dataset, monkeypatch, tmp_path):
        use_cpus(monkeypatch, {0})
        serial = grid_search(dataset, self.CONFIG)
        use_cpus(monkeypatch, {0, 1})
        log = tmp_path / "trained.txt"
        real_train = tuning.train

        def logged_train(data, config):
            with open(log, "a") as out:
                out.write(f"{os.getpid()}\n")
            return real_train(data, config)

        monkeypatch.setattr(tuning, "train", logged_train)
        best, report = grid_search(dataset, self.CONFIG)
        assert best == serial[0]
        assert json.dumps(report.to_dict()) == json.dumps(serial[1].to_dict())
        pids = log.read_text().split()
        assert len(pids) == 6 and len(set(pids)) == 2 and str(os.getpid()) in pids
        assert no_child_left()

    def test_error_in_a_forked_cell_is_recorded(self, dataset, monkeypatch):
        use_cpus(monkeypatch, {0, 1})
        caller = os.getpid()
        real_train = tuning.train

        def fail_in_child(data, config):
            if os.getpid() != caller:
                raise SolverError(f"l2 {config.l2_weight} is singular")
            return real_train(data, config)

        monkeypatch.setattr(tuning, "train", fail_in_child)
        config = GridSearchConfig(shrinkages=(0.3,), l2_weights=(0.0, 1.0), rule_counts=(3, 2),
                                  seed=1)
        best, report = grid_search(dataset, config)
        assert report.failures == [GridFailure(0.3, 0.0, "l2 0.0 is singular")]
        assert [(c.l2_weight, c.n_rules) for c in report.cells] == [(1.0, 2), (1.0, 3)]
        assert (best.l2_weight, best.n_rules) in {(1.0, 2), (1.0, 3)}
        assert no_child_left()

    def test_cell_whose_child_dies_raises_rule_boost_error(self, dataset, monkeypatch):
        use_cpus(monkeypatch, {0, 1})
        caller = os.getpid()
        real_train = tuning.train

        def die_in_child(data, config):
            if os.getpid() != caller:
                os._exit(3)
            return real_train(data, config)

        monkeypatch.setattr(tuning, "train", die_in_child)
        config = GridSearchConfig(shrinkages=(0.3,), l2_weights=(0.0, 1.0), rule_counts=(3, 2),
                                  seed=1)
        with pytest.raises(RuleBoostError, match=r"^a worker exited before returning "
                                                 r"its results \(exit code 3\)$"):
            grid_search(dataset, config)
        assert no_child_left()
