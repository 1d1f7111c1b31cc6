"""Holdout grid search behavior."""

import json

import numpy as np
import pytest

from ruleboost.errors import ConfigError
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
        with pytest.raises(ConfigError):
            train_validation_split(dataset, 1.5, seed=1)


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field,wrap", [
        ("shrinkages", lambda v: (0.3, v)),
        ("l2_weights", lambda v: (0.0, v)),
        ("validation_fraction", lambda v: v),
    ])
    def test_non_finite_float_names_its_field(self, dataset, field, wrap, value):
        config = GridSearchConfig(rule_counts=(2,), **{field: wrap(value)})
        with pytest.raises(ConfigError, match=f"^{field} must be a finite number"):
            grid_search(dataset, config)
