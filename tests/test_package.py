"""The package namespace: every public name resolves to its defining module's object."""

import importlib

import pytest

import ruleboost

# The names ``ruleboost`` exports, by the module each was first imported from.
EXPORTS = {
    "dataio": ("load_arff", "load_csv", "save_arff"),
    "dataset": ("Attribute", "AttributeSchema", "Dataset"),
    "errors": ("ConfigError", "InductionError", "ParseError", "RuleBoostError", "SchemaError",
               "SolverError", "UnsupportedVersionError"),
    "heads": ("HEAD_MULTI", "HEAD_SINGLE", "AggregatedStats", "aggregate_stats", "find_head",
              "objective_value", "solve_full_head"),
    "induction": ("RefinementContext", "feature_subset_size", "objective_improvement",
                  "refine_rule"),
    "losses": ("EXAMPLE_WISE_LOGISTIC", "LABEL_WISE_LOGISTIC", "ExampleWiseLogisticLoss",
               "GradHessStore", "LabelWiseLogisticLoss", "init_store", "make_loss",
               "update_store"),
    "metrics": ("evaluate_predictions", "example_based_f1", "hamming_loss",
                "subset_zero_one_loss"),
    "prediction": ("DECODE_KNOWN_VECTORS", "DECODE_SIGN", "decode_scores",
                   "default_decode_method", "predict_known_vectors", "predict_sign"),
    "rules": ("Body", "Condition", "Ensemble", "EnsembleMeta", "Head", "Rule", "body_mask",
              "ensemble_scores"),
    "serialization": ("load", "loads", "save", "dumps"),
    "synthetic": ("SCENARIOS", "SyntheticConfig", "SyntheticProcess", "bayes_optimal_predict",
                  "generate"),
    "trajectory": ("ALL_VARIANTS", "TrajectoryPoint", "TrajectoryVariant", "run_trajectory"),
    "training": ("TrainConfig", "train", "train_with_diagnostics"),
    "tuning": ("GridSearchConfig", "GridSearchReport", "grid_search", "train_validation_split"),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module,name", NAMES)
def test_exported_name_is_the_defining_modules_object(module, name):
    expected = getattr(importlib.import_module(f"ruleboost.{module}"), name)
    assert getattr(ruleboost, name) is expected
    assert name in dir(ruleboost)


def test_from_imports_of_names_and_submodules():
    from ruleboost import Dataset, training
    from ruleboost.dataset import Dataset as defined

    assert Dataset is defined
    assert training is importlib.import_module("ruleboost.training")
    for module in EXPORTS:
        assert getattr(ruleboost, module) is importlib.import_module(f"ruleboost.{module}")
        assert module in dir(ruleboost)
    assert ruleboost.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ruleboost.no_such_name
    with pytest.raises(ImportError):
        from ruleboost import no_such_name  # noqa: F401
    assert not hasattr(ruleboost, "no_such_name")
