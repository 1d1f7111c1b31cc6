"""Gradient-boosted ensembles of single- and multi-label classification rules.

The public names below, and the submodules that define them, are
imported on first access (PEP 562), so ``import ruleboost`` loads no
submodule and a command that only serves a model never loads the
training code.
"""

from importlib import import_module as _import_module

# Defining submodule -> the public names it exports here.
_EXPORTS = {
    "choices": (
        "ALL_VARIANTS",
        "HEAD_MULTI",
        "HEAD_SINGLE",
        "SCENARIOS",
        "TrajectoryVariant",
    ),
    "dataio": ("load_arff", "load_csv", "save_arff"),
    "dataset": ("Attribute", "AttributeSchema", "Dataset"),
    "errors": (
        "ConfigError",
        "InductionError",
        "ParseError",
        "RuleBoostError",
        "SchemaError",
        "SolverError",
        "UnsupportedVersionError",
    ),
    "heads": ("AggregatedStats", "aggregate_stats", "find_head", "objective_value", "solve_full_head"),
    "induction": (
        "RefinementContext",
        "feature_subset_size",
        "objective_improvement",
        "refine_rule",
    ),
    "losses": (
        "EXAMPLE_WISE_LOGISTIC",
        "LABEL_WISE_LOGISTIC",
        "ExampleWiseLogisticLoss",
        "GradHessStore",
        "LabelWiseLogisticLoss",
        "init_store",
        "make_loss",
        "update_store",
    ),
    "metrics": ("evaluate_predictions", "example_based_f1", "hamming_loss", "subset_zero_one_loss"),
    "prediction": (
        "DECODE_KNOWN_VECTORS",
        "DECODE_SIGN",
        "decode_scores",
        "default_decode_method",
        "predict_known_vectors",
        "predict_sign",
    ),
    "rules": (
        "Body",
        "Condition",
        "Ensemble",
        "EnsembleMeta",
        "Head",
        "Rule",
        "body_mask",
        "ensemble_scores",
    ),
    "serialization": ("dumps", "load", "loads", "save"),
    "synthetic": ("SyntheticConfig", "SyntheticProcess", "bayes_optimal_predict", "generate"),
    "trajectory": ("TrajectoryPoint", "run_trajectory"),
    "training": ("TrainConfig", "train", "train_with_diagnostics"),
    "tuning": ("GridSearchConfig", "GridSearchReport", "grid_search", "train_validation_split"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF) | set(_EXPORTS))
