"""Gradient-boosted ensembles of single- and multi-label classification rules."""

from .dataset import Attribute, AttributeSchema, Dataset, Example
from .errors import (
    ConfigError,
    InductionError,
    ParseError,
    RuleBoostError,
    SchemaError,
    SolverError,
    UnsupportedVersionError,
)
from .heads import (
    HEAD_MULTI,
    HEAD_SINGLE,
    AggregatedStats,
    aggregate_stats,
    find_head,
    objective_value,
    solve_full_head,
)
from .induction import (
    RefinementContext,
    feature_subset_size,
    objective_improvement,
    refine_rule,
)
from .losses import (
    EXAMPLE_WISE_LOGISTIC,
    LABEL_WISE_LOGISTIC,
    ExampleWiseLogisticLoss,
    GradHessStore,
    LabelWiseLogisticLoss,
    init_store,
    make_loss,
    update_store,
)
from .metrics import evaluate_predictions, example_based_f1, hamming_loss, subset_zero_one_loss
from .prediction import (
    DECODE_KNOWN_VECTORS,
    DECODE_SIGN,
    decode_scores,
    default_decode_method,
    predict_known_vectors,
    predict_sign,
)
from .rules import (
    Body,
    Condition,
    Ensemble,
    EnsembleMeta,
    Head,
    Rule,
    aggregate,
    apply_rule,
    body_mask,
    covers,
    ensemble_scores,
)
from .serialization import load, loads, save, dumps
from .synthetic import SCENARIOS, SyntheticConfig, SyntheticProcess, bayes_optimal_predict, generate
from .trajectory import ALL_VARIANTS, TrajectoryPoint, TrajectoryVariant, run_trajectory
from .training import TrainConfig, train, train_with_diagnostics
from .tuning import GridSearchConfig, GridSearchReport, grid_search, train_validation_split

__version__ = "0.1.0"
