"""Conjunctive classification rules and rule ensembles.

A rule maps an example to a vector of per-label confidence scores: the
head scores if the body's conditions all hold, the null vector otherwise.
An ensemble predicts the element-wise sum over its rules, which
``staged_scores`` sums for prediction, trajectories and tuning.  Missing
attribute values satisfy no condition, so an example with a missing value
is never covered by a condition on that attribute.  An ``EnsembleMeta``
checks its settings when built, so a trained or loaded model records valid ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .choices import LOSS_NAMES
from .dataset import MISSING_CODE, AttributeSchema, Dataset
from .errors import ConfigError, SchemaError, check_fields

OP_EQ = "=="
OP_NEQ = "!="
OP_LEQ = "<="
OP_GT = ">"

NOMINAL_OPS = (OP_EQ, OP_NEQ)
NUMERIC_OPS = (OP_LEQ, OP_GT)


@dataclass(frozen=True)
class Condition:
    """A single comparison of one attribute against a constant.

    Numeric attributes use <= and >, nominal attributes use == and !=.
    """

    attribute_index: int
    operator: str
    threshold: float | str

    def __post_init__(self):
        if self.operator not in NOMINAL_OPS + NUMERIC_OPS:
            raise SchemaError(f"unknown operator {self.operator!r}")

    def __str__(self):
        return f"x{self.attribute_index} {self.operator} {self.threshold}"


@dataclass(frozen=True)
class Body:
    """Conjunction of conditions; the empty body covers every example."""

    conditions: tuple[Condition, ...] = ()

    def __len__(self):
        return len(self.conditions)

    def __str__(self):
        return " and ".join(str(c) for c in self.conditions) if self.conditions else "<always>"


@dataclass(frozen=True, eq=False)
class Head:
    """Per-label confidence scores; single-label heads are zero elsewhere.

    ``label_index`` is None for a full (all-label) head.
    """

    scores: np.ndarray
    label_index: int | None = None

    def __eq__(self, other):
        if not isinstance(other, Head):
            return NotImplemented
        return self.label_index == other.label_index and np.array_equal(
            self.scores, other.scores
        )

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if not np.all(np.isfinite(scores)):
            raise ValueError("head scores must be finite")
        if self.label_index is not None:
            if not 0 <= self.label_index < len(scores):
                raise ValueError(
                    f"label index {self.label_index} outside 0..{len(scores) - 1}"
                )
            mask = np.ones(len(scores), dtype=bool)
            mask[self.label_index] = False
            if np.any(scores[mask] != 0.0):
                raise ValueError("single-label head has nonzero off-label scores")
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)

    def scaled(self, factor: float) -> "Head":
        return Head(self.scores * factor, self.label_index)


@dataclass(frozen=True)
class Rule:
    body: Body
    head: Head

    def __str__(self):
        return f"if {self.body} then {np.array2string(self.head.scores, precision=4)}"


@dataclass(frozen=True)
class EnsembleMeta:
    """Training provenance carried by a serialized model; building one checks each setting."""

    loss: str
    shrinkage: float
    l2_weight: float
    seed: int

    def __post_init__(self):
        check_fields(self)
        if self.loss not in LOSS_NAMES:
            raise ConfigError(f"unknown loss {self.loss!r}")
        if not (0.0 < self.shrinkage <= 1.0):
            raise ConfigError("shrinkage must be in (0, 1]")
        if self.l2_weight < 0.0:
            raise ConfigError("l2_weight must be nonnegative")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")


@dataclass
class Ensemble:
    """Ordered rule list whose first member covers every example.

    ``label_vectors`` holds the distinct training label rows in first
    occurrence order; it is what known-vector decoding selects from.
    """

    rules: list[Rule]
    label_names: list[str]
    schema: AttributeSchema
    meta: EnsembleMeta
    label_vectors: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if not self.rules:
            raise ValueError("an ensemble needs at least one rule")
        if len(self.rules[0].body) != 0:
            raise ValueError("the first rule must have an empty body")
        n_labels = len(self.label_names)
        for rule in self.rules:
            if rule.head.scores.shape != (n_labels,):
                raise ValueError("rule head length does not match label count")

    def __len__(self):
        return len(self.rules)

    @property
    def n_labels(self) -> int:
        return len(self.label_names)


def condition_mask(dataset: Dataset, condition: Condition, rows=None) -> np.ndarray:
    """Boolean coverage of one condition over all examples (vectorized).

    With ``rows``, an index array that may repeat indices, the mask covers
    those rows in that order instead.  Missing values (NaN / missing code)
    never satisfy a condition; a nominal value outside the data attribute's
    domain is held by no row.
    """
    attr = dataset.schema[condition.attribute_index]
    column = dataset.columns[condition.attribute_index]
    if rows is not None:
        column = column[rows]
    if condition.operator in NUMERIC_OPS:
        if not attr.is_numeric:
            raise SchemaError(
                f"numeric condition applied to nominal attribute {attr.name!r}"
            )
        # NaN comparisons are False, which is exactly the missing-value rule.
        with np.errstate(invalid="ignore"):
            if condition.operator == OP_LEQ:
                return column <= condition.threshold
            return column > condition.threshold
    if attr.is_numeric:
        raise SchemaError(f"nominal condition applied to numeric attribute {attr.name!r}")
    if condition.threshold in attr.values:
        held = column == attr.values.index(condition.threshold)
    else:  # the data's domain lacks the value, so no row holds it
        held = np.zeros(column.shape, dtype=bool)
    if condition.operator == OP_EQ:
        return held
    return ~held & (column != MISSING_CODE)


def body_mask(dataset: Dataset, body: Body) -> np.ndarray:
    mask = np.ones(dataset.n_examples, dtype=bool)
    for condition in body.conditions:
        mask &= condition_mask(dataset, condition)
    return mask


def add_head(scores: np.ndarray, mask: np.ndarray, head_scores: np.ndarray) -> np.ndarray:
    """Add a head to the score rows a coverage mask selects; return those rows' indices.

    The covered rows are found once and then indexed by position, which
    gives the same sums as ``scores[mask] += head_scores``.
    """
    rows = np.flatnonzero(mask)
    scores[rows] += head_scores
    return rows


# A schema mismatch lists at most this many differing attributes.
_SHOWN_DIFFERENCES = 3


def _raise_mismatch(what: str, model: list[str], data: list[str]) -> None:
    """Raise SchemaError listing where two described sequences differ, if they do."""
    if model == data:
        return
    differences = [
        f"{what} {i + 1} is {m} in the model but {d} in the data"
        for i, (m, d) in enumerate(zip(model, data))
        if m != d
    ]
    if len(model) != len(data):
        differences.append(f"the model has {len(model)} {what}s, the data {len(data)}")
    more = len(differences) - _SHOWN_DIFFERENCES
    raise SchemaError(
        f"the data does not match the model's {what}s: "
        + "; ".join(differences[:_SHOWN_DIFFERENCES])
        + (f"; and {more} more" if more > 0 else "")
    )


def check_schema(ensemble: Ensemble, dataset: Dataset) -> None:
    """Raise SchemaError unless the data has the model's attributes: names, kinds and order.

    Conditions refer to attributes by position, so data with the same
    columns in another order would be scored silently wrong.
    """
    _raise_mismatch(
        "attribute",
        [f"{a.name!r} ({a.kind})" for a in ensemble.schema.attributes],
        [f"{a.name!r} ({a.kind})" for a in dataset.schema.attributes],
    )


def check_label_names(ensemble: Ensemble, dataset: Dataset) -> None:
    """Raise SchemaError unless the data's label names are the model's, in order.

    Scores are matched to labels by position, so comparing them with
    relabelled or reordered label columns would give silently wrong metrics.
    """
    _raise_mismatch("label", [repr(name) for name in ensemble.label_names],
                    [repr(name) for name in dataset.label_names])


def staged_scores(ensemble: Ensemble, dataset: Dataset, checkpoints):
    """Yield (t, scores of the first t rules) once per distinct checkpoint, ascending.

    One walk over the rules serves every checkpoint.  The scores are summed
    in one contiguous row of length n per label: each rule adds its head
    value for the label to that row's entries at the rows its body covers.
    Every entry gets the additions ``add_head`` would make, in the same rule
    order, so each stage, a new C-contiguous (n, n_labels) array, is
    bit-identical to adding whole heads to (n, n_labels) rows.

    Raises SchemaError when the data's attributes are not the model's.
    """
    check_schema(ensemble, dataset)
    stages = sorted(set(checkpoints))
    if stages and not 1 <= stages[0] <= stages[-1] <= len(ensemble):
        raise ValueError(f"checkpoints must lie in 1..{len(ensemble)}, got {stages}")
    by_label = np.zeros((ensemble.n_labels, dataset.n_examples))
    done = 0
    for t in stages:
        for rule in ensemble.rules[done:t]:
            rows = np.flatnonzero(body_mask(dataset, rule.body))
            for sums, value in zip(by_label, rule.head.scores.tolist()):
                sums[rows] += value
        done = t
        yield t, np.ascontiguousarray(by_label.T)


def ensemble_scores(ensemble: Ensemble, dataset: Dataset) -> np.ndarray:
    """The last stage of ``staged_scores``: every example's scores, shape (n, n_labels)."""
    ((_, scores),) = staged_scores(ensemble, dataset, [len(ensemble)])
    return scores
