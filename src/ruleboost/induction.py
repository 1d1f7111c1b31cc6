"""Top-down greedy refinement of a single rule.

Starting from the empty body, each step draws a random attribute subset,
enumerates every condition those attributes admit on the currently
covered sample, evaluates the optimal head for each candidate on the
sampled statistics, and keeps the candidate whose quadratic objective is
strictly smaller than the incumbent rule's.  The search recurses on the
newly covered subset and stops as soon as no candidate strictly improves
the objective; there is no other stopping criterion.

Candidate statistics for numeric attributes are built from prefix sums
over the value-sorted covered sample, so a full threshold scan costs
O(n log n) per attribute instead of O(n^2).

Single-label rules pick their label freely while the first condition is
chosen and keep it for every later refinement step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import MISSING_CODE, Dataset
from .errors import InductionError
from .heads import HEAD_SINGLE, find_head, objective_value, stats_for_rows
from .losses import GradHessStore
from .rules import OP_EQ, OP_GT, OP_LEQ, OP_NEQ, Body, Condition, Head, Rule


def feature_subset_size(n_attributes: int) -> int:
    """floor(log2(M - 1) + 1) attributes per step, at least one."""
    if n_attributes <= 0:
        return 0
    return max(1, (n_attributes - 1).bit_length())


@dataclass
class RefinementContext:
    """Inputs of one rule search: the bagged sample and search settings."""

    sample: np.ndarray
    head_mode: str
    l2_weight: float
    rng: np.random.Generator
    feature_sampling: bool = True


def objective_improvement(candidate_objective: float, incumbent_objective: float) -> bool:
    """Strict-less comparison; ties keep the incumbent; NaN is an error."""
    if math.isnan(candidate_objective) or math.isnan(incumbent_objective):
        raise InductionError("refinement produced a NaN objective")
    return candidate_objective < incumbent_objective


def _midpoints(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    mid = (lower + upper) * 0.5
    # Adjacent floats can round the midpoint up to the higher value, which
    # would put both neighbors on the <= side; fall back to the lower value.
    return np.where(mid < upper, mid, lower)


def enumerate_conditions(dataset: Dataset, attribute_index: int, rows=None) -> list[Condition]:
    """All conditions the attribute admits on the covered rows.

    Numeric attributes split at midpoints of adjacent distinct covered
    values (<= before >); nominal attributes test each occurring value
    (== before !=) in schema order.  Missing values contribute nothing.
    """
    attr = dataset.schema[attribute_index]
    column = dataset.columns[attribute_index]
    values = column if rows is None else column[np.asarray(rows)]
    conditions: list[Condition] = []
    if attr.is_numeric:
        values = values[~np.isnan(values)]
        distinct = np.unique(values)
        if distinct.size < 2:
            return conditions
        thresholds = _midpoints(distinct[:-1], distinct[1:])
        for threshold in thresholds:
            conditions.append(Condition(attribute_index, OP_LEQ, float(threshold)))
            conditions.append(Condition(attribute_index, OP_GT, float(threshold)))
    else:
        occurring = np.unique(values[values != MISSING_CODE])
        for code in occurring:
            value = attr.values[int(code)]
            conditions.append(Condition(attribute_index, OP_EQ, value))
            conditions.append(Condition(attribute_index, OP_NEQ, value))
    return conditions


@dataclass
class _CandidateTable:
    """Vectorized candidate conditions of one attribute, in tie-break order."""

    operators: list[str]
    thresholds: list
    gradients: np.ndarray  # (n_candidates, n_labels)
    hessians: np.ndarray  # (n_candidates, n_labels) or (n_candidates, l, l)


def _interleave(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    stacked = np.stack([first, second], axis=1)
    return stacked.reshape((-1,) + first.shape[1:])


def _numeric_candidates(column, rows, store: GradHessStore) -> _CandidateTable | None:
    values = column[rows]
    present = ~np.isnan(values)
    values = values[present]
    if values.size < 2:
        return None
    rows_present = rows[present]
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    sorted_rows = rows_present[order]
    boundary = np.nonzero(sorted_values[1:] != sorted_values[:-1])[0]
    if boundary.size == 0:
        return None
    thresholds = _midpoints(sorted_values[boundary], sorted_values[boundary + 1])

    grad_prefix = np.cumsum(store.gradients[sorted_rows], axis=0)
    hess_prefix = np.cumsum(store.hessians[sorted_rows], axis=0)
    g_le = grad_prefix[boundary]
    g_gt = grad_prefix[-1] - g_le
    h_le = hess_prefix[boundary]
    h_gt = hess_prefix[-1] - h_le

    operators = [OP_LEQ, OP_GT] * boundary.size
    threshold_list = np.repeat(thresholds, 2).tolist()
    return _CandidateTable(
        operators, threshold_list, _interleave(g_le, g_gt), _interleave(h_le, h_gt)
    )


def _nominal_candidates(attr, column, rows, store: GradHessStore) -> _CandidateTable | None:
    codes = column[rows]
    present = codes != MISSING_CODE
    rows_present = rows[present]
    if rows_present.size == 0:
        return None
    codes_present = codes[present]
    total_rows = rows.shape[0]
    g_total = store.gradients[rows_present].sum(axis=0)
    h_total = store.hessians[rows_present].sum(axis=0)

    operators: list[str] = []
    thresholds: list = []
    gradients: list[np.ndarray] = []
    hessians: list[np.ndarray] = []
    for code in np.unique(codes_present):
        match = codes_present == code
        count_eq = int(match.sum())
        value = attr.values[int(code)]
        g_eq = store.gradients[rows_present[match]].sum(axis=0)
        h_eq = store.hessians[rows_present[match]].sum(axis=0)
        # A condition covering none or all of the current rows cannot be a
        # strict improvement, so it is not worth scoring.
        if count_eq < total_rows:
            operators.append(OP_EQ)
            thresholds.append(value)
            gradients.append(g_eq)
            hessians.append(h_eq)
        if rows_present.shape[0] - count_eq > 0:
            operators.append(OP_NEQ)
            thresholds.append(value)
            gradients.append(g_total - g_eq)
            hessians.append(h_total - h_eq)
    if not operators:
        return None
    return _CandidateTable(operators, thresholds, np.array(gradients), np.array(hessians))


def _evaluate_candidates(table: _CandidateTable, diagonal: bool, l2_weight: float,
                         head_mode: str, fixed_label):
    """Objective, head scores and label choice per candidate condition."""
    g = table.gradients
    n_candidates, n_labels = g.shape[0], g.shape[1]
    if head_mode == HEAD_SINGLE:
        if diagonal:
            h_diag = table.hessians
        else:
            idx = np.arange(n_labels)
            h_diag = table.hessians[:, idx, idx]
        denom = h_diag + l2_weight
        usable = denom > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.where(usable, -g / denom, 0.0)
        per_label = np.where(usable, g * p + 0.5 * denom * p * p, np.inf)
        if fixed_label is None:
            labels = np.argmin(per_label, axis=1)
        else:
            labels = np.full(n_candidates, fixed_label)
        rows = np.arange(n_candidates)
        objectives = per_label[rows, labels]
        scores = np.zeros_like(g)
        scores[rows, labels] = p[rows, labels]
        return objectives, scores, labels
    if diagonal:
        denom = table.hessians + l2_weight
        usable = (denom > 0.0).all(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.where(denom > 0.0, -g / denom, 0.0)
        objectives = (g * p + 0.5 * denom * p * p).sum(axis=1)
        objectives = np.where(usable, objectives, np.inf)
        return objectives, p, None
    system = table.hessians + l2_weight * np.eye(n_labels)
    singular = np.zeros(n_candidates, dtype=bool)
    try:
        p = np.linalg.solve(system, -g[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        p = np.zeros_like(g)
        for i in range(n_candidates):
            try:
                p[i] = np.linalg.solve(system[i], -g[i])
            except np.linalg.LinAlgError:
                singular[i] = True
    with np.errstate(over="ignore", invalid="ignore"):
        objectives = (
            (g * p).sum(axis=1)
            + 0.5 * np.einsum("ck,ckj,cj->c", p, table.hessians, p)
            + 0.5 * l2_weight * (p * p).sum(axis=1)
        )
    # A nearly singular system (possible at l2_weight = 0) can solve without
    # raising yet give a head so large that its objective overflows; such a
    # candidate is as unusable as a singular one.
    objectives[singular | ~np.isfinite(objectives)] = np.inf
    return objectives, p, None


def _condition_rows(dataset: Dataset, condition: Condition, rows: np.ndarray) -> np.ndarray:
    """Restrict a row index array to the rows satisfying one condition."""
    column = dataset.columns[condition.attribute_index]
    values = column[rows]
    if condition.operator == OP_LEQ:
        with np.errstate(invalid="ignore"):
            keep = values <= condition.threshold
    elif condition.operator == OP_GT:
        with np.errstate(invalid="ignore"):
            keep = values > condition.threshold
    else:
        code = dataset.schema[condition.attribute_index].values.index(condition.threshold)
        if condition.operator == OP_EQ:
            keep = values == code
        else:
            keep = (values != code) & (values != MISSING_CODE)
    return rows[keep]


def _best_refinement(dataset, store, rows, attributes, l2_weight, head_mode,
                     fixed_label, incumbent_objective):
    """Best strict improvement over the given attributes, or None.

    Candidates are visited in tie-break order: attributes as given,
    thresholds ascending with <= before >, nominal values in schema order
    with == before !=.  The first candidate reaching the minimum wins.
    """
    best = None
    threshold = incumbent_objective
    for attribute_index in attributes:
        attr = dataset.schema[attribute_index]
        column = dataset.columns[attribute_index]
        if attr.is_numeric:
            table = _numeric_candidates(column, rows, store)
        else:
            table = _nominal_candidates(attr, column, rows, store)
        if table is None:
            continue
        objectives, scores, labels = _evaluate_candidates(
            table, store.diagonal, l2_weight, head_mode, fixed_label
        )
        i = int(np.argmin(objectives))
        if objective_improvement(float(objectives[i]), threshold):
            threshold = float(objectives[i])
            condition = Condition(int(attribute_index), table.operators[i], table.thresholds[i])
            label = None if labels is None else int(labels[i])
            best = (threshold, condition, scores[i].copy(), label)
    return best


def refine_rule_with_trace(
    dataset: Dataset, store: GradHessStore, context: RefinementContext
) -> tuple[Rule, list[float]]:
    """Greedy refinement returning the rule and its objective trace.

    The trace starts at the empty-body objective and records one strictly
    smaller value per added condition.
    """
    rows = np.asarray(context.sample)
    if rows.size == 0:
        raise InductionError("refinement sample is empty")
    if rows.min() < 0 or rows.max() >= dataset.n_examples:
        raise InductionError("sample indices outside the dataset")

    stats = stats_for_rows(store, rows)
    head = find_head(stats, context.l2_weight, context.head_mode)
    best_objective = objective_value(stats, head, context.l2_weight)
    trace = [best_objective]
    conditions: list[Condition] = []
    fixed_label = None
    n_attributes = dataset.n_attributes
    subset_size = feature_subset_size(n_attributes)

    while n_attributes > 0:
        if context.feature_sampling:
            attributes = context.rng.choice(n_attributes, size=subset_size, replace=False)
        else:
            attributes = np.arange(n_attributes)
        best = _best_refinement(
            dataset, store, rows, attributes, context.l2_weight,
            context.head_mode, fixed_label, best_objective,
        )
        if best is None:
            break
        best_objective, condition, head_scores, label = best
        conditions.append(condition)
        rows = _condition_rows(dataset, condition, rows)
        head = Head(head_scores, label if context.head_mode == HEAD_SINGLE else None)
        if context.head_mode == HEAD_SINGLE and fixed_label is None:
            fixed_label = label
        trace.append(best_objective)

    return Rule(Body(tuple(conditions)), head), trace


def refine_rule(dataset: Dataset, store: GradHessStore, context: RefinementContext) -> Rule:
    rule, _ = refine_rule_with_trace(dataset, store, context)
    return rule
