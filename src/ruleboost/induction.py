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
from .heads import HEAD_SINGLE, find_head, objective_value, solve_heads, stats_for_rows
from .losses import GradHessStore
from .rules import OP_EQ, OP_GT, OP_LEQ, OP_NEQ, Body, Condition, Head, Rule, condition_mask


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


def _interleave(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    stacked = np.stack([first, second], axis=1)
    return stacked.reshape((-1,) + first.shape[1:])


# The candidate scans return the conditions of one attribute in tie-break
# order as (operators, thresholds, gradients, hessians), the sums stacked
# one row per condition, or None when the attribute admits no condition.
def _numeric_candidates(column, rows, store: GradHessStore):
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
    return operators, threshold_list, _interleave(g_le, g_gt), _interleave(h_le, h_gt)


def _nominal_candidates(attr, column, rows, store: GradHessStore):
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
    return operators, thresholds, np.array(gradients), np.array(hessians)


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
        operators, thresholds, gradients, hessians = table
        objectives, scores, labels = solve_heads(
            gradients, hessians, store.diagonal, l2_weight, head_mode, fixed_label
        )
        i = int(np.argmin(objectives))
        if objective_improvement(float(objectives[i]), threshold):
            threshold = float(objectives[i])
            condition = Condition(int(attribute_index), operators[i], thresholds[i])
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
        rows = rows[condition_mask(dataset, condition, rows)]
        head = Head(head_scores, label if context.head_mode == HEAD_SINGLE else None)
        if context.head_mode == HEAD_SINGLE and fixed_label is None:
            fixed_label = label
        trace.append(best_objective)

    return Rule(Body(tuple(conditions)), head), trace


def refine_rule(dataset: Dataset, store: GradHessStore, context: RefinementContext) -> Rule:
    rule, _ = refine_rule_with_trace(dataset, store, context)
    return rule
