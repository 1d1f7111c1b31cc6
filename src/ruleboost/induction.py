"""Top-down greedy refinement of a single rule.

Starting from the empty body, each step draws a random attribute subset,
enumerates every condition those attributes admit on the currently
covered sample, evaluates the optimal head for each candidate on the
sampled statistics, and keeps the candidate whose quadratic objective is
strictly smaller than the incumbent rule's.  The search recurses on the
newly covered subset and stops as soon as no candidate strictly improves
the objective; there is no other stopping criterion.

Numeric attributes are scanned with prefix sums over the covered sample
in value order.  Each numeric column is sorted once per training run
(``presort``, with its missing values cut off); a step counts how often
each row occurs in its sample and repeats every row of the presorted
order that many times, so it gets the sample in value order in O(n)
instead of sorting it again.  The <= and > candidates of a column are
scored as two blocks, and the winner is mapped back to the tie-break
order in which <= of a threshold comes before > of the same threshold.

Single-label rules pick their label freely while the first condition is
chosen and keep it for every later refinement step; their candidates need
only the Hessian diagonal, so an example-wise store contributes just that.
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
    # ``presort(dataset)``; derived from the dataset when left out.
    orders: list | None = None


def presort(dataset: Dataset) -> list:
    """Each numeric column's rows in ascending value order, missing rows cut off.

    Ties keep row order (a stable sort); nominal attributes get None.
    """
    orders = []
    for attr, column in zip(dataset.schema, dataset.columns):
        if attr.is_numeric:
            # The sort puts NaN last.
            order = np.argsort(column, kind="stable")
            orders.append(order[: np.count_nonzero(~np.isnan(column))])
        else:
            orders.append(None)
    return orders


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


# A scan returns the conditions of one attribute as blocks of equal length,
# each (operators, thresholds, gradients, hessians) with the sums stacked
# one row per condition, or None when the attribute admits no condition.
# Candidate i of the tie-break order is candidate i // k of block i % k.
def _numeric_candidates(column, order, counts, gradients, hessians):
    """Thresholds between adjacent distinct values of the sample, <= and > blocks.

    ``order`` is the column's presorted order and ``counts`` the number of
    times each row occurs in the sample.
    """
    sorted_rows = np.repeat(order, counts[order])
    if sorted_rows.size < 2:
        return None
    sorted_values = column[sorted_rows]
    boundary = np.nonzero(sorted_values[1:] != sorted_values[:-1])[0]
    if boundary.size == 0:
        return None
    thresholds = _midpoints(sorted_values[boundary], sorted_values[boundary + 1]).tolist()

    grad_prefix = np.cumsum(gradients[sorted_rows], axis=0)
    hess_prefix = np.cumsum(hessians[sorted_rows], axis=0)
    g_le = grad_prefix[boundary]
    h_le = hess_prefix[boundary]
    n_thresholds = len(thresholds)
    return [
        ([OP_LEQ] * n_thresholds, thresholds, g_le, h_le),
        ([OP_GT] * n_thresholds, thresholds, grad_prefix[-1] - g_le, hess_prefix[-1] - h_le),
    ]


def _nominal_candidates(attr, column, rows, gradients, hessians):
    """== and != of every value occurring in the sample, in one block."""
    codes = column[rows]
    present = codes != MISSING_CODE
    rows_present = rows[present]
    if rows_present.size == 0:
        return None
    codes_present = codes[present]
    total_rows = rows.shape[0]
    g_total = gradients[rows_present].sum(axis=0)
    h_total = hessians[rows_present].sum(axis=0)

    operators: list[str] = []
    thresholds: list = []
    block_gradients: list[np.ndarray] = []
    block_hessians: list[np.ndarray] = []
    for code in np.unique(codes_present):
        match = codes_present == code
        count_eq = int(match.sum())
        value = attr.values[int(code)]
        g_eq = gradients[rows_present[match]].sum(axis=0)
        h_eq = hessians[rows_present[match]].sum(axis=0)
        # A condition covering none or all of the current rows cannot be a
        # strict improvement, so it is not worth scoring.
        if count_eq < total_rows:
            operators.append(OP_EQ)
            thresholds.append(value)
            block_gradients.append(g_eq)
            block_hessians.append(h_eq)
        if rows_present.shape[0] - count_eq > 0:
            operators.append(OP_NEQ)
            thresholds.append(value)
            block_gradients.append(g_total - g_eq)
            block_hessians.append(h_total - h_eq)
    if not operators:
        return None
    return [(operators, thresholds, np.array(block_gradients), np.array(block_hessians))]


def _best_refinement(dataset, orders, rows, gradients, hessians, diagonal, attributes,
                     l2_weight, head_mode, fixed_label, incumbent_objective):
    """Best strict improvement over the given attributes, or None.

    Candidates are visited in tie-break order: attributes as given,
    thresholds ascending with <= before >, nominal values in schema order
    with == before !=.  The first candidate reaching the minimum wins.
    """
    counts = np.bincount(rows, minlength=dataset.n_examples)
    best = None
    threshold = incumbent_objective
    for attribute_index in attributes:
        attr = dataset.schema[attribute_index]
        column = dataset.columns[attribute_index]
        if attr.is_numeric:
            blocks = _numeric_candidates(column, orders[attribute_index], counts, gradients, hessians)
        else:
            blocks = _nominal_candidates(attr, column, rows, gradients, hessians)
        if blocks is None:
            continue
        solved = [solve_heads(g, h, diagonal, l2_weight, head_mode, fixed_label)
                  for _, _, g, h in blocks]
        # Row j of the stacked objectives holds candidate j of every block,
        # so the flat argmin is the first minimum in tie-break order.
        stacked = np.stack([objectives for objectives, _, _ in solved], axis=1)
        i, b = divmod(int(np.argmin(stacked)), len(blocks))
        operators, thresholds, _, _ = blocks[b]
        objectives, scores, labels = solved[b]
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
    orders = presort(dataset) if context.orders is None else context.orders
    hessians, diagonal = store.hessians, store.diagonal
    if context.head_mode == HEAD_SINGLE and not diagonal:
        hessians, diagonal = hessians.diagonal(axis1=1, axis2=2), True

    while n_attributes > 0:
        if context.feature_sampling:
            attributes = context.rng.choice(n_attributes, size=subset_size, replace=False)
        else:
            attributes = np.arange(n_attributes)
        best = _best_refinement(
            dataset, orders, rows, store.gradients, hessians, diagonal, attributes,
            context.l2_weight, context.head_mode, fixed_label, best_objective,
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
