"""Top-down greedy refinement of a single rule.

Starting from the empty body, each step draws a random attribute subset,
enumerates every condition those attributes admit on the currently
covered sample, scores each candidate by the objective its optimal head
would reach on the sampled statistics (``heads.score_heads``, which forms
no head), and keeps the candidate whose objective is strictly smaller
than the incumbent rule's; the empty body is scored the same way.  The
search recurses on the newly covered subset and stops as soon as no
candidate strictly improves the objective; there is no other stopping
criterion.  Only the final body's head is solved.

Every statistic is a sum of rows of the store's one derivative table
(gradients, then the Hessian diagonal or packed upper triangle), so a
candidate's gradient and Hessian sums are one row of a candidate table.
A step writes its sampled attributes' candidates, in order, into one
table in the store workspace's ``"candidates"`` buffer (several in turn
past ``_TABLE_FLOATS`` floats) and scores each table with one
``score_heads`` call.  An objective does not depend on its batch, so the
table's first minimum in tie-break order (<= of a threshold before > of
it) is what scoring attribute by attribute keeps: ``argmin``'s, or the >
candidate of a lower threshold that ties a <= winner.  Only the winner's
threshold is computed.

Numeric attributes are scanned with prefix sums over the covered sample
in value order.  Each numeric column is sorted once per training run
(``presort``, with its missing values cut off); a step counts how often
each row occurs in its sample and repeats every row of the presorted
order that many times, so it gets the sample in value order in O(n)
instead of sorting it again.  A scan takes those rows' table entries with
the store's ``gather``, prefix-sums them in place, takes the rows at the
thresholds (the <= block) and subtracts them from the total (the >
block), both into the candidate table: four numpy calls that allocate no
table-sized array.  A nominal scan sums each value's rows by ``row_sums``.

Single-label rules pick their label freely while the first condition is
chosen and keep it for every later refinement step; their candidates need
only the Hessian diagonal, so ``GradHessStore.diagonal_store`` copies an
example-wise store's gradients and Hessian diagonal once per rule into
its workspace, to be scanned as a label-wise-shaped table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import MISSING_CODE, Dataset
from .errors import InductionError, SolverError
# ``objective_value`` is not used here; it is bound as
# ``induction.objective_value`` because the benchmark's traced run
# (perfbench/spans.py) wraps that name.
from .heads import (
    HEAD_SINGLE,
    AggregatedStats,
    find_head,
    objective_value,
    score_heads,
    stats_for_rows,
)
from .losses import GradHessStore, packed_indices
from .rules import OP_EQ, OP_GT, OP_LEQ, OP_NEQ, Body, Condition, Rule, condition_mask

# A step's candidate table holds at most about this many floats.
_TABLE_FLOATS = 1 << 17


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
    # Two values past half the largest float add to inf, which the fallback replaces.
    with np.errstate(over="ignore"):
        mid = (lower + upper) * 0.5
    # Adjacent floats can round the midpoint up to the higher value, which
    # would put both neighbors on the <= side; fall back to the lower value.
    return np.where(mid < upper, mid, lower)


def _numeric_candidates(column, order, counts, store, out):
    """Thresholds between adjacent distinct values of the sample: a <= block, then a > block.

    ``order`` is the column's presorted order and ``counts`` the number of
    times each row occurs in the sample.  The prefix sums are built in the
    store's ``gather`` buffer and the blocks at the start of ``out``.
    Returns the number of candidates, the function giving candidate j's
    (operator, threshold) and the size of the <= block.
    """
    sorted_rows = np.repeat(order, counts[order])
    sorted_values = column[sorted_rows]
    boundary = np.flatnonzero(sorted_values[1:] != sorted_values[:-1])
    if boundary.size == 0:
        return 0, None, 0
    n_thresholds = boundary.size
    prefix = store.gather(sorted_rows)  # the presorted order holds valid rows
    np.cumsum(prefix, axis=0, out=prefix)
    np.take(prefix, boundary, axis=0, out=out[:n_thresholds], mode="clip")
    np.subtract(prefix[-1], out[:n_thresholds], out=out[n_thresholds:2 * n_thresholds])

    def condition(j):
        below = boundary[j % n_thresholds]
        threshold = _midpoints(sorted_values[below], sorted_values[below + 1])
        return (OP_LEQ, OP_GT)[j // n_thresholds], float(threshold)

    return 2 * n_thresholds, condition, n_thresholds


def _nominal_candidates(attr, column, rows, store, out):
    """== and != of every value occurring in the sample, at the start of ``out``, in
    tie-break order; returns what ``_numeric_candidates`` returns, with no <= block."""
    codes = column[rows]
    present = codes != MISSING_CODE
    rows_present, codes_present = rows[present], codes[present]
    total = store.row_sums(rows_present)
    conditions: list[tuple] = []
    for code in np.unique(codes_present):
        match = codes_present == code
        count_eq = int(match.sum())
        value = attr.values[int(code)]
        equal = store.row_sums(rows_present[match])
        # A condition covering none or all of the current rows cannot be a
        # strict improvement, so it is not worth scoring.
        if count_eq < rows.shape[0]:
            out[len(conditions)] = equal
            conditions.append((OP_EQ, value))
        if rows_present.shape[0] - count_eq > 0:
            np.subtract(total, equal, out=out[len(conditions)])
            conditions.append((OP_NEQ, value))
    return len(conditions), conditions.__getitem__, 0


def _best_refinement(dataset, orders, rows, store, attributes, l2_weight, head_mode,
                     fixed_label, incumbent_objective):
    """Best strict improvement over the given attributes, or None.

    Candidates are visited in tie-break order: attributes as given,
    thresholds ascending with <= before >, nominal values in schema order
    with == before !=.  The first candidate reaching the minimum wins.
    Returns its objective, condition, summed table row (as scored, copied
    out of the store's workspace) and single-label label.
    """
    counts = np.bincount(rows, minlength=dataset.n_examples)
    n_labels, width = store.n_labels, store.table.shape[1]
    # [rows, attributes] of each table; its first attribute may exceed the budget.
    tables: list[list] = []
    for attribute_index in attributes:
        attr = dataset.schema[attribute_index]
        bound = 2 * (rows.size if attr.is_numeric else len(attr.values))
        if not tables or (tables[-1][0] + bound) * width > _TABLE_FLOATS:
            tables.append([0, []])
        tables[-1][0] += bound
        tables[-1][1].append(attribute_index)
    best = None
    threshold = incumbent_objective
    for size, table_attributes in tables:
        candidates = store.workspace.array("candidates", (size, width))
        scans, filled = [], 0
        for attribute_index in table_attributes:
            attr, column = dataset.schema[attribute_index], dataset.columns[attribute_index]
            if attr.is_numeric:
                count, condition, split = _numeric_candidates(
                    column, orders[attribute_index], counts, store, candidates[filled:])
            else:
                count, condition, split = _nominal_candidates(
                    attr, column, rows, store, candidates[filled:])
            scans.append((filled, split, attribute_index, condition))
            filled += count
        if not filled:
            continue
        objectives, labels = score_heads(
            candidates[:filled, :n_labels], candidates[:filled, n_labels:], store.diagonal,
            l2_weight, head_mode, fixed_label, workspace=store.workspace)
        j = int(np.argmin(objectives))  # the first minimum in table order, or a NaN
        offset, split, attribute_index, condition = next(s for s in reversed(scans) if s[0] <= j)
        if j - offset < split:  # a lower threshold's > candidate may tie and come first
            hits = np.flatnonzero(objectives[offset + split:split + j] == objectives[j])
            j = offset + split + int(hits[0]) if hits.size else j
        if objective_improvement(float(objectives[j]), threshold):
            threshold = float(objectives[j])
            operator, value = condition(j - offset)
            best = (threshold, Condition(int(attribute_index), operator, value),
                    candidates[j].copy(), None if labels is None else int(labels[j]))
    return best


def refine_rule_with_trace(
    dataset: Dataset, store: GradHessStore, context: RefinementContext
) -> tuple[Rule, list[float]]:
    """Greedy refinement returning the rule and its objective trace.

    The trace starts at the empty-body objective and records one strictly
    smaller value per added condition.  Candidates, the empty body
    included, are only scored; the head is solved once, for the final body.
    """
    rows = np.asarray(context.sample)
    if rows.size == 0:
        raise InductionError("refinement sample is empty")
    if rows.min() < 0 or rows.max() >= dataset.n_examples:
        raise InductionError("sample indices outside the dataset")

    if context.head_mode == HEAD_SINGLE and not store.diagonal:
        # Single-label candidates read only the Hessian diagonal.
        store = store.diagonal_store()
    stats = stats_for_rows(store, rows)
    empty_hessian = stats.hessian if store.diagonal else stats.hessian[packed_indices(store.n_labels)]
    objectives, _ = score_heads(stats.gradient[None], empty_hessian[None], store.diagonal,
                                context.l2_weight, context.head_mode, workspace=store.workspace)
    best_objective = float(objectives[0])
    if not math.isfinite(best_objective):
        # As in find_head, a bag without a usable head is an error: an
        # incumbent at +inf would let any finite candidate win.
        raise SolverError(
            f"no usable {context.head_mode} head for the empty body: the system is "
            "singular or its objective is not finite; increase the L2 weight"
        )
    trace = [best_objective]
    conditions: list[Condition] = []
    fixed_label = None
    n_attributes = dataset.n_attributes
    subset_size = feature_subset_size(n_attributes)
    orders = presort(dataset) if context.orders is None else context.orders

    while n_attributes > 0:
        if context.feature_sampling:
            attributes = context.rng.choice(n_attributes, size=subset_size, replace=False)
        else:
            attributes = np.arange(n_attributes)
        best = _best_refinement(
            dataset, orders, rows, store, attributes, context.l2_weight, context.head_mode,
            fixed_label, best_objective,
        )
        if best is None:
            break
        best_objective, condition, sums, label = best
        conditions.append(condition)
        rows = rows[condition_mask(dataset, condition, rows)]
        if fixed_label is None:
            fixed_label = label
        trace.append(best_objective)

    if conditions:
        stats = AggregatedStats.from_sums(sums, store.n_labels, store.diagonal, rows.size)
    # Raises SolverError when the final body has no usable head.
    head = find_head(stats, context.l2_weight, context.head_mode, fixed_label)
    return Rule(Body(tuple(conditions)), head), trace


def refine_rule(dataset: Dataset, store: GradHessStore, context: RefinementContext) -> Rule:
    rule, _ = refine_rule_with_trace(dataset, store, context)
    return rule
