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
Numeric attributes are scanned with prefix sums over the covered sample
in value order.  Each numeric column is sorted once per training run
(``presort``, with its missing values cut off); a step counts how often
each row occurs in its sample and repeats every row of the presorted
order that many times, so it gets the sample in value order in O(n)
instead of sorting it again.  A scan gathers those rows' table entries,
prefix-sums them in place, takes the rows at the thresholds (the <=
block) and subtracts them from the total (the > block): four numpy calls
into the buffers of a ``ScanWorkspace`` that the training run owns, so
steady-state scans allocate no table-sized array.  The winner is mapped
back to the tie-break order in which <= of a threshold comes before > of
the same threshold; only the winner's threshold is computed.

Single-label rules pick their label freely while the first condition is
chosen and keep it for every later refinement step; their candidates need
only the Hessian diagonal, so the gradients and Hessian diagonal of an
example-wise store are copied once per rule into the workspace and
scanned as a label-wise-shaped table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .dataset import MISSING_CODE, Dataset
from .errors import InductionError, SolverError
# ``objective_value`` is not used here; it is bound as
# ``induction.objective_value`` because the benchmark's traced run
# (perfbench/spans.py) wraps that name.
from .heads import (
    HEAD_SINGLE,
    AggregatedStats,
    ScanWorkspace,
    column_sums,
    find_head,
    objective_value,
    score_heads,
    stats_for_rows,
)
from .losses import GradHessStore, packed_indices
from .rules import OP_EQ, OP_GT, OP_LEQ, OP_NEQ, Body, Condition, Rule, condition_mask


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
    # Buffers reused across steps and rules; a fresh one when left out.
    workspace: ScanWorkspace | None = None


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


class _Scan(NamedTuple):
    """The candidate conditions of one attribute, in ``n_blocks`` blocks of equal length.

    ``sums`` stacks the blocks' summed table rows (gradients, then the
    Hessian part) block after block, one row per condition.  Candidate i
    of the tie-break order is candidate i // n_blocks of block
    i % n_blocks, and ``condition(i)`` gives its (operator, threshold);
    only the winner's is ever built.
    """

    sums: np.ndarray
    n_blocks: int
    condition: Callable[[int], tuple]


def _numeric_candidates(column, order, counts, table, workspace):
    """Thresholds between adjacent distinct values of the sample, <= and > blocks.

    ``order`` is the column's presorted order and ``counts`` the number of
    times each row occurs in the sample.  The prefix sums and the blocks
    are built in the workspace's ``"rows"`` and ``"candidates"`` buffers.
    """
    sorted_rows = np.repeat(order, counts[order])
    if sorted_rows.size < 2:
        return None
    sorted_values = column[sorted_rows]
    boundary = np.flatnonzero(sorted_values[1:] != sorted_values[:-1])
    if boundary.size == 0:
        return None
    width = table.shape[1]
    # The presorted order holds valid rows, so no index needs a bounds check.
    prefix = np.take(table, sorted_rows, axis=0, mode="clip",
                     out=workspace.array("rows", (sorted_rows.size, width)))
    np.cumsum(prefix, axis=0, out=prefix)
    n_thresholds = boundary.size
    blocks = workspace.array("candidates", (2 * n_thresholds, width))
    np.take(prefix, boundary, axis=0, out=blocks[:n_thresholds], mode="clip")
    np.subtract(prefix[-1], blocks[:n_thresholds], out=blocks[n_thresholds:])

    def condition(i):
        below = boundary[i // 2]
        threshold = _midpoints(sorted_values[below], sorted_values[below + 1])
        return (OP_LEQ, OP_GT)[i % 2], float(threshold)

    return _Scan(blocks, 2, condition)


def _nominal_candidates(attr, column, rows, table, n_labels):
    """== and != of every value occurring in the sample, in one block."""
    codes = column[rows]
    present = codes != MISSING_CODE
    rows_present = rows[present]
    if rows_present.size == 0:
        return None
    codes_present = codes[present]
    total_rows = rows.shape[0]
    total = column_sums(table[rows_present], n_labels)

    conditions: list[tuple] = []
    sums: list[np.ndarray] = []
    for code in np.unique(codes_present):
        match = codes_present == code
        count_eq = int(match.sum())
        value = attr.values[int(code)]
        equal = column_sums(table[rows_present[match]], n_labels)
        # A condition covering none or all of the current rows cannot be a
        # strict improvement, so it is not worth scoring.
        if count_eq < total_rows:
            conditions.append((OP_EQ, value))
            sums.append(equal)
        if rows_present.shape[0] - count_eq > 0:
            conditions.append((OP_NEQ, value))
            sums.append(total - equal)
    if not conditions:
        return None
    return _Scan(np.array(sums), 1, conditions.__getitem__)


def _best_refinement(dataset, orders, rows, store, attributes, l2_weight, head_mode,
                     fixed_label, incumbent_objective, workspace):
    """Best strict improvement over the given attributes, or None.

    Candidates are visited in tie-break order: attributes as given,
    thresholds ascending with <= before >, nominal values in schema order
    with == before !=.  The first candidate reaching the minimum wins.
    Returns its objective, condition, summed table row (as scored, copied
    out of the workspace) and single-label label.
    """
    counts = np.bincount(rows, minlength=dataset.n_examples)
    n_labels = store.n_labels
    best = None
    threshold = incumbent_objective
    for attribute_index in attributes:
        attr = dataset.schema[attribute_index]
        column = dataset.columns[attribute_index]
        if attr.is_numeric:
            scan = _numeric_candidates(column, orders[attribute_index], counts, store.table,
                                       workspace)
        else:
            scan = _nominal_candidates(attr, column, rows, store.table, n_labels)
        if scan is None:
            continue
        objectives, labels = score_heads(scan.sums[:, :n_labels], scan.sums[:, n_labels:],
                                         store.diagonal, l2_weight, head_mode, fixed_label,
                                         workspace)
        # Row j of the transposed blocks holds candidate j of every block,
        # so the flat argmin is the first minimum in tie-break order.
        blocks = objectives.reshape(scan.n_blocks, -1)
        i = int(np.argmin(blocks.T))
        position, block = divmod(i, scan.n_blocks)
        j = block * blocks.shape[1] + position
        if objective_improvement(float(objectives[j]), threshold):
            threshold = float(objectives[j])
            operator, value = scan.condition(i)
            label = None if labels is None else int(labels[j])
            best = (threshold, Condition(int(attribute_index), operator, value),
                    scan.sums[j].copy(), label)
    return best


def _diagonal_store(store: GradHessStore, workspace: ScanWorkspace) -> GradHessStore:
    """The gradients and Hessian diagonal of an example-wise store, copied into the workspace."""
    n_labels = store.n_labels
    rows, columns = packed_indices(n_labels)
    keep = np.concatenate([np.arange(n_labels), n_labels + np.flatnonzero(rows == columns)])
    table = np.take(store.table, keep, axis=1, mode="clip",
                    out=workspace.array("diagonal", (store.n_examples, 2 * n_labels)))
    return GradHessStore(table, n_labels, diagonal=True)


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

    workspace = ScanWorkspace() if context.workspace is None else context.workspace
    if context.head_mode == HEAD_SINGLE and not store.diagonal:
        # Single-label candidates read only the Hessian diagonal.
        store = _diagonal_store(store, workspace)
    stats = stats_for_rows(store, rows, workspace)
    empty_hessian = stats.hessian if store.diagonal else stats.hessian[packed_indices(store.n_labels)]
    objectives, _ = score_heads(stats.gradient[None], empty_hessian[None], store.diagonal,
                                context.l2_weight, context.head_mode, workspace=workspace)
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
            fixed_label, best_objective, workspace,
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
