"""Greedy rule refinement against an exhaustive brute-force oracle.

The oracle below re-derives everything from first principles: it lists
every admissible condition in deterministic tie-break order, sums
gradients/Hessians by direct masking, solves each candidate head with
plain numpy, and evaluates the quadratic objective explicitly.  It shares
no code with the refinement scan it checks.
"""

import numpy as np
import pytest

from ruleboost.dataset import MISSING_CODE, NOMINAL, NUMERIC, Attribute, AttributeSchema, Dataset
from ruleboost.errors import InductionError, SolverError
from ruleboost.heads import (
    HEAD_MULTI,
    ScanWorkspace,
    find_head,
    objective_value,
    solve_heads,
    stats_for_rows,
)
from ruleboost.induction import (
    RefinementContext,
    _midpoints,
    _nominal_candidates,
    _numeric_candidates,
    feature_subset_size,
    objective_improvement,
    presort,
    refine_rule,
    refine_rule_with_trace,
)
from ruleboost.losses import GradHessStore, init_store, make_loss, packed_indices, unpack_hessians
from ruleboost.rules import OP_GT, OP_LEQ, Body, Condition, Head, Rule, condition_mask

from conftest import dataset_from_rows, random_dataset


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def oracle_conditions(dataset, attribute_index, rows):
    """All candidate conditions of one attribute, in tie-break order."""
    attr = dataset.schema[attribute_index]
    column = dataset.columns[attribute_index]
    values = column[rows]
    out = []
    if attr.is_numeric:
        present = sorted(set(values[~np.isnan(values)].tolist()))
        for low, high in zip(present, present[1:]):
            mid = (low + high) / 2.0
            if mid >= high:
                mid = low
            out.append(("<=", mid))
            out.append((">", mid))
    else:
        occurring = sorted(set(int(c) for c in values if c >= 0))
        for code in occurring:
            value = attr.values[code]
            out.append(("==", value))
            out.append(("!=", value))
    return out


def oracle_coverage(dataset, attribute_index, operator, threshold, rows):
    column = dataset.columns[attribute_index]
    values = column[rows]
    if operator == "<=":
        with np.errstate(invalid="ignore"):
            return values <= threshold
    if operator == ">":
        with np.errstate(invalid="ignore"):
            return values > threshold
    code = dataset.schema[attribute_index].values.index(threshold)
    if operator == "==":
        return values == code
    return (values != code) & (values >= 0)


def oracle_head_and_objective(g, h, diagonal, l2, head_mode, fixed_label):
    """Optimal head and objective for one candidate, solved from scratch."""
    n_labels = g.shape[0]
    h_diag = h if diagonal else np.diagonal(h)
    if head_mode == "single":
        best = None
        labels = range(n_labels) if fixed_label is None else [fixed_label]
        for k in labels:
            denom = h_diag[k] + l2
            if denom <= 0:
                continue
            p = -g[k] / denom
            obj = g[k] * p + 0.5 * denom * p * p
            if best is None or obj < best[0]:
                best = (obj, k, p)
        if best is None:
            return None
        obj, k, p = best
        scores = np.zeros(n_labels)
        scores[k] = p
        return obj, scores
    if diagonal:
        denom = h_diag + l2
        if np.any(denom <= 0):
            return None
        p = -g / denom
        obj = float(g @ p + 0.5 * (denom * p * p).sum())
        return obj, p
    system = h + l2 * np.eye(n_labels)
    try:
        p = np.linalg.solve(system, -g)
    except np.linalg.LinAlgError:
        return None
    obj = float(g @ p + 0.5 * p @ h @ p + 0.5 * l2 * (p @ p))
    return obj, p


def oracle_sums(store, rows):
    """Summed gradients and Hessians of some rows; a dense Hessian as its (l, l) matrix."""
    g = store.gradients[rows].sum(axis=0)
    h = store.hessians[rows].sum(axis=0)
    if not store.diagonal:
        h = unpack_hessians(h[None], store.n_labels)[0]
    return g, h


def oracle_objective_of_rows(store, rows, l2, head_mode, fixed_label=None):
    g, h = oracle_sums(store, rows)
    result = oracle_head_and_objective(g, h, store.diagonal, l2, head_mode, fixed_label)
    assert result is not None
    return result[0]


def oracle_first_condition(dataset, store, rows, l2, head_mode):
    """(best condition, best objective) against the empty-body incumbent.

    Returns (None, incumbent) when no candidate strictly improves.
    """
    incumbent = oracle_objective_of_rows(store, rows, l2, head_mode)
    best_condition = None
    best_objective = incumbent
    for attribute_index in range(dataset.n_attributes):
        for operator, threshold in oracle_conditions(dataset, attribute_index, rows):
            mask = oracle_coverage(dataset, attribute_index, operator, threshold, rows)
            covered = rows[mask]
            if covered.size == 0 or covered.size == rows.size:
                # Zero stats give objective 0, never a strict improvement;
                # full coverage reproduces the incumbent exactly.
                continue
            g, h = oracle_sums(store, covered)
            result = oracle_head_and_objective(g, h, store.diagonal, l2, head_mode, None)
            if result is None:
                continue
            if result[0] < best_objective:
                best_objective = result[0]
                best_condition = Condition(attribute_index, operator, threshold)
    return best_condition, best_objective


def oracle_objective_of_condition(dataset, store, rows, condition, l2, head_mode):
    mask = oracle_coverage(
        dataset, condition.attribute_index, condition.operator, condition.threshold, rows
    )
    covered = rows[mask]
    g, h = oracle_sums(store, covered)
    result = oracle_head_and_objective(g, h, store.diagonal, l2, head_mode, None)
    assert result is not None
    return result[0]


# ---------------------------------------------------------------------------
# Candidate conditions of the refinement scan
# ---------------------------------------------------------------------------

def in_tie_break_order(scan, n_labels):
    """A scan's blocks as one (operators, thresholds, gradients, hessians) table.

    Candidate i of the tie-break order is candidate i // k of block i % k;
    the scan stacks its k blocks one after another, each candidate's
    summed table row holding its l gradients and then its Hessian part.
    """
    k = scan.n_blocks
    conditions = [scan.condition(i) for i in range(scan.sums.shape[0])]

    def interleave(stacked):
        blocks = stacked.reshape((k, -1) + stacked.shape[1:])
        return np.stack(list(blocks), axis=1).reshape(stacked.shape)

    return ([op for op, _ in conditions], [t for _, t in conditions],
            interleave(scan.sums[:, :n_labels]), interleave(scan.sums[:, n_labels:]))


def numeric_scan(dataset, attribute_index, rows, store):
    """The refinement scan of a numeric attribute, in tie-break order, or None."""
    blocks = _numeric_candidates(
        dataset.columns[attribute_index], presort(dataset)[attribute_index],
        np.bincount(rows, minlength=dataset.n_examples), store.table, ScanWorkspace(),
    )
    return None if blocks is None else in_tie_break_order(blocks, store.n_labels)


def enumerate_conditions(dataset, attribute_index, rows=None):
    """The conditions the scan scores for one attribute, in tie-break order."""
    rows = np.arange(dataset.n_examples) if rows is None else np.asarray(rows)
    store = init_store(make_loss("label-wise-logistic"), dataset)
    attr = dataset.schema[attribute_index]
    if attr.is_numeric:
        table = numeric_scan(dataset, attribute_index, rows, store)
    else:
        blocks = _nominal_candidates(
            attr, dataset.columns[attribute_index], rows, store.table, store.n_labels
        )
        table = None if blocks is None else in_tie_break_order(blocks, store.n_labels)
    if table is None:
        return []
    operators, thresholds, _, _ = table
    return [Condition(attribute_index, op, t) for op, t in zip(operators, thresholds)]


def argsort_scan(column, rows, store):
    """The numeric scan as it was before presorting: sort the covered sample at every step.

    Ties keep their order in ``rows``, where the presorted scan groups them
    by row index; the candidates are interleaved, <= before > per threshold.
    """
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
    h_le = hess_prefix[boundary]

    def interleave(first, second):
        return np.stack([first, second], axis=1).reshape((-1,) + first.shape[1:])

    operators = [OP_LEQ, OP_GT] * boundary.size
    return (operators, np.repeat(thresholds, 2).tolist(),
            interleave(g_le, grad_prefix[-1] - g_le), interleave(h_le, hess_prefix[-1] - h_le))


def lu_best_refinement(dataset, orders, rows, store, attributes,
                       l2_weight, head_mode, fixed_label, incumbent_objective):
    """The refinement step as it was before candidates were only scored.

    Every candidate's head is solved by ``solve_heads`` (LU or closed form)
    on full Hessians, and its objective comes from that solve; the first
    minimum in tie-break order wins if it is a strict improvement.
    """
    counts = np.bincount(rows, minlength=dataset.n_examples)
    best = None
    threshold = incumbent_objective
    for attribute_index in attributes:
        attr = dataset.schema[attribute_index]
        column = dataset.columns[attribute_index]
        if attr.is_numeric:
            scan = _numeric_candidates(column, orders[attribute_index], counts, store.table,
                                       ScanWorkspace())
        else:
            scan = _nominal_candidates(attr, column, rows, store.table, store.n_labels)
        if scan is None:
            continue
        operators, thresholds, g, h = in_tie_break_order(scan, store.n_labels)
        if not store.diagonal:
            h = unpack_hessians(h, store.n_labels)
        objectives, scores, labels = solve_heads(g, h, store.diagonal, l2_weight, head_mode,
                                                 fixed_label)
        i = int(np.argmin(objectives))
        if objective_improvement(float(objectives[i]), threshold):
            threshold = float(objectives[i])
            condition = Condition(int(attribute_index), operators[i], thresholds[i])
            best = (threshold, condition, scores[i].copy(), None if labels is None else int(labels[i]))
    return best


def lu_refine_rule(dataset, store, context):
    """``refine_rule`` with every candidate's head solved: the oracle of the scored search."""
    rows = np.asarray(context.sample)
    stats = stats_for_rows(store, rows)
    head = find_head(stats, context.l2_weight, context.head_mode)
    best_objective = objective_value(stats, head, context.l2_weight)
    conditions = []
    fixed_label = None
    orders = presort(dataset)
    if context.head_mode == "single" and not store.diagonal:
        # Single-label heads read the gradients and the Hessian diagonal.
        on_diagonal = np.equal(*packed_indices(store.n_labels))
        store = GradHessStore(np.hstack([store.gradients, store.hessians[:, on_diagonal]]),
                              store.n_labels, True)
    while True:
        if context.feature_sampling:
            attributes = context.rng.choice(
                dataset.n_attributes, size=feature_subset_size(dataset.n_attributes),
                replace=False,
            )
        else:
            attributes = np.arange(dataset.n_attributes)
        best = lu_best_refinement(
            dataset, orders, rows, store, attributes,
            context.l2_weight, context.head_mode, fixed_label, best_objective,
        )
        if best is None:
            return Rule(Body(tuple(conditions)), head)
        best_objective, condition, scores, label = best
        conditions.append(condition)
        rows = rows[condition_mask(dataset, condition, rows)]
        head = Head(scores, label)
        if fixed_label is None:
            fixed_label = label


def tie_heavy_dataset(rng, n, n_numeric, n_labels):
    """Numeric columns rounded to one decimal with 5% missing, plus one nominal column."""
    attributes = [Attribute(f"x{j}", NUMERIC) for j in range(n_numeric)]
    attributes.append(Attribute("c", NOMINAL, ("a", "b", "c")))
    columns = []
    for _ in range(n_numeric):
        column = np.round(rng.normal(size=n), 1)
        column[rng.random(n) < 0.05] = np.nan
        columns.append(column)
    codes = rng.integers(0, 3, size=n)
    codes[rng.random(n) < 0.05] = MISSING_CODE
    columns.append(codes)
    labels = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, n_labels))
    return Dataset(AttributeSchema(tuple(attributes)), columns, labels,
                   [f"l{k}" for k in range(n_labels)])


class TestScoredRefinementAgainstLUOracle:
    """Scoring candidates without solving their heads picks the rule the LU search picks."""

    @pytest.mark.parametrize("loss_id", ["label-wise-logistic", "example-wise-logistic"])
    @pytest.mark.parametrize("head_mode", ["single", "multi"])
    @pytest.mark.parametrize("l2", [0.0, 1.0])
    def test_same_body_and_head(self, loss_id, head_mode, l2):
        rng = np.random.default_rng(4242)
        loss = make_loss(loss_id)
        for trial in range(8):
            n = int(rng.integers(50, 300))
            dataset = tie_heavy_dataset(rng, n, int(rng.integers(1, 4)), int(rng.integers(1, 6)))
            store = init_store(loss, dataset)
            store.recompute(loss, dataset.labels, rng.normal(0.0, 1.5, size=store.gradients.shape))
            rows = rng.integers(0, n, size=n)
            for feature_sampling in (False, True):
                expected = lu_refine_rule(dataset, store, _context(
                    rows, head_mode, l2=l2, feature_sampling=feature_sampling, seed=trial))
                actual = refine_rule(dataset, store, _context(
                    rows, head_mode, l2=l2, feature_sampling=feature_sampling, seed=trial))
                assert actual.body == expected.body
                assert actual.head.label_index == expected.head.label_index
                np.testing.assert_array_equal(actual.head.scores, expected.head.scores)


class TestWorkspaceReuse:
    """A workspace left over from other samples gives the rules a fresh one gives."""

    @pytest.mark.parametrize("loss_id", ["label-wise-logistic", "example-wise-logistic"])
    @pytest.mark.parametrize("head_mode", ["single", "multi"])
    def test_large_small_large_samples(self, loss_id, head_mode):
        rng = np.random.default_rng(515)
        n = 300
        dataset = random_dataset(rng, n, n_numeric=3, n_nominal=2, n_labels=4, missing_rate=0.1)
        assert any(np.isnan(column).any() for column in dataset.columns[:3])
        loss = make_loss(loss_id)
        store = init_store(loss, dataset)
        workspace = ScanWorkspace()
        samples = [rng.integers(0, n, size=n), rng.integers(0, n, size=12),
                   rng.integers(0, n, size=2 * n)]
        for trial, rows in enumerate(samples):
            # New scores each time, so that nothing copied from the store may go stale.
            store.recompute(loss, dataset.labels, rng.normal(0.0, 1.5, size=store.gradients.shape))
            for feature_sampling in (False, True):
                settings = dict(l2=0.25 * trial, feature_sampling=feature_sampling, seed=trial)
                context = _context(rows, head_mode, **settings)
                context.workspace = workspace
                reused = refine_rule_with_trace(dataset, store, context)
                fresh = refine_rule_with_trace(dataset, store, _context(rows, head_mode, **settings))
                assert reused == fresh
                assert len(reused[0].body) > 0


def _numeric_dataset(values, n_labels=1):
    schema = AttributeSchema((Attribute("x", NUMERIC),))
    rows = [[v] for v in values]
    labels = np.ones((len(values), n_labels), dtype=np.int8)
    return dataset_from_rows(schema, rows, labels, [f"l{k}" for k in range(n_labels)])


class TestEnumerateConditions:
    def test_midpoint_thresholds(self):
        dataset = _numeric_dataset([1.0, 3.0])
        conditions = enumerate_conditions(dataset, 0)
        assert [(c.operator, c.threshold) for c in conditions] == [("<=", 2.0), (">", 2.0)]

    def test_single_distinct_value_gives_nothing(self):
        dataset = _numeric_dataset([2.0, 2.0, 2.0])
        assert enumerate_conditions(dataset, 0) == []

    def test_nominal_values_both_operators(self):
        schema = AttributeSchema((Attribute("c", NOMINAL, ("a", "b", "z")),))
        dataset = dataset_from_rows(
            schema, [["a"], ["b"], ["a"]], np.ones((3, 1), dtype=np.int8), ["l0"]
        )
        conditions = enumerate_conditions(dataset, 0)
        assert [(c.operator, c.threshold) for c in conditions] == [
            ("==", "a"), ("!=", "a"), ("==", "b"), ("!=", "b"),
        ]

    def test_missing_values_are_skipped(self):
        schema = AttributeSchema((Attribute("x", NUMERIC),))
        dataset = dataset_from_rows(
            schema, [[1.0], [None], [3.0]], np.ones((3, 1), dtype=np.int8), ["l0"]
        )
        conditions = enumerate_conditions(dataset, 0)
        assert [(c.operator, c.threshold) for c in conditions] == [("<=", 2.0), (">", 2.0)]

    def test_row_restriction(self):
        dataset = _numeric_dataset([1.0, 3.0, 9.0])
        conditions = enumerate_conditions(dataset, 0, rows=[0, 1])
        assert [c.threshold for c in conditions] == [2.0, 2.0]

    def test_ascending_threshold_order(self):
        dataset = _numeric_dataset([5.0, 1.0, 3.0])
        thresholds = [c.threshold for c in enumerate_conditions(dataset, 0)]
        assert thresholds == [2.0, 2.0, 4.0, 4.0]


def _scan_column(kind, rng, n):
    """A numeric column of the given kind, with NaNs everywhere but in "distinct"."""
    if kind == "distinct":
        return rng.permutation(np.linspace(-1.0, 1.0, n)) + rng.normal(0.0, 1e-6, n)
    if kind == "ties":
        column = rng.integers(0, 4, n).astype(float)
    elif kind == "signed_zeros":
        column = rng.choice([-0.0, 0.0, 5e-324, -1.5, 2.0], n)
    elif kind == "single_value":
        column = np.full(n, 3.25)
    else:
        column = rng.normal(size=n)
    column[rng.random(n) < 0.2] = np.nan
    return column


class TestPresortedScanAgainstArgsort:
    """The presorted scan lists what the per-step argsort listed, with the same sums."""

    def _store(self, rng, column, n_labels, loss_id):
        n = column.shape[0]
        schema = AttributeSchema((Attribute("x", NUMERIC),))
        labels = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, n_labels))
        dataset = Dataset(schema, [column], labels, [f"l{k}" for k in range(n_labels)])
        loss = make_loss(loss_id)
        store = init_store(loss, dataset)
        store.recompute(loss, labels.astype(float), rng.normal(0.0, 2.0, size=(n, n_labels)))
        return dataset, store

    @pytest.mark.parametrize("loss_id", ["label-wise-logistic", "example-wise-logistic"])
    @pytest.mark.parametrize("kind", ["distinct", "nan", "ties", "signed_zeros", "single_value"])
    def test_same_conditions_and_sums(self, kind, loss_id):
        rng = np.random.default_rng(17)
        for trial in range(20):
            n = int(rng.integers(1, 60))
            column = _scan_column(kind, rng, n)
            dataset, store = self._store(rng, column, int(rng.integers(1, 4)), loss_id)
            samples = [np.arange(n), rng.integers(0, n, size=n),
                       rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1)))]
            for rows in samples:
                expected = argsort_scan(column, rows, store)
                actual = numeric_scan(dataset, 0, rows, store)
                if expected is None:
                    assert actual is None
                    continue
                assert actual[0] == expected[0]
                assert actual[1] == expected[1]
                present = column[np.unique(rows)]
                present = present[~np.isnan(present)]
                if np.unique(present).size == present.size:
                    # No two distinct rows tie: the same additions in the same order.
                    np.testing.assert_array_equal(actual[2], expected[2])
                    np.testing.assert_array_equal(actual[3], expected[3])
                else:
                    np.testing.assert_allclose(actual[2], expected[2], rtol=1e-12, atol=1e-12)
                    np.testing.assert_allclose(actual[3], expected[3], rtol=1e-12, atol=1e-12)

    def test_presort_cuts_missing_rows_and_keeps_ties_in_row_order(self):
        schema = AttributeSchema(
            (Attribute("x", NUMERIC), Attribute("c", NOMINAL, ("a", "b")))
        )
        dataset = dataset_from_rows(
            schema, [[2.0, "a"], [None, "b"], [1.0, "a"], [2.0, None], [-0.0, "b"], [0.0, "a"]],
            np.ones((6, 1), dtype=np.int8), ["l0"],
        )
        orders = presort(dataset)
        assert orders[0].tolist() == [4, 5, 2, 0, 3]
        assert orders[1] is None

    def test_given_orders_match_derived_ones(self, rng):
        for trial in range(5):
            dataset = random_dataset(rng, 40, n_numeric=3, n_nominal=1, n_labels=3,
                                     missing_rate=0.1)
            store = init_store(make_loss("example-wise-logistic"), dataset)
            rows = rng.integers(0, 40, size=40)
            derived = refine_rule_with_trace(
                dataset, store, _context(rows, "single", seed=trial, feature_sampling=True)
            )
            context = _context(rows, "single", seed=trial, feature_sampling=True)
            context.orders = presort(dataset)
            assert refine_rule_with_trace(dataset, store, context) == derived


class TestFeatureSubsetSize:
    @pytest.mark.parametrize(
        "n_attributes,expected",
        [(1, 1), (2, 1), (3, 2), (5, 3), (9, 4), (294, 9)],
    )
    def test_formula(self, n_attributes, expected):
        assert feature_subset_size(n_attributes) == expected

    def test_bounds(self):
        for m in range(1, 200):
            k = feature_subset_size(m)
            assert 1 <= k <= m


class TestObjectiveImprovement:
    def test_strictly_smaller_improves(self):
        assert objective_improvement(-0.5, -0.2)

    def test_ties_keep_incumbent(self):
        assert not objective_improvement(-0.2, -0.2)

    def test_nan_raises(self):
        with pytest.raises(InductionError):
            objective_improvement(float("nan"), -0.2)


class TestNearlySingularCandidates:
    def test_overflowing_objective_is_unusable(self):
        # At l2 = 0 this system has an eigenvalue near 1e-180: LAPACK solves
        # it without raising, the head comes out near 1e176 and the quadratic
        # term overflows into inf - inf.
        g = np.array([1e-3, -1e-3])
        nearly_singular = 1e-170 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]])
        objectives, scores, _ = solve_heads(
            np.array([g, g]), np.array([nearly_singular, np.eye(2)]), False, 0.0, HEAD_MULTI
        )
        assert objectives[0] == np.inf
        np.testing.assert_allclose(scores[1], -g)
        assert objectives[1] == pytest.approx(-0.5 * (g @ g))


# ---------------------------------------------------------------------------
# refine_rule
# ---------------------------------------------------------------------------

def _context(rows, head_mode, l2=0.0, feature_sampling=False, seed=0):
    return RefinementContext(
        sample=np.asarray(rows),
        head_mode=head_mode,
        l2_weight=l2,
        rng=np.random.default_rng(seed),
        feature_sampling=feature_sampling,
    )


class TestRefineRule:
    def test_empty_sample_raises(self, rng):
        dataset = random_dataset(rng, 5, n_numeric=1)
        store = init_store(make_loss("label-wise-logistic"), dataset)
        with pytest.raises(InductionError):
            refine_rule(dataset, store, _context([], "multi"))

    @pytest.mark.parametrize("diagonal,head_mode", [
        (False, "multi"), (False, "single"), (True, "multi"), (True, "single"),
    ])
    def test_empty_body_without_usable_head_raises(self, diagonal, head_mode):
        # The Hessians of the six rows sum to zero, so at l2 = 0 the empty
        # body has no head, while x <= 0.5 alone would have a finite one.
        dataset = _numeric_dataset([0.1, 0.2, 0.3, 0.7, 0.8, 0.9], n_labels=2)
        signs = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        hessians = signs[:, None] * np.ones((6, 2))
        if not diagonal:
            # The packed upper triangles of signs * I.
            hessians = signs[:, None] * np.array([1.0, 0.0, 1.0])
        store = GradHessStore(np.hstack([np.tile([1.0, -1.0], (6, 1)), hessians]), 2, diagonal)
        with pytest.raises(SolverError, match="empty body"):
            refine_rule(dataset, store, _context(np.arange(6), head_mode))

    def test_perfect_split_is_found(self):
        """One condition separates the label perfectly; it must be chosen."""
        values = [0.1, 0.2, 0.3, 0.7, 0.8, 0.9]
        labels = np.array([[1], [1], [1], [-1], [-1], [-1]], dtype=np.int8)
        dataset = _numeric_dataset(values)
        dataset = dataset_from_rows(dataset.schema, [[v] for v in values], labels, ["l0"])
        store = init_store(make_loss("label-wise-logistic"), dataset)
        rows = np.arange(6)
        rule = refine_rule(dataset, store, _context(rows, "multi"))
        first = rule.body.conditions[0]
        expected, _ = oracle_first_condition(dataset, store, rows, 0.0, "multi")
        assert first == expected
        assert first.threshold == 0.5

    def test_constant_labels_add_no_condition(self, rng):
        dataset = random_dataset(rng, 20, n_numeric=2, n_labels=2)
        labels = np.ones((20, 2), dtype=np.int8)
        dataset = Dataset(dataset.schema, dataset.columns, labels, dataset.label_names)
        store = init_store(make_loss("label-wise-logistic"), dataset)
        rows = np.arange(20)
        rule, trace = refine_rule_with_trace(dataset, store, _context(rows, "multi"))
        assert len(rule.body) == 0
        assert len(trace) == 1
        # Oracle confirms no candidate beats the empty body.
        condition, _ = oracle_first_condition(dataset, store, rows, 0.0, "multi")
        assert condition is None

    def test_two_informative_attributes_bounded_depth(self):
        """Label = (x0 <= 0.5) and (x1 <= 0.5): two conditions suffice."""
        rng = np.random.default_rng(7)
        n = 60
        x0 = rng.uniform(0, 1, n)
        x1 = rng.uniform(0, 1, n)
        label = np.where((x0 <= 0.5) & (x1 <= 0.5), 1, -1).astype(np.int8)
        schema = AttributeSchema((Attribute("x0", NUMERIC), Attribute("x1", NUMERIC)))
        dataset = dataset_from_rows(
            schema, [[float(a), float(b)] for a, b in zip(x0, x1)],
            label.reshape(-1, 1), ["l0"],
        )
        store = init_store(make_loss("label-wise-logistic"), dataset)
        rule, trace = refine_rule_with_trace(
            dataset, store, _context(np.arange(n), "single")
        )
        assert 1 <= len(rule.body) <= 2
        assert all(b < a for a, b in zip(trace, trace[1:]))

    def test_objective_trace_strictly_decreasing(self, rng):
        for trial in range(10):
            dataset = random_dataset(
                rng, 40, n_numeric=2, n_nominal=1, n_labels=3, missing_rate=0.1
            )
            loss = make_loss(["label-wise-logistic", "example-wise-logistic"][trial % 2])
            store = init_store(loss, dataset)
            rows = rng.integers(0, 40, size=40)
            _, trace = refine_rule_with_trace(
                dataset, store, _context(rows, ["multi", "single"][trial % 2], seed=trial,
                                         feature_sampling=True)
            )
            assert all(b < a for a, b in zip(trace, trace[1:]))

    def test_refined_body_covers_sample_subset(self, rng):
        from ruleboost.rules import body_mask

        for trial in range(10):
            dataset = random_dataset(rng, 30, n_numeric=2, n_nominal=1, n_labels=2)
            store = init_store(make_loss("label-wise-logistic"), dataset)
            rows = rng.integers(0, 30, size=30)
            rule = refine_rule(dataset, store, _context(rows, "multi", seed=trial,
                                                        feature_sampling=True))
            mask = body_mask(dataset, rule.body)
            assert mask[rows].sum() > 0

    def test_determinism_under_fixed_seed(self, rng):
        dataset = random_dataset(rng, 50, n_numeric=3, n_nominal=1, n_labels=2)
        store = init_store(make_loss("example-wise-logistic"), dataset)
        rows = np.arange(50)
        first = refine_rule(dataset, store, _context(rows, "multi", seed=42,
                                                     feature_sampling=True))
        second = refine_rule(dataset, store, _context(rows, "multi", seed=42,
                                                      feature_sampling=True))
        assert first == second

    def test_single_label_rules_keep_their_label(self, rng):
        for trial in range(10):
            dataset = random_dataset(rng, 50, n_numeric=3, n_labels=3)
            store = init_store(make_loss("example-wise-logistic"), dataset)
            rows = rng.integers(0, 50, size=50)
            rule = refine_rule(dataset, store, _context(rows, "single", seed=trial,
                                                        feature_sampling=True))
            assert rule.head.label_index is not None
            assert np.count_nonzero(rule.head.scores) <= 1


class TestFirstConditionOracle:
    """Exhaustive brute force over candidate (condition, head) objectives."""

    @pytest.mark.parametrize("head_mode", ["multi", "single"])
    def test_first_condition_matches_brute_force(self, head_mode):
        rng = np.random.default_rng(1234)
        for trial in range(50):
            n = int(rng.integers(5, 51))
            n_numeric = int(rng.integers(0, 4))
            n_nominal = int(rng.integers(0 if n_numeric else 1, 5 - n_numeric))
            n_labels = int(rng.integers(1, 4))
            loss = make_loss(
                "label-wise-logistic" if trial % 2 == 0 else "example-wise-logistic"
            )
            dataset = random_dataset(
                rng, n, n_numeric=n_numeric, n_nominal=n_nominal,
                n_labels=n_labels, missing_rate=0.1,
            )
            store = init_store(loss, dataset)
            # Random current scores make the store state generic.
            scores = rng.uniform(-2.0, 2.0, size=(n, n_labels))
            store.recompute(loss, dataset.labels.astype(float), scores)
            l2 = float(rng.choice([0.0, 0.25, 1.0]))
            rows = np.arange(n)

            rule = refine_rule(dataset, store, _context(rows, head_mode, l2=l2))
            expected, best_objective = oracle_first_condition(
                dataset, store, rows, l2, head_mode
            )

            if expected is None:
                assert len(rule.body) == 0
                continue
            assert len(rule.body) >= 1
            first = rule.body.conditions[0]
            if first == expected:
                continue
            # Distinct summation orders can split an exact tie differently;
            # the chosen condition must then attain the same optimum.
            chosen_objective = oracle_objective_of_condition(
                dataset, store, rows, first, l2, head_mode
            )
            assert chosen_objective == pytest.approx(best_objective, rel=1e-9, abs=1e-12)


class TestTieBreakOnExactTies:
    """Objectives built from small integers tie exactly; the first in tie-break order wins."""

    def test_first_minimum_in_tie_break_order(self):
        rng = np.random.default_rng(99)
        tied = 0
        for trial in range(200):
            n = int(rng.integers(2, 12))
            schema = AttributeSchema((Attribute("x", NUMERIC), Attribute("z", NUMERIC)))
            columns = [rng.integers(0, 4, n).astype(float) for _ in range(2)]
            dataset = Dataset(schema, columns, np.ones((n, 1), dtype=np.int8), ["l0"])
            store = GradHessStore(
                np.hstack([rng.integers(-1, 2, (n, 1)).astype(float), np.ones((n, 1))]), 1, True
            )
            rows = np.arange(n)
            rule = refine_rule(dataset, store, _context(rows, "multi"))
            expected, best_objective = oracle_first_condition(dataset, store, rows, 0.0, "multi")
            if expected is None:
                assert len(rule.body) == 0
                continue
            assert rule.body.conditions[0] == expected
            reaching = [
                (a, op, t) for a in range(2) for op, t in oracle_conditions(dataset, a, rows)
                if 0 < oracle_coverage(dataset, a, op, t, rows).sum() < n
                and oracle_objective_of_condition(
                    dataset, store, rows, Condition(a, op, t), 0.0, "multi"
                ) == best_objective
            ]
            tied += len(reaching) > 1
        # The check above only pins the tie-break if many trials had ties.
        assert tied >= 30
