"""Loss values and derivatives against independent finite-difference oracles."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import expit as scipy_expit

from ruleboost.dataset import NUMERIC, Attribute, AttributeSchema
from ruleboost.losses import (
    ExampleWiseLogisticLoss,
    LabelWiseLogisticLoss,
    expit,
    init_store,
    make_loss,
    packed_indices,
    update_store,
)
from ruleboost.prediction import predict_sign
from ruleboost.rules import Body, Condition, Head, Rule

from conftest import dataset_from_rows

FD_STEP = 1e-6

LOSSES = [LabelWiseLogisticLoss(), ExampleWiseLogisticLoss()]


def fd_gradient(loss, y, q):
    """Central finite differences of the loss value."""
    q = np.asarray(q, dtype=np.float64)
    grad = np.zeros_like(q)
    for k in range(q.size):
        step = np.zeros_like(q)
        step[k] = FD_STEP
        grad[k] = (loss.evaluate(y, q + step) - loss.evaluate(y, q - step)) / (2 * FD_STEP)
    return grad


def fd_hessian(loss, y, q):
    """Central finite differences of the analytic gradient."""
    q = np.asarray(q, dtype=np.float64)
    n = q.size
    hess = np.zeros((n, n))
    for j in range(n):
        step = np.zeros_like(q)
        step[j] = FD_STEP
        hess[:, j] = (loss.gradient(y, q + step) - loss.gradient(y, q - step)) / (2 * FD_STEP)
    return hess


# The points where expit underflows, overflows or changes regime.
EXPIT_EDGES = np.array([
    0.0, -0.0, 1e-300, -1e-300, 709.0, -709.0, 709.78, -709.78, 710.0, -710.0,
    745.0, -745.0, 1e308, -1e308,
])
EXPIT_GRID = np.concatenate([
    EXPIT_EDGES,
    np.linspace(-760.0, 760.0, 30001),
    np.geomspace(1e-300, 1e308, 3001),
    -np.geomspace(1e-300, 1e308, 3001),
])


def ulp_distance(actual, expected):
    # For nonnegative floats, adjacent values have adjacent bit patterns.
    assert (actual >= 0.0).all() and (expected >= 0.0).all()
    return np.abs(actual.view(np.int64) - expected.view(np.int64))


class TestExpit:
    """``losses.expit`` against ``scipy.special.expit``, which training used before."""

    def test_within_one_ulp_of_scipy_at_the_edges(self):
        assert ulp_distance(expit(EXPIT_EDGES), scipy_expit(EXPIT_EDGES)).max() <= 1

    def test_close_to_scipy_everywhere(self):
        # scipy evaluates the same formula with the C library's exp, which
        # differs from numpy's by one ulp at a few percent of the points; the
        # rounding of 1 + exp(-x) can turn that into up to three ulps of the
        # result.  Both stay as close to the exact value as each other.
        distance = ulp_distance(expit(EXPIT_GRID), scipy_expit(EXPIT_GRID))
        assert distance.max() <= 3, EXPIT_GRID[np.argmax(distance)]

    def test_label_wise_hessian_positive_wherever_scipys_is(self):
        q = EXPIT_GRID[:, None]
        y = np.ones_like(q)
        for sign in (1.0, -1.0):
            z = -sign * y * q
            ours = LabelWiseLogisticLoss().hessian_batch(sign * y, q)
            theirs = scipy_expit(z) * scipy_expit(-z)
            assert (ours[theirs > 0.0] > 0.0).all()
            # Down to |z| = 709 the tiny-curvature form stays positive.
            assert (ours[np.abs(z) <= 709.0] > 0.0).all()

    def test_no_runtime_warning(self):
        loss = LabelWiseLogisticLoss()
        q = EXPIT_GRID[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expit(EXPIT_GRID)
            expit(-EXPIT_GRID)
            loss.gradient_batch(np.ones_like(q), q)
            loss.hessian_batch(-np.ones_like(q), q)


class TestLabelWiseValues:
    loss = LabelWiseLogisticLoss()

    def test_zero_score_single_label(self):
        assert self.loss.evaluate([1.0], [0.0]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_additivity_over_labels(self):
        assert self.loss.evaluate([1.0, -1.0], [0.0, 0.0]) == pytest.approx(
            2.0 * math.log(2.0), abs=1e-12
        )

    def test_mixed_scores(self):
        expected = math.log1p(math.exp(-2.0)) + math.log1p(math.exp(1.0))
        assert self.loss.evaluate([1.0, 1.0], [2.0, -1.0]) == pytest.approx(expected, rel=1e-12)

    def test_gradient_at_zero(self):
        assert np.allclose(self.loss.gradient([1.0, -1.0], [0.0, 0.0]), [-0.5, 0.5])

    def test_gradient_saturates(self):
        grad = self.loss.gradient([1.0], [80.0])
        assert abs(grad[0]) < 1e-30

    def test_hessian_at_zero(self):
        assert np.allclose(self.loss.hessian([1.0, -1.0], [0.0, 0.0]), np.diag([0.25, 0.25]))

    def test_large_scores_do_not_overflow(self):
        value = self.loss.evaluate([1.0, -1.0], [-900.0, 900.0])
        assert np.isfinite(value)
        assert value == pytest.approx(1800.0, rel=1e-9)


class TestExampleWiseValues:
    loss = ExampleWiseLogisticLoss()

    def test_single_label_reduces_to_logistic(self):
        assert self.loss.evaluate([1.0], [0.0]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_two_labels_zero_scores(self):
        assert self.loss.evaluate([1.0, 1.0], [0.0, 0.0]) == pytest.approx(
            math.log(3.0), abs=1e-12
        )

    def test_confident_correct_prediction(self):
        expected = math.log1p(2.0 * math.exp(-10.0))
        assert self.loss.evaluate([1.0, -1.0], [10.0, -10.0]) == pytest.approx(
            expected, rel=1e-12
        )

    def test_gradient_at_zero(self):
        assert np.allclose(
            self.loss.gradient([1.0, 1.0], [0.0, 0.0]), [-1.0 / 3.0, -1.0 / 3.0]
        )

    def test_hessian_at_zero(self):
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 9.0
        assert np.allclose(self.loss.hessian([1.0, 1.0], [0.0, 0.0]), expected)

    def test_large_scores_do_not_overflow(self):
        value = self.loss.evaluate([1.0, 1.0], [-800.0, 0.0])
        assert np.isfinite(value)
        assert value == pytest.approx(800.0, rel=1e-9)


@pytest.mark.parametrize("loss", LOSSES, ids=lambda l: l.loss_id)
class TestDerivativeChecks:
    def test_gradient_matches_finite_differences(self, loss, rng):
        for _ in range(100):
            n_labels = int(rng.choice([1, 2, 3, 6]))
            y = rng.choice([-1.0, 1.0], size=n_labels)
            q = rng.uniform(-5.0, 5.0, size=n_labels)
            np.testing.assert_allclose(
                loss.gradient(y, q), fd_gradient(loss, y, q), rtol=1e-5, atol=1e-8
            )

    def test_hessian_matches_finite_differences(self, loss, rng):
        for _ in range(100):
            n_labels = int(rng.choice([1, 2, 3, 6]))
            y = rng.choice([-1.0, 1.0], size=n_labels)
            q = rng.uniform(-5.0, 5.0, size=n_labels)
            np.testing.assert_allclose(
                loss.hessian(y, q), fd_hessian(loss, y, q), rtol=1e-5, atol=1e-8
            )

    def test_hessian_is_symmetric(self, loss, rng):
        for _ in range(20):
            y = rng.choice([-1.0, 1.0], size=4)
            q = rng.uniform(-5.0, 5.0, size=4)
            hessian = loss.hessian(y, q)
            assert np.array_equal(hessian, hessian.T)

    def test_non_finite_scores_rejected(self, loss):
        with pytest.raises(ValueError):
            loss.evaluate([1.0, 1.0], [np.nan, 0.0])
        with pytest.raises(ValueError):
            loss.gradient([1.0, 1.0], [np.inf, 0.0])
        with pytest.raises(ValueError):
            loss.hessian([1.0, 1.0], [0.0, -np.inf])


class TestHessianStructure:
    def test_label_wise_hessian_exactly_diagonal(self, rng):
        loss = LabelWiseLogisticLoss()
        hessian = loss.hessian(rng.choice([-1.0, 1.0], 5), rng.uniform(-3, 3, 5))
        off = hessian - np.diag(np.diagonal(hessian))
        assert np.all(off == 0.0)

    def test_example_wise_has_off_diagonal_coupling(self, rng):
        loss = ExampleWiseLogisticLoss()
        hessian = loss.hessian(rng.choice([-1.0, 1.0], 3), rng.uniform(-3, 3, 3))
        off = hessian - np.diag(np.diagonal(hessian))
        assert np.any(off != 0.0)


class TestUpperBoundOnSubsetLoss:
    def test_example_wise_loss_bounds_scaled_error_indicator(self, rng):
        """Wrong sign decoding implies loss >= log 2; correct implies >= 0.

        The natural-log example-wise loss upper-bounds the subset 0/1
        indicator scaled by log 2 (the bound is exactly the indicator in
        base-2 logarithms), and the bound is tight at the decision border.
        """
        loss = ExampleWiseLogisticLoss()
        for _ in range(500):
            n_labels = int(rng.integers(1, 7))
            y = rng.choice([-1, 1], size=n_labels)
            q = rng.uniform(-4.0, 4.0, size=n_labels)
            wrong = float(np.any(predict_sign(q) != y))
            assert loss.evaluate(y.astype(float), q) >= math.log(2.0) * wrong - 1e-12


def _toy_dataset(labels):
    schema = AttributeSchema((Attribute("x", NUMERIC),))
    rows = [[float(i)] for i in range(len(labels))]
    return dataset_from_rows(schema, rows, np.asarray(labels, dtype=np.int8),
                             [f"l{k}" for k in range(len(labels[0]))])


class TestStore:
    def test_init_store_label_wise_closed_form(self):
        dataset = _toy_dataset([[1, -1], [-1, -1], [1, 1]])
        store = init_store(make_loss("label-wise-logistic"), dataset)
        assert store.diagonal
        assert np.all(store.hessians == 0.25)
        assert np.all(np.abs(store.gradients) == 0.5)
        assert np.array_equal(np.sign(store.gradients), -dataset.labels)

    def test_init_store_example_wise_closed_form(self):
        dataset = _toy_dataset([[1, -1], [-1, -1]])
        store = init_store(make_loss("example-wise-logistic"), dataset)
        assert not store.diagonal
        assert np.allclose(np.abs(store.gradients), 1.0 / 3.0)
        assert store.gradients.shape == (2, 2)
        assert store.hessians.shape == (2, 3)

    def test_store_dimensions(self):
        dataset = _toy_dataset([[1, -1, 1]] * 5)
        store = init_store(make_loss("label-wise-logistic"), dataset)
        assert store.gradients.shape == (5, 3)
        assert store.hessians.shape == (5, 3)

    def test_update_with_non_covering_rule_is_identity(self):
        dataset = _toy_dataset([[1, -1], [-1, 1]])
        loss = make_loss("label-wise-logistic")
        store = init_store(loss, dataset)
        before_g = store.gradients.copy()
        scores = np.zeros((2, 2))
        rule = Rule(Body((Condition(0, ">", 100.0),)), Head(np.array([5.0, 5.0])))
        update_store(store, loss, dataset, rule, scores)
        assert np.array_equal(store.gradients, before_g)
        assert np.all(scores == 0.0)

    def test_update_with_zero_head_is_identity(self):
        dataset = _toy_dataset([[1, -1], [-1, 1]])
        loss = make_loss("label-wise-logistic")
        store = init_store(loss, dataset)
        before_g = store.gradients.copy()
        before_h = store.hessians.copy()
        scores = np.zeros((2, 2))
        update_store(store, loss, dataset, Rule(Body(), Head(np.zeros(2))), scores)
        assert np.array_equal(store.gradients, before_g)
        assert np.array_equal(store.hessians, before_h)

    @pytest.mark.parametrize("loss_id", ["label-wise-logistic", "example-wise-logistic"])
    def test_incremental_update_equals_recomputation(self, loss_id, rng):
        """Oracle: recompute the store from the summed scores from scratch."""
        loss = make_loss(loss_id)
        labels = rng.choice([-1, 1], size=(30, 3)).astype(np.int8)
        dataset = _toy_dataset(labels.tolist())
        store = init_store(loss, dataset)
        scores = np.zeros((30, 3))
        for _ in range(6):
            threshold = float(rng.uniform(0, 30))
            operator = "<=" if rng.random() < 0.5 else ">"
            rule = Rule(
                Body((Condition(0, operator, threshold),)),
                Head(rng.normal(size=3)),
            )
            update_store(store, loss, dataset, rule, scores)
        fresh_g = loss.gradient_batch(labels.astype(float), scores)
        fresh_h = loss.hessian_batch(labels.astype(float), scores)
        if not store.diagonal:
            fresh_h = fresh_h[:, packed_indices(3)[0], packed_indices(3)[1]]
        np.testing.assert_allclose(store.gradients, fresh_g, rtol=0, atol=0)
        np.testing.assert_allclose(store.hessians, fresh_h, rtol=0, atol=0)

    def test_single_covered_example_gradient_matches_direct_call(self):
        dataset = _toy_dataset([[1, -1], [-1, 1], [1, 1]])
        loss = make_loss("label-wise-logistic")
        store = init_store(loss, dataset)
        scores = np.zeros((3, 2))
        head = np.array([0.7, -0.4])
        rule = Rule(Body((Condition(0, "<=", 0.5),)), Head(head))  # covers row 0 only
        update_store(store, loss, dataset, rule, scores)
        expected = loss.gradient([1.0, -1.0], head)
        np.testing.assert_allclose(store.gradients[0], expected, rtol=0, atol=0)
        assert np.all(store.gradients[1:] == init_store(loss, dataset).gradients[1:])


def _expected_table(loss, y, q):
    """The derivatives by their textbook formulas, a dense Hessian packed as its upper triangle.

    Label-wise: -y expit(-y q) and expit(z) expit(-z) with z = -y q.
    Example-wise: -y w and diag(w) - u u' with u = y w, the weights
    w_k = exp(z_k) / (1 + sum_j exp(z_j)) taken with a shifted exponential.
    """
    z = -y * q
    if loss.decomposable:
        return np.hstack([-y * expit(z), expit(z) * expit(-z)])
    shift = np.maximum(z.max(axis=1, keepdims=True), 0.0)
    ez = np.exp(z - shift)
    w = ez / (np.exp(-shift) + ez.sum(axis=1, keepdims=True))
    u = y * w
    hessians = -np.einsum("nj,nk->njk", u, u)
    diagonal = np.arange(y.shape[1])
    hessians[:, diagonal, diagonal] += w
    rows, columns = packed_indices(y.shape[1])
    return np.hstack([-y * w, hessians[:, rows, columns]])


def _extreme_scores(rng, shape):
    """Scores up to |q| = 745 mixed with moderate ones: weights down to about 1e-300 and 0."""
    q = rng.normal(0.0, 2.0, size=shape)
    extreme = rng.random(shape) < 0.4
    q[extreme] = rng.choice([-745.0, -709.0, -690.0, -600.0, 0.0, 600.0, 690.0, 709.0, 745.0],
                            size=int(extreme.sum()))
    return q


class TestDerivativeTable:
    """The store's one table holds the derivatives of the loss formulas bit for bit."""

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda loss: loss.loss_id)
    @pytest.mark.parametrize("n_labels", [1, 2, 6])
    def test_table_is_the_formula_derivatives(self, loss, n_labels, rng):
        y = rng.choice([-1.0, 1.0], size=(300, n_labels))
        for q in (rng.normal(0.0, 2.0, size=y.shape), _extreme_scores(rng, y.shape)):
            table = loss.derivative_table(y, q)
            assert table.flags.c_contiguous
            assert table.shape == (300, n_labels + (n_labels if loss.decomposable
                                                    else n_labels * (n_labels + 1) // 2))
            assert table.tobytes() == _expected_table(loss, y, q).tobytes()
        tiny = _extreme_scores(rng, y.shape)
        weights = np.abs(loss.derivative_table(y, tiny)[:, :n_labels])
        assert weights[weights > 0].min() < 1e-250

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda loss: loss.loss_id)
    def test_table_stays_exact_through_store_updates(self, loss, rng):
        labels = rng.choice([-1, 1], size=(80, 4)).astype(np.int8)
        dataset = _toy_dataset(labels.tolist())
        store = init_store(loss, dataset)
        scores = np.zeros((80, 4))
        # Each label's scores drift one way, through |q| = 745 and beyond.
        signs = np.array([1.0, -1.0, 1.0, -1.0])
        for _ in range(12):
            operator = "<=" if rng.random() < 0.5 else ">"
            rule = Rule(Body((Condition(0, operator, float(rng.uniform(0, 80))),)),
                        Head(signs * rng.uniform(0.0, 150.0, size=4)))
            update_store(store, loss, dataset, rule, scores)
            assert store.table.flags.c_contiguous
            expected = _expected_table(loss, labels.astype(float), scores)
            assert store.table.tobytes() == expected.tobytes()
        assert np.abs(scores).max() > 700.0

    @pytest.mark.parametrize("loss", LOSSES, ids=lambda loss: loss.loss_id)
    @pytest.mark.parametrize("n_labels", [1, 2, 6])
    def test_table_written_into_out_equals_a_fresh_one(self, loss, n_labels, rng):
        y = rng.choice([-1.0, 1.0], size=(300, n_labels))
        width = n_labels + (n_labels if loss.decomposable else n_labels * (n_labels + 1) // 2)
        # A buffer with more rows than the batch, holding earlier values and NaNs.
        buffer = np.full((400, width), np.nan)
        for q in (rng.normal(0.0, 2.0, size=y.shape), _extreme_scores(rng, y.shape)):
            out = buffer[:300]
            written = loss.derivative_table(y, q, out=out)
            assert written is out
            assert out.tobytes() == loss.derivative_table(y, q).tobytes()
        assert np.isnan(buffer[300:]).all()
