"""Score decoding and evaluation metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ruleboost import prediction
from ruleboost.losses import ExampleWiseLogisticLoss
from ruleboost.metrics import example_based_f1, hamming_loss, subset_zero_one_loss
from ruleboost.prediction import (
    decode_scores,
    default_decode_method,
    predict_known_vectors,
    predict_sign,
)

label_matrices = arrays(
    np.int8,
    st.tuples(st.integers(1, 8), st.integers(1, 5)),
    elements=st.sampled_from([-1, 1]),
)


class TestPredictSign:
    def test_basic_signs(self):
        assert predict_sign(np.array([0.3, -0.2])).tolist() == [1, -1]

    def test_zero_maps_to_negative(self):
        assert predict_sign(np.array([0.0, 0.0])).tolist() == [-1, -1]

    def test_strict_positivity(self):
        assert predict_sign(np.array([1e-12, -1e-12])).tolist() == [1, -1]

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            predict_sign(np.array([np.nan, 1.0]))

    @given(
        # A subnormal score can underflow to 0 when scaled (5e-324 * 0.5).
        arrays(np.float64, st.integers(1, 6), elements=st.floats(-100, 100, allow_subnormal=False)),
        st.floats(0.001, 1000),
    )
    def test_scale_invariance(self, scores, factor):
        assert np.array_equal(predict_sign(scores * factor), predict_sign(scores))


class TestPredictKnownVector:
    def test_picks_loss_minimizing_candidate(self):
        candidates = np.array([[1, 1], [-1, -1]], dtype=np.int8)
        chosen = predict_known_vectors(np.array([[2.0, 1.0]]), candidates)[0]
        loss = ExampleWiseLogisticLoss()
        values = [loss.evaluate(c.astype(float), [2.0, 1.0]) for c in candidates]
        assert values[0] < values[1]
        assert chosen.tolist() == [1, 1]

    def test_single_candidate_returned(self):
        candidates = np.array([[-1, 1]], dtype=np.int8)
        assert predict_known_vectors(np.array([[5.0, -5.0]]), candidates)[0].tolist() == [-1, 1]

    def test_tie_breaks_by_first_occurrence(self):
        candidates = np.array([[1, -1], [-1, 1]], dtype=np.int8)
        chosen = predict_known_vectors(np.array([[0.0, 0.0]]), candidates)[0]
        assert chosen.tolist() == [1, -1]

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            predict_known_vectors(np.array([[1.0]]), np.empty((0, 1)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        candidates = np.array([[1, -1], [-1, 1]], dtype=np.int8)
        with pytest.raises(ValueError, match="finite"):
            predict_known_vectors(np.array([[0.5, 0.5], [bad, -1.0]]), candidates)

    def test_returns_member_of_candidate_set(self, rng):
        for _ in range(50):
            n_labels = int(rng.integers(1, 5))
            candidates = rng.choice([-1, 1], size=(int(rng.integers(1, 6)), n_labels))
            scores = rng.normal(size=(7, n_labels))
            predicted = predict_known_vectors(scores, candidates)
            rows = {tuple(r) for r in candidates.tolist()}
            assert all(tuple(p) in rows for p in predicted.tolist())

    def test_batch_matches_argmin_of_loss(self, rng):
        loss = ExampleWiseLogisticLoss()
        candidates = rng.choice([-1, 1], size=(5, 3))
        scores = rng.normal(size=(20, 3))
        predicted = predict_known_vectors(scores, candidates)
        for i in range(20):
            values = [loss.evaluate(c.astype(float), scores[i]) for c in candidates]
            assert predicted[i].tolist() == candidates[int(np.argmin(values))].tolist()


def log_domain_known_vectors(scores, candidates):
    """Reference decoder: every candidate's example-wise logistic loss in the log domain.

    Allocates (n, n_candidates, n_labels); the first minimum wins.
    """
    z = -scores[:, None, :] * candidates[None, :, :]
    shift = np.maximum(z.max(axis=2), 0.0)
    losses = shift + np.log(np.exp(-shift) + np.exp(z - shift[:, :, None]).sum(axis=2))
    return candidates[np.argmin(losses, axis=1)]


def all_label_vectors(n_labels, rng):
    codes = rng.permutation(2**n_labels)
    return np.where((codes[:, None] >> np.arange(n_labels)) & 1, 1, -1).astype(np.int8)


class TestKnownVectorsAgainstLogDomain:
    def assert_agrees(self, scores, candidates):
        expected = log_domain_known_vectors(scores, candidates.astype(np.float64))
        np.testing.assert_array_equal(predict_known_vectors(scores, candidates), expected)

    def test_random_scores(self, rng):
        for _ in range(50):
            n_labels = int(rng.integers(1, 8))
            candidates = all_label_vectors(n_labels, rng)[: int(rng.integers(1, 40))]
            scores = rng.normal(scale=rng.choice([1e-3, 1.0, 10.0]), size=(200, n_labels))
            self.assert_agrees(scores, candidates)

    def test_repeated_candidates_and_rounded_scores_tie_like_the_log_domain(self, rng):
        for _ in range(50):
            n_labels = int(rng.integers(1, 5))
            candidates = rng.choice([-1, 1], size=(int(rng.integers(1, 12)), n_labels))
            self.assert_agrees(np.round(rng.normal(size=(100, n_labels))), candidates)

    def test_all_zero_scores_pick_the_first_vector(self, rng):
        candidates = all_label_vectors(4, rng)
        predicted = predict_known_vectors(np.zeros((5, 4)), candidates)
        assert (predicted == candidates[0]).all()
        self.assert_agrees(np.zeros((5, 4)), candidates)

    def test_large_scores_where_terms_underflow(self, rng):
        candidates = all_label_vectors(5, rng)
        for scale in (100.0, 400.0, 1e3):
            self.assert_agrees(rng.uniform(-scale, scale, size=(300, 5)), candidates)
        # One label near 740 pushes every other term into subnormal numbers.
        # There, two candidates that differ on three small labels can round
        # into the wrong order by a whole unit, far beyond any relative gap.
        scores = rng.uniform(-1.5, 1.5, size=(3000, 4))
        scores[:, 0] = rng.uniform(738.0, 746.0, size=3000)
        self.assert_agrees(scores, np.array([[1, 1, 1, -1], [1, -1, -1, 1]]))

    def test_huge_scores_where_the_log_domain_rounds(self, rng):
        # At |q| = 1e7 the log-domain losses round to steps of 2e-9, so two
        # candidates 1.5e-9 apart can tie there and go to the first one.
        offset = rng.uniform(0.5, 2.0, size=1000)
        scores = np.column_stack([
            np.full(1000, 1e7), 1e7 - offset, 1e7 - offset - rng.uniform(-2e-8, 2e-8, 1000)
        ])
        self.assert_agrees(scores, np.array([[-1, -1, 1], [-1, 1, -1]]))

    def test_chunk_boundaries_inside_the_input(self, rng, monkeypatch):
        candidates = all_label_vectors(3, rng)
        scores = rng.normal(size=(101, 3))
        scores[40:60] = 0.0  # ties on both sides of a boundary
        monkeypatch.setattr(prediction, "_CHUNK_CELLS", 7 * len(candidates))
        self.assert_agrees(scores, candidates)

    def test_candidate_entries_must_be_signs(self):
        with pytest.raises(ValueError):
            predict_known_vectors(np.zeros((1, 2)), np.array([[1, 0]]))


class TestDecodeDispatch:
    def test_default_methods_per_loss(self):
        assert default_decode_method("label-wise-logistic") == "sign"
        assert default_decode_method("example-wise-logistic") == "known-vectors"

    def test_known_vectors_requires_candidates(self):
        with pytest.raises(ValueError):
            decode_scores(np.zeros((2, 2)), "known-vectors")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            decode_scores(np.zeros((2, 2)), "argmax")


class TestHammingLoss:
    def test_perfect_prediction(self):
        y = np.array([[1, -1], [-1, 1]])
        assert hamming_loss(y, y) == 0.0

    def test_everything_wrong(self):
        y = np.array([[1, -1], [-1, 1]])
        assert hamming_loss(y, -y) == 1.0

    def test_partial(self):
        y = np.array([[1, -1, 1], [-1, 1, 1]])
        p = np.array([[1, 1, 1], [-1, 1, -1]])
        assert hamming_loss(y, p) == pytest.approx(1.0 / 3.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            hamming_loss(np.ones((2, 2)), np.ones((2, 3)))


class TestSubsetZeroOneLoss:
    def test_perfect_prediction(self):
        y = np.array([[1, -1], [-1, 1]])
        assert subset_zero_one_loss(y, y) == 0.0

    def test_one_wrong_label_per_row(self):
        y = np.array([[1, -1], [-1, 1]])
        p = np.array([[1, 1], [1, 1]])
        assert subset_zero_one_loss(y, p) == 1.0

    def test_quarter(self):
        y = np.ones((4, 3), dtype=int)
        p = y.copy()
        p[1, 2] = -1
        assert subset_zero_one_loss(y, p) == 0.25


class TestExampleBasedF1:
    def test_perfect_prediction_non_empty_rows(self):
        y = np.array([[1, -1], [1, 1]])
        assert example_based_f1(y, y) == 1.0

    def test_half_overlap(self):
        y = np.array([[-1, 1, 1, -1]])
        p = np.array([[-1, -1, 1, 1]])
        assert example_based_f1(y, p) == pytest.approx(0.5)

    def test_both_empty_positive_sets_score_one(self):
        y = np.array([[-1, -1]])
        assert example_based_f1(y, y) == 1.0

    def test_one_empty_side_scores_zero(self):
        y = np.array([[-1, -1]])
        p = np.array([[1, -1]])
        assert example_based_f1(y, p) == 0.0


class TestMetricProperties:
    @given(label_matrices, st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_joint_zero_equivalence(self, y_true, random):
        """subset 0/1 is zero exactly when Hamming is zero."""
        y_pred = y_true.copy()
        if random.random() < 0.5:
            i = random.randrange(y_true.shape[0])
            k = random.randrange(y_true.shape[1])
            y_pred[i, k] = -y_pred[i, k]
        hamming = hamming_loss(y_true, y_pred)
        subset = subset_zero_one_loss(y_true, y_pred)
        assert (hamming == 0.0) == (subset == 0.0)

    @given(label_matrices, label_matrices.map(np.asarray))
    @settings(max_examples=60, deadline=None)
    def test_metrics_in_unit_interval(self, y_true, other):
        y_pred = other[: y_true.shape[0], : y_true.shape[1]]
        if y_pred.shape != y_true.shape:
            y_pred = y_true
        for metric in (hamming_loss, subset_zero_one_loss, example_based_f1):
            assert 0.0 <= metric(y_true, y_pred) <= 1.0

    def test_permutation_invariance(self, rng):
        y = rng.choice([-1, 1], size=(30, 4))
        p = rng.choice([-1, 1], size=(30, 4))
        order = rng.permutation(30)
        for metric in (hamming_loss, subset_zero_one_loss, example_based_f1):
            assert metric(y, p) == pytest.approx(metric(y[order], p[order]))

    def test_joint_zero_equivalence_random_pairs(self, rng):
        for _ in range(1000):
            shape = (int(rng.integers(1, 6)), int(rng.integers(1, 5)))
            y = rng.choice([-1, 1], size=shape)
            p = np.where(rng.random(shape) < 0.3, -y, y)
            assert (hamming_loss(y, p) == 0.0) == (subset_zero_one_loss(y, p) == 0.0)
