"""Head solver: closed forms, linear systems, objectives and their invariants."""

import numpy as np
import pytest
from scipy.optimize import minimize

from ruleboost.dataset import NUMERIC, Attribute, AttributeSchema, Dataset
from ruleboost.errors import SolverError
from ruleboost.heads import (
    HEAD_MULTI,
    HEAD_SINGLE,
    AggregatedStats,
    aggregate_stats,
    find_head,
    objective_value,
    score_heads,
    solve_full_head,
    solve_heads,
    stats_for_rows,
)
from ruleboost.losses import (
    ExampleWiseLogisticLoss,
    ScanWorkspace,
    init_store,
    make_loss,
    packed_indices,
    unpack_hessians,
)
from ruleboost.rules import Body, Condition, Head

from conftest import dataset_from_rows


def diag_stats(g, h, count=1):
    return AggregatedStats(np.asarray(g, float), np.asarray(h, float), True, count)


def dense_stats(g, h, count=1):
    return AggregatedStats(np.asarray(g, float), np.asarray(h, float), False, count)


def random_spd_stats(rng, n_labels):
    """Realistic dense stats: summed example-wise Hessians are SPD."""
    loss = ExampleWiseLogisticLoss()
    n = int(rng.integers(2, 8))
    y = rng.choice([-1.0, 1.0], size=(n, n_labels))
    q = rng.uniform(-3.0, 3.0, size=(n, n_labels))
    g = loss.gradient_batch(y, q).sum(axis=0)
    h = loss.hessian_batch(y, q).sum(axis=0)
    return dense_stats(g, h, count=n)


class TestSolveFullHead:
    def test_scalar_closed_form(self):
        head = solve_full_head(diag_stats([-0.5], [0.25]), 0.0)
        assert head.scores == pytest.approx([2.0])

    def test_regularized_closed_form(self):
        head = solve_full_head(diag_stats([-0.5, 0.5], [0.25, 0.25]), 1.0)
        assert head.scores == pytest.approx([0.4, -0.4])

    def test_two_label_coupled_system(self):
        g = np.array([-1.0 / 3.0, -1.0 / 3.0])
        h = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 9.0
        head = solve_full_head(dense_stats(g, h), 0.0)
        assert head.scores == pytest.approx([3.0, 3.0], abs=1e-12)
        # Cross-check against direct numeric minimization of the objective.
        res = minimize(lambda p: g @ p + 0.5 * p @ h @ p, np.zeros(2), method="BFGS")
        assert head.scores == pytest.approx(res.x, abs=1e-5)

    def test_singular_system_raises(self):
        with pytest.raises(SolverError):
            solve_full_head(dense_stats(np.array([1.0, 1.0]), np.zeros((2, 2))), 0.0)
        with pytest.raises(SolverError):
            solve_full_head(diag_stats([1.0], [0.0]), 0.0)

    def test_dense_solve_matches_diagonal_closed_form(self, rng):
        """Linear-system route vs per-label closed form on diagonal stats."""
        for _ in range(200):
            n_labels = int(rng.integers(1, 7))
            g = rng.uniform(-2.0, 2.0, size=n_labels)
            h = rng.uniform(0.05, 3.0, size=n_labels)
            l2 = float(rng.choice([0.0, 0.25, 1.0, 4.0]))
            via_system = solve_full_head(dense_stats(g, np.diag(h)), l2)
            via_closed_form = solve_full_head(diag_stats(g, h), l2)
            np.testing.assert_allclose(
                via_system.scores, via_closed_form.scores, rtol=0, atol=1e-10
            )

    def test_solution_residual_small(self, rng):
        for _ in range(100):
            stats = random_spd_stats(rng, n_labels=int(rng.integers(2, 6)))
            l2 = float(rng.choice([0.25, 1.0]))
            head = solve_full_head(stats, l2)
            system = stats.hessian + l2 * np.eye(stats.n_labels)
            residual = system @ head.scores + stats.gradient
            assert np.max(np.abs(residual)) < 1e-8

    def test_l2_weight_monotonically_shrinks_solution(self, rng):
        for _ in range(50):
            stats = random_spd_stats(rng, n_labels=3)
            norms = [
                np.linalg.norm(solve_full_head(stats, l2).scores)
                for l2 in (0.0, 0.25, 1.0, 4.0, 16.0, 64.0)
            ]
            assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


class TestSolveSingleLabelHead:
    def test_picks_label_with_best_objective(self):
        head = find_head(diag_stats([-0.5, -0.1], [0.25, 0.25]), 0.0, HEAD_SINGLE)
        assert head.label_index == 0
        assert head.scores == pytest.approx([2.0, 0.0])

    def test_fixed_label_constrains_choice(self):
        head = find_head(
            diag_stats([-0.5, -0.1], [0.25, 0.25]), 0.0, HEAD_SINGLE, fixed_label=1
        )
        assert head.label_index == 1
        assert head.scores == pytest.approx([0.0, 0.4])

    def test_zero_gradients_tie_break_to_lowest_index(self):
        head = find_head(diag_stats([0.0, 0.0], [0.25, 0.25]), 0.0, HEAD_SINGLE)
        assert head.label_index == 0
        assert np.all(head.scores == 0.0)

    def test_all_degenerate_candidates_raise(self):
        with pytest.raises(SolverError):
            find_head(diag_stats([0.4, 0.2], [0.0, 0.0]), 0.0, HEAD_SINGLE)

    def test_uses_diagonal_for_dense_stats(self, rng):
        stats = random_spd_stats(rng, n_labels=4)
        head = find_head(stats, 0.5, HEAD_SINGLE)
        k = head.label_index
        expected = -stats.gradient[k] / (stats.hessian[k, k] + 0.5)
        assert head.scores[k] == pytest.approx(expected, rel=1e-12)

    def test_chosen_label_attains_minimum_objective(self, rng):
        """Independent re-evaluation over all single-label candidates."""
        for _ in range(100):
            n_labels = int(rng.integers(1, 7))
            g = rng.uniform(-2.0, 2.0, size=n_labels)
            h = rng.uniform(0.05, 3.0, size=n_labels)
            l2 = float(rng.choice([0.0, 0.25, 1.0]))
            head = find_head(diag_stats(g, h), l2, HEAD_SINGLE)
            objectives = []
            for k in range(n_labels):
                p = -g[k] / (h[k] + l2)
                objectives.append(g[k] * p + 0.5 * (h[k] + l2) * p * p)
            assert objective_value(diag_stats(g, h), head, l2) == pytest.approx(
                min(objectives), rel=1e-12, abs=1e-15
            )


class TestObjectiveValue:
    def test_zero_head_objective_is_zero(self):
        stats = diag_stats([0.3, -0.2], [0.5, 0.5])
        assert objective_value(stats, Head(np.zeros(2)), 1.0) == 0.0

    def test_hand_computed_value(self):
        stats = diag_stats([-0.5], [0.25])
        assert objective_value(stats, Head(np.array([2.0])), 0.0) == pytest.approx(-0.5)

    def test_optimal_head_beats_perturbations(self, rng):
        for _ in range(50):
            stats = random_spd_stats(rng, n_labels=3)
            l2 = float(rng.choice([0.0, 0.25, 1.0]))
            head = solve_full_head(stats, l2)
            best = objective_value(stats, head, l2)
            for _ in range(10):
                noisy = Head(head.scores + rng.normal(scale=0.1, size=3))
                assert best <= objective_value(stats, noisy, l2) + 1e-12


class TestAggregateStats:
    def _dataset(self):
        schema = AttributeSchema((Attribute("x", NUMERIC),))
        labels = np.array([[1, -1], [-1, 1], [1, 1], [-1, -1], [1, -1]], dtype=np.int8)
        rows = [[float(i)] for i in range(5)]
        return dataset_from_rows(schema, rows, labels, ["l0", "l1"])

    def test_empty_coverage_gives_zero_stats(self):
        dataset = self._dataset()
        store = init_store(make_loss("label-wise-logistic"), dataset)
        stats = aggregate_stats(store, Body((Condition(0, ">", 99.0),)), dataset)
        assert stats.count == 0
        assert np.all(stats.gradient == 0.0)
        assert np.all(stats.hessian == 0.0)

    def test_single_covered_example(self):
        dataset = self._dataset()
        store = init_store(make_loss("example-wise-logistic"), dataset)
        stats = aggregate_stats(store, Body((Condition(0, "<=", 0.0),)), dataset)
        assert stats.count == 1
        np.testing.assert_array_equal(stats.gradient, store.gradients[0])
        np.testing.assert_array_equal(stats.hessian, unpack_hessians(store.hessians[:1], 2)[0])

    def test_partial_coverage_brute_force_sum(self):
        dataset = self._dataset()
        store = init_store(make_loss("label-wise-logistic"), dataset)
        body = Body((Condition(0, "<=", 2.0),))  # covers rows 0..2
        stats = aggregate_stats(store, body, dataset)
        assert stats.count == 3
        np.testing.assert_allclose(stats.gradient, store.gradients[:3].sum(axis=0))
        np.testing.assert_allclose(stats.hessian, store.hessians[:3].sum(axis=0))

    @pytest.mark.parametrize("loss_id", ["label-wise-logistic", "example-wise-logistic"])
    @pytest.mark.parametrize("n_labels", [1, 2, 6])
    def test_sums_are_those_of_the_gradients_and_the_hessians(self, loss_id, n_labels, rng):
        # numpy sums a lone column pairwise and several row by row; the
        # statistics must still be the plain sums of each part, at l = 1 too.
        n = 3000
        schema = AttributeSchema((Attribute("x", NUMERIC),))
        labels = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, n_labels))
        dataset = Dataset(schema, [np.arange(n, dtype=float)], labels,
                          [f"l{k}" for k in range(n_labels)])
        loss = make_loss(loss_id)
        store = init_store(loss, dataset)
        store.recompute(loss, labels, rng.normal(0.0, 3.0, size=(n, n_labels)))
        rows = rng.integers(0, n, size=n)
        hessian = store.hessians[rows].sum(axis=0)
        if not store.diagonal:
            hessian = unpack_hessians(hessian[None], n_labels)[0]
        stats = stats_for_rows(store, rows)
        assert stats.gradient.tobytes() == store.gradients[rows].sum(axis=0).tobytes()
        assert stats.hessian.tobytes() == hessian.tobytes()

    def test_sample_multiplicity_counts(self):
        dataset = self._dataset()
        store = init_store(make_loss("label-wise-logistic"), dataset)
        stats = stats_for_rows(store, [0, 0, 3])
        expected = 2 * store.gradients[0] + store.gradients[3]
        np.testing.assert_allclose(stats.gradient, expected)
        assert stats.count == 3


class TestFindHeadDispatch:
    def test_multi_mode_full_head(self):
        head = find_head(diag_stats([-0.5, 0.5], [0.25, 0.25]), 0.0, "multi")
        assert head.label_index is None
        assert head.scores == pytest.approx([2.0, -2.0])

    def test_single_mode_single_head(self):
        head = find_head(diag_stats([-0.5, 0.5], [0.25, 0.25]), 0.0, "single")
        assert head.label_index in (0, 1)
        assert np.count_nonzero(head.scores) == 1

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            find_head(diag_stats([0.0], [1.0]), 0.0, "both")


def random_spd_batch(rng, n_candidates, n_labels):
    """Gradients and packed Hessians of well-conditioned SPD systems, plus the full Hessians."""
    factors = rng.normal(size=(n_candidates, n_labels, n_labels))
    full = factors @ factors.transpose(0, 2, 1) / n_labels + 0.1 * np.eye(n_labels)
    # Symmetric to the last bit, as summed Hessians are.
    full = 0.5 * (full + full.transpose(0, 2, 1))
    rows, columns = packed_indices(n_labels)
    return rng.normal(size=(n_candidates, n_labels)), full[:, rows, columns], full


class TestScoreHeads:
    """The scorer returns the objectives solve_heads reaches, without solving heads."""

    def test_an_unknown_head_mode_is_rejected(self, rng):
        g, packed, _ = random_spd_batch(rng, 2, 3)
        with pytest.raises(ValueError, match="^unknown head mode 'both'$"):
            score_heads(g, packed, False, 0.0, "both", workspace=ScanWorkspace())

    @pytest.mark.parametrize("l2", [0.0, 0.25, 1.0])
    def test_cholesky_matches_lu(self, rng, l2):
        for n_labels in range(1, 81):
            g, packed, full = random_spd_batch(rng, 5, n_labels)
            scored, labels = score_heads(g, packed, False, l2, HEAD_MULTI,
                                         workspace=ScanWorkspace())
            solved, _, _ = solve_heads(g, full, False, l2, HEAD_MULTI)
            assert labels is None
            np.testing.assert_allclose(scored, solved, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("head_mode", [HEAD_SINGLE, HEAD_MULTI])
    def test_diagonal_scores_are_the_solve_heads_objectives(self, rng, head_mode):
        g = rng.uniform(-2.0, 2.0, size=(200, 4))
        h = rng.uniform(0.05, 3.0, size=(200, 4))
        for l2 in (0.0, 0.25, 1.0):
            scored, labels = score_heads(g, h, True, l2, head_mode, workspace=ScanWorkspace())
            solved, _, solved_labels = solve_heads(g, h, True, l2, head_mode)
            np.testing.assert_array_equal(scored, solved)
            np.testing.assert_array_equal(labels, solved_labels)

    @pytest.mark.parametrize("fixed_label", [None, 2])
    def test_single_label_heads_on_packed_statistics_read_the_diagonal(self, rng, fixed_label):
        g, packed, full = random_spd_batch(rng, 200, 4)
        # A Hessian diagonal entry of 0 leaves label 1 of candidate 0 without
        # a head at l2 = 0.
        full[0, 1, 1] = packed[0, 4] = 0.0
        diagonal = full.diagonal(axis1=1, axis2=2)
        for l2 in (0.0, 0.25, 1.0):
            scored, labels = score_heads(g, packed, False, l2, HEAD_SINGLE, fixed_label,
                                         workspace=ScanWorkspace())
            expected, expected_labels = score_heads(g, diagonal, True, l2, HEAD_SINGLE,
                                                    fixed_label, workspace=ScanWorkspace())
            solved, _, solved_labels = solve_heads(g, full, False, l2, HEAD_SINGLE, fixed_label)
            np.testing.assert_array_equal(scored, expected)
            np.testing.assert_array_equal(labels, expected_labels)
            np.testing.assert_array_equal(scored, solved)
            np.testing.assert_array_equal(labels, solved_labels)
        if fixed_label is None:
            assert len(set(labels.tolist())) > 1
        else:
            assert (labels == fixed_label).all()

    def test_zero_pivot_scores_inf(self):
        # A zero pivot means a singular system, which has no head.
        g = np.array([[1.0, -1.0], [1.0, -1.0], [0.5, 0.5]])
        full = np.array([np.ones((2, 2)), np.zeros((2, 2)), np.eye(2)])
        rows, columns = packed_indices(2)
        scored, _ = score_heads(g, full[:, rows, columns], False, 0.0, HEAD_MULTI,
                                workspace=ScanWorkspace())
        assert scored[0] == np.inf
        assert scored[1] == np.inf
        assert scored[2] == pytest.approx(-0.25)
        diagonal, _ = score_heads(g[:, :1], np.array([[1.0], [0.0], [-1e-300]]), True, 0.0,
                                  HEAD_MULTI, workspace=ScanWorkspace())
        assert diagonal[0] == pytest.approx(-0.5)
        assert diagonal[1] == diagonal[2] == np.inf

    def test_nearly_singular_candidate_scores_inf_on_both_paths(self):
        # The system of TestNearlySingularCandidates in test_induction.py: a
        # plain Cholesky scores it about -2e173, so it would win every step.
        g = np.array([1e-3, -1e-3])
        nearly_singular = 1e-170 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]])
        full = np.array([nearly_singular, np.eye(2)])
        rows, columns = packed_indices(2)
        scored, _ = score_heads(np.array([g, g]), full[:, rows, columns], False, 0.0, HEAD_MULTI,
                                workspace=ScanWorkspace())
        solved, _, _ = solve_heads(np.array([g, g]), full, False, 0.0, HEAD_MULTI)
        assert scored[0] == solved[0] == np.inf
        assert scored[1] == pytest.approx(-0.5 * (g @ g))

    def test_a_candidate_scores_the_same_alone_and_in_a_batch(self, rng):
        g, packed, _ = random_spd_batch(rng, 30, 5)
        # Candidate 7 takes the LU fallback at l2 = 0: its second pivot is
        # 1e-10 of its diagonal entry, yet LU solves it.
        nearly_singular = np.eye(5)
        nearly_singular[:2, :2] = [[1.0, 1.0], [1.0, 1.0 + 1e-10]]
        packed[7] = nearly_singular[packed_indices(5)]
        for l2 in (0.0, 1.0):
            batch, _ = score_heads(g, packed, False, l2, HEAD_MULTI, workspace=ScanWorkspace())
            assert np.isfinite(batch).all()
            for i in range(len(g)):
                alone, _ = score_heads(g[i:i + 1], packed[i:i + 1], False, l2, HEAD_MULTI,
                                       workspace=ScanWorkspace())
                assert alone[0] == batch[i]
        # A refinement step's table mixes attributes, so one batch can hold
        # regular, weak-pivot and singular candidates at once; the LU
        # fallback then runs on its weak subset, which no longer solves as
        # one stack and is solved candidate by candidate.
        mixed = packed.copy()
        mixed[[3, 11]] = nearly_singular[packed_indices(5)]
        singular = np.eye(5)
        singular[:2, :2] = 1.0
        mixed[[5, 19]] = singular[packed_indices(5)]
        batch, _ = score_heads(g, mixed, False, 0.0, HEAD_MULTI, workspace=ScanWorkspace())
        assert np.isfinite(np.delete(batch, [5, 19])).all()
        assert batch[5] == batch[19] == np.inf
        for i in range(len(g)):
            alone, _ = score_heads(g[i:i + 1], mixed[i:i + 1], False, 0.0, HEAD_MULTI,
                                   workspace=ScanWorkspace())
            assert alone[0] == batch[i]
        diagonal = np.abs(packed[:, :5])
        for head_mode in (HEAD_SINGLE, HEAD_MULTI):
            batch, _ = score_heads(g, diagonal, True, 0.5, head_mode, workspace=ScanWorkspace())
            for i in range(len(g)):
                alone, _ = score_heads(g[i:i + 1], diagonal[i:i + 1], True, 0.5, head_mode,
                                       workspace=ScanWorkspace())
                assert alone[0] == batch[i]
