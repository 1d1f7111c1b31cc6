"""Rule, body and ensemble semantics."""

import numpy as np
import pytest

from ruleboost.dataset import (
    MISSING_CODE,
    NOMINAL,
    NUMERIC,
    Attribute,
    AttributeSchema,
    Dataset,
    Example,
)
from ruleboost.errors import SchemaError
from ruleboost.rules import (
    Body,
    Condition,
    Ensemble,
    EnsembleMeta,
    Head,
    Rule,
    aggregate,
    apply_rule,
    body_mask,
    condition_mask,
    covers,
    ensemble_scores,
)

from conftest import random_dataset


SCHEMA = AttributeSchema(
    (
        Attribute("a", NUMERIC),
        Attribute("b", NOMINAL, ("a", "b")),
    )
)


def make_example(x, s):
    return Example((x, s))


class TestCovers:
    def test_empty_body_covers_everything(self):
        assert covers(Body(), make_example(0.3, "b"))

    def test_single_numeric_condition(self):
        body = Body((Condition(0, "<=", 0.5),))
        assert covers(body, make_example(0.3, "a"))
        assert not covers(body, make_example(0.7, "a"))

    def test_conjunction_fails_on_one_condition(self):
        body = Body((Condition(0, "<=", 0.5), Condition(1, "==", "a")))
        assert not covers(body, make_example(0.3, "b"))
        assert covers(body, make_example(0.3, "a"))

    def test_missing_value_satisfies_nothing(self):
        leq = Body((Condition(0, "<=", 0.5),))
        gt = Body((Condition(0, ">", 0.5),))
        example = make_example(None, "a")
        assert not covers(leq, example)
        assert not covers(gt, example)
        assert not covers(Body((Condition(1, "!=", "a"),)), make_example(0.1, None))

    def test_type_mismatch_raises_schema_error(self):
        with pytest.raises(SchemaError):
            covers(Body((Condition(1, "<=", 0.5),)), make_example(0.3, "a"))
        with pytest.raises(SchemaError):
            covers(Body((Condition(0, "==", "a"),)), make_example(0.3, "a"))


class TestApplyAggregate:
    def test_apply_covered(self):
        rule = Rule(Body(), Head(np.array([0.5, -0.2])))
        assert np.array_equal(apply_rule(rule, make_example(0.0, "a")), [0.5, -0.2])

    def test_apply_uncovered_is_null_vector(self):
        rule = Rule(Body((Condition(0, ">", 1.0),)), Head(np.array([0.5, -0.2])))
        assert np.array_equal(apply_rule(rule, make_example(0.0, "a")), [0.0, 0.0])

    def test_apply_single_label_head(self):
        rule = Rule(Body(), Head(np.array([0.0, 0.7, 0.0]), label_index=1))
        assert np.array_equal(apply_rule(rule, Example((0.0, "a"))), [0.0, 0.7, 0.0])

    def _ensemble(self, rules):
        return Ensemble(
            rules=rules,
            label_names=["l0", "l1"],
            schema=SCHEMA,
            meta=EnsembleMeta("label-wise-logistic", 1.0, 0.0, 0),
        )

    def test_aggregate_default_only(self):
        ensemble = self._ensemble([Rule(Body(), Head(np.array([0.1, -0.1])))])
        assert np.allclose(aggregate(ensemble, make_example(0.0, "a")), [0.1, -0.1])

    def test_aggregate_sums_covered_rules(self):
        ensemble = self._ensemble(
            [
                Rule(Body(), Head(np.array([0.1, -0.1]))),
                Rule(Body((Condition(0, "<=", 0.5),)), Head(np.array([0.2, 0.0]))),
            ]
        )
        assert np.allclose(aggregate(ensemble, make_example(0.3, "a")), [0.3, -0.1])

    def test_aggregate_ignores_uncovered_rules(self):
        ensemble = self._ensemble(
            [
                Rule(Body(), Head(np.array([0.1, -0.1]))),
                Rule(Body((Condition(0, ">", 0.5),)), Head(np.array([9.0, 9.0]))),
            ]
        )
        assert np.allclose(aggregate(ensemble, make_example(0.3, "a")), [0.1, -0.1])

    def test_aggregate_equals_sum_of_rule_applications(self, rng):
        """Random rules on a random dataset: vector sum identity."""
        dataset = random_dataset(rng, 40, n_numeric=2, n_nominal=1, n_labels=3,
                                 missing_rate=0.1)
        rules = [Rule(Body(), Head(rng.normal(size=3)))]
        for _ in range(8):
            conds = []
            for _ in range(rng.integers(1, 3)):
                attr = int(rng.integers(0, 3))
                if attr < 2:
                    conds.append(Condition(attr, rng.choice(["<=", ">"]), float(rng.normal())))
                else:
                    value = dataset.schema[2].values[rng.integers(0, 3)]
                    conds.append(Condition(attr, rng.choice(["==", "!="]), value))
            rules.append(Rule(Body(tuple(conds)), Head(rng.normal(size=3))))
        ensemble = Ensemble(rules, ["l0", "l1", "l2"], dataset.schema,
                            EnsembleMeta("label-wise-logistic", 1.0, 0.0, 0))
        matrix = ensemble_scores(ensemble, dataset)
        for i in range(dataset.n_examples):
            example = dataset.example(i)
            expected = sum(apply_rule(rule, example) for rule in rules)
            assert np.allclose(aggregate(ensemble, example), expected)
            assert np.allclose(matrix[i], expected)


class TestHeadInvariants:
    def test_single_mode_one_nonzero_coordinate(self):
        head = Head(np.array([0.0, 0.3, 0.0]), label_index=1)
        assert np.count_nonzero(head.scores) <= 1

    def test_single_mode_rejects_off_label_scores(self):
        with pytest.raises(ValueError):
            Head(np.array([0.1, 0.3, 0.0]), label_index=1)

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValueError):
            Head(np.array([np.nan, 0.0]))
        with pytest.raises(ValueError):
            Head(np.array([np.inf, 0.0]))


class TestEnsembleInvariants:
    def test_first_rule_must_cover_everything(self):
        rule = Rule(Body((Condition(0, ">", 0.0),)), Head(np.zeros(2)))
        with pytest.raises(ValueError):
            Ensemble([rule], ["l0", "l1"], SCHEMA, EnsembleMeta("label-wise-logistic", 1.0, 0.0, 0))

    def test_head_length_must_match_labels(self):
        rule = Rule(Body(), Head(np.zeros(3)))
        with pytest.raises(ValueError):
            Ensemble([rule], ["l0", "l1"], SCHEMA, EnsembleMeta("label-wise-logistic", 1.0, 0.0, 0))


class TestVectorizedCoverage:
    def test_mask_agrees_with_scalar_covers(self, rng):
        dataset = random_dataset(rng, 60, n_numeric=2, n_nominal=2, n_labels=2,
                                 missing_rate=0.15)
        bodies = [
            Body(),
            Body((Condition(0, "<=", 0.2),)),
            Body((Condition(1, ">", -0.5), Condition(2, "==", "v1"))),
            Body((Condition(3, "!=", "v0"),)),
            Body((Condition(2, "!=", "v2"), Condition(0, ">", 0.0))),
        ]
        for body in bodies:
            mask = body_mask(dataset, body)
            expected = [covers(body, dataset.example(i)) for i in range(dataset.n_examples)]
            assert mask.tolist() == expected


class TestConditionMaskRows:
    DATASET = Dataset(
        SCHEMA,
        [np.array([0.5, np.nan, 2.0, -1.0]), np.array([0, MISSING_CODE, 1, 0])],
        np.ones((4, 1), dtype=np.int8),
        ["l0"],
    )

    @pytest.mark.parametrize(
        "condition",
        [Condition(0, "<=", 0.5), Condition(0, ">", 0.5), Condition(1, "==", "a"),
         Condition(1, "!=", "a")],
        ids=str,
    )
    def test_gathered_rows_equal_indexed_full_mask(self, condition):
        # Repeated rows, and rows whose value is missing (NaN / missing code).
        rows = np.array([1, 3, 3, 0, 2, 1, 0])
        full = condition_mask(self.DATASET, condition)
        gathered = condition_mask(self.DATASET, condition, rows)
        assert gathered.tolist() == full[rows].tolist()
        assert not gathered[0] and not gathered[5]


class TestDatasetValidation:
    def test_duplicate_attribute_names_rejected(self):
        with pytest.raises(SchemaError):
            AttributeSchema((Attribute("a", NUMERIC), Attribute("a", NUMERIC)))

    def test_empty_nominal_domain_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("a", NOMINAL, ())

    def test_row_length_checked(self):
        with pytest.raises(SchemaError):
            Dataset.from_rows(SCHEMA, [[1.0]], np.array([[1, -1]]), ["l0", "l1"])

    def test_unknown_nominal_value_rejected(self):
        with pytest.raises(SchemaError):
            Dataset.from_rows(SCHEMA, [[1.0, "zzz"]], np.array([[1, -1]]), ["l0", "l1"])

    def test_labels_must_be_plus_minus_one(self):
        with pytest.raises(SchemaError):
            Dataset.from_rows(SCHEMA, [[1.0, "a"]], np.array([[1, 0]]), ["l0", "l1"])

    def test_example_round_trip_with_missing(self):
        dataset = Dataset.from_rows(
            SCHEMA, [[None, "b"], [1.5, None]], np.array([[1, -1], [-1, 1]]), ["l0", "l1"]
        )
        assert dataset.example(0).values == (None, "b")
        assert dataset.example(1).values == (1.5, None)

    def test_distinct_label_vectors_first_occurrence_order(self):
        labels = np.array([[1, -1], [-1, 1], [1, -1], [1, 1]], dtype=np.int8)
        dataset = Dataset.from_rows(
            SCHEMA, [[0.1, "a"], [0.2, "a"], [0.3, "b"], [0.4, "b"]], labels, ["l0", "l1"]
        )
        distinct = dataset.distinct_label_vectors()
        assert distinct.tolist() == [[1, -1], [-1, 1], [1, 1]]
