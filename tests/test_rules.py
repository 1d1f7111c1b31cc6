"""Rule, body and ensemble semantics."""

from dataclasses import replace

import numpy as np
import pytest

from ruleboost.dataset import (
    MISSING_CODE,
    NOMINAL,
    NUMERIC,
    Attribute,
    AttributeSchema,
    Dataset,
)
from ruleboost.errors import SchemaError
from ruleboost.rules import (
    Body,
    Condition,
    Ensemble,
    EnsembleMeta,
    Head,
    Rule,
    add_head,
    body_mask,
    check_schema,
    condition_mask,
    ensemble_scores,
    staged_scores,
)
from ruleboost.training import TrainConfig, train

from conftest import dataset_from_rows, random_dataset
from reference import covers, row_scores, row_values


SCHEMA = AttributeSchema(
    (
        Attribute("a", NUMERIC),
        Attribute("b", NOMINAL, ("a", "b")),
    )
)


def make_dataset(*rows):
    """One example per (x, s) row, with one all-positive label."""
    return dataset_from_rows(SCHEMA, rows, np.ones((len(rows), 1)), ["l0"])


class TestBodyMask:
    def test_empty_body_covers_everything(self):
        assert body_mask(make_dataset((0.3, "b"), (None, None)), Body()).tolist() == [True, True]

    def test_single_numeric_condition(self):
        body = Body((Condition(0, "<=", 0.5),))
        assert body_mask(make_dataset((0.3, "a"), (0.7, "a")), body).tolist() == [True, False]

    def test_conjunction_fails_on_one_condition(self):
        body = Body((Condition(0, "<=", 0.5), Condition(1, "==", "a")))
        assert body_mask(make_dataset((0.3, "b"), (0.3, "a")), body).tolist() == [False, True]

    def test_missing_value_satisfies_nothing(self):
        dataset = make_dataset((None, "a"), (0.1, None))
        for condition, expected in [
            (Condition(0, "<=", 0.5), [False, True]),
            (Condition(0, ">", 0.5), [False, False]),
            (Condition(1, "==", "a"), [True, False]),
            (Condition(1, "!=", "a"), [False, False]),
        ]:
            assert body_mask(dataset, Body((condition,))).tolist() == expected

    def test_a_value_outside_the_datas_domain_is_held_by_no_row(self):
        # The data's domain lacks "c", which a model trained on other data may name.
        dataset = make_dataset((0.3, "a"), (0.1, None), (0.2, "b"))
        assert condition_mask(dataset, Condition(1, "==", "c")).tolist() == [False] * 3
        assert condition_mask(dataset, Condition(1, "!=", "c")).tolist() == [True, False, True]
        rows = np.array([2, 1, 2])
        assert condition_mask(dataset, Condition(1, "!=", "c"), rows).tolist() == [
            True, False, True]

    def test_type_mismatch_raises_schema_error(self):
        dataset = make_dataset((0.3, "a"))
        with pytest.raises(SchemaError):
            body_mask(dataset, Body((Condition(1, "<=", 0.5),)))
        with pytest.raises(SchemaError):
            body_mask(dataset, Body((Condition(0, "==", "a"),)))

    def test_an_unknown_operator_is_rejected(self):
        with pytest.raises(SchemaError, match="^unknown operator '<'$"):
            Condition(0, "<", 0.5)

    def test_bodies_and_rules_print_their_conditions(self):
        body = Body((Condition(0, "<=", 0.5), Condition(1, "!=", "a")))
        assert str(Body()) == "<always>"
        assert str(body) == "x0 <= 0.5 and x1 != a"
        assert str(Rule(body, Head(np.array([0.25, -1.0])))) == (
            "if x0 <= 0.5 and x1 != a then [ 0.25 -1.  ]")


class TestEnsembleScores:
    def _scores(self, rules, *rows):
        n_labels = len(rules[0].head.scores)
        ensemble = Ensemble(rules, [f"l{k}" for k in range(n_labels)], SCHEMA,
                            EnsembleMeta("label-wise-logistic", 1.0, 0.0, 0))
        return ensemble_scores(ensemble, make_dataset(*rows))

    def test_covering_rule_adds_its_head(self):
        rules = [Rule(Body(), Head(np.array([0.5, -0.2])))]
        assert self._scores(rules, (0.0, "a")).tolist() == [[0.5, -0.2]]

    def test_uncovered_rule_adds_zero(self):
        rules = [Rule(Body(), Head(np.zeros(2))),
                 Rule(Body((Condition(0, ">", 1.0),)), Head(np.array([0.5, -0.2])))]
        assert self._scores(rules, (0.0, "a")).tolist() == [[0.0, 0.0]]

    def test_single_label_head(self):
        rules = [Rule(Body(), Head(np.array([0.0, 0.7, 0.0]), label_index=1))]
        assert self._scores(rules, (0.0, "a")).tolist() == [[0.0, 0.7, 0.0]]

    def test_default_rule_only(self):
        rules = [Rule(Body(), Head(np.array([0.1, -0.1])))]
        assert np.allclose(self._scores(rules, (0.0, "a")), [[0.1, -0.1]])

    def test_sums_covered_rules(self):
        rules = [
            Rule(Body(), Head(np.array([0.1, -0.1]))),
            Rule(Body((Condition(0, "<=", 0.5),)), Head(np.array([0.2, 0.0]))),
        ]
        assert np.allclose(self._scores(rules, (0.3, "a")), [[0.3, -0.1]])

    def test_ignores_uncovered_rules(self):
        rules = [
            Rule(Body(), Head(np.array([0.1, -0.1]))),
            Rule(Body((Condition(0, ">", 0.5),)), Head(np.array([9.0, 9.0]))),
        ]
        assert np.allclose(self._scores(rules, (0.3, "a")), [[0.1, -0.1]])

    def test_scores_equal_per_row_sums_of_covering_heads(self, rng):
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
            assert np.allclose(matrix[i], row_scores(rules, row_values(dataset, i)))


def _rule_by_rule_scores(ensemble, dataset):
    """Scores summed as whole heads added to (n, l) rows, one rule at a time."""
    scores = np.zeros((dataset.n_examples, ensemble.n_labels))
    for rule in ensemble.rules:
        add_head(scores, body_mask(dataset, rule.body), rule.head.scores)
    return scores


class TestEnsembleScoresBitIdentity:
    """``ensemble_scores`` sums per label but must equal whole-head additions bit for bit."""

    @pytest.mark.parametrize("loss", ["label-wise-logistic", "example-wise-logistic"])
    @pytest.mark.parametrize("head_mode", ["single", "multi"])
    def test_trained_models_on_data_with_missing_values(self, rng, loss, head_mode):
        dataset = random_dataset(rng, 300, n_numeric=3, n_nominal=2, n_labels=4,
                                 missing_rate=0.15)
        ensemble = train(dataset, TrainConfig(loss=loss, n_rules=30, head_mode=head_mode,
                                              l2_weight=1.0))
        if head_mode == "single":
            assert all(rule.head.label_index is not None for rule in ensemble.rules[1:])
        scores = ensemble_scores(ensemble, dataset)
        assert scores.shape == (dataset.n_examples, ensemble.n_labels)
        assert scores.dtype == np.float64 and scores.flags.c_contiguous
        assert scores.tobytes() == _rule_by_rule_scores(ensemble, dataset).tobytes()

    def test_every_stage_of_the_prefix_walk(self, rng):
        dataset = random_dataset(rng, 200, n_numeric=3, n_nominal=2, n_labels=4,
                                 missing_rate=0.15)
        ensemble = train(dataset, TrainConfig(loss="example-wise-logistic", n_rules=12,
                                              l2_weight=1.0))
        stages = list(staged_scores(ensemble, dataset, [1, 2, 5, 12]))
        assert [t for t, _ in stages] == [1, 2, 5, 12]
        for t, scores in stages:
            assert scores.dtype == np.float64 and scores.flags.c_contiguous
            prefix = replace(ensemble, rules=ensemble.rules[:t])
            assert scores.tobytes() == _rule_by_rule_scores(prefix, dataset).tobytes()

    def test_zero_and_negative_zero_head_values(self):
        rules = [Rule(Body(), Head(np.array([0.0, -0.0, 0.25]))),
                 Rule(Body((Condition(0, "<=", 0.5),)), Head(np.array([-0.0, 0.0, -0.25]))),
                 Rule(Body((Condition(1, "==", "b"),)), Head(np.array([0.0, -0.0, 0.0]), 1))]
        ensemble = Ensemble(rules, ["l0", "l1", "l2"], SCHEMA,
                            EnsembleMeta("label-wise-logistic", 1.0, 0.0, 0))
        dataset = make_dataset((0.3, "a"), (0.7, "b"), (None, None))
        scores = ensemble_scores(ensemble, dataset)
        assert scores.tobytes() == _rule_by_rule_scores(ensemble, dataset).tobytes()
        assert not np.signbit(scores).any()


class TestHeadInvariants:
    def test_single_mode_one_nonzero_coordinate(self):
        head = Head(np.array([0.0, 0.3, 0.0]), label_index=1)
        assert np.count_nonzero(head.scores) <= 1

    def test_single_mode_rejects_off_label_scores(self):
        with pytest.raises(ValueError):
            Head(np.array([0.1, 0.3, 0.0]), label_index=1)

    def test_a_head_equals_no_other_type(self):
        head = Head(np.zeros(2))
        assert head == Head(np.zeros(2))
        assert head.__eq__(np.zeros(2)) is NotImplemented
        assert head != "head"

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
    def test_mask_agrees_with_per_row_reference(self, rng):
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
            expected = [covers(body, row_values(dataset, i)) for i in range(dataset.n_examples)]
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

    def test_unknown_attribute_kind_rejected(self):
        with pytest.raises(SchemaError, match="^unknown attribute kind 'string'$"):
            Attribute("a", "string")

    def test_numeric_attribute_with_values_rejected(self):
        with pytest.raises(SchemaError, match="^numeric attribute 'a' must not declare values$"):
            Attribute("a", NUMERIC, ("x",))

    def test_an_extra_data_attribute_is_a_mismatch(self):
        ensemble = train(make_dataset((0.5, "a"), (1.5, "b")), TrainConfig(n_rules=1))
        wider = AttributeSchema(SCHEMA.attributes + (Attribute("c", NUMERIC),))
        dataset = dataset_from_rows(wider, [(0.5, "a", 1.0)], np.ones((1, 1)), ["l0"])
        with pytest.raises(SchemaError, match=(
                "^the data does not match the model's attributes: "
                "the model has 2 attributes, the data 3$")):
            check_schema(ensemble, dataset)

    def test_column_count_checked(self):
        with pytest.raises(SchemaError, match="column count"):
            Dataset(SCHEMA, [np.array([1.0])], np.array([[1, -1]], dtype=np.int8), ["l0", "l1"])

    @pytest.mark.parametrize("n_rows", [1, 3])
    def test_column_length_must_match_label_rows(self, n_rows):
        columns = [np.zeros(n_rows), np.zeros(n_rows, dtype=np.int64)]
        labels = np.ones((2, 2), dtype=np.int8)
        with pytest.raises(SchemaError, match="column length"):
            Dataset(SCHEMA, columns, labels, ["l0", "l1"])

    def test_label_width_must_match_label_names(self):
        with pytest.raises(SchemaError, match="label names"):
            dataset_from_rows(SCHEMA, [[1.0, "a"]], np.array([[1, -1]]), ["l0"])

    @pytest.mark.parametrize("n_attributes", [0, 2])
    def test_one_dimensional_labels_rejected(self, n_attributes):
        schema = AttributeSchema(SCHEMA.attributes[:n_attributes])
        columns = [np.zeros(3), np.zeros(3, dtype=np.int64)][:n_attributes]
        with pytest.raises(SchemaError, match="2-D"):
            Dataset(schema, columns, np.ones(3, dtype=np.int8), ["l0"])

    def test_columns_and_labels_are_read_only(self):
        dataset = dataset_from_rows(SCHEMA, [[1.0, "a"]], np.array([[1, -1]]), ["l0", "l1"])
        for array in (*dataset.columns, dataset.labels):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_labels_must_be_plus_minus_one(self):
        with pytest.raises(SchemaError):
            dataset_from_rows(SCHEMA, [[1.0, "a"]], np.array([[1, 0]]), ["l0", "l1"])

    def test_distinct_label_vectors_first_occurrence_order(self):
        labels = np.array([[1, -1], [-1, 1], [1, -1], [1, 1]], dtype=np.int8)
        dataset = dataset_from_rows(
            SCHEMA, [[0.1, "a"], [0.2, "a"], [0.3, "b"], [0.4, "b"]], labels, ["l0", "l1"]
        )
        distinct = dataset.distinct_label_vectors()
        assert distinct.tolist() == [[1, -1], [-1, 1], [1, 1]]
