"""Model document round trips and version handling."""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruleboost.choices import ALL_VARIANTS
from ruleboost.dataio import load_arff, load_csv
from ruleboost.dataset import NOMINAL, NUMERIC, Attribute, AttributeSchema
from ruleboost.errors import ConfigError, ParseError, RuleBoostError, UnsupportedVersionError
from ruleboost.rules import Body, Condition, Ensemble, EnsembleMeta, Head, Rule
from ruleboost.serialization import dumps, ensemble_to_dict, load, loads, save
from ruleboost.training import TrainConfig, train

from conftest import random_dataset
from test_dataio import csv_files, dense_arff_files


def random_ensemble(rng) -> Ensemble:
    n_labels = int(rng.integers(1, 6))
    n_numeric = int(rng.integers(1, 4))
    n_nominal = int(rng.integers(0, 3))
    attributes = [Attribute(f"num{j}", NUMERIC) for j in range(n_numeric)]
    attributes += [
        Attribute(f"nom{j}", NOMINAL, tuple(f"v{k}" for k in range(int(rng.integers(2, 5)))))
        for j in range(n_nominal)
    ]
    schema = AttributeSchema(tuple(attributes))

    def random_head():
        if rng.random() < 0.5:
            label = int(rng.integers(0, n_labels))
            scores = np.zeros(n_labels)
            scores[label] = rng.normal() * 10.0 ** rng.integers(-8, 8)
            return Head(scores, label)
        return Head(rng.normal(size=n_labels) * 10.0 ** rng.integers(-8, 8))

    rules = [Rule(Body(), random_head())]
    for _ in range(int(rng.integers(0, 8))):
        conditions = []
        for _ in range(int(rng.integers(1, 4))):
            attr_index = int(rng.integers(0, len(attributes)))
            attr = attributes[attr_index]
            if attr.is_numeric:
                operator = "<=" if rng.random() < 0.5 else ">"
                conditions.append(Condition(attr_index, operator, float(rng.normal())))
            else:
                operator = "==" if rng.random() < 0.5 else "!="
                value = attr.values[int(rng.integers(0, len(attr.values)))]
                conditions.append(Condition(attr_index, operator, value))
        rules.append(Rule(Body(tuple(conditions)), random_head()))

    label_vectors = None
    if rng.random() < 0.7:
        label_vectors = rng.choice([-1, 1], size=(int(rng.integers(1, 5)), n_labels)).astype(
            np.int8
        )
    return Ensemble(
        rules=rules,
        label_names=[f"l{k}" for k in range(n_labels)],
        schema=schema,
        meta=EnsembleMeta(
            loss=str(rng.choice(["label-wise-logistic", "example-wise-logistic"])),
            shrinkage=float(rng.uniform(0.05, 1.0)),
            l2_weight=float(rng.choice([0.0, 0.25, 1.0, 64.0])),
            seed=int(rng.integers(0, 2**31)),
        ),
        label_vectors=label_vectors,
    )


def assert_ensembles_identical(a: Ensemble, b: Ensemble):
    assert len(a) == len(b)
    for rule_a, rule_b in zip(a.rules, b.rules):
        assert rule_a.body == rule_b.body
        assert rule_a.head.label_index == rule_b.head.label_index
        # Bit-exact score round trip.
        assert rule_a.head.scores.tobytes() == rule_b.head.scores.tobytes()
    assert a.label_names == b.label_names
    assert a.schema == b.schema
    assert a.meta == b.meta
    if a.label_vectors is None:
        assert b.label_vectors is None
    else:
        assert np.array_equal(a.label_vectors, b.label_vectors)


class TestRoundTrip:
    def test_hundred_random_ensembles_bit_exact(self):
        rng = np.random.default_rng(555)
        for _ in range(100):
            ensemble = random_ensemble(rng)
            assert_ensembles_identical(ensemble, loads(dumps(ensemble)))

    def test_double_serialization_stable(self):
        rng = np.random.default_rng(556)
        ensemble = random_ensemble(rng)
        assert dumps(ensemble) == dumps(loads(dumps(ensemble)))

    def test_file_round_trip(self, tmp_path, rng):
        ensemble = random_ensemble(rng)
        path = tmp_path / "model.json"
        save(ensemble, path)
        assert_ensembles_identical(ensemble, load(path))

    def test_numpy_scalar_settings_round_trip(self, tmp_path, rng):
        config = TrainConfig(n_rules=3, shrinkage=np.float32(0.3), l2_weight=np.float32(0.25),
                             seed=np.int64(7))
        ensemble = train(random_dataset(rng, 20, n_numeric=2), config)
        path = tmp_path / "model.json"
        save(ensemble, path)
        loaded = load(path)
        assert_ensembles_identical(ensemble, loaded)
        assert loaded.meta == EnsembleMeta("label-wise-logistic", float(np.float32(0.3)), 0.25, 7)
        assert [type(getattr(loaded.meta, name)) for name in ("shrinkage", "seed")] == [float, int]

    def test_a_model_that_cannot_be_encoded_writes_no_file(self, tmp_path, rng, monkeypatch):
        def fail(*args, **kwargs):
            raise TypeError("cannot encode")

        monkeypatch.setattr(json, "dumps", fail)
        path = tmp_path / "model.json"
        with pytest.raises(TypeError, match="^cannot encode$"):
            save(random_ensemble(rng), path)
        assert not path.exists()

    def test_stable_field_order(self, rng):
        document = ensemble_to_dict(random_ensemble(rng))
        assert list(document)[:2] == ["format_version", "loss"]


# Data files as the loaders' property tests draw them: a suffix, a text and a label count.
DATA_FILES = st.one_of(dense_arff_files().map(lambda case: (".arff", *case[:2])),
                       csv_files().map(lambda case: (".csv", *case)))


@settings(max_examples=300, deadline=None)
@given(DATA_FILES, st.sampled_from(ALL_VARIANTS))
def test_every_model_trained_from_a_file_loads_back(data_file, variant):
    """For every file that a loader and ``train`` accept, ``loads(dumps(model))`` succeeds."""
    suffix, text, n_labels = data_file
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / f"data{suffix}"
        path.write_bytes(text.encode("utf-8"))
        try:
            dataset = (load_arff if suffix == ".arff" else load_csv)(path, n_labels)
            # Without sampling, every round scans every threshold of every attribute.
            ensemble = train(dataset, TrainConfig(loss=variant.loss, n_rules=20,
                                                  head_mode=variant.head_mode, bagging=False,
                                                  feature_sampling=False))
        except RuleBoostError:
            return
    assert_ensembles_identical(ensemble, loads(dumps(ensemble)))


class TestMalformedDocuments:
    def test_truncated_document(self, rng):
        text = dumps(random_ensemble(rng))
        with pytest.raises(ParseError):
            loads(text[: len(text) // 2])

    def test_parse_error_carries_location(self):
        try:
            loads('{"format_version": 1,\n  "loss": }')
        except ParseError as exc:
            assert exc.line == 2
        else:
            pytest.fail("expected ParseError")

    def test_version_mismatch(self, rng):
        document = ensemble_to_dict(random_ensemble(rng))
        document["format_version"] = 99
        with pytest.raises(UnsupportedVersionError):
            loads(json.dumps(document))

    def test_missing_version(self, rng):
        document = ensemble_to_dict(random_ensemble(rng))
        del document["format_version"]
        with pytest.raises(UnsupportedVersionError):
            loads(json.dumps(document))

    @pytest.mark.parametrize("text", [
        '{"format_version": 1, "seed": ' + "9" * 5000 + "}",
        '{"rules": [{"scores": [-' + "1" * 5000 + "]}]}",
    ], ids=["seed", "score"])
    def test_an_integer_literal_too_long_to_convert(self, text):
        with pytest.raises(ParseError,
                           match="^invalid model document: an integer literal is too long$"):
            loads(text)

    def test_a_document_that_is_not_an_object(self):
        with pytest.raises(ParseError, match="^model document is not an object$"):
            loads("[]")

    def test_a_document_without_rules(self, rng):
        document = ensemble_to_dict(random_ensemble(rng))
        document["rules"] = []
        with pytest.raises(ParseError, match="^invalid model: an ensemble needs at least one rule$"):
            loads(json.dumps(document))

    def test_missing_required_field(self, rng):
        document = ensemble_to_dict(random_ensemble(rng))
        del document["rules"]
        with pytest.raises(ParseError):
            loads(json.dumps(document))

    def test_non_utf8_file_names_the_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff" + json.dumps(_two_rule_document()).encode())
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            load(path)


def _two_rule_document():
    schema = AttributeSchema((Attribute("x", NUMERIC), Attribute("c", NOMINAL, ("a", "b"))))
    rules = [
        Rule(Body(), Head(np.array([0.5, -0.5]))),
        Rule(Body((Condition(0, "<=", 0.25), Condition(1, "==", "b"))),
             Head(np.array([0.0, 1.5]), 1)),
    ]
    ensemble = Ensemble(rules, ["l0", "l1"], schema,
                        EnsembleMeta("label-wise-logistic", 0.3, 0.0, 0),
                        label_vectors=np.array([[1, -1]], dtype=np.int8))
    return ensemble_to_dict(ensemble)


def _delete(key):
    def mutate(parent):
        del parent[key]
    return mutate


def _set(key, value):
    def mutate(parent):
        parent[key] = value
    return mutate


class TestInvalidFieldsNameTheirPath:
    """Each broken field raises ParseError naming its JSON path, never another exception."""

    @pytest.mark.parametrize("locate,mutate,path", [
        (lambda d: d["rules"][1], _delete("scores"), "rules[1].scores"),
        (lambda d: d["rules"][1], _set("scores", "1.5"), "rules[1].scores"),
        (lambda d: d["rules"][1]["scores"], _set(0, None), "rules[1].scores[0]"),
        (lambda d: d["rules"][1]["scores"], _set(1, 10**400), "rules[1].scores[1]"),
        (lambda d: d["rules"][1], _set("scores", [1.5]), "rules[1].scores"),
        (lambda d: d["rules"][1], _set("label", 7), "rules[1]"),
        (lambda d: d["rules"][1], _set("label", "1"), "rules[1].label"),
        (lambda d: d["rules"][1], _delete("conditions"), "rules[1].conditions"),
        (lambda d: d["rules"], _set(1, []), "rules[1]"),
        (lambda d: d["rules"][1]["conditions"][0], _delete("attribute"),
         "rules[1].conditions[0].attribute"),
        (lambda d: d["rules"][1]["conditions"][0], _set("attribute", "0"),
         "rules[1].conditions[0].attribute"),
        (lambda d: d["rules"][1]["conditions"][0], _set("attribute", 7),
         "rules[1].conditions[0].attribute"),
        (lambda d: d["rules"][1]["conditions"][0], _set("operator", "=="),
         "rules[1].conditions[0].operator"),
        (lambda d: d["rules"][1]["conditions"][0], _set("value", float("nan")),
         "rules[1].conditions[0].value"),
        (lambda d: d["rules"][1]["conditions"][0], _set("value", "0.25"),
         "rules[1].conditions[0].value"),
        (lambda d: d["rules"][1]["conditions"][1], _set("value", "z"),
         "rules[1].conditions[1].value"),
        (lambda d: d["rules"][1]["conditions"][1], _set("operator", "<="),
         "rules[1].conditions[1].operator"),
        (lambda d: d["schema"][1], _delete("values"), "schema[1].values"),
        (lambda d: d["schema"][0], _set("name", 3), "schema[0].name"),
        (lambda d: d["label_names"], _set(0, None), "label_names[0]"),
        (lambda d: d["label_names"], _set(1, "l0"), "label_names[1]"),
        (lambda d: d["label_vectors"], _set(0, [1, 0]), "label_vectors[0]"),
        (lambda d: d["label_vectors"], _set(0, [1, -1, 1]), "label_vectors[0]"),
        (lambda d: d, _set("label_vectors", []), "label_vectors must be a non-empty array"),
        (lambda d: d, _set("seed", "0"), "seed"),
        (lambda d: d, _set("seed", True), "seed"),
        (lambda d: d["rules"][1]["conditions"][0], _set("attribute", True),
         "rules[1].conditions[0].attribute"),
        (lambda d: d, _set("format_version", True), "format_version"),
        (lambda d: d, _set("loss", "hinge"), "loss"),
        (lambda d: d, _set("shrinkage", 0.0), "shrinkage"),
        (lambda d: d, _set("shrinkage", -0.3), "shrinkage"),
        (lambda d: d, _set("shrinkage", 1.5), "shrinkage"),
        (lambda d: d, _set("shrinkage", float("nan")), "shrinkage"),
        (lambda d: d, _set("shrinkage", True), "shrinkage"),
        (lambda d: d, _set("shrinkage", 10**400), "shrinkage must be a finite number"),
        (lambda d: d, _set("l2_weight", -1.0), "l2_weight"),
        (lambda d: d, _set("l2_weight", float("inf")), "l2_weight"),
    ])
    def test_parse_error_names_path(self, locate, mutate, path):
        document = _two_rule_document()
        loads(json.dumps(document))
        mutate(locate(document))
        with pytest.raises(ParseError, match=re.escape(path)):
            loads(json.dumps(document))


# Each bad training setting, with the one message that training, a model's meta and model
# loading all give for it.
BAD_SETTINGS = [
    ("loss", "hinge", "unknown loss 'hinge'"),
    ("shrinkage", 0.0, "shrinkage must be in (0, 1]"),
    ("shrinkage", 1.5, "shrinkage must be in (0, 1]"),
    ("shrinkage", float("nan"), "shrinkage must be a finite number, not nan"),
    ("shrinkage", True, "shrinkage must be a finite number, not True"),
    ("l2_weight", -1.0, "l2_weight must be nonnegative"),
    ("l2_weight", float("inf"), "l2_weight must be a finite number, not inf"),
    ("seed", -1, "seed must be nonnegative"),
    ("seed", True, "seed must be an integer, not True"),
    ("seed", "0", "seed must be an integer, not '0'"),
]


@pytest.mark.parametrize("field,value,message", BAD_SETTINGS,
                         ids=[f"{field}={value!r}" for field, value, _ in BAD_SETTINGS])
def test_a_bad_setting_gets_one_message_through_every_door(field, value, message):
    exact = f"^{re.escape(message)}$"
    with pytest.raises(ConfigError, match=exact):
        TrainConfig(**{field: value})
    settings = {"loss": "label-wise-logistic", "shrinkage": 0.3, "l2_weight": 0.0, "seed": 0}
    with pytest.raises(ConfigError, match=exact):
        EnsembleMeta(**{**settings, field: value})
    document = _two_rule_document()
    document[field] = value
    with pytest.raises(ParseError, match=exact):
        loads(json.dumps(document))
