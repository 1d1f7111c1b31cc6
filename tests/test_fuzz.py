"""Mutation fuzz of the three readers: bad input may raise only RuleBoostError.

Valid model documents, ARFF texts and CSV texts are mutated, by JSON
field, by token and by byte, and fed to ``loads``, ``load``,
``load_arff`` and ``load_csv``.  Any other exception, and any numpy
warning (each is made an error), fails the test.  The runs are
derandomized, so every run feeds the same inputs.
"""

import copy
import json
from contextlib import suppress

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ruleboost.dataio import load_arff, load_csv
from ruleboost.dataset import NOMINAL, NUMERIC, Attribute, AttributeSchema
from ruleboost.errors import RuleBoostError
from ruleboost.rules import Body, Condition, Ensemble, EnsembleMeta, Head, Rule
from ruleboost.serialization import dumps, load, loads


# Inputs per hypothesis example, which share its fixed cost (about 5 ms an example) so that
# the file runs in seconds.  With the example counts below they make 4,000 model documents,
# 1,008 ARFF and 1,008 CSV texts, and 800 byte strings.
BATCH = 16


def fuzz_settings(max_examples):
    return settings(max_examples=max_examples, derandomize=True, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _model_text():
    schema = AttributeSchema((Attribute("x", NUMERIC), Attribute("c", NOMINAL, ("a", "b", "?")),
                              Attribute("y", NUMERIC)))
    rules = [
        Rule(Body(), Head(np.array([0.5, -0.5, 0.25]))),
        Rule(Body((Condition(0, "<=", 0.25), Condition(1, "==", "b"))),
             Head(np.array([0.0, 1.5, 0.0]), 1)),
        Rule(Body((Condition(2, ">", -1e-300), Condition(1, "!=", "?"))),
             Head(np.array([-2.0, 0.125, 3.0]))),
    ]
    ensemble = Ensemble(rules, ["l0", "l1", "l2"], schema,
                        EnsembleMeta("example-wise-logistic", 0.3, 1.0, 7),
                        label_vectors=np.array([[1, -1, 1], [-1, -1, 1]], dtype=np.int8))
    return dumps(ensemble)


MODEL_TEXT = _model_text()

ARFF_TEXT = """% a comment
@relation fuzz
@attribute x numeric
@attribute 'odd name' {a, 'b c', "d,e", ?}
@attribute y real
@attribute l0 {0,1}
@attribute l1 {0, 1}
@data
1.5, a, -2, 1, 0
?, 'b c', 3e-5, 0, 1
-0.0, "d,e", ?, 1, 1
{0 2.5, 1 'b c', 3 1}
{}
"""

CSV_TEXT = """x,c,y,l0,l1
1.5,red,-2,1,0
,blue,3e-5,0,1
-0.0,"r,ed",?,1,1
2,red,1,0,0
"""

# JSON values that a mutation puts in place of a field or an entry, or adds.
JSON_VALUES = st.sampled_from([
    None, True, False, -3, -1, 0, 1, 2, 3, 7, 2**63, -(2**63) - 1, 10**400,
    0.0, -0.0, 0.5, 1.5, -0.3, 5e-324, 1e308, float("nan"), float("inf"), float("-inf"),
    "", "a", "b", "?", "x", "<=", ">", "==", "!=", "numeric", "nominal", "label-wise-logistic",
    [], [None], [True], [0], [1, -1], [1, -1, 1], [0.5, 1.5, "x"], [[1, -1, 1]], [float("nan")],
    {}, {"name": "x"}, {"name": "x", "kind": "numeric"}, {"attribute": 0, "operator": "<=",
                                                         "value": 0.5},
]).map(copy.deepcopy)
KEYS = st.sampled_from(["", "x", "seed", "rules", "label", "scores", "values", "conditions"])


def _slots(node, out):
    """Every (container, key) pair of a JSON tree, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        out.append((node, key))
        if isinstance(child, (dict, list)):
            _slots(child, out)
    return out


@st.composite
def mutated_documents(draw):
    """A model document with one to three fields replaced, deleted or added."""
    document = json.loads(MODEL_TEXT)
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(document, [])
        parent, key = slots[draw(st.integers(0, len(slots) - 1))]
        action = draw(st.sampled_from(["replace", "replace", "delete", "add", "copy"]))
        if action == "replace":
            parent[key] = draw(JSON_VALUES)
        elif action == "delete":
            del parent[key]
        elif action == "copy":
            parent[key] = json.loads(json.dumps(slots[draw(st.integers(0, len(slots) - 1))][0]))
        elif isinstance(parent, list):
            parent.insert(key, draw(JSON_VALUES))
        else:
            parent[draw(KEYS)] = draw(JSON_VALUES)
    return json.dumps(document)


# Tokens that a text mutation inserts into ARFF or CSV text.
TOKENS = st.sampled_from([
    ",", ",,", "?", "'", '"', "{", "}", "%", "\n", "\r\n", "\r", " ", "\t", "@data", "@attribute",
    "@attribute z numeric\n", "@attribute z {0,1}\n", "@relation", "numeric", "{0,1}", "{}",
    "nan", "inf", "-inf", "1e999", "-1e-999", "0", "1", "-1", "2", "0x1p3", "1_0", "a", "b c",
    "é", "\x00", "﻿", "9999999999999999999999", "{0 1}", "{5 1}", "{-1 1}", "{0 }",
])


@st.composite
def mutated_texts(draw, base):
    """``base`` with one to four tokens inserted, spans deleted or lines repeated."""
    text = base
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        action = draw(st.sampled_from(["insert", "insert", "delete", "repeat"]))
        if action == "insert":
            text = text[:at] + draw(TOKENS) + text[at:]
        elif action == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 12)):]
        else:
            start = text.rfind("\n", 0, at) + 1
            end = text.find("\n", at)
            line = text[start:] if end < 0 else text[start:end + 1]
            text = text[:start] + line + text[start:]
    return text


@st.composite
def mutated_bytes(draw, base):
    """The UTF-8 bytes of ``base`` with one to three bytes replaced, inserted or cut."""
    data = bytearray(base.encode("utf-8"))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        action = draw(st.sampled_from(["replace", "insert", "truncate"]))
        if action == "replace" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif action == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=4))
        else:
            del data[at:]
    return bytes(data)


ARFF_LABELS = st.sampled_from([1, 2, 0, -1, 5, ["l0"], ["l1", "l0"], ["l0", "l0"], ["x"],
                               ["odd name"], ["nope"], []])
CSV_LABELS = st.sampled_from([1, 2, 0, -1, 5, ["l0"], ["l1", "l0"], ["l0", "l0"], ["c"],
                              ["nope"], []])


BYTE_CASES = {
    "model": (MODEL_TEXT, load, ()),
    "arff": (ARFF_TEXT, load_arff, (2,)),
    "csv": (CSV_TEXT, load_csv, (2,)),
}


def batches(inputs):
    return st.lists(inputs, min_size=BATCH, max_size=BATCH)


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_the_bases_load(work_dir):
    """Every mutation starts from a valid input."""
    ensemble = loads(MODEL_TEXT)
    assert len(ensemble) == 3 and ensemble.label_vectors.shape == (2, 3)
    (work_dir / "base.arff").write_text(ARFF_TEXT, encoding="utf-8")
    (work_dir / "base.csv").write_text(CSV_TEXT, encoding="utf-8")
    assert load_arff(work_dir / "base.arff", 2).labels.shape == (5, 2)
    assert load_csv(work_dir / "base.csv", 2).labels.shape == (4, 2)


@pytest.mark.filterwarnings("error")
class TestOnlyRuleBoostErrorsEscape:
    """Any exception but a RuleBoostError fails; each example is a batch of ``BATCH`` inputs."""

    @fuzz_settings(250)
    @given(batches(mutated_documents()))
    def test_mutated_model_documents(self, texts):
        for text in texts:
            with suppress(RuleBoostError):
                loads(text)

    @fuzz_settings(63)
    @given(batches(st.tuples(mutated_texts(ARFF_TEXT), ARFF_LABELS)))
    def test_mutated_arff_texts(self, work_dir, cases):
        path = work_dir / "data.arff"
        for text, labels in cases:
            path.write_text(text, encoding="utf-8", newline="")
            with suppress(RuleBoostError):
                load_arff(path, labels)

    @fuzz_settings(63)
    @given(batches(st.tuples(mutated_texts(CSV_TEXT), CSV_LABELS)))
    def test_mutated_csv_texts(self, work_dir, cases):
        path = work_dir / "data.csv"
        for text, labels in cases:
            path.write_text(text, encoding="utf-8", newline="")
            with suppress(RuleBoostError):
                load_csv(path, labels)

    @fuzz_settings(50)
    @given(batches(st.sampled_from(["model", "arff", "csv"]).flatmap(
        lambda kind: st.tuples(st.just(kind), mutated_bytes(BYTE_CASES[kind][0])))))
    def test_mutated_bytes(self, work_dir, cases):
        for kind, data in cases:
            _, read, args = BYTE_CASES[kind]
            path = work_dir / f"bytes.{kind}"
            path.write_bytes(data)
            with suppress(RuleBoostError):
                read(path, *args)
