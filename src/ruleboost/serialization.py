"""Versioned JSON model documents with bit-exact score round trips.

Floats are emitted through Python's shortest round-trip repr, so parsing
a serialized model restores every score and threshold exactly.  The
training settings a model records are ``EnsembleMeta``'s fields: each is
written as its declared type and read back by name into an
``EnsembleMeta``, which checks them as training does.
"""

from __future__ import annotations

import json

import numpy as np

from .dataset import NOMINAL, NUMERIC, Attribute, AttributeSchema
from .errors import (ConfigError, ParseError, SchemaError, UnsupportedVersionError,
                     declared_types, is_finite, read_text)
from .rules import NOMINAL_OPS, NUMERIC_OPS, Body, Condition, Ensemble, EnsembleMeta, Head, Rule

FORMAT_VERSION = 1


def ensemble_to_dict(ensemble: Ensemble) -> dict:
    schema = [
        {"name": a.name, "kind": a.kind}
        if a.is_numeric
        else {"name": a.name, "kind": a.kind, "values": list(a.values)}
        for a in ensemble.schema.attributes
    ]
    rules = [
        {
            "conditions": [
                {
                    "attribute": c.attribute_index,
                    "operator": c.operator,
                    "value": c.threshold,
                }
                for c in rule.body.conditions
            ],
            "scores": [float(s) for s in rule.head.scores],
            "label": rule.head.label_index,
        }
        for rule in ensemble.rules
    ]
    label_vectors = (
        None
        if ensemble.label_vectors is None
        else [[int(v) for v in row] for row in ensemble.label_vectors]
    )
    return {
        "format_version": FORMAT_VERSION,
        # Each as its declared type, so that a numpy scalar saves as a JSON number.
        **{name: kind(getattr(ensemble.meta, name))
           for name, kind in declared_types(EnsembleMeta).items()},
        "label_names": list(ensemble.label_names),
        "schema": schema,
        "label_vectors": label_vectors,
        "rules": rules,
    }


_NUMBER = (int, float)
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}
_ABSENT = object()


def _typed(value, kinds, path: str, what: str):
    """``value`` if it is one of ``kinds``, a type or a tuple of them, else ParseError.

    A boolean is never a number, though ``bool`` is a subclass of ``int``.
    """
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        found = _JSON_TYPES.get(type(value), type(value).__name__)
        raise ParseError(f"{path} must be {what}, not {found}")
    return value


def _field(entry, key: str, path: str, kinds, what: str, default=_ABSENT):
    """Field ``key`` of the object at ``path`` (the document itself when empty), type-checked."""
    _typed(entry, dict, path or "the model document", "an object")
    field_path = f"{path}.{key}" if path else key
    if key not in entry:
        if default is not _ABSENT:
            return default
        raise ParseError(f"{field_path} is missing from the model document")
    return _typed(entry[key], kinds, field_path, what)


def _finite_number(value, path: str) -> float:
    """A JSON number as a finite float, else ParseError."""
    if not is_finite(_typed(value, _NUMBER, path, "a number")):
        raise ParseError(f"{path} must be a finite number, not {value!r}")
    return float(value)


def _meta(document: dict) -> EnsembleMeta:
    """The training settings a model document records, checked by ``EnsembleMeta``."""
    names = declared_types(EnsembleMeta)
    if missing := [name for name in names if name not in document]:
        raise ParseError(f"{missing[0]} is missing from the model document")
    try:
        return EnsembleMeta(**{name: document[name] for name in names})
    except ConfigError as exc:
        raise ParseError(str(exc)) from None


def _attribute(entry, path: str) -> Attribute:
    name = _field(entry, "name", path, str, "a string")
    kind = _field(entry, "kind", path, str, "a string")
    if kind == NUMERIC:
        return Attribute(name, NUMERIC)
    if kind != NOMINAL:
        raise ParseError(f"{path}.kind: unknown attribute kind {kind!r}")
    values = _field(entry, "values", path, list, "an array")
    for i, value in enumerate(values):
        _typed(value, str, f"{path}.values[{i}]", "a string")
    try:
        return Attribute(name, NOMINAL, tuple(values))
    except SchemaError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _condition(entry, path: str, schema: AttributeSchema) -> Condition:
    index = _field(entry, "attribute", path, int, "an integer")
    operator = _field(entry, "operator", path, str, "a string")
    value = _field(entry, "value", path, (int, float, str), "a number or a string")
    if not 0 <= index < len(schema):
        raise ParseError(f"{path}.attribute: {index} is not an attribute index "
                         f"(the schema has {len(schema)})")
    attr = schema[index]
    if attr.is_numeric:
        if operator not in NUMERIC_OPS:
            raise ParseError(f"{path}.operator: {operator!r} does not apply to numeric "
                             f"attribute {attr.name!r}")
        value = _finite_number(value, f"{path}.value")
    else:
        if operator not in NOMINAL_OPS:
            raise ParseError(f"{path}.operator: {operator!r} does not apply to nominal "
                             f"attribute {attr.name!r}")
        if value not in attr.values:
            raise ParseError(f"{path}.value: {value!r} is not a value of attribute {attr.name!r}")
    return Condition(index, operator, value)


def _rule(entry, path: str, schema: AttributeSchema, n_labels: int) -> Rule:
    conditions = tuple(
        _condition(condition, f"{path}.conditions[{j}]", schema)
        for j, condition in enumerate(_field(entry, "conditions", path, list, "an array"))
    )
    scores = [
        _finite_number(score, f"{path}.scores[{k}]")
        for k, score in enumerate(_field(entry, "scores", path, list, "an array"))
    ]
    if len(scores) != n_labels:
        raise ParseError(f"{path}.scores has {len(scores)} entries for {n_labels} labels")
    label = _field(entry, "label", path, (int, type(None)), "an integer or null", default=None)
    try:
        head = Head(np.asarray(scores, dtype=np.float64), label)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return Rule(Body(conditions), head)


def _label_vectors(raw, n_labels: int):
    if raw is None:
        return None
    if not _typed(raw, list, "label_vectors", "an array or null"):
        raise ParseError("label_vectors must be a non-empty array or null, not an empty array")
    for i, row in enumerate(raw):
        _typed(row, list, f"label_vectors[{i}]", "an array")
        if len(row) != n_labels or any(isinstance(v, bool) or v not in (-1, 1) for v in row):
            raise ParseError(f"label_vectors[{i}] must hold {n_labels} entries of -1 or 1")
    return np.asarray(raw, dtype=np.int8).reshape(len(raw), n_labels)


def ensemble_from_dict(document: dict) -> Ensemble:
    """The ensemble a model document describes.

    A missing or mistyped field, or one that contradicts the schema, raises
    ParseError naming its JSON path, such as ``rules[3].scores``.
    """
    if not isinstance(document, dict):
        raise ParseError("model document is not an object")
    version = document.get("format_version")
    # true == 1, so a boolean is compared only after it is ruled out.
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"format_version: unsupported model format version {version!r}; "
            f"this build reads version {FORMAT_VERSION}"
        )
    attributes = [
        _attribute(entry, f"schema[{i}]")
        for i, entry in enumerate(_field(document, "schema", "", list, "an array"))
    ]
    try:
        schema = AttributeSchema(tuple(attributes))
    except SchemaError as exc:
        raise ParseError(f"schema: {exc}") from None
    label_names = _field(document, "label_names", "", list, "an array")
    for i, name in enumerate(label_names):
        _typed(name, str, f"label_names[{i}]", "a string")
        if name in label_names[:i]:
            raise ParseError(f"label_names[{i}]: label {name!r} is named twice")
    rules = [
        _rule(entry, f"rules[{i}]", schema, len(label_names))
        for i, entry in enumerate(_field(document, "rules", "", list, "an array"))
    ]
    meta = _meta(document)
    label_vectors = _label_vectors(document.get("label_vectors"), len(label_names))
    try:
        return Ensemble(rules=rules, label_names=list(label_names), schema=schema, meta=meta,
                        label_vectors=label_vectors)
    except ValueError as exc:
        raise ParseError(f"invalid model: {exc}") from None


def dumps(ensemble: Ensemble) -> str:
    return json.dumps(ensemble_to_dict(ensemble), indent=2)


def loads(text: str) -> Ensemble:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid model document: {exc.msg}", line=exc.lineno) from None
    except ValueError:  # an integer literal over Python's int-conversion digit limit
        raise ParseError("invalid model document: an integer literal is too long") from None
    except RecursionError:
        raise ParseError("invalid model document: nested too deeply") from None
    return ensemble_from_dict(document)


def save(ensemble: Ensemble, path) -> None:
    text = dumps(ensemble) + "\n"  # first, so a model that cannot be encoded writes nothing
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def load(path) -> Ensemble:
    return loads(read_text(path))
