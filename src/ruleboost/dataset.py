"""Attribute schemas and columnar datasets for multi-label classification.

Examples are stored column-wise for fast vectorized coverage checks:
numeric attributes as float64 columns (NaN marks a missing value) and
nominal attributes as integer value codes (-1 marks a missing value).
Labels are kept as an (n_examples, n_labels) matrix with entries in
{-1, +1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SchemaError

NUMERIC = "numeric"
NOMINAL = "nominal"

MISSING_CODE = -1


@dataclass(frozen=True)
class Attribute:
    """A named attribute, either numeric or nominal over a fixed value set."""

    name: str
    kind: str
    values: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (NUMERIC, NOMINAL):
            raise SchemaError(f"unknown attribute kind {self.kind!r}")
        if self.kind == NOMINAL and not self.values:
            raise SchemaError(f"nominal attribute {self.name!r} has an empty value set")
        if self.kind == NUMERIC and self.values:
            raise SchemaError(f"numeric attribute {self.name!r} must not declare values")

    @property
    def is_numeric(self) -> bool:
        return self.kind == NUMERIC


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered attribute declarations; names must be unique."""

    attributes: tuple[Attribute, ...]

    def __post_init__(self):
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError("attribute names are not unique")

    def __len__(self) -> int:
        return len(self.attributes)

    def __getitem__(self, index: int) -> Attribute:
        return self.attributes[index]

    def index_of(self, name: str) -> int:
        for i, attr in enumerate(self.attributes):
            if attr.name == name:
                return i
        raise SchemaError(f"no attribute named {name!r}")


@dataclass(frozen=True)
class Example:
    """One feature vector aligned with a schema.

    Values are floats (numeric), strings (nominal) or None (missing).
    """

    values: tuple

    def __len__(self) -> int:
        return len(self.values)


def _encode_column(attr: Attribute, raw_values, n_rows: int) -> np.ndarray:
    if attr.is_numeric:
        column = np.empty(n_rows, dtype=np.float64)
        for i, value in enumerate(raw_values):
            if value is None:
                column[i] = np.nan
            else:
                try:
                    column[i] = float(value)
                except (TypeError, ValueError):
                    raise SchemaError(
                        f"attribute {attr.name!r} is numeric but got {value!r}"
                    ) from None
        return column
    code_of = {v: c for c, v in enumerate(attr.values)}
    column = np.empty(n_rows, dtype=np.int64)
    for i, value in enumerate(raw_values):
        if value is None:
            column[i] = MISSING_CODE
        else:
            try:
                column[i] = code_of[value]
            except (KeyError, TypeError):
                raise SchemaError(
                    f"value {value!r} is not in the domain of attribute {attr.name!r}"
                ) from None
    return column


@dataclass
class Dataset:
    """Immutable columnar dataset: attributes, examples and a +-1 label matrix."""

    schema: AttributeSchema
    columns: list[np.ndarray]
    labels: np.ndarray
    label_names: list[str]

    def __post_init__(self):
        n = self.n_examples
        if len(self.columns) != len(self.schema):
            raise SchemaError("column count does not match schema")
        for column in self.columns:
            if column.shape != (n,):
                raise SchemaError("column lengths are inconsistent")
            column.setflags(write=False)
        if self.labels.ndim != 2 or self.labels.shape[0] != n:
            raise SchemaError("label matrix shape does not match example count")
        if self.labels.shape[1] != len(self.label_names):
            raise SchemaError("label matrix width does not match label names")
        if not np.all(np.abs(self.labels) == 1):
            raise SchemaError("label entries must be -1 or +1")
        self.labels.setflags(write=False)

    @classmethod
    def from_rows(cls, schema, rows, labels, label_names) -> "Dataset":
        """Build a dataset from row-major feature values and +-1 label rows."""
        rows = list(rows)
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != len(schema):
                raise SchemaError(f"example {i} has {len(row)} values, expected {len(schema)}")
        columns = [
            _encode_column(attr, [row[j] for row in rows], n)
            for j, attr in enumerate(schema.attributes)
        ]
        label_matrix = np.asarray(labels, dtype=np.int8)
        if label_matrix.ndim != 2:
            label_matrix = label_matrix.reshape(n, -1)
        return cls(schema, columns, label_matrix, list(label_names))

    @property
    def n_examples(self) -> int:
        return self.labels.shape[0] if self.labels.ndim == 2 else len(self.columns[0])

    @property
    def n_attributes(self) -> int:
        return len(self.schema)

    @property
    def n_labels(self) -> int:
        return len(self.label_names)

    def example(self, index: int) -> Example:
        values = []
        for attr, column in zip(self.schema.attributes, self.columns):
            raw = column[index]
            if attr.is_numeric:
                values.append(None if np.isnan(raw) else float(raw))
            else:
                values.append(None if raw == MISSING_CODE else attr.values[int(raw)])
        return Example(tuple(values))

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices)
        return Dataset(
            self.schema,
            [np.array(column[indices]) for column in self.columns],
            np.array(self.labels[indices]),
            list(self.label_names),
        )

    def distinct_label_vectors(self) -> np.ndarray:
        """Distinct label rows ordered by first occurrence in the data."""
        _, first = np.unique(self.labels, axis=0, return_index=True)
        return self.labels[np.sort(first)].copy()
