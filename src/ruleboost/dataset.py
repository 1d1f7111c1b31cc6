"""Attribute schemas and columnar datasets for multi-label classification.

Examples are stored column-wise for fast vectorized coverage checks:
numeric attributes as float64 columns (NaN marks a missing value; any other
value is finite) and nominal attributes as integer value codes (-1 marks a
missing value).
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


@dataclass
class Dataset:
    """Immutable columnar dataset: attributes, examples and a +-1 label matrix."""

    schema: AttributeSchema
    columns: list[np.ndarray]
    labels: np.ndarray
    label_names: list[str]

    def __post_init__(self):
        if self.labels.ndim != 2:
            raise SchemaError("label matrix must be 2-D, one row per example")
        n = self.n_examples
        if len(self.columns) != len(self.schema):
            raise SchemaError("column count does not match schema")
        for attr, column in zip(self.schema.attributes, self.columns):
            if column.shape != (n,):
                raise SchemaError("column length does not match the label matrix's example count")
            if attr.is_numeric and np.isinf(column).any():
                raise SchemaError(f"numeric attribute {attr.name!r} holds an infinite value")
            column.setflags(write=False)
        if self.labels.shape[1] != len(self.label_names):
            raise SchemaError("label matrix width does not match label names")
        if len(set(self.label_names)) != len(self.label_names):
            twice = next(name for k, name in enumerate(self.label_names)
                         if name in self.label_names[:k])
            raise SchemaError(f"label {twice!r} is named twice")
        if not np.all(np.abs(self.labels) == 1):
            raise SchemaError("label entries must be -1 or +1")
        self.labels.setflags(write=False)

    @property
    def n_examples(self) -> int:
        return self.labels.shape[0]

    @property
    def n_attributes(self) -> int:
        return len(self.schema)

    @property
    def n_labels(self) -> int:
        return len(self.label_names)

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
