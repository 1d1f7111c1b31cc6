"""Shared builders for randomized and hand-written test data."""

from __future__ import annotations

import numpy as np
import pytest

from ruleboost.dataset import MISSING_CODE, NOMINAL, NUMERIC, Attribute, AttributeSchema, Dataset


def random_dataset(
    rng: np.random.Generator,
    n_examples: int,
    n_numeric: int,
    n_nominal: int = 0,
    n_labels: int = 2,
    missing_rate: float = 0.0,
    n_nominal_values: int = 3,
) -> Dataset:
    """Random mixed-attribute dataset with +-1 labels, drawn example by example."""
    attributes = [Attribute(f"num{j}", NUMERIC) for j in range(n_numeric)]
    values = tuple(f"v{k}" for k in range(n_nominal_values))
    attributes += [Attribute(f"nom{j}", NOMINAL, values) for j in range(n_nominal)]
    schema = AttributeSchema(tuple(attributes))

    columns = [np.empty(n_examples) for _ in range(n_numeric)]
    columns += [np.empty(n_examples, dtype=np.int64) for _ in range(n_nominal)]
    for i in range(n_examples):
        for j, column in enumerate(columns):
            missing = missing_rate and rng.random() < missing_rate
            if j < n_numeric:
                column[i] = np.nan if missing else rng.normal()
            else:
                column[i] = MISSING_CODE if missing else rng.integers(0, len(values))
    labels = rng.choice([-1, 1], size=(n_examples, n_labels)).astype(np.int8)
    return Dataset(schema, columns, labels, [f"l{k}" for k in range(n_labels)])


def dataset_from_rows(schema: AttributeSchema, rows, labels, label_names) -> Dataset:
    """A dataset from row-major values: floats or nominal strings, None where missing."""
    columns = []
    for j, attr in enumerate(schema.attributes):
        raw = [row[j] for row in rows]
        if attr.is_numeric:
            columns.append(np.array([np.nan if v is None else v for v in raw], dtype=np.float64))
        else:
            codes = [MISSING_CODE if v is None else attr.values.index(v) for v in raw]
            columns.append(np.array(codes, dtype=np.int64))
    return Dataset(schema, columns, np.asarray(labels, dtype=np.int8), list(label_names))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
