"""A per-row reading of rule coverage and ensemble scores, the oracle for the vectorised path.

A row is the tuple of an example's raw values: a float (numeric), a
string (nominal) or None (missing).  A missing value satisfies no
condition; a rule adds its head where its body covers the row.
"""

import numpy as np

from ruleboost.dataset import MISSING_CODE
from ruleboost.rules import OP_EQ, OP_GT, OP_LEQ


def row_values(dataset, index: int) -> tuple:
    """The raw values of one example, in schema order."""
    values = []
    for attr, column in zip(dataset.schema.attributes, dataset.columns):
        raw = column[index]
        if attr.is_numeric:
            values.append(None if np.isnan(raw) else float(raw))
        else:
            values.append(None if raw == MISSING_CODE else attr.values[int(raw)])
    return tuple(values)


def covers(body, row: tuple) -> bool:
    for condition in body.conditions:
        value = row[condition.attribute_index]
        if value is None:
            return False
        if condition.operator == OP_LEQ:
            holds = value <= condition.threshold
        elif condition.operator == OP_GT:
            holds = value > condition.threshold
        else:
            holds = (value == condition.threshold) == (condition.operator == OP_EQ)
        if not holds:
            return False
    return True


def row_scores(rules, row: tuple) -> np.ndarray:
    """The vector sum of the heads of the rules whose bodies cover the row."""
    total = np.zeros(rules[0].head.scores.shape)
    for rule in rules:
        if covers(rule.body, row):
            total += rule.head.scores
    return total
