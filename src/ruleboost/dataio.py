"""Dataset ingestion: an ARFF subset and simple CSV, plus an ARFF writer.

The ARFF reader supports @relation, numeric and nominal @attribute
declarations, dense and sparse @data rows, quoted values and '?' missing
markers; a quoted '?' is a value where a nominal domain declares it.
Label attributes are the trailing ones (or an explicit list of names);
they must be nominal with domain {0, 1} and are mapped to -1/+1.

Sparse rows follow ARFF semantics: unspecified numeric entries are 0 and
unspecified nominal entries are the first value of their domain.

The data block is converted one column at a time, from one of two
tokenizers.  A plain dense block (no quotes, braces or '%', and one comma
fewer than attributes on every line) is split in one pass into a flat
list of cells, of which column j is every width-th cell from cell j.
Any other block is tokenized line by line, with sparse rows expanded.
Both feed the same column converters, so a bad cell is reported with its
line number, the earliest one first, whichever tokenizer read it.
"""

from __future__ import annotations

import csv
from itertools import repeat

import numpy as np

from .dataset import MISSING_CODE, NOMINAL, NUMERIC, Attribute, AttributeSchema, Dataset
from .errors import ParseError, SchemaError

_NUMERIC_TYPES = {"numeric", "real", "integer"}


def _unquote(token: str) -> str:
    token = token.strip()
    if len(token) >= 2 and token[0] == token[-1] and token[0] in ("'", '"'):
        return token[1:-1]
    return token


def _split_csv_like(text: str, line: int) -> list[str]:
    """Split on commas that are outside single or double quotes."""
    parts = []
    current = []
    quote = None
    for char in text:
        if quote:
            current.append(char)
            if char == quote:
                quote = None
        elif char in ("'", '"'):
            current.append(char)
            quote = char
        elif char == ",":
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    if quote:
        raise ParseError("unterminated quote", line=line)
    parts.append("".join(current))
    return parts


def _parse_attribute(rest: str, line: int) -> Attribute:
    rest = rest.strip()
    if not rest:
        raise ParseError("@attribute needs a name and a type", line=line)
    if rest[0] in ("'", '"'):
        quote = rest[0]
        end = rest.find(quote, 1)
        if end < 0:
            raise ParseError("unterminated attribute name", line=line)
        name = rest[1:end]
        type_part = rest[end + 1 :].strip()
    else:
        pieces = rest.split(None, 1)
        if len(pieces) != 2:
            raise ParseError("@attribute needs a name and a type", line=line)
        name, type_part = pieces[0], pieces[1].strip()
    if not type_part:
        raise ParseError(f"attribute {name!r} has no type", line=line)
    if type_part.startswith("{"):
        if not type_part.endswith("}"):
            raise ParseError(f"attribute {name!r} has an unterminated value set", line=line)
        values = [_unquote(v) for v in _split_csv_like(type_part[1:-1], line)]
        if not values or any(v == "" for v in values):
            raise ParseError(f"attribute {name!r} has an empty nominal value", line=line)
        return Attribute(name, NOMINAL, tuple(values))
    if type_part.lower() in _NUMERIC_TYPES:
        return Attribute(name, NUMERIC)
    raise ParseError(
        f"attribute {name!r} has unsupported type {type_part!r} "
        "(only numeric and nominal attributes are supported)",
        line=line,
    )


class _CellError(Exception):
    """A cell that does not convert, with its row so that the earliest is reported."""

    def __init__(self, row: int, error: Exception):
        super().__init__(row, error)
        self.row = row
        self.error = error


# Stands for an entry a sparse row leaves out of a nominal column, which is
# the first value of its domain, even where that value is '?'.
_SPARSE_DEFAULT = object()


def _sparse_tokens(text: str, defaults: list, line: int) -> list:
    """Expand a sparse row into one token per attribute."""
    body = text[1:-1].strip()
    row = list(defaults)
    if not body:
        return row
    for chunk in _split_csv_like(body, line):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty entry in sparse row", line=line)
        pieces = chunk.split(None, 1)
        if len(pieces) != 2:
            raise ParseError(f"sparse entry {chunk!r} needs an index and a value", line=line)
        try:
            index = int(pieces[0])
        except ValueError:
            raise ParseError(f"invalid sparse index {pieces[0]!r}", line=line) from None
        if not 0 <= index < len(defaults):
            raise ParseError(f"sparse index {index} out of range", line=line)
        row[index] = pieces[1]
    return row


def _bulk_columns(lines, data_line: int, width: int):
    """Cells by column and their line numbers of a plain dense data block, else None.

    Blank lines at the block's start and end are dropped.  The rest is
    plain when it holds no quote, brace or '%' and each of its lines has
    ``width - 1`` commas.  Its cells are then the per-line tokenizer's,
    except that a line's first and last cell keep the whitespace around
    the line, which every conversion strips, so one split of the joined
    lines reads them all.
    """
    first, end = data_line, len(lines)
    while first < end and not lines[first].strip():
        first += 1
    while end > first and not lines[end - 1].strip():
        end -= 1
    block = lines[first:end]
    # One attribute needs no comma, so a blank line inside the block would pass.
    if width < 2 or not block:
        return None
    if list(map(str.count, block, repeat(","))).count(width - 1) != len(block):
        return None
    joined = ",".join(block)
    if any(mark in joined for mark in ("'", '"', "{", "%")):
        return None
    cells = joined.split(",")
    return [cells[j::width] for j in range(width)], range(first + 1, end + 1)


def _tokenize_data(lines, data_line: int, attributes):
    """Token rows after the @data line, their line numbers and the first row error.

    Reading stops at a row that cannot be split into one token per
    attribute; its error is returned rather than raised, so that a bad
    value in an earlier row is still reported first.
    """
    width = len(attributes)
    defaults = ["0" if a.is_numeric else _SPARSE_DEFAULT for a in attributes]
    rows, numbers = [], []
    for number, raw in enumerate(lines[data_line:], start=data_line + 1):
        stripped = raw.strip()
        if not stripped or stripped[0] == "%":
            continue
        try:
            if stripped[0] == "{":
                if not stripped.endswith("}"):
                    raise ParseError("unterminated sparse row", line=number)
                tokens = _sparse_tokens(stripped, defaults, number)
            elif "'" in stripped or '"' in stripped:
                tokens = _split_csv_like(stripped, number)
            else:
                tokens = stripped.split(",")
            if len(tokens) != width:
                raise ParseError(f"row has {len(tokens)} values, expected {width}", line=number)
        except ParseError as error:
            return rows, numbers, error
        rows.append(tokens)
        numbers.append(number)
    return rows, numbers, None


def _numeric_column(attr: Attribute, cells, numbers) -> np.ndarray:
    try:
        # numpy calls float on each str, so this accepts exactly what float does.
        return np.array(cells, dtype=np.float64)
    except ValueError:
        pass  # missing or quoted cells, or a bad one
    column = np.empty(len(cells), dtype=np.float64)
    for i, cell in enumerate(cells):
        try:
            column[i] = float(cell)
            continue
        except ValueError:
            token = _unquote(cell)
        if token == "?":
            column[i] = np.nan
            continue
        try:
            column[i] = float(token)
        except ValueError:
            raise _CellError(i, ParseError(
                f"expected a number for attribute {attr.name!r}, got {token!r}", line=numbers[i]
            )) from None
    return column


class _NominalCodes(dict):
    """Value code of each raw token of one nominal attribute, filled on first sight."""

    def __init__(self, attr: Attribute):
        self.code_of = {v: c for c, v in enumerate(attr.values)}
        super().__init__({_SPARSE_DEFAULT: self.code_of[attr.values[0]]})
        self.code_of.setdefault("?", MISSING_CODE)

    def __missing__(self, cell):
        token = cell.strip()
        try:
            code = MISSING_CODE if token == "?" else self.code_of[_unquote(token)]
        except KeyError:
            raise KeyError(cell) from None
        self[cell] = code
        return code


def _nominal_column(attr: Attribute, cells, numbers) -> np.ndarray:
    try:
        return np.fromiter(map(_NominalCodes(attr).__getitem__, cells), dtype=np.int64,
                           count=len(cells))
    except KeyError as unknown:
        cell = unknown.args[0]
        i = cells.index(cell)
    raise _CellError(i, SchemaError(
        f"line {numbers[i]}: value {_unquote(cell)!r} is not in the domain "
        f"of attribute {attr.name!r}"
    ))


def _read_arff(path):
    """Attributes and one converted column per attribute of an ARFF file."""
    attributes: list[Attribute] = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    data_line = None
    for line_number, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        lowered = stripped.lower()
        if lowered.startswith("@relation"):
            continue
        if lowered.startswith("@attribute"):
            attributes.append(_parse_attribute(stripped[len("@attribute") :], line_number))
            continue
        if lowered.startswith("@data"):
            if not attributes:
                raise ParseError("@data before any @attribute", line=line_number)
            data_line = line_number
            break
        raise ParseError(f"unexpected header line {stripped!r}", line=line_number)
    if data_line is None:
        raise ParseError(f"{path}: no @data section found")

    bulk = _bulk_columns(lines, data_line, len(attributes))
    if bulk is not None:
        (cells_by_column, numbers), row_error = bulk, None
    else:
        rows, numbers, row_error = _tokenize_data(lines, data_line, attributes)
        cells_by_column = list(zip(*rows)) if rows else [() for _ in attributes]
    # Freed before the columns are built, which lowers the peak RSS of the
    # process that goes on to decode.
    del lines
    columns, cell_errors = [], []
    for j, (attr, cells) in enumerate(zip(attributes, cells_by_column)):
        convert = _numeric_column if attr.is_numeric else _nominal_column
        try:
            columns.append(convert(attr, cells, numbers))
        except _CellError as bad:
            cell_errors.append((bad.row, j, bad.error))
    if cell_errors:
        raise min(cell_errors)[2]
    if row_error is not None:
        raise row_error
    return attributes, columns


def _label_indices(attributes, labels) -> list[int]:
    names = [a.name for a in attributes]
    if isinstance(labels, int):
        if not 0 < labels < len(attributes):
            raise SchemaError(
                f"label count {labels} does not leave any feature among "
                f"{len(attributes)} attributes"
            )
        return list(range(len(attributes) - labels, len(attributes)))
    indices = []
    for label in labels:
        if label not in names:
            raise SchemaError(f"no attribute named {label!r} to use as a label")
        indices.append(names.index(label))
    if not indices:
        raise SchemaError("no label attributes given")
    return indices


def _assemble(attributes, columns, labels) -> Dataset:
    label_idx = _label_indices(attributes, labels)
    label_set = set(label_idx)
    for i in label_idx:
        attr = attributes[i]
        if attr.is_numeric or set(attr.values) != {"0", "1"}:
            raise SchemaError(
                f"label attribute {attr.name!r} must be nominal with domain {{0, 1}}"
            )
    codes = np.column_stack([columns[i] for i in label_idx])
    missing = np.argwhere(codes == MISSING_CODE)
    if missing.size:
        row, k = missing[0]
        raise SchemaError(
            f"example {row}: missing label value for {attributes[label_idx[k]].name!r}"
        )
    label_matrix = np.empty(codes.shape, dtype=np.int8)
    for k, i in enumerate(label_idx):
        sign = np.array([1 if v == "1" else -1 for v in attributes[i].values], dtype=np.int8)
        label_matrix[:, k] = sign[codes[:, k]]
    feature_idx = [i for i in range(len(attributes)) if i not in label_set]
    schema = AttributeSchema(tuple(attributes[i] for i in feature_idx))
    return Dataset(
        schema,
        [columns[i] for i in feature_idx],
        label_matrix,
        [attributes[i].name for i in label_idx],
    )


def load_arff(path, labels) -> Dataset:
    """Load an ARFF file; ``labels`` is a trailing count or a name list."""
    attributes, columns = _read_arff(path)
    if len(columns[0]) == 0:
        raise ParseError(f"{path}: no data rows")
    return _assemble(attributes, columns, labels)


def _needs_quoting(value: str) -> bool:
    return any(c in value for c in (" ", ",", "%", "{", "}", '"', "\t")) or value == "?"


def _format_nominal(value: str) -> str:
    if "'" in value:
        raise SchemaError(f"nominal value {value!r} contains a quote; cannot write ARFF")
    return f"'{value}'" if _needs_quoting(value) else value


def save_arff(dataset: Dataset, path, relation: str = "ruleboost") -> None:
    """Write a dense ARFF file whose reload reproduces the dataset exactly."""
    lines = [f"@relation {relation}", ""]
    for attr in dataset.schema.attributes:
        if attr.is_numeric:
            lines.append(f"@attribute {_format_nominal(attr.name)} numeric")
        else:
            values = ",".join(_format_nominal(v) for v in attr.values)
            lines.append(f"@attribute {_format_nominal(attr.name)} {{{values}}}")
    for name in dataset.label_names:
        lines.append(f"@attribute {_format_nominal(name)} {{0,1}}")
    lines.append("")
    lines.append("@data")
    cells = []
    for attr, column in zip(dataset.schema.attributes, dataset.columns):
        if attr.is_numeric:
            text = list(map(repr, column.tolist()))
            for i in np.flatnonzero(np.isnan(column)).tolist():
                text[i] = "?"
        else:
            # Code -1 (missing) picks the trailing '?'.
            formatted = [_format_nominal(v) for v in attr.values] + ["?"]
            text = np.array(formatted, dtype=object)[column].tolist()
        cells.append(text)
    for labels in dataset.labels.T:
        cells.append(np.where(labels == 1, "1", "0").tolist())
    lines.extend(map(",".join, zip(*cells)))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
        handle.write("\n")


def _is_missing(token: str) -> bool:
    return token.strip() in ("", "?")


def load_csv(path, labels) -> Dataset:
    """Load a CSV file with a header row.

    Column types are inferred from the first non-missing entry: numeric if
    it parses as a float, nominal otherwise (values in first-seen order).
    ``labels`` is a list of column names or a trailing-count integer.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file; a header row is required") from None
        header = [h.strip() for h in header]
        raw_rows = []
        for line_number, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"row has {len(row)} values, expected {len(header)}", line=line_number
                )
            raw_rows.append((line_number, [c.strip() for c in row]))
    if not raw_rows:
        raise ParseError(f"{path}: no data rows")

    if isinstance(labels, int):
        if not 0 < labels < len(header):
            raise SchemaError(f"label count {labels} invalid for {len(header)} columns")
        label_names = header[-labels:]
    else:
        label_names = list(labels)
    label_set = set(label_names)
    missing_labels = label_set - set(header)
    if missing_labels:
        raise SchemaError(f"label columns not found in header: {sorted(missing_labels)}")

    attributes = []
    columns = []
    for j, name in enumerate(header):
        if name in label_set:
            continue
        tokens = [(line, row[j]) for line, row in raw_rows]
        first = next((t for _, t in tokens if not _is_missing(t)), None)
        numeric = False
        if first is not None:
            try:
                float(first)
                numeric = True
            except ValueError:
                numeric = False
        if numeric:
            column = np.empty(len(tokens), dtype=np.float64)
            for i, (line, token) in enumerate(tokens):
                if _is_missing(token):
                    column[i] = np.nan
                else:
                    try:
                        column[i] = float(token)
                    except ValueError:
                        raise ParseError(
                            f"column {name!r} is numeric but got {token!r}", line=line
                        ) from None
            attributes.append(Attribute(name, NUMERIC))
        else:
            code_of: dict[str, int] = {}
            column = np.empty(len(tokens), dtype=np.int64)
            for i, (_, token) in enumerate(tokens):
                if _is_missing(token):
                    column[i] = MISSING_CODE
                else:
                    column[i] = code_of.setdefault(token, len(code_of))
            if not code_of:
                raise SchemaError(f"column {name!r} has no values at all")
            attributes.append(Attribute(name, NOMINAL, tuple(code_of)))
        columns.append(column)

    schema = AttributeSchema(tuple(attributes))
    n = len(raw_rows)
    label_matrix = np.empty((n, len(label_names)), dtype=np.int8)
    for k, name in enumerate(label_names):
        j = header.index(name)
        for i, (line, row) in enumerate(raw_rows):
            token = row[j]
            if token == "1":
                label_matrix[i, k] = 1
            elif token == "0":
                label_matrix[i, k] = -1
            else:
                raise SchemaError(
                    f"line {line}: label {name!r} has value {token!r}, expected 0 or 1"
                )
    return Dataset(schema, columns, label_matrix, label_names)
