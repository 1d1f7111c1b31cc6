"""Dataset ingestion: an ARFF subset and headered CSV, plus an ARFF writer.

The ARFF reader supports @relation, numeric and nominal @attribute
declarations, dense and sparse @data rows, quoted values and '?' missing
markers; a quoted '?' is a value where a nominal domain declares it.
Label attributes are the trailing ones (or an explicit list of names);
they must be nominal with domain {0, 1} and are mapped to -1/+1.

Sparse rows follow ARFF semantics: unspecified numeric entries are 0 and
unspecified nominal entries are the first value of their domain.

A CSV file has a header row and the csv module's quoting; cells are
stripped, blank rows skipped, and an empty or '?' cell is missing.  A
column's first non-missing cell makes it numeric (if it is a float) or
nominal (values in first-seen order).  Labels are exactly 0 or 1.

Each format is read in two steps: ``read_arff_block`` or
``read_csv_block`` reads the header and keeps the lines, and
``load_arff`` or ``load_csv`` converts a range of the data lines, the
whole block or a share of it (``DataBlock.split``), as one flat list of
cells, row after row.  A block whose every line is plain (see
``_plain``) is split in one pass; any other has every row read by the
ARFF line tokenizer or one csv reader, whose record may span lines.
The columns are then converted one at a time.  An error about a line
carries it as ``line`` and its message starts with it.  ARFF reports a
bad label spec, then the earliest bad line, a missing label value
included; CSV reports a row of the wrong width, then a bad label spec,
then the feature columns in header order, then the label columns in the
order given.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .dataset import MISSING_CODE, NOMINAL, NUMERIC, Attribute, AttributeSchema, Dataset
from .errors import ParseError, RuleBoostError, SchemaError, read_text

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


# Stands for an entry a sparse row leaves out of a nominal column, which is
# the first value of its domain, even where that value is '?'.
_SPARSE_DEFAULT = object()


def _sparse_tokens(text: str, defaults: list, line: int) -> list:
    """Expand a sparse row into one token per attribute."""
    body = text[1:-1].strip()
    row = list(defaults)
    if not body:
        return row
    last = -1
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
        if index <= last:
            raise ParseError(f"sparse index {index} follows {last}; indices must ascend", line=line)
        row[index] = pieces[1]
        last = index
    return row


@dataclass(frozen=True)
class DataBlock:
    """A data file read once: its header, its lines and a range of its data lines.

    The header is an ARFF file's attributes or, with ``csv`` set, a CSV
    file's column names; a CSV file's lines keep their line ends.  The
    range is ``lines[start:stop]``; ``split`` gives shares of it.
    """

    header: tuple
    lines: list
    start: int
    stop: int
    csv: bool = False

    def __len__(self) -> int:
        return self.stop - self.start

    def split(self, n_shares: int) -> list[DataBlock]:
        """``n_shares`` consecutive shares of whole lines, of about equal size."""
        bounds = [self.start + len(self) * k // n_shares for k in range(n_shares + 1)]
        return [replace(self, start=start, stop=stop) for start, stop in zip(bounds, bounds[1:])]


def _tokenize_line(raw: str, number: int, defaults: list, width: int):
    """One data line's tokens, one per attribute, or None for a blank or comment line."""
    stripped = raw.strip()
    if not stripped or stripped[0] == "%":
        return None
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
    return tokens


def _plain(lines, joined: str, width: int, in_csv: bool) -> bool:
    """Whether one split of ``joined``, ``",".join(lines)``, reads every line as its reader does.

    A line is plain when it has ``width - 1`` commas and no quote, nor in
    ARFF a brace or '%', nor in CSV only blank cells or more characters
    than the csv module's field size limit.  Its cells are then its
    reader's but for the whitespace and line end around them, which every
    conversion strips.  With one column no line is plain.
    """
    if width < 2 or list(map(str.count, lines, repeat(","))).count(width - 1) != len(lines):
        return False
    if not in_csv:
        return not any(mark in joined for mark in ("'", '"', "{", "%"))
    blank = map(str.isspace, map(str.replace, lines, repeat(","), repeat(" ")))
    return ('"' not in joined and not any(blank)
            and max(map(len, lines)) <= csv.field_size_limit())


def _csv_rows(lines, first: int, width: int):
    """Each CSV record of ``lines`` with the number of its first line in the file, None for a
    record of only blank cells.  A record of the wrong width, or that the csv module refuses,
    raises ParseError naming that line.
    """
    reader = csv.reader(lines)
    number = first + 1
    try:
        for row in reader:
            if not any(map(str.strip, row)):
                row = None
            elif len(row) != width:
                raise ParseError(f"row has {len(row)} values, expected {width}", line=number)
            yield number, row
            number = first + reader.line_num + 1
    except csv.Error as error:
        raise ParseError(str(error), line=number) from None


def _data_cells(block: DataBlock):
    """The block's cells row after row, each row's line number, and the first row error.

    A block of plain lines (see ``_plain``) is split in one pass; any other
    has every row read by ``_tokenize_line`` or one csv reader.  Reading
    stops at a row that is not one token per column; its error is
    returned, so that a bad value in an earlier ARFF row is reported first.
    """
    first, end = block.start, block.stop
    while not block.csv and first < end and not block.lines[first].strip():
        first += 1
    while not block.csv and end > first and not block.lines[end - 1].strip():
        end -= 1
    width = len(block.header)
    lines = block.lines[first:end]
    joined = ",".join(lines)
    if lines and _plain(lines, joined, width, block.csv):
        return joined.split(","), range(first + 1, end + 1), None
    if block.csv:
        rows = _csv_rows(lines, first, width)
    else:
        defaults = ["0" if a.is_numeric else _SPARSE_DEFAULT for a in block.header]
        rows = ((number, _tokenize_line(line, number, defaults, width))
                for number, line in enumerate(lines, first + 1))
    cells, numbers = [], []
    try:
        for number, row in rows:
            if row is not None:
                cells.extend(row)
                numbers.append(number)
    except ParseError as error:
        return cells, numbers, error
    return cells, numbers, None


def _floats(cells, token_of, missing, error) -> np.ndarray:
    """The cells as floats, NaN where ``token_of`` is ``missing``; else ``error(row, token)``."""
    try:
        # numpy calls float on each str, so this accepts exactly what float does.
        return np.array(cells, dtype=np.float64)
    except ValueError:
        pass  # missing or quoted cells, or a bad one
    column = np.empty(len(cells), dtype=np.float64)
    for i, cell in enumerate(cells):
        try:
            column[i] = float(cell)
        except ValueError:
            token = token_of(cell)
            try:
                column[i] = np.nan if token in missing else float(token)
            except ValueError:
                raise error(i, token) from None
    return column


def _numeric_column(attr: Attribute, cells, numbers) -> np.ndarray:
    return _floats(cells, _unquote, ("?",), lambda i, token: ParseError(
        f"expected a number for attribute {attr.name!r}, got {token!r}", line=numbers[i]))


class _Codes(dict):
    """The code of each distinct raw cell, ``code_of`` its stripped text, found on first sight."""

    def __init__(self, code_of, known=()):
        super().__init__(known)
        self.code_of = code_of

    def __missing__(self, cell):
        code = self[cell] = self.code_of(cell.strip())
        return code

    def column(self, cells, error=None, dtype=np.int64) -> np.ndarray:
        """The cells' codes; the first that ``code_of`` has none for raises ``error(its row)``."""
        try:
            return np.fromiter(map(self.__getitem__, cells), dtype=dtype, count=len(cells))
        except KeyError:
            raise error(next(i for i, cell in enumerate(cells) if cell not in self)) from None


def _nominal_column(attr: Attribute, cells, numbers) -> np.ndarray:
    code_of = {v: c for c, v in enumerate(attr.values)}
    known = {_SPARSE_DEFAULT: code_of[attr.values[0]]}
    code_of.setdefault("?", MISSING_CODE)
    codes = _Codes(lambda token: MISSING_CODE if token == "?" else code_of[_unquote(token)], known)
    return codes.column(cells, lambda i: SchemaError(
        f"value {_unquote(cells[i])!r} is not in the domain of attribute {attr.name!r}",
        line=numbers[i]))


def read_arff_block(path) -> DataBlock:
    """An ARFF file's attributes and its whole data block; a bad header line raises ParseError."""
    attributes: list[Attribute] = []
    lines = read_text(path).split("\n")
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
            # The data block starts on the line after @data, at index line_number.
            return DataBlock(tuple(attributes), lines, line_number, len(lines))
        raise ParseError(f"unexpected header line {stripped!r}", line=line_number)
    raise ParseError(f"{path}: no @data section found")


def _columns(block: DataBlock, label_idx) -> tuple[list[np.ndarray], list[int]]:
    """Each attribute's converted column and each row's line; the earliest bad line raises.
    A missing value in a label column, one of ``label_idx``, is a bad cell."""
    cells, numbers, row_error = _data_cells(block)
    width = len(block.header)
    columns, cell_errors = [], []
    for j, attr in enumerate(block.header):
        convert = _numeric_column if attr.is_numeric else _nominal_column
        try:
            columns.append(convert(attr, cells[j::width], numbers))
        except RuleBoostError as error:
            cell_errors.append((error.line, j, error))
            continue
        missing = np.flatnonzero(columns[-1] == MISSING_CODE) if j in label_idx else ()
        if len(missing):
            error = SchemaError(f"missing label value for {attr.name!r}", line=numbers[missing[0]])
            cell_errors.append((error.line, j, error))
    if cell_errors:
        raise min(cell_errors)[2]
    if row_error is not None:
        raise row_error
    return columns, numbers


def _label_indices(attributes, labels) -> list[int]:
    """The label attributes' indices; each must be nominal with domain {0, 1}."""
    names = [a.name for a in attributes]
    if isinstance(labels, int):
        if not 0 < labels < len(attributes):
            raise SchemaError(
                f"label count {labels} does not leave any feature among "
                f"{len(attributes)} attributes"
            )
        indices = list(range(len(attributes) - labels, len(attributes)))
    else:
        indices = []
        for label in labels:
            if label not in names:
                raise SchemaError(f"no attribute named {label!r} to use as a label")
            indices.append(names.index(label))
        if not indices:
            raise SchemaError("no label attributes given")
    for i in indices:
        attr = attributes[i]
        if attr.is_numeric or set(attr.values) != {"0", "1"}:
            raise SchemaError(
                f"label attribute {attr.name!r} must be nominal with domain {{0, 1}}"
            )
    return indices


def _assemble(attributes, columns, label_idx) -> Dataset:
    label_set = set(label_idx)
    codes = np.column_stack([columns[i] for i in label_idx])
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


def load_arff(path, labels, block: DataBlock | None = None) -> Dataset:
    """Load an ARFF file; ``labels`` is a trailing count or a name list.

    ``block``, the file's ``read_arff_block`` or a share of it, loads only
    its lines, without reading the file again.
    """
    if block is None:
        block = read_arff_block(path)
    label_idx = _label_indices(block.header, labels)
    columns, numbers = _columns(block, label_idx)
    if not numbers:
        raise ParseError(f"{path}: no data rows")
    return _assemble(block.header, columns, label_idx)


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


def read_csv_block(path) -> DataBlock:
    """A CSV file's column names and its whole data block; an empty file raises ParseError.

    The lines are split as the csv module splits them and keep their ends.
    """
    lines = read_text(path, lines=True)
    reader = csv.reader(lines)
    try:
        header = next(reader, None)
    except csv.Error as error:
        raise ParseError(str(error), line=1) from None
    if header is None:
        raise ParseError(f"{path}: empty file; a header row is required")
    return DataBlock(tuple(map(str.strip, header)), lines, reader.line_num, len(lines), True)


_CSV_MISSING = ("", "?")


def _csv_column(name: str, cells, numbers) -> tuple[Attribute, np.ndarray]:
    """A CSV feature column's attribute and values; its first non-missing cell decides its kind."""
    first = next((t for t in map(str.strip, cells) if t not in _CSV_MISSING), "")
    try:
        float(first)
    except ValueError:
        values = {}
        column = _Codes(lambda token: MISSING_CODE if token in _CSV_MISSING
                        else values.setdefault(token, len(values))).column(cells)
        if not values:
            raise SchemaError(f"column {name!r} has no values at all") from None
        return Attribute(name, NOMINAL, tuple(values)), column
    return Attribute(name, NUMERIC), _floats(cells, str.strip, _CSV_MISSING, lambda i, token: (
        ParseError(f"column {name!r} is numeric but got {token!r}", line=numbers[i])))


def load_csv(path, labels, block: DataBlock | None = None) -> Dataset:
    """Load a CSV file with a header row; ``labels`` is a trailing count or a name list.

    ``block``, the file's ``read_csv_block``, loads without reading the file again.
    """
    if block is None:
        block = read_csv_block(path)
    cells, numbers, row_error = _data_cells(block)
    if row_error is not None:
        raise row_error
    if not numbers:
        raise ParseError(f"{path}: no data rows")
    header = block.header
    if isinstance(labels, int) and not 0 < labels < len(header):
        raise SchemaError(f"label count {labels} invalid for {len(header)} columns")
    label_names = list(header[-labels:] if isinstance(labels, int) else labels)
    if not label_names:
        raise SchemaError("no label attributes given")
    label_set = set(label_names)
    if label_set - set(header):
        raise SchemaError(f"label columns not found in header: {sorted(label_set - set(header))}")
    width = len(header)
    # Label columns by position, as in ARFF: a count takes the trailing ones, a name its first.
    label_idx = (range(width - labels, width) if isinstance(labels, int)
                 else [header.index(name) for name in label_names])
    features = [_csv_column(name, cells[j::width], numbers)
                for j, name in enumerate(header) if j not in label_idx]
    schema = AttributeSchema(tuple(attr for attr, _ in features))
    label_matrix = np.empty((len(numbers), len(label_names)), dtype=np.int8)
    for k, (name, j) in enumerate(zip(label_names, label_idx)):
        column = cells[j::width]
        signs = _Codes({"0": -1, "1": 1}.__getitem__)
        label_matrix[:, k] = signs.column(column, lambda i: SchemaError(
            f"label {name!r} has value {column[i].strip()!r}, expected 0 or 1", line=numbers[i]
        ), np.int8)
    return Dataset(schema, [column for _, column in features], label_matrix, label_names)
