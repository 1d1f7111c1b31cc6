"""ARFF and CSV ingestion, export round trips."""

import csv
import io
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruleboost import dataio
from ruleboost.dataio import load_arff, load_csv, save_arff
from ruleboost.dataset import NUMERIC, Attribute
from ruleboost.errors import ParseError, RuleBoostError, SchemaError

from reference import row_values

DENSE_ARFF = """% toy dataset
@relation toy

@attribute width numeric
@attribute color {red, green, blue}
@attribute label1 {0, 1}

@data
1.5, red, 1
2.5, blue, 0
?, green, 1
"""

SPARSE_ARFF = """@relation sparse
@attribute a numeric
@attribute b numeric
@attribute c {x, y}
@attribute d numeric
@attribute label1 {0, 1}
@data
{0 1.5, 3 1, 4 1}
{1 2.0, 2 y}
{}
"""

QUOTED_ARFF = """@relation quoted
@attribute 'my attr' numeric
@attribute cls {'a value', "other,value"}
@attribute label1 {0,1}
@data
1.0, 'a value', 1
2.0, "other,value", 0
"""


class TestLoadArffDense:
    def test_minimal_dense_file(self, tmp_path):
        path = tmp_path / "toy.arff"
        path.write_text(DENSE_ARFF)
        dataset = load_arff(path, 1)
        assert dataset.n_examples == 3
        assert dataset.n_attributes == 2
        assert dataset.label_names == ["label1"]
        assert dataset.labels[:, 0].tolist() == [1, -1, 1]
        assert row_values(dataset, 0) == (1.5, "red")

    def test_missing_value_marker(self, tmp_path):
        path = tmp_path / "toy.arff"
        path.write_text(DENSE_ARFF)
        dataset = load_arff(path, 1)
        assert row_values(dataset, 2)[0] is None
        assert np.isnan(dataset.columns[0][2])

    def test_labels_by_name(self, tmp_path):
        path = tmp_path / "toy.arff"
        path.write_text(DENSE_ARFF)
        dataset = load_arff(path, ["label1"])
        assert dataset.label_names == ["label1"]
        assert dataset.n_attributes == 2

    def test_quoted_names_and_values(self, tmp_path):
        path = tmp_path / "quoted.arff"
        path.write_text(QUOTED_ARFF)
        dataset = load_arff(path, 1)
        assert dataset.schema[0].name == "my attr"
        assert dataset.schema[1].values == ("a value", "other,value")
        assert row_values(dataset, 1) == (2.0, "other,value")


class TestLoadArffSparse:
    def test_sparse_expansion(self, tmp_path):
        path = tmp_path / "sparse.arff"
        path.write_text(SPARSE_ARFF)
        dataset = load_arff(path, 1)
        # Hand-expanded expectations: numeric default 0, nominal default first value.
        assert row_values(dataset, 0) == (1.5, 0.0, "x", 1.0)
        assert row_values(dataset, 1) == (0.0, 2.0, "y", 0.0)
        assert row_values(dataset, 2) == (0.0, 0.0, "x", 0.0)
        assert dataset.labels[:, 0].tolist() == [1, -1, -1]


class TestLoadArffErrors:
    def test_row_width_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.arff"
        path.write_text(
            "@relation r\n@attribute a numeric\n@attribute label1 {0,1}\n@data\n1,1\n1\n"
        )
        with pytest.raises(ParseError) as info:
            load_arff(path, 1)
        assert "line 6" in str(info.value)

    def test_bad_number_reported(self, tmp_path):
        path = tmp_path / "bad.arff"
        path.write_text(
            "@relation r\n@attribute a numeric\n@attribute label1 {0,1}\n@data\nxyz,1\n"
        )
        with pytest.raises(ParseError) as info:
            load_arff(path, 1)
        assert "line 5" in str(info.value)

    def test_unknown_nominal_value_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.arff"
        path.write_text(
            "@relation r\n@attribute c {x,y}\n@attribute label1 {0,1}\n@data\nz,1\n"
        )
        with pytest.raises(SchemaError):
            load_arff(path, 1)

    @pytest.mark.parametrize("text,message", [
        ("@relation r\n@attribute c {x,y}\n@attribute label1 {0,1}\n@data\nx,1\n\nz,1\n",
         "line 7: value 'z' is not in the domain of attribute 'c'"),
        ("@relation r\n@attribute a numeric\n@attribute label1 {0,1}\n@data\n1,1\n% c\n2,?\n",
         "line 7: missing label value for 'label1'"),
    ], ids=["nominal-cell", "missing-label"])
    def test_a_schema_error_carries_its_line(self, tmp_path, text, message):
        path = tmp_path / "bad.arff"
        path.write_text(text)
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$") as caught:
            load_arff(path, 1)
        assert caught.value.line == 7

    def test_a_missing_label_before_a_bad_cell_is_reported_first(self, tmp_path):
        path = tmp_path / "bad.arff"
        path.write_text("@relation r\n@attribute x numeric\n@attribute l {0,1}\n@data\n"
                        "1,1\n?,?\n2,0\noops,0\n")
        with pytest.raises(SchemaError, match="^line 6: missing label value for 'l'$") as caught:
            load_arff(path, 1)
        assert caught.value.line == 6

    def test_unsupported_attribute_type(self, tmp_path):
        path = tmp_path / "bad.arff"
        path.write_text("@relation r\n@attribute a string\n@data\n")
        with pytest.raises(ParseError):
            load_arff(path, 1)

    def test_label_domain_must_be_binary(self, tmp_path):
        path = tmp_path / "bad.arff"
        path.write_text(
            "@relation r\n@attribute a numeric\n@attribute label1 {yes,no}\n@data\n1,yes\n"
        )
        with pytest.raises(SchemaError):
            load_arff(path, 1)

    def test_numeric_label_column_rejected(self, tmp_path):
        path = tmp_path / "bad.arff"
        path.write_text(
            "@relation r\n@attribute a numeric\n@attribute label1 numeric\n@data\n1,1\n"
        )
        with pytest.raises(SchemaError):
            load_arff(path, 1)

    def test_missing_data_section(self, tmp_path):
        path = tmp_path / "bad.arff"
        path.write_text("@relation r\n@attribute a numeric\n")
        with pytest.raises(ParseError):
            load_arff(path, 1)

    def test_non_utf8_file_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.arff"
        path.write_bytes(DENSE_ARFF.replace("red", "r\xe9d").encode("latin-1"))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            load_arff(path, 1)

    def test_label_named_twice(self, tmp_path):
        path = tmp_path / "toy.arff"
        path.write_text(DENSE_ARFF)
        with pytest.raises(SchemaError, match="^label 'label1' is named twice$"):
            load_arff(path, ["label1", "label1"])

    @pytest.mark.parametrize("row,message", [
        ("{0 1,,1 0}", "empty entry in sparse row"),
        ("{0}", "sparse entry '0' needs an index and a value"),
        ("{5 1}", "sparse index 5 out of range"),
        ("{0 1, 0 2, 2 1}", "sparse index 0 follows 0; indices must ascend"),
        ("{1 5, 0 3, 2 0}", "sparse index 0 follows 1; indices must ascend"),
    ], ids=["empty-entry", "no-value", "index-out-of-range", "repeated-index", "descending-index"])
    def test_bad_sparse_entry_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "sparse.arff"
        path.write_text(SPARSE_ARFF + row + "\n")
        with pytest.raises(ParseError, match=f"^line 11: {re.escape(message)}$"):
            load_arff(path, 1)

    def test_data_before_any_attribute(self, tmp_path):
        path = tmp_path / "bad.arff"
        path.write_text("@relation r\n@data\n1\n")
        with pytest.raises(ParseError, match="^line 2: @data before any @attribute$"):
            load_arff(path, 1)


class TestArffRoundTrip:
    def test_a_quote_in_a_nominal_value_cannot_be_written(self, tmp_path):
        path = tmp_path / "toy.arff"
        path.write_text(DENSE_ARFF.replace("green", '"it\'s"'))
        dataset = load_arff(path, 1)
        assert "it's" in dataset.schema[1].values
        with pytest.raises(SchemaError,
                           match='^nominal value "it\'s" contains a quote; cannot write ARFF$'):
            save_arff(dataset, tmp_path / "out.arff")

    def test_save_and_reload_identical(self, tmp_path, rng):
        from conftest import random_dataset

        dataset = random_dataset(
            rng, 25, n_numeric=2, n_nominal=2, n_labels=3, missing_rate=0.2
        )
        path = tmp_path / "round.arff"
        save_arff(dataset, path)
        reloaded = load_arff(path, 3)
        assert reloaded.label_names == dataset.label_names
        assert np.array_equal(reloaded.labels, dataset.labels)
        for original, restored in zip(dataset.columns, reloaded.columns):
            np.testing.assert_array_equal(original, restored)

    def test_round_trip_preserves_exact_floats(self, tmp_path):
        from ruleboost.dataset import NUMERIC, Attribute, AttributeSchema, Dataset

        schema = AttributeSchema((Attribute("x", NUMERIC),))
        values = [0.1, 1.0 / 3.0, 2.0**-40, 1e300]
        dataset = Dataset(schema, [np.array(values)], np.ones((4, 1), dtype=np.int8), ["l0"])
        path = tmp_path / "floats.arff"
        save_arff(dataset, path)
        reloaded = load_arff(path, 1)
        assert reloaded.columns[0].tobytes() == dataset.columns[0].tobytes()


class TestArffQuestionMarkValue:
    """Only an unquoted '?' is missing; a quoted one is a value where the domain declares it."""

    def test_declared_question_mark_round_trips(self, tmp_path):
        from ruleboost.dataset import NOMINAL, Attribute, AttributeSchema, Dataset

        schema = AttributeSchema((Attribute("c", NOMINAL, ("?", "q")),))
        codes = np.array([0, 1, -1])
        dataset = Dataset(schema, [codes], np.ones((3, 1), dtype=np.int8), ["l0"])
        path = tmp_path / "question.arff"
        save_arff(dataset, path)
        assert load_arff(path, 1).columns[0].tolist() == [0, 1, -1]

    def test_quoted_question_mark_outside_the_domain_is_missing(self, tmp_path):
        path = tmp_path / "quoted.arff"
        path.write_text(
            "@relation r\n@attribute c {a, b}\n@attribute l0 {0, 1}\n"
            "@data\n'?', 1\n ? , 0\nb, 1\n"
        )
        assert load_arff(path, 1).columns[0].tolist() == [-1, -1, 1]


MIXED_VALUES = ("plain", "with space", "comma,inside", "50%", "{brace}")


def mixed_table(rng, n=60):
    """Numeric columns with NaNs and nominal columns with missing codes and quoted values."""
    from ruleboost.dataset import NOMINAL, NUMERIC, Attribute, AttributeSchema, Dataset

    schema = AttributeSchema((
        Attribute("x", NUMERIC),
        Attribute("odd name", NOMINAL, MIXED_VALUES),
        Attribute("y", NUMERIC),
        Attribute("z", NOMINAL, ("a", "b")),
    ))
    x = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    x[rng.random(n) < 0.2] = np.nan
    x[:3] = [0.0, -0.0, 0.1]
    y = np.where(rng.random(n) < 0.5, 0.0, rng.normal(size=n))
    y[rng.random(n) < 0.2] = np.nan
    columns = [
        x,
        rng.integers(-1, len(MIXED_VALUES), size=n),
        y,
        rng.integers(-1, 2, size=n),
    ]
    labels = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, 3))
    return Dataset(schema, columns, labels, ["l0", "l1", "l2"])


def sparse_arff(dense_text, dataset):
    """The same table with every data row written sparsely, omitting default entries."""
    header = dense_text[: dense_text.index("@data")] + "@data\n"
    rows = []
    for i in range(dataset.n_examples):
        entries = []
        for j, (attr, column) in enumerate(zip(dataset.schema.attributes, dataset.columns)):
            value = column[i]
            if attr.is_numeric:
                if np.isnan(value):
                    entries.append(f"{j} ?")
                elif value != 0.0 or np.signbit(value):
                    entries.append(f"{j} {float(value)!r}")
            elif value == -1:
                entries.append(f"{j} ?")
            elif value != 0:
                entries.append(f"{j} '{attr.values[value]}'")
        first_label = dataset.n_attributes
        entries += [f"{first_label + k} 1" for k in np.flatnonzero(dataset.labels[i] == 1)]
        rows.append("{" + ", ".join(entries) + "}")
    return header + "\n".join(rows) + "\n"


class TestArffRoundTripMixed:
    def assert_same(self, original, restored):
        assert restored.schema == original.schema
        assert restored.label_names == original.label_names
        assert restored.labels.tobytes() == original.labels.tobytes()
        for before, after in zip(original.columns, restored.columns):
            assert after.dtype == before.dtype
            assert after.tobytes() == before.tobytes()

    def test_dense_sparse_comments_and_crlf(self, tmp_path, rng):
        dataset = mixed_table(rng)
        path = tmp_path / "mixed.arff"
        save_arff(dataset, path)
        dense = path.read_text()
        self.assert_same(dataset, load_arff(path, 3))

        head, data = dense.split("@data\n")
        rows = data.splitlines()
        rows.insert(5, "% a comment inside the data")
        rows.insert(9, "")
        rows.insert(12, "   ")
        variants = {
            "commented.arff": head + "@data\n" + "\n".join(rows) + "\n",
            "crlf.arff": dense.replace("\n", "\r\n"),
            "sparse.arff": sparse_arff(dense, dataset),
        }
        for name, text in variants.items():
            variant = tmp_path / name
            variant.write_bytes(text.encode("utf-8"))
            self.assert_same(dataset, load_arff(variant, 3))

    def test_save_writes_each_cell_format(self, tmp_path):
        from ruleboost.dataset import NOMINAL, NUMERIC, Attribute, AttributeSchema, Dataset

        schema = AttributeSchema((
            Attribute("x", NUMERIC), Attribute("odd name", NOMINAL, MIXED_VALUES)
        ))
        columns = [np.array([-0.0, np.nan, 0.1, 1e300]), np.array([0, 1, -1, 2])]
        labels = np.array([[1], [-1], [1], [-1]], dtype=np.int8)
        path = tmp_path / "cells.arff"
        save_arff(Dataset(schema, columns, labels, ["l0"]), path, relation="cells")
        assert path.read_text() == (
            "@relation cells\n\n"
            "@attribute x numeric\n"
            "@attribute 'odd name' {plain,'with space','comma,inside','50%','{brace}'}\n"
            "@attribute l0 {0,1}\n\n"
            "@data\n"
            "-0.0,plain,1\n"
            "?,'with space',0\n"
            "0.1,?,1\n"
            "1e+300,'comma,inside',0\n"
        )


NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-1000, 1000).map(str),
    st.sampled_from(["?", "nan", "-Infinity", "1e999", "1_0", "-0.0", ".5", "5."]),
)
NOMINAL_VALUES = ("a", "b", "c")
# A row one cell short or long, one of each (so that the block's comma
# count is right), or one cell that does not convert.
FAULTS = (None, "short", "long", "shifted", "number", "nominal", "label")
WIDTH_FAULTS = ("short", "long", "shifted")
BAD_CELLS = {"number": "1.2.3", "nominal": "zz", "label": "2"}


@st.composite
def dense_arff_files(draw):
    """An ARFF text with a dense, unquoted data block, its label count and its fault."""
    numeric = draw(st.lists(st.booleans(), min_size=1, max_size=3))
    n_labels = draw(st.integers(1, 2))
    header = [f"@attribute x{j} numeric" if is_numeric else f"@attribute x{j} {{a,b,c}}"
              for j, is_numeric in enumerate(numeric)]
    header += [f"@attribute l{k} {{0,1}}" for k in range(n_labels)]
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        row = [draw(NUMBER_CELLS) if is_numeric else draw(st.sampled_from(NOMINAL_VALUES + ("?",)))
               for is_numeric in numeric]
        rows.append(row + [draw(st.sampled_from(["0", "1"])) for _ in range(n_labels)])
    fault = draw(st.sampled_from(FAULTS))
    if fault == "shifted" and len(rows) == 1:
        fault = "short"
    i = draw(st.integers(0, len(rows) - 1))
    if fault in ("short", "shifted"):
        rows[i].pop(draw(st.integers(0, len(rows[i]) - 1)))
    if fault in ("long", "shifted"):
        # A shifted block's long row is the one after its short row.
        j = (i + 1) % len(rows) if fault == "shifted" else i
        rows[j].insert(draw(st.integers(0, len(rows[j]))), draw(NUMBER_CELLS))
    if fault in BAD_CELLS:
        columns = {
            "number": [j for j, is_numeric in enumerate(numeric) if is_numeric],
            "nominal": [j for j, is_numeric in enumerate(numeric) if not is_numeric],
            "label": list(range(len(numeric), len(numeric) + n_labels)),
        }[fault]
        if columns:
            rows[i][draw(st.sampled_from(columns))] = BAD_CELLS[fault]
        else:
            fault = None
    pad = st.sampled_from(["", " ", "  ", "\t"])
    lines = [",".join(draw(pad) + cell + draw(pad) for cell in row) for row in rows]
    blank = st.lists(st.sampled_from(["", "  ", "\t"]), max_size=2)
    lines = draw(blank) + lines + draw(blank)
    # Lines that the per-line tokenizer reads, anywhere in the block: comments,
    # blank lines, a sparse row of defaults, a row with quoted cells, and a row
    # whose first two cells are one quoted value, which has a plain row's commas.
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        quote = draw(st.sampled_from(["'", '"']))
        special = draw(st.sampled_from([
            "% a comment, with, commas", "%", "", " \t", "{}", ",".join(f"'{c}'" for c in row),
            quote + ",".join(row[:2]) + quote + "".join("," + c for c in row[2:]),
        ]))
        lines.insert(draw(st.integers(0, len(lines))), special)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(["@relation r", *header, "@data", *lines])
    return text + draw(st.sampled_from(["", eol])), n_labels, fault


def outcome(path, labels, load=load_arff):
    """What loading gives: the dataset's schema, labels and column bytes, or the error."""
    try:
        dataset = load(path, labels)
    except RuleBoostError as exc:
        return type(exc), str(exc)
    return (dataset.schema, dataset.label_names, dataset.labels.tobytes(),
            [(column.dtype.str, column.tobytes()) for column in dataset.columns])


def tokenizer_unused(*args):
    raise AssertionError("the per-line tokenizer read a plain block")


def never_plain(*args):
    """Stands for ``_plain``: every row goes through the format's own reader."""
    return False


def is_plain(line, width):
    """Whether one split of the block reads ``line`` as the per-line tokenizer does."""
    return (width > 1 and bool(line.strip()) and line.count(",") == width - 1
            and not any(mark in line for mark in "'\"{%"))


def data_lines(path):
    """The lines of an ARFF file's data block, without the blank lines at either end."""
    block = dataio.read_arff_block(path)
    lines = block.lines[block.start:block.stop]
    while lines and not lines[-1].strip():
        lines.pop()
    while lines and not lines[0].strip():
        lines.pop(0)
    return lines, len(block.header)


class TestBulkDataBlock:
    """A plain dense block is split in one pass; it loads as the per-line tokenizer reads it."""

    @settings(max_examples=200, deadline=None)
    @given(dense_arff_files())
    def test_same_dataset_or_error_as_the_line_tokenizer(self, case):
        text, n_labels, fault = case
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "data.arff"
            path.write_bytes(text.encode("utf-8"))
            with mock.patch.object(dataio, "_plain", never_plain):
                expected = outcome(path, n_labels)
            with mock.patch.object(dataio, "_tokenize_line", wraps=dataio._tokenize_line) as spy:
                actual = outcome(path, n_labels)
            lines, width = data_lines(path)
        assert actual == expected
        # A plain block is not tokenized; any other is, line after line up to a bad row.
        tokenized = [call.args[0] for call in spy.call_args_list]
        if all(is_plain(line, width) for line in lines):
            assert tokenized == []
        else:
            assert tokenized and tokenized == lines[:len(tokenized)]
        if fault is not None:
            assert isinstance(expected[0], type) and issubclass(expected[0], RuleBoostError)

    def test_plain_block_does_not_use_the_line_tokenizer(self, tmp_path, monkeypatch):
        path = tmp_path / "plain.arff"
        path.write_text(DENSE_ARFF.replace("% toy dataset\n", "").replace("?", "3.5")
                        .replace("@data\n", "@data\n\n  \n") + "\n\n")
        monkeypatch.setattr(dataio, "_tokenize_line", tokenizer_unused)
        dataset = load_arff(path, 1)
        assert dataset.columns[0].tolist() == [1.5, 2.5, 3.5]
        assert dataset.columns[1].tolist() == [0, 2, 1]
        assert dataset.labels.ravel().tolist() == [1, -1, 1]

    @pytest.mark.parametrize("row,n_examples", [
        ("% a comment", 3), ("{0 1.5, 1 red, 2 1}", 4), ("'1.5', red, 1", 4), ("", 3),
        ("1.5, red, 1, 0", None),
    ])
    def test_other_blocks_use_the_line_tokenizer(self, tmp_path, row, n_examples):
        path = tmp_path / "other.arff"
        path.write_text(DENSE_ARFF.replace("2.5, blue, 0\n", f"2.5, blue, 0\n{row}\n"))
        with mock.patch.object(dataio, "_tokenize_line", wraps=dataio._tokenize_line) as spy:
            if n_examples is None:
                with pytest.raises(ParseError, match="line 11: row has 4 values, expected 3"):
                    load_arff(path, 1)
            else:
                assert load_arff(path, 1).n_examples == n_examples
        # Every data line reaches the tokenizer, up to the row of the wrong width.
        lines = ["1.5, red, 1", "2.5, blue, 0", row, "?, green, 1"][:4 if n_examples else 3]
        assert [call.args[0] for call in spy.call_args_list] == lines

    @pytest.mark.parametrize("n_shares", [1, 2, 3, 7])
    def test_shares_load_the_whole_blocks_rows_with_their_line_numbers(self, tmp_path, n_shares):
        rows = [f"{i}.5, {'red' if i % 3 else 'blue'}, {i % 2}" for i in range(20)]
        rows[9] = "% a comment"
        rows[14] = "{0 7.5, 2 1}"
        path = tmp_path / "shares.arff"
        path.write_text(DENSE_ARFF.split("@data")[0] + "@data\n" + "\n".join(rows) + "\n")
        whole = load_arff(path, 1)
        shares = dataio.read_arff_block(path).split(n_shares)
        assert sum(map(len, shares)) == len(rows) + 1
        parts = [load_arff(path, 1, share) for share in shares]
        for column, parts_columns in zip(whole.columns, zip(*(p.columns for p in parts))):
            assert np.concatenate(parts_columns).tobytes() == column.tobytes()
        assert np.concatenate([p.labels for p in parts]).tobytes() == whole.labels.tobytes()
        bad = path.read_text().replace("18.5, blue", "18.5, pink")
        path.write_text(bad)
        last = dataio.read_arff_block(path).split(n_shares)[-1]
        with pytest.raises(SchemaError, match="^line 27: value 'pink' is not in the domain"):
            load_arff(path, 1, last)


# Cells that float reads or rejects in ways a numeric column must follow exactly.
FLOAT_CASES = ["1_0", " 1.5\r", "nan", "-Infinity", "1e999", "\u0661", "0x10", "1e-400", "-0"]


class TestNumericCells:
    @pytest.mark.parametrize("cell", FLOAT_CASES)
    def test_a_cell_converts_as_float_does(self, cell):
        attr = Attribute("x", NUMERIC)
        try:
            expected = np.array([float(cell)]).tobytes()
        except ValueError:
            with pytest.raises(ParseError) as caught:
                dataio._numeric_column(attr, [cell], [5])
            assert str(caught.value) == (
                f"line 5: expected a number for attribute 'x', got {cell.strip()!r}")
        else:
            assert dataio._numeric_column(attr, [cell], [5]).tobytes() == expected

    def test_a_column_of_valid_cells_converts_as_float_does(self):
        cells = [cell for cell in FLOAT_CASES if cell not in ("0x10",)]
        column = dataio._numeric_column(Attribute("x", NUMERIC), cells, range(len(cells)))
        assert column.tobytes() == np.array([float(cell) for cell in cells]).tobytes()


CSV_TEXT = """width,color,label1
1.5,red,1
2.5,blue,0
?,red,1
"""


class TestLoadCsv:
    def test_basic_csv(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text(CSV_TEXT)
        dataset = load_csv(path, ["label1"])
        assert dataset.n_examples == 3
        assert dataset.schema[0].is_numeric
        assert not dataset.schema[1].is_numeric
        assert dataset.labels[:, 0].tolist() == [1, -1, 1]
        assert row_values(dataset, 2)[0] is None

    def test_trailing_count_labels(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text(CSV_TEXT)
        dataset = load_csv(path, 1)
        assert dataset.label_names == ["label1"]

    def test_non_numeric_entry_in_numeric_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,label1\n1.5,1\noops,0\n")
        with pytest.raises(ParseError) as info:
            load_csv(path, ["label1"])
        assert "line 3" in str(info.value)

    def test_label_other_than_binary(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,label1\n1.5,2\n")
        with pytest.raises(SchemaError):
            load_csv(path, ["label1"])

    def test_unknown_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,label1\n1.5,1\n")
        with pytest.raises(SchemaError):
            load_csv(path, ["nope"])

    def test_non_utf8_file_names_the_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"a,label1\n1.5,1\n\xff,0\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            load_csv(path, ["label1"])

    def test_label_named_twice(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,l1,l2\n1.5,1,0\n2.5,0,1\n")
        with pytest.raises(SchemaError, match="^label 'l1' is named twice$"):
            load_csv(path, ["l1", "l2", "l1"])

    @pytest.mark.parametrize("labels,expected,feature", [
        (1, [1, 1, -1], [0.0, 0.0, 1.0]),
        (["l"], [-1, -1, 1], [1.0, 1.0, 0.0]),
    ])
    def test_a_repeated_label_name_picks_columns_as_arff_does(self, tmp_path, labels, expected,
                                                              feature):
        """A count takes the trailing column and a name its first; the other ``l`` is a feature."""
        (tmp_path / "dup.csv").write_text("x,l,l\n1,0,1\n2,0,1\n3,1,0\n")
        (tmp_path / "dup.arff").write_text("@relation dup\n@attribute x numeric\n"
                                           "@attribute l {0,1}\n@attribute l {0,1}\n"
                                           "@data\n1,0,1\n2,0,1\n3,1,0\n")
        dataset = load_csv(tmp_path / "dup.csv", labels)
        arff = load_arff(tmp_path / "dup.arff", labels)
        assert dataset.labels[:, 0].tolist() == arff.labels[:, 0].tolist() == expected
        assert dataset.label_names == arff.label_names == ["l"]
        assert [a.name for a in dataset.schema] == [a.name for a in arff.schema] == ["x", "l"]
        assert dataset.columns[1].tolist() == feature

    def test_header_required(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_csv(path, ["label1"])

    def test_nominal_values_first_seen_order(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("c,label1\nzebra,1\napple,0\nzebra,1\n")
        dataset = load_csv(path, ["label1"])
        assert dataset.schema[0].values == ("zebra", "apple")


def load_csv_text(tmp_path, text, labels=1):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    return load_csv(path, labels)


class TestCsvCells:
    """What the CSV reader makes of quotes, line ends, blank rows and missing cells."""

    def test_a_quoted_comma_is_part_of_its_value(self, tmp_path):
        dataset = load_csv_text(tmp_path, 'c,l\n"a,b",1\nc,0\n"a,b",1\n')
        assert dataset.schema[0].values == ("a,b", "c")
        assert dataset.columns[0].tolist() == [0, 1, 0]

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_a_quoted_value_spanning_lines_keeps_its_line_ends(self, tmp_path, eol):
        dataset = load_csv_text(tmp_path, f'c,l{eol}"a{eol}b",1{eol}c,0{eol}')
        assert dataset.schema[0].values == (f"a{eol}b", "c")
        assert dataset.labels.ravel().tolist() == [1, -1]

    def test_rows_of_only_blank_cells_are_skipped(self, tmp_path):
        text = 'x,c,l\n1,a,1\n,,\n \t, ,\n\n   \n""\n"",\t,"  "\n2,b,0\n'
        dataset = load_csv_text(tmp_path, text)
        assert dataset.columns[0].tolist() == [1.0, 2.0]
        assert dataset.labels.ravel().tolist() == [1, -1]

    def test_cells_and_names_are_stripped(self, tmp_path):
        dataset = load_csv_text(tmp_path, ' x , c ,l \n 1.5 , red ,  1\n2,  red,0 \n3," red ", 1\n')
        assert [a.name for a in dataset.schema.attributes] == ["x", "c"]
        assert dataset.label_names == ["l"]
        assert dataset.columns[0].tolist() == [1.5, 2.0, 3.0]
        assert dataset.schema[1].values == ("red",)
        assert dataset.labels.ravel().tolist() == [1, -1, 1]

    def test_empty_and_question_mark_cells_are_missing(self, tmp_path):
        dataset = load_csv_text(tmp_path, 'x,c,l\n"",?,1\n ? ,"",0\n1.5,red,1\n,?,0\n')
        assert [row_values(dataset, i) for i in range(4)] == [
            (None, None), (None, None), (1.5, "red"), (None, None)]
        assert dataset.schema[0].is_numeric and dataset.schema[1].values == ("red",)

    @pytest.mark.parametrize("eol", ["\r\n", "\r"])
    def test_crlf_and_lone_cr_line_ends(self, tmp_path, eol):
        text = "x,c,l\n1.5,red,1\n2.5,blue,0\n?,red,1\n"
        expected = load_csv_text(tmp_path, text)
        dataset = load_csv_text(tmp_path, text.replace("\n", eol))
        assert dataset.schema == expected.schema
        assert dataset.labels.tobytes() == expected.labels.tobytes()
        assert [c.tobytes() for c in dataset.columns] == [c.tobytes() for c in expected.columns]
        with pytest.raises(ParseError, match="^line 4: column 'x' is numeric but got 'oops'$"):
            load_csv_text(tmp_path, text.replace("?", "oops").replace("\n", eol))


class TestCsvErrorPrecedence:
    """Which of several faults a CSV file reports."""

    @pytest.mark.parametrize("text,labels,error,message", [
        ("", 1, ParseError, r".*data\.csv: empty file; a header row is required"),
        ("x,l\noops,1\n1,2,0\n", 1, ParseError, "line 3: row has 3 values, expected 2"),
        ("x,l\n1\n\n", ["nope"], ParseError, "line 2: row has 1 values, expected 2"),
        ("x,l\n\n,\n", ["nope"], ParseError, r".*data\.csv: no data rows"),
        ("x,l\noops,2\n", ["nope"], SchemaError,
         re.escape("label columns not found in header: ['nope']")),
        ("x,l\noops,2\n", 2, SchemaError, "label count 2 invalid for 2 columns"),
        ("x,l\noops,2\n", [], SchemaError, "no label attributes given"),
        ("x,l\n1,2\noops,0\n", 1, ParseError, "line 3: column 'x' is numeric but got 'oops'"),
        ("x,y,l\n1,?,2\n,,0\n", 1, SchemaError, "column 'y' has no values at all"),
        ("y,x,l\n?,1,1\n,oops,0\n", 1, SchemaError, "column 'y' has no values at all"),
        ("x,y,l\n1,?,1\noops,,0\n", 1, ParseError,
         "line 3: column 'x' is numeric but got 'oops'"),
        ("x,x,l\n1,2,5\n", 1, SchemaError, "attribute names are not unique"),
        ("x,l,m\n1,0,5\n2,7,1\n", ["m", "l"], SchemaError,
         "line 2: label 'm' has value '5', expected 0 or 1"),
        ("x,l,m\n1,0,1\n2,7,1\n", ["m", "l", "m"], SchemaError,
         "line 3: label 'l' has value '7', expected 0 or 1"),
    ])
    def test_the_first_fault_in_order_is_reported(self, tmp_path, text, labels, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            load_csv_text(tmp_path, text, labels)


FIELD_LIMIT = f"field larger than field limit ({csv.field_size_limit()})"


class TestCsvLineNumbers:
    """A CSV error names the first line of its record in the file, as an ARFF error does."""

    @pytest.mark.parametrize("text,error,message", [
        ('x,c,l\n1,"a\nb",1\noops,c,0\n', ParseError,
         "line 4: column 'x' is numeric but got 'oops'"),
        ('"x\r\ny",l\r\n1,1\r\n2,5\r\n', SchemaError,
         "line 4: label 'l' has value '5', expected 0 or 1"),
        ('x,l\n"1\n\n",1\n1,1,1\n', ParseError, "line 5: row has 3 values, expected 2"),
    ])
    def test_lines_after_a_value_spanning_lines_keep_their_numbers(self, tmp_path, text, error,
                                                                    message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            load_csv_text(tmp_path, text)

    def test_a_bad_label_carries_its_line(self, tmp_path):
        with pytest.raises(SchemaError) as caught:
            load_csv_text(tmp_path, 'x,l\n1,"0\n"\n\n2,2\n')
        assert caught.value.line == 5
        assert str(caught.value) == "line 5: label 'l' has value '2', expected 0 or 1"

    @pytest.mark.parametrize("text,line", [
        ("x" * 200_000 + ",l\n1,1\n", 1),
        ("x,l\n1,1\n" + "1" * 200_000 + ",0\n", 3),
        ('x,l\n1,1\n"' + "1" * 200_000 + '",0\n', 3),
        ('x,l\n"a\nb",1\n1,"' + "1\n" * 100_000 + '"\n', 4),
    ], ids=["header", "plain-row", "quoted-row", "row-after-a-value-spanning-lines"])
    def test_a_field_over_the_csv_size_limit_names_its_line(self, tmp_path, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: {re.escape(FIELD_LIMIT)}$"):
            load_csv_text(tmp_path, text)


# Quoted values may span lines, with inner lines that look like plain rows.
CSV_NOMINAL_CELLS = st.sampled_from(["a", "b", "?", "", '"a,b"', '"a\nb"', '"c\r\nd"', '""',
                                     '"a\n,\nb"', '"a\n,,\nb"', '"a\n,,,\nb"'])
CSV_FAULTS = (None, "short", "long", "number", "label")


@st.composite
def csv_files(draw):
    """A CSV text with quoted cells, blank rows and values spanning lines, and its label count."""
    numeric = draw(st.lists(st.booleans(), min_size=1, max_size=3))
    n_labels = draw(st.integers(1, 2))
    names = [f"x{j}" for j in range(len(numeric))] + [f"l{k}" for k in range(n_labels)]
    if draw(st.booleans()):
        names[0] = draw(st.sampled_from(['"x\n0"', '" x0 "', '"x,0"']))
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        row = [draw(NUMBER_CELLS | st.just("")) if is_numeric else draw(CSV_NOMINAL_CELLS)
               for is_numeric in numeric]
        rows.append(row + [draw(st.sampled_from(["0", "1", '"1"', " 0 "]))
                           for _ in range(n_labels)])
    fault = draw(st.sampled_from(CSV_FAULTS))
    i = draw(st.integers(0, len(rows) - 1))
    if fault == "short":
        rows[i].pop()
    elif fault == "long":
        rows[i].append("1")
    elif fault == "label":
        rows[i][-1] = "2"
    elif fault == "number" and any(numeric):
        rows[i][numeric.index(True)] = "1.2.3"
    pad = st.sampled_from(["", " ", "\t"])
    lines = [",".join(draw(pad) + cell + draw(pad) if not cell.startswith('"') else cell
                      for cell in row) for row in rows]
    # Lines the csv module reads: blank ones, rows of only blank cells, and fully quoted rows.
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        quoted = ",".join(f'"{cell.strip(chr(34))}"' for cell in row)
        special = draw(st.sampled_from(["", "  ", ",".join(" " for _ in row), '""', quoted]))
        lines.insert(draw(st.integers(0, len(lines))), special)
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join([",".join(names), *lines]) + draw(st.sampled_from(["", eol])), n_labels


def is_plain_csv(line, width):
    """Whether one split of the block reads ``line`` as the csv module does."""
    return (width > 1 and '"' not in line and line.count(",") == width - 1
            and not line.replace(",", " ").isspace())


@st.composite
def blocks(draw):
    """Lines of ``width`` cells each, whose cells may hold a comma, quote, brace or '%'."""
    width = draw(st.integers(1, 4))
    cell = st.text("'\"{}% \ta1,", max_size=2)
    end = draw(st.sampled_from(["", "\r", "\n", "\r\n"]))
    line = st.lists(cell, min_size=width, max_size=width).map(lambda cells: ",".join(cells) + end)
    return draw(st.lists(line, min_size=1, max_size=4)), width


@settings(max_examples=300, deadline=None)
@given(blocks(), st.booleans())
def test_a_block_is_plain_exactly_when_every_line_is(block, in_csv):
    lines, width = block
    is_plain_line = is_plain_csv if in_csv else is_plain
    expected = all(is_plain_line(line, width) for line in lines)
    assert dataio._plain(lines, ",".join(lines), width, in_csv) == expected


class TestCsvBlock:
    """A CSV block of plain lines is split in one pass; it loads as the csv module reads it."""

    @settings(max_examples=200, deadline=None)
    @given(csv_files())
    def test_same_dataset_or_error_as_the_csv_module(self, case):
        text, n_labels = case
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "data.csv"
            path.write_bytes(text.encode("utf-8"))
            with mock.patch.object(dataio, "_plain", never_plain):
                expected = outcome(path, n_labels, load_csv)
            actual = outcome(path, n_labels, load_csv)
        assert actual == expected
        records = list(csv.reader(io.StringIO(text, newline="")))[1:]
        if not isinstance(actual[0], type):
            assert len(actual[2]) == n_labels * sum(any(map(str.strip, r)) for r in records)

    def test_a_plain_block_does_not_use_the_csv_module(self, tmp_path, monkeypatch):
        path = tmp_path / "plain.csv"
        path.write_text("x,c,l\n1.5, red,1\n 2.5,blue ,0\n")
        block = dataio.read_csv_block(path)
        monkeypatch.setattr(dataio, "_csv_rows", tokenizer_unused)
        dataset = load_csv(path, 1, block)
        assert dataset.columns[0].tolist() == [1.5, 2.5]
        assert dataset.schema[1].values == ("red", "blue")

    @pytest.mark.parametrize("boundary", [8192, 16384])
    def test_a_crlf_across_an_8_kib_read_is_one_line_end(self, tmp_path, boundary):
        # The file is read in 8 KiB pieces: "\r" ends one piece and "\n" starts the next.
        header, last = "x,l\r\n", "2.5,0\r\n"
        first = "1." + "5" * (boundary - len(header) - len("1.,1\r")) + ",1\r\n"
        path = tmp_path / "wide.csv"
        path.write_bytes((header + first + last).encode("ascii"))
        assert path.read_bytes()[boundary - 1:boundary + 1] == b"\r\n"
        block = dataio.read_csv_block(path)
        assert block.lines == [header, first, last]
        assert (block.start, block.stop) == (1, 3)
        assert load_csv(path, 1, block).labels.tolist() == [[1], [-1]]
