"""ARFF and CSV ingestion, export round trips."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruleboost import dataio
from ruleboost.dataio import load_arff, load_csv, save_arff
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


class TestArffRoundTrip:
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
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(["@relation r", *header, "@data", *lines])
    return text + draw(st.sampled_from(["", eol])), n_labels, fault


def outcome(path, labels):
    """What loading gives: the dataset's schema, labels and column bytes, or the error."""
    try:
        dataset = load_arff(path, labels)
    except RuleBoostError as exc:
        return type(exc), str(exc)
    return (dataset.schema, dataset.label_names, dataset.labels.tobytes(),
            [(column.dtype.str, column.tobytes()) for column in dataset.columns])


def tokenizer_unused(*args):
    raise AssertionError("the per-line tokenizer read a plain block")


class TestBulkDataBlock:
    """A plain dense block is split in one pass; it must load as the per-line tokenizer loads it."""

    @settings(max_examples=200, deadline=None)
    @given(dense_arff_files())
    def test_same_dataset_or_error_as_the_line_tokenizer(self, case):
        text, n_labels, fault = case
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "data.arff"
            path.write_bytes(text.encode("utf-8"))
            with mock.patch.object(dataio, "_bulk_columns", return_value=None):
                expected = outcome(path, n_labels)
            # Only a row of the wrong width sends the block to the tokenizer.
            if fault in WIDTH_FAULTS:
                actual = outcome(path, n_labels)
            else:
                with mock.patch.object(dataio, "_tokenize_data", tokenizer_unused):
                    actual = outcome(path, n_labels)
        assert actual == expected
        if fault is not None:
            assert isinstance(expected[0], type) and issubclass(expected[0], RuleBoostError)

    def test_plain_block_does_not_use_the_line_tokenizer(self, tmp_path, monkeypatch):
        path = tmp_path / "plain.arff"
        path.write_text(DENSE_ARFF.replace("% toy dataset\n", "").replace("?", "3.5")
                        .replace("@data\n", "@data\n\n  \n") + "\n\n")
        monkeypatch.setattr(dataio, "_tokenize_data", tokenizer_unused)
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
        with mock.patch.object(dataio, "_tokenize_data", wraps=dataio._tokenize_data) as spy:
            if n_examples is None:
                with pytest.raises(ParseError, match="line 11: row has 4 values, expected 3"):
                    load_arff(path, 1)
            else:
                assert load_arff(path, 1).n_examples == n_examples
        assert spy.call_count == 1


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
