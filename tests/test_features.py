"""CSV ingestion, correlations, VIF, conflict sets, and end-to-end selection."""

import codecs
import contextlib
import csv
import dataclasses
import math
import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import niceset
from niceset import (CsvError, FeatureMatrix, Instance, SelectionReport, VIF_MAX,
                     build_instance, cli, collinearity_graph, conflict_sets, features, is_nice,
                     load_csv, pearson_matrix, select_features, vif)
from niceset.features import _COEF_FLOOR, _RIDGE, _standardized_columns

from .conftest import planted_block_matrix


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


# Hadamard-style columns: exactly zero-mean and mutually orthogonal.
ORTHOGONAL = np.array([
    [+1, +1, +1], [+1, +1, -1], [+1, -1, +1], [+1, -1, -1],
    [-1, +1, +1], [-1, +1, -1], [-1, -1, +1], [-1, -1, -1],
], dtype=float)


# -------------------------------------------------------------------- loading

def test_load_csv_with_header(tmp_path):
    fm = load_csv(write(tmp_path, "a,b\n1,2\n2,4\n3,6\n4,8\n"))
    assert fm.names == ("a", "b")
    assert fm.n == 4 and fm.m == 2
    assert fm.column(2).tolist() == [2, 4, 6, 8]
    with pytest.raises(ValueError, match="feature index 3 out of range 1..2"):
        fm.column(3)


def test_load_csv_headerless_names(tmp_path):
    fm = load_csv(write(tmp_path, "1,2,3\n4,5,6\n7,8,9\n"), has_header=False)
    assert fm.names == ("f1", "f2", "f3")


def test_load_csv_quoting_and_delimiter(tmp_path):
    fm = load_csv(write(tmp_path, '"x";"y"\n1;2\n3;4\n5;6\n'), delimiter=";")
    assert fm.names == ("x", "y")


def test_load_csv_ignores_blank_lines(tmp_path):
    fm = load_csv(write(tmp_path, "a,b\n1,2\n\n3,4\n5,6\n\n"))
    assert fm.n == 3


def test_load_csv_errors(tmp_path):
    with pytest.raises(CsvError, match="record 3"):
        load_csv(write(tmp_path, "a,b\n1,2\n3\n4,5\n"))
    with pytest.raises(CsvError) as info:
        load_csv(write(tmp_path, "a,b\n1,2\n3,x\n4,5\n"))
    assert info.value.record == 3 and info.value.column == "b"
    with pytest.raises(CsvError, match="at least 3 data rows"):
        load_csv(write(tmp_path, "a,b\n1,2\n3,4\n"))
    with pytest.raises(CsvError, match="non-finite"):
        load_csv(write(tmp_path, "a,b\n1,2\n3,inf\n4,5\n"))
    with pytest.raises(CsvError, match="empty"):
        load_csv(write(tmp_path, ""))


def test_load_csv_rejects_a_field_over_the_csv_limit(tmp_path):
    path = write(tmp_path, "a,b\n1,2\n" + "1" * (csv.field_size_limit() + 10) + ",2\n3,4\n")
    with pytest.raises(CsvError, match="line 3: field larger than field limit") as info:
        load_csv(path)
    assert str(path) in str(info.value)


def test_load_csv_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("a,b\n1,2\n3,\u00e94\n5,6\n".encode("latin-1"))
    with pytest.raises(CsvError, match="not UTF-8 text") as info:
        load_csv(path)
    assert str(path) in str(info.value)


def reference_load_csv(path, delimiter: str = ",", has_header: bool = True) -> FeatureMatrix:
    """Reference: the cell-by-cell loader, in file order."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        records = [(number, record)
                   for number, record in enumerate(csv.reader(handle, delimiter=delimiter), start=1)
                   if record]
    if not records:
        raise CsvError(f"{path}: empty file")
    names: list[str] | None = None
    if has_header:
        names = [cell.strip() for cell in records[0][1]]
        body = records[1:]
    else:
        body = records
    if not body:
        raise CsvError(f"{path}: no data rows")
    width = len(body[0][1]) if names is None else len(names)
    rows: list[list[float]] = []
    for number, record in body:
        if len(record) != width:
            raise CsvError(f"{path}: record {number} has {len(record)} fields, expected {width}",
                           record=number)
        row = []
        for col, cell in enumerate(record, start=1):
            label = names[col - 1] if names else f"f{col}"
            try:
                value = float(cell)
            except ValueError:
                raise CsvError(f"{path}: record {number}, column {label!r}: "
                               f"not a number: {cell!r}", record=number, column=label) from None
            if not math.isfinite(value):
                raise CsvError(f"{path}: record {number}, column {label!r}: "
                               f"non-finite value {cell!r}", record=number, column=label)
            row.append(value)
        rows.append(row)
    if len(rows) < 3:
        raise CsvError(f"{path}: need at least 3 data rows, got {len(rows)}")
    if names is None:
        names = [f"f{j}" for j in range(1, width + 1)]
    return FeatureMatrix(names=tuple(names), data=np.array(rows, dtype=float))


def outcome(loader, path, **kwargs):
    """What a loader does with a file: its names and data bytes, or its
    error's type, message and coordinates."""
    try:
        fm = loader(path, **kwargs)
    except ValueError as exc:
        return (type(exc), str(exc), getattr(exc, "record", None), getattr(exc, "column", None))
    return fm.names, fm.data.shape, fm.data.tobytes()


NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1_000", " 1.5 ", "\u0661\u0662", "\uff13.5", "-0", "+.5e-3", '"7"',
                     '"8\n"', "1.", "\u30004", "5\x85"]),
)
ODD_CELLS = st.sampled_from(["inf", "-Infinity", "nan", "NaN", "1e400", "-1e400", "", " ",
                             "x", "1.2.3", "--1", "0x10", '"a;b,c"', '" 2 "', '"inf"'])
# lines that are not blank to the csv module, though nothing but whitespace
SPACE_LINES = st.sampled_from([" ", "\f", "\t", " \u3000"])


@st.composite
def csv_texts(draw):
    clean = draw(st.booleans())
    width = draw(st.integers(1, 4))
    cells = NUMBER_CELLS if clean else st.one_of(NUMBER_CELLS, NUMBER_CELLS, ODD_CELLS)
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    lines = [""] * draw(st.integers(0, 2))  # blank lines before the header
    has_header = draw(st.booleans())
    if has_header:
        lines.append(delimiter.join(f"c{j}" for j in range(width)))
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("" if clean else draw(st.one_of(st.just(""), SPACE_LINES)))
            continue
        row_width = width if clean else draw(st.sampled_from([width] * 6 + [width - 1, width + 1]))
        lines.append(delimiter.join(draw(st.lists(cells, min_size=row_width,
                                                  max_size=row_width))))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = draw(st.sampled_from(["", "\ufeff"])) + newline.join(lines) + newline
    return text, delimiter, has_header


@settings(max_examples=300, deadline=None)
@given(case=csv_texts())
@example(case=("a,b\r1,2\r3,4\r\r5,6\r", ",", True))
@example(case=("a,b\r1,2\r3\r4,5\r6,7\r", ",", True))
@example(case=("a\tb\n1\t 2\n3 \t4\n5\t6\n", "\t", True))
@example(case=("a,b\n1,2\n \n3,4\n5,6\n", ",", True))
@example(case=("1\n\f\n2\n3\n4\n", ",", False))
@example(case=("\n\r\na;b\n1;2\n3;4\n5;6\n", ";", True))
@example(case=('a,b\n"1",2\n3,4\n5,6\n', ",", True))
@example(case=('a,b\n"1\n",2\n3,4\n5,6\n', ",", True))
@example(case=("1\n2\n3\n4\n", "\n", False))
@example(case=("a,b\n1,2,3\n4,5,6\n7,8,9\n", ",", True))
@example(case=("a\r1\r2\r3\r", "\r", True))
# the first error in file order: a non-finite cell before a non-number in one
# record, a bad cell before a ragged record, a ragged record before a bad cell
@example(case=("a,b,c\n1,inf,x\n2,3,4\n5,6,7\n", ",", True))
@example(case=("a,b\n1,x\n2,3,4\n5,6\n7,8\n", ",", True))
@example(case=("a,b\n1,2,3\n4,x\n5,6\n7,8\n", ",", True))
def test_load_csv_matches_reference_loader(tmp_path_factory, case):
    text, delimiter, has_header = case
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    kwargs = dict(delimiter=delimiter, has_header=has_header)
    assert outcome(load_csv, path, **kwargs) == outcome(reference_load_csv, path, **kwargs)


@pytest.mark.parametrize("text, delimiter, has_header", [
    ("a,b\n1,2\n3,4\n5,6\n", ",", True),
    ("\r\na,b\r\n1.5e-3, -2\r\n\r\n+3 ,4.\r\n-0,6E+2\r\n", ",", True),
    ("a;b\r1;2\r3;4\r5;6", ";", True),
    ("1\t2\n3\t4\n\n5\t6\n", "\t", False),
])
def test_clean_numeric_csv_never_reaches_the_csv_reader(tmp_path, monkeypatch, text, delimiter,
                                                        has_header):
    path = tmp_path / "data.csv"
    path.write_text(text, newline="")
    expected = outcome(reference_load_csv, path, delimiter=delimiter, has_header=has_header)

    def csv_reader(*args):
        raise AssertionError("the csv reader ran on a clean numeric CSV")

    monkeypatch.setattr(features, "_csv_body", csv_reader)
    assert outcome(load_csv, path, delimiter=delimiter, has_header=has_header) == expected


def test_load_csv_rejects_a_finite_field_over_the_csv_limit(tmp_path):
    # numpy's reader has no field size limit; this cell is a finite 0.0 to it
    cell = "0." + "0" * (csv.field_size_limit() + 10) + "1"
    path = write(tmp_path, f"a,b\n1,2\n{cell},2\n3,4\n5,6\n")
    with pytest.raises(CsvError, match="line 3: field larger than field limit") as info:
        load_csv(path)
    assert str(path) in str(info.value)


def test_load_csv_reads_the_csv_field_limit_at_call_time(tmp_path):
    path = write(tmp_path, "a,b\n1,2\n" + "1" * 150 + ",2\n3,4\n5,6\n")
    assert load_csv(path).n == 4
    old = csv.field_size_limit(100)
    try:
        with pytest.raises(CsvError, match="line 3: field larger than field limit"):
            load_csv(path)
    finally:
        csv.field_size_limit(old)


def test_load_csv_drops_a_byte_order_mark_before_the_header(tmp_path):
    text = "a,b\n1,2\n2,4\n3,7\n"
    path = tmp_path / "bom.csv"
    path.write_bytes(codecs.BOM_UTF8 + text.encode())
    assert load_csv(path).names == ("a", "b")
    assert outcome(load_csv, path) == outcome(load_csv, write(tmp_path, text)) \
        == outcome(reference_load_csv, path)


def test_load_csv_drops_a_byte_order_mark_before_the_first_cell(tmp_path):
    text = "-0.25,2\n1,2\n2,4\n3,7\n"
    path = tmp_path / "bom.csv"
    path.write_bytes(codecs.BOM_UTF8 + text.encode())
    assert load_csv(path, has_header=False).data[0].tolist() == [-0.25, 2.0]
    assert outcome(load_csv, path, has_header=False) \
        == outcome(load_csv, write(tmp_path, text), has_header=False) \
        == outcome(reference_load_csv, path, has_header=False)
    # only a leading mark is dropped: one inside the text is a bad cell
    path.write_bytes(codecs.BOM_UTF8 + (text + "\ufeff4,5\n").encode())
    with pytest.raises(CsvError, match="record 5, column 'f1': not a number"):
        load_csv(path, has_header=False)


@pytest.mark.parametrize("text, message", [
    ("a,b\n\n\r\n\n", "no data rows"),
    ("\n\n", "empty file"),
    ("a,b\n1,2\n\n3,4\n\n", "need at least 3 data rows, got 2"),
])
def test_load_csv_short_body_warns_nothing(tmp_path, text, message):
    path = write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CsvError, match=message):
            load_csv(path)


@pytest.mark.parametrize("delimiter", ["", "ab", ",,", None, 44])
def test_load_csv_rejects_a_delimiter_that_is_not_one_character(tmp_path, delimiter):
    # raised before the file is opened: this one does not exist
    with pytest.raises(ValueError, match="delimiter must be a single character"):
        load_csv(tmp_path / "missing.csv", delimiter=delimiter)


@pytest.mark.parametrize("text, record, column, message", [
    # a non-finite cell before a later non-number, across and within records,
    # and the reverse
    ("a,b\n1,2\n3,inf\n4,x\n5,6\n", 3, "b", "record 3, column 'b': non-finite value 'inf'"),
    ("a,b,c\n1,2,3\nnan,x,3\n4,5,6\n", 3, "a", "record 3, column 'a': non-finite value 'nan'"),
    ("a,b\n1,2\n3,x\n4,1e400\n5,6\n", 3, "b", "record 3, column 'b': not a number: 'x'"),
    # a non-number before a later ragged record, and after one
    ("a,b\n1,2\n\"\",3\n4\n5,6\n", 3, "a", "record 3, column 'a': not a number: ''"),
    ("a,b\n1,2\n4\n3,x\n5,6\n", 3, None, "record 3 has 1 fields, expected 2"),
    # a ragged record before a later non-finite cell, and after one
    ("a,b\n1,2\n\n3\n4,inf\n5,6\n", 4, None, "record 4 has 1 fields, expected 2"),
    ("a,b\n1,2\n4,-inf\n3,4,5\n5,6\n", 3, "b", "record 3, column 'b': non-finite value '-inf'"),
    # errors in the body come before the row count
    ("a,b\n1,x\n", 2, "b", "record 2, column 'b': not a number: 'x'"),
])
def test_load_csv_reports_the_first_bad_cell_in_file_order(tmp_path, text, record, column,
                                                           message):
    path = write(tmp_path, text)
    with pytest.raises(CsvError) as info:
        load_csv(path)
    assert str(info.value) == f"{path}: {message}"
    assert (info.value.record, info.value.column) == (record, column)
    assert outcome(load_csv, path) == outcome(reference_load_csv, path)


@contextlib.contextmanager
def fifo(tmp_path, data: bytes):
    """A FIFO in ``tmp_path`` that a writer thread fills with ``data``: input
    that can be read once and cannot be sought, like a shell pipe."""
    path = tmp_path / "pipe.csv"
    os.mkfifo(path)
    done = threading.Event()

    def feed():
        with open(path, "wb") as pipe:
            pipe.write(data)
        # a reader that opens the FIFO again reads end of file at once, as
        # from a drained pipe, instead of waiting for a writer forever
        while not done.wait(0.01):
            try:
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # no reader has it open
                pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield path
    finally:
        done.set()
        writer.join(timeout=10)
    assert not writer.is_alive(), "the reader never opened the FIFO"


needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")


@needs_fifo
@pytest.mark.parametrize("text, has_header", [
    ('"a","b"\n"1","2"\n"3","5"\n"4","4"\n', True),   # read by the csv module
    ("a,b\n1,2\n\n3,5\n4,4\n", True),                 # read by numpy
    ('"1";"2"\r\n3;5\r\n"1_0";4\r\n', False),
])
def test_load_csv_reads_a_fifo_as_a_regular_file(tmp_path, text, has_header):
    delimiter = ";" if ";" in text else ","
    kwargs = dict(delimiter=delimiter, has_header=has_header)
    regular = write(tmp_path, text)
    expected = outcome(load_csv, regular, **kwargs)
    assert expected == outcome(reference_load_csv, regular, **kwargs)
    with fifo(tmp_path, text.encode()) as path:
        assert outcome(load_csv, path, **kwargs) == expected


@needs_fifo
def test_load_csv_names_the_bad_cell_of_a_fifo(tmp_path):
    with fifo(tmp_path, b'"a","b"\n"1","2"\n"3","x"\n"4","5"\n') as path:
        with pytest.raises(CsvError) as info:
            load_csv(path)
    assert str(info.value) == f"{path}: record 3, column 'b': not a number: 'x'"
    assert (info.value.record, info.value.column) == (3, "b")


@pytest.mark.parametrize("source", ["file", pytest.param("fifo", marks=needs_fifo)])
def test_load_csv_reports_text_that_is_not_utf8_before_any_csv_error(tmp_path, source):
    # the over-limit field comes first, and the byte that is not UTF-8 lies
    # more than one 8 KiB decode chunk after it
    data = (b"a,b\n1,2\n" + b"1" * (csv.field_size_limit() + 10) + b",2\n"
            + b"3,4\n" * 4000 + b"5,\xe96\n")
    if source == "file":
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        context = contextlib.nullcontext(path)
    else:
        context = fifo(tmp_path, data)
    with context as path, pytest.raises(CsvError, match="not UTF-8 text") as info:
        load_csv(path)
    assert str(info.value).startswith(f"{path}: not UTF-8 text")


def test_feature_matrix_validation():
    with pytest.raises(ValueError):
        FeatureMatrix(names=("a",), data=np.ones((5, 1)))       # m < 2
    with pytest.raises(ValueError):
        FeatureMatrix(names=("a", "b"), data=np.ones((2, 2)))   # n < 3
    with pytest.raises(ValueError):
        FeatureMatrix(names=("a", "a"), data=np.ones((5, 2)))
    with pytest.raises(ValueError, match="feature names must be unique"):
        FeatureMatrix(names=(1, "1"), data=np.ones((5, 2)))  # equal once made str
    for names in ("ab", b"ab"):  # one string is not split into one name per character
        with pytest.raises(TypeError, match="names"):
            FeatureMatrix(names=names, data=np.ones((5, 2)))
    with pytest.raises(ValueError, match="data must be a 2-d array"):
        FeatureMatrix(names=("a", "b"), data=np.ones(5))
    with pytest.raises(ValueError, match="one name per column required"):
        FeatureMatrix(names=("a", "b"), data=np.ones((5, 3)))
    bad = np.ones((5, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        FeatureMatrix(names=("a", "b"), data=bad)


# --------------------------------------------------------------- correlations

def test_pearson_exact_relations():
    data = np.column_stack([[1, 2, 3], [2, 4, 6], [3, 2, 1]]).astype(float)
    corr = pearson_matrix(FeatureMatrix(names=("a", "b", "c"), data=data))
    assert corr[0, 1] == pytest.approx(1.0)
    assert corr[0, 2] == pytest.approx(-1.0)
    assert np.allclose(np.diag(corr), 1.0)


def test_pearson_rejects_constant_column():
    data = np.column_stack([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
    with pytest.raises(ValueError, match="constant"):
        pearson_matrix(FeatureMatrix(names=("a", "b"), data=data))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 60), m=st.integers(2, 8))
def test_pearson_matrix_properties(seed, n, m):
    # np.corrcoef is the reference for the standardized Gram
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3, size=m)
    shift = rng.uniform(-1e3, 1e3, size=m)
    data = rng.normal(size=(n, m)) * scale + shift
    corr = pearson_matrix(FeatureMatrix(names=tuple(f"c{i}" for i in range(m)), data=data))
    np.testing.assert_allclose(corr, np.corrcoef(data, rowvar=False), rtol=0.0, atol=1e-12)
    assert np.array_equal(corr, corr.T)
    assert np.all(np.diag(corr) == 1.0)
    assert np.all(np.abs(corr) <= 1.0)


def test_pearson_rejects_the_first_constant_column_by_name():
    # nine 0.1s have a zero np.std as a column, but not in a row-wise reduction
    rng = np.random.default_rng(8)
    data = np.column_stack([rng.normal(size=9), np.full(9, 0.1), rng.normal(size=9),
                            np.zeros(9)])
    with pytest.raises(ValueError) as info:
        pearson_matrix(FeatureMatrix(names=("a", "b", "c", "d"), data=data))
    assert str(info.value) == "feature 'b' (column 2) is constant"


def reference_collinearity_graph(corr: np.ndarray, lambda_c: float):
    """Reference: the pair-by-pair threshold test."""
    m = corr.shape[0]
    return frozenset((u + 1, v + 1) for u in range(m) for v in range(u + 1, m)
                     if abs(corr[u, v]) >= lambda_c)


def test_collinearity_graph_matches_reference_at_the_threshold():
    rng = np.random.default_rng(21)
    x, y = rng.normal(size=(2, 50))
    data = np.column_stack([x, x, -x, y, 3.0 * x + 1.0, -y])
    corr = pearson_matrix(FeatureMatrix(names=tuple("abcdef"), data=data))
    # duplicate, negated and rescaled columns sit at |corr| = 1; each
    # threshold below equals some entry exactly
    at = [float(abs(corr[u, v])) for u, v in ((0, 1), (0, 2), (0, 4), (3, 5))]
    for lambda_c in (1.0, *at, 0.5, 1e-3):
        edges = collinearity_graph(corr, lambda_c)
        assert edges == reference_collinearity_graph(corr, lambda_c)
        assert all(type(u) is int and type(v) is int for u, v in edges)
    assert (1, 2) in collinearity_graph(corr, at[0])
    assert (4, 6) in collinearity_graph(corr, at[3])
    with pytest.raises(ValueError, match="correlation matrix must be square"):
        collinearity_graph(corr[:, :5], 0.5)


EXACT_DEPENDENCE = {
    "duplicate": lambda x: x.copy(), "negated": lambda x: -x, "times 3.7": lambda x: 3.7 * x,
    "doubled": lambda x: 2.0 * x, "thirded": lambda x: x / 3.0, "shifted": lambda x: x + 1.0,
    "affine 1e6": lambda x: 1e6 * x - 4.0,
}


@pytest.mark.parametrize("n", [3, 50, 1000])
@pytest.mark.parametrize("seed", range(5))
def test_exactly_dependent_columns_correlate_at_exactly_one(n, seed):
    # computed, these pairs fall up to a few ulps short of |corr| = 1
    x = np.random.default_rng(seed).normal(size=n)
    data = np.column_stack([x] + [kind(x) for kind in EXACT_DEPENDENCE.values()])
    fm = FeatureMatrix(names=("x", *EXACT_DEPENDENCE), data=data)
    corr = pearson_matrix(fm)
    assert np.array_equal(np.abs(corr[0]), np.ones(fm.m))
    assert corr[0, 2] == -1.0
    edges = collinearity_graph(corr, 1.0)
    assert {(1, v) for v in range(2, fm.m + 1)} <= edges


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 9), seed=st.integers(0, 10**6),
       lambda_c=st.sampled_from([0.25, 0.5, 0.75, 1.0]))
def test_collinearity_graph_matches_reference_on_grid_values(m, seed, lambda_c):
    # entries on a quarter grid hit the threshold exactly
    grid = np.random.default_rng(seed).integers(-4, 5, size=(m, m)) / 4.0
    corr = (grid + grid.T) / 2.0
    assert collinearity_graph(corr, lambda_c) == reference_collinearity_graph(corr, lambda_c)


def test_collinearity_graph_boundary_inclusive():
    corr = np.array([[1.0, 0.95, 0.9], [0.95, 1.0, 0.0], [0.9, 0.0, 1.0]])
    assert collinearity_graph(corr, 0.9) == frozenset({(1, 2), (1, 3)})
    assert collinearity_graph(np.eye(4), 0.5) == frozenset()
    with pytest.raises(ValueError):
        collinearity_graph(corr, 0.0)
    with pytest.raises(ValueError):
        collinearity_graph(corr, 1.5)


# ------------------------------------------------------------------------ VIF

def reference_standardize(fm: FeatureMatrix, j: int) -> np.ndarray:
    """Reference: column ``j`` standardized on its own."""
    column = fm.column(j)
    sd = float(np.std(column))
    if column.max() == column.min() or sd == 0.0:
        raise ValueError(f"feature {fm.names[j - 1]!r} (column {j}) is constant")
    return (column - float(np.mean(column))) / sd


def reference_fit(fm: FeatureMatrix, j: int, regressors: tuple[int, ...]):
    """Reference: ridge-damped least squares of standardized column ``j`` on
    the regressors, each standardized on its own.  Returns
    ``(r_squared, coefficients)``."""
    target = reference_standardize(fm, j)
    design = np.column_stack([reference_standardize(fm, r) for r in regressors])
    n, k = design.shape
    gram = design.T @ design / n
    moment = design.T @ target / n
    coef = np.linalg.solve(gram + _RIDGE * np.eye(k), moment)
    residual = target - design @ coef
    r2 = 1.0 - float(np.mean(residual ** 2))
    return min(max(r2, 0.0), 1.0), coef


def reference_vif(fm: FeatureMatrix, j: int, regressors) -> float:
    r2, _ = reference_fit(fm, j, tuple(sorted(set(regressors))))
    return VIF_MAX if r2 >= 1.0 - 1e-12 else min(1.0 / (1.0 - r2), VIF_MAX)


def test_vif_matches_the_per_column_reference_bit_for_bit():
    rng = np.random.default_rng(2056)
    capped = 0
    for _ in range(2100):
        n, m = int(rng.integers(5, 60)), int(rng.integers(2, 8))
        scale = 10.0 ** rng.uniform(-6, 6, size=m)
        offset = rng.choice([0.0, 1.0, -1e3, 1e6, 1e9], size=m)
        data = rng.normal(size=(n, m)) * scale + offset
        if rng.random() < 0.3:  # an exactly collinear column: a copy, or affine in another
            src, dst = rng.choice(m, size=2, replace=False)
            data[:, dst] = data[:, src] * rng.choice([1.0, -1.0, 2.5]) + rng.choice([0.0, 3.0])
        fm = FeatureMatrix(names=tuple(f"c{i}" for i in range(m)), data=data)
        j = int(rng.integers(1, m + 1))
        others = [r for r in range(1, m + 1) if r != j]
        regressors = rng.choice(others, size=int(rng.integers(1, min(len(others), n - 2) + 1)),
                                replace=False).tolist()
        got, want = vif(fm, j, regressors), reference_vif(fm, j, regressors)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        capped += got == VIF_MAX
    assert capped > 50  # the exactly collinear cases reach the cap


def test_vif_ignores_a_constant_column_outside_the_fit():
    fm = equal_valued_matrix()  # column 2 is constant
    assert vif(fm, 1, [3]) == reference_vif(fm, 1, [3])
    assert vif(fm, 3, [1]) >= 1.0


def test_vif_rejects_non_integer_indices():
    fm = FeatureMatrix(names=("a", "b", "c"), data=ORTHOGONAL)
    with pytest.raises(TypeError):
        vif(fm, 1, [2.7])
    with pytest.raises(TypeError):
        vif(fm, 1.5, [2])
    assert vif(fm, np.int64(1), [np.int64(2)]) == vif(fm, 1, [2])


def test_vif_orthogonal_is_one():
    fm = FeatureMatrix(names=("a", "b", "c"), data=ORTHOGONAL)
    for j in (1, 2, 3):
        others = {1, 2, 3} - {j}
        assert vif(fm, j, others) == pytest.approx(1.0, abs=1e-9)


def test_vif_exact_collinearity_hits_cap():
    rng = np.random.default_rng(6)
    x1, x2 = rng.normal(size=100), rng.normal(size=100)
    dup = FeatureMatrix(names=("a", "b", "c"), data=np.column_stack([x1, x1, x2]))
    assert vif(dup, 1, {2}) == VIF_MAX
    summed = FeatureMatrix(names=("a", "b", "c"),
                           data=np.column_stack([x1, x2, x1 + x2]))
    assert vif(summed, 3, {1, 2}) == VIF_MAX


def test_vif_precondition_errors():
    fm = FeatureMatrix(names=("a", "b", "c"), data=ORTHOGONAL)
    with pytest.raises(ValueError):
        vif(fm, 1, set())
    with pytest.raises(ValueError):
        vif(fm, 1, {1, 2})
    with pytest.raises(ValueError):
        vif(fm, 4, {1})
    with pytest.raises(ValueError):
        vif(fm, 1, {5})
    tiny = FeatureMatrix(names=("a", "b", "c"),
                         data=np.array([[1., 2., 3.], [2., 1., 5.], [3., 3., 4.]]))
    with pytest.raises(ValueError):  # n must exceed len(regressors) + 1
        vif(tiny, 1, {2, 3})


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), a=st.floats(-50, 50), b=st.floats(-100, 100))
def test_vif_invariant_under_affine_rescaling(seed, a, b):
    if abs(a) < 1e-3:
        return
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(40, 4))
    fm = FeatureMatrix(names=("a", "b", "c", "d"), data=data)
    scaled = data.copy()
    scaled[:, 2] = a * scaled[:, 2] + b
    fs = FeatureMatrix(names=("a", "b", "c", "d"), data=scaled)
    for j in range(1, 5):
        others = set(range(1, 5)) - {j}
        v0, v1 = vif(fm, j, others), vif(fs, j, others)
        assert v1 == pytest.approx(v0, rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(8, 60), m=st.integers(3, 6))
def test_r_squared_stays_in_unit_interval(seed, n, m):
    rng = np.random.default_rng(seed)
    fm = FeatureMatrix(names=tuple(f"c{i}" for i in range(m)),
                       data=rng.normal(size=(n, m)))
    for j in range(1, m + 1):
        value = vif(fm, j, set(range(1, m + 1)) - {j})
        assert value >= 1.0 - 1e-9


# -------------------------------------------------------------- conflict sets

@pytest.mark.parametrize("n", [3, 7, 8, 9, 127, 128, 129, 1000])
def test_standardized_columns_match_per_column_standardize(n):
    rng = np.random.default_rng(n)
    data = rng.normal(size=(n, 5)) * [1.0, 1e-3, 1e6, 0.1, 7.0] + [0.0, 5.0, -3e6, 0.1, 1e9]
    fm = FeatureMatrix(names=tuple("abcde"), data=data)
    for features in (range(1, 6), (4, 2), (5,)):
        expected = np.column_stack([reference_standardize(fm, j) for j in features])
        assert _standardized_columns(fm, features).tobytes() == expected.tobytes()


def test_conflict_sets_reject_the_first_constant_column_by_name():
    rng = np.random.default_rng(8)
    data = np.column_stack([rng.normal(size=9), rng.normal(size=9), np.full(9, 0.1),
                            np.zeros(9)])
    with pytest.raises(ValueError) as info:
        conflict_sets(FeatureMatrix(names=("a", "b", "c", "d"), data=data), lambda_mc=5.0)
    assert str(info.value) == "feature 'c' (column 3) is constant"


def equal_valued_matrix() -> FeatureMatrix:
    # 1000 rows of 0.1 have an np.std of 1.4e-17, not 0: the column is
    # constant by its values, not by its computed spread
    rng = np.random.default_rng(5)
    data = np.column_stack([rng.normal(size=1000), np.full(1000, 0.1), rng.normal(size=1000)])
    assert np.std(data[:, 1]) > 0.0
    return FeatureMatrix(names=("a", "b", "c"), data=data)


def underflowing_matrix() -> FeatureMatrix:
    # the values differ, but their spread squares to 0: a zero divisor
    rng = np.random.default_rng(6)
    spread = np.zeros(50)
    spread[0] = 1e-200
    data = np.column_stack([rng.normal(size=50), spread, rng.normal(size=50)])
    assert np.std(data[:, 1]) == 0.0 and data[:, 1].max() != data[:, 1].min()
    return FeatureMatrix(names=("a", "b", "c"), data=data)


def select_through_cli(fm: FeatureMatrix, tmp_path, capsys) -> str:
    lines = [",".join(fm.names)] + [",".join(map(repr, row)) for row in fm.data.tolist()]
    path = write(tmp_path, "\n".join(lines) + "\n")
    code = cli.main(["select", "--input", str(path), "--lambda-c", "0.9",
                     "--lambda-mc", "5", "--method", "greedy"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    return err


@pytest.mark.parametrize("entry", ["pearson_matrix", "conflict_sets", "vif-target",
                                   "vif-regressor", "select_features", "cli-select"])
@pytest.mark.parametrize("matrix", [equal_valued_matrix, underflowing_matrix],
                         ids=["equal-valued", "underflowing"])
def test_constant_column_message(matrix, entry, tmp_path, capsys):
    fm = matrix()
    message = "feature 'b' (column 2) is constant"
    if entry == "cli-select":
        assert select_through_cli(fm, tmp_path, capsys) == f"error: {message}\n"
        return
    call = {
        "pearson_matrix": lambda: pearson_matrix(fm),
        "conflict_sets": lambda: conflict_sets(fm, lambda_mc=5.0),
        "vif-target": lambda: vif(fm, 2, [1, 3]),
        "vif-regressor": lambda: vif(fm, 1, [2, 3]),
        "select_features": lambda: select_features(fm, 0.9, 5.0, method="greedy"),
    }[entry]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_conflict_sets_orthogonal_all_empty():
    fm = FeatureMatrix(names=("a", "b", "c"), data=ORTHOGONAL)
    assert all(not ts for ts in conflict_sets(fm, lambda_mc=5.0).values())


def test_conflict_sets_sum_example():
    rng = np.random.default_rng(5)
    x1, x2 = rng.normal(size=200), rng.normal(size=200)
    fm = FeatureMatrix(names=("x1", "x2", "x3"),
                       data=np.column_stack([x1, x2, x1 + x2]))
    family = conflict_sets(fm, lambda_mc=5.0, k_top=2)
    assert 3 in family[1] and 3 in family[2]
    assert {1, 2} <= family[3]


def test_conflict_sets_break_coefficient_ties_to_the_smaller_index():
    # w = u + v + e on orthogonal columns: VIF(w) = 3 and VIF(u) = VIF(v) = 2,
    # and w's coefficients on u and v are equal to the last bit
    u, v, e = ORTHOGONAL.T
    fm = FeatureMatrix(names=("u", "v", "w"), data=np.column_stack([u, v, u + v + e]))
    family = conflict_sets(fm, lambda_mc=2.5, k_top=1)
    assert family == {1: frozenset({3}), 2: frozenset(), 3: frozenset({1})}
    assert family == reference_conflict_sets(fm, lambda_mc=2.5, k_top=1)


def test_conflict_sets_consistency_invariant():
    rng = np.random.default_rng(17)
    base = rng.normal(size=(120, 3))
    extra = base @ rng.normal(size=(3, 3)) + 0.05 * rng.normal(size=(120, 3))
    fm = FeatureMatrix(names=tuple(f"c{i}" for i in range(6)),
                       data=np.column_stack([base, extra]))
    family = conflict_sets(fm, lambda_mc=2.0, k_top=2)
    assert any(ts for ts in family.values())
    for v, ts in family.items():
        assert v not in ts
        for u in ts:
            assert v in family[u]


def test_conflict_sets_validation():
    fm = FeatureMatrix(names=("a", "b", "c"), data=ORTHOGONAL)
    with pytest.raises(ValueError):
        conflict_sets(fm, lambda_mc=1.0)
    with pytest.raises(ValueError, match="lambda_mc must exceed 1"):
        conflict_sets(fm, float("nan"))
    with pytest.raises(ValueError):
        conflict_sets(fm, lambda_mc=5.0, k_top=0)
    # a fractional k_top is refused whether or not a feature is flagged
    for data in (fm, planted_block_matrix()):
        with pytest.raises(TypeError):
            conflict_sets(data, lambda_mc=5.0, k_top=2.5)
        with pytest.raises(TypeError):
            select_features(data, 0.9, 5.0, k_top=2.5)


@pytest.mark.parametrize("n, m", [(10, 30), (30, 30)])
def test_conflict_sets_rejects_underdetermined(n, m):
    # with n <= m every feature fits the others perfectly, so the screen
    # would flag all of them; i.i.d. noise must not look multicollinear
    rng = np.random.default_rng(n)
    fm = FeatureMatrix(names=tuple(f"c{i}" for i in range(m)), data=rng.normal(size=(n, m)))
    with pytest.raises(ValueError, match=f"need n > {m} observations, got {n}"):
        conflict_sets(fm, lambda_mc=5.0)
    with pytest.raises(ValueError, match="need n >"):
        select_features(fm, lambda_c=0.9, lambda_mc=5.0, method="greedy")


def reference_conflict_sets(fm: FeatureMatrix, lambda_mc: float,
                            k_top: int = 3) -> dict[int, frozenset[int]]:
    """Reference: one ridge regression per feature on all the others."""
    raw: dict[int, set[int]] = {v: set() for v in range(1, fm.m + 1)}
    for v in range(1, fm.m + 1):
        others = tuple(u for u in range(1, fm.m + 1) if u != v)
        r2, coef = reference_fit(fm, v, others)
        factor = VIF_MAX if r2 >= 1.0 - 1e-12 else min(1.0 / (1.0 - r2), VIF_MAX)
        if factor > lambda_mc:
            magnitudes = np.abs(coef)
            floor = max(_COEF_FLOOR, 0.01 * float(magnitudes.max(initial=0.0)))
            ranked = sorted(((u, c) for u, c in zip(others, magnitudes) if c > floor),
                            key=lambda t: (-t[1], t[0]))
            raw[v] = {u for u, _ in ranked[:k_top]}
    for v in range(1, fm.m + 1):
        for u in raw[v].copy():
            raw[u].add(v)
    return {v: frozenset(raw[v]) for v in range(1, fm.m + 1)}


def _collinear_case(kind: str) -> FeatureMatrix:
    rng = np.random.default_rng(11)
    x1, x2, x3 = rng.normal(size=(3, 200))
    columns = {
        "duplicate": [x1, x1, x2, x3],
        "sum": [x1, x2, x3, x1 + x2],
        # VIF of the last column is about 2e10: below the cap, above 1e9
        "near-collinear": [x1, x2, x3, x1 + x2 + 1e-5 * rng.normal(size=200)],
    }[kind]
    return FeatureMatrix(names=("a", "b", "c", "d"), data=np.column_stack(columns))


@pytest.mark.parametrize("lambda_mc", [5.0, 1e9, 1e11])
@pytest.mark.parametrize("kind", ["duplicate", "sum", "near-collinear"])
def test_conflict_sets_match_reference_on_collinear_designs(kind, lambda_mc):
    fm = _collinear_case(kind)
    family = conflict_sets(fm, lambda_mc=lambda_mc, k_top=2)
    assert family == reference_conflict_sets(fm, lambda_mc=lambda_mc, k_top=2)
    # exact collinearity reaches the VIF_MAX cap, which clears even 1e11
    assert any(family.values()) == (kind != "near-collinear" or lambda_mc < 1e10)


def test_conflict_sets_match_reference_on_planted_blocks():
    fm = planted_block_matrix()
    for lambda_mc in (2.0, 5.0, 50.0):
        for k_top in (1, 3):
            family = conflict_sets(fm, lambda_mc=lambda_mc, k_top=k_top)
            assert family == reference_conflict_sets(fm, lambda_mc=lambda_mc, k_top=k_top)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), m=st.integers(2, 10), extra=st.integers(5, 60),
       mixing=st.floats(0.0, 3.0), lambda_mc=st.floats(1.5, 50.0), k_top=st.integers(1, 4))
def test_conflict_sets_match_reference_on_well_conditioned_designs(seed, m, extra, mixing,
                                                                   lambda_mc, k_top):
    rng = np.random.default_rng(seed)
    latent = rng.normal(size=(m + extra, m))
    data = latent + mixing * latent @ (rng.normal(size=(m, m)) * (rng.random((m, m)) < 0.3))
    fm = FeatureMatrix(names=tuple(f"c{i}" for i in range(m)), data=data)
    assume(np.linalg.cond(pearson_matrix(fm)) < 1e6)
    assert conflict_sets(fm, lambda_mc, k_top) == reference_conflict_sets(fm, lambda_mc, k_top)


# ------------------------------------------------------------------ selection

def test_select_duplicate_feature_keeps_one(tmp_path):
    rng = np.random.default_rng(9)
    a = rng.normal(size=50)
    c = rng.normal(size=50)
    fm = FeatureMatrix(names=("a", "b", "c"), data=np.column_stack([a, a, c]))
    report = select_features(fm, lambda_c=0.8, lambda_mc=5.0, method="exact")
    assert len({"a", "b"} & set(report.selected)) == 1
    assert "c" in report.selected
    assert report.witness_checked


def test_select_orthogonal_design_keeps_everything():
    fm = FeatureMatrix(names=("a", "b", "c"), data=ORTHOGONAL)
    for method in ("exact", "greedy", "randomized"):
        report = select_features(fm, lambda_c=0.8, lambda_mc=5.0, method=method, seed=1)
        assert set(report.selected) == {"a", "b", "c"}
        assert report.method == method


def test_select_planted_blocks_small():
    fm = planted_block_matrix(n=200, n_blocks=2, block_size=3, n_indep=3, seed=77)
    report = select_features(fm, lambda_c=0.8, lambda_mc=5.0, method="exact")
    chosen = set(report.selected)
    for b in range(2):
        assert sum(1 for i in range(3) if f"block{b}_{i}" in chosen) <= 1
    assert {"indep0", "indep1", "indep2"} <= chosen
    # deterministic: the derived instance and the selection repeat exactly
    again = select_features(fm, lambda_c=0.8, lambda_mc=5.0, method="exact")
    assert report == again


def test_select_reports_instance_facts():
    fm = planted_block_matrix(n=150, n_blocks=1, block_size=3, n_indep=2, seed=3)
    inst = build_instance(fm, lambda_c=0.8, lambda_mc=5.0)
    report = select_features(fm, lambda_c=0.8, lambda_mc=5.0, method="greedy")
    assert report.instance == inst
    assert report.edge_count == len(inst.edges)
    sizes = [len(inst.conflicts[v]) for v in range(1, inst.m + 1)]
    assert report.conflict_max == max(sizes)
    assert report.conflict_mean == float(sum(sizes)) / len(sizes)
    assert report.witness_checked is True
    selected_vertices = {fm.names.index(name) + 1 for name in report.selected}
    assert is_nice(selected_vertices, inst)
    payload = report.to_dict()
    assert set(payload) == {"selected", "method", "lambda_c", "lambda_mc",
                            "edge_count", "conflict_stats", "witness_checked"}
    assert set(payload["conflict_stats"]) == {"max", "mean"}
    # the report stores what select decided; the counts are read from the instance
    assert [f.name for f in dataclasses.fields(SelectionReport)] == \
        ["selected", "method", "lambda_c", "lambda_mc", "instance"]
    with pytest.raises(TypeError):
        SelectionReport(report.selected, "greedy", 0.8, 5.0, inst, witness_checked=True)
    with pytest.raises(AttributeError):
        report.edge_count = 0
    bare = dataclasses.replace(report, instance=Instance(inst.m))
    assert bare != report and (bare.edge_count, bare.conflict_max) == (0, 0)
    assert "instance" not in repr(report)


def test_select_checks_niceness_once(monkeypatch):
    calls = []
    # every module select_features can reach that binds is_nice
    for module in (niceset, niceset.instance, niceset.solvers, features):
        if "is_nice" in vars(module):
            def counted(s, inst, _original=module.is_nice):
                calls.append(s)
                return _original(s, inst)

            monkeypatch.setattr(module, "is_nice", counted)
    fm = planted_block_matrix(n=150, n_blocks=1, block_size=3, n_indep=2, seed=3)
    report = select_features(fm, lambda_c=0.8, lambda_mc=5.0, method="greedy")
    assert len(calls) == 1 and len(calls[0]) == len(report.selected)


def test_select_witness_check_rejects_non_nice_answer(monkeypatch):
    monkeypatch.setattr(niceset.solvers, "is_nice", lambda s, inst: False)
    fm = FeatureMatrix(names=("a", "b", "c"), data=ORTHOGONAL)
    with pytest.raises(RuntimeError, match="non-nice"):
        select_features(fm, lambda_c=0.8, lambda_mc=5.0, method="greedy")


def test_select_exact_budget_guard():
    # 61 features: the node budget is the only limit.  networkx's maximum
    # independent set of the union graph is 47 too
    rng = np.random.default_rng(0)
    fm = FeatureMatrix(names=tuple(f"c{i}" for i in range(61)),
                       data=rng.normal(size=(70, 61)))
    report = select_features(fm, lambda_c=0.9, lambda_mc=10.0, method="exact")
    assert len(report.selected) == 47 and report.witness_checked
    with pytest.raises(ValueError):
        select_features(fm, lambda_c=0.9, lambda_mc=10.0, method="bogus")
    # 65 columns: exact selection keeps one feature per block and every
    # independent one
    fm = planted_block_matrix(n_blocks=10, block_size=5, n_indep=15)
    chosen = set(select_features(fm, lambda_c=0.8, lambda_mc=5.0, method="exact").selected)
    for b in range(10):
        assert sum(1 for i in range(5) if f"block{b}_{i}" in chosen) == 1
    assert {f"indep{i}" for i in range(15)} <= chosen and len(chosen) == 25
