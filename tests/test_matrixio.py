"""Byte layout of the matrix CSV and PBM writers, and what the matrix
reader accepts and refuses."""

import csv
import io
import os
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import CATALOG_CODES, run_python
from ecx import InputDataError, RegionCatalog, SectorCatalog
from ecx.fitness import OrderedMatrixView
from ecx.matrixio import (fmt_float, read_matrix_csv, write_csv,
                          write_matrix_csv)
from ecx.pipeline import write_ordered_matrix
from oracles import read_matrix_reference

# codes that csv must quote (comma, quote, newline) or keep as they are
# (leading space, empty, carriage return)
CODES = ("a,b", 'q"x', " lead", "", "x\ny", "cr\rz")


def _csv_writer_text(values, row_codes, col_codes, corner, binary):
    """The matrix CSV as one csv.writer row per matrix row."""
    fmt = (lambda v: str(int(v))) if binary else fmt_float
    fh = io.StringIO(newline="")
    w = csv.writer(fh, lineterminator="\n")
    w.writerow([corner, *col_codes])
    for code, row in zip(row_codes, values):
        w.writerow([code, *(fmt(v) for v in row)])
    return fh.getvalue().encode("utf-8")


@pytest.mark.parametrize("values,binary", [
    (np.array([[-0.0, 5e-324, 1e308], [0.1, -2.5, 1 / 3], [np.inf, np.nan, 0.0],
               [1.0, 1e-300, 2 ** 53], [-1e308, 7.0, 1e16], [0.5, 0.25, 3.0]]),
     False),
    (np.array([[0, 1, 1], [1, 0, 0], [1, 1, 1], [0, 0, 0], [1, 0, 1],
               [0, 1, 0]], dtype=np.int64), True),
    (np.array([[0.0, 1.0, 1.0]] * 6), True),
    (np.array([[0, 1, 2]] * 6, dtype=np.int64), False),
    (np.empty((6, 0)), False),
])
def test_matrix_csv_bytes_match_csv_writer(tmp_path, values, binary):
    col_codes = CODES[: values.shape[1]]
    path = tmp_path / "m.csv"
    write_matrix_csv(path, values, CODES, col_codes, corner="c,orner",
                     binary=binary)
    assert path.read_bytes() == _csv_writer_text(values, CODES, col_codes,
                                                 "c,orner", binary)


def test_ordered_matrix_pbm_bytes(tmp_path):
    matrix = np.array([[1, 1, 0], [1, 0, 0]], dtype=np.int64)
    view = OrderedMatrixView(matrix, ("R1", "R2"), ("S1", "S2", "S3"), 0.0)
    write_ordered_matrix(tmp_path, view)
    assert (tmp_path / "ordered_matrix.pbm").read_bytes() == (
        b"P1\n3 2\n1 1 0\n1 0 0\n")
    assert (tmp_path / "ordered_matrix.csv").read_bytes() == _csv_writer_text(
        matrix, view.row_codes, view.col_codes, "region_code", True)


def _defect(code):
    """Why a catalog refuses ``code``, or None."""
    if not code:
        return "empty"
    if "\r" in code:
        return "carriage return"
    try:
        code.encode("utf-8")
    except UnicodeEncodeError:
        return "lone surrogate"
    return None


@given(CATALOG_CODES, CATALOG_CODES,
       st.lists(st.floats(allow_nan=False), min_size=16, max_size=16))
@example(["a\rb", "c"], ["x"], [1.0] * 16)
@example(["a"], ["x", "\ud800"], [1.0] * 16)
@example(["\udfff\r"], ["\ud800"], [1.0] * 16)
@example(["a"], [" "], [1.0] * 16)
@settings(max_examples=150, deadline=None)
def test_matrix_csv_round_trips_catalog_codes(tmp_path_factory, rcodes,
                                              scodes, cells):
    refused = [c for c in (c.strip() for c in rcodes + scodes) if _defect(c)]
    try:
        regions = RegionCatalog.from_rows((c, "r", "Kanto") for c in rcodes)
        sectors = SectorCatalog.from_rows((c, "s", "Goods", 0) for c in scodes)
    except InputDataError as exc:
        # the first defective code is named, with its own defect
        assert refused, exc
        assert repr(refused[0]) in str(exc)
        assert _defect(refused[0]) in str(exc)
        return
    assert not refused
    values = np.array(cells[: len(regions) * len(sectors)]).reshape(
        len(regions), len(sectors))
    path = tmp_path_factory.mktemp("m") / "m.csv"
    write_matrix_csv(path, values, regions.codes, sectors.codes)
    back, row_codes, col_codes = read_matrix_csv(path)
    assert row_codes == regions.codes
    assert col_codes == sectors.codes
    assert back.shape == values.shape
    assert back.tobytes() == values.tobytes()


def test_interrupted_write_leaves_previous_file(tmp_path):
    target = tmp_path / "t.csv"
    write_csv(target, ("a", "b"), [(1, 2)])
    before = target.read_bytes()

    def rows():
        for i in range(10_000):     # past the write buffer
            yield (i, "x" * 20)
        raise RuntimeError("interrupted")

    for path in (target, tmp_path / "new.csv"):
        with pytest.raises(RuntimeError, match="interrupted"):
            write_csv(path, ("a", "b"), rows())
    assert target.read_bytes() == before
    assert os.listdir(tmp_path) == ["t.csv"]


def _read_both(path):
    """``read_matrix_csv`` of ``path``, checked bit for bit against the
    csv + ``float()`` reference."""
    values, row_codes, col_codes = read_matrix_csv(path)
    want, want_rows, want_cols = read_matrix_reference(path)
    assert (row_codes, col_codes) == (want_rows, want_cols)
    assert values.shape == want.shape
    assert values.tobytes() == want.tobytes()
    return values, row_codes, col_codes


# NaN, +-inf, -0.0 and subnormals included
@given(CATALOG_CODES, CATALOG_CODES, st.lists(st.floats(), min_size=16,
                                              max_size=16), st.booleans())
@example([], ["x", "y"], [0.0] * 16, False)
@example(["a", "b"], [], [0.0] * 16, True)
@example(["#a", ""], ["x"], [-0.0, 5e-324] + [0.0] * 14, False)
@example(["a"], ["x", "y", "z"], [np.nan, np.inf, -np.inf] + [0.0] * 13,
         False)
@settings(max_examples=150, deadline=None)
def test_read_matches_reference_on_written_files(tmp_path_factory, rcodes,
                                                 scodes, cells, binary):
    # a matrix CSV carries an empty code, which only a catalog refuses
    assume(all(_defect(c) in (None, "empty") for c in rcodes + scodes))
    values = np.array(cells[: len(rcodes) * len(scodes)]).reshape(
        len(rcodes), len(scodes))
    if binary:
        values = (values > 0).astype(np.int64)
    path = tmp_path_factory.mktemp("m") / "m.csv"
    write_matrix_csv(path, values, rcodes, scodes, binary=binary)
    back, row_codes, col_codes = _read_both(path)
    assert (row_codes, col_codes) == (tuple(rcodes), tuple(scodes))
    assert np.array_equal(back, values, equal_nan=True)
    zeros = values == 0
    assert (np.signbit(back[zeros]) == np.signbit(values[zeros])).all()


@pytest.mark.parametrize("text,shape", [
    ("c,a,b\r\nR1,1,2\r\nR2,3,4\r\n", (2, 2)),
    ("c,a\rR1,1\rR2,2\r", (2, 1)),
    ("c,a\n\nR1,1\n\n\nR2,2\n\n", (2, 1)),
    ("c,a,b\nR1, 1.5 ,\t2\nR2,3 , -0.0\u2003\n", (2, 2)),
    ("c,a\nR1,1\nR2,nan", (2, 1)),
    ("c,a\n#R1,1\n# R2,-inf\n", (2, 1)),
    ('c,"a\nb",b\r\nR1,1,2\r\n', (1, 2)),
    ('c,a\n"R,1","2.5"\n"q""x",1e-320\n', (2, 1)),
    ('c\nR1\n""\n', (2, 0)),
    ("c,a,b\n", (0, 2)),
])
def test_read_matches_reference_on_hand_made_text(tmp_path, text, shape):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _read_both(path)[0].shape == shape


def _refusal(reader, path) -> str:
    with pytest.raises(InputDataError) as exc:
        reader(path)
    assert exc.value.exit_code == 2
    return str(exc.value)


@pytest.mark.parametrize("text,message", [
    ("", "empty matrix file"),
    ("c,a,b\nR1,1,2\n\nR2,3\n", "row 3 has 2 fields, expected 3"),
    ("c,a,b\nR1,1,2,3\n", "row 2 has 4 fields, expected 3"),
    ("c,a,b\n\nR1,1,2\r\nR2,1,2\n   \n", "row 4 has 1 fields, expected 3"),
    ("c\nR1,1\n", "row 2 has 2 fields, expected 1"),
])
def test_field_counts_and_empty_file_refused(tmp_path, text, message):
    """Rows are numbered with the header as row 1 and blank lines not
    counted, by both readers."""
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    for reader in (read_matrix_csv, read_matrix_reference):
        assert _refusal(reader, path) == f"{path}: {message}"


@pytest.mark.parametrize("cell", ["x", "", " ", "1,5", "0x10", "1e", "--1",
                                  "1_000", "\u0661\u0662"])
def test_non_number_cell_refused_by_name(tmp_path, cell):
    path = tmp_path / "m.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [["c", "a", "b"], ["R1", "1", "2"], ["R2", "3", cell]])
    assert _refusal(read_matrix_csv, path) == (
        f"{path}: row 3, column 'b': {cell!r} is not a number")


@pytest.mark.parametrize("cell,value", [("1_000", 1000.0),
                                        ("\u0661\u0662", 12.0)])
def test_float_only_spellings_now_refused(tmp_path, cell, value):
    """``float()`` reads digit separators and non-ASCII digits, and so did
    the csv reader; no writer emits them, and ``np.loadtxt`` refuses them."""
    path = tmp_path / "m.csv"
    path.write_text(f"c,a\nR1,{cell}\n", encoding="utf-8")
    assert read_matrix_reference(path)[0].tolist() == [[value]]
    assert "is not a number" in _refusal(read_matrix_csv, path)


@pytest.mark.parametrize("data", [b"c,a\nR1,\xff\n", b"\xff,a\nR1,1\n"])
def test_undecodable_file_refused(tmp_path, data):
    path = tmp_path / "m.csv"
    path.write_bytes(data)
    assert _refusal(read_matrix_csv, path).startswith(
        f"{path}: 'utf-8' codec can't decode")


def test_header_only_file_is_an_empty_matrix_without_warning(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("region_code,S1,S2\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, row_codes, col_codes = read_matrix_csv(path)
    assert values.shape == (0, 2) and values.dtype == np.float64
    assert (row_codes, col_codes) == ((), ("S1", "S2"))


@pytest.mark.parametrize("cell", [2, 0.5, -1, np.nan, np.inf])
def test_binary_writer_refuses_other_cells(tmp_path, cell):
    values = np.array([[0.0, 1.0], [1.0, cell]])
    path = tmp_path / "m.csv"
    with pytest.raises(InputDataError, match="only 0/1 entries"):
        write_matrix_csv(path, values, ("a", "b"), ("x", "y"), binary=True)
    assert not path.exists()
    view = OrderedMatrixView(values, ("a", "b"), ("x", "y"), 0.0)
    with pytest.raises(InputDataError, match="only 0/1 entries"):
        write_ordered_matrix(tmp_path, view)
    assert os.listdir(tmp_path) == []


def test_matrix_io_imports_nothing_new(tmp_path):
    """A read and a 0/1 write load no module that ``import ecx.cli`` has
    not loaded already."""
    script = """
        import sys
        import ecx.cli
        from ecx.matrixio import read_matrix_csv, write_matrix_csv
        loaded = set(sys.modules)
        path = sys.argv[1] + "/m.csv"
        write_matrix_csv(path, [[0, 1], [1, 1]], ("a", "b"), ("x", "y"),
                         binary=True)
        read_matrix_csv(path)
        print(sorted(set(sys.modules) - loaded))
    """
    proc = run_python(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
