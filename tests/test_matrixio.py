"""Byte layout of the matrix CSV and PBM writers."""

import csv
import io
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecx import InputDataError, RegionCatalog, SectorCatalog
from ecx.fitness import OrderedMatrixView
from ecx.matrixio import (fmt_float, read_matrix_csv, write_csv,
                          write_matrix_csv)
from ecx.pipeline import write_ordered_matrix

# codes that csv must quote (comma, quote, newline) or keep as they are
# (leading space, empty, carriage return)
CODES = ("a,b", 'q"x', " lead", "", "x\ny", "cr\rz")


def _csv_writer_text(values, row_codes, col_codes, corner, integer):
    """The matrix CSV as one csv.writer row per matrix row."""
    fmt = (lambda v: str(int(v))) if integer else fmt_float
    fh = io.StringIO(newline="")
    w = csv.writer(fh, lineterminator="\n")
    w.writerow([corner, *col_codes])
    for code, row in zip(row_codes, values):
        w.writerow([code, *(fmt(v) for v in row)])
    return fh.getvalue().encode("utf-8")


@pytest.mark.parametrize("values,integer", [
    (np.array([[-0.0, 5e-324, 1e308], [0.1, -2.5, 1 / 3], [np.inf, np.nan, 0.0],
               [1.0, 1e-300, 2 ** 53], [-1e308, 7.0, 1e16], [0.5, 0.25, 3.0]]),
     False),
    (np.array([[0, 1, 1], [1, 0, 0], [1, 1, 1], [0, 0, 0], [1, 0, 1],
               [0, 1, 0]], dtype=np.int64), True),
    (np.array([[0.0, 1.0, 1.0]] * 6), True),
    (np.array([[0, 1, 2]] * 6, dtype=np.int64), False),
    (np.empty((6, 0)), False),
])
def test_matrix_csv_bytes_match_csv_writer(tmp_path, values, integer):
    col_codes = CODES[: values.shape[1]]
    path = tmp_path / "m.csv"
    write_matrix_csv(path, values, CODES, col_codes, corner="c,orner",
                     integer=integer)
    assert path.read_bytes() == _csv_writer_text(values, CODES, col_codes,
                                                 "c,orner", integer)


def test_ordered_matrix_pbm_bytes(tmp_path):
    matrix = np.array([[1, 1, 0], [1, 0, 0]], dtype=np.int64)
    view = OrderedMatrixView((0, 1), (0, 1, 2), matrix, ("R1", "R2"),
                             ("S1", "S2", "S3"), 0.0)
    write_ordered_matrix(tmp_path, view)
    assert (tmp_path / "ordered_matrix.pbm").read_bytes() == (
        b"P1\n3 2\n1 1 0\n1 0 0\n")
    assert (tmp_path / "ordered_matrix.csv").read_bytes() == _csv_writer_text(
        matrix, view.row_codes, view.col_codes, "region_code", True)


# codes with csv's special characters; the catalogs strip codes at the
# ends and refuse one holding "\r", which csv.writer leaves unquoted
_CODES = st.lists(
    st.text(st.one_of(st.characters(), st.sampled_from(',"\n\r\t ')),
            max_size=3),
    max_size=4, unique_by=str.strip)


@given(_CODES, _CODES,
       st.lists(st.floats(allow_nan=False), min_size=16, max_size=16))
@example(["a\rb", "c"], ["x"], [1.0] * 16)
@settings(max_examples=150, deadline=None)
def test_matrix_csv_round_trips_catalog_codes(tmp_path_factory, rcodes,
                                              scodes, cells):
    try:
        regions = RegionCatalog.from_rows((c, "r", "Kanto") for c in rcodes)
        sectors = SectorCatalog.from_rows((c, "s", "Goods", 0) for c in scodes)
    except InputDataError as exc:
        assert "carriage return" in str(exc)
        assert any("\r" in c for c in rcodes + scodes)
        return
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
