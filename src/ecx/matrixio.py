"""Canonical on-disk formats.

A matrix file is UTF-8 CSV.  The header holds a corner label and the
column codes; each row holds a row code and one number per column.  Codes
are quoted as ``csv`` quotes them (a comma, a quote or a newline inside),
and floats are written with ``repr``, so reading them back reproduces
every float64 bit for bit, ``nan`` and ``inf`` included.  A 0/1 matrix
(``binary=True``: ``m.csv``, ``ordered_matrix.csv``) is written as ``0``
and ``1``, and any other cell is refused.

``read_matrix_csv`` reads the header with ``csv`` and the body with one
``np.loadtxt``.  It also accepts CRLF or CR line ends, blank lines (not
counted), spaces around a number, quoted cells, a missing final newline
and codes that begin with ``#``.  It refuses with ``InputDataError`` an
empty file, a file that is not UTF-8, a row whose field count is not the
header's (naming the row, header = row 1, and both counts) and a cell
that is not a number (naming its row, column and text).  A number is
what ``float()`` reads, in ASCII and without ``_``: ``1_000`` and
non-ASCII digits are refused.  A header-only file is a (0, s) matrix.

JSON sidecars/reports are serialized with sorted keys, two-space indent
and a trailing newline so byte-identical inputs give byte-identical
files.  Every file is written through ``replacing``, so an interrupted
write leaves the previous file as it was.
"""

from __future__ import annotations

import csv
import json
import os
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputDataError


def fmt_float(x: float) -> str:
    """Shortest decimal string that round-trips to the same float64."""
    return repr(float(x))


@contextmanager
def replacing(path, binary: bool = False):
    """Open a temporary file beside ``path`` for writing.

    When the block completes, ``os.replace`` puts the file under its
    name in one step; when it raises, the temporary file is removed, so
    a previous file at ``path`` stays byte-identical.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    fh = (open(tmp, "wb") if binary
          else open(tmp, "w", encoding="utf-8", newline=""))
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


#: the text of a 0/1 cell, indexed by the cell
_BITS = np.array(["0", "1"], dtype=object)


def binary_cells(values, what: str) -> np.ndarray:
    """``values == 1`` as a bool array; a cell other than 0 or 1 (NaN
    included) is refused with ``InputDataError`` naming ``what``."""
    values = np.asarray(values)
    ones = values == 1
    if not (ones | (values == 0)).all():
        raise InputDataError(f"{what} must contain only 0/1 entries")
    return ones


def bit_rows(values, what: str):
    """The rows of a 0/1 matrix as lists of "0" / "1" strings, one
    lookup per row instead of one ``str`` per cell."""
    ones = binary_cells(values, what)
    return (_BITS[row].tolist() for row in ones.view(np.uint8))


def write_matrix_csv(path, values: np.ndarray, row_codes: Sequence[str],
                     col_codes: Sequence[str], corner: str = "region_code",
                     binary: bool = False) -> None:
    values = np.asarray(values)
    if values.shape != (len(row_codes), len(col_codes)):
        raise InputDataError(
            f"matrix shape {values.shape} does not match "
            f"{len(row_codes)}x{len(col_codes)} labels"
        )
    if binary:
        rows = bit_rows(values, f"{path}: a binary matrix")
    else:
        # tolist() a row at a time: Python numbers for the whole matrix
        # would raise the peak memory of a pass
        rows = (map(repr, row.tolist())
                for row in values.astype(np.float64, copy=False))
    with replacing(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([corner, *col_codes])
        for code, cells in zip(row_codes, rows):
            w.writerow([code, *cells])


def read_matrix_csv(path):
    """Read a matrix CSV -> (values, row_codes, col_codes).

    The header goes through ``csv``; the body is one ``np.loadtxt`` over
    the same open file.  A file it refuses is scanned again with ``csv``
    to name the first bad row or cell.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise InputDataError(f"{path}: empty matrix file") from None
        except (csv.Error, UnicodeDecodeError) as exc:
            raise InputDataError(f"{path}: {exc}") from None
        col_codes = tuple(header[1:])
        row = np.dtype([("code", object),
                        ("v", np.float64, (len(col_codes),))])
        try:
            with warnings.catch_warnings():
                # a header-only file is a (0, s) matrix, not a warning
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(fh, dtype=row, delimiter=",",
                                   quotechar='"', comments=None, ndmin=1)
        except ValueError as exc:
            raise (_first_defect(path, len(col_codes) + 1)
                   or InputDataError(f"{path}: {exc}")) from None
    return (np.ascontiguousarray(table["v"]), tuple(table["code"].tolist()),
            col_codes)


def _is_number(cell: str) -> bool:
    """Whether ``np.loadtxt`` reads ``cell`` as a float64: what
    ``float()`` reads, in ASCII and without the ``_`` digit separator."""
    try:
        float(cell)
    except ValueError:
        return False
    return cell.strip().isascii() and "_" not in cell


def _first_defect(path, width: int):
    """``InputDataError`` naming the first row of ``path`` without
    ``width`` fields or the first cell that is not a number, or None.
    Rows are numbered with the header as row 1, blank lines not counted.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            col_codes = next(reader)[1:]
            for n, rec in enumerate(filter(None, reader), 2):
                if len(rec) != width:
                    return InputDataError(
                        f"{path}: row {n} has {len(rec)} fields, "
                        f"expected {width}")
                for code, cell in zip(col_codes, rec[1:]):
                    if not _is_number(cell):
                        return InputDataError(
                            f"{path}: row {n}, column {code!r}: "
                            f"{cell!r} is not a number")
        except (csv.Error, UnicodeDecodeError) as exc:
            return InputDataError(f"{path}: {exc}")
    return None


def write_csv(path, header: Sequence[str], rows) -> None:
    with replacing(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def jsonable(obj):
    """Recursively convert numpy scalars/arrays; NaN becomes null."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return None if x != x else x
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def dump_json(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> None:
    with replacing(path) as fh:
        fh.write(dump_json(obj))


def read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputDataError(f"{path}: {exc}") from None
