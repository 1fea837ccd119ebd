"""Canonical on-disk formats.

Matrices are CSV files with row codes in the first column and column
codes in the header row; floats are written with ``repr`` so re-parsing
reproduces them bit-exactly.  JSON sidecars/reports are serialized with
sorted keys, two-space indent and a trailing newline so byte-identical
inputs give byte-identical files.  Every file is written through
``replacing``, so an interrupted write leaves the previous file as it was.
"""

from __future__ import annotations

import csv
import json
import os
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


def write_matrix_csv(path, values: np.ndarray, row_codes: Sequence[str],
                     col_codes: Sequence[str], corner: str = "region_code",
                     integer: bool = False) -> None:
    values = np.asarray(values)
    if values.shape != (len(row_codes), len(col_codes)):
        raise InputDataError(
            f"matrix shape {values.shape} does not match "
            f"{len(row_codes)}x{len(col_codes)} labels"
        )
    # Python ints and floats format as fmt_float and int() do
    fmt = str if integer else repr
    cells = values.astype(np.int64 if integer else np.float64, copy=False)
    with replacing(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([corner, *col_codes])
        # tolist() a row at a time: Python numbers for the whole matrix
        # would raise the peak memory of a pass
        for code, row in zip(row_codes, cells):
            w.writerow([code, *map(fmt, row.tolist())])


def read_matrix_csv(path):
    """Read a canonical matrix CSV -> (values, row_codes, col_codes)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputDataError(f"{path}: empty matrix file") from None
        col_codes = tuple(header[1:])
        row_codes = []
        rows = []
        for rec in reader:
            if not rec:
                continue
            if len(rec) != len(col_codes) + 1:
                raise InputDataError(
                    f"{path}: row {len(rows) + 2} has {len(rec)} fields, "
                    f"expected {len(col_codes) + 1}"
                )
            row_codes.append(rec[0])
            try:
                rows.append([float(v) for v in rec[1:]])
            except ValueError as exc:
                raise InputDataError(f"{path}: {exc}") from None
    values = np.array(rows, dtype=float) if rows else np.empty((0, len(col_codes)))
    return values, tuple(row_codes), col_codes


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
