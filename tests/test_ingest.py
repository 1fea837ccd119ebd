"""Firm/macro parsing and deterministic sales aggregation."""

import csv
import io
import os
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_region_catalog, make_sector_catalog, run_python
from ecx import (InputDataError, RegionCatalog, SectorCatalog,
                 aggregate_sales, ingest, parse_firms, parse_macro)
from ecx.catalogs import Region
from ecx.matrixio import read_matrix_csv, write_matrix_csv
from oracles import aggregate_sales_reference, parse_firms_reference

HEADER = "firm_id,region_code,sector_code,annual_sales,employees\n"


def _parse(body: str, p=3, s=3):
    return parse_firms(io.StringIO(HEADER + body),
                       make_region_catalog(p), make_sector_catalog(s))


def _rows(table):
    """(region code, sector code, sales.hex()) for each row of a table."""
    return [(table.region_codes[r], table.sector_codes[s], x.hex())
            for r, s, x in zip(table.region_ids.tolist(),
                               table.sector_ids.tolist(), table.sales.tolist())]


def test_parse_three_rows():
    res = _parse("F1,R01,S01,100.5,3\nF2,R02,S02,50,1\nF3,R03,S03,7,12\n"
                 "F4,R99,S01,1,1\n")
    assert len(res.records) == 3
    assert _rows(res.records) == [("R01", "S01", (100.5).hex()),
                                  ("R02", "S02", (50.0).hex()),
                                  ("R03", "S03", (7.0).hex())]
    assert [(r.line, r.reason) for r in res.rejections] == [
        (5, "unknown region code 'R99'")]


def test_header_mismatch():
    with pytest.raises(InputDataError, match="expected header"):
        parse_firms(io.StringIO("id,region,sector,sales,emp\n"),
                    make_region_catalog(3), make_sector_catalog(3))


def test_empty_file():
    with pytest.raises(InputDataError, match="empty file"):
        parse_firms(io.StringIO(""), make_region_catalog(3),
                    make_sector_catalog(3))


@pytest.mark.parametrize("row,reason", [
    ("F1,R99,S01,10,1", "unknown region code 'R99'"),
    ("F1,R01,S99,10,1", "unknown sector code 'S99'"),
    ("F1,R01,S01,,1", "missing sales"),
    ("F1,R01,S01,10,", "missing employees"),
    ("F1,R01,S01,ten,1", "invalid sales"),
    ("F1,R01,S01,-5,1", "negative sales"),
    ("F1,R01,S01,10,two", "invalid employees"),
    ("F1,R01,S01,10,-2", "negative employees"),
    ("F1,R01,S01,10", "malformed row"),
    ("F1,R01,S01,10,1,extra", "malformed row"),
    ("F1,R01,S01,nan,1", "invalid sales"),
    ("F1,R01,S01,inf,1", "invalid sales"),
    ("F1,R01,S01,-inf,1", "invalid sales"),
])
def test_rejection_reasons(row, reason):
    res = _parse(row + "\n")
    assert len(res.records) == 0
    assert len(res.rejections) == 1
    assert res.rejections[0].line == 2
    assert res.rejections[0].reason == reason


def test_zero_sales_accepted_and_counted():
    res = _parse("F1,R01,S01,0,5\nF2,R01,S01,10,5\n")
    assert len(res.records) == 2
    assert res.zero_sales_count == 1
    sales = aggregate_sales(res.records, make_region_catalog(3),
                            make_sector_catalog(3))
    assert sales.values[0, 0] == 10.0


def test_blank_lines_skipped():
    res = _parse("F1,R01,S01,1,1\n\n   \nF2,R02,S02,2,2\n")
    assert len(res.records) == 2
    assert res.rejections == []


def test_quoted_field_with_comma():
    res = _parse('"F,1",R01,S01,10,1\nF2,R99,S01,1,1\n')
    assert len(res.records) == 1
    assert _rows(res.records) == [("R01", "S01", (10.0).hex())]
    assert [(r.line, r.reason) for r in res.rejections] == [
        (3, "unknown region code 'R99'")]


def test_quoted_newline_joins_lines():
    res = _parse('"Acme\nLtd",R01,S01,10,1\nF2,R99,S01,1,1\n')
    assert len(res.records) == 1
    assert _rows(res.records) == [("R01", "S01", (10.0).hex())]
    # the record spans lines 2-3; the next row keeps its physical number
    assert [(r.line, r.reason) for r in res.rejections] == [
        (4, "unknown region code 'R99'")]


def test_unterminated_quote_at_end_of_file():
    res = _parse('F1,R01,S01,10,1\n"Open,R01,S01,1,1\nF3,R01,S01,2,2\n')
    assert len(res.records) == 1
    assert [(r.line, r.reason) for r in res.rejections] == [
        (3, "malformed row")]


def test_stray_quote_in_large_table_is_refused_by_line():
    # the open quote swallows every later line into one field, which
    # outgrows csv's field_size_limit long before the end of the file
    rows = "".join(f"F{i},R01,S01,{i},1\n" for i in range(4, 20000))
    body = 'F1,R01,S01,10,1\n"Open,R01,S01,1,1\n' + rows
    assert len(rows) > csv.field_size_limit()
    with pytest.raises(InputDataError,
                       match="record from line 3: field larger than"):
        _parse(body)


def test_overflowing_cell_is_named():
    res = _parse("F1,R01,S01,1,1\nF2,R02,S03,1e308,1\nF3,R02,S03,1e308,1\n")
    with pytest.raises(InputDataError,
                       match="region 'R02' in sector 'S03' overflow"):
        aggregate_sales(res.records, make_region_catalog(3),
                        make_sector_catalog(3))


def test_excluded_sector_dropped_at_aggregation():
    regions = make_region_catalog(2)
    sectors = SectorCatalog.from_rows([
        ("S01", "Kept", "Goods", 0),
        ("S02", "Dropped", "Goods", 1),
    ])
    res = parse_firms(
        io.StringIO(HEADER + "F1,R01,S01,10,1\nF2,R01,S02,99,1\n"),
        regions, sectors)
    assert len(res.records) == 2   # parse keeps it, aggregation drops it
    sales = aggregate_sales(res.records, regions, sectors)
    assert sales.values.shape == (2, 1)
    assert sales.sectors.codes == ("S01",)
    assert sales.values.sum() == 10.0


def test_aggregate_requires_records():
    res = _parse("", p=2, s=2)
    with pytest.raises(InputDataError, match="no data"):
        aggregate_sales(res.records, make_region_catalog(2),
                        make_sector_catalog(2))


def test_aggregate_refuses_other_catalogs():
    res = _parse("F1,R01,S01,10,1\n")
    with pytest.raises(InputDataError, match="other catalogs"):
        aggregate_sales(res.records, make_region_catalog(2),
                        make_sector_catalog(3))


def _aggregate(lines, regions, sectors):
    res = parse_firms(io.StringIO(HEADER + "".join(lines)), regions, sectors)
    assert len(res.records) == len(lines)
    return aggregate_sales(res.records, regions, sectors)


@given(st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_aggregation_order_independent(rnd):
    regions = make_region_catalog(4)
    sectors = make_sector_catalog(3)
    lines = [f"F{k},R{1 + k % 4:02d},S{1 + k % 3:02d},{0.1 * (k + 1) / 7.0!r},{k}\n"
             for k in range(30)]
    base = _aggregate(lines, regions, sectors)
    shuffled = list(lines)
    rnd.shuffle(shuffled)
    again = _aggregate(shuffled, regions, sectors)
    assert base.values.tobytes() == again.values.tobytes()


def test_matrix_total_matches_accepted_sales():
    # integer sales make the equality exact under any summation order
    regions = make_region_catalog(3)
    sectors = make_sector_catalog(3)
    lines = [f"F{k},R{1 + k % 3:02d},S01,{float(k)!r},1\n" for k in range(20)]
    sales = _aggregate(lines, regions, sectors)
    assert sales.values.sum() == sum(range(20))


def test_reparse_roundtrip_bit_exact(tmp_path):
    regions = make_region_catalog(3)
    sectors = make_sector_catalog(3)
    lines = [f"F{k},R{1 + k % 3:02d},S{1 + k % 3:02d},{(k + 1) * 0.1!r},1\n"
             for k in range(17)]
    sales = _aggregate(lines, regions, sectors)
    path = tmp_path / "sales.csv"
    write_matrix_csv(path, sales.values, sales.regions.codes,
                     sales.sectors.codes, corner="region_code")
    values, rcodes, scodes = read_matrix_csv(path)
    assert tuple(rcodes) == sales.regions.codes
    assert tuple(scodes) == sales.sectors.codes
    assert values.tobytes() == sales.values.tobytes()


# Messy firm tables for the comparison with the reference ingest: rows
# are mostly well formed so that cells collect several sales of mixed
# magnitude, and the summation order shows in the bits of the sums.
_MESSY_SECTORS = SectorCatalog.from_rows([
    ("S01", "Kept", "Goods", 0),
    ("S02", "Dropped", "Goods", 1),
    ("S03", "Kept too", "Services", 0),
])
_SALES = ["0", "-0", "0.0", "-0.0", "1", "3", "1e16", "1e-300", "5e-324",
          "1e308", "1.7976931348623157e308", "1_000", "2.5e-17"]
# sums that mix these magnitudes round differently in different orders
_SUMMANDS = ["1", "1", "1e16", "0.1", "0.2", "0.3"]
_BAD_SALES = ["", " ", "nan", "inf", "-inf", "ten", "-5", "1__0", "1e400",
              "infinity"]
# int() takes a sign and any Unicode decimal digit; 640 digits and more
# pass the block check to the exact one
_EMPLOYEES = ["0", "7", " 12 ", "1_000", str(2 ** 63 + 1), str(10 ** 30),
              "+5", "\u0663", "9" * 640]
# beyond int()'s default limit of 4300 digits
_BAD_EMPLOYEES = ["", "-2", "two", "1.5", "1" * 5000]
# a region code with spaces around it never matches a stripped field
_PADDED_REGIONS = RegionCatalog([Region(0, "R01", "Region 01", "Kanto"),
                                 Region(1, "R02", "Region 02", "Kanto"),
                                 Region(2, " R03 ", "Region 03", "Kansai")])
_REGIONS = st.sampled_from([make_region_catalog(3), _PADDED_REGIONS])
# blocks of the row check as short as a few characters end inside
# quoted records, on blank lines and before a last line with no newline
_BLOCK = st.sampled_from([ingest._BLOCK_CHARS, 1, 5, 17, 60])

# each field is drawn with its (quoted, padding) style; padding outside
# the quotes leaves the quotes in the field, so only messy rows get it
_STYLE = st.sampled_from([(False, 0)] * 4 + [(True, 0), (False, 1), (False, 2)])
_MESSY_STYLE = st.sampled_from([(False, 0), (True, 0), (False, 1), (True, 1)])


def _fields(style, *strategies):
    return st.tuples(*(st.tuples(s, style) for s in strategies))


_FIRM_ID = st.text(alphabet='F1a ,"\n\r', max_size=4)
_GOOD_ROW = _fields(
    _STYLE, _FIRM_ID, st.sampled_from(["R01", "R01", "R02", "R03"]),
    st.sampled_from(["S01", "S01", "S02", "S03"]),
    st.one_of(st.sampled_from(_SUMMANDS), st.sampled_from(_SUMMANDS),
              st.sampled_from(_SALES),
              st.floats(min_value=0, max_value=1e300).map(repr)),
    st.sampled_from(_EMPLOYEES))
_MESSY_ROW = _fields(
    _MESSY_STYLE, _FIRM_ID, st.sampled_from(["R03", "R99", "", "r01"]),
    st.sampled_from(["S03", "S99", ""]),
    st.one_of(st.sampled_from(_SALES + _BAD_SALES), st.floats().map(repr)),
    st.sampled_from(_EMPLOYEES + _BAD_EMPLOYEES))
_KIND = st.sampled_from(["row"] * 8 + ["messy", "blank", "count", "open"])
_BLANK = st.sampled_from(["", "   ", "\t"])
_ENDING = st.sampled_from(["\n", "\r\n"])
# how the stream ends lines; a body whose line ends differ reads as
# other lines, and one that ends lines at \r keeps a \n inside a line
_NEWLINE = st.sampled_from(["", "", "\n", "\r", "\r\n", None])


def _csv_field(text, style):
    quoted, pad = style
    if quoted or any(c in text for c in ',"\n\r'):
        text = '"' + text.replace('"', '""') + '"'
    return " " * pad + text + " " * pad


@st.composite
def _messy_firm_table(draw):
    """The body of a CSV table: quoted and padded fields, newlines
    inside quotes, blank lines, mixed line endings, unknown codes, an
    excluded sector, wrong field counts, quotes left open (closed by a
    later line or by the end of the file), and sales and employee counts
    that are valid, invalid or extreme."""
    lines = []
    for _ in range(draw(st.integers(0, 60))):
        kind = draw(_KIND)
        if kind == "blank":
            line = draw(_BLANK)
        elif kind == "open":
            fields = draw(_GOOD_ROW)
            line = ",".join([*(_csv_field(*f) for f in fields[:-1]),
                             '"' + fields[-1][0]])
        else:
            fields = draw(_GOOD_ROW if kind == "row" else _MESSY_ROW)
            if kind == "count":
                fields = (fields[:draw(st.integers(0, 4))]
                          or fields + (("extra", (False, 0)),))
            line = ",".join(_csv_field(*f) for f in fields)
        lines.append(line + draw(_ENDING))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


@given(_messy_firm_table(), _REGIONS, _BLOCK, _NEWLINE)
# in file order 1e16 + 1 + 1 rounds to 1e16, in sales order to 1e16 + 2
@example("F1,R01,S01,1e16,1\r\nF2,R01,S01,1,1\nF3,R01,S01,1,1\n",
         make_region_catalog(3), ingest._BLOCK_CHARS, "")
@example('"Acme\nLtd",R01,S01,10,1\nF2,R99,S01,1,1\n',
         make_region_catalog(3), 5, "")
@example('F1,R01,S01,10,1\n"Open,R01,S01,1,1\nF3,R01,S01,2,2\n',
         make_region_catalog(3), 1, "")
# rows that the exact check refuses: a code that matches a padded
# catalog code only unstripped, and a count of 5000 digits
@example("F1, R03 ,S01,1,1\nF2,R01,S01,1," + "1" * 5000 + "\n",
         _PADDED_REGIONS, ingest._BLOCK_CHARS, "")
# a stream that ends lines at \r or \r\n keeps this \n inside the last
# line, so its region code is the second comma field, S01
@example("F1,R01,S01,2,2\rF2\nR02,S01,3,3,3", make_region_catalog(3),
         ingest._BLOCK_CHARS, "\r")
@example("F1,R01,S01,2,2\r\nF2\nR02,S01,3,3,3", make_region_catalog(3),
         ingest._BLOCK_CHARS, "\r\n")
@settings(max_examples=100, deadline=None)
def test_ingest_matches_reference(body, regions, block, newline):
    sectors = _MESSY_SECTORS
    # the header is one line only if it ends as the stream ends lines
    text = HEADER.replace("\n", {None: "\n", "": "\n"}.get(newline, newline))
    text += body
    stream = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")),
                              encoding="utf-8", newline=newline)
    try:
        expected = parse_firms_reference(text, regions.codes, sectors.codes,
                                         newline)
    except ValueError as exc:
        with mock.patch.object(ingest, "_BLOCK_CHARS", block), \
                pytest.raises(InputDataError, match=re.escape(str(exc))):
            parse_firms(stream, regions, sectors)
        return
    with mock.patch.object(ingest, "_BLOCK_CHARS", block):
        res = parse_firms(stream, regions, sectors)
    records, rejections, zero_sales = expected
    assert [(r.line, r.reason) for r in res.rejections] == rejections
    assert res.zero_sales_count == zero_sales
    assert len(res.records) == len(records)
    assert _rows(res.records) == [
        (r.region_code, r.sector_code, r.annual_sales.hex()) for r in records]
    expected = aggregate_sales_reference(records, regions.codes,
                                         sectors.kept().codes)
    if not records:
        with pytest.raises(InputDataError, match="no data"):
            aggregate_sales(res.records, regions, sectors)
    elif not np.isfinite(expected).all():
        i, j = np.argwhere(~np.isfinite(expected))[0]
        cell = (f"region {regions.codes[i]!r} in sector "
                f"{sectors.kept().codes[j]!r} overflow")
        with pytest.raises(InputDataError, match=re.escape(cell)):
            aggregate_sales(res.records, regions, sectors)
    else:
        sales = aggregate_sales(res.records, regions, sectors)
        assert sales.values.tobytes() == expected.tobytes()


# The split parse: a firm file cut into byte ranges parsed by forked
# children must give exactly what one range, parsed in this process, gives.

def _result(res):
    """Column bytes, (line, reason) rejections and zero-sales count."""
    t = res.records
    return (t.region_ids.tobytes(), t.sector_ids.tobytes(), t.sales.tobytes(),
            [(r.line, r.reason) for r in res.rejections], res.zero_sales_count)


def _serial(text, regions, sectors):
    """Result or error message of the one-range parse of ``text``."""
    try:
        return _result(parse_firms(io.StringIO(text, newline=""), regions,
                                   sectors))
    except InputDataError as exc:
        return str(exc)


def _from_file(path, regions, sectors):
    try:
        return _result(parse_firms(path, regions, sectors))
    except InputDataError as exc:
        return str(exc)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def split(monkeypatch):
    """Every file of two bytes or more is parsed in ranges on 4 CPUs;
    yields the lists of ranges that the split parses returned."""
    monkeypatch.setattr(ingest, "MIN_CHUNK_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(4)), raising=False)
    returned = []
    parse_split = ingest._parse_split

    def recorded(*args):
        parts = parse_split(*args)
        returned.append(parts)
        return parts

    monkeypatch.setattr(ingest, "_parse_split", recorded)
    return returned


def _rows_of_every_kind(n):
    """Rows with quoted multi-line fields, CRLF and lone-CR endings,
    blank lines, zero sales and rejections; their quotes pair up."""
    kinds = [
        "F{k},R01,S01,{k},1\n",
        '"Acme\n{k} Ltd",R02,S02,{k}.5,2\r\n',
        "F{k},R03,S03,0,3\r",
        "\n",
        "   \r\n",
        "F{k},R99,S01,1,1\n",
        '"F,{k}",R01,S02,{k}e3,"7"\n',
        "F{k},R02,S01,,1\n",
        '"multi\r\nline\n{k}",R01,S03,3,4\n',
    ]
    return "".join(kinds[k % len(kinds)].format(k=k) for k in range(n))


@pytest.mark.parametrize("tail", [
    "",
    'F_last,R01,S01,1,1\n"Open,R01,S01,1,1\nF_after,R01,S01,2,2\n',
])
def test_split_parse_equals_serial(tmp_path, split, tail):
    text = HEADER + _rows_of_every_kind(900) + tail
    path = tmp_path / "firms.csv"
    path.write_bytes(text.encode("utf-8"))
    regions, sectors = make_region_catalog(3), make_sector_catalog(3)
    assert _from_file(path, regions, sectors) == _serial(text, regions,
                                                         sectors)
    assert [len(parts) for parts in split] == [4]
    _no_child_left()


def test_split_parse_at_scale(tmp_path, split):
    """Rejection lines far into the last range keep their numbers."""
    rows = [f"F{k},R{1 + k % 3:02d},S{1 + k % 3:02d},{k % 5},1\n"
            for k in range(50_000)]
    rows[49_990] = "F_bad,R99,S01,1,1\n"
    rows[7] = "F_bad,R01,S01,,1\n"
    text = HEADER + "".join(rows)
    path = tmp_path / "firms.csv"
    path.write_bytes(text.encode("utf-8"))
    regions, sectors = make_region_catalog(3), make_sector_catalog(3)
    res = parse_firms(path, regions, sectors)
    assert [(r.line, r.reason) for r in res.rejections] == [
        (9, "missing sales"), (49_992, "unknown region code 'R99'")]
    assert _result(res) == _serial(text, regions, sectors)
    assert [len(parts) for parts in split] == [4]


_MID_QUOTE_ROW = st.sampled_from([
    'F"1,R01,S01,1,1', 'F1,R0"1,S01,1,1', 'F1,R01,S01,2,1"', 'a"b"c,R02,S02,3,3'])
_SPLIT_ENDING = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _split_body(draw):
    """Firm-table text whose lines mix every case that cuts must survive:
    quoted multi-line fields, literal quotes inside unquoted fields (an
    even quote count can then fall inside a quoted field), CRLF and
    lone-CR endings, blank lines, and quotes left open, also at the end
    of the file."""
    lines = [HEADER]
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["row"] * 5 + ["mid", "blank", "open"]))
        if kind == "blank":
            line = draw(_BLANK)
        elif kind == "mid":
            line = draw(_MID_QUOTE_ROW)
        else:
            fields = draw(_GOOD_ROW)
            line = ",".join(_csv_field(*f) for f in fields)
            if kind == "open":
                line = '"' + line
        lines.append(line + draw(_SPLIT_ENDING))
    if draw(st.booleans()):
        lines.append('"Open at the end,R01,S01,1,1\n')
    elif len(lines) > 1 and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


@given(_split_body(), st.lists(st.integers(0, 1000), max_size=3), _BLOCK)
# the quote count is even inside "Acme\nLtd", where the cut falls
@example(HEADER + 'F"1,R01,S01,1,1\n"Acme\nLtd",R01,S01,10,1\nF3,R01,S01,2,2\n',
         [1], 5)
@settings(max_examples=100, deadline=None)
def test_split_parse_matches_serial_at_any_cuts(text, picks, block):
    regions, sectors = make_region_catalog(3), _MESSY_SECTORS
    raw = text.encode("utf-8")
    start = len(HEADER)
    # a cut may follow any \n of the body but the last byte
    newlines = [i + 1 for i in range(start, len(raw) - 1) if raw[i] == 10]
    cuts = sorted({newlines[i % len(newlines)] for i in picks}
                  if newlines else ())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "firms.csv"
        path.write_bytes(raw)
        # the cuts that parse_firms would choose keep to their contract
        with mock.patch.object(ingest, "MIN_CHUNK_BYTES", 1), \
                mock.patch.object(os, "sched_getaffinity",
                                  lambda pid: set(range(4)), create=True):
            bounds = ingest._range_bounds(path, start, len(raw))
        assert bounds[0] == start and bounds[-1] == len(raw)
        inner = bounds[1:-1]
        assert inner == sorted(set(inner))
        for cut in inner:
            assert start < cut < len(raw) and raw[cut - 1] == 10
            assert raw.count(b'"', start, cut) % 2 == 0
        # and any cuts at all give the one-range result or error
        with mock.patch.object(ingest, "_range_bounds",
                               lambda *args: [start, *cuts, len(raw)]), \
                mock.patch.object(ingest, "_BLOCK_CHARS", block):
            got = _from_file(path, regions, sectors)
    assert got == _serial(text, regions, sectors)


@pytest.mark.parametrize("stray_row,evening_row", [(2, 12_000),
                                                   (30_000, None)])
def test_stray_quote_in_large_table_is_refused_by_line_when_split(
        tmp_path, split, stray_row, evening_row):
    # early, a literal quote in an unquoted field evens the quote count
    # again, so there are cuts and the stray quote opens in the first
    # range, parsed here; late, it opens in a child's range
    rows = [f"F{i},R01,S01,{i},1\n" for i in range(40_000)]
    rows[stray_row] = '"Open,R01,S01,1,1\n'
    if evening_row is not None:
        rows[evening_row] = 'F"x,R01,S01,1,1\n'
    path = tmp_path / "firms.csv"
    path.write_text(HEADER + "".join(rows), encoding="utf-8")
    line = stray_row + 2
    with pytest.raises(InputDataError,
                       match=f"record from line {line}: field larger than"):
        parse_firms(path, make_region_catalog(3), make_sector_catalog(3))
    assert split and split[0] is None
    _no_child_left()


def test_interrupted_split_parse_leaves_no_child(tmp_path, split,
                                                 monkeypatch):
    path = tmp_path / "firms.csv"
    path.write_text(HEADER + _rows_of_every_kind(900), encoding="utf-8")
    parse_byte_range = ingest._parse_byte_range
    parent = os.getpid()

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return parse_byte_range(*args)

    monkeypatch.setattr(ingest, "_parse_byte_range", interrupted)
    with pytest.raises(KeyboardInterrupt):
        parse_firms(path, make_region_catalog(3), make_sector_catalog(3))
    _no_child_left()


@pytest.mark.parametrize("split_parse,row", [(False, 500), (True, 1000),
                                             (True, 7990)],
                         ids=["one-range", "split-first", "split-last"])
def test_non_utf8_firm_table_is_refused_by_name(tmp_path, request,
                                                split_parse, row):
    """A byte that is not UTF-8 is refused by the file's name, whichever
    range of a split parse meets it."""
    returned = request.getfixturevalue("split") if split_parse else None
    # past the 8 KB that reading the header decodes; a range is ~32 KB
    rows = [f"F{k},R01,S01,1,1\n" for k in range(8000)]
    rows[row] = "F\xe9,R01,S01,1,1\n"
    path = tmp_path / "firms.csv"
    path.write_bytes(HEADER.encode() + "".join(rows).encode("latin-1"))
    with pytest.raises(InputDataError, match=re.escape(
            f"{path}: not UTF-8 text: byte 0xe9")):
        parse_firms(path, make_region_catalog(3), make_sector_catalog(3))
    if split_parse:
        assert returned == [None]       # refused again in one range
        _no_child_left()


def test_split_parse_imports_no_process_pool(tmp_path):
    """The split forks by itself: neither ``import ecx`` nor a split
    parse loads ``multiprocessing``."""
    script = """
        import sys
        import ecx
        from ecx import ingest
        assert "multiprocessing" not in sys.modules, "loaded by import ecx"
        ingest.MIN_CHUNK_BYTES = 1
        ingest.os.sched_getaffinity = lambda pid: {0, 1}
        fixture = ecx.bundled_fixture_dir()
        res = ingest.parse_firms(
            fixture / "firms.csv",
            ecx.RegionCatalog.from_csv(fixture / "regions.csv"),
            ecx.SectorCatalog.from_csv(fixture / "sectors.csv"))
        assert len(res.records) > 0
        assert "multiprocessing" not in sys.modules, "loaded by parse_firms"
    """
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr


MACRO_HEADER = "region_code,population,gross_product,income_per_person\n"


def test_macro_basic_and_missing_region():
    regions = make_region_catalog(3)
    macro = parse_macro(io.StringIO(
        MACRO_HEADER + "R01,1000,5000000,2400\nR03,2000,2000000,2600\n"),
        regions)
    assert list(macro.present) == [True, False, True]
    assert macro.gpp_per_capita[0] == 5000.0
    assert np.isnan(macro.income_per_person[1])
    assert macro.rejections == []


def test_macro_duplicate_region():
    with pytest.raises(InputDataError, match="duplicate region"):
        parse_macro(io.StringIO(
            MACRO_HEADER + "R01,1,1,1\nR01,2,2,2\n"), make_region_catalog(2))


@pytest.mark.parametrize("row,reason", [
    ("R99,1000,1,1", "unknown region code 'R99'"),
    ("R01,many,1,1", "invalid numeric field"),
    ("R01,nan,1,1", "invalid numeric field"),
    ("R01,0,1,1", "nonpositive population"),
    ("R01,-5,1,1", "nonpositive population"),
])
def test_macro_rejections(row, reason):
    macro = parse_macro(io.StringIO(MACRO_HEADER + row + "\n"),
                        make_region_catalog(2))
    assert [r.reason for r in macro.rejections] == [reason]


def test_macro_header_checked():
    with pytest.raises(InputDataError, match="missing required column"):
        parse_macro(io.StringIO("region_code,population\nR01,5\n"),
                    make_region_catalog(2))


def test_million_row_scale(tmp_path):
    """1,033,518 valid rows (plus two bad ones) parse to as many records."""
    from ecx import bundled_regions, bundled_sectors
    regions = bundled_regions()
    sectors = bundled_sectors()
    rcodes = regions.codes
    scodes = sectors.codes
    n = 1_033_518
    path = tmp_path / "firms.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(HEADER)
        fh.writelines(
            f"F{k:07d},{rcodes[k % 47]},{scodes[k % 97]},{100 + k % 977},{1 + k % 9}\n"
            for k in range(n)
        )
        fh.write("F_bad_1,XX,01,1,1\n")
        fh.write("F_bad_2,HK,01,,1\n")
    res = parse_firms(path, regions, sectors)
    assert len(res.records) == n
    assert [(r.line, r.reason) for r in res.rejections] == [
        (n + 2, "unknown region code 'XX'"), (n + 3, "missing sales")]
    assert res.zero_sales_count == 0


def test_parse_holds_few_bytes_per_row(tmp_path):
    """The table keeps three 8-byte columns, not an object per value."""
    n = 20_000
    path = tmp_path / "firms.csv"
    path.write_text(HEADER + "".join(
        f"F{k:07d},R{1 + k % 3:02d},S{1 + k % 3:02d},{100 + k % 977},"
        f"{1000 + k}\n" for k in range(n)), encoding="utf-8")
    regions, sectors = make_region_catalog(3), make_sector_catalog(3)
    tracemalloc.start()
    try:
        res = parse_firms(path, regions, sectors)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.records) == n
    assert held <= 32 * n, f"{held / n:.1f} bytes held per row"
    assert peak <= 64 * n, f"{peak / n:.1f} bytes peak per row"
