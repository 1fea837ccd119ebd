"""Raw-data ingestion: firm table, sales aggregation, macro indicators.

``firms.csv`` rows are firm-level observations (``firm_id,region_code,
sector_code,annual_sales,employees``).  Rows missing sales or employees
are rejected — the source data keeps only active firms for which both
are reported — while zero-sales rows are accepted (they contribute
nothing) and counted.  A quoted field may hold line breaks, as CSV
allows; its record takes the number of its first line.  Accepted rows
are held as columns in a ``FirmTable``: catalog ids and sales, the only
fields a later stage reads; firm ids and employee counts are checked but
not kept.  Aggregation sums sales into a region x sector matrix, adding
each cell's contributions in ascending-sales order, so the result is
bit-identical under any permutation of the input rows; a cell whose sum
overflows is refused by name.

One loop, ``_parse_range``, parses a run of lines, taking the stream's
own lines (``readlines``) in blocks of about ``_BLOCK_CHARS`` characters.
A few C-level passes over a block (comma counts, one ``split`` cut into
field columns, ``dict.get`` over the codes, ``float`` over the sales,
``isdecimal`` over the employee counts, numpy checks on the sales)
vouch for its plain rows: four commas, codes that hit the catalog
unstripped, finite sales >= 0 and fewer than 640 decimal digits of
employees, which ``int`` takes under any digit limit.  Every other line,
and every record that holds a quote, gets the one exact row verdict,
whose reasons and their order are the contract; a quoted record may
take lines past its block.  Accepted rows keep file order.

A file of at least two ``MIN_CHUNK_BYTES`` is cut at ``\\n`` bytes into
one byte range per usable CPU (at most ``MAX_RANGES``), each cut where
the quote bytes before it are even; forked children parse all ranges
but the first, which this process parses, and the columns are joined in
file order with each range's line numbers moved past the lines of the
ranges before it.  If a range fails, or one but the last ends inside
quotes (a quote inside an unquoted field can fool the parity), the whole
file is parsed again in one range, whose result or error is the answer.
A stream, a smaller file or a single CPU is parsed in one range, in this
process.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import signal
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .catalogs import PathOrStream, RegionCatalog, SectorCatalog, _open_text
from .errors import InputDataError

FIRMS_HEADER = ("firm_id", "region_code", "sector_code", "annual_sales", "employees")
MACRO_HEADER = ("region_code", "population", "gross_product", "income_per_person")

#: the smallest range of a firm table worth a process of its own.  A
#: fork costs more than the parse shows: every page the parent shared
#: with the child faults on its next write, so the break-even grows with
#: the memory a process writes after ingest.  On a 2-vCPU x86-64 VM,
#: cutting a table in two paid for whole ``ecx run`` passes from 1 MiB
#: (won 5 of 6 pairs of fresh processes), but a one-process chain of the
#: seven stage subcommands over random economies lost at 3.6 MB (won 2
#: of 6) and won at 5.2 MB (4 of 6), so no table under 4 MiB is cut.
#: Those pairs were run with the per-line row loop, before the block
#: check made the parse of a range cheaper
MIN_CHUNK_BYTES = 2 << 20
#: the most ranges, and so processes, one parse uses
MAX_RANGES = 4
#: bytes read at a time while placing the cuts between ranges
_BLOCK_BYTES = 1 << 20
#: characters of whole lines the row check takes at a time
_BLOCK_CHARS = 1 << 14
#: Python's lowest ``int_max_str_digits``: ``int`` takes any string of
#: fewer decimal digits, whatever the interpreter's limit
_INT_DIGITS = 640


@dataclass(frozen=True, eq=False)
class FirmTable:
    """Accepted firm rows as columns of catalog ids and sales.

    Region and sector ids index the catalogs the table was parsed with
    (excluded sectors included).
    """

    region_ids: np.ndarray       # (n,) int64
    sector_ids: np.ndarray       # (n,) int64
    sales: np.ndarray            # (n,) float64, finite and >= 0
    region_codes: Tuple[str, ...]
    sector_codes: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.sales)


@dataclass(frozen=True)
class Rejection:
    line: int
    reason: str


@dataclass
class FirmParseResult:
    records: FirmTable
    rejections: List[Rejection]
    zero_sales_count: int = 0


@dataclass(frozen=True)
class SalesMatrix:
    """Aggregated annual sales w[p][s] over non-excluded sectors."""

    values: np.ndarray           # (P, S) float64, entries >= 0
    regions: RegionCatalog
    sectors: SectorCatalog       # excluded sectors already removed

    def __post_init__(self):
        if self.values.shape != (len(self.regions), len(self.sectors)):
            raise InputDataError("sales matrix shape does not match catalogs")
        if np.any(self.values < 0) or not np.all(np.isfinite(self.values)):
            raise InputDataError("sales entries must be finite and >= 0")


@dataclass
class MacroIndicators:
    """Per-region macro variables; missing regions carry NaN."""

    regions: RegionCatalog
    population: np.ndarray
    gross_product: np.ndarray
    income_per_person: np.ndarray
    gpp_per_capita: np.ndarray
    rejections: List[Rejection] = field(default_factory=list)

    @property
    def present(self) -> np.ndarray:
        return np.isfinite(self.population)

    def column(self, name: str) -> np.ndarray:
        try:
            return getattr(self, name)
        except AttributeError:
            raise InputDataError(f"unknown macro indicator {name!r}") from None


def _split_csv_line(line: str) -> List[str]:
    # plain split is much faster than csv.reader on million-row files;
    # fall back to csv only for lines with quoted fields.
    if '"' in line:
        return next(csv.reader([line]))
    return line.rstrip("\r\n").split(",")


def _quoted_record(lineno: int, line: str, lines,
                   ended: list) -> Tuple[List[str], int]:
    """Fields of the CSV record that starts with ``line``, and how many
    lines it took from ``lines``.

    While a quoted field is still open at the end of a line, ``csv``
    reads the next line from ``lines``.  Returns no fields, a malformed
    row, when the lines end inside the quotes, and then appends to
    ``ended``.  A field beyond csv's size limit, such as a stray quote
    that swallows the rest of a large file, is refused with the line
    where it opened.
    """
    taken = 0

    def record_lines():
        nonlocal taken
        yield line
        for more in lines:
            taken += 1
            yield more
        ended.append(True)

    try:
        fields = next(csv.reader(record_lines()))
    except csv.Error as exc:
        raise InputDataError(
            f"firms table: record from line {lineno}: {exc}") from None
    return ([] if ended else fields), taken


class _Range(NamedTuple):
    """What the parse of one range of the firm table's body found.

    Lines are numbered as if the range began the body, at line 2.
    """

    rids: array
    sids: array
    sales: array
    rejections: List[Rejection]
    zero_sales: int
    lines: int              # physical lines read
    open_quote: bool        # the last record ran past the range's end


def _floats(cells) -> array:
    """``cells`` as floats, NaN where ``float`` refuses one; the cells
    after a refused one are converted in one call again."""
    out = array("d")
    cells = iter(cells)
    while True:
        try:
            out.extend(map(float, cells))
            return out
        except ValueError:
            out.append(math.nan)


def _plain_rows(lines: List[str], text: str, region: dict, sector: dict):
    """Vouch for the rows among ``lines`` (joined, ``text``) that the
    row verdict of ``_parse_range`` accepts as they stand, with C-level
    passes over all of them at once.

    A row is plain when it holds exactly four commas, no ``\\r`` and no
    ``\\n`` but one that ends it, both codes hit ``region`` and
    ``sector`` (codes equal to their own strip), its sales parse to a
    finite value >= 0 and its employee count is decimal digits, fewer
    than ``_INT_DIGITS`` of them.  Returns the region ids, sector ids and
    sales of the plain rows in line order, and the indices of the other
    lines.
    """
    n = len(lines)
    counts = list(map(str.count, lines, repeat(",")))
    candidate = None            # None: every line
    # a text stream ends a line at each \n unless it ends lines at \r
    # (or \r\n), and then every line but its last holds a \r
    if (counts.count(4) != n or "\r" in text or text.count("\n") != n
            or not text.endswith("\n")):
        candidate = [c == 4 and "\r" not in line and "\n" not in line[:-1]
                     for c, line in zip(counts, lines)]
        text = "".join(itertools.compress(lines, candidate))
    # a candidate's only \n ends it, so each gives five fields
    fields = text.replace("\n", ",").split(",")
    rid = array("q", map(region.get, fields[1::5], repeat(-1)))
    sid = array("q", map(sector.get, fields[2::5], repeat(-1)))
    sales = _floats(fields[3::5])
    employees = fields[4::5]
    r = np.frombuffer(rid, np.int64)
    s = np.frombuffer(sid, np.int64)
    x = np.frombuffer(sales)
    plain = ((r >= 0) & (s >= 0) & np.isfinite(x) & (x >= 0)
             & np.fromiter(map(str.isdecimal, employees), bool, len(r))
             & (np.fromiter(map(len, employees), np.intp, len(r))
                < _INT_DIGITS))
    line_plain = plain
    if candidate is not None:
        line_plain = np.zeros(n, bool)
        line_plain[np.flatnonzero(candidate)] = plain
    return (array("q", r[plain].tobytes()), array("q", s[plain].tobytes()),
            array("d", x[plain].tobytes()),
            np.flatnonzero(~line_plain).tolist())


def _parse_range(stream, region_id: dict, sector_id: dict) -> _Range:
    """Parse the firm rows of a text stream that holds no header.

    The stream's lines are taken about ``_BLOCK_CHARS`` at a time.  In a
    block, ``_plain_rows`` vouches for the plain rows; every other line
    goes through ``exact``, the row verdict, as does each record that
    holds a quote, which may take lines past the block.
    """
    # a hit in these needed no strip
    plain_region = {c: i for c, i in region_id.items() if c == c.strip()}
    plain_sector = {c: i for c, i in sector_id.items() if c == c.strip()}
    # 8 bytes a row each, not a Python object per value
    rids = array("q")
    sids = array("q")
    sales_col = array("d")
    rejections: List[Rejection] = []
    reject = rejections.append
    zero_sales = 0
    open_quote: list = []
    isfinite = math.isfinite
    lineno = 2                  # the number of the next line

    def exact(fields, number):
        """Accept or reject a row's fields: the one row verdict."""
        nonlocal zero_sales
        if len(fields) != 5:
            return reject(Rejection(number, "malformed row"))
        _, rcode, scode, sales_s, emp_s = fields
        rcode = rcode.strip()
        rid = region_id.get(rcode)
        if rid is None:
            return reject(Rejection(number, f"unknown region code {rcode!r}"))
        scode = scode.strip()
        sid = sector_id.get(scode)
        if sid is None:
            return reject(Rejection(number, f"unknown sector code {scode!r}"))
        sales_s = sales_s.strip()
        if not sales_s:
            return reject(Rejection(number, "missing sales"))
        emp_s = emp_s.strip()
        if not emp_s:
            return reject(Rejection(number, "missing employees"))
        try:
            sales = float(sales_s)
        except ValueError:
            return reject(Rejection(number, "invalid sales"))
        if not isfinite(sales):
            return reject(Rejection(number, "invalid sales"))
        if sales < 0:
            return reject(Rejection(number, "negative sales"))
        try:
            employees = int(emp_s)
        except ValueError:
            return reject(Rejection(number, "invalid employees"))
        if employees < 0:
            return reject(Rejection(number, "negative employees"))
        if sales == 0.0:
            zero_sales += 1
        rids.append(rid)
        sids.append(sid)
        sales_col.append(sales)

    def unquoted(lines, text):
        """Take the next ``lines``, none of which holds a quote."""
        nonlocal zero_sales, lineno
        rid, sid, sales, others = _plain_rows(lines, text, plain_region,
                                              plain_sector)
        zero_sales += int(np.count_nonzero(np.frombuffer(sales) == 0))
        done = 0                # plain rows appended
        for k, i in enumerate(others):
            # k other lines come before line i, and i - k plain rows
            rids.extend(rid[done:i - k])
            sids.extend(sid[done:i - k])
            sales_col.extend(sales[done:i - k])
            done = i - k
            line = lines[i]
            if not line.isspace():
                exact(line.rstrip("\r\n").split(","), lineno + i)
        rids.extend(rid[done:])
        sids.extend(sid[done:])
        sales_col.extend(sales[done:])
        lineno += len(lines)

    while True:
        lines = stream.readlines(_BLOCK_CHARS)
        if not lines:
            break
        text = "".join(lines)
        if '"' not in text:
            unquoted(lines, text)
            continue
        # line by line: the unquoted lines between two records that hold
        # a quote are checked together, and a record takes the lines it
        # needs, past the block's if it must
        run = []
        rest = iter(lines)
        more = itertools.chain(rest, stream)
        for line in rest:
            if '"' not in line:
                run.append(line)
                continue
            if run:
                unquoted(run, "".join(run))
                run = []
            fields, taken = _quoted_record(lineno, line, more, open_quote)
            exact(fields, lineno)
            lineno += 1 + taken
        if run:
            unquoted(run, "".join(run))
    return _Range(rids, sids, sales_col, rejections, zero_sales,
                  lineno - 2, bool(open_quote))


class _ByteRange(io.RawIOBase):
    """Bytes ``[start, end)`` of a file as a raw stream, read as needed."""

    def __init__(self, path, start: int, end: int):
        self._file = open(path, "rb", buffering=0)
        self._file.seek(start)
        self._left = end - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._file.readinto(memoryview(buffer)[:self._left])
        self._left -= n
        return n

    def close(self) -> None:
        self._file.close()
        super().close()


def _parse_byte_range(path, start: int, end: int, region_id: dict,
                      sector_id: dict) -> _Range:
    with io.TextIOWrapper(io.BufferedReader(_ByteRange(path, start, end)),
                          encoding="utf-8", newline="") as stream:
        return _parse_range(stream, region_id, sector_id)


def _range_bounds(path, start: int, size: int) -> List[int]:
    """Bounds ``[start, ..., size]`` of the ranges to parse the body in.

    One range per usable CPU, at most ``MAX_RANGES`` and none smaller
    than about ``MIN_CHUNK_BYTES``.  Each inner bound lies just after a
    ``\\n`` with an even number of quote bytes between ``start`` and it,
    so it is outside any quoted field unless a quote stands inside an
    unquoted one; the parse of the range before it checks that.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity mask, as on macOS: one range
        cpus = 1
    k = min(cpus, MAX_RANGES, (size - start) // MIN_CHUNK_BYTES)
    bounds = [start]
    if k < 2:
        return bounds + [size]
    pos, quotes = start, 0      # quote bytes in [start, pos)
    with open(path, "rb") as fh:
        fh.seek(start)
        while len(bounds) < k:
            block = fh.read(_BLOCK_BYTES)
            if not block:
                break
            done = 0            # quotes of block[:done] are counted
            while len(bounds) < k:
                target = start + (size - start) * len(bounds) // k
                newline = block.find(b"\n", max(target - pos, done))
                if newline < 0:
                    break
                quotes += block.count(b'"', done, newline + 1)
                done = newline + 1
                if quotes % 2 == 0 and pos + done < size:
                    bounds.append(pos + done)
            quotes += block.count(b'"', done)
            pos += len(block)
    bounds.append(size)
    return bounds


def _parse_split(path, bounds: List[int], region_id: dict,
                 sector_id: dict) -> Optional[List[_Range]]:
    """Parse each range of ``bounds``: the first in this process, each
    other one in a forked child that sends it back through a pipe.

    Returns the ranges in file order, or None if a range failed or one
    but the last ended inside quotes (a cut fell inside a quoted field).
    Every child is reaped before this returns or raises.
    """
    import pickle

    children = []               # (pid, read end of its pipe), file order
    try:
        for start, end in zip(bounds[1:-1], bounds[2:]):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                return None
            if pid == 0:
                # the child never returns into the caller's stack, and
                # any failure of its range shows as a pipe without data
                code = 1
                try:
                    os.close(read_fd)
                    for _, fd in children:
                        os.close(fd)
                    part = _parse_byte_range(path, start, end, region_id,
                                             sector_id)
                    with open(write_fd, "wb") as pipe:
                        pickle.dump(part, pipe, pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children.append((pid, read_fd))
        try:
            parts = [_parse_byte_range(path, bounds[0], bounds[1],
                                       region_id, sector_id)]
            for _, fd in children:
                with open(fd, "rb", closefd=False) as pipe:
                    parts.append(pickle.load(pipe))
        except (InputDataError, ValueError, OSError, EOFError,
                pickle.PickleError):
            return None
        if any(part.open_quote for part in parts[:-1]):
            return None
        return parts
    finally:
        for pid, fd in children:
            os.close(fd)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)


def _merge(parts: List[_Range], regions: RegionCatalog,
           sectors: SectorCatalog) -> FirmParseResult:
    """One result from the ranges in file order: columns appended to the
    first range's, rejection lines moved past the earlier ranges."""
    first = parts[0]
    rejections = first.rejections
    zero_sales = first.zero_sales
    shift = first.lines
    for part in parts[1:]:
        first.rids.extend(part.rids)
        first.sids.extend(part.sids)
        first.sales.extend(part.sales)
        rejections += [Rejection(r.line + shift, r.reason)
                       for r in part.rejections]
        zero_sales += part.zero_sales
        shift += part.lines
    table = FirmTable(np.frombuffer(first.rids, dtype=np.int64),
                      np.frombuffer(first.sids, dtype=np.int64),
                      np.frombuffer(first.sales, dtype=np.float64),
                      regions.codes, sectors.codes)
    return FirmParseResult(table, rejections, zero_sales)


def parse_firms(source: PathOrStream, regions: RegionCatalog,
                sectors: SectorCatalog) -> FirmParseResult:
    """Parse firm rows, validating codes against the catalogs.

    Returns all well-formed rows as a ``FirmTable`` plus a rejection
    report of (line number, reason) for every row that was dropped.
    A file of at least two ``MIN_CHUNK_BYTES`` is parsed in ranges on
    up to ``MAX_RANGES`` usable CPUs; a stream, a smaller file, a single
    CPU or a split that fails is parsed in one range, in this process,
    and gives the same result or error.
    """
    stream = _open_text(source)
    close = stream is not source
    try:
        header_line = stream.readline()
        if not header_line:
            raise InputDataError("firms table: empty file")
        header = tuple(h.strip() for h in _split_csv_line(header_line))
        if header != FIRMS_HEADER:
            raise InputDataError(
                "firms table: expected header "
                f"{','.join(FIRMS_HEADER)}, got {','.join(header)}"
            )
        region_id = {r.code: r.region_id for r in regions}
        sector_id = {s.code: s.sector_id for s in sectors}
        parts = None
        if close:
            start = len(header_line.encode("utf-8"))
            bounds = _range_bounds(source, start,
                                   os.fstat(stream.fileno()).st_size)
            if len(bounds) > 2:
                parts = _parse_split(source, bounds, region_id, sector_id)
        if parts is None:
            parts = [_parse_range(stream, region_id, sector_id)]
        return _merge(parts, regions, sectors)
    finally:
        if close:
            stream.close()


def aggregate_sales(records: FirmTable, regions: RegionCatalog,
                    sectors: SectorCatalog) -> SalesMatrix:
    """Sum sales into w[p][s]; excluded-sector rows contribute nothing.

    ``np.bincount`` adds its weights one by one in input order, so
    feeding it the rows in ascending-sales order adds each cell's
    contributions smallest first.  That fixes every sum whatever the
    input row order: rows with equal sales are interchangeable.
    """
    if len(records) == 0:
        raise InputDataError("no data: cannot aggregate an empty record list")
    if (records.region_codes != regions.codes
            or records.sector_codes != sectors.codes):
        raise InputDataError("firm table was parsed with other catalogs")
    kept = sectors.kept()
    col_of = np.full(len(sectors), -1, dtype=np.intp)
    col_of[[s.sector_id for s in sectors if not s.excluded]] = np.arange(len(kept))
    col = col_of[records.sector_ids]
    keep = col >= 0
    sales = records.sales[keep]
    cell = records.region_ids[keep] * len(kept) + col[keep]
    order = np.argsort(sales)
    size = len(regions) * len(kept)
    # bincount of no rows gives int zeros; every other result is float64
    values = np.bincount(cell[order], weights=sales[order],
                         minlength=size).astype(np.float64, copy=False)
    values = values.reshape(len(regions), len(kept))
    overflow = np.argwhere(~np.isfinite(values))
    if len(overflow):
        i, j = overflow[0]
        raise InputDataError(
            f"sales of region {regions.codes[i]!r} in sector "
            f"{kept.codes[j]!r} overflow: their sum is not finite"
        )
    return SalesMatrix(values, regions, kept)


def parse_macro(source: PathOrStream, regions: RegionCatalog) -> MacroIndicators:
    """Parse the macro-indicator table; absent regions are NaN."""
    stream = _open_text(source)
    close = stream is not source
    try:
        reader = csv.DictReader(stream)
        header = tuple(reader.fieldnames or ())
        missing = [c for c in MACRO_HEADER if c not in header]
        if missing:
            raise InputDataError(
                f"macro table: missing required column(s) {', '.join(missing)}"
            )
        n = len(regions)
        pop = np.full(n, np.nan)
        gp = np.full(n, np.nan)
        inc = np.full(n, np.nan)
        rejections: List[Rejection] = []
        seen = set()
        for lineno, row in enumerate(reader, start=2):
            code = (row["region_code"] or "").strip()
            if code in seen:
                raise InputDataError(f"macro table: duplicate region {code!r}")
            if code not in regions:
                rejections.append(Rejection(lineno, f"unknown region code {code!r}"))
                continue
            seen.add(code)
            try:
                p = float(row["population"])
                g = float(row["gross_product"])
                i = float(row["income_per_person"])
            except (TypeError, ValueError):
                rejections.append(Rejection(lineno, "invalid numeric field"))
                continue
            if not (np.isfinite(p) and np.isfinite(g) and np.isfinite(i)):
                rejections.append(Rejection(lineno, "invalid numeric field"))
                continue
            if p <= 0:
                rejections.append(Rejection(lineno, "nonpositive population"))
                continue
            rid = regions[code].region_id
            pop[rid], gp[rid], inc[rid] = p, g, i
        return MacroIndicators(regions, pop, gp, inc, gp / pop, rejections)
    finally:
        if close:
            stream.close()
