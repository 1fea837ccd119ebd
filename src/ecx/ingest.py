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
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .catalogs import PathOrStream, RegionCatalog, SectorCatalog, _open_text
from .errors import InputDataError

FIRMS_HEADER = ("firm_id", "region_code", "sector_code", "annual_sales", "employees")
MACRO_HEADER = ("region_code", "population", "gross_product", "income_per_person")


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


def _quoted_record(lineno: int, line: str, lines) -> List[str]:
    """Fields of the CSV record that starts with ``line``.

    While a quoted field is still open at the end of a line, ``csv``
    reads the next line from ``lines`` (an ``enumerate`` of the stream,
    so later rows keep their physical line numbers).  Returns no fields,
    a malformed row, when the file ends inside the quotes.  A field
    beyond csv's size limit, such as a stray quote that swallows the
    rest of a large file, is refused with the line where it opened.
    """
    ended = []

    def record_lines():
        yield line
        for _, more in lines:
            yield more
        ended.append(True)

    try:
        fields = next(csv.reader(record_lines()))
    except csv.Error as exc:
        raise InputDataError(
            f"firms table: record from line {lineno}: {exc}") from None
    return [] if ended else fields


def parse_firms(source: PathOrStream, regions: RegionCatalog,
                sectors: SectorCatalog) -> FirmParseResult:
    """Parse firm rows, validating codes against the catalogs.

    Returns all well-formed rows as a ``FirmTable`` plus a rejection
    report of (line number, reason) for every row that was dropped.
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
        isfinite = math.isfinite
        # 8 bytes a row each, not a Python object per value
        rids = array("q")
        sids = array("q")
        sales_col = array("d")
        rejections: List[Rejection] = []
        reject = rejections.append
        zero_sales = 0
        lines = enumerate(stream, start=2)
        for lineno, line in lines:
            if line.isspace():
                continue
            if '"' in line:
                fields = _quoted_record(lineno, line, lines)
            else:
                fields = line.rstrip("\r\n").split(",")
            if len(fields) != 5:
                reject(Rejection(lineno, "malformed row"))
                continue
            _, rcode, scode, sales_s, emp_s = fields
            rcode = rcode.strip()
            rid = region_id.get(rcode)
            if rid is None:
                reject(Rejection(lineno, f"unknown region code {rcode!r}"))
                continue
            scode = scode.strip()
            sid = sector_id.get(scode)
            if sid is None:
                reject(Rejection(lineno, f"unknown sector code {scode!r}"))
                continue
            sales_s = sales_s.strip()
            if not sales_s:
                reject(Rejection(lineno, "missing sales"))
                continue
            emp_s = emp_s.strip()
            if not emp_s:
                reject(Rejection(lineno, "missing employees"))
                continue
            try:
                sales = float(sales_s)
            except ValueError:
                reject(Rejection(lineno, "invalid sales"))
                continue
            if not isfinite(sales):
                reject(Rejection(lineno, "invalid sales"))
                continue
            if sales < 0:
                reject(Rejection(lineno, "negative sales"))
                continue
            try:
                employees = int(emp_s)
            except ValueError:
                reject(Rejection(lineno, "invalid employees"))
                continue
            if employees < 0:
                reject(Rejection(lineno, "negative employees"))
                continue
            if sales == 0.0:
                zero_sales += 1
            rids.append(rid)
            sids.append(sid)
            sales_col.append(sales)
        table = FirmTable(np.frombuffer(rids, dtype=np.int64),
                          np.frombuffer(sids, dtype=np.int64),
                          np.frombuffer(sales_col, dtype=np.float64),
                          regions.codes, sectors.codes)
        return FirmParseResult(table, rejections, zero_sales)
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
