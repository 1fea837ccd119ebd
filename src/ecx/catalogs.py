"""Region and sector catalogs.

Catalogs are ordered lists of labelled entries with dense integer ids.
They are loaded from small CSV files (``regions.csv``: ``code,name,
super_region``; ``sectors.csv``: ``code,name,division,excluded``) and are
the single source of truth for which sector codes are excluded from the
analysis.  A reference pair of catalogs for Japan's 47 prefectures and
97 industrial sectors (91 retained + 6 excluded) ships with the package,
together with published rank tables used by the test-suite.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO, Union

from .errors import InputDataError

PathOrStream = Union[str, Path, TextIO]

#: Japan's eight super-regions, in the conventional north-to-south order.
SUPER_REGIONS = (
    "Hokkaido",
    "Tohoku",
    "Kanto",
    "Chubu",
    "Kansai",
    "Chugoku",
    "Shikoku",
    "Kyushu",
)

#: The nineteen sector divisions used by the bundled catalog.
DIVISIONS = (
    "Agriculture & Forestry",
    "Fisheries",
    "Mining and quarrying of stone",
    "Construction",
    "Manufacturing",
    "Electricity, Gas, Heat & Water",
    "Information & Communications",
    "Transport & Postal service",
    "Wholesale & Retail trade",
    "Finance & Insurance",
    "Real estate & Goods rental",
    "Scientific research & Technical services",
    "Accommodations & Eating services",
    "Living-related and personal services",
    "Education & Learning support",
    "Medical health care and welfare",
    "Cooperative associations",
    "Service, N.E.C.",
    "Government services",
)


@dataclass(frozen=True)
class Region:
    region_id: int
    code: str
    name: str
    super_region: str


@dataclass(frozen=True)
class Sector:
    sector_id: int
    code: str
    name: str
    division: str
    excluded: bool


@contextmanager
def open_table(source: PathOrStream) -> Iterator[TextIO]:
    """``source`` as a text stream: a path is opened as UTF-8 and closed
    on exit, a stream is used as it is.  A byte that is not UTF-8 is
    refused with ``InputDataError`` naming the file."""
    stream = source
    if not hasattr(source, "read"):
        stream = open(source, "r", encoding="utf-8", newline="")
    try:
        yield stream
    except UnicodeDecodeError as exc:
        raise InputDataError(
            f"{getattr(stream, 'name', 'input stream')}: not UTF-8 text: "
            f"byte {exc.object[exc.start]:#04x}: {exc.reason}") from None
    finally:
        if stream is not source:
            stream.close()


def _read_rows(source: PathOrStream, required: Sequence[str], what: str):
    """The rows of a catalog as dicts keyed by its header; a row with
    fewer fields than the header is refused."""
    with open_table(source) as stream:
        reader = csv.reader(stream)
        header = next(reader, [])
        missing = [c for c in required if c not in header]
        if missing:
            raise InputDataError(
                f"{what}: missing required column(s) {', '.join(missing)}"
            )
        for row in filter(None, reader):
            if len(row) < len(header):
                raise InputDataError(
                    f"{what}: line {reader.line_num} has {len(row)} "
                    f"fields, the header has {len(header)}")
            yield dict(zip(header, row))


def _check_code(kind: str, code: str) -> None:
    """Refuse an empty code, and one that a UTF-8 matrix CSV cannot carry."""
    if not code:
        # a firm row whose code field is blank would land on this entry
        raise InputDataError(f"{kind} code '' is empty")
    if "\r" in code:
        # csv.writer with "\n" line ends leaves a lone "\r" unquoted
        raise InputDataError(
            f"{kind} code {code!r} holds a carriage return, "
            "which a matrix CSV cannot carry")
    try:
        code.encode("utf-8")
    except UnicodeEncodeError:
        raise InputDataError(
            f"{kind} code {code!r} is not valid UTF-8 (it holds a lone "
            "surrogate), which a matrix CSV cannot carry") from None


def _excluded(flag, code) -> bool:
    """The sector ``code``'s ``excluded`` flag, which must be 0 or 1."""
    flag = str(flag).strip()
    if flag not in ("0", "1"):
        raise InputDataError(
            f"sectors catalog: excluded must be 0 or 1, got {flag!r} "
            f"for {code!r}")
    return flag == "1"


class _Catalog:
    """Ordered entries with unique, non-empty codes and dense ids, and
    every code-to-row lookup over them.

    ``codes`` holds each entry's code and ``index`` maps a code to its
    row, which is also the entry's id.
    """

    kind = ""           # "region" or "sector", as messages name it
    group_field = ""    # the entry attribute that groups a tree's nodes

    def __init__(self, entries: Iterable):
        self.entries = tuple(entries)
        self.codes = tuple(e.code for e in self.entries)
        self.index = {c: i for i, c in enumerate(self.codes)}
        if len(self.index) != len(self.codes):
            seen: set = set()
            dup = next(c for c in self.codes if c in seen or seen.add(c))
            raise InputDataError(f"duplicate {self.kind} code {dup!r}")
        id_field = f"{self.kind}_id"
        for i, e in enumerate(self.entries):
            if getattr(e, id_field) != i:
                raise InputDataError(
                    f"{self.kind} ids are not dense at {e.code!r}")
            _check_code(self.kind, e.code)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator:
        return iter(self.entries)

    def __contains__(self, code: str) -> bool:
        return code in self.index

    def __getitem__(self, code: str):
        try:
            return self.entries[self.index[code]]
        except KeyError:
            raise InputDataError(
                f"unknown {self.kind} code {code!r}") from None

    def subset(self, keep: Sequence[int]):
        """New catalog from the given row indices, with ids re-densified.
        Keeping every row in order returns this catalog itself."""
        if list(keep) == list(range(len(self))):
            return self
        id_field = f"{self.kind}_id"
        return type(self)(replace(self.entries[k], **{id_field: i})
                          for i, k in enumerate(keep))

    def select(self, codes: Iterable[str]):
        """``subset`` of the rows of ``codes``, in their order; a code
        outside the catalog is refused."""
        try:
            keep = [self.index[c] for c in codes]
        except KeyError as exc:
            raise InputDataError(
                f"{self.kind} {exc.args[0]!r} not in catalog") from None
        return self.subset(keep)

    def codes_outside(self, keep: Iterable[int]) -> tuple:
        """Codes of the rows not in ``keep``, in catalog order."""
        kept = set(keep)
        return tuple(c for i, c in enumerate(self.codes) if i not in kept)


class RegionCatalog(_Catalog):
    """Ordered, dense-indexed collection of regions."""

    kind = "region"
    group_field = "super_region"

    def __init__(self, regions: Iterable[Region]):
        super().__init__(regions)
        for r in self.entries:
            if r.super_region not in SUPER_REGIONS:
                raise InputDataError(
                    f"unknown super_region {r.super_region!r} for {r.code!r}"
                )

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[str]]) -> "RegionCatalog":
        return cls(
            Region(i, code.strip(), name.strip(), sup.strip())
            for i, (code, name, sup) in enumerate(rows)
        )

    @classmethod
    def from_csv(cls, source: PathOrStream) -> "RegionCatalog":
        rows = _read_rows(source, ("code", "name", "super_region"), "regions catalog")
        return cls.from_rows(
            (r["code"], r["name"], r["super_region"]) for r in rows
        )

    def to_csv_rows(self):
        yield ("code", "name", "super_region")
        for r in self.entries:
            yield (r.code, r.name, r.super_region)


class SectorCatalog(_Catalog):
    """Ordered, dense-indexed collection of sectors (with exclusion flags)."""

    kind = "sector"
    group_field = "division"

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "SectorCatalog":
        return cls(
            Sector(i, str(code).strip(), str(name).strip(), str(div).strip(),
                   _excluded(exc, code))
            for i, (code, name, div, exc) in enumerate(rows)
        )

    @classmethod
    def from_csv(cls, source: PathOrStream) -> "SectorCatalog":
        rows = _read_rows(
            source, ("code", "name", "division", "excluded"), "sectors catalog"
        )
        return cls.from_rows(
            (r["code"], r["name"], r["division"], r["excluded"]) for r in rows
        )

    def kept(self) -> "SectorCatalog":
        """Catalog of the non-excluded sectors, ids re-densified."""
        return self.subset([i for i, s in enumerate(self.entries)
                            if not s.excluded])

    def to_csv_rows(self):
        yield ("code", "name", "division", "excluded")
        for s in self.entries:
            yield (s.code, s.name, s.division, "1" if s.excluded else "0")


def bundled_path(name: str) -> Path:
    """Path of a data file shipped inside the package."""
    return Path(resources.files("ecx.data") / name)


def bundled_regions() -> RegionCatalog:
    """The 47-prefecture reference catalog."""
    return RegionCatalog.from_csv(bundled_path("regions.csv"))


def bundled_sectors() -> SectorCatalog:
    """The 97-sector reference catalog (6 sectors flagged excluded)."""
    return SectorCatalog.from_csv(bundled_path("sectors.csv"))


def bundled_fixture_dir() -> Path:
    """Directory of the bundled nested 47x91 synthetic economy."""
    return bundled_path("fixture_nested47x91")

