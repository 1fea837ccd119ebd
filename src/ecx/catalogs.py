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
import io
from dataclasses import dataclass
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


def _open_text(source: PathOrStream) -> TextIO:
    if hasattr(source, "read"):
        return source  # type: ignore[return-value]
    return open(source, "r", encoding="utf-8", newline="")


def _read_rows(source: PathOrStream, required: Sequence[str], what: str):
    stream = _open_text(source)
    close = stream is not source
    try:
        reader = csv.DictReader(stream)
        header = reader.fieldnames or []
        missing = [c for c in required if c not in header]
        if missing:
            raise InputDataError(
                f"{what}: missing required column(s) {', '.join(missing)}"
            )
        yield from reader
    finally:
        if close:
            stream.close()


def _check_code(kind: str, code: str) -> None:
    """Refuse a code that a UTF-8 matrix CSV cannot carry."""
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


class RegionCatalog:
    """Ordered, dense-indexed collection of regions."""

    def __init__(self, regions: Iterable[Region]):
        self.regions = tuple(regions)
        self._by_code = {r.code: r for r in self.regions}
        if len(self._by_code) != len(self.regions):
            seen: set = set()
            dup = next(r.code for r in self.regions if r.code in seen or seen.add(r.code))
            raise InputDataError(f"duplicate region code {dup!r}")
        for i, r in enumerate(self.regions):
            if r.region_id != i:
                raise InputDataError(f"region ids are not dense at {r.code!r}")
            _check_code("region", r.code)
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

    def __len__(self) -> int:
        return len(self.regions)

    def __iter__(self) -> Iterator[Region]:
        return iter(self.regions)

    def __contains__(self, code: str) -> bool:
        return code in self._by_code

    def __getitem__(self, code: str) -> Region:
        try:
            return self._by_code[code]
        except KeyError:
            raise InputDataError(f"unknown region code {code!r}") from None

    @property
    def codes(self) -> tuple:
        return tuple(r.code for r in self.regions)

    def subset(self, keep: Sequence[int]) -> "RegionCatalog":
        """New catalog from the given row indices, with ids re-densified."""
        return RegionCatalog(
            Region(i, self.regions[k].code, self.regions[k].name,
                   self.regions[k].super_region)
            for i, k in enumerate(keep)
        )

    def to_csv_rows(self):
        yield ("code", "name", "super_region")
        for r in self.regions:
            yield (r.code, r.name, r.super_region)


class SectorCatalog:
    """Ordered, dense-indexed collection of sectors (with exclusion flags)."""

    def __init__(self, sectors: Iterable[Sector]):
        self.sectors = tuple(sectors)
        self._by_code = {s.code: s for s in self.sectors}
        if len(self._by_code) != len(self.sectors):
            seen: set = set()
            dup = next(s.code for s in self.sectors if s.code in seen or seen.add(s.code))
            raise InputDataError(f"duplicate sector code {dup!r}")
        for i, s in enumerate(self.sectors):
            if s.sector_id != i:
                raise InputDataError(f"sector ids are not dense at {s.code!r}")
            _check_code("sector", s.code)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "SectorCatalog":
        return cls(
            Sector(i, str(code).strip(), str(name).strip(), str(div).strip(),
                   bool(int(exc)))
            for i, (code, name, div, exc) in enumerate(rows)
        )

    @classmethod
    def from_csv(cls, source: PathOrStream) -> "SectorCatalog":
        rows = _read_rows(
            source, ("code", "name", "division", "excluded"), "sectors catalog"
        )
        out = []
        for r in rows:
            exc = r["excluded"].strip()
            if exc not in ("0", "1"):
                raise InputDataError(
                    f"sectors catalog: excluded must be 0 or 1, got {exc!r} "
                    f"for {r['code']!r}"
                )
            out.append((r["code"], r["name"], r["division"], exc))
        return cls.from_rows(out)

    def __len__(self) -> int:
        return len(self.sectors)

    def __iter__(self) -> Iterator[Sector]:
        return iter(self.sectors)

    def __contains__(self, code: str) -> bool:
        return code in self._by_code

    def __getitem__(self, code: str) -> Sector:
        try:
            return self._by_code[code]
        except KeyError:
            raise InputDataError(f"unknown sector code {code!r}") from None

    @property
    def codes(self) -> tuple:
        return tuple(s.code for s in self.sectors)

    def kept(self) -> "SectorCatalog":
        """Catalog of the non-excluded sectors, ids re-densified."""
        return SectorCatalog(
            Sector(i, s.code, s.name, s.division, False)
            for i, s in enumerate(s for s in self.sectors if not s.excluded)
        )

    def subset(self, keep: Sequence[int]) -> "SectorCatalog":
        return SectorCatalog(
            Sector(i, self.sectors[k].code, self.sectors[k].name,
                   self.sectors[k].division, self.sectors[k].excluded)
            for i, k in enumerate(keep)
        )

    def to_csv_rows(self):
        yield ("code", "name", "division", "excluded")
        for s in self.sectors:
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


def read_string_table(source: PathOrStream, required: Sequence[str], what: str):
    """Read a delimited table as a list of dicts, checking the header."""
    return list(_read_rows(source, required, what))
