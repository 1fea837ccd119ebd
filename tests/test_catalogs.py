"""Catalog parsing, bundled fixtures, and the published ranking tables."""

import io

import pytest

from conftest import read_table
from ecx import (DIVISIONS, SUPER_REGIONS, InputDataError, RegionCatalog,
                 SectorCatalog, bundled_path, bundled_regions,
                 bundled_sectors)


def test_bundled_regions_shape():
    cat = bundled_regions()
    assert len(cat) == 47
    assert len(set(cat.codes)) == 47
    assert {r.super_region for r in cat} == set(SUPER_REGIONS)
    assert len(SUPER_REGIONS) == 8


def test_bundled_sectors_shape():
    cat = bundled_sectors()
    assert len(cat) == 97
    kept = cat.kept()
    assert len(kept) == 91
    # exclusions never leak into the kept view
    assert all(not s.excluded for s in kept)
    assert {s.division for s in cat} <= set(DIVISIONS)
    assert len(DIVISIONS) == 19


def test_bundled_sector_codes_are_zero_padded():
    cat = bundled_sectors()
    assert cat.codes[0] == "01"
    assert cat.codes[-1] == "97"
    assert all(len(c) == 2 for c in cat.codes)


def test_duplicate_region_code_rejected():
    with pytest.raises(InputDataError, match="duplicate"):
        RegionCatalog.from_rows([("AA", "A", "Kanto"), ("AA", "B", "Kanto")])


def test_duplicate_sector_code_rejected():
    with pytest.raises(InputDataError, match="duplicate"):
        SectorCatalog.from_rows([("01", "A", "Goods", 0),
                                 ("01", "B", "Goods", 0)])


def test_code_with_carriage_return_rejected():
    # csv.writer with "\n" line ends leaves a lone "\r" unquoted, so a
    # matrix CSV holding such a code could not be read back
    with pytest.raises(InputDataError, match=r"region code 'R\\r1'"):
        RegionCatalog.from_rows([("AA", "A", "Kanto"), ("R\r1", "B", "Kanto")])
    src = io.StringIO('code,name,division,excluded\n"S\r1",A,Goods,0\n')
    with pytest.raises(InputDataError, match=r"sector code 'S\\r1'"):
        SectorCatalog.from_csv(src)


def test_code_with_lone_surrogate_rejected():
    # UTF-8 cannot encode a lone surrogate, so no matrix CSV can hold it
    with pytest.raises(InputDataError, match=r"region code 'R\\ud8001'.*"
                                             "lone surrogate"):
        RegionCatalog.from_rows([("AA", "A", "Kanto"),
                                 ("R\ud8001", "B", "Kanto")])
    with pytest.raises(InputDataError, match=r"sector code '\\udfff'.*"
                                             "lone surrogate"):
        SectorCatalog.from_rows([("01", "A", "Goods", 0),
                                 ("\udfff", "B", "Goods", 0)])


def test_empty_code_rejected():
    # a firm row with a blank code field would land on such an entry
    src = io.StringIO("code,name,super_region\nAA,A,Kanto\n,Nameless,Kanto\n")
    with pytest.raises(InputDataError, match="region code '' is empty"):
        RegionCatalog.from_csv(src)
    with pytest.raises(InputDataError, match="sector code '' is empty"):
        SectorCatalog.from_rows([(" ", "A", "Goods", 0)])


def test_unknown_super_region_rejected():
    with pytest.raises(InputDataError, match="super_region"):
        RegionCatalog.from_rows([("AA", "A", "Atlantis")])


def test_excluded_flag_must_be_binary():
    src = io.StringIO("code,name,division,excluded\n01,A,Goods,2\n")
    with pytest.raises(InputDataError, match="excluded"):
        SectorCatalog.from_csv(src)
    with pytest.raises(InputDataError,
                       match="excluded must be 0 or 1, got '2' for '01'"):
        SectorCatalog.from_rows([("01", "A", "Goods", 2)])


def test_region_csv_header_checked():
    src = io.StringIO("code,name\nAA,A\n")
    with pytest.raises(InputDataError, match="missing required column"):
        RegionCatalog.from_csv(src)


def test_lookup_unknown_code():
    cat = bundled_regions()
    with pytest.raises(InputDataError, match="XX"):
        cat["XX"]


def test_subset_reindexes_densely():
    cat = bundled_regions()
    sub = cat.subset([5, 0, 46])
    assert sub.codes == (cat.codes[5], cat.codes[0], cat.codes[46])
    assert [sub[c].region_id for c in sub.codes] == [0, 1, 2]


def test_region_ranking_table_is_a_double_permutation():
    rows = read_table(bundled_path("region_rankings.csv"))
    assert len(rows) == 47
    codes = [r["region_code"] for r in rows]
    assert set(codes) <= set(bundled_regions().codes)
    assert len(set(codes)) == 47
    for col in ("eci_rank", "fitness_rank"):
        assert sorted(int(r[col]) for r in rows) == list(range(1, 48))


def test_region_ranking_extremes():
    rows = {r["region_code"]: r
            for r in read_table(bundled_path("region_rankings.csv"))}
    assert rows["TK"]["eci_rank"] == "1" and rows["TK"]["fitness_rank"] == "1"
    assert rows["KC"]["eci_rank"] == "46" and rows["KC"]["fitness_rank"] == "46"
    assert rows["IW"]["eci_rank"] == "47" and rows["IW"]["fitness_rank"] == "47"


def test_sector_ranking_table_well_formed():
    rows = read_table(bundled_path("sector_rankings.csv"))
    sectors = set(bundled_sectors().codes)
    seen = set()
    for r in rows:
        assert r["sector_code"] in sectors
        assert r["sector_code"] not in seen
        seen.add(r["sector_code"])
        for col in ("pci_rank", "complexity_rank"):
            if r[col]:
                assert 1 <= int(r[col]) <= 91
    top = {r["sector_code"]: r for r in rows}
    assert top["39"]["pci_rank"] == "1"
    assert top["39"]["complexity_rank"] == "1"
