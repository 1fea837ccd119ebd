"""A whole ``ecx run`` against the oracle chain, matched by code.

Each draw is a small firm table over catalogs in shuffled code order,
with excluded sectors, zero-sales regions, a quoted row now and then, a
region without macro data now and then and rows in random order.  The
chain rebuilds every step from ``tests/oracles.py`` and the definitions:
the reference parse and aggregation, RCA and its threshold, the Jacobi
ECI and ``np.corrcoef``.  Either the run's files match the chain by
code, or the run is refused with the error class the chain predicts, by
the stage it names.
"""

import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecx import (SUPER_REGIONS, DegenerateMatrixError,
                 DegenerateSpectrumError, InputDataError, RunConfig,
                 run_pipeline)
from ecx.eci import DEFAULT_TOL
from ecx.matrixio import read_matrix_csv
from oracles import (aggregate_sales_reference, eci_oracle,
                     parse_firms_reference, region_spectrum)

FIRMS_HEADER = "firm_id,region_code,sector_code,annual_sales,employees\n"
REGION_POOL = ("TK", "OS", "AI", "HK", "FO", "KN", "IW", "KC", "NR", "OK")
SECTOR_POOL = tuple(f"{k:02d}" for k in range(1, 30))
INDICATORS = ("gpp_per_capita", "income_per_person")


@st.composite
def economies(draw):
    """Input file texts, and what the chain needs to know of them."""
    p = draw(st.integers(4, 8))
    s = draw(st.integers(5, 11))
    regions = draw(st.permutations(REGION_POOL))[:p]
    sectors = draw(st.permutations(SECTOR_POOL))[:s]
    threshold = draw(st.sampled_from([0.8, 1.0, 1.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    excluded = rng.random(s) < 0.2
    occupied = rng.random((p, s)) < rng.uniform(0.3, 0.8)
    silent = rng.random(p) < 0.15           # regions whose sales are all 0

    rows = []
    for i, j in zip(*np.nonzero(occupied)):
        for _ in range(rng.integers(1, 4)):
            sales = 0.0 if silent[i] else float(rng.lognormal(10.0, 1.5))
            rows.append([regions[i], sectors[j], repr(sales),
                         str(rng.integers(1, 500))])
    rows.append(["ZZ", sectors[0], "1.0", "1"])      # rejected: unknown
    order = rng.permutation(len(rows))
    lines = []
    for n, k in enumerate(order):
        firm = f"F{n}"
        if rng.random() < 0.1:
            firm = f'"{firm}, Ltd"'
        lines.append(",".join([firm, *rows[k]]) + "\n")

    macro = ["region_code,population,gross_product,income_per_person\n"]
    missing = regions[0] if rng.random() < 0.3 else None
    for code in regions:
        if code != missing:
            pop = float(rng.uniform(1e5, 1e7))
            macro.append(f"{code},{pop!r},"
                         f"{float(pop * rng.uniform(2e6, 6e6))!r},"
                         f"{float(rng.uniform(2e6, 4e6))!r}\n")
    groups = rng.choice(SUPER_REGIONS, p)
    return {
        "regions": regions, "sectors": sectors, "excluded": excluded,
        "threshold": threshold,
        "regions.csv": "code,name,super_region\n" + "".join(
            f"{c},Region {c},{g}\n" for c, g in zip(regions, groups)),
        "sectors.csv": "code,name,division,excluded\n" + "".join(
            f"{c},Sector {c},Manufacturing,{int(x)}\n"
            for c, x in zip(sectors, excluded)),
        "firms.csv": FIRMS_HEADER + "".join(lines),
        "macro.csv": "".join(macro),
    }


def _chain(econ):
    """What the oracle chain predicts: (error class, stage) for a run it
    refuses, else the sales and 0/1 matrices and the macro columns, each
    keyed by code."""
    regions, sectors = econ["regions"], econ["sectors"]
    records, _, _ = parse_firms_reference(econ["firms.csv"], regions, sectors)
    if not records:
        return (InputDataError, "ingest"), None
    kept = [c for c, x in zip(sectors, econ["excluded"]) if not x]
    w = aggregate_sales_reference(records, regions, kept)
    sales = {(regions[i], kept[j]): w[i, j]
             for i in range(len(regions)) for j in range(len(kept))}
    if w.sum() <= 0:
        return (InputDataError, "matrix"), None
    rows = np.flatnonzero(w.sum(axis=1) > 0)
    cols = np.flatnonzero(w.sum(axis=0) > 0)
    w = w[np.ix_(rows, cols)]
    # RCA by its definition: a sector's share of the region's sales over
    # its share of all sales
    rca = (w / w.sum(axis=1, keepdims=True)) / (w.sum(axis=0) / w.sum())
    m = (rca >= econ["threshold"]).astype(np.int64)
    m_rows = np.flatnonzero(m.sum(axis=1) > 0)
    m_cols = np.flatnonzero(m.sum(axis=0) > 0)
    if m_rows.size == 0:
        return (DegenerateMatrixError, "matrix"), None
    m = m[np.ix_(m_rows, m_cols)]
    m_codes = ([regions[rows[i]] for i in m_rows],
               [kept[cols[j]] for j in m_cols])
    if min(m.shape) < 2:
        return (InputDataError, "eci"), None
    lam = region_spectrum(m)[0]
    lam3 = lam[2] if min(m.shape) > 2 else 0.0
    if (lam[0] - lam[1] < DEFAULT_TOL
            or (max(m.shape) > 2 and abs(lam[1] - lam3) < DEFAULT_TOL)):
        return (DegenerateSpectrumError, "eci"), None
    macro = _macro_columns(econ["macro.csv"])
    complete = [c for c in m_codes[0] if c in macro["gpp_per_capita"]]
    if len(complete) < 3 or _constant_fitness(m):
        return (InputDataError, "correlate"), None
    return None, {"sales": sales, "m": m, "m_codes": m_codes,
                  "macro": macro}


def _constant_fitness(m):
    """Whether F = 1 is the fitness fixed point of ``m``: with Q = 1/k_s,
    every region's sum of 1/k_s over its sectors is equal (in exact
    arithmetic).  Then no region's fitness differs from another's."""
    inverse = [Fraction(1, int(k)) for k in m.sum(axis=0)]
    return len({sum(inverse[j] for j in np.flatnonzero(row))
                for row in m}) == 1


def _macro_columns(text):
    columns = {name: {} for name in INDICATORS}
    for line in text.splitlines()[1:]:
        code, pop, gp, income = line.split(",")
        columns["gpp_per_capita"][code] = float(gp) / float(pop)
        columns["income_per_person"][code] = float(income)
    return columns


def _indexed(path):
    lines = path.read_text().splitlines()[1:]
    return {code: float(v) for code, v, _ in
            (line.split(",") for line in lines)}


def _by_code(path):
    values, rcodes, scodes = read_matrix_csv(path)
    return {(r, c): values[i, j]
            for i, r in enumerate(rcodes) for j, c in enumerate(scodes)}


@given(economies())
@settings(max_examples=30, deadline=None)
def test_run_matches_the_oracle_chain(econ):
    refused, want = _chain(econ)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in ("firms.csv", "regions.csv", "sectors.csv", "macro.csv"):
            (tmp / name).write_text(econ[name], encoding="utf-8")
        cfg = RunConfig(tmp / "out", tmp / "firms.csv", tmp / "regions.csv",
                        tmp / "sectors.csv", tmp / "macro.csv",
                        rca_threshold=econ["threshold"])
        if refused is not None:
            error, stage = refused
            with pytest.raises(error, match=f"^stage '{stage}': "):
                run_pipeline(cfg)
            return
        run_pipeline(cfg)
        out = cfg.out_dir
        assert _by_code(out / "sales.csv") == want["sales"]
        m = want["m"]
        rcodes, scodes = want["m_codes"]
        assert _by_code(out / "m.csv") == {
            (r, c): m[i, j] for i, r in enumerate(rcodes)
            for j, c in enumerate(scodes)}

        eci = _indexed(out / "eci.csv")
        assert sorted(eci) == sorted(rcodes)
        _, z = eci_oracle(m)
        got = np.array([eci[c] for c in rcodes])
        sign = 1.0 if got @ z >= 0 else -1.0
        assert np.allclose(got, sign * z, rtol=0, atol=1e-6)

        indices = {"eci": eci, "fitness": _indexed(out / "fitness.csv")}
        correlations = json.loads((out / "correlations.json").read_text())
        assert len(correlations) == len(indices) * len(INDICATORS)
        for entry in correlations:
            x = indices[entry["x_name"]]
            y = want["macro"][entry["y_name"]]
            codes = [c for c in x if c in y]
            r = np.corrcoef([x[c] for c in codes], [y[c] for c in codes])
            assert entry["n"] == len(codes)
            assert math.isclose(entry["r"], r[0, 1], rel_tol=0,
                                abs_tol=1e-9), entry
