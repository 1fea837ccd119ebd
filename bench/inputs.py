"""Workload definitions and their seeded, cached input files.

Inputs are generated from the seed by run.py's own process, outside every
measured process, and kept under ``.benchdata/`` so a repeated seed is not
generated twice.  The program under test sees only the CSV files.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import asdict, dataclass, replace
from pathlib import Path

#: bump whenever the generated bytes for a given seed change
GENERATOR_VERSION = 1

#: occupancy probability of the synth ``random`` shape, as in ``ecx synth``
FILL = 0.35

INPUT_FILES = ("firms.csv", "macro.csv", "regions.csv", "sectors.csv")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``mode`` is ``run`` (one ``ecx.pipeline.run_pipeline`` call per pass)
    or ``staged`` (one ``ecx.cli.main`` call per stage).  ``shape`` names
    an ``ecx.synth`` shape of ``p`` x ``s``; an empty shape means a firm
    table of ``rows`` rows drawn over the bundled 47x91 fixture catalogs.
    """

    name: str
    mode: str
    shape: str = ""
    p: int = 0
    s: int = 0
    rows: int = 0


#: BENCHMARK.json gates firms1m and staged200x400; the other two run by
#: hand and in selfcheck.py (README.md says why)
WORKLOADS = {w.name: w for w in (
    Workload("fixture47", "run", shape="nested", p=47, s=91),
    Workload("random400x800", "run", shape="random", p=400, s=800),
    Workload("firms1m", "run", rows=1_000_000),
    Workload("staged200x400", "staged", shape="random", p=200, s=400),
)}

#: the same workloads at a size that runs in about a second, for selfcheck.py
TINY = {
    "fixture47": WORKLOADS["fixture47"],
    "random400x800": replace(WORKLOADS["random400x800"], p=70, s=140),
    "firms1m": replace(WORKLOADS["firms1m"], rows=20_000),
    "staged200x400": replace(WORKLOADS["staged200x400"], p=20, s=40),
}


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def prepare(data_root: Path, workload: Workload, seed: int) -> dict:
    """Input directory for (workload, seed), generated on a cache miss.

    Returns the cache record: ``dir``, ``sha256`` of each input file,
    ``data_rows`` of the firm table and ``first_region`` code.  One
    entry is kept per workload, so the cache stays bounded.
    """
    key = {"generator": GENERATOR_VERSION, "workload": asdict(workload),
           "seed": seed}
    target = data_root / "inputs" / workload.name
    meta = target / "inputs.json"
    if meta.is_file():
        info = json.loads(meta.read_text(encoding="utf-8"))
        if info["key"] == key and all(
                sha256_file(target / name) == digest
                for name, digest in info["sha256"].items()):
            return {**info, "dir": str(target)}
    tmp = target.with_name(target.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    if workload.shape:
        data_rows, first_region = _write_synth(tmp, workload, seed)
    else:
        data_rows, first_region = _write_firm_table(tmp, workload.rows, seed)
    info = {
        "key": key,
        "sha256": {name: sha256_file(tmp / name) for name in INPUT_FILES},
        "data_rows": data_rows,
        "first_region": first_region,
    }
    (tmp / "inputs.json").write_text(json.dumps(info, indent=2) + "\n",
                                     encoding="utf-8")
    shutil.rmtree(target, ignore_errors=True)
    tmp.rename(target)
    return {**info, "dir": str(target)}


def _write_synth(out: Path, workload: Workload, seed: int):
    from ecx.synth import generate_synthetic, write_synthetic

    econ = generate_synthetic(workload.p, workload.s, shape=workload.shape,
                              fill=FILL, seed=seed)
    write_synthetic(econ, out)
    return len(econ.firm_rows), econ.regions.codes[0]


def _write_firm_table(out: Path, rows: int, seed: int):
    """``rows`` firms over the fixture catalogs, one in a thousand invalid.

    Each firm falls in a uniformly drawn occupied cell of the fixture's
    nested pattern and has lognormal sales.  The invalid rows cycle
    through an unknown region, negative sales and a missing field, so
    the rejection path of ingest runs too.
    """
    import numpy as np
    from ecx.catalogs import RegionCatalog, SectorCatalog, bundled_fixture_dir
    from ecx.synth import nested_matrix

    fixture = bundled_fixture_dir()
    for name in ("macro.csv", "regions.csv", "sectors.csv"):
        shutil.copyfile(fixture / name, out / name)
    rcodes = RegionCatalog.from_csv(fixture / "regions.csv").codes
    scodes = SectorCatalog.from_csv(fixture / "sectors.csv").codes
    cells = np.argwhere(nested_matrix(len(rcodes), len(scodes)))

    rng = np.random.default_rng(seed)
    pick = rng.integers(0, len(cells), size=rows)
    sales = rng.lognormal(mean=11.0, sigma=1.5, size=rows).tolist()
    employees = rng.integers(1, 501, size=rows).tolist()
    bad = np.sort(rng.choice(rows, size=rows // 1000, replace=False)).tolist()

    region_of = [rcodes[i] for i in cells[pick, 0].tolist()]
    sector_of = [scodes[j] for j in cells[pick, 1].tolist()]
    lines = [f"F{i + 1:07d},{r},{s},{v!r},{e}\n" for i, (r, s, v, e)
             in enumerate(zip(region_of, sector_of, sales, employees))]
    for n, i in enumerate(bad):
        kind = n % 3
        if kind == 0:
            lines[i] = f"F{i + 1:07d},R99,{sector_of[i]},{sales[i]!r},1\n"
        elif kind == 1:
            lines[i] = f"F{i + 1:07d},{region_of[i]},{sector_of[i]},{-sales[i]!r},1\n"
        else:
            lines[i] = f"F{i + 1:07d},{region_of[i]},{sector_of[i]},{sales[i]!r}\n"
    with open(out / "firms.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("firm_id,region_code,sector_code,annual_sales,employees\n")
        fh.writelines(lines)
    return rows, rcodes[0]
