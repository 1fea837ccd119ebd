"""Pipeline stages, the stage table and the runner.

Every stage is a standalone function that reads its inputs from the
output directory, writes its products there and returns its report.
``run_stage`` runs any stage of ``STAGE_TABLE`` and writes its
``<stage>_report.json`` sidecar, whose ``lineage`` holds the sha256 of
each file the stage consumed or produced there; ``run_pipeline`` and
every CLI subcommand go through it, so a chain of subcommands and one
``run`` produce identical bytes.  ``report`` refuses sidecars whose
files have changed since, so it never mixes outputs of different runs.
Reports never contain absolute paths or timestamps:
two runs over the same inputs give a byte-identical ``report.json`` no
matter where the output directories live.

The final report's ``manifest`` lists the pipeline's data products —
eleven files for a default run:

    sales.csv, rca.csv, m.csv, eci.csv, pci.csv, fitness.csv,
    complexity.csv, trace.csv, mst_region.dot, correlations.json,
    report.json

Normalized snapshots of the inputs (``catalog_regions.csv``,
``catalog_sectors.csv``, ``macro.csv``) are also written so later
stages can run in isolation, but they are carried under the report's
``intermediates`` key, not the manifest.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import eci as eci_mod
from . import fitness as fit_mod
from .catalogs import RegionCatalog, SectorCatalog
from .errors import EcxError, InputDataError
from .ingest import (MACRO_HEADER, MacroIndicators, aggregate_sales,
                     parse_firms, parse_macro)
from .ingest import SalesMatrix
from .matrixio import (fmt_float, read_json, read_matrix_csv, replacing,
                       write_csv, write_json, write_matrix_csv)
from .projections import export_tree, max_similarity_tree, project, similarity
from .rca import BinaryBipartiteMatrix, binarize, compute_rca, degree_profile
from .stats import (fit_exponential, fit_power, pearson, quadrants,
                    rank_of, region_averages)

#: CLI spelling -> macro table column
INDICATORS = {
    "gpp_per_capita": "gpp_per_capita",
    "income": "income_per_person",
}


@dataclass
class RunConfig:
    """Everything a run needs; stages after ingest only use out_dir
    plus their own numeric knobs, so the input paths may stay None."""

    out_dir: Path
    firms: Optional[Path] = None
    regions: Optional[Path] = None
    sectors: Optional[Path] = None
    macro: Optional[Path] = None
    rca_threshold: float = 1.0
    eci_tol: float = eci_mod.DEFAULT_TOL
    fitness_tol: float = fit_mod.DEFAULT_TOL
    fitness_max_iter: int = fit_mod.DEFAULT_MAX_ITER

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        for name in ("firms", "regions", "sectors", "macro"):
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, Path(value))

    def validate(self) -> None:
        for label in ("firms", "regions", "sectors"):
            if getattr(self, label) is None:
                raise InputDataError(f"{label} file not specified")
        for label in ("firms", "regions", "sectors", "macro"):
            path = getattr(self, label)
            if path is not None and not path.is_file():
                raise InputDataError(f"{label} file not found: {path}")


def _digest(path: Optional[Path]) -> Optional[str]:
    if path is None:
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _need(out_dir, name: str, stage: str) -> Path:
    """Path of an intermediate, or a pointer at the stage that writes it."""
    path = Path(out_dir) / name
    if not path.is_file():
        raise InputDataError(f"missing {name}: run the '{stage}' stage first")
    return path


def _load_catalogs(out_dir) -> tuple:
    regions = RegionCatalog.from_csv(_need(out_dir, "catalog_regions.csv", "ingest"))
    sectors = SectorCatalog.from_csv(_need(out_dir, "catalog_sectors.csv", "ingest"))
    return regions, sectors


def _load_macro(out_dir, regions: RegionCatalog) -> MacroIndicators:
    return parse_macro(_need(out_dir, "macro.csv", "ingest"), regions)


def _subset_by_codes(catalog, codes, what: str):
    index = {c: i for i, c in enumerate(catalog.codes)}
    try:
        keep = [index[c] for c in codes]
    except KeyError as exc:
        raise InputDataError(f"{what} {exc.args[0]!r} not in catalog") from None
    return catalog.subset(keep)


def _load_binary(out_dir) -> BinaryBipartiteMatrix:
    values, rcodes, scodes = read_matrix_csv(_need(out_dir, "m.csv", "matrix"))
    ints = values.astype(np.int64)
    if not np.array_equal(ints, values) or np.any((ints != 0) & (ints != 1)):
        raise InputDataError("m.csv must contain only 0/1 entries")
    regions, sectors = _load_catalogs(out_dir)
    return BinaryBipartiteMatrix(
        ints,
        _subset_by_codes(regions, rcodes, "region"),
        _subset_by_codes(sectors.kept(), scodes, "sector"),
    )


def _read_indexed(path, value_col: int = 1) -> Dict[str, float]:
    values: Dict[str, float] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            values[row[0]] = float(row[value_col])
    return values


def stage_ingest(cfg: RunConfig) -> dict:
    cfg.validate()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    regions = RegionCatalog.from_csv(cfg.regions)
    sectors = SectorCatalog.from_csv(cfg.sectors)
    parsed = parse_firms(cfg.firms, regions, sectors)
    sales = aggregate_sales(parsed.records, regions, sectors)

    write_matrix_csv(out / "sales.csv", sales.values, sales.regions.codes,
                     sales.sectors.codes)
    rows = iter(regions.to_csv_rows())
    write_csv(out / "catalog_regions.csv", next(rows), rows)
    rows = iter(sectors.to_csv_rows())
    write_csv(out / "catalog_sectors.csv", next(rows), rows)

    macro_rejections: List[dict] = []
    macro_rows: List[tuple] = []
    if cfg.macro is not None:
        macro = parse_macro(cfg.macro, regions)
        for r in regions:
            i = r.region_id
            if np.isfinite(macro.population[i]):
                macro_rows.append((r.code, fmt_float(macro.population[i]),
                                   fmt_float(macro.gross_product[i]),
                                   fmt_float(macro.income_per_person[i])))
        macro_rejections = [{"line": x.line, "reason": x.reason}
                            for x in macro.rejections]
    write_csv(out / "macro.csv", MACRO_HEADER, macro_rows)

    return {
        "files": ["sales.csv"],
        "intermediates": ["catalog_regions.csv", "catalog_sectors.csv",
                          "macro.csv"],
        "input_digests": {
            "firms": _digest(cfg.firms),
            "macro": _digest(cfg.macro),
            "regions": _digest(cfg.regions),
            "sectors": _digest(cfg.sectors),
        },
        "records": len(parsed.records),
        "rejections": [{"line": x.line, "reason": x.reason}
                       for x in parsed.rejections[:100]],
        "rejection_count": len(parsed.rejections),
        "zero_sales_rows": parsed.zero_sales_count,
        "macro_rejections": macro_rejections,
        "macro_rows": len(macro_rows),
        "regions": len(regions),
        "sectors_total": len(sectors),
        "sectors_kept": len(sales.sectors),
    }


def stage_matrix(cfg: RunConfig) -> dict:
    out = Path(cfg.out_dir)
    values, rcodes, scodes = read_matrix_csv(_need(out, "sales.csv", "ingest"))
    regions, sectors = _load_catalogs(out)
    sales = SalesMatrix(values,
                        _subset_by_codes(regions, rcodes, "region"),
                        _subset_by_codes(sectors.kept(), scodes, "sector"))
    rca = compute_rca(sales)
    m = binarize(rca, cfg.rca_threshold)

    write_matrix_csv(out / "rca.csv", rca.values, rca.regions.codes,
                     rca.sectors.codes)
    write_matrix_csv(out / "m.csv", m.values, m.regions.codes,
                     m.sectors.codes, integer=True)
    ones = int(m.values.sum())
    return {
        "files": ["rca.csv", "m.csv"],
        "threshold": cfg.rca_threshold,
        "dropped": m.dropped.as_dict(),
        "shape": [int(m.shape[0]), int(m.shape[1])],
        "ones": ones,
        "density": ones / (m.shape[0] * m.shape[1]),
    }


def _write_ranked(path, corner: str, value_name: str, codes, values) -> None:
    ranks = rank_of(values, codes)
    write_csv(path, (corner, value_name, "rank"),
              ((c, fmt_float(v), ranks[c]) for c, v in zip(codes, values)))


def stage_eci(cfg: RunConfig) -> dict:
    out = Path(cfg.out_dir)
    m = _load_binary(out)
    idx = eci_mod.compute_indices(m, cfg.eci_tol)
    _write_ranked(out / "eci.csv", "region_code", "eci",
                  idx.region_codes, idx.eci)
    _write_ranked(out / "pci.csv", "sector_code", "pci",
                  idx.sector_codes, idx.pci)
    return {
        "files": ["eci.csv", "pci.csv"],
        "lambda2_region": idx.region_pair.eigenvalue,
        "lambda2_sector": idx.sector_pair.eigenvalue,
        "spectral_gap": idx.spectral_gap,
        "residual_region": idx.region_pair.residual_norm,
        "residual_sector": idx.sector_pair.residual_norm,
        "method_region": "svd",
        "method_sector": "svd",
        "tol": cfg.eci_tol,
    }


def write_ordered_matrix(out_dir, view) -> List[str]:
    """Ordered 0/1 matrix as CSV plus a PBM ("P1") bitmap."""
    out = Path(out_dir)
    write_matrix_csv(out / "ordered_matrix.csv", view.matrix,
                     view.row_codes, view.col_codes, integer=True)
    h, w = view.matrix.shape
    with replacing(out / "ordered_matrix.pbm") as fh:
        fh.write(f"P1\n{w} {h}\n")
        fh.writelines(" ".join(map(str, row.tolist())) + "\n"
                      for row in view.matrix.astype(np.int64, copy=False))
    return ["ordered_matrix.csv", "ordered_matrix.pbm"]


def stage_fitness(cfg: RunConfig, ordered: bool = False) -> dict:
    out = Path(cfg.out_dir)
    m = _load_binary(out)
    res = fit_mod.fitness_complexity(m, cfg.fitness_tol, cfg.fitness_max_iter)
    _write_ranked(out / "fitness.csv", "region_code", "fitness",
                  res.region_codes, res.fitness)
    _write_ranked(out / "complexity.csv", "sector_code", "complexity",
                  res.sector_codes, res.complexity)
    header, rows = fit_mod.convergence_report(res)
    write_csv(out / "trace.csv", header,
              ([r[0], *(fmt_float(v) for v in r[1:])] for r in rows))
    view = fit_mod.order_by_rank(m, res)
    files = ["fitness.csv", "complexity.csv", "trace.csv"]
    if ordered:
        files += write_ordered_matrix(out, view)
    return {
        "files": files,
        "iterations": res.iterations,
        "converged": res.converged,
        "tol": res.tol,
        "min_fitness": res.min_fitness,
        "diagonal_clearance": view.diagonal_clearance,
    }


def stage_mst(cfg: RunConfig, entity: str = "region",
              format: str = "dot") -> dict:
    out = Path(cfg.out_dir)
    m = _load_binary(out)
    tree = max_similarity_tree(similarity(project(m, entity)))
    if entity == "region":
        catalog, grouping = m.regions, "super_region"
    else:
        catalog, grouping = m.sectors, "division"
    data = export_tree(tree, catalog, grouping, format)
    name = f"mst_{entity}.{format}"
    with replacing(out / name, binary=True) as fh:
        fh.write(data)
    return {
        "files": [name],
        "entity": entity,
        "format": format,
        "nodes": tree.n,
        "edges": len(tree.edges),
        "total_weight": tree.total_weight,
    }


def stage_correlate(cfg: RunConfig, indicator: Optional[str] = None,
                    index: Optional[str] = None,
                    fit: Optional[str] = None) -> dict:
    """Correlate each complexity index against each macro indicator.

    By default all four combinations are computed, with an exponential
    fit for ECI pairs and a power-law fit for fitness pairs (indicator
    versus index, as the scatter plots draw them); ``indicator`` and
    ``index`` restrict the run to one of each.  Passing ``fit`` also
    writes a ``fit_<index>_<indicator>.csv`` table per combination using
    that model.
    """
    out = Path(cfg.out_dir)
    indicators = [indicator] if indicator else list(INDICATORS)
    indices = [index] if index else ["eci", "fitness"]
    for name in indicators:
        if name not in INDICATORS:
            raise InputDataError(f"unknown macro indicator {name!r}")

    regions, _ = _load_catalogs(out)
    macro = _load_macro(out, regions)
    index_values = {}
    for index in indices:
        stage = "eci" if index == "eci" else "fitness"
        table = _read_indexed(_need(out, f"{index}.csv", stage))
        codes = tuple(table)
        index_values[index] = (codes, np.array([table[c] for c in codes]))

    correlations = []
    fits = {}
    files = ["correlations.json"]
    for index in indices:
        codes, x = index_values[index]
        macro_rows = np.array([regions[c].region_id for c in codes])
        for name in indicators:
            column = INDICATORS[name]
            y = macro.column(column)[macro_rows]
            corr = pearson(x, y)
            correlations.append({
                "x_name": index, "y_name": column,
                "r": corr.r, "p": corr.p_value, "n": corr.n,
            })
            model = fit or ("exp" if index == "eci" else "power")
            keep = np.isfinite(x) & np.isfinite(y)
            fit_fn = fit_exponential if model == "exp" else fit_power
            result = fit_fn(x[keep], y[keep])
            fits[f"{index}_vs_{column}"] = {
                "model": result.model, "a": result.a, "b": result.b,
                "rmse_log": result.rmse_log, "n": int(keep.sum()),
            }
            if fit is not None:
                kept_codes = [c for c, k in zip(codes, keep) if k]
                expected = result.expected(x[keep])
                fname = f"fit_{index}_{name}.csv"
                write_csv(out / fname,
                          ("label", "x", "y", "expected_y", "residual"),
                          ((c, fmt_float(xv), fmt_float(yv), fmt_float(ev),
                            fmt_float(rv))
                           for c, xv, yv, ev, rv in zip(
                               kept_codes, x[keep], y[keep], expected,
                               result.residuals)))
                files.append(fname)

    correlations.sort(key=lambda e: (e["x_name"], e["y_name"]))
    write_json(out / "correlations.json", correlations)
    return {"files": files, "correlations": correlations, "fits": fits}


def write_summary_tables(cfg: RunConfig,
                         highlight: Optional[str] = None) -> List[str]:
    """quadrants.csv and the regions.csv group-average summary."""
    out = Path(cfg.out_dir)
    m = _load_binary(out)
    prof = degree_profile(m)
    quads = quadrants(prof, m.regions.codes)
    write_csv(out / "quadrants.csv",
              ("region_code", "k_p0", "k_p1", "quadrant"),
              ((c, fmt_float(prof.k_p0[i]), fmt_float(prof.k_p1[i]),
                quads.quadrants[i])
               for i, c in enumerate(quads.codes)))

    regions, _ = _load_catalogs(out)
    macro = _load_macro(out, regions)
    table = _read_indexed(_need(out, "eci.csv", "eci"))
    codes = tuple(table)
    summary = region_averages(np.array([table[c] for c in codes]), codes,
                              macro, regions, highlight=highlight)
    write_csv(out / "regions.csv",
              ("group", "count", "mean_eci", "mean_gpp_per_capita",
               "mean_income_per_person"),
              ((g.name, g.count, fmt_float(g.mean_eci),
                fmt_float(g.mean_gpp_per_capita),
                fmt_float(g.mean_income_per_person))
               for g in summary.groups))
    return ["quadrants.csv", "regions.csv"]


def _check_lineage(out: Path, sidecars: Dict[str, dict]) -> None:
    """Refuse sidecars that name a file which has changed since their
    stage ran; each file is hashed once."""
    current: Dict[str, Optional[str]] = {}
    for stage, sidecar in sidecars.items():
        if "lineage" not in sidecar:
            raise InputDataError(f"{stage}_report.json records no lineage: "
                                 f"run the '{stage}' stage again")
        for name, digest in sidecar["lineage"].items():
            if name not in current:
                path = out / name
                current[name] = _digest(path) if path.is_file() else None
            if current[name] != digest:
                raise InputDataError(
                    f"stage '{stage}' is stale: {name} has changed since it "
                    f"ran; run '{stage}' and the stages after it again")


def stage_report(cfg: RunConfig, summary: bool = False,
                 highlight: Optional[str] = None) -> dict:
    out = Path(cfg.out_dir)
    sidecars = {name: read_json(_need(out, f"{name}_report.json", name))
                for name in STAGE_TABLE if name != "report"}
    _check_lineage(out, sidecars)

    files = ["report.json"]
    if summary:
        files += write_summary_tables(cfg, highlight)
    manifest = sorted(set(files).union(*(s["files"]
                                         for s in sidecars.values())))

    report = {name: {k: v for k, v in sidecar.items()
                     if k not in ("files", "intermediates", "lineage")}
              for name, sidecar in sidecars.items()}
    correlate = report.pop("correlate")
    report.update(
        input_digests=report["ingest"].pop("input_digests"),
        dropped=report["matrix"]["dropped"],
        correlations=correlate["correlations"],
        fits=correlate["fits"],
        intermediates=sidecars["ingest"]["intermediates"],
        manifest=manifest,
    )
    write_json(out / "report.json", report)
    return report


class Stage(NamedTuple):
    """One row of the stage table; ``stage_<name>`` does the work."""
    name: str
    consumes: Tuple[str, ...]           # intermediates read from out_dir
    summary: Callable[[dict], str]      # the CLI's stdout from the report


_CATALOGS = ("catalog_regions.csv", "catalog_sectors.csv")

#: every stage in run order; ``report`` checks the lineage of the others
STAGE_TABLE = {stage.name: stage for stage in (
    Stage("ingest", (), lambda r: (
        f"ingest: {r['records']} records ({r['rejection_count']} rejected), "
        f"{r['regions']} regions x {r['sectors_kept']} sectors")),
    Stage("matrix", ("sales.csv", *_CATALOGS), lambda r: (
        f"matrix: {r['shape'][0]}x{r['shape'][1]}, {r['ones']} ones "
        f"(density {r['density']:.3f})")),
    Stage("eci", ("m.csv", *_CATALOGS), lambda r: (
        f"eci: lambda2={r['lambda2_region']:.6g} "
        f"(gap {r['spectral_gap']:.6g})")),
    Stage("fitness", ("m.csv", *_CATALOGS), lambda r: (
        f"fitness: {'converged' if r['converged'] else 'did not converge'} "
        f"after {r['iterations']} iterations (min {r['min_fitness']:.3g})")),
    Stage("mst", ("m.csv", *_CATALOGS), lambda r: (
        f"mst: {r['edges']} edges over {r['nodes']} {r['entity']}s, "
        f"total similarity {r['total_weight']:.4f}")),
    Stage("correlate", ("catalog_regions.csv", "macro.csv", "eci.csv",
                        "fitness.csv"), lambda r: "\n".join(
        f"correlate: {e['x_name']} vs {e['y_name']}: r={e['r']:.4f} "
        f"p={e['p']:.3g} n={e['n']}" for e in r["correlations"])),
    Stage("report", (), lambda r: (
        f"report: {len(r['manifest'])} files in manifest")),
)}


def run_stage(name: str, cfg: RunConfig, **options) -> dict:
    """Run one stage with its keyword ``options``; returns its report.

    Errors keep their class, and so their exit code, and gain a
    ``stage '<name>': `` prefix.  Every stage but ``report`` then gets
    its ``<name>_report.json`` sidecar: the report plus a ``lineage``
    with the sha256 of each consumed intermediate that exists and each
    file the stage produced.  Ingest's own inputs lie outside the
    output directory; its ``input_digests`` already identify them.
    """
    out = Path(cfg.out_dir)
    try:
        # looked up by name at call time, not kept in the table, so that a
        # wrapper set on the module attribute (bench/tracing.py sets one)
        # sees every call
        report = globals()[f"stage_{name}"](cfg, **options)
        if name != "report":
            files = [f for f in STAGE_TABLE[name].consumes
                     if (out / f).is_file()]
            files += report["files"] + report.get("intermediates", [])
            lineage = {f: _digest(out / f) for f in files}
            write_json(out / f"{name}_report.json",
                       {**report, "lineage": lineage})
    except EcxError as exc:
        raise type(exc)(f"stage '{name}': {exc}") from exc
    except OSError as exc:
        raise OSError(f"stage '{name}': {exc}") from exc
    return report


def run_pipeline(cfg: RunConfig) -> dict:
    """Every stage of ``STAGE_TABLE`` in order, with default options;
    returns the final report.  Any stage failure aborts the run."""
    cfg.validate()
    for name in STAGE_TABLE:
        report = run_stage(name, cfg)
    return report
