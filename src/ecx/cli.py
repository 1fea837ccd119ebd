"""Command-line front end.

One subcommand per pipeline stage plus ``synth`` (test-data generator)
and ``run`` (the whole pipeline in one go).  Every subcommand reads and
writes a shared output directory, given by ``--out`` or the ``ECX_OUT``
environment variable, so stages can be chained::

    ecx synth --shape nested --p 47 --s 91 --seed 7 --out data
    ecx run --firms data/firms.csv --macro data/macro.csv \\
            --regions data/regions.csv --sectors data/sectors.csv --out out

Exit codes: 0 success; 2 bad input (missing files, malformed tables,
unknown codes); 3 numerical failure (degenerate spectrum, disconnected
similarity graph, non-convergence); 4 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import eci as eci_mod
from . import fitness as fit_mod
from .errors import EcxError
from .pipeline import (INDICATORS, RunConfig, run_pipeline, stage_correlate,
                       stage_eci, stage_fitness, stage_ingest, stage_matrix,
                       stage_mst, stage_report)
from .synth import SHAPES, generate_synthetic, write_synthetic

try:  # version of the installed distribution, if any
    from importlib.metadata import PackageNotFoundError, version

    try:
        __version__ = version("ecx")
    except PackageNotFoundError:
        __version__ = "unknown"
except ImportError:  # pragma: no cover
    __version__ = "unknown"


def _default_out() -> str:
    return os.environ.get("ECX_OUT", ".")


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out", default=_default_out(), metavar="DIR",
        help="output directory (default: $ECX_OUT or current directory)")


def _add_inputs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--firms", required=True, metavar="CSV",
                        help="firm-level table: firm_id,region_code,"
                             "sector_code,annual_sales,employees")
    parser.add_argument("--regions", required=True, metavar="CSV",
                        help="region catalog: code,name,super_region")
    parser.add_argument("--sectors", required=True, metavar="CSV",
                        help="sector catalog: code,name,division,excluded")
    parser.add_argument("--macro", metavar="CSV",
                        help="per-region indicators: region_code,population,"
                             "gross_product,income_per_person")


def _add_fitness_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=fit_mod.DEFAULT_TOL,
                        help="stop when no value moves more than this "
                             "(default %(default)s)")
    parser.add_argument("--max-iter", type=int,
                        default=fit_mod.DEFAULT_MAX_ITER,
                        help="iteration cap (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecx",
        description="Economic-complexity analytics: RCA binarization, "
                    "eigenvector and fitness indices, similarity trees, "
                    "and macro correlations over region x sector data.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse and aggregate the input tables")
    _add_inputs(p)
    _add_out(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("matrix", help="RCA ratios and the binary matrix")
    p.add_argument("--threshold", type=float, default=RunConfig.rca_threshold,
                   help="RCA cut-off for a 1 entry "
                        "(default %(default)s, inclusive)")
    _add_out(p)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("eci", help="eigenvector complexity indices")
    p.add_argument("--tol", type=float, default=eci_mod.DEFAULT_TOL,
                   help="eigenvalue tolerance (default %(default)s)")
    _add_out(p)
    p.set_defaults(func=cmd_eci)

    p = sub.add_parser("fitness", help="fitness/complexity fixed point")
    _add_fitness_opts(p)
    p.add_argument("--ordered", action="store_true",
                   help="also export the rank-ordered 0/1 matrix "
                        "(CSV + PBM bitmap)")
    _add_out(p)
    p.set_defaults(func=cmd_fitness)

    p = sub.add_parser("mst", help="maximum-similarity spanning tree")
    p.add_argument("--entity", choices=("region", "sector"),
                   default="region", help="which projection to build")
    p.add_argument("--format", choices=("dot", "graphml", "csv"),
                   default="dot", help="export format (default dot)")
    _add_out(p)
    p.set_defaults(func=cmd_mst)

    p = sub.add_parser("correlate",
                       help="indices vs macro indicators (r, p, fits)")
    p.add_argument("--indicator", choices=tuple(INDICATORS),
                   help="restrict to one macro indicator (default: all)")
    p.add_argument("--index", choices=("eci", "fitness"),
                   help="restrict to one complexity index (default: both)")
    p.add_argument("--fit", choices=("exp", "power"),
                   help="also write fit_<index>_<indicator>.csv tables "
                        "using this model")
    _add_out(p)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("report", help="merge stage reports into report.json")
    p.add_argument("--summary", action="store_true",
                   help="also write quadrants.csv and the regions.csv "
                        "group-average table")
    p.add_argument("--highlight", metavar="CODE",
                   help="break this region out as its own summary group")
    _add_out(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("synth", help="generate a synthetic input set")
    p.add_argument("--shape", choices=SHAPES, default="nested",
                   help="occupancy pattern of the underlying matrix")
    p.add_argument("--p", type=int, required=True, help="number of regions")
    p.add_argument("--s", type=int, required=True, help="number of sectors")
    p.add_argument("--fill", type=float, default=0.35,
                   help="occupancy probability for modular/random shapes")
    p.add_argument("--seed", type=int, required=True,
                   help="RNG seed; same seed, same bytes")
    _add_out(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="full pipeline: ingest through report")
    _add_inputs(p)
    p.add_argument("--threshold", type=float, default=RunConfig.rca_threshold,
                   help="RCA cut-off (default %(default)s)")
    p.add_argument("--eci-tol", type=float, default=eci_mod.DEFAULT_TOL,
                   help="eigenvalue tolerance (default %(default)s)")
    p.add_argument("--fitness-tol", type=float, default=fit_mod.DEFAULT_TOL,
                   help="fitness stop tolerance (default %(default)s)")
    p.add_argument("--fitness-max-iter", type=int,
                   default=fit_mod.DEFAULT_MAX_ITER,
                   help="fitness iteration cap (default %(default)s)")
    _add_out(p)
    p.set_defaults(func=cmd_run)

    return parser


def cmd_ingest(args) -> int:
    cfg = RunConfig(out_dir=args.out, firms=args.firms, regions=args.regions,
                    sectors=args.sectors, macro=args.macro)
    report = stage_ingest(cfg)
    print(f"ingest: {report['records']} records "
          f"({report['rejection_count']} rejected), "
          f"{report['regions']} regions x {report['sectors_kept']} sectors")
    return 0


def cmd_matrix(args) -> int:
    cfg = RunConfig(out_dir=args.out, rca_threshold=args.threshold)
    report = stage_matrix(cfg)
    shape = report["shape"]
    print(f"matrix: {shape[0]}x{shape[1]}, {report['ones']} ones "
          f"(density {report['density']:.3f})")
    return 0


def cmd_eci(args) -> int:
    cfg = RunConfig(out_dir=args.out, eci_tol=args.tol)
    report = stage_eci(cfg)
    print(f"eci: lambda2={report['lambda2_region']:.6g} "
          f"(gap {report['spectral_gap']:.6g})")
    return 0


def cmd_fitness(args) -> int:
    cfg = RunConfig(out_dir=args.out, fitness_tol=args.tol,
                    fitness_max_iter=args.max_iter)
    report = stage_fitness(cfg, ordered=args.ordered)
    verdict = "converged" if report["converged"] else "did not converge"
    print(f"fitness: {verdict} after {report['iterations']} iterations "
          f"(min {report['min_fitness']:.3g})")
    return 0


def cmd_mst(args) -> int:
    cfg = RunConfig(out_dir=args.out)
    report = stage_mst(cfg, entity=args.entity, format=args.format)
    print(f"mst: {report['edges']} edges over {report['nodes']} "
          f"{args.entity}s, total similarity {report['total_weight']:.4f}")
    return 0


def cmd_correlate(args) -> int:
    cfg = RunConfig(out_dir=args.out)
    indicators = [args.indicator] if args.indicator else None
    indices = [args.index] if args.index else None
    report = stage_correlate(cfg, indicators=indicators, indices=indices,
                             fit=args.fit)
    for entry in report["correlations"]:
        print(f"correlate: {entry['x_name']} vs {entry['y_name']}: "
              f"r={entry['r']:.4f} p={entry['p']:.3g} n={entry['n']}")
    return 0


def cmd_report(args) -> int:
    cfg = RunConfig(out_dir=args.out)
    report = stage_report(cfg, summary=args.summary,
                          highlight=args.highlight)
    print(f"report: {len(report['manifest'])} files in manifest")
    return 0


def cmd_synth(args) -> int:
    econ = generate_synthetic(args.p, args.s, shape=args.shape,
                              fill=args.fill, seed=args.seed)
    files = write_synthetic(econ, args.out)
    print(f"synth: {args.shape} {args.p}x{args.s}, seed {args.seed}: "
          f"{', '.join(files)}")
    return 0


def cmd_run(args) -> int:
    cfg = RunConfig(out_dir=args.out, firms=args.firms, regions=args.regions,
                    sectors=args.sectors, macro=args.macro,
                    rca_threshold=args.threshold,
                    eci_tol=args.eci_tol,
                    fitness_tol=args.fitness_tol,
                    fitness_max_iter=args.fitness_max_iter)
    report = run_pipeline(cfg)
    print(f"run: wrote {len(report['manifest'])} files")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EcxError as exc:
        print(f"ecx: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"ecx: i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
