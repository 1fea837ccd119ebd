"""Command-line front end.

One subcommand per row of ``pipeline.STAGE_TABLE`` plus ``synth``
(test-data generator) and ``run`` (the whole pipeline in one go).  Each
option's ``dest`` is a ``RunConfig`` field or a keyword of the stage
function, so one ``cmd_stage`` runs every stage through
``pipeline.run_stage`` and prints the table's summary.  Every subcommand
reads and writes a shared output directory, given by ``--out`` or the
``ECX_OUT`` environment variable, so stages can be chained::

    ecx synth --shape nested --p 47 --s 91 --seed 7 --out data
    ecx run --firms data/firms.csv --macro data/macro.csv \\
            --regions data/regions.csv --sectors data/sectors.csv --out out

Exit codes: 0 success; 2 bad input (missing files, malformed tables,
unknown codes, a ``report`` over outputs of different runs); 3 numerical
failure (degenerate spectrum, disconnected similarity graph,
non-convergence); 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import List, Optional, Tuple

from . import eci as eci_mod
from . import fitness as fit_mod
from .errors import EcxError
from .pipeline import (INDICATORS, STAGE_TABLE, RunConfig, run_pipeline,
                       run_stage)
from .synth import SHAPES, generate_synthetic, write_synthetic


class _PrintVersion(argparse.Action):
    """``--version``: the installed version is looked up only when asked
    for, as ``importlib.metadata`` would add ~20 ms to every start."""

    def __call__(self, parser, namespace, values, option_string=None):
        from importlib.metadata import PackageNotFoundError, version

        try:
            found = version("ecx")
        except PackageNotFoundError:
            found = "unknown"
        print(f"{parser.prog} {found}")
        parser.exit()


def _default_out() -> str:
    return os.environ.get("ECX_OUT", ".")


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out", dest="out_dir", default=_default_out(), metavar="DIR",
        help="output directory (default: $ECX_OUT or current directory)")


def _add_inputs(parser: argparse.ArgumentParser, need_macro: bool) -> None:
    parser.add_argument("--firms", required=True, metavar="CSV",
                        help="firm-level table: firm_id,region_code,"
                             "sector_code,annual_sales,employees")
    parser.add_argument("--regions", required=True, metavar="CSV",
                        help="region catalog: code,name,super_region")
    parser.add_argument("--sectors", required=True, metavar="CSV",
                        help="sector catalog: code,name,division,excluded")
    parser.add_argument("--macro", required=need_macro, metavar="CSV",
                        help="per-region indicators: region_code,population,"
                             "gross_product,income_per_person")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecx",
        description="Economic-complexity analytics: RCA binarization, "
                    "eigenvector and fitness indices, similarity trees, "
                    "and macro correlations over region x sector data.")
    parser.add_argument("--version", action=_PrintVersion, nargs=0,
                        dest=argparse.SUPPRESS, default=argparse.SUPPRESS,
                        help="show program's version number and exit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse and aggregate the input tables")
    _add_inputs(p, need_macro=False)
    _add_out(p)

    p = sub.add_parser("matrix", help="RCA ratios and the binary matrix")
    p.add_argument("--threshold", dest="rca_threshold", metavar="THRESHOLD",
                   type=float, default=RunConfig.rca_threshold,
                   help="RCA cut-off for a 1 entry "
                        "(default %(default)s, inclusive)")
    _add_out(p)

    p = sub.add_parser("eci", help="eigenvector complexity indices")
    p.add_argument("--tol", dest="eci_tol", metavar="TOL", type=float,
                   default=eci_mod.DEFAULT_TOL,
                   help="eigenvalue tolerance (default %(default)s)")
    _add_out(p)

    p = sub.add_parser("fitness", help="fitness/complexity fixed point")
    p.add_argument("--tol", dest="fitness_tol", metavar="TOL", type=float,
                   default=fit_mod.DEFAULT_TOL,
                   help="stop when no value moves more than this "
                        "(default %(default)s)")
    p.add_argument("--max-iter", dest="fitness_max_iter", metavar="MAX_ITER",
                   type=int, default=fit_mod.DEFAULT_MAX_ITER,
                   help="iteration cap (default %(default)s)")
    p.add_argument("--ordered", action="store_true",
                   help="also export the rank-ordered 0/1 matrix "
                        "(CSV + PBM bitmap)")
    _add_out(p)

    p = sub.add_parser("mst", help="maximum-similarity spanning tree")
    p.add_argument("--entity", choices=("region", "sector"),
                   default="region", help="which projection to build")
    p.add_argument("--format", choices=("dot", "graphml", "csv"),
                   default="dot", help="export format (default dot)")
    _add_out(p)

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

    p = sub.add_parser("report", help="merge stage reports into report.json")
    p.add_argument("--summary", action="store_true",
                   help="also write quadrants.csv and the regions.csv "
                        "group-average table")
    p.add_argument("--highlight", metavar="CODE",
                   help="break this region out as its own summary group")
    _add_out(p)

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

    p = sub.add_parser("run", help="full pipeline: ingest through report")
    _add_inputs(p, need_macro=True)
    p.add_argument("--threshold", dest="rca_threshold", metavar="THRESHOLD",
                   type=float, default=RunConfig.rca_threshold,
                   help="RCA cut-off (default %(default)s)")
    p.add_argument("--eci-tol", type=float, default=eci_mod.DEFAULT_TOL,
                   help="eigenvalue tolerance (default %(default)s)")
    p.add_argument("--fitness-tol", type=float, default=fit_mod.DEFAULT_TOL,
                   help="fitness stop tolerance (default %(default)s)")
    p.add_argument("--fitness-max-iter", type=int,
                   default=fit_mod.DEFAULT_MAX_ITER,
                   help="fitness iteration cap (default %(default)s)")
    _add_out(p)

    return parser


def _config(args) -> Tuple[RunConfig, dict]:
    """The RunConfig and the stage keyword arguments of a command line."""
    options = dict(vars(args))
    del options["command"]
    cfg = RunConfig(**{f.name: options.pop(f.name)
                       for f in dataclasses.fields(RunConfig)
                       if f.name in options})
    return cfg, options


def cmd_stage(args) -> int:
    cfg, options = _config(args)
    report = run_stage(args.command, cfg, **options)
    print(STAGE_TABLE[args.command].summary(report))
    return 0


def cmd_synth(args) -> int:
    econ = generate_synthetic(args.p, args.s, shape=args.shape,
                              fill=args.fill, seed=args.seed)
    files = write_synthetic(econ, args.out_dir)
    print(f"synth: {args.shape} {args.p}x{args.s}, seed {args.seed}: "
          f"{', '.join(files)}")
    return 0


def cmd_run(args) -> int:
    report = run_pipeline(_config(args)[0])
    print(f"run: wrote {len(report['manifest'])} files")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = {"synth": cmd_synth, "run": cmd_run}.get(args.command, cmd_stage)
    try:
        return command(args)
    except EcxError as exc:
        print(f"ecx: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"ecx: i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
