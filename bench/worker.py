"""Benchmark passes in a fresh interpreter; started by run.py.

The first statement imports ``ecx.cli``, so the clock reading right after
it marks the end of set-up; run.py took the start reading just before it
started this process.  The process then runs passes of the workload
through the public API until about ``--until`` (at least one pass),
checks the outputs of each and prints one JSON line.  Only the passes
are timed.  Each pass records the process's peak RSS so far, so the
first pass's covers the import and exactly one pass.

    PYTHONPATH=src python3 bench/worker.py --mode run --inputs DIR --out DIR
"""

import time

import ecx.cli  # noqa: E402  (set-up ends when this import returns)

IMPORTED_AT = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import ecx.pipeline  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402

from inputs import sha256_file  # noqa: E402
from tracing import Tracer  # noqa: E402

#: tolerance of the ECI mean/std and fitness mean invariants
INVARIANT_TOL = 1e-9


class PassFailed(Exception):
    pass


def staged_argvs(inputs: Path, out: Path, first_region: str):
    """The CLI chain of the staged workload, one argv per stage."""
    files = ["--firms", inputs / "firms.csv", "--regions", inputs / "regions.csv",
             "--sectors", inputs / "sectors.csv", "--macro", inputs / "macro.csv"]
    chain = [["ingest", *files], ["matrix"], ["eci"], ["fitness", "--ordered"],
             ["mst", "--format", "graphml"], ["correlate", "--fit", "exp"],
             ["report", "--summary", "--highlight", first_region]]
    return [[str(a) for a in argv] + ["--out", str(out)] for argv in chain]


def run_pass(mode: str, inputs: Path, out: Path, first_region: str) -> float:
    """Run the workload once into ``out``; returns the pass seconds."""
    if mode == "run":
        cfg = ecx.pipeline.RunConfig(
            out_dir=out, firms=inputs / "firms.csv",
            regions=inputs / "regions.csv", sectors=inputs / "sectors.csv",
            macro=inputs / "macro.csv")
        start = time.perf_counter()
        ecx.pipeline.run_pipeline(cfg)
        return time.perf_counter() - start
    argvs = staged_argvs(inputs, out, first_region)
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        for argv in argvs:
            code = ecx.cli.main(argv)
            if code != 0:
                raise PassFailed(f"ecx {argv[0]} exited with {code}")
    return time.perf_counter() - start


def _column(path: Path, index: int = 1):
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return [float(line.split(",")[index]) for line in lines]


def check_outputs(out: Path, data_rows: int) -> dict:
    """Invariants of one pass's outputs; returns the manifest digests."""
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    problems = []
    ingest = report["ingest"]
    if ingest["records"] + ingest["rejection_count"] != data_rows:
        problems.append(f"records {ingest['records']} + rejections "
                        f"{ingest['rejection_count']} != {data_rows} rows")
    eci = _column(out / "eci.csv")
    if abs(statistics.fmean(eci)) > INVARIANT_TOL \
            or abs(statistics.pstdev(eci) - 1.0) > INVARIANT_TOL:
        problems.append("eci is not standardized to mean 0, std 1")
    if abs(statistics.fmean(_column(out / "fitness.csv")) - 1.0) > INVARIANT_TOL:
        problems.append("fitness mean is not 1")
    mst = report["mst"]
    tree = (out / f"mst_{mst['entity']}.{mst['format']}").read_text(
        encoding="utf-8")
    marker = {"dot": " -- ", "graphml": "<edge ", "csv": ","}[mst["format"]]
    drawn = sum(marker in line for line in tree.splitlines())
    if mst["format"] == "csv":
        drawn -= 1      # header
    if not mst["edges"] == drawn == mst["nodes"] - 1:
        problems.append(f"tree has {mst['edges']} edges ({drawn} drawn) "
                        f"over {mst['nodes']} nodes")
    if problems:
        raise PassFailed("; ".join(problems))
    return {name: sha256_file(out / name) for name in report["manifest"]}


def blas_info() -> dict:
    """OpenBLAS build and thread count, read from the loaded library."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    return {"blas": config().decode().strip(),
                            "blas_threads": threads()}
    return {"blas": None, "blas_threads": None}


def run_passes(args, tracer) -> list:
    meta = json.loads((args.inputs / "inputs.json").read_text(encoding="utf-8"))
    passes, walls = [], []
    while True:
        began = time.perf_counter()
        out = args.out / f"pass{len(passes)}"
        record = {}
        try:
            record["pass_s"] = run_pass(args.mode, args.inputs, out,
                                        meta["first_region"])
            if len(passes) == args.corrupt:
                target = out / "rca.csv"
                data = bytearray(target.read_bytes())
                data[len(data) // 2] ^= 0x01
                target.write_bytes(bytes(data))
            record["digests"] = check_outputs(out, meta["data_rows"])
        except Exception as exc:  # any failure of a pass counts, with its cause
            record["error"] = "".join(
                traceback.format_exception_only(type(exc), exc)).strip()
        shutil.rmtree(out, ignore_errors=True)
        record["maxrss_mib"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            record["layers"] = tracer.end_pass()
        passes.append(record)
        walls.append(time.perf_counter() - began)
        # stop when another pass would end mostly after the deadline
        if len(passes) >= args.min_passes and time.perf_counter() \
                + statistics.median(walls) / 2 >= args.until:
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mode", choices=("run", "staged"))
    parser.add_argument("--inputs", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--until", type=float, default=0.0,
                        help="deadline on the time.perf_counter() clock, "
                             "which is shared by all processes on Linux")
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path,
                        help="where a traced process writes its spans")
    parser.add_argument("--probe", action="store_true",
                        help="report the set-up time only")
    parser.add_argument("--corrupt", type=int, default=-1, metavar="N",
                        help="flip one output byte of pass N before its "
                             "check (selfcheck.py uses this)")
    args = parser.parse_args(argv)
    result = {"imported_at": IMPORTED_AT}
    if not args.probe:
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        result["passes"] = run_passes(args, tracer)
        if tracer is not None:
            result["absent"] = tracer.absent
            if args.spans is not None:
                tracer.dump(args.spans)
        result["env"] = {"numpy": numpy.__version__,
                         "scipy": scipy.__version__, **blas_info()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
