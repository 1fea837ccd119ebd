"""The ecx benchmark: time whole passes of a workload, or trace one.

Run from the root of a checkout:

    python3 bench/run.py --workload firms1m --seed 1 --seconds 50 --trace 0

Inputs come from the seed (see inputs.py) and are generated before any
timing.  Passes run in fresh interpreters (worker.py), each given about a
third of ``--seconds``, so every run includes cold first passes as each
``ecx run`` has, and the peak RSS is that of a process that only imports
ecx and runs the workload.  Every pass's outputs are checked and their
sha256 digests must equal the first pass's.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, plus the
tracing overhead.  Human-readable lines, the environment and the output
digests come first; the last line of standard output is the JSON result.
Full records go to ``.benchdata/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS, prepare
from tracing import LAYER_METRICS

BENCH = Path(__file__).resolve().parent

#: end-to-end metrics reported with --trace 0: (name, unit)
END_TO_END = (("run_s", "s"), ("run_s_tail", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB"), ("rows_per_s", "rows/s"))

#: set-up samples per run; import-only starts make up for few processes
SETUP_SAMPLES = 3

#: a worker running this much longer than its budget is killed, and
#: counted as one failed pass
OVERRUN_S = 100

#: worker processes a run's window is split into
WORKERS_PER_RUN = 3


def _worker(root: Path, args, budget: float = 0.0) -> dict:
    """Start worker.py with ``budget`` seconds, import included, wait for
    it and return its record.

    ``setup_s`` is the time from just before the start to the end of its
    ``import ecx.cli``; ``wall_s`` is the whole life of the process.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    started = time.perf_counter()
    if budget:
        args = [*args, "--until", started + budget]
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *map(str, args)],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=budget + OVERRUN_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {budget + OVERRUN_S:.0f} s",
                "wall_s": time.perf_counter() - started}
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        record = None
    if not isinstance(record, dict):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"worker exited with {proc.returncode}: {tail[0]}",
                "wall_s": wall}
    record["setup_s"] = record.pop("imported_at") - started
    record["wall_s"] = wall
    return record


def tail(values):
    """(value, percentile) of the pass-time tail: the nearest-rank 90th
    percentile from ten passes on, the maximum below that.  A 90th
    percentile with ten passes above it would need a hundred passes,
    more than one run of a large workload makes."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 10:
        return ordered[-1], 100.0
    return ordered[math.ceil(0.9 * n) - 1], 90.0


def source_digest(root: Path) -> str:
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    package = root / "src" / "ecx"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(package)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    rev = "unknown (not a git checkout)"
    if (root / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True).stdout.strip()
    return {"git_rev": rev, "src_sha256": source_digest(root),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine()}


def measure(root: Path, data_root: Path, workload, seed: int, seconds: float,
            trace: int, min_passes: int = 1, corrupt_pass: int = -1) -> dict:
    """Run passes of ``workload`` for ``seconds`` and summarise them.

    The window is shared by worker processes of about a third of it each,
    at least two, so every run sees a few cold starts.  With ``trace`` the
    processes alternate between untraced and traced.  ``min_passes`` and
    ``corrupt_pass`` apply to the first process; the latter makes that
    pass flip one output byte before its check, so selfcheck.py can see
    a corrupted pass counted as failed.
    """
    inputs = prepare(data_root, workload, seed)
    work = data_root / "work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    workers = []
    start = time.perf_counter()
    while True:
        k = len(workers)
        traced = bool(trace) and k % 2 == 1
        args = ["--mode", workload.mode, "--inputs", inputs["dir"],
                "--out", work / f"worker{k}", "--trace", int(traced)]
        if traced:
            args += ["--spans", work / f"spans{k}.json"]
        if k == 0:
            args += ["--min-passes", min_passes]
            if corrupt_pass >= 0:
                args += ["--corrupt", corrupt_pass]
        record = _worker(root, args, seconds / WORKERS_PER_RUN)
        record["traced"] = traced
        workers.append(record)
        elapsed = time.perf_counter() - start
        typical = statistics.median(w["wall_s"] for w in workers)
        # stop when another process would end mostly outside the window
        if len(workers) >= 2 and elapsed + typical / 2 >= seconds:
            break

    passes = []
    for w in workers:
        if "error" in w:         # the process itself failed: one failed pass
            passes.append({"error": w["error"], "traced": w["traced"]})
        for i, p in enumerate(w.get("passes", ())):
            passes.append({**p, "traced": w["traced"], "first": i == 0})
    reference = next((p["digests"] for p in passes if "digests" in p), None)
    for p in passes:
        if "error" not in p and p["digests"] != reference:
            differ = sorted(n for n in set(p["digests"]) | set(reference)
                            if p["digests"].get(n) != reference.get(n))
            p["error"] = "digests differ from the first pass: " + ", ".join(differ)
        p["ok"] = "error" not in p
    good = [p for p in passes if p["ok"]]

    setup = [w["setup_s"] for w in workers if "setup_s" in w]
    if not trace:
        while len(setup) < SETUP_SAMPLES:
            probe = _worker(root, ["--probe"])
            if "setup_s" not in probe:
                break
            setup.append(probe["setup_s"])

    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "inputs": {"sha256": inputs["sha256"],
                                   "data_rows": inputs["data_rows"]},
        "digests": reference, "attempted": len(passes),
        "failed": len(passes) - len(good), "setup_samples": setup,
        "processes": [{k: w[k] for k in ("traced", "setup_s", "wall_s",
                                         "error") if k in w}
                      for w in workers],
        "passes": passes,
    }
    if not good:
        return result
    first = next(w for w in workers if "env" in w)
    result["env"] = {**environment(root), **first["env"]}
    plain = [p["pass_s"] for p in good if not p["traced"]]
    if trace:
        traced = [p for p in good if p["traced"]]
        layers = {}
        for name, _, _ in LAYER_METRICS:
            values = [p["layers"].get(name) for p in traced]
            values = [v for v in values if v is not None]
            layers[name] = statistics.median(values) if values else None
        if traced and plain:
            layers["trace.overhead_s"] = (
                statistics.median(p["pass_s"] for p in traced)
                - statistics.median(plain))
        result["metrics"] = layers
        result["absent"] = sorted({a for w in workers for a in w.get("absent", ())})
        return result
    run_s = statistics.median(plain)
    tail_s, tail_q = tail(plain)
    result["tail_percentile"] = tail_q
    result["metrics"] = {
        "run_s": run_s,
        "run_s_tail": tail_s,
        "setup_s": statistics.median(setup),
        # a process's peak after its first pass: import plus one pass, as
        # for one `ecx run`; later passes in a process can fragment the heap
        "peak_rss_mb": max(p["maxrss_mib"] for p in good if p["first"]),
        "rows_per_s": inputs["data_rows"] / run_s,
    }
    return result


def units(trace: int) -> dict:
    if trace:
        return {name: unit for name, unit, _ in LAYER_METRICS}
    return dict(END_TO_END)


def report(result: dict) -> None:
    """Human-readable summary lines, the environment and the digests."""
    n, failed = result["attempted"], result["failed"]
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {result['trace']}: {n} passes, {failed} failed")
    for p in result["passes"]:
        if not p["ok"]:
            print(f"  failed pass: {p['error']}")
    print("env " + json.dumps(result.get("env"), sort_keys=True))
    print("inputs " + json.dumps(result["inputs"], sort_keys=True))
    print("digests " + json.dumps(result["digests"], sort_keys=True))
    if result.get("absent"):
        print("absent (not traced): " + ", ".join(result["absent"]))
    plain = sum(1 for p in result["passes"] if p["ok"] and not p["traced"])
    notes = {}
    if not result["trace"]:
        q = result["tail_percentile"]
        notes = {
            "run_s": f"median of {plain} passes in "
                     f"{len(result['processes'])} processes",
            "run_s_tail": (f"max of {plain} passes" if q == 100
                           else f"p{q:.0f} of {plain} passes"),
            "setup_s": f"median of {len(result['setup_samples'])} starts",
            "peak_rss_mb": "highest over processes, after their first pass",
            "rows_per_s": f"{result['inputs']['data_rows']} firm rows / run_s",
        }
    table = units(result["trace"])
    for name, value in result["metrics"].items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:36s} {shown:>12s} {table[name]:8s} {notes.get(name, '')}")
    if not result["trace"]:
        print(f"  {'fail_ratio':36s} {failed / n:12.6g} {'1':8s} "
              f"{failed} of {n} passes failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time or trace one ecx benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ecx" / "__init__.py").is_file():
        print(f"bench: no ecx sources under {root / 'src'}; run from the "
              "root of an ecx checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    data_root = root / ".benchdata"

    result = measure(root, data_root, WORKLOADS[args.workload], args.seed,
                     args.seconds, args.trace)
    if "metrics" not in result:
        for p in result["passes"]:
            print(f"bench: pass failed: {p['error']}", file=sys.stderr)
        return 1
    report(result)
    results = data_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n",
                  encoding="utf-8")
    table = units(args.trace)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": table[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
