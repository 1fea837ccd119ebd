"""Self-check of the benchmark at tiny sizes; not part of the test suite.

Run from the root of a checkout (takes about a minute):

    python3 bench/selfcheck.py

It checks that every workload runs at a tiny size, with and without
tracing, and emits every metric named in BENCHMARK.json with its unit and
a number; that fixture47 at seed 7 is the bundled fixture byte for byte;
that a pass whose output has one byte flipped counts as failed; and that
run.py refuses, without a result line, a directory with no ecx sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from inputs import TINY, WORKLOADS, prepare, sha256_file
from run import measure, units

BENCH = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "ecx" / "__init__.py").is_file():
        print("selfcheck: run from the root of an ecx checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    data_root = root / ".benchdata" / "selfcheck"
    problems = []

    unknown = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    if unknown:
        problems.append(f"BENCHMARK.json names unknown workloads {unknown}")
    listed = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for trace, expected in listed.items():
        if units(trace) != expected:
            problems.append(f"trace {trace}: run.py names/units differ from "
                            "BENCHMARK.json")

    for name, workload in TINY.items():
        for trace in (0, 1):
            result = measure(root, data_root, workload, 7, 1, trace)
            where = f"{name} (tiny) trace {trace}"
            if result["failed"] or "metrics" not in result:
                errors = [p["error"] for p in result["passes"] if not p["ok"]]
                problems.append(f"{where}: failed passes {errors}")
                continue
            metrics = result["metrics"]
            if set(metrics) != set(listed[trace]):
                problems.append(f"{where}: emitted {sorted(metrics)}")
            missing = [k for k, v in metrics.items()
                       if not isinstance(v, (int, float))]
            if missing:
                problems.append(f"{where}: no value for {missing}")
            print(f"{where}: {result['attempted']} passes, "
                  f"{len(metrics)} metrics", flush=True)

    fixture = prepare(data_root, WORKLOADS["fixture47"], 7)
    bundled = root / "src" / "ecx" / "data" / "fixture_nested47x91"
    for name, digest in fixture["sha256"].items():
        if sha256_file(bundled / name) != digest:
            problems.append(f"fixture47 seed 7: {name} differs from the "
                            "bundled fixture")

    result = measure(root, data_root, TINY["fixture47"], 7, 0, 0,
                     min_passes=2, corrupt_pass=1)
    flags = [p["ok"] for p in result["passes"]]
    if flags[:2] != [True, False] or result["failed"] != 1:
        problems.append(f"corrupted pass not counted as failed: {flags}")
    print(f"corrupted pass: {result['passes'][1].get('error')}")

    bare = data_root / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [*spec["command"], "--workload", "fixture47", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py without ecx sources: exit "
                        f"{proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
