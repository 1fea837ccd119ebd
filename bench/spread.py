"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs the command in BENCHMARK.json once per (workload, seed) with
``--trace 0`` and its ``run_seconds``, then prints for each end-to-end
metric the median, the quartiles and the spread (q3 - q1) / median,
next to a third of the metric's bound.  Run from the root of a checkout:

    python3 bench/spread.py --seeds 1-10 --workloads firms1m
    python3 bench/spread.py --seeds 1-10 --save bench/baseline.json

The saved file also keeps the environment and, per run, the output
digests, for comparison across commits.

A workload passes when every spread except that of ``setup_s`` is below
its bound; below a third of it is the target for a steady benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds_arg(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", nargs="*",
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--save", type=Path,
                        help="write the per-run metrics and summaries here")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    failed = False
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed",
                   str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            failed |= not result["correct"]
            tagged = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1])
                      for line in lines if line.startswith(("env ", "digests "))}
            summary.setdefault("env", tagged["env"])
            runs.append({"seed": seed, "correct": result["correct"],
                         "digests": tagged["digests"],
                         "metrics": {k: v["value"]
                                     for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()),
                flush=True)
        metrics = {name: summarise([r["metrics"][name] for r in runs])
                   for name in bounds}
        summary[workload] = {"runs": runs, "metrics": metrics}
        for name, s in metrics.items():
            print(f"  {workload:14s} {name:12s} median {s['median']:10.5g} "
                  f"q1 {s['q1']:10.5g} q3 {s['q3']:10.5g} spread "
                  f"{s['spread']:.4f} (bound {bounds[name]}, a third "
                  f"{bounds[name] / 3:.4f})", flush=True)
    if args.save:
        args.save.write_text(json.dumps(summary, indent=2, sort_keys=True)
                             + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
