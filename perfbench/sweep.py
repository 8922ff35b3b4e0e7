#!/usr/bin/env python3
"""Run the benchmark over workloads and seeds and summarise the spread.

From the repository root, one run of every workload, printing each metric
by name and unit:

    python3 perfbench/sweep.py --runs 1

Ten seeds per workload, untraced and traced, stored as a baseline:

    python3 perfbench/sweep.py --runs 10 --traced-runs 2 --out perfbench/baseline.json

Each run is a separate ``perfbench/run.py`` process.  For every metric the
summary gives the median over runs, the quartiles, and the spread (the
interquartile distance as a share of the median) that BENCHMARK.json's
bounds are compared against.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import spread

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["environment"], json.loads(lines[-1])


def summarise(results: list[dict]) -> dict:
    out = {}
    names = results[0]["metrics"]
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        entry = {"unit": names[name]["unit"], "values": values,
                 "median": statistics.median(values)}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3,
                         spread=spread(values) if entry["median"] else None)
        out[name] = entry
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--traced-runs", type=int, default=0, help="traced runs per workload")
    parser.add_argument("--seed0", type=int, default=1, help="first seed")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--out", type=Path, default=None, help="write the summary here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    summary = {"run_seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        entry = {}
        for trace, runs in ((0, args.runs), (1, args.traced_runs)):
            if not runs:
                continue
            results = []
            for seed in range(args.seed0, args.seed0 + runs):
                env, result = run_once(workload, seed, args.seconds, trace)
                summary.setdefault("environment", env)
                ok &= result["correct"] and result["failed"] == 0
                results.append({"seed": seed, **result})
                shown = "  ".join(f"{k}={v['value']:.6g} {v['unit']}"
                                  for k, v in result["metrics"].items()
                                  if trace == 0 or k.startswith("trace."))
                print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}  {shown}",
                      flush=True)
            entry["traced" if trace else "untraced"] = {
                "runs": results, "metrics": summarise(results)}
        summary["workloads"][workload] = entry
        for name, m in entry.get("untraced", {}).get("metrics", {}).items():
            if m.get("spread") is not None:
                flag = "" if m["spread"] <= bounds[name] / 3 else "  above a third of bound"
                print(f"  {workload} {name}: median {m['median']:.6g} {m['unit']}, "
                      f"spread {m['spread']:.3f} (bound {bounds[name]}){flag}")
    summary["environment"] = {k: v for k, v in summary["environment"].items()
                              if k not in ("workload", "seed", "trace")}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
