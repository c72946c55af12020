#!/usr/bin/env python3
"""Run the benchmark over ten seeds and report how steady it is.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py --out perfbench/proof/set-a.json
    python3 perfbench/steadiness.py --compare perfbench/proof/set-a.json perfbench/proof/set-b.json

The first form runs the command of BENCHMARK.json for its `run_seconds`,
once per seed 1-10 and workload, seed by seed so that host drift touches
every workload alike. It writes every end-to-end metric of every run plus
the run's `host.contention`. It prints, per workload and metric, the median
and the spread: the distance between the first and third quartile as a
share of the median. A spread of a third of the metric's bound or more
reads TOO WIDE. The second form prints how far the
second set's medians moved from the first's, beside each bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(cfg, workload, seed):
    cmd = cfg["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(cfg["run_seconds"]), "--trace", "0"]
    start = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    diag = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("diagnostics "))
    return {
        "workload": workload,
        "seed": seed,
        "wall_s": round(wall, 2),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "passes": diag["passes"],
        "host.contention": diag["host.contention"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def summarize(cfg, runs):
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        rows = [r for r in runs if r["workload"] == workload]
        print(f"{workload}: {len(rows)} runs, host.contention "
              f"{min(r['host.contention'] for r in rows):.2f}..{max(r['host.contention'] for r in rows):.2f}")
        for name, bound in bounds.items():
            med, s = spread([r["metrics"][name] for r in rows])
            flag = "ok" if s < bound / 3 else "TOO WIDE"
            print(f"  {name:<16} median {med:<14.6g} spread {s:7.4f}  (bound/3 {bound / 3:.4f}) {flag}")


def compare(cfg, first, second):
    lower = {m["name"]: m["better"] == "lower" for m in cfg["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    a, b = json.loads(Path(first).read_text()), json.loads(Path(second).read_text())
    for workload in dict.fromkeys(r["workload"] for r in a["runs"]):
        print(workload)
        for name, bound in bounds.items():
            ma = statistics.median(r["metrics"][name] for r in a["runs"] if r["workload"] == workload)
            mb = statistics.median(r["metrics"][name] for r in b["runs"] if r["workload"] == workload)
            worse = (mb - ma) / ma if lower[name] else (ma - mb) / ma
            flag = "ok" if worse <= bound else "WORSE THAN BOUND"
            print(f"  {name:<16} {ma:<14.6g} -> {mb:<14.6g} worse by {worse:+.4f} (bound {bound}) {flag}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    cfg = bench()
    if args.compare:
        compare(cfg, *args.compare)
        return
    runs = []
    for seed in SEEDS:
        for workload in (w["name"] for w in cfg["workloads"]):
            runs.append(one_run(cfg, workload, seed))
            r = runs[-1]
            print(f"{workload} seed {seed}: {r['metrics']} contention {r['host.contention']:.2f}", flush=True)
    summarize(cfg, runs)
    if args.out:
        record = {"run_seconds": cfg["run_seconds"], "command": cfg["command"], "runs": runs}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
