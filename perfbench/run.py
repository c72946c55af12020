#!/usr/bin/env python3
"""Build the benchmark and run one measurement.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload worst-case --seed 1 --seconds 40 --trace 0

Builds `perfbench/` (a package of its own) into `$CARGO_TARGET_DIR`
(default `.bench_build`; a relative path is taken from the root of the
checkout), then runs one closed-loop measurement. The last
line of standard output is the JSON result; build output goes to standard
error. The exit code is non-zero if the build fails or any call disagrees
with the oracle.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="worst-case, smoothed or trace-replay")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, required=True,
                        help="how long the run measures; BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    target = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked",
         "--manifest-path", str(root / "perfbench" / "Cargo.toml")],
        env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    exe = target / "release" / "cadapt-perfbench"
    spans = target / "perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    run = subprocess.run(
        [str(exe), "run", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--spans", str(spans)],
        stdin=subprocess.DEVNULL,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
