#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 ledger/run.py --workload <metered_day|table1_churn|push_campaign> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It configures and builds ledger/ (which
compiles the simulator from ../src) into $CARGO_TARGET_DIR/ledger, or
.bench_build/ledger when that is unset, then runs the `ledger` binary with
the same arguments. The binary's report goes to standard output; its last
line is the JSON result. Build output goes to standard error. The exit code
is the binary's: 0 when every output check passed, 1 when one failed; 2 for
bad arguments or a checkout without the simulator sources, 3 when the build
fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("metered_day", "table1_churn", "push_campaign")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    return parser.parse_args()


def build(package, build_dir):
    """Configures once, then lets the build tool decide what is stale."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(package), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "ledger"


def main():
    args = parse_args()
    package = Path(__file__).resolve().parent
    if not (package.parent / "src" / "CMakeLists.txt").exists():
        print("ledger: no simulator sources next to the benchmark; run it "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (build_root / "ledger").resolve()
    try:
        binary = build(package, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"ledger: build failed: {err}", file=sys.stderr)
        return 3

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        spans = build_dir / f"spans_{args.workload}_seed{args.seed}.json"
        command += ["--span-out", str(spans)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"ledger: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        well_formed = set(result) == RESULT_KEYS
    except (ValueError, IndexError):
        well_formed = False
    if not well_formed:
        sys.stdout.write(run.stdout)
        print("ledger: the binary printed no result line", file=sys.stderr)
        return run.returncode or 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
