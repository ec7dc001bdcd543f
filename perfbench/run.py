#!/usr/bin/env python3
"""Build the benchmark and the daemon from source, then run one workload.

    python3 perfbench/run.py --workload ruleset-cold --seed 1 --seconds 40 --trace 0

Run from the repository root. The workloads are ruleset-cold and
policy-ext (see BENCHMARK.json for why each exists). The last line of
standard output is one JSON object with the keys correct, attempted, failed and metrics. Exits non-zero, without
a result, when the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["ruleset-cold", "policy-ext"]
TARGETS = ["./perfbench/perfbench.exe", "./bin/alveared.exe"]
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = subprocess.run(
        ["dune", "build", "--root", root, "--display", "quiet"] + TARGETS,
        cwd=root, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    exe = os.path.join(root, "_build", "default", "perfbench", "perfbench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # its own session, so a timeout also takes down the daemon it spawned
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
