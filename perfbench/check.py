#!/usr/bin/env python3
"""Checks on the benchmark itself. Run from the repository root.

    python3 perfbench/check.py spread [--runs 10] [--first-seed 1] [--save F] [WORKLOAD ...]
        Runs each workload once per seed and prints, for every end-to-end
        metric, the median, and the spread: the distance between the first
        and third quartile as a share of the median, against the metric's
        bound in BENCHMARK.json. --save writes every run's values to F.

    python3 perfbench/check.py compare A B
        Given two files saved by spread, requires every end-to-end
        metric's median in B to be no worse than in A by more than its
        bound, on every workload both hold.

    python3 perfbench/check.py determinism [--seed 1] [WORKLOAD ...]
        Runs the traced run twice in fresh processes with the same seed,
        and the untraced run twice, and requires the exact counts to be
        identical: attempts, AC occurrences, combined candidates, product
        threads and states, overlay states built, derivative states, DSA
        cycles and ISA words; and the traced layer self times to sum to
        within 10% of the untraced time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

EXACT_COUNTS = [
    "arch.attempts", "prefilter.ac_occurrences",
    "compiler.combined_dispatch_candidates", "compiler.combined_ac_candidates",
    "compiler.combined_product_threads", "compiler.combined_product_states",
    "arch.overlay_states_built", "derivative.states",
]
EXACT_E2E = ["dsa_cycles_per_kib", "isa_words"]


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect output {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(args):
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    ok = True
    saved = {}
    for w in args.workloads or WORKLOADS:
        runs = [run(w, args.first_seed + i, 0) for i in range(args.runs)]
        saved[w] = runs
        if args.save:
            with open(args.save, "w") as f:
                json.dump(saved, f, indent=1)
        print(f"== {w} ({args.runs} seeds from {args.first_seed})")
        for name, bound in bounds.items():
            vals = [r[name] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            s = (q3 - q1) / med if med else float("inf")
            flag = "ok" if s <= bound / 3 else ("WIDE" if s <= bound else "OVER")
            ok = ok and s <= bound
            print(f"  {name:20s} median {med:14.6g}  spread {s:7.4f}  "
                  f"bound {bound:5.2f}  {flag}")
            if args.verbose:
                print("      " + " ".join(f"{v:.6g}" for v in vals))
    return 0 if ok else 1


def compare(args):
    metrics = {m["name"]: m for m in BENCH["end_to_end"]}
    a, b = (json.load(open(p)) for p in (args.a, args.b))
    ok = True
    for w in [w for w in a if w in b]:
        for name, m in metrics.items():
            ma = statistics.median(r[name] for r in a[w])
            mb = statistics.median(r[name] for r in b[w])
            worse = (ma - mb if m["better"] == "higher" else mb - ma) / ma if ma else 0.0
            good = worse <= m["bound"]
            ok = ok and good
            print(f"{w:14s} {name:20s} {ma:14.6g} {mb:14.6g}  worse by {worse:7.4f}  "
                  f"bound {m['bound']:5.2f}  {'ok' if good else 'OVER'}")
    return 0 if ok else 1


def determinism(args):
    ok = True
    for w in args.workloads or WORKLOADS:
        traced = [run(w, args.seed, 1) for _ in range(2)]
        untraced = [run(w, args.seed, 0) for _ in range(2)]
        for name, pair in ([(n, [r[n] for r in traced]) for n in EXACT_COUNTS]
                           + [(n, [r[n] for r in untraced]) for n in EXACT_E2E]):
            same = pair[0] == pair[1]
            ok = ok and same
            print(f"{w:14s} {name:40s} {pair[0]!r:>16} {pair[1]!r:>16} "
                  f"{'same' if same else 'DIFFERENT'}")
        # layer self times must sum to within 10% of the untraced time:
        # attributed/untraced = traced/untraced * attributed/traced
        for r in traced:
            off = ((1 + r["trace.overhead_share"])
                   * (1 - r["trace.unattributed_share"]) - 1)
            ok = ok and abs(off) <= 0.1
            print(f"{w:14s} {'attributed/untraced - 1':40s} {off:16.4f} "
                  f"{'within 10%' if abs(off) <= 0.1 else 'OVER 10%'}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--first-seed", type=int, default=1)
    s.add_argument("--verbose", action="store_true", help="print every run's value")
    s.add_argument("--save", help="write every run's values to this file")
    s.add_argument("workloads", nargs="*")
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    d = sub.add_parser("determinism")
    d.add_argument("--seed", type=int, default=1)
    d.add_argument("workloads", nargs="*")
    args = p.parse_args()
    if args.cmd == "compare":
        return compare(args)
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        p.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    return spread(args) if args.cmd == "spread" else determinism(args)


if __name__ == "__main__":
    sys.exit(main())
