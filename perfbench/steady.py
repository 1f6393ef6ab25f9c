#!/usr/bin/env python3
"""Steadiness check: runs one workload ten times and reports each metric's
spread against the bound BENCHMARK.json fixes for it.

    python3 perfbench/steady.py --workload NAME

Run from the repository root.  The runs use seeds 1..10 and the run length
BENCHMARK.json gives (run_seconds), untraced.  For every end-to-end metric
it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, the
bound and whether the spread is below a third of it.  It then runs once
more on the held-out seed 1000 and prints that run's deviation from the
median.  Exits 1 if any metric spreads beyond its bound or an operation
fails.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
HELDOUT_SEED = 1000


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        sys.exit(f"steady: run with seed {seed} failed "
                 f"(exit {proc.returncode})")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(f"steady: seed {seed}: {result['failed']} of "
              f"{result['attempted']} operations failed", file=sys.stderr)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    failed = 0
    for seed in range(1, RUNS + 1):
        start = time.monotonic()
        result = run_once(args.workload, seed, seconds)
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        shown = ", ".join(f"{k}={v['value']:.4g}"
                          for k, v in sorted(result["metrics"].items()))
        print(f"run {seed}/{RUNS} seed {seed}: "
              f"{time.monotonic() - start:.1f} s: {shown}", file=sys.stderr)

    print(f"workload {args.workload}: {RUNS} runs of {seconds} s, "
          f"failed operations {failed}")
    print(f"{'metric':20} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  verdict")
    unsteady = False
    medians = {}
    for name in sorted(values):
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4)
        medians[name] = med
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds[name]
        if spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound, above a third"
        else:
            verdict = "UNSTEADY"
            unsteady = True
        print(f"{name:20} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f} {bound:6.3f}  {verdict}")

    held = run_once(args.workload, HELDOUT_SEED, seconds)
    print(f"held-out seed {HELDOUT_SEED}: failed {held['failed']} of "
          f"{held['attempted']}")
    for name in sorted(held["metrics"]):
        value = held["metrics"][name]["value"]
        med = medians[name]
        dev = (value - med) / abs(med) if med else 0.0
        print(f"  {name:20} {value:14.6g}  vs median {dev:+.4f}")
    if unsteady or failed or held["failed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
