#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the repository root; takes well under a minute after the build.
For every workload in BENCHMARK.json it checks that

  * the untraced run prints every end-to-end metric with its declared
    unit, every gate passes, and no metric is zero;
  * the traced run prints every per-layer metric with its declared unit;
  * a run that deliberately corrupts every second gated result reports
    failed operations, correct = false and ok_frac < 1.

run.py itself rejects a result whose metric names or units differ from
BENCHMARK.json, so a run that exits 0 has passed that check.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace, corrupt_every=0):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny",
           "--corrupt-every", str(corrupt_every)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise AssertionError(f"{workload}: run.py exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for w in spec["workloads"]:
        name = w["name"]
        try:
            clean = run(name, 0)
            assert clean["correct"] and clean["failed"] == 0, \
                f"{name}: a gate failed on an uncorrupted run"
            for m in spec["end_to_end"]:
                got = clean["metrics"][m["name"]]
                assert got["unit"] == m["unit"], f"{name}: {m['name']} unit"
                assert got["value"] != 0, f"{name}: {m['name']} is zero"

            traced = run(name, 1)
            assert traced["correct"], f"{name}: traced run failed a gate"
            for m in spec["per_layer"]:
                got = traced["metrics"][m["name"]]
                assert got["unit"] == m["unit"], f"{name}: {m['name']} unit"

            bad = run(name, 0, corrupt_every=2)
            assert bad["failed"] > 0 and not bad["correct"], \
                f"{name}: corrupted results were not counted as failed"
            assert bad["metrics"]["ok_frac"]["value"] < 1.0, \
                f"{name}: ok_frac ignores corrupted results"
            print(f"ok   {name}: {clean['attempted']} ops clean, "
                  f"{bad['failed']}/{bad['attempted']} failed when corrupted")
        except AssertionError as e:
            failures.append(str(e))
            print(f"FAIL {e}")
    if failures:
        sys.exit(1)
    print("selftest passed")


if __name__ == "__main__":
    main()
