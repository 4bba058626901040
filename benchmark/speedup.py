#!/usr/bin/env python3
"""Derived paper speedup on identical designs.

Runs `design_loop` and `reference` with the same seed and prints
ops_per_s(design_loop) / ops_per_s(reference), both in designs per
second: how many times
faster the surrogate produces a full field than the FDM reference does,
on the same seeded floorplans. This is a derived line, not a gated metric.

    python3 benchmark/speedup.py [--seed N] [--seconds S]
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def designs_per_s(workload, seed, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        command = json.load(f)["command"]
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload}: output check failed")
    return result["metrics"]["ops_per_s"]["value"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    opts = parser.parse_args()
    surrogate = designs_per_s("design_loop", opts.seed, opts.seconds)
    reference = designs_per_s("reference", opts.seed, opts.seconds)
    print(f"design_loop {surrogate:.3f} designs/s, reference {reference:.3f} designs/s")
    print(f"derived speedup (surrogate over FDM, same designs): {surrogate / reference:.4f}x")


if __name__ == "__main__":
    main()
