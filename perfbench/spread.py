#!/usr/bin/env python3
"""Runs one workload on several seeds and prints each end-to-end metric's
median, quartiles and spread (inter-quartile distance / median) -- the
steadiness figure every bound in BENCHMARK.json is checked against.

    python3 perfbench/spread.py --workload <name> --seeds 1-10 [--seconds <s>]
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    values = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        line = [f"seed {seed}:"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.4g}")
        print(" ".join(line), flush=True)
    print(f"{'metric':<18} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        print(f"{m['name']:<18} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} "
              f"{(q3 - q1) / med:>8.3f} {m['bound']:>6}")


if __name__ == "__main__":
    main()
