#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
every ``end_to_end`` metric of BENCHMARK.json with ``--trace 0``, every
``per_layer`` metric with ``--trace 1``. A traced run is two fresh
processes, one untraced and one traced, so that ``trace.overhead``
compares like with like; spans are written to ``.bench_out/``.

Exits non-zero without printing a result when the build fails, and
non-zero after printing the result when an answer was wrong.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
# Every child, with its set-up and checks, must end this soon after the
# build, so the run ends within three minutes of it.
DEADLINE_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    target = os.environ.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return pathlib.Path(target if os.path.isabs(target) else ROOT / target) / "release" / "perfbench"


def child(binary, args, trace, seconds, deadline):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {DEADLINE_S} s of the build")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1]), proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    binary = build()
    deadline = time.monotonic() + DEADLINE_S

    # A traced run splits its time between the untraced and the traced
    # process, so it takes as long as an untraced run.
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain, code = child(binary, args, 0, seconds, deadline)
    runs = [plain]
    if args.trace:
        traced, traced_code = child(binary, args, 1, seconds, deadline)
        runs.append(traced)
        code = code or traced_code
    result = runs[-1]

    metrics = {}
    if args.trace:
        produced = dict(traced["layers"])
        produced["trace.overhead"] = [
            plain["e2e"]["throughput_ops_s"] / traced["e2e"]["throughput_ops_s"] - 1, "ratio"]
        wanted = spec["per_layer"]
    else:
        produced = {k: [v, None] for k, v in plain["e2e"].items()}
        wanted = spec["end_to_end"]
    names = {m["name"] for m in wanted}
    unknown = set(produced) - names
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    for m in wanted:
        value, unit = produced.get(m["name"], [0.0, m["unit"]])
        if unit is not None and unit != m["unit"]:
            fail(f"{m['name']} is measured in {unit}, BENCHMARK.json says {m['unit']}")
        if value is None:
            fail(f"{m['name']} has no value")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if not args.trace:
        missing = names - set(produced)
        if missing:
            fail(f"end-to-end metrics not measured: {sorted(missing)}")

    correct = all(r["correct"] for r in runs) and code == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
