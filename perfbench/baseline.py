#!/usr/bin/env python3
"""Record perfbench's baseline.

Runs every workload of BENCHMARK.json (or those named with --workload) once
per seed and writes, for each end-to-end metric, its values, median,
quartiles as statistics.quantiles(values, n=4) gives them, and spread,
(q3 - q1) / median, next to the metric's bound. The host's processor
count, GOMAXPROCS and Go version are recorded with them. Run it from the
repository root:

    python3 perfbench/baseline.py --seeds 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    """Runs the benchmark once; returns its result line and table header."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    header = next((l for l in lines if l.startswith("# perfbench ")), "")
    return json.loads(lines[-1]), header


def host(header):
    """The host as the benchmark's table header reports it."""
    fields = dict(f.split("=", 1) for f in header.split() if "=" in f)
    return {"nproc": os.cpu_count(), "gomaxprocs": int(fields.get("gomaxprocs", 0)),
            "workers": int(fields.get("workers", 0)), "go": fields.get("go", "")}


def main():
    ap = argparse.ArgumentParser(description="Record perfbench's baseline.")
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", help="workload to run (repeatable; default: all)")
    ap.add_argument("--out", default=os.path.join("perfbench", "baseline.json"))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    report = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            report = json.load(f)
    report.setdefault("workloads", {})
    report["run_seconds"] = bench["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    names = args.workload or [w["name"] for w in bench["workloads"]]
    for name in names:
        runs = []
        for seed in seeds:
            line, header = run_once(bench["command"], name, seed, bench["run_seconds"])
            runs.append(line)
            report["host"] = host(header)
            print(f"{name} seed={seed}: failed {line['failed']} of {line['attempted']}",
                  file=sys.stderr, flush=True)
        metrics = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            metrics[m["name"]] = {
                "unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": m["bound"], "values": values}
        report["workloads"][name] = {
            "seeds": seeds,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics}
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")

    print(f"{'workload':16} {'metric':18} {'median':>12} {'spread':>7} {'bound':>5}")
    for name in names:
        for metric, s in report["workloads"][name]["metrics"].items():
            wide = 3 * s["spread"] >= s["bound"]
            print(f"{name:16} {metric:18} {s['median']:12.6g} {s['spread']:7.4f} {s['bound']:5.2f}"
                  + ("  wide" if wide else ""))


if __name__ == "__main__":
    main()
