#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs every named workload once per seed, untraced, through the command in
BENCHMARK.json, and prints for each end-to-end metric the median and the
interquartile range as a share of the median, beside a third of the
metric's declared bound.

    python3 perfbench/spread.py --seeds 1-10 [--workloads paper_rt,serve_open]

Run it from the repository root. It exits 1 if any run fails, is not
correct, or a spread other than setup_s exceeds a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seconds = args.seconds or bench["run_seconds"]
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        digests = set()
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: not correct: {lines[-1]}")
                ok = False
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            digests.update(l for l in lines if l.startswith("perfbench sim_digest"))
        print(f"{workload}: {len(digests)} distinct digests over {len(seeds_of(args.seeds))} seeds")
        for metric in bench["end_to_end"]:
            vals = values[metric["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            limit = metric["bound"] / 3
            flag = "ok" if spread <= limit or metric["name"] == "setup_s" else "WIDE"
            if flag == "WIDE":
                ok = False
            print(f"  {metric['name']:<14} median {med:<12.6g} spread {spread:7.4f}"
                  f"  bound/3 {limit:.4f}  {flag}  [{' '.join(f'{v:.4g}' for v in vals)}]")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
