#!/usr/bin/env python3
"""Steadiness check: run every workload repeatedly and report spreads.

    python3 perfbench/steady.py [--workloads solo,mix8,sweep]
        [--seeds 10] [--first-seed 1] [--seconds S]

For each seed in turn it runs each workload once (so the workloads
interleave and share the host's drifts), then prints, per workload and
end-to-end metric, the median, the quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median against the metric's bound in
BENCHMARK.json. A workload with a spread over its bound (setup_s
excepted, whose spread is reported only) is listed as one to drop or
enlarge. The share of failed operations must be the same in every
run. The summary also goes to .bench_out/steady-<first-seed>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = p.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for w in workloads:
            r = run_once(w, seed, args.seconds)
            if r is None:
                print(f"{w} seed {seed}: run FAILED", flush=True)
                continue
            results[w].append(r)
            shown = " ".join(f"{k}={v['value']:.6g}"
                             for k, v in sorted(r["metrics"].items()))
            print(f"{w} seed {seed}: {shown} "
                  f"failed={r['failed']}/{r['attempted']}", flush=True)

    summary, unsteady = {}, []
    for w, runs in results.items():
        if len(runs) < 2:
            continue
        shares = {r["failed"] / r["attempted"] for r in runs}
        summary[w] = {"runs": len(runs), "failed_shares": sorted(shares)}
        print(f"\n{w}: {len(runs)} runs, failed share "
              f"{'constant' if len(shares) == 1 else 'VARIES'} "
              f"{sorted(shares)}")
        for metric in sorted(runs[0]["metrics"]):
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(metric)
            verdict = ""
            if bound is not None:
                verdict = ("steady" if spread <= bound / 3 else
                           "within bound" if spread <= bound else
                           "OVER BOUND")
                if spread > bound and metric != "setup_s":
                    unsteady.append(w)
            summary[w][metric] = {"q1": q1, "median": med, "q3": q3,
                                  "spread": spread, "bound": bound}
            print(f"  {metric:28s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:7.2%}"
                  + (f"  bound {bound:.0%}  {verdict}" if bound else ""))
    if unsteady:
        print("\nunsteady workloads (drop or enlarge): "
              + ", ".join(sorted(set(unsteady))))
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_out",
                        f"steady-{args.first_seed}.json")
    with open(path, "w") as f:
        json.dump(summary, f, indent=2)


if __name__ == "__main__":
    main()
