#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread, as the acceptance check does.

    python3 wallbench/steady.py --runs 10 [--workloads kv,paced] [--out FILE]

Runs every workload --runs times, each with another --seed (1, 2, ...),
and reports for each end-to-end metric the median and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound from BENCHMARK.json.
--out writes the same figures as JSON, together with the per-layer
metrics of one traced run (--trace 1, seed 1) of each workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(spec, w, seed, trace):
    cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"{w} seed {seed} trace {trace}: result not correct")
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    report = {}
    for w in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        attempted = failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res = bench(spec, w, seed, 0)
            attempted += res["attempted"]
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values[name].append(m["value"])
            print(f"{w:8s} seed {seed:3d} " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        report[w] = {"attempted": attempted, "failed": failed, "metrics": {}}
        for m in spec["end_to_end"]:
            xs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            report[w]["metrics"][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "iqr_share": spread, "bound": m["bound"], "unit": m["unit"],
            }
            flag = "" if m["name"] == "setup_s" or spread < m["bound"] / 3 else "  <-- above a third of the bound"
            print(f"{w:8s} {m['name']:20s} median {med:14.6g} {m['unit']:6s} iqr/median {spread:7.4f} bound {m['bound']}{flag}")
        print(f"{w:8s} attempted {attempted} failed {failed}", flush=True)
        if args.out:
            res = bench(spec, w, args.first_seed, 1)
            report[w]["per_layer_seed_%d" % args.first_seed] = {k: v["value"] for k, v in sorted(res["metrics"].items())}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
