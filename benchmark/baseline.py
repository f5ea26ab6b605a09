#!/usr/bin/env python3
"""Measure a modbench baseline and write it to benchmark/results/.

Usage, from the repository root:

  python3 benchmark/baseline.py [--runs 10] [--seconds 10]

Runs every workload --runs times untraced, each run with its own seed, in
two sets: the second set visits the workloads in reverse order, so a drift
of the machine does not line up with one workload. Then one traced run per
workload. Writes

  benchmark/results/seed.json          median and quartiles of every
                                       end-to-end metric per workload (first
                                       set), the second set's medians, the
                                       spread of each gated metric and the
                                       bound derived from it, and provenance;
  benchmark/results/seed-trace/<w>.layers.txt
                                       per-layer metrics of the traced run.

A gated metric's bound is three times the largest spread (interquartile
range over median) seen on any workload in either set, at least 2 % and at
most 25 %.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run

RESULTS = os.path.join(run.ROOT, "benchmark", "results")


def modbench(workload, seed, seconds, trace_dir=None):
    cmd = [run.BINARY, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%d" % seconds]
    if trace_dir:
        cmd.append("--trace=" + trace_dir)
    start = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit("baseline: %s seed %d failed: %s" %
                 (workload, seed, result.get("violation")))
    result["wall_s"] = time.time() - start
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def measure_set(workloads, runs, seconds, first_seed):
    """{workload: [result, ...]} for one set of runs."""
    out = {w: [] for w in workloads}
    for w in workloads:
        for i in range(runs):
            r = modbench(w, first_seed + i, seconds)
            print("%-22s seed %3d  %5.1f s" % (w, first_seed + i, r["wall_s"]),
                  file=sys.stderr, flush=True)
            out[w].append(r)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args()
    if not run.build():
        sys.exit("baseline: build failed")

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    gated = [(m["name"], m["unit"]) for m in spec["end_to_end"]]

    sets = [measure_set(workloads, args.runs, args.seconds, 1),
            measure_set(list(reversed(workloads)), args.runs, args.seconds,
                        1 + args.runs)]

    report = {"runs_per_set": args.runs, "seconds": args.seconds,
              "workloads": {}, "gated": {}}
    worst = {name: 0.0 for name, _ in gated}
    for w in workloads:
        first, second = sets[0][w], sets[1][w]
        native = {}
        for name in first[0]["metrics"]:
            native[name] = summary([r["metrics"][name]["value"] for r in first])
            native[name]["unit"] = first[0]["metrics"][name]["unit"]
            native[name]["second_set_median"] = statistics.median(
                r["metrics"][name]["value"] for r in second)
        gates = {}
        for name, unit in gated:
            per_set = [[run.gate(r["metrics"], [(name, unit)])[name]["value"]
                        for r in rs] for rs in (first, second)]
            s = summary(per_set[0])
            s["second_set"] = summary(per_set[1])
            s["unit"] = unit
            gates[name] = s
            if name != "setup_s":
                worst[name] = max(worst[name], s["spread"],
                                  s["second_set"]["spread"])
        walls = [r["wall_s"] for r in first + second]
        report["workloads"][w] = {
            "metrics": native, "gated": gates,
            "run_wall_s": {"min": min(walls), "median": statistics.median(walls),
                           "max": max(walls)},
            "provenance": first[0]["provenance"]}
    for name, _ in gated:
        bound = 0.25 if name == "setup_s" else min(0.25, max(0.02, 3 * worst[name]))
        report["gated"][name] = {"worst_spread": worst[name],
                                 "derived_bound": round(bound, 3)}

    os.makedirs(RESULTS, exist_ok=True)
    trace_dir = os.path.join(RESULTS, "seed-trace")
    for w in workloads:
        modbench(w, 1, args.seconds, trace_dir)
        os.remove(os.path.join(trace_dir, w + ".trace.json"))
    with open(os.path.join(RESULTS, "seed.json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
