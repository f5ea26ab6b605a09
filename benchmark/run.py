#!/usr/bin/env python3
"""Build modbench from this checkout, run one workload, print one JSON line.

Usage, from the repository root:

  python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/ (CMake, Release, modbench target only) and is
incremental after the first run; its output goes to stderr. modbench's own
report is forwarded to stderr too, so the last line on stdout is the result:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (from a traced run writing to
.bench_build/trace/). Exits nonzero without a result if the build fails or
modbench produces none.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "modbench")


def build():
    """Configures (once) and builds modbench; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "modbench", "-j",
                  "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


# modbench names latency and throughput by clock (sim_* simulated, wall_*
# real time) and reports each only where it applies; the gated metric takes
# the first source a workload reports, converted to the gated unit. Other
# gated names are modbench's own.
SOURCES = {
    "latency_p50_ms": [("sim_latency_p50_ms", 1.0),
                       ("wall_latency_p50_us", 1e-3)],
    "latency_p90_ms": [("sim_latency_p90_ms", 1.0),
                       ("wall_latency_p90_us", 1e-3)],
    "throughput_msgs_s": [("sim_capacity_msgs_s", 1.0),
                          ("wall_capacity_msgs_s", 1.0),
                          ("sim_throughput_msgs_s", 1.0)],
}


def gated_metrics(trace):
    """BENCHMARK.json's (name, unit) pairs for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def gate(measured, metrics):
    """Picks the gated metrics out of modbench's; None if one is missing."""
    out = {}
    for name, unit in metrics:
        for source, scale in SOURCES.get(name, [(name, 1.0)]):
            if source in measured:
                out[name] = {"value": measured[source]["value"] * scale,
                             "unit": unit}
                break
        else:
            print("run.py: modbench did not report " + name, file=sys.stderr)
            return None
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    metrics = gated_metrics(args.trace == 1)
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds]
    if args.trace:
        cmd.append("--trace=" + os.path.join(BUILD, "trace"))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("run.py: modbench produced no result (exit %d)" %
              proc.returncode, file=sys.stderr)
        return 1

    picked = gate(result["layers" if args.trace else "metrics"], metrics)
    if picked is None:
        return 1
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": picked,
    }))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
