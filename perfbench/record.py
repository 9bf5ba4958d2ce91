#!/usr/bin/env python3
"""Run the benchmark over several seeds and record what it measured.

Usage, from the repository root:

    python3 perfbench/record.py [--seeds N] [--traced] [--out perfbench/RECORD.json]

For every workload in BENCHMARK.json this runs the benchmark's command
untraced once per seed (seeds 1 .. N), and with --traced once more traced
(seed 1). It then reports, per end-to-end metric, the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread: the distance between
the quartiles as a share of the median. A spread at or above a third of the
metric's bound is flagged (except set-up time, which is bounded only on its
median). It writes the machine record: hardware threads, the calibration
score, every spread, the same-process ratios that compare across boxes, and
per workload why it was chosen and which layer metrics should move which
end-to-end metric (predictions.json).

Exit status is non-zero if any run failed, reported correct = false, or
had a spread flagged.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 1


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {int(trace)}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    info = next((json.loads(l[5:]) for l in lines if l.startswith("info ")), {})
    if not result["correct"]:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: correct = false")
    return result, info, wall


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "predictions.json")) as f:
        predictions = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    for p in predictions["predictions"]:
        if p["metric"] not in layer_names or p["moves"] not in bounds.keys() | layer_names:
            raise SystemExit(f"predictions.json names an unknown metric: {p}")

    record = {"machine": None, "run_seconds": spec["run_seconds"], "workloads": {}}
    flagged = []
    calibration = []
    for w in spec["workloads"]:
        name = w["name"]
        per_metric = {}
        walls = []
        for seed in range(FIRST_SEED, FIRST_SEED + args.seeds):
            result, info, wall = run_once(spec, name, seed, trace=False)
            walls.append(wall)
            calibration.append(info.get("calibration_ns_per_event"))
            record["machine"] = {
                "available_parallelism": info.get("available_parallelism"),
                "platform": platform.platform(),
                "processor": platform.processor() or platform.machine(),
            }
            for m, v in result["metrics"].items():
                per_metric.setdefault(m, []).append(v["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={v['value']:.6g}" for m, v in result["metrics"].items()), flush=True)
        entry = {"why": w["why"], "invocation_wall_s": summary(walls), "end_to_end": {}}
        for m, values in per_metric.items():
            s = summary(values)
            entry["end_to_end"][m] = s
            bound = bounds[m]
            if m != "setup_s" and s["spread"] >= bound / 3:
                flagged.append(f"{name}.{m}: spread {s['spread']:.4f} >= bound/3 {bound / 3:.4f}")
            print(f"  {m:<16} median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"(bound {bound})", flush=True)
        if args.traced:
            result, info, _ = run_once(spec, name, FIRST_SEED, trace=True)
            layers = {m: v["value"] for m, v in result["metrics"].items()}
            calib = info.get("calibration_ns_per_event")
            entry["per_layer"] = layers
            entry["ratios"] = {
                "shard.speedup_vs_serial": layers.get("shard.speedup_vs_serial"),
                "harness.probe_deep_per_calibration":
                    layers["harness.probe_deep_ns"] / calib,
                "harness.probe_shallow_per_calibration":
                    layers["harness.probe_shallow_ns"] / calib,
                "shard.probe_barrier_per_calibration":
                    layers["shard.probe_barrier_ns"] / calib,
                "harness.ns_per_event_per_calibration":
                    layers["harness.ns_per_event"] / calib,
            }
        entry["predictions"] = [
            p for p in predictions["predictions"] if p["workload"] == name
        ]
        record["workloads"][name] = entry
    calibration = [c for c in calibration if c is not None]
    if calibration:
        record["machine"]["calibration_ns_per_event"] = summary(calibration)
    for f in flagged:
        print("SPREAD TOO WIDE: " + f)
    if args.out:
        with open(os.path.join(ROOT, args.out), "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
        print(f"wrote {args.out}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
