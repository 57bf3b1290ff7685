#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

For every workload and seed it runs the command in BENCHMARK.json (from the
repository root), collects the final JSON line, and reports each metric's
median, first and third quartile, and spread: (Q3 - Q1) / median, with the
quartiles taken as `statistics.quantiles(values, n=4)` gives them. The
spread is compared with the metric's bound, and a third of it.

    python3 perfbench/spread.py --workloads chord_steady --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/spread.py --seeds 1 --trace 1 --out perfbench/ledger.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench, workload, seed, trace):
    cmd = list(bench["command"]) + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["took_s"] = took
    return result


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else float("inf"),
        "values": values,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = seeds_of(args.seeds)

    report = {}
    for name in names:
        runs = []
        for seed in seeds:
            res = run_once(bench, name, seed, args.trace)
            ok = res["correct"]
            print(f"{name} seed {seed}: correct={ok} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"took {res['took_s']:.1f} s", flush=True)
            runs.append(res)
        metrics = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            unit = runs[0]["metrics"][metric]["unit"]
            if len(values) >= 2:
                s = summarise(values)
            else:
                s = {"value": values[0]}
            s["unit"] = unit
            metrics[metric] = s
            if len(values) >= 2:
                bound = bounds.get(metric)
                flag = ""
                if bound is not None:
                    flag = "ok" if s["spread"] < bound / 3 else (
                        "WITHIN BOUND" if s["spread"] <= bound else "OVER BOUND")
                print(f"  {metric:<28} median {s['median']:>12.4f} {unit:<12} "
                      f"q1 {s['q1']:>12.4f} q3 {s['q3']:>12.4f} "
                      f"spread {s['spread']:.4f} (bound {bound}) {flag}")
        report[name] = {
            "seeds": seeds,
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "run_wall_s": [round(r["took_s"], 2) for r in runs],
            "metrics": metrics,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
