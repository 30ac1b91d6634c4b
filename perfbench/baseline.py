"""Repeat the benchmark over seeds and summarise its spread and counts.

    python3 perfbench/baseline.py --seeds 301-310 --out perfbench/baseline.json

For every workload of ``BENCHMARK.json`` this runs ``perfbench/run.py`` once
per seed with tracing off, and reports per end-to-end metric the median,
the quartiles (``statistics.quantiles(values, n=4)``) and their distance as
a share of the median, next to the metric's bound.  It then makes two
traced runs on the first seed and reports the per-layer values and whether
the exact counts repeated.  Runs are sequential; nothing runs concurrently
with a measurement.  The environment record of the first run is kept.
``--seeds 1`` runs every workload once: one command for every end-to-end
and per-layer metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = ("risk.kernel_calls", "optimize.restarts", "junta.energy_spent", "risk.mc_samples")


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {done.returncode}:\n"
                         f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    print(f"{workload} seed {seed} trace {trace}: "
          + " ".join(f"{k}={v:.6g}" for k, v in values.items() if trace == 0), flush=True)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": values}


def summarise(runs: list, spec: dict) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        median = statistics.median(values)
        out[metric["name"]] = {
            "unit": metric["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": metric["bound"],
            "values": values,
        }
    out["fail_frac"] = {
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
    }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="101-110")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    report = {"seeds": seeds, "run_seconds": spec["run_seconds"], "environment": None, "workloads": {}}
    for name in names:
        runs = [run(spec, name, seed, 0) for seed in seeds]
        entry = {"end_to_end": summarise(runs, spec), "all_correct": all(r["correct"] for r in runs)}
        for metric, s in entry["end_to_end"].items():
            if metric != "fail_frac":
                flag = "" if s["spread"] <= s["bound"] / 3 else "  <-- above a third of the bound"
                print(f"  {name} {metric}: median {s['median']:.6g} {s['unit']} "
                      f"spread {s['spread']:.3f} (bound {s['bound']}){flag}")
        traced = [run(spec, name, seeds[0], 1) for _ in range(2)]
        entry["per_layer"] = traced[0]["metrics"]
        entry["counts_repeat"] = {
            count: traced[0]["metrics"][count] == traced[1]["metrics"][count] for count in EXACT_COUNTS
        }
        print(f"  {name} counts repeat: {entry['counts_repeat']}")
        report["workloads"][name] = entry
        if report["environment"] is None:
            path = os.path.join(ROOT, ".bench_out", f"{name}-seed{seeds[0]}-trace0.json")
            with open(path, encoding="utf-8") as handle:
                report["environment"] = json.load(handle)["environment"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
