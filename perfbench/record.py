#!/usr/bin/env python3
"""Run the benchmark over several seeds and write one trajectory point.

    python3 perfbench/record.py --label 0001-a0c7f28 --seeds 1-10

For each workload it makes one untraced run per seed and one traced run on
the first seed, one run at a time, each measuring for BENCHMARK.json's
``run_seconds``, and writes ``trajectory/<label>.json``. The point records,
per workload, every end-to-end value with its median and quartile spread,
the medians of the workload's own figures, the per-layer metrics of the
traced run, the output digests of every seed, the number of operations too
contended to time, and the machine. Runs are sequential because the
benchmark pins one worker to one core and a second run would compete for
the other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench" / "runs"


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((RUNS / f"{workload}-s{seed}-t{trace}.json").read_text())
    return final, record


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="name of the point, e.g. 0001-<commit>")
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    point = {"label": args.label, "seconds": seconds, "seeds": args.seeds,
             "trace_seed": args.seeds[0], "workloads": {}, "digests": {}}
    for workload in WORKLOADS:
        e2e, figures, failed, dropped = {}, {}, 0, 0
        point["digests"][workload] = {}
        for seed in args.seeds:
            final, record = run(workload, seed, seconds, 0)
            failed += final["failed"]
            dropped += len(record["dropped"])
            for name, metric in final["metrics"].items():
                e2e.setdefault(name, []).append(metric["value"])
            for name in record["samples"][0]:
                figures.setdefault(name, []).append(
                    statistics.median(s[name] for s in record["samples"]))
            point["digests"][workload][str(seed)] = record["digests"]
            point.setdefault("machine", record["machine"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in final["metrics"].items()), flush=True)
        traced, _ = run(workload, args.seeds[0], seconds, 1)
        point["workloads"][workload] = {
            "end_to_end": {name: spread(v) for name, v in e2e.items()},
            "figures": {name: statistics.median(v) for name, v in figures.items()},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "failed": failed + traced["failed"],
            "dropped": dropped,  # operations too contended to time, over all seeds
        }
        for name, s in point["workloads"][workload]["end_to_end"].items():
            bound = bounds[name]
            print(f"{workload} {name}: median {s['median']:.5g} spread {s['spread']:.4f} "
                  f"(bound {bound}, a third is {bound / 3:.3f})")

    out = HERE / "trajectory" / f"{args.label}.json"
    out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
