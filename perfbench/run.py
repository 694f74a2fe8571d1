#!/usr/bin/env python3
"""activelp benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload window --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` of that checkout and nowhere else. The run makes its inputs from
the seed, measures set-up in fresh processes, then runs the workload in one
worker process (BLAS pinned to one thread, ``n_jobs`` 1) for the given
number of seconds and checks every operation's outputs.

An operation run under heavy contention (see `speed.MAX_SLOWDOWN`) is
checked but not timed, and a set-up under heavy contention is not counted.
If an untraced run could time fewer than `speed.MIN_KEPT` operations, even
after measuring for twice the time, or fewer than `speed.MIN_KEPT` set-ups,
its timings are unresolved: it exits with code 3 and prints no result.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before it
report every figure with its sample count, the output digests and the
machine. The full record of the run is written to
``.perfbench/runs/<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import MAX_SLOWDOWN, MIN_KEPT

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("window", "replay", "ingest")
SETUP_PROBES = 10  # fresh processes; with the run's own set-up, eleven samples
DEADLINE_S = 170.0

# the workload's own figures; True where higher is better
FIGURES = {
    "window_s": False, "replay_steps_per_s": True, "ingest_trades_per_s": True,
    "generate_rows_per_s": True, "reingest_rows_per_s": True,
}


class BenchError(Exception):
    pass


def tail(values, higher_is_better):
    """The highest percentile with at least ten samples beyond it, or the
    worst sample when there are fewer than twenty."""
    n = len(values)
    ordered = sorted(values, reverse=higher_is_better)
    if n < 20:
        return "worst", ordered[-1]
    p = math.floor(100 * (1 - 10 / n))
    return f"p{p}", ordered[min(n - 1, math.ceil(p / 100 * n) - 1)]


class Bench:
    def __init__(self, args):
        self.args = args
        self.t0 = time.monotonic()
        self.work = OUT / f"work-{args.workload}-s{args.seed}-p{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), ACTIVELP_LOG="warning",
                        PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")

    def worker(self, mode, *extra):
        remaining = DEADLINE_S - (time.monotonic() - self.t0)
        cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", self.args.workload,
               "--seed", str(self.args.seed), *extra]
        try:
            # the worker's stdout goes to our stderr: only the report goes to stdout
            proc = subprocess.run(cmd, cwd=self.work, env=self.env, stdout=sys.stderr,
                                  timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {mode} did not finish within the run's deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"worker {mode} exited {proc.returncode}")

    def setups(self, n):
        samples = []
        for _ in range(n):
            self.worker("setup", "--out", "setup.json")
            samples.append(json.loads((self.work / "setup.json").read_text()))
        return samples

    def run(self) -> dict:
        self.work.mkdir(parents=True)
        self.worker("inputs")
        # Half the probes run before the timed run and half after it: on a
        # shared host set-ups taken within seconds share one speed, and set-ups
        # half a minute apart less often do.
        self.setups(1)  # only fills the bytecode cache
        setups = self.setups(SETUP_PROBES // 2)
        spans = OUT / "spans" / f"{self.args.workload}.npz"  # the latest traced run
        spans.parent.mkdir(exist_ok=True)
        self.worker("run", "--seconds", str(self.args.seconds), "--trace", str(self.args.trace),
                    "--src", str(ROOT / "src"), "--out", "result.json", "--spans", str(spans))
        result = json.loads((self.work / "result.json").read_text())
        setups += self.setups(SETUP_PROBES - SETUP_PROBES // 2)
        # set-ups under heavy contention are dropped as operations are
        result["setup_samples"], result["setup_dropped"] = [], []
        for sample in setups + [result["setup"]]:
            slowdown = sample["wall"] / sample["norm"]
            if slowdown > MAX_SLOWDOWN:
                result["setup_dropped"].append(slowdown)
            else:
                result["setup_samples"].append(sample)
        return result


def recorded_digests(workload, seed):
    """Digests of this seed in the newest committed trajectory point, if any."""
    points = sorted((HERE / "trajectory").glob("*.json"))
    if not points:
        return None, None
    point = json.loads(points[-1].read_text())
    return points[-1].name, point.get("digests", {}).get(workload, {}).get(str(seed))


def report(args, spec, result, loadavg_start):
    """Human-readable lines, then the metrics object of the final line."""
    samples = result["samples"]
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(samples)} seconds={args.seconds}")
    for what, timed, dropped in (("operations", samples, result["dropped"]),
                                 ("set-ups", result["setup_samples"], result["setup_dropped"])):
        print(f"contention {what} timed={len(timed)} dropped={len(dropped)} (kernel slowdown "
              f"over {MAX_SLOWDOWN}: {' '.join(f'{d:.2f}' for d in dropped) or 'none'})")
    figures = [("op_s", False), ("op_ref_s", False), ("slowdown", False)]
    figures += [(name, higher) for name, higher in FIGURES.items() if samples and name in samples[0]]
    for name, higher in figures if samples else []:
        values = [s[name] for s in samples]
        label, worst = tail(values, higher)
        print(f"figure {name} median={statistics.median(values):.6g} {label}={worst:.6g} "
              f"n={len(values)}")
    setups = [s["norm"] for s in result["setup_samples"]]
    walls = [s["wall"] for s in result["setup_samples"]]
    for name, values in (("setup_s", setups), ("setup_wall_s", walls)) if setups else ():
        print(f"figure {name} median={statistics.median(values):.6g} worst={max(values):.6g} "
              f"n={len(values)}")
    print(f"figure peak_rss_mb value={result['peak_rss_mb']:.6g}")
    print(f"figure fail_ratio value={result['failed'] / max(result['attempted'], 1):.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for failure in result["failures"]:
        print(f"failure {failure}")
    point, recorded = recorded_digests(args.workload, args.seed)
    for name, digest in sorted(result["digests"].items()):
        if recorded is None:
            status = "no recorded digest for this seed"
        elif recorded.get(name) == digest:
            status = f"same as {point}"
        else:
            status = f"DIFFERS from {point} (behaviour changed)"
        print(f"digest {name} sha256={digest} {status}")
    machine = dict(result["machine"], loadavg_start=loadavg_start)
    print(f"machine {json.dumps(machine, sort_keys=True)}")

    if args.trace:
        layer = result.get("layer", {})
        print(f"traced ops={result.get('traced_ops', 0)}")
        return {m["name"]: {"value": layer.get(m["name"], 0.0), "unit": m["unit"]}
                for m in spec["per_layer"]}
    values = {"op_ref_s": statistics.median(s["op_ref_s"] for s in samples) if samples else 0.0,
              "setup_s": statistics.median(setups) if setups else 0.0,
              "peak_rss_mb": result["peak_rss_mb"]}
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "activelp" / "__init__.py").is_file():
        print(f"perfbench: no activelp sources under {ROOT / 'src'}; "
              "run from the root of an activelp checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    loadavg_start = os.getloadavg()
    bench = Bench(args)
    try:
        result = bench.run()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    layer = result.get("layer")
    names = {m["name"] for m in spec["per_layer"]}
    if layer and set(layer) != names:
        print(f"perfbench: traced metrics {sorted(set(layer) ^ names)} are not both in the "
              "traced run and in BENCHMARK.json", file=sys.stderr)
        return 1
    for what, timed, dropped in (("operations", result["samples"], result["dropped"]),
                                 ("set-ups", result["setup_samples"], result["setup_dropped"])):
        if not args.trace and result["failed"] == 0 and len(timed) < MIN_KEPT:
            print(f"perfbench: unresolved: {len(timed)} {what} timed and {len(dropped)} dropped "
                  f"as too contended (kernel slowdown over {MAX_SLOWDOWN}); the medians need "
                  f"{MIN_KEPT}", file=sys.stderr)
            return 3
    metrics = report(args, spec, result, loadavg_start)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, metrics=metrics)
    runs = OUT / "runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record))
    correct = result["failed"] == 0 and bool(result["samples"])
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
