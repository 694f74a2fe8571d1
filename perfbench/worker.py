"""One benchmark process; `run.py` starts it in three modes.

- ``inputs``: write the seeded input files and the plan (numpy only).
- ``setup``: import activelp and prepare the run, report how long it took.
- ``run``: set up, make the untimed inputs that need the program (the
  replay checkpoint), warm up, then repeat the workload's operation until
  the time is up, checking every operation's outputs. With ``--trace 1``
  untraced and traced operations alternate. An operation run under heavy
  contention is checked but not timed; an untraced run goes on, up to
  twice the time, until `MIN_KEPT` operations were timed.

The working directory is the run's scratch directory; results go to the
JSON file named by ``--out``.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

from speed import MAX_SLOWDOWN, MIN_KEPT, SpeedProbe


def setup(plan):
    """Import activelp and parse every CLI call of the operation. Returns the
    CLI module and the set-up time, as measured and scaled to the reference
    machine speed."""
    with SpeedProbe(interval=0.01) as probe:
        mark = probe.mark()
        cli = importlib.import_module("activelp.cli")
        parser = cli.build_parser()
        for argv in plan["pre"] + plan["op"]:
            parser.parse_args(argv)
        wall, ref = probe.since(mark)
    return cli, {"wall": wall, "norm": ref}


@dataclass
class Call:
    argv: list
    rc: int | None
    wall: float  # own time, without the speed probe's
    ref: float  # own time scaled to the reference machine speed
    stdout: str


def call(cli, argv, probe=None) -> Call:
    """One `activelp` command through `cli.main`, its stdout captured."""
    buf = io.StringIO()
    mark = probe.mark() if probe else time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # a crash is a failed operation, not a failed benchmark
        traceback.print_exc()
        rc = None
    if probe:
        wall, ref = probe.since(mark)
    else:
        wall = ref = time.perf_counter() - mark
    return Call(argv, rc, wall, ref, buf.getvalue())


class Runner:
    def __init__(self, workload, plan, cli):
        self.workload = workload
        self.plan = plan
        self.cli = cli
        self.attempted = 0  # CLI calls and once-per-run checks
        self.failed = 0
        self.failures = []  # messages
        self.digests = None
        self.probe = None  # a SpeedProbe while operations are being timed

    def fail(self, message, operations=1):
        """Record a failure that spoils `operations` attempted operations."""
        self.failed += operations
        self.failures.append(message)
        if len(self.failures) <= 20:  # a broken program fails every repeat alike
            print(f"perfbench: FAILED {message}", file=sys.stderr)

    def calls(self, argvs):
        out = []
        for argv in argvs:
            c = call(self.cli, argv, self.probe)
            self.attempted += 1
            if c.rc != 0:
                self.fail(f"activelp {' '.join(argv)} exited {c.rc}")
            out.append(c)
        return out

    def op(self, tracer=None):
        """One operation; returns its calls, or None if anything failed."""
        for path in self.plan["clean"]:  # every check reads files this operation wrote
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif os.path.lexists(path):
                os.remove(path)
        try:
            if tracer is not None:
                tracer.install()
                tracer.begin_op()
            calls = self.calls(self.plan["op"])
        finally:
            if tracer is not None:
                tracer.end_op()
                if not tracer.uninstall():
                    self.fail("tracing left a patched function in place")
        if any(c.rc != 0 for c in calls):
            return None
        try:
            failures, digests = self.workload.check(self.plan, calls)
        except Exception as exc:  # unreadable or missing output
            traceback.print_exc()
            failures, digests = [f"output check raised {exc!r}"], {}
        if not failures and self.digests not in (None, digests):
            failures = [f"output digests changed between repeats: {digests} vs {self.digests}"]
        if failures:
            # the outputs are the calls' joint result: a bad output fails all of them
            self.fail("; ".join(failures), operations=len(calls))
            return None
        self.digests = digests
        return calls


def main_run(args, plan):
    cli, setup_time = setup(plan)
    activelp = importlib.import_module("activelp")
    src = os.path.realpath(args.src)
    if not os.path.realpath(activelp.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported activelp from {activelp.__file__}, not from {src}")

    import numpy as np
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    runner = Runner(workload, plan, cli)
    runner.calls(plan["pre"])
    runner.op()  # warm-up: caches, lazy imports, first-call costs

    samples = []  # per timed operation: {"op_s", "op_ref_s", "slowdown", named figures}
    dropped = []  # slowdowns of the operations too contended to time
    tracer = tracing.Tracer() if args.trace else None
    traced, untraced, layer = [], [], []
    t_end = time.perf_counter() + args.seconds
    t_limit = t_end + (0 if args.trace else args.seconds)
    with SpeedProbe() as runner.probe:
        while True:
            now = time.perf_counter()
            if now >= t_limit or (now >= t_end and len(samples) >= MIN_KEPT):
                break
            calls = runner.op()
            if calls is not None:
                op_s, op_ref_s = sum(c.wall for c in calls), sum(c.ref for c in calls)
                untraced.append(op_ref_s)
                # the operation's mean kernel time / REF_KERNEL_S
                slowdown = op_s / op_ref_s
                if slowdown > MAX_SLOWDOWN:
                    dropped.append(slowdown)
                else:
                    samples.append({"op_s": op_s, "op_ref_s": op_ref_s, "slowdown": slowdown,
                                    **workload.figures(plan, calls)})
            if tracer is not None:
                calls = runner.op(tracer)
                if calls is not None:
                    traced.append(sum(c.ref for c in calls))
                    layer.append(tracing.layer_metrics(tracing.SpanTable(tracer, tracer.ops[-1])))
    runner.probe = None
    try:
        failures = workload.post_check(plan, activelp)
    except Exception as exc:  # e.g. the operation never wrote the file it reads
        traceback.print_exc()
        failures = [f"post-run check raised {exc!r}"]
    if failures is not None:
        runner.attempted += 1
        if failures:
            runner.fail("; ".join(failures))

    result = {
        "setup": setup_time,
        "samples": samples,
        "dropped": dropped,
        "digests": runner.digests or {},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(np),
    }
    if tracer is not None:
        counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in layer]
        if any(c != counts[0] for c in counts):
            runner.fail("per-layer counts differ between traced repeats of one operation")
        metrics = {k: statistics.median(m[k] for m in layer) for k in layer[0]} if layer else {}
        metrics.update(counts[0] if counts else {})  # exact, equal in every repeat
        # both sides are speed-scaled, so host drift does not read as overhead
        metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(untraced) - 1.0
                                     if traced and untraced else 0.0)
        result["layer"] = metrics
        result["traced_ops"] = len(traced)
        tracer.save(args.spans)
    result.update(attempted=runner.attempted, failed=runner.failed,
                  failures=runner.failures[:20])
    with open(args.out, "w") as fh:
        json.dump(result, fh)


def machine(np):
    """What the numbers were measured on."""
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg": os.getloadavg(),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), "unknown")
    except OSError:
        info["cpu"] = "unknown"
    return info


def main():
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("inputs", "setup", "run"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--src", default="")
    p.add_argument("--out", default="")
    p.add_argument("--spans", default="")
    args = p.parse_args()

    if args.mode == "inputs":
        import numpy as np
        from workloads import WORKLOADS
        plan = WORKLOADS[args.workload].make_inputs(np.random.default_rng(args.seed), args.seed)
        with open("plan.json", "w") as fh:
            json.dump(plan, fh)
        return
    with open("plan.json") as fh:
        plan = json.load(fh)
    if args.mode == "setup":
        _, setup_time = setup(plan)
        with open(args.out, "w") as fh:
            json.dump(setup_time, fh)
        return
    main_run(args, plan)


if __name__ == "__main__":
    main()
