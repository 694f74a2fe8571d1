"""Span tracing of activelp from outside the package.

`Tracer.install` wraps every public function and method of the layer
modules and rebinds each wrapper under every name it is looked up by: the
defining module, modules that imported it by name (``harness`` imports
``compute_stats``, ``train`` and ``run_policy``), the package namespace and
the class dict for methods. `Tracer.uninstall` puts the originals back.

A span is (name, start, end, parent span, run id). Spans are appended to
flat arrays while an operation runs and turned into numpy columns when it
ends; nothing is written until the run finishes.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("amm", "indicators", "data", "env", "ppo", "harness", "cli")

# spans whose time counts as the PPO update rather than rollout collection
UPDATE_SPANS = ("ppo.ppo_objective", "ppo.Adam.ascend", "ppo.compute_returns",
                "ppo.advantages", "ppo.RolloutBatch.select")


def _stats_key(args, kwargs, sig):
    bound = sig.bind(*args, **kwargs).arguments
    closes = np.ascontiguousarray(bound["series"].closes)
    return (hashlib.sha1(closes.tobytes()).hexdigest(), tuple(bound["action_set"]),
            repr(bound["pool"]), float(bound["x0"]))


class Tracer:
    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self._names = array("i")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack = [-1]
        self._patches = []
        self.work: dict[str, float] = {}
        self._seen_stats: set = set()
        self.ops: list[dict] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn):
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        hook = self._hook(name, fn)
        names, parents, starts, ends = self._names, self._parents, self._starts, self._ends
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                self.work[name] = self.work.get(name, 0.0) + hook(args, kwargs, result)
            return result

        return traced

    def _hook(self, name, fn):
        """Work units a call did, for the per-layer rates and counters."""
        if name == "env.compute_stats":
            sig = inspect.signature(fn)

            def redundant(args, kwargs, _result):
                key = _stats_key(args, kwargs, sig)
                seen = key in self._seen_stats
                self._seen_stats.add(key)
                return float(seen)
            return redundant
        return {
            "env.run_policy": lambda a, k, r: r.t.size,
            "env.EpisodeTrace.to_csv": lambda a, k, r: a[0].t.size,
            "data.PriceSeries.to_csv": lambda a, k, r: len(a[0]),
            "data.load_candles": lambda a, k, r: len(r),
            "data.load_trades": lambda a, k, r: r[0].size,
            "data.gbm_generate": lambda a, k, r: len(r),
            "ppo.train": lambda a, k, r: r.timesteps,
            "cli.main": lambda a, k, r: float(r != 0),
        }.get(name)

    # -- patching --------------------------------------------------------

    def install(self):
        package = importlib.import_module("activelp")
        modules = {layer: importlib.import_module(f"activelp.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        for alias, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, alias, wrapped)
                elif inspect.isclass(obj):
                    self._install_class(f"{layer}.{attr}", obj)

    def _install_class(self, prefix, cls):
        for attr, member in list(vars(cls).items()):
            if attr == "__init__":
                if dataclasses.is_dataclass(cls):
                    continue  # generated field setters, not program logic
                label = f"{prefix}.init"
            elif attr.startswith("_"):
                continue
            else:
                label = f"{prefix}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                self._patch(cls, attr, type(member)(self._wrap(label, member.__func__)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(label, member))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> bool:
        """Restore every original; True when all of them are back in place."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original for owner, attr, original in self._patches)
        self._patches.clear()
        return restored

    # -- operations ------------------------------------------------------

    def begin_op(self):
        self.work = {}
        self._seen_stats = set()
        self._op_t0 = time.perf_counter()

    def end_op(self) -> dict:
        """Move the operation's spans out of the flat buffers, which only ever
        hold the operation in flight, so span ids are indices within it."""
        op = {
            "wall": time.perf_counter() - self._op_t0,
            "names": np.array(self._names, dtype=np.int32),
            "parents": np.array(self._parents, dtype=np.int64),
            "starts": np.array(self._starts, dtype=np.float64),
            "ends": np.array(self._ends, dtype=np.float64),
            "work": dict(self.work),
        }
        del self._names[:], self._parents[:], self._starts[:], self._ends[:]
        self.ops.append(op)
        return op

    def save(self, path):
        """Write all spans of the run: one row per span, run id = operation."""
        if not self.ops:
            return
        offsets = np.cumsum([0] + [op["names"].size for op in self.ops[:-1]])
        np.savez_compressed(
            path,
            span_names=np.array(sorted(self.name_ids, key=self.name_ids.get)),
            name=np.concatenate([op["names"] for op in self.ops]),
            parent=np.concatenate([np.where(op["parents"] >= 0, op["parents"] + off, -1)
                                   for op, off in zip(self.ops, offsets)]),
            start=np.concatenate([op["starts"] for op in self.ops]),
            end=np.concatenate([op["ends"] for op in self.ops]),
            run_id=np.concatenate([np.full(op["names"].size, i) for i, op in enumerate(self.ops)]),
        )


class SpanTable:
    """Per-name aggregates of one traced operation."""

    def __init__(self, tracer: Tracer, op: dict):
        self.ids = tracer.name_ids
        self.op = op
        names, parents = op["names"], op["parents"]
        dur = op["ends"] - op["starts"]
        child = np.zeros(dur.size)
        inner = parents >= 0
        np.add.at(child, parents[inner], dur[inner])
        n = len(self.ids)
        self.names = names
        self.dur = dur
        self.calls_by = np.bincount(names, minlength=n)
        self.secs_by = np.bincount(names, weights=dur, minlength=n)
        self.self_by = np.bincount(names, weights=dur - child, minlength=n)

    def _id(self, name):
        return self.ids.get(name)

    def calls(self, name) -> int:
        i = self._id(name)
        return 0 if i is None else int(self.calls_by[i])

    def secs(self, name) -> float:
        i = self._id(name)
        return 0.0 if i is None else float(self.secs_by[i])

    def self_secs(self, name) -> float:
        i = self._id(name)
        return 0.0 if i is None else float(self.self_by[i])

    def layer_self(self, layer) -> float:
        return float(sum(self.self_by[i] for name, i in self.ids.items()
                         if name.startswith(layer + ".")))

    def durations(self, name) -> np.ndarray:
        i = self._id(name)
        return self.dur[self.names == i] if i is not None else np.zeros(0)

    def work(self, name) -> float:
        return float(self.op["work"].get(name, 0.0))

    def rate(self, name) -> float:
        s = self.secs(name)
        return self.work(name) / s if s > 0 else 0.0


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(t: SpanTable) -> dict:
    """The per-layer metrics of one traced operation, by name. Counts are
    ints, every other metric a float."""
    m = {}
    for fn in ("tick_index", "liquidity_from_x", "align_range", "Position.open",
               "fee_for_move", "lvr_penalty", "impermanent_loss"):
        m[f"amm.{fn}.calls"] = t.calls(f"amm.{fn}")
    m["amm.self_s"] = t.layer_self("amm")
    m["indicators.self_s"] = t.layer_self("indicators")
    for fn in ("compute_features", "compute_stats", "LPEnv.init"):
        m[f"env.{fn}.calls"] = t.calls(f"env.{fn}")
        m[f"env.{fn}.s"] = t.secs(f"env.{fn}")
    m["env.compute_stats.redundant"] = int(t.work("env.compute_stats"))
    steps = t.durations("env.LPEnv.step")
    m["env.LPEnv.step.calls"] = int(steps.size)
    m["env.LPEnv.step.us_p50"] = float(np.percentile(steps, 50) * 1e6) if steps.size else 0.0
    m["env.LPEnv.step.us_p99"] = float(np.percentile(steps, 99) * 1e6) if steps.size else 0.0
    m["env.LPEnv.step.self_s"] = t.self_secs("env.LPEnv.step")
    m["env.run_policy.steps_per_s"] = t.rate("env.run_policy")
    m["env.EpisodeTrace.to_csv.rows_per_s"] = t.rate("env.EpisodeTrace.to_csv")

    train_s = t.secs("ppo.train")
    update_s = sum(t.secs(name) for name in UPDATE_SPANS)
    m["ppo.train.calls"] = t.calls("ppo.train")
    m["ppo.train.s"] = train_s
    m["ppo.train.steps_per_s"] = t.rate("ppo.train")
    m["ppo.rollout.share"] = _ratio(train_s - update_s, train_s)
    m["ppo.update.share"] = _ratio(update_s, train_s)
    m["ppo.Mlp.forward.calls"] = t.calls("ppo.Mlp.forward")
    m["ppo.forward_per_step"] = _ratio(t.calls("ppo.Mlp.forward"), steps.size)
    for fn in ("ppo_objective", "Adam.ascend"):
        m[f"ppo.{fn}.calls"] = t.calls(f"ppo.{fn}")
        m[f"ppo.{fn}.s"] = t.secs(f"ppo.{fn}")
    m["ppo.compute_returns.s"] = t.secs("ppo.compute_returns")

    for fn in ("train_and_select", "evaluate_on_test", "emit_report"):
        m[f"harness.{fn}.s"] = t.secs(f"harness.{fn}")
        m[f"harness.{fn}.share"] = _ratio(t.secs(f"harness.{fn}"), t.op["wall"])

    m["data.load_candles.rows_per_s"] = t.rate("data.load_candles")
    m["data.load_trades.rows_per_s"] = t.rate("data.load_trades")
    m["data.resample_hourly.s"] = t.secs("data.resample_hourly")
    m["data.PriceSeries.to_csv.rows_per_s"] = t.rate("data.PriceSeries.to_csv")
    m["data.gbm_generate.rows_per_s"] = t.rate("data.gbm_generate")

    m["cli.main.calls"] = t.calls("cli.main")
    m["cli.main.nonzero_exits"] = int(t.work("cli.main"))
    return m

