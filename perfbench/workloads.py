"""The three workloads: inputs, the CLI calls of one operation, output checks.

Sizes are fixed here so that every seed does the same amount of work; the
seed only changes the data.

- window: one reduced rolling window through `activelp experiment`. Almost
  all of it is PPO rollout (`LPEnv.step` + `Mlp.forward`) and update work.
- replay: a long series scored by `activelp baseline` at three (width,
  period) pairs and by `activelp evaluate`: env/amm/indicators work with no
  PPO update; passive holds, greedy redeploys often.
- ingest: `activelp ingest --trades` on a dense trade tape, then
  `activelp generate` (a write path) and `activelp ingest --candles` on its
  output (a read followed by a write): data-layer work only.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re

import numpy as np

import inputs

MIN_HISTORY = 168  # warmup rows before the first step of an episode

TRACE_HEADER = "t,price,action,width,L,fee,lvr,gas,reward"


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_trace(path):
    with open(path) as fh:
        header = fh.readline().strip()
    if header != TRACE_HEADER:
        raise ValueError(f"{path}: unexpected header {header!r}")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: table[:, i] for i, name in enumerate(TRACE_HEADER.split(","))}


def check_trace(path, rows, failures):
    """Row count and the per-row identity reward == fee - lvr - gas."""
    tr = read_trace(path)
    if tr["t"].size != rows:
        failures.append(f"{path}: {tr['t'].size} rows, expected {rows}")
    if not np.array_equal(tr["t"], np.arange(tr["t"].size)):
        failures.append(f"{path}: step column is not 0..n-1")
    bad = tr["reward"] != tr["fee"] - tr["lvr"] - tr["gas"]
    if np.any(bad):
        failures.append(f"{path}: reward != fee - lvr - gas at step {int(np.argmax(bad))}")
    return tr


def check_schedule(path, tr, period, failures):
    """A passive trace deploys exactly at the steps the period schedules."""
    want = tr["t"] % period == 0
    if not np.array_equal(tr["action"] != 0, want):
        failures.append(f"{path}: deployments do not follow the period-{period} schedule")
    return int(want.sum())


def close_to(a, b):
    return abs(a - b) <= 1e-9 * (1.0 + abs(a) + abs(b))


class Workload:
    name = ""

    def make_inputs(self, rng, seed) -> dict:
        """Write the input files into the working directory; return the plan."""
        raise NotImplementedError

    def check(self, plan, calls) -> tuple[list[str], dict]:
        """Failures and output digests of one operation's calls."""
        raise NotImplementedError

    def figures(self, plan, calls) -> dict:
        """The workload's own end-to-end figures for one operation, from
        the calls' speed-scaled times."""
        raise NotImplementedError

    def post_check(self, plan, activelp) -> list[str] | None:
        """Failures of a library-level check made once per run after the
        timed loop, or None when the workload has no such check."""
        return None


class Window(Workload):
    name = "window"
    TRAIN_LEN = 1500
    TEST_LEN = 300
    AGENTS = 2
    TIMESTEPS = 5000
    WIDTH = 50
    PERIOD = 100

    def make_inputs(self, rng, seed):
        inputs.write_candles("candles.csv", *inputs.gbm_candles(rng, self.TRAIN_LEN + self.TEST_LEN))
        # One fixed search draw and a fixed experiment seed: every data seed
        # trains the same two agent configurations, so the work per operation
        # does not depend on which hyperparameters the seed happens to draw.
        # A small learning rate keeps the policies near uniform, so the share
        # of redeploying steps does not swing with the data either.
        config = {
            "data": "candles.csv", "output_dir": "results",
            "train_len": self.TRAIN_LEN, "test_len": self.TEST_LEN, "stride": self.TEST_LEN,
            "n_agents": self.AGENTS, "seed": 0,
            "passive_width": self.WIDTH, "passive_period": self.PERIOD, "n_jobs": 1,
            "training": {"total_timesteps": self.TIMESTEPS},
            "grid": {
                "action_sets": [[0, 10, 20, 30]], "activations": ["tanh"],
                "hidden_layers": [[8, 4]], "learning_rates": [1e-4], "clip_ranges": [0.2],
                "entropy_coefs": [1e-3], "gammas": [0.99],
            },
        }
        with open("experiment.json", "w") as fh:
            json.dump(config, fh, indent=1)
        return {"pre": [], "op": [["experiment", "--config", "experiment.json"]],
                "clean": ["results"]}

    def check(self, plan, calls):
        failures = []
        win = "results/windows/window_00"
        with open("results/summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 1:
            return [f"summary.csv has {len(rows)} rows, expected 1"], {}
        active_reward = float(rows[0]["active_reward"])
        passive_reward = float(rows[0]["passive_reward"])
        active = check_trace(f"{win}/active_trace.csv", self.TEST_LEN, failures)
        passive = check_trace(f"{win}/passive_trace.csv", self.TEST_LEN, failures)
        check_schedule("passive_trace.csv", passive, self.PERIOD, failures)
        with open(f"{win}/cumulative.csv") as fh:
            last = list(csv.DictReader(fh))[-1]
        for label, reported, tr, cum in (
                ("active", active_reward, active, float(last["active_cum"])),
                ("passive", passive_reward, passive, float(last["passive_cum"]))):
            if cum != reported:
                failures.append(f"cumulative.csv {label} total {cum!r} != summary {reported!r}")
            if not close_to(cum, float(np.sum(tr["reward"]))):
                failures.append(f"cumulative.csv {label} total {cum!r} != sum of trace rewards")
        wins = int(active_reward > passive_reward)
        if calls[0].stdout.strip() != f"active wins {wins} of 1":
            failures.append(f"experiment printed {calls[0].stdout.strip()!r}")
        digests = {name: sha256(path) for name, path in (
            ("summary.csv", "results/summary.csv"),
            ("active_trace.csv", f"{win}/active_trace.csv"),
            ("passive_trace.csv", f"{win}/passive_trace.csv"))}
        return failures, digests

    def figures(self, plan, calls):
        return {"window_s": calls[0].ref}


class Replay(Workload):
    name = "replay"
    HOURS = 20000
    TRAIN_HOURS = 2000
    TRAIN_STEPS = 3000
    CHECKPOINT_DATA_SEED = 12345
    CHECKPOINT_ACTIONS = 5  # `activelp train` default action set (0, 10, 20, 30, 40)
    PAIRS = ((50, 500), (50, 72), (20, 24))  # two share a width: one redundant stats pass

    def make_inputs(self, rng, seed):
        inputs.write_candles("series.csv", *inputs.gbm_candles(rng, self.HOURS))
        # The checkpoint is trained on the same data with the same seed for
        # every run seed. A checkpoint trained on each seed's own data
        # redeployed on 7k to 20k of the 20k steps depending on the seed; this
        # one redeploys on 7.0k to 7.6k, so seeds differ in data, not in work.
        inputs.write_candles("train.csv", *inputs.gbm_candles(
            np.random.default_rng(self.CHECKPOINT_DATA_SEED), self.TRAIN_HOURS))
        op = [["baseline", "--candles", "series.csv", "--width", str(w), "--period", str(p),
               "--out-trace", f"baseline_{w}_{p}.csv"] for w, p in self.PAIRS]
        op.append(["evaluate", "--candles", "series.csv", "--checkpoint", "agent.npz",
                   "--out-trace", "greedy.csv"])
        pre = [["train", "--candles", "train.csv", "--out", "agent.npz",
                "--timesteps", str(self.TRAIN_STEPS), "--seed", "0"]]
        clean = [f"baseline_{w}_{p}.csv" for w, p in self.PAIRS] + ["greedy.csv"]
        return {"pre": pre, "op": op, "clean": clean}

    @property
    def steps(self):
        return self.HOURS - MIN_HISTORY

    def check(self, plan, calls):
        failures = []
        digests = {}
        for (w, p), call in zip(self.PAIRS, calls):
            path = f"baseline_{w}_{p}.csv"
            tr = check_trace(path, self.steps, failures)
            deployed = check_schedule(path, tr, p, failures)
            m = re.search(r"over (\d+) steps \((\d+) deployments\)", call.stdout)
            if not m or (int(m[1]), int(m[2])) != (self.steps, deployed):
                failures.append(f"baseline {w}/{p} printed {call.stdout.strip()!r}")
            digests[path] = sha256(path)
        tr = check_trace("greedy.csv", self.steps, failures)
        if np.any((tr["action"] < 0) | (tr["action"] >= self.CHECKPOINT_ACTIONS)):
            failures.append("greedy.csv: action index outside the checkpoint's action set")
        m = re.search(r"cumulative reward (\S+) over (\d+) steps", calls[-1].stdout)
        if not m or int(m[2]) != self.steps or abs(float(m[1]) - float(np.sum(tr["reward"]))) > 1e-3:
            failures.append(f"evaluate printed {calls[-1].stdout.strip()!r}")
        digests["greedy.csv"] = sha256("greedy.csv")
        return failures, digests

    def figures(self, plan, calls):
        return {"replay_steps_per_s": len(calls) * self.steps / sum(c.ref for c in calls)}


class Ingest(Workload):
    name = "ingest"
    TRADE_HOURS = 1500
    TRADES_PER_HOUR = 200
    GEN_HOURS = 30000

    def make_inputs(self, rng, seed):
        ts, prices, volumes = inputs.trades(rng, self.TRADE_HOURS, self.TRADES_PER_HOUR)
        inputs.write_trades("trades.csv", ts, prices, volumes)
        np.savez("trades.npz", ts=ts, prices=prices, volumes=volumes)
        op = [["ingest", "--trades", "trades.csv", "--out", "trade_candles.csv"],
              ["generate", "--out", "generated.csv", "--hours", str(self.GEN_HOURS),
               "--seed", str(seed)],
              ["ingest", "--candles", "generated.csv", "--out", "reingested.csv"]]
        clean = ["trade_candles.csv", "generated.csv", "reingested.csv"]
        return {"pre": [], "op": op, "clean": clean, "trades": int(ts.size)}

    def _oracle(self):
        if not hasattr(self, "_oracle_table"):
            with np.load("trades.npz") as z:
                self._oracle_table = inputs.resample_oracle(z["ts"], z["prices"], z["volumes"])
        return self._oracle_table

    def check(self, plan, calls):
        failures = []
        want = self._oracle()
        with open("trade_candles.csv") as fh:
            header = fh.readline().strip()
        got = np.loadtxt("trade_candles.csv", delimiter=",", skiprows=1, ndmin=2)
        if header != "timestamp,open,high,low,close,volume" or got.shape != want.shape:
            failures.append(f"trade_candles.csv: header {header!r}, shape {got.shape}, "
                            f"expected {want.shape}")
        else:
            if not np.array_equal(got[:, :5], want[:, :5]):
                row = int(np.argmax(np.any(got[:, :5] != want[:, :5], axis=1)))
                failures.append(f"trade_candles.csv: OHLC differs from the oracle at hour {row}")
            if not np.allclose(got[:, 5], want[:, 5], rtol=1e-12, atol=0.0):
                failures.append("trade_candles.csv: volume differs from the oracle")
        with open("generated.csv") as fh:
            lines = fh.read().splitlines()
        if lines[0] != "timestamp,open,high,low,close" or len(lines) != self.GEN_HOURS + 1:
            failures.append(f"generated.csv: header {lines[0]!r}, {len(lines) - 1} rows")
        if sha256("reingested.csv") != sha256("generated.csv"):
            failures.append("reingested.csv differs from the generated.csv it was read from")
        expect = [f"wrote {want.shape[0]} candles to trade_candles.csv",
                  f"wrote {self.GEN_HOURS} candles to generated.csv",
                  f"wrote {self.GEN_HOURS} candles to reingested.csv"]
        for call, line in zip(calls, expect):
            if call.stdout.strip() != line:
                failures.append(f"{call.argv[0]} printed {call.stdout.strip()!r}")
        digests = {p: sha256(p) for p in ("trade_candles.csv", "generated.csv", "reingested.csv")}
        return failures, digests

    def figures(self, plan, calls):
        trades_call, gen_call, reingest_call = calls
        return {
            "ingest_trades_per_s": plan["trades"] / trades_call.ref,
            "generate_rows_per_s": self.GEN_HOURS / gen_call.ref,
            "reingest_rows_per_s": self.GEN_HOURS / reingest_call.ref,
        }

    def post_check(self, plan, activelp):
        """load_candles(to_csv(s)) == s for a series with a volume column."""
        series = activelp.data.load_candles("trade_candles.csv")
        series.to_csv("roundtrip.csv")
        if activelp.data.load_candles("roundtrip.csv") != series:
            return ["load_candles(to_csv(s)) != s for the resampled trade candles"]
        return []


WORKLOADS = {w.name: w for w in (Window(), Replay(), Ingest())}
