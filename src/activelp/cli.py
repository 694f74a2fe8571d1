"""Command-line entry point: data ingestion, synthetic generation, training,
evaluation, the passive baseline, and the full rolling-window experiment."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import data, env, harness, ppo
from .amm import PoolSpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAINING = 3

log = logging.getLogger("activelp")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _pool_from_args(args) -> PoolSpec:
    return PoolSpec(fee_rate=args.fee_rate, tick_spacing=args.tick_spacing,
                    gas_cost=args.gas_cost)


def _add_pool_args(parser):
    parser.add_argument("--fee-rate", type=float, default=0.0005)
    parser.add_argument("--tick-spacing", type=int, default=10)
    parser.add_argument("--gas-cost", type=float, default=5.0)
    parser.add_argument("--x0", type=float, default=2.0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="activelp",
                     description="Concentrated-liquidity LP simulator and trainer")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate/convert market data to hourly candles")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--trades", help="raw trade CSV (timestamp,price[,volume])")
    src.add_argument("--candles", help="hourly candle CSV to validate")
    p.add_argument("--out", required=True)
    p.add_argument("--fill-gaps", action="store_true")

    p = sub.add_parser("generate", help="write a synthetic GBM candle CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--hours", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start-price", type=float, default=3000.0)
    p.add_argument("--drift", type=float, default=0.0)
    p.add_argument("--vol", type=float, default=0.005)

    p = sub.add_parser("train", help="train one agent on a candle file")
    p.add_argument("--candles", required=True)
    p.add_argument("--out", required=True, help="checkpoint file (npz format)")
    p.add_argument("--curve", help="optional training-curve CSV path")
    p.add_argument("--spec", help="JSON file of agent-spec overrides")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timesteps", type=int)
    _add_pool_args(p)

    p = sub.add_parser("evaluate", help="greedy rollout of a checkpoint")
    p.add_argument("--candles", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out-trace", help="optional step-trace CSV path")
    _add_pool_args(p)

    p = sub.add_parser("baseline", help="run the periodic passive strategy")
    p.add_argument("--candles", required=True)
    p.add_argument("--width", type=int, default=50)
    p.add_argument("--period", type=int, default=500)
    p.add_argument("--out-trace", help="optional step-trace CSV path")
    _add_pool_args(p)

    p = sub.add_parser("experiment", help="full rolling-window study")
    p.add_argument("--config", required=True, help="JSON experiment config")

    p = sub.add_parser("report", help="print each window's totals from a result "
                                      "directory's summary.csv and rewrite its wins.txt")
    p.add_argument("--results", required=True)
    return parser


def _load_spec(path, timesteps) -> ppo.AgentSpec:
    overrides = {}
    if path:
        with open(path) as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise harness.ConfigError(f"agent spec {path} must be a JSON object")
    if timesteps is not None:
        overrides["total_timesteps"] = timesteps
    try:
        return ppo.AgentSpec(**overrides)
    except (TypeError, ValueError) as exc:
        raise harness.ConfigError(f"invalid agent spec: {exc}") from None


def cmd_ingest(args) -> int:
    if args.trades:
        ts, px, vol = data.load_trades(args.trades)
        series = data.resample_hourly(ts, px, vol)
    else:
        series = data.load_candles(args.candles, fill_gaps=args.fill_gaps)
    series.to_csv(args.out)
    print(f"wrote {len(series)} candles to {args.out}")
    return EXIT_OK


def cmd_generate(args) -> int:
    series = data.gbm_generate(args.seed, args.hours, args.start_price,
                               args.drift, args.vol)
    series.to_csv(args.out)
    print(f"wrote {len(series)} candles to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    tape = env.MarketTape(data.load_candles(args.candles))
    spec = _load_spec(args.spec, args.timesteps)
    pool = _pool_from_args(args)
    config = env.EnvConfig(pool=pool, action_set=spec.action_set, x0=args.x0, data=tape)
    train_env = env.LPEnv(config)
    result = ppo.train(lambda: train_env, spec, args.seed)
    ppo.save_checkpoint(args.out, result)
    if args.curve:
        ppo.save_training_curve(args.curve, result.curve)
    # run_policy resets the env, so the greedy pass reuses the training one
    trace = env.run_policy(train_env, ppo.greedy_action_fn(result.actor))
    print(f"trained {result.timesteps} timesteps"
          f"{' (early stop)' if result.stopped_early else ''}; "
          f"greedy cumulative reward {trace.total_reward:.4f}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    tape = env.MarketTape(data.load_candles(args.candles))
    result = ppo.load_checkpoint(args.checkpoint)
    pool = _pool_from_args(args)
    config = env.EnvConfig(pool=pool, action_set=result.spec.action_set,
                           x0=args.x0, data=tape)
    trace = env.run_policy(env.LPEnv(config), ppo.greedy_action_fn(result.actor))
    if args.out_trace:
        trace.to_csv(args.out_trace)
    print(f"cumulative reward {trace.total_reward:.4f} over {trace.t.size} steps")
    return EXIT_OK


def cmd_baseline(args) -> int:
    tape = env.MarketTape(data.load_candles(args.candles))
    pool = _pool_from_args(args)
    config = env.EnvConfig(pool=pool, action_set=(0, args.width), x0=args.x0, data=tape)
    trace = env.run_passive(config, args.width, args.period)
    if args.out_trace:
        trace.to_csv(args.out_trace)
    deployments = int(np.sum(trace.action > 0))
    print(f"cumulative reward {trace.total_reward:.4f} over {trace.t.size} steps "
          f"({deployments} deployments)")
    return EXIT_OK


def cmd_experiment(args) -> int:
    config = harness.ExperimentConfig.from_file(args.config)
    results = harness.run_experiment(config)
    print(harness.wins_line([(r.active_reward, r.passive_reward)
                             for r in results if not r.failed]))
    failed = [r.window.index for r in results if r.failed]
    if failed:
        print(f"failed windows: {failed}", file=sys.stderr)
        return EXIT_TRAINING
    return EXIT_OK


def cmd_report(args) -> int:
    rows, line = harness.report_summary(args.results)
    for name, a, p in rows:
        print(f"{name}: active {a:.4f} passive {p:.4f}")
    print(line)
    return EXIT_OK


COMMANDS = {
    "ingest": cmd_ingest,
    "generate": cmd_generate,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "baseline": cmd_baseline,
    "experiment": cmd_experiment,
    "report": cmd_report,
}


def main(argv=None) -> int:
    logging.basicConfig(
        level=getattr(logging, os.environ.get("ACTIVELP_LOG", "WARNING").upper(),
                      logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return COMMANDS[args.command](args)
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except data.DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ppo.TrainingDiverged as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
