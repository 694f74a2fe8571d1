"""Rolling-window experiment driver: window slicing, random hyperparameter
search, multi-agent training with best-agent selection, and passive-baseline
comparison with CSV reports."""

from __future__ import annotations

import csv
import json
import logging
import math
import os
from dataclasses import dataclass, field
from functools import partial
from itertools import islice

import numpy as np

from .amm import PoolSpec
from .data import PriceSeries, load_candles, write_csv, _iso
from .env import (GAS_FLAT, GAS_PER_LEG, MIN_HISTORY, EnvConfig, EpisodeTrace,
                  FeatureStats, LPEnv, MarketTape, check_action_set, compute_stats,
                  run_passive, run_policy)
from .ppo import AgentSpec, TrainResult, TrainingDiverged, save_checkpoint, \
    save_training_curve, train_population

log = logging.getLogger(__name__)

SELECT_TRAIN = "train"
SELECT_TEST_LEAKY = "test_leaky"  # selects on test data; for replication only
SUMMARY_COLUMNS = ("window", "end_of_test", "active_reward", "passive_reward")
WINDOW_DIR = "window_{:02d}"  # a window's directory under output_dir/windows


class ConfigError(Exception):
    """Raised for invalid experiment configuration."""


@dataclass(frozen=True)
class Window:
    index: int
    train_start: int
    train_end: int
    test_start: int
    test_end: int


def make_windows(series_len: int, train_len: int, test_len: int, stride: int) -> list[Window]:
    """Rolling train/test windows at offsets 0, stride, 2*stride, ..."""
    if train_len <= MIN_HISTORY + 1:
        raise ConfigError(f"train_len must exceed {MIN_HISTORY + 1}, got {train_len}")
    if test_len < 2 or stride < 1:
        raise ConfigError("test_len must be >= 2 and stride >= 1")
    if series_len < train_len + test_len:
        raise ConfigError(
            f"series of {series_len} rows cannot fit train {train_len} + test {test_len}")
    windows = []
    offset = 0
    while offset + train_len + test_len <= series_len:
        windows.append(Window(
            index=len(windows),
            train_start=offset,
            train_end=offset + train_len,
            test_start=offset + train_len,
            test_end=offset + train_len + test_len,
        ))
        offset += stride
    return windows


# each grid dimension and the AgentSpec field it draws, in draw order
_SEARCHED = {"action_sets": "action_set", "activations": "activation",
             "hidden_layers": "hidden_layers", "learning_rates": "learning_rate",
             "clip_ranges": "clip_range", "entropy_coefs": "entropy_coef", "gammas": "gamma"}


@dataclass(frozen=True)
class SearchGrid:
    """Candidate sets for the random hyperparameter search."""

    action_sets: tuple[tuple[int, ...], ...]
    activations: tuple[str, ...]
    hidden_layers: tuple[tuple[int, ...], ...]
    learning_rates: tuple[float, ...]
    clip_ranges: tuple[float, ...]
    entropy_coefs: tuple[float, ...]
    gammas: tuple[float, ...]

    def __post_init__(self):
        for name in _SEARCHED:
            if not getattr(self, name):
                raise ConfigError(f"search grid dimension {name} is empty")

    @classmethod
    def default(cls) -> "SearchGrid":
        return cls(
            action_sets=((0, 10, 20), (0, 10, 20, 30), (0, 20, 50),
                         (0, 40, 50, 60), (0, 50, 100)),
            activations=("sigmoid", "relu", "tanh"),
            hidden_layers=((4, 2), (6, 2), (6, 4), (8, 2), (8, 4), (10, 2), (6, 6, 6)),
            learning_rates=(1e-5, 5e-5, 1e-4, 1e-3, 5e-3, 1e-2),
            clip_ranges=(0.05, 0.1, 0.2, 0.4),
            entropy_coefs=(1e-5, 1e-4, 1e-3, 1e-2),
            gammas=(0.9, 0.99, 0.999, 0.9999),
        )


def sample_spec(grid: SearchGrid, rng, **overrides) -> AgentSpec:
    """One independent uniform draw per grid dimension."""

    def pick(values):
        return values[int(rng.integers(len(values)))]

    return AgentSpec(**{key: pick(getattr(grid, dim)) for dim, key in _SEARCHED.items()},
                     **overrides)


@dataclass
class AgentOutcome:
    index: int
    spec: AgentSpec
    train_reward: float
    result: TrainResult | None
    error: str | None = None
    stats: FeatureStats | None = None  # observation stats of the spec's action set


@dataclass
class WindowResult:
    window: Window
    test_end_ts: int
    agents: list[AgentOutcome]
    selected: AgentOutcome | None
    active_trace: EpisodeTrace | None
    passive_trace: EpisodeTrace | None
    failed: bool

    @property
    def active_reward(self) -> float:
        return self.active_trace.total_reward

    @property
    def passive_reward(self) -> float:
        return self.passive_trace.total_reward


def _agent_seed(seed: int, window_index: int, agent_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, window_index, agent_index])


def train_and_select(train_tape: MarketTape, window: Window, config: ExperimentConfig
                     ) -> tuple[AgentOutcome | None, list[AgentOutcome]]:
    """Train config.n_agents randomly drawn specs on the window's train slice,
    given as its tape, and pick the one with the highest greedy cumulative
    train reward; each outcome carries its frozen observation stats. The
    agents train as one population, each in its own env, in the calling
    process; the stats and every env share the tape, and the test slice is
    never passed in."""
    # spec sampling gets its own stream, disjoint from the per-agent seeds
    spec_rng = np.random.default_rng(np.random.SeedSequence([config.seed, window.index, 1 << 20]))
    specs = [sample_spec(config.grid, spec_rng, **config.training)
             for _ in range(config.n_agents)]

    stats_cache: dict[tuple, FeatureStats] = {}
    envs = []
    for spec in specs:
        key = spec.action_set
        if key not in stats_cache:
            stats_cache[key] = compute_stats(train_tape, spec.action_set, config.pool, config.x0)
        envs.append(LPEnv(EnvConfig(pool=config.pool, action_set=spec.action_set, x0=config.x0,
                                    data=train_tape, stats=stats_cache[key],
                                    gas_mode=config.gas_mode)))
    seeds = [int(_agent_seed(config.seed, window.index, k).generate_state(1)[0])
             for k in range(config.n_agents)]

    outcomes = []
    for k, (spec, env, result) in enumerate(zip(specs, envs,
                                                train_population(envs, specs, seeds))):
        stats = env.config.stats
        if isinstance(result, TrainingDiverged):
            log.warning("window %d agent %d diverged: %s", window.index, k, result)
            outcomes.append(AgentOutcome(index=k, spec=spec, train_reward=-np.inf,
                                         result=None, error=str(result), stats=stats))
            continue
        # run_policy resets the env, so the greedy pass reuses the training one
        trace = run_policy(env, result.actor)
        outcomes.append(AgentOutcome(index=k, spec=spec, train_reward=trace.total_reward,
                                     result=result, stats=stats))

    trained = [o for o in outcomes if o.result is not None]
    if not trained:
        return None, outcomes
    return max(trained, key=lambda o: (o.train_reward, -o.index)), outcomes


def _test_slice(series: PriceSeries, window: Window) -> PriceSeries:
    # prepend the warmup hours immediately before the test period so the
    # episode covers exactly test_len steps, the first decided at the boundary
    start = window.test_start - MIN_HISTORY
    if start < 0:
        raise ConfigError("test window starts before enough warmup history exists")
    return series.slice(start, window.test_end)


def evaluate_on_test(test_tape: MarketTape, candidates: list[AgentOutcome],
                     config: ExperimentConfig
                     ) -> tuple[AgentOutcome, EpisodeTrace, EpisodeTrace]:
    """One greedy rollout of each trained candidate on the test slice's tape,
    normalized with its own frozen training stats, plus the passive
    baseline there. Returns the candidate with the highest test reward (the
    first of equals), its trace and the passive trace."""
    def rollout(o):
        env = LPEnv(EnvConfig(pool=config.pool, action_set=o.spec.action_set, x0=config.x0,
                              data=test_tape, stats=o.stats, gas_mode=config.gas_mode))
        return o, run_policy(env, o.result.actor)

    # lazy, so only the best trace so far and the current one are held
    selected, active = max(map(rollout, candidates), key=lambda pair: pair[1].total_reward)
    passive = run_passive(EnvConfig(pool=config.pool, action_set=(0, config.passive_width),
                                    x0=config.x0, data=test_tape, gas_mode=config.gas_mode),
                          config.passive_width, config.passive_period)
    return selected, active, passive


def run_window(series: PriceSeries, window: Window, config: ExperimentConfig) -> WindowResult:
    # one tape per slice, shared by every env and stats computation over it
    train_tape = MarketTape(series.slice(window.train_start, window.train_end))
    selected, outcomes = train_and_select(train_tape, window, config)
    test_end_ts = int(series.timestamps[window.test_end - 1])
    if selected is None:
        return WindowResult(window=window, test_end_ts=test_end_ts, agents=outcomes,
                            selected=None, active_trace=None, passive_trace=None,
                            failed=True)

    candidates = [selected]
    if config.selection == SELECT_TEST_LEAKY:
        # replication mode: every trained agent is a candidate and the best
        # on the test slice wins; leaks test data into selection by construction
        candidates = [o for o in outcomes if o.result is not None]
    selected, active, passive = evaluate_on_test(
        MarketTape(_test_slice(series, window)), candidates, config)
    return WindowResult(window=window, test_end_ts=test_end_ts, agents=outcomes,
                        selected=selected, active_trace=active, passive_trace=passive,
                        failed=False)


# ---------------------------------------------------------------------------
# experiment configuration and reporting


@dataclass(frozen=True)
class ExperimentConfig:
    """Every setting of the rolling-window study; checked when built."""

    data: str
    output_dir: str
    pool: PoolSpec = field(default_factory=lambda: PoolSpec(0.0005, 10, 5.0))
    x0: float = 2.0
    train_len: int = 7500
    test_len: int = 1500
    stride: int = 1500
    n_agents: int = 50
    seed: int = 0
    passive_width: int = 50
    passive_period: int = 500
    selection: str = SELECT_TRAIN
    gas_mode: str = GAS_PER_LEG
    n_jobs: int = 1
    grid: SearchGrid = field(default_factory=SearchGrid.default)
    training: dict = field(default_factory=dict)

    def __post_init__(self):
        for key in ("train_len", "test_len", "stride", "n_agents", "seed", "passive_width",
                    "passive_period", "n_jobs"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        x0 = self.x0
        if isinstance(x0, bool) or not isinstance(x0, (int, float)) or not 0 < x0 < math.inf:
            raise ConfigError(f"x0 must be a positive finite number, got {x0!r}")
        if self.n_agents < 1:
            raise ConfigError("n_agents must be >= 1")
        if self.n_jobs < 1:
            raise ConfigError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.selection not in (SELECT_TRAIN, SELECT_TEST_LEAKY):
            raise ConfigError(f"unknown selection mode {self.selection!r}")
        if self.gas_mode not in (GAS_PER_LEG, GAS_FLAT):
            raise ConfigError(f"unknown gas_mode {self.gas_mode!r}")
        spacing = self.pool.tick_spacing
        if self.passive_width <= 0 or self.passive_width % spacing != 0:
            raise ConfigError(f"passive_width must be a positive multiple of tick spacing "
                              f"{spacing}, got {self.passive_width}")
        if self.passive_period < 1:
            raise ConfigError(f"passive_period must be >= 1, got {self.passive_period}")
        if not isinstance(self.training, dict):
            raise ConfigError("training must be a JSON object")
        allowed = set(AgentSpec.__dataclass_fields__) - set(_SEARCHED.values())
        bad = set(self.training) - allowed
        if bad:
            raise ConfigError(
                f"training overrides {sorted(bad)} are not overridable; allowed: {sorted(allowed)}")
        try:
            AgentSpec(**self.training)
        except ValueError as exc:
            raise ConfigError(f"invalid training override: {exc}") from None
        # every value a window may draw, so a bad one fails here and not in a window
        for dim, key in _SEARCHED.items():
            for value in getattr(self.grid, dim):
                try:
                    AgentSpec(**self.training, **{key: value})
                    if key == "action_set":
                        check_action_set(value, spacing)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"invalid grid {dim} value {value!r}: {exc}") from None

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        for key in ("data", "output_dir"):
            if key not in raw:
                raise ConfigError(f"config is missing required key {key!r}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(raw)
        if "pool" in kwargs:
            try:
                kwargs["pool"] = PoolSpec(**kwargs["pool"])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"invalid pool spec: {exc}") from None
        if "grid" in kwargs:
            g = kwargs["grid"]
            if not isinstance(g, dict):
                raise ConfigError("grid must be a JSON object")
            unknown, missing = sorted(set(g) - set(_SEARCHED)), sorted(set(_SEARCHED) - set(g))
            if unknown or missing:
                raise ConfigError(f"grid keys unknown: {unknown}, missing: {missing}")
            try:
                # JSON lists become tuples, one level down too (action sets, layers)
                kwargs["grid"] = SearchGrid(**{
                    dim: tuple(tuple(v) if isinstance(v, list) else v for v in g[dim])
                    for dim in _SEARCHED})
            except TypeError as exc:
                raise ConfigError(f"invalid grid override: {exc}") from None
        return cls(**kwargs)


def _announced(windows):
    # lazy, so a sequential run logs each window's range just before it runs
    for window in windows:
        log.info("window %d: train [%d, %d) test [%d, %d)", window.index,
                 window.train_start, window.train_end, window.test_start, window.test_end)
        yield window


def run_experiment(config: ExperimentConfig) -> list[WindowResult]:
    """Run the full rolling-window study and write all reports. With
    config.n_jobs > 1, up to that many windows run at once in worker
    processes; results are the same at any n_jobs. A window's exception
    ends the run: no window starts after it is seen."""
    series = load_candles(config.data)
    windows = make_windows(len(series), config.train_len, config.test_len, config.stride)
    log.info("running %d windows over %d hours", len(windows), len(series))
    run = partial(run_window, series, config=config)
    workers = min(config.n_jobs, len(windows))
    if workers > 1:
        # imported here: it loads multiprocessing, which only this branch uses
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as executor:
            results = _run_bounded(executor, run, windows, workers)
    else:
        results = list(map(run, _announced(windows)))
    emit_report(results, config.output_dir)
    return results


def _run_bounded(executor, run, windows, limit: int) -> list:
    """`run` of each window on `executor`, in window order, with at most
    `limit` windows submitted at a time: the next is submitted as one
    finishes. A window's exception propagates as soon as it is read, and no
    window is submitted after it. `executor.map` would submit every window
    at once, and a pool's call queue holds windows that cancelling cannot
    reach."""
    from concurrent.futures import FIRST_COMPLETED, wait

    results = [None] * len(windows)
    queue = enumerate(_announced(windows))
    pending = {executor.submit(run, window): i for i, window in islice(queue, limit)}
    while pending:
        finished, _ = wait(pending, return_when=FIRST_COMPLETED)
        for future in finished:
            results[pending.pop(future)] = future.result()
            for i, window in islice(queue, 1):
                pending[executor.submit(run, window)] = i
    return results


def wins_line(totals: list) -> str:
    """The win-count line over (active, passive) total-reward pairs."""
    wins = sum(1 for active, passive in totals if active > passive)
    return f"active wins {wins} of {len(totals)}"


def _write_wins(output_dir, totals: list) -> str:
    line = wins_line(totals)
    with open(os.path.join(output_dir, "wins.txt"), "w") as fh:
        fh.write(line + "\n")
    return line


def emit_report(results: list[WindowResult], output_dir) -> None:
    """Write summary.csv, per-window traces/cumulative series, checkpoints, and
    the `wins_line` of the windows that did not fail; print nothing."""
    if not results:
        raise ConfigError("no window results to report")
    os.makedirs(output_dir, exist_ok=True)

    ok = [r for r in results if not r.failed]
    write_csv(os.path.join(output_dir, "summary.csv"), SUMMARY_COLUMNS,
              [np.array(col) for col in (
                  [r.window.index for r in ok], [_iso(r.test_end_ts) for r in ok],
                  [r.active_reward for r in ok], [r.passive_reward for r in ok])])

    for r in results:
        wdir = os.path.join(output_dir, "windows", WINDOW_DIR.format(r.window.index))
        os.makedirs(wdir, exist_ok=True)
        if r.failed:
            with open(os.path.join(wdir, "failed.txt"), "w") as fh:
                for agent in r.agents:
                    fh.write(f"agent {agent.index}: {agent.error or 'ok'}\n")
            continue
        r.active_trace.to_csv(os.path.join(wdir, "active_trace.csv"))
        r.passive_trace.to_csv(os.path.join(wdir, "passive_trace.csv"))
        a_cum = r.active_trace.cumulative_reward
        write_csv(os.path.join(wdir, "cumulative.csv"), ("t", "active_cum", "passive_cum"),
                  [np.arange(a_cum.size), a_cum, r.passive_trace.cumulative_reward])
        save_checkpoint(os.path.join(wdir, "agent.npz"), r.selected.result)
        save_training_curve(os.path.join(wdir, "training_curve.csv"),
                            r.selected.result.curve)
        # csv.writer, because it quotes the free-text error column as needed
        with open(os.path.join(wdir, "agents.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["agent", "train_reward", "selected", "error"])
            for agent in r.agents:
                writer.writerow([agent.index, repr(agent.train_reward),
                                 int(agent.index == r.selected.index),
                                 agent.error or ""])

    _write_wins(output_dir, [(r.active_reward, r.passive_reward) for r in ok])


def report_summary(output_dir) -> tuple[list[tuple[str, float, float]], str]:
    """Each row of the summary.csv that `emit_report` wrote, as (window
    directory, active reward, passive reward) in window order, and the
    `wins_line` over them, which it rewrites to wins.txt."""
    path = os.path.join(output_dir, "summary.csv")
    if not os.path.isfile(path):
        raise ConfigError(f"no summary.csv under {output_dir}")
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            # a missing column or a short row reads as None
            index, _, active, passive = (row.get(col) for col in SUMMARY_COLUMNS)
            try:
                rows.append((int(index), float(active), float(passive)))
            except (TypeError, ValueError):
                raise ConfigError(f"{path}: line {reader.line_num} has no window index "
                                  f"and both rewards") from None
    if not rows:
        raise ConfigError(f"no window results in {path}")
    line = _write_wins(output_dir, [(a, p) for _, a, p in rows])
    return [(WINDOW_DIR.format(i), a, p) for i, a, p in sorted(rows, key=lambda r: r[0])], line
