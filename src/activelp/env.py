"""Discrete-time liquidity-provision environment.

One step = one hour. The agent either holds (action 0) or redeploys a
symmetric range of the chosen half-width around the current tick; the price
then advances close-to-close and the reward is fee - lvr - gas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import amm, indicators
from .amm import PoolSpec
from .data import PriceSeries, write_csv

# Closes required before the first decision; ma168 is the binding lookback.
MIN_HISTORY = 168

OBS_SIZE = 13
OBS_NAMES = (
    "price", "tick", "width", "liquidity", "ewma_vol", "ma24", "ma168",
    "bb_upper", "bb_mid", "bb_lower", "adxr", "bop", "dx",
)

# Observation entries that depend only on the data slice; the other two,
# width and liquidity, follow the agent's position.
MARKET_ENTRIES = (0, 1, 4, 5, 6, 7, 8, 9, 10, 11, 12)

GAS_PER_LEG = "per_leg"  # gas per on-chain leg: deploy g, rebalance 2g
GAS_FLAT = "flat"        # single gas charge for any nonzero action

TRACE_HEADER = ("t", "price", "action", "width", "L", "fee", "lvr", "gas", "reward")
# EpisodeTrace fields in TRACE_HEADER order
TRACE_COLUMNS = ("t", "price", "action", "width", "liquidity", "fee", "lvr", "gas", "reward")
_SCORE_BLOCK = 2048


@dataclass(frozen=True)
class Features:
    """Per-hour indicator columns of the observation beside EWMA volatility,
    which the tape computes itself; NaN during warmup."""

    ma24: np.ndarray
    ma168: np.ndarray
    bb_upper: np.ndarray
    bb_mid: np.ndarray
    bb_lower: np.ndarray
    adxr: np.ndarray
    bop: np.ndarray
    dx: np.ndarray


def compute_features(series: PriceSeries) -> Features:
    closes = series.closes
    bb_upper, bb_mid, bb_lower = indicators.bollinger(closes)
    dx, adxr, bop = indicators.dm_family(series.opens, series.highs, series.lows, closes)
    return Features(
        ma24=indicators.moving_average(closes, 24),
        ma168=indicators.moving_average(closes, 168),
        bb_upper=bb_upper, bb_mid=bb_mid, bb_lower=bb_lower,
        adxr=adxr, bop=bop, dx=dx,
    )


class MarketTape:
    """Exogenous state of one candle slice, computed once; the env layer's input.

    The price path does not depend on the agent's actions, so ticks,
    features and the raw market entries of every observation are fixed by
    the slice alone, and so is the range a width would open at each hour.
    Environments and stats over the same slice can share one tape; they add
    range tables to its cache and change nothing else.

    Scoring reads only closes, ticks and `sigma` (the EWMA volatility),
    which are built at once. The observation block `market` is built on
    first read, so a tape that is only scored, such as a passive
    baseline's, never computes the other indicators.
    """

    def __init__(self, series: PriceSeries):
        self.closes = series.closes
        self.ticks = np.array([amm.tick_index(p) for p in self.closes.tolist()], dtype=np.int64)
        self.sigma = indicators.ewma_volatility(self.closes)
        self._series = series  # the candles `market` reads; dropped once it is built
        self._ranges: dict[tuple, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.closes)

    @cached_property
    def market(self) -> np.ndarray:
        """(len, 11) raw market entries in observation order; the indicators
        and sigma are held only here once it is built."""
        f = compute_features(self._series)
        del self._series
        block = np.column_stack([
            self.closes, self.ticks, self.sigma, f.ma24, f.ma168, f.bb_upper,
            f.bb_mid, f.bb_lower, f.adxr, f.bop, f.dx,
        ])
        self.sigma = block[:, 2]
        return block

    def range_table(self, width: int, spacing: int, x0: float) -> np.ndarray:
        """(len, 5) rows of the position that half-width `width` opens at each
        hour: lower tick, upper tick, liquidity, lower price, upper price.

        Each row equals the scalar oracles of `tests/amm_oracle.py`,
        `align_range` followed by `Position.open` at that hour's close,
        bitwise. Built on first use and cached.
        """
        key = (width, spacing, x0)
        table = self._ranges.get(key)
        if table is None:
            table = self._ranges[key] = _range_table(self.closes, self.ticks, width,
                                                     spacing, x0)
        return table


def _range_table(closes, ticks, width, spacing, x0) -> np.ndarray:
    lower, upper = amm.align_range(ticks, int(width), spacing)
    # the scalar price_at_tick keeps every bound bitwise equal to the one
    # the oracle's Position.open computes
    distinct, where = np.unique(np.concatenate([lower, upper]), return_inverse=True)
    bounds = np.array([amm.price_at_tick(int(i)) for i in distinct])[where]
    lower_price, upper_price = bounds[:len(ticks)], bounds[len(ticks):]
    if np.any(closes >= upper_price) or np.any(closes < lower_price):
        raise ValueError(f"a close sits outside its width-{width} range")
    table = np.empty((len(ticks), 5))
    table[:, 0] = lower
    table[:, 1] = upper
    table[:, 2] = amm.liquidity_from_x(x0, closes, upper_price)
    table[:, 3] = lower_price
    table[:, 4] = upper_price
    return table


@dataclass(frozen=True)
class FeatureStats:
    """Per-entry mean/std used to z-score observations; frozen at train time."""

    mean: np.ndarray
    std: np.ndarray

    def normalize(self, vector: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Z-score observation vectors (the last axis); zero where the std
        is not positive or the result is not finite. `out=vector` works in
        place."""
        ok = self.std > 0
        out = np.subtract(vector, self.mean, out=out)
        out /= np.where(ok, self.std, 1.0)
        out[..., ~ok] = 0.0
        out[~np.isfinite(out)] = 0.0
        return out

    def normalize_entry(self, index: int, value: float) -> float:
        """normalize() of observation entry `index` alone."""
        std = self.std[index]
        if not std > 0:
            return 0.0
        z = (value - self.mean[index]) / std
        return z if math.isfinite(z) else 0.0


def compute_stats(series: MarketTape, action_set, pool: PoolSpec,
                  x0: float) -> FeatureStats:
    """Observation stats from the tape of a (training) slice.

    Market entries use the post-warmup feature rows; the width entry uses the
    action set; the liquidity entry uses the liquidity each nonzero width
    would hold at each post-warmup close.
    """
    if not isinstance(series, MarketTape):
        raise TypeError(f"data must be a MarketTape, got {type(series).__name__}")
    start = MIN_HISTORY - 1
    if len(series.closes) <= start:
        raise ValueError(f"series of {len(series.closes)} rows is shorter than the {MIN_HISTORY}-row warmup")
    if not 0 < x0 < math.inf:
        raise ValueError(f"x0 must be positive and finite, got {x0}")
    market = series.market[start:]
    widths = np.array(action_set, dtype=float)
    liqs = np.concatenate([np.zeros(1)] + [
        series.range_table(width, pool.tick_spacing, x0)[start:, 2]
        for width in action_set if width != 0])

    mean = np.empty(OBS_SIZE)
    std = np.empty(OBS_SIZE)
    mean[[0, 1]] = market[:, :2].mean(axis=0)
    std[[0, 1]] = market[:, :2].std(axis=0)
    mean[2], std[2] = widths.mean(), widths.std()
    mean[3], std[3] = liqs.mean(), liqs.std()
    mean[4:], std[4:] = market[:, 2:].mean(axis=0), market[:, 2:].std(axis=0)
    return FeatureStats(mean=mean, std=std)


def check_action_set(action_set, tick_spacing: int) -> None:
    """Raise ValueError unless the actions are 0 (hold) and then strictly
    increasing positive multiples of the tick spacing."""
    if len(action_set) < 2 or action_set[0] != 0:
        raise ValueError(f"action_set must start with 0 and offer a width, got {action_set}")
    for width in action_set[1:]:
        if width <= 0 or width % tick_spacing != 0:
            raise ValueError(
                f"width {width} must be a positive multiple of tick spacing {tick_spacing}")
    if list(action_set) != sorted(set(action_set)):
        raise ValueError(f"action_set must be strictly increasing, got {action_set}")


@dataclass(frozen=True)
class EnvConfig:
    pool: PoolSpec
    action_set: tuple[int, ...]
    x0: float
    data: MarketTape
    stats: FeatureStats | None = None
    gas_mode: str = GAS_PER_LEG

    def __post_init__(self):
        if not isinstance(self.data, MarketTape):
            raise TypeError(f"data must be a MarketTape, got {type(self.data).__name__}")
        check_action_set(self.action_set, self.pool.tick_spacing)
        if not 0 < self.x0 < math.inf:
            raise ValueError(f"x0 must be positive and finite, got {self.x0}")
        if self.gas_mode not in (GAS_PER_LEG, GAS_FLAT):
            raise ValueError(f"unknown gas_mode {self.gas_mode!r}")
        if len(self.data) <= MIN_HISTORY + 1:
            raise ValueError(
                f"data slice of {len(self.data)} rows is too short; "
                f"need more than {MIN_HISTORY + 1}"
            )


class LPEnv:
    """Gym-style environment over one candle slice.

    The episode starts once every feature has warmed up and runs
    ``len(data) - MIN_HISTORY`` steps, one per remaining hour.
    """

    def __init__(self, config: EnvConfig):
        self.config = config
        tape = config.data
        self._stats = config.stats or compute_stats(
            tape, config.action_set, config.pool, config.x0)
        # the range each action opens at each hour; None for hold
        self._tables = [None] + [tape.range_table(width, config.pool.tick_spacing, config.x0)
                                 for width in config.action_set[1:]]
        # every observation z-scored up front; width and liquidity are raw
        # zeros here, the no-position value, and overwritten while a
        # position is open
        obs = np.zeros((len(tape), OBS_SIZE))
        obs[:, MARKET_ENTRIES] = tape.market
        self._obs = self._stats.normalize(obs, out=obs)
        self._start = MIN_HISTORY - 1
        self._last = len(tape) - 1
        self._n_actions = len(config.action_set)
        self._t = None
        # action index taken at each step of the episode in progress
        self._actions = np.zeros(self._last - self._start, dtype=np.int64)
        self._position_obs = None  # the open position's normalized (width, liquidity)

    @property
    def obs_dim(self) -> int:
        return OBS_SIZE

    @property
    def n_actions(self) -> int:
        return self._n_actions

    @property
    def n_steps(self) -> int:
        return self._last - self._start

    def reset(self) -> np.ndarray:
        self._t = self._start
        self._actions.fill(0)
        self._position_obs = None
        return self._observe()

    def advance(self, action_index: int) -> tuple[np.ndarray, bool]:
        """Take one decision without scoring it: open the chosen range (or
        hold), record the action and move to the next hour. Returns the next
        observation and whether the episode is over; `rewards` scores the
        recorded steps."""
        if self._t is None:
            raise RuntimeError("reset() must be called before advance()")
        if self._t >= self._last:
            raise RuntimeError("advance() called after the episode ended")
        if not 0 <= action_index < self._n_actions:
            raise ValueError(f"action index {action_index} out of range")
        if action_index != 0:
            self._open(action_index)
        self._actions[self._t - self._start] = action_index
        self._t += 1
        return self._observe(), self._t >= self._last

    def rewards(self, lo: int, hi: int) -> np.ndarray:
        """Rewards of steps [lo, hi) of the episode in progress; only that
        segment is scored."""
        return self._trace(lo, hi).reward

    def _trace(self, lo: int, hi: int) -> EpisodeTrace:
        taken = 0 if self._t is None else self._t - self._start
        if not 0 <= lo <= hi <= taken:
            raise ValueError(f"steps [{lo}, {hi}) are not within the {taken} taken")
        before = np.flatnonzero(self._actions[:lo])
        opened = int(before[-1]) if before.size else -1
        return _score(self.config, self._actions, lo, hi, opened)

    def _open(self, action_index: int):
        row = self._tables[action_index][self._t].tolist()
        self._position_obs = (self._stats.normalize_entry(2, (row[1] - row[0]) / 2.0),
                              self._stats.normalize_entry(3, row[2]))

    def _observe(self) -> np.ndarray:
        obs = self._obs[self._t].copy()
        if self._position_obs is not None:
            obs[2], obs[3] = self._position_obs
        return obs


@dataclass
class EpisodeTrace:
    """Step log of one episode; column arrays all share the step index."""

    t: np.ndarray
    price: np.ndarray
    action: np.ndarray
    width: np.ndarray
    liquidity: np.ndarray
    fee: np.ndarray
    lvr: np.ndarray
    gas: np.ndarray
    reward: np.ndarray

    @property
    def cumulative_reward(self) -> np.ndarray:
        return np.cumsum(self.reward)

    @property
    def total_reward(self) -> float:
        # defined as the final cumulative entry so reports agree bitwise
        return float(self.cumulative_reward[-1])

    def to_csv(self, path):
        dtypes = (np.int64, float, np.int64, np.int64, float, float, float, float, float)
        write_csv(path, TRACE_HEADER, [np.asarray(getattr(self, name)).astype(dtype, copy=False)
                                       for name, dtype in zip(TRACE_COLUMNS, dtypes)])


def run_policy(env: LPEnv, action_fn) -> EpisodeTrace:
    """Roll one full episode with action_fn(observation, step) -> action index:
    decide every step with `advance`, then score the whole episode at once."""
    obs = env.reset()
    for step in range(env.n_steps):
        obs, _ = env.advance(int(action_fn(obs, step)))
    trace = env._trace(0, env.n_steps)
    trace.action = trace.action.copy()  # not a view of the env's action record
    return trace


def replay(config: EnvConfig, actions) -> EpisodeTrace:
    """The trace of this sequence of action indices over `config`, bitwise
    equal to deciding them one by one with `LPEnv.advance` and scoring with
    `LPEnv.rewards`, computed without an environment."""
    n = len(config.data) - MIN_HISTORY
    actions = np.asarray(actions)
    if actions.shape != (n,):
        raise ValueError(f"need one action per step, {n}, got shape {actions.shape}")
    if not np.issubdtype(actions.dtype, np.integer) or np.any(
            (actions < 0) | (actions >= len(config.action_set))):
        raise ValueError(f"action indices must be integers in [0, {len(config.action_set)})")
    return _score(config, actions.astype(np.int64), 0, n, -1)


def _score(config: EnvConfig, actions, lo, hi, opened) -> EpisodeTrace:
    """Trace of episode steps [lo, hi) over `config.data` given every action
    index of the episode up to `hi` and `opened`, the step at which the
    position live at `lo` opened (-1 if none).

    The price path does not depend on the actions, so the position live at
    each step is the one opened at the last nonzero action; its range comes
    from the range table. Fee and LVR come from the `amm` kernel, one call
    each per block, and the reward is fee - lvr - gas; `tests/stepper.py`
    computes the same per step from the scalar oracles in
    `tests/amm_oracle.py` and is the reference. Steps are scored in blocks,
    so the temporaries stay small next to the trace.
    """
    pool, tape = config.pool, config.data
    closes, sigma = tape.closes, tape.sigma
    n = hi - lo
    h = MIN_HISTORY - 1 + lo  # hour of step lo
    trace = EpisodeTrace(
        t=np.arange(lo, hi), price=closes[h:h + n].copy(), action=actions[lo:hi],
        width=np.zeros(n, dtype=np.int64), liquidity=np.zeros(n), fee=np.zeros(n),
        lvr=np.zeros(n), gas=np.zeros(n), reward=np.empty(n))
    for b0 in range(0, n, _SCORE_BLOCK):
        block = slice(b0, min(b0 + _SCORE_BLOCK, n))
        taken = trace.action[block]
        hour = h + b0  # hour of the block's first step

        # step at which the live position opened, -1 before the first one
        live_from = np.where(taken != 0, trace.t[block], opened)
        np.maximum.accumulate(live_from, out=live_from)
        live = np.flatnonzero(live_from >= 0)
        rows = np.zeros((taken.size, 5))
        open_action = actions[live_from[live]]
        for k in range(1, len(config.action_set)):
            at = live[open_action == k]
            if at.size:
                table = tape.range_table(config.action_set[k], pool.tick_spacing, config.x0)
                rows[at] = table[MIN_HISTORY - 1 + live_from[at]]
        trace.width[block] = (rows[:, 1] - rows[:, 0]).astype(np.int64) // 2
        trace.liquidity[block] = rows[:, 2]

        liq, lower_price, upper_price = rows[live, 2], rows[live, 3], rows[live, 4]
        p = trace.price[block][live]
        trace.fee[block][live] = amm.fee_for_move(liq, pool.fee_rate, p, closes[hour + 1 + live],
                                                  lower_price, upper_price)
        trace.lvr[block][live] = amm.lvr_penalty(liq, sigma[hour + live], p,
                                                 lower_price, upper_price)

        # a deployment with a position already open rebalances
        rebalance = np.zeros(taken.size, dtype=bool)
        if config.gas_mode == GAS_PER_LEG:
            rebalance[0] = opened >= 0
            rebalance[1:] = live_from[:-1] >= 0
        trace.gas[block] = np.where(taken != 0, np.where(rebalance, 2.0 * pool.gas_cost,
                                                         pool.gas_cost), 0.0)
        opened = int(live_from[-1])
    np.subtract(trace.fee, trace.lvr, out=trace.reward)
    trace.reward -= trace.gas
    return trace


def run_passive(config: EnvConfig, width: int = 50, period: int = 500) -> EpisodeTrace:
    """Score the periodic passive strategy (deploy `width` every `period`
    steps, hold otherwise) with `replay`."""
    if width not in config.action_set:
        raise ValueError(f"width {width} not in the environment action set {config.action_set}")
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    steps = np.arange(len(config.data) - MIN_HISTORY)
    return replay(config, np.where(steps % period == 0, config.action_set.index(width), 0))
