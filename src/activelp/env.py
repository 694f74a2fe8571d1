"""Discrete-time liquidity-provision environment.

One step = one hour. The agent either holds (action 0) or redeploys a
symmetric range of the chosen half-width around the current tick; the price
then advances close-to-close and the reward is fee - lvr - gas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import amm, indicators
from .amm import PoolSpec, Position
from .data import PriceSeries

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

TRACE_HEADER = "t,price,action,width,L,fee,lvr,gas,reward"
# EpisodeTrace fields in TRACE_HEADER order
TRACE_COLUMNS = ("t", "price", "action", "width", "liquidity", "fee", "lvr", "gas", "reward")
_CSV_BLOCK = 512


@dataclass(frozen=True)
class Features:
    """Per-hour feature columns for a candle series; NaN during warmup."""

    ewma_vol: np.ndarray
    ma24: np.ndarray
    ma168: np.ndarray
    bb_upper: np.ndarray
    bb_mid: np.ndarray
    bb_lower: np.ndarray
    adxr: np.ndarray
    bop: np.ndarray
    dx: np.ndarray


def compute_features(series: PriceSeries, alpha: float = 0.05) -> Features:
    closes = series.closes
    bb_upper, bb_mid, bb_lower = indicators.bollinger(closes)
    dx, adxr, bop = indicators.dm_family(series.opens, series.highs, series.lows, closes)
    return Features(
        ewma_vol=indicators.ewma_volatility(closes, alpha),
        ma24=indicators.moving_average(closes, 24),
        ma168=indicators.moving_average(closes, 168),
        bb_upper=bb_upper, bb_mid=bb_mid, bb_lower=bb_lower,
        adxr=adxr, bop=bop, dx=dx,
    )


class MarketTape:
    """Exogenous state of one candle slice, computed once.

    The price path does not depend on the agent's actions, so ticks,
    features and the raw market entries of every observation are fixed by
    the slice alone, and so is the range a width would open at each hour.
    Environments and stats over the same slice can share one tape; they add
    range tables to its cache and change nothing else.
    """

    def __init__(self, series: PriceSeries):
        self.closes = series.closes
        self.ticks = np.array([amm.tick_index(p) for p in self.closes.tolist()], dtype=np.int64)
        self.features = f = compute_features(series)
        # (len, 11) raw market entries in observation order
        self.market = np.column_stack([
            self.closes, self.ticks, f.ewma_vol, f.ma24, f.ma168, f.bb_upper,
            f.bb_mid, f.bb_lower, f.adxr, f.bop, f.dx,
        ])
        self._ranges: dict[tuple, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.closes)

    def range_table(self, width: int, spacing: int, x0: float) -> np.ndarray:
        """(len, 5) rows of the position that half-width `width` opens at each
        hour: lower tick, upper tick, liquidity, lower price, upper price.

        Each row equals `amm.align_range` followed by `Position.open` at that
        hour's close, bitwise. Built on first use and cached.
        """
        key = (width, spacing, x0)
        table = self._ranges.get(key)
        if table is None:
            table = self._ranges[key] = _range_table(self.closes, self.ticks, width,
                                                     spacing, x0)
        return table


def _range_table(closes, ticks, width, spacing, x0) -> np.ndarray:
    if width < spacing:
        raise ValueError(f"half width {width} is below tick spacing {spacing}")
    # amm.align_range's floor and ceil as integer division
    lower = (ticks - int(width)) // spacing * spacing
    upper = -(-(ticks + int(width)) // spacing) * spacing
    # the scalar price_at_tick keeps every bound bitwise equal to the one
    # Position.open computes
    distinct, where = np.unique(np.concatenate([lower, upper]), return_inverse=True)
    bounds = np.array([amm.price_at_tick(int(i)) for i in distinct])[where]
    lower_price, upper_price = bounds[:len(ticks)], bounds[len(ticks):]
    if np.any(closes >= upper_price) or np.any(closes < lower_price):
        raise ValueError(f"a close sits outside its width-{width} range")
    table = np.empty((len(ticks), 5))
    table[:, 0] = lower
    table[:, 1] = upper
    # amm.liquidity_from_x, elementwise
    table[:, 2] = x0 / (1.0 / np.sqrt(closes) - 1.0 / np.sqrt(upper_price))
    table[:, 3] = lower_price
    table[:, 4] = upper_price
    return table


def _tape(data: PriceSeries | MarketTape) -> MarketTape:
    return data if isinstance(data, MarketTape) else MarketTape(data)


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


def compute_stats(series: PriceSeries | MarketTape, action_set, pool: PoolSpec,
                  x0: float) -> FeatureStats:
    """Observation stats from a (training) slice or its tape.

    Market entries use the post-warmup feature rows; the width entry uses the
    action set; the liquidity entry uses the liquidity each nonzero width
    would hold at each post-warmup close.
    """
    tape = _tape(series)
    start = MIN_HISTORY - 1
    if len(tape.closes) <= start:
        raise ValueError(f"series of {len(tape.closes)} rows is shorter than the {MIN_HISTORY}-row warmup")
    if x0 <= 0:
        raise ValueError(f"x0 must be positive, got {x0}")
    market = tape.market[start:]
    widths = np.array(action_set, dtype=float)
    liqs = np.concatenate([np.zeros(1)] + [
        tape.range_table(width, pool.tick_spacing, x0)[start:, 2]
        for width in action_set if width != 0])

    mean = np.empty(OBS_SIZE)
    std = np.empty(OBS_SIZE)
    mean[[0, 1]] = market[:, :2].mean(axis=0)
    std[[0, 1]] = market[:, :2].std(axis=0)
    mean[2], std[2] = widths.mean(), widths.std()
    mean[3], std[3] = liqs.mean(), liqs.std()
    mean[4:], std[4:] = market[:, 2:].mean(axis=0), market[:, 2:].std(axis=0)
    return FeatureStats(mean=mean, std=std)


@dataclass(frozen=True)
class EnvConfig:
    pool: PoolSpec
    action_set: tuple[int, ...]
    x0: float
    data: PriceSeries | MarketTape  # a slice, or its tape to share
    stats: FeatureStats | None = None
    gas_mode: str = GAS_PER_LEG

    def __post_init__(self):
        if len(self.action_set) < 2 or self.action_set[0] != 0:
            raise ValueError(f"action_set must start with 0 and offer a width, got {self.action_set}")
        for width in self.action_set[1:]:
            if width <= 0 or width % self.pool.tick_spacing != 0:
                raise ValueError(
                    f"width {width} must be a positive multiple of tick spacing {self.pool.tick_spacing}"
                )
        if list(self.action_set) != sorted(set(self.action_set)):
            raise ValueError(f"action_set must be strictly increasing, got {self.action_set}")
        if self.x0 <= 0:
            raise ValueError(f"x0 must be positive, got {self.x0}")
        if self.gas_mode not in (GAS_PER_LEG, GAS_FLAT):
            raise ValueError(f"unknown gas_mode {self.gas_mode!r}")
        if len(self.data) <= MIN_HISTORY + 1:
            raise ValueError(
                f"data slice of {len(self.data)} rows is too short; "
                f"need more than {MIN_HISTORY + 1}"
            )


@dataclass(frozen=True)
class StepInfo:
    fee: float
    lvr: float
    gas: float


@dataclass(frozen=True)
class StepOutcome:
    observation: np.ndarray
    reward: float
    done: bool
    info: StepInfo


class LPEnv:
    """Gym-style environment over one candle slice.

    The episode starts once every feature has warmed up and runs
    ``len(data) - MIN_HISTORY`` steps, one per remaining hour.
    """

    def __init__(self, config: EnvConfig):
        self.config = config
        tape = _tape(config.data)
        self._stats = config.stats or compute_stats(
            tape, config.action_set, config.pool, config.x0)
        self._closes = tape.closes.tolist()
        self._sigma = tape.features.ewma_vol.tolist()
        # the range each action opens at each hour; None for hold
        self._tables = [None] + [tape.range_table(width, config.pool.tick_spacing, config.x0)
                                 for width in config.action_set[1:]]
        # every observation z-scored up front; width and liquidity are raw
        # zeros here, the no-position value, and overwritten while a
        # position is open
        obs = np.zeros((len(self._closes), OBS_SIZE))
        obs[:, MARKET_ENTRIES] = tape.market
        self._obs = self._stats.normalize(obs, out=obs)
        self._start = MIN_HISTORY - 1
        self._last = len(config.data) - 1
        self._t = None
        # open position: its range_table row and the hour it opened at
        self._range = None
        self._opened_at = None
        self._position_obs = None  # its normalized (width, liquidity)

    @property
    def obs_dim(self) -> int:
        return OBS_SIZE

    @property
    def n_actions(self) -> int:
        return len(self.config.action_set)

    @property
    def n_steps(self) -> int:
        return self._last - self._start

    @property
    def done(self) -> bool:
        return self._t is not None and self._t >= self._last

    @property
    def current_price(self) -> float:
        if self._t is None:
            raise RuntimeError("reset() must be called first")
        return self._closes[self._t]

    @property
    def position(self) -> Position | None:
        """The open position, built on request; None while none is open."""
        if self._range is None:
            return None
        lower, upper = int(self._range[0]), int(self._range[1])
        return Position.open(lower, upper, self._closes[self._opened_at], self.config.x0)

    def reset(self) -> np.ndarray:
        self._t = self._start
        self._range = None
        self._opened_at = None
        self._position_obs = None
        return self._observe()

    def step(self, action_index: int) -> StepOutcome:
        if self._t is None:
            raise RuntimeError("reset() must be called before step()")
        if self.done:
            raise RuntimeError("step() called after the episode ended")
        if not 0 <= action_index < self.n_actions:
            raise ValueError(f"action index {action_index} out of range")

        pool = self.config.pool
        t = self._t
        price = self._closes[t]
        gas = 0.0
        if action_index != 0:
            if self.config.gas_mode == GAS_PER_LEG and self._range is not None:
                gas = 2.0 * pool.gas_cost  # withdraw + redeploy
            else:
                gas = pool.gas_cost
            self._open(action_index)

        fee = 0.0
        lvr = 0.0
        if self._range is not None:
            _, _, liquidity, lower_price, upper_price = self._range
            fee = amm.fee_for_move(liquidity, pool.fee_rate, price, self._closes[t + 1],
                                   lower_price, upper_price)
            in_range = lower_price <= price <= upper_price
            lvr = amm.lvr_penalty(liquidity, self._sigma[t], price, in_range)
        reward = fee - lvr - gas

        self._t += 1
        return StepOutcome(
            observation=self._observe(),
            reward=reward,
            done=self.done,
            info=StepInfo(fee=fee, lvr=lvr, gas=gas),
        )

    def _open(self, action_index: int):
        self._range = row = self._tables[action_index][self._t].tolist()
        self._opened_at = self._t
        self._position_obs = (self._stats.normalize_entry(2, (row[1] - row[0]) / 2.0),
                              self._stats.normalize_entry(3, row[2]))

    def _observe(self) -> np.ndarray:
        obs = self._obs[self._t].copy()
        if self._position_obs is not None:
            obs[2], obs[3] = self._position_obs
        return obs


def passive_policy(width: int = 50, period: int = 500):
    """Width stream of the periodic passive strategy: redeploy `width` every
    `period` steps, hold otherwise."""
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")

    def width_at(step: int) -> int:
        return width if step % period == 0 else 0

    return width_at


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
        cols = [np.asarray(getattr(self, name)).astype(dtype, copy=False)
                for name, dtype in zip(TRACE_COLUMNS, dtypes)]
        with open(path, "w", newline="") as fh:
            fh.write(TRACE_HEADER + "\r\n")
            # a block of rows per write: whole-trace strings would cost
            # several times the trace's own memory
            for lo in range(0, self.t.size, _CSV_BLOCK):
                fh.write("".join([
                    f"{t},{p!r},{a},{w},{liq!r},{fee!r},{lvr!r},{gas!r},{r!r}\r\n"
                    for t, p, a, w, liq, fee, lvr, gas, r in zip(
                        *(c[lo:lo + _CSV_BLOCK].tolist() for c in cols))]))


def run_policy(env: LPEnv, action_fn) -> EpisodeTrace:
    """Roll one full episode with action_fn(observation, step) -> action index."""
    n = env.n_steps
    price = np.empty(n)
    action = np.empty(n, dtype=np.int64)
    width = np.empty(n, dtype=np.int64)
    liquidity = np.empty(n)
    fee = np.empty(n)
    lvr = np.empty(n)
    gas = np.empty(n)
    reward = np.empty(n)
    obs = env.reset()
    for step in range(n):
        a = int(action_fn(obs, step))
        price[step] = env.current_price
        out = env.step(a)
        action[step] = a
        rng = env._range
        if rng is None:
            width[step], liquidity[step] = 0, 0.0
        else:
            width[step], liquidity[step] = int(rng[1] - rng[0]) // 2, rng[2]
        info = out.info
        fee[step], lvr[step], gas[step], reward[step] = info.fee, info.lvr, info.gas, out.reward
        obs = out.observation
    return EpisodeTrace(t=np.arange(n), price=price, action=action, width=width,
                        liquidity=liquidity, fee=fee, lvr=lvr, gas=gas, reward=reward)


def replay(config: EnvConfig, actions) -> EpisodeTrace:
    """The trace that stepping an LPEnv over `config` with this sequence of
    action indices gives, bitwise, computed without stepping.

    The price path does not depend on the actions, so the position live at
    each step is the one opened at the last nonzero action; its range comes
    from the tape's range table, and fee, LVR, gas and reward follow the
    operation order of `amm.fee_for_move`, `amm.lvr_penalty` and `LPEnv.step`.
    """
    tape = _tape(config.data)
    pool = config.pool
    start = MIN_HISTORY - 1
    n = len(tape) - MIN_HISTORY
    actions = np.asarray(actions)
    if actions.shape != (n,):
        raise ValueError(f"need one action per step, {n}, got shape {actions.shape}")
    if not np.issubdtype(actions.dtype, np.integer) or np.any(
            (actions < 0) | (actions >= len(config.action_set))):
        raise ValueError(f"action indices must be integers in [0, {len(config.action_set)})")
    actions = actions.astype(np.int64)
    steps = np.arange(n)
    price = tape.closes[start:start + n]

    # step at which the live position opened, -1 before the first one
    opened = np.where(actions != 0, steps, -1)
    np.maximum.accumulate(opened, out=opened)
    live = np.flatnonzero(opened >= 0)
    rows = np.zeros((n, 5))
    open_action = actions[opened[live]]
    for k, width in enumerate(config.action_set[1:], 1):
        at = live[open_action == k]
        if at.size:
            table = tape.range_table(width, pool.tick_spacing, config.x0)
            rows[at] = table[start + opened[at]]

    fee = np.zeros(n)
    lvr = np.zeros(n)
    liq, lower_price, upper_price = rows[live, 2], rows[live, 3], rows[live, 4]
    p = price[live]
    # amm.fee_for_move, elementwise
    factor = pool.fee_rate / (1.0 - pool.fee_rate) * liq
    a = np.minimum(np.maximum(p, lower_price), upper_price)
    b = np.minimum(np.maximum(tape.closes[start + 1 + live], lower_price), upper_price)
    up = factor * (np.sqrt(b) - np.sqrt(a))
    down = factor * (1.0 / np.sqrt(b) - 1.0 / np.sqrt(a)) * b
    fee[live] = np.where(b > a, up, np.where(b < a, down, 0.0))
    # amm.lvr_penalty, elementwise
    sigma = tape.features.ewma_vol[start + live]
    in_range = (lower_price <= p) & (p <= upper_price)
    lvr[live] = np.where(in_range, liq * sigma * sigma * np.sqrt(p) / 4.0, 0.0)

    deploy = actions != 0
    rebalance = np.zeros(n, dtype=bool)
    if config.gas_mode == GAS_PER_LEG:
        rebalance[1:] = opened[:-1] >= 0
    gas = np.where(deploy, np.where(rebalance, 2.0 * pool.gas_cost, pool.gas_cost), 0.0)
    return EpisodeTrace(
        t=steps, price=price.copy(), action=actions,
        width=(rows[:, 1] - rows[:, 0]).astype(np.int64) // 2, liquidity=rows[:, 2].copy(),
        fee=fee, lvr=lvr, gas=gas, reward=fee - lvr - gas,
    )


def run_passive(config: EnvConfig, width: int = 50, period: int = 500) -> EpisodeTrace:
    """Score the periodic passive strategy (`passive_policy`'s schedule:
    deploy `width` every `period` steps, hold otherwise) with `replay`."""
    if width not in config.action_set:
        raise ValueError(f"width {width} not in the environment action set {config.action_set}")
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    steps = np.arange(len(config.data) - MIN_HISTORY)
    return replay(config, np.where(steps % period == 0, config.action_set.index(width), 0))
