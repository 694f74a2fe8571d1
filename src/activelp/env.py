"""Discrete-time liquidity-provision environment.

One step = one hour. The agent either holds (action 0) or redeploys a
symmetric range of the chosen half-width around the current tick; the price
then advances close-to-close and the reward is fee - lvr - gas.
"""

from __future__ import annotations

import csv
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

    @property
    def warmup_complete(self) -> np.ndarray:
        cols = (self.ewma_vol, self.ma24, self.ma168, self.bb_upper,
                self.bb_mid, self.bb_lower, self.adxr, self.bop, self.dx)
        return np.all(np.isfinite(np.column_stack(cols)), axis=1)


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
    the slice alone. Environments and stats over the same slice can share
    one tape; none of them writes to it.
    """

    def __init__(self, series: PriceSeries):
        self.closes = series.closes
        self.ticks = np.array([amm.tick_index(p) for p in self.closes], dtype=np.int64)
        self.features = f = compute_features(series)
        # (len, 11) raw market entries in observation order
        self.market = np.column_stack([
            self.closes, self.ticks, f.ewma_vol, f.ma24, f.ma168, f.bb_upper,
            f.bb_mid, f.bb_lower, f.adxr, f.bop, f.dx,
        ])

    def __len__(self) -> int:
        return len(self.closes)


@dataclass(frozen=True)
class FeatureStats:
    """Per-entry mean/std used to z-score observations; frozen at train time."""

    mean: np.ndarray
    std: np.ndarray

    def normalize(self, vector: np.ndarray) -> np.ndarray:
        """Z-score observation vectors (the last axis); zero where the std
        is not positive or the result is not finite."""
        ok = self.std > 0
        out = np.subtract(vector, self.mean)
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
    tape = series if isinstance(series, MarketTape) else MarketTape(series)
    start = MIN_HISTORY - 1
    if len(tape.closes) <= start:
        raise ValueError(f"series of {len(tape.closes)} rows is shorter than the {MIN_HISTORY}-row warmup")
    if x0 <= 0:
        raise ValueError(f"x0 must be positive, got {x0}")
    market = tape.market[start:]
    closes = tape.closes[start:]
    ticks = tape.ticks[start:]
    spacing = pool.tick_spacing

    widths = np.array(action_set, dtype=float)
    liqs = [np.zeros(1)]
    for width in action_set:
        if width == 0:
            continue
        if width < spacing:
            raise ValueError(f"half width {width} is below tick spacing {spacing}")
        # amm.align_range's upper tick; the scalar price_at_tick keeps every
        # bound bitwise equal to the one Position.open computes
        upper = -(-(ticks + int(width)) // spacing) * spacing
        distinct, where = np.unique(upper, return_inverse=True)
        upper_price = np.array([amm.price_at_tick(int(u)) for u in distinct])[where]
        if np.any(closes >= upper_price):
            raise ValueError(f"a close sits at or above its width-{width} upper bound")
        # amm.liquidity_from_x, elementwise
        liqs.append(x0 / (1.0 / np.sqrt(closes) - 1.0 / np.sqrt(upper_price)))
    liqs = np.concatenate(liqs)

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
        tape = config.data if isinstance(config.data, MarketTape) else MarketTape(config.data)
        self._stats = config.stats or compute_stats(
            tape, config.action_set, config.pool, config.x0)
        self._closes = tape.closes.tolist()
        self._ticks = tape.ticks
        self._sigma = tape.features.ewma_vol.tolist()
        # every observation z-scored up front; width and liquidity are raw
        # zeros here, the no-position value, and overwritten while a
        # position is open
        obs = np.zeros((len(self._closes), OBS_SIZE))
        obs[:, MARKET_ENTRIES] = tape.market
        self._obs = self._stats.normalize(obs)
        self._start = MIN_HISTORY - 1
        self._last = len(config.data) - 1
        self._t = None
        self.position: Position | None = None
        self._range_prices = None  # (lower, upper) price of the open position
        self._position_obs = None  # its normalized (width, liquidity)
        self.episode_step = 0

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

    def reset(self) -> np.ndarray:
        self._t = self._start
        self.position = None
        self._range_prices = None
        self._position_obs = None
        self.episode_step = 0
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
        width = self.config.action_set[action_index]
        gas = 0.0
        if width != 0:
            if self.config.gas_mode == GAS_PER_LEG and self.position is not None:
                gas = 2.0 * pool.gas_cost  # withdraw + redeploy
            else:
                gas = pool.gas_cost
            self._open(width, price)

        fee = 0.0
        lvr = 0.0
        pos = self.position
        if pos is not None:
            lower_price, upper_price = self._range_prices
            fee = amm.fee_for_move(pos.liquidity, pool.fee_rate, price, self._closes[t + 1],
                                   lower_price, upper_price)
            in_range = lower_price <= price <= upper_price
            lvr = amm.lvr_penalty(pos.liquidity, self._sigma[t], price, in_range)
        reward = fee - lvr - gas

        self._t += 1
        self.episode_step += 1
        return StepOutcome(
            observation=self._observe(),
            reward=reward,
            done=self.done,
            info=StepInfo(fee=fee, lvr=lvr, gas=gas),
        )

    def _open(self, width: int, price: float):
        lower, upper = amm.align_range(int(self._ticks[self._t]), width, self.config.pool.tick_spacing)
        pos = Position.open(lower, upper, price, self.config.x0)
        self.position = pos
        self._range_prices = (pos.lower_price, pos.upper_price)
        self._position_obs = (self._stats.normalize_entry(2, (upper - lower) / 2.0),
                              self._stats.normalize_entry(3, pos.liquidity))

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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "price", "action", "width", "L", "fee", "lvr", "gas", "reward"])
            for i in range(self.t.size):
                writer.writerow([
                    int(self.t[i]), repr(float(self.price[i])), int(self.action[i]),
                    int(self.width[i]), repr(float(self.liquidity[i])),
                    repr(float(self.fee[i])), repr(float(self.lvr[i])),
                    repr(float(self.gas[i])), repr(float(self.reward[i])),
                ])


def run_policy(env: LPEnv, action_fn) -> EpisodeTrace:
    """Roll one full episode with action_fn(observation, step) -> action index."""
    obs = env.reset()
    rows = []
    step = 0
    done = False
    while not done:
        action = int(action_fn(obs, step))
        price = env.current_price
        out = env.step(action)
        pos = env.position
        rows.append((
            step, price, action,
            0 if pos is None else (pos.upper_tick - pos.lower_tick) // 2,
            0.0 if pos is None else pos.liquidity,
            out.info.fee, out.info.lvr, out.info.gas, out.reward,
        ))
        obs = out.observation
        done = out.done
        step += 1
    cols = list(zip(*rows))
    return EpisodeTrace(
        t=np.array(cols[0]), price=np.array(cols[1]), action=np.array(cols[2]),
        width=np.array(cols[3]), liquidity=np.array(cols[4]), fee=np.array(cols[5]),
        lvr=np.array(cols[6]), gas=np.array(cols[7]), reward=np.array(cols[8]),
    )


def run_passive(env: LPEnv, width: int = 50, period: int = 500) -> EpisodeTrace:
    """Run the periodic passive strategy through the environment."""
    if width not in env.config.action_set:
        raise ValueError(f"width {width} not in the environment action set {env.config.action_set}")
    deploy = env.config.action_set.index(width)
    stream = passive_policy(width, period)

    def act(_obs, step):
        return deploy if stream(step) else 0

    return run_policy(env, act)
