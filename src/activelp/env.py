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
_POLICY_BLOCK = 512  # opening steps per hold ladder of _walk, and its largest hold chunk
# rows of the first hold chunk of a range the walk chases: a forward_rows
# call of 16 rows costs about as much as one of 4
_HOLD_CHUNK = 16


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
        self.ticks = amm.tick_indices(self.closes)
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
    ``len(data) - MIN_HISTORY`` steps, one per remaining hour. The env
    holds every observation with no position open, z-scored, and the
    action record of the episode in progress; the config holds the rest,
    and the range each action opens comes from the tape's cached
    `MarketTape.range_table`.
    """

    def __init__(self, config: EnvConfig):
        self.config = config
        tape = config.data
        stats = config.stats or compute_stats(tape, config.action_set, config.pool, config.x0)
        # every observation z-scored up front; width and liquidity are raw
        # zeros here, the no-position value, and overwritten while a
        # position is open
        obs = np.zeros((len(tape), OBS_SIZE))
        obs[:, MARKET_ENTRIES] = tape.market
        self._obs = stats.normalize(obs, out=obs)
        self._position_stats = FeatureStats(stats.mean[2:4], stats.std[2:4])
        self._start = MIN_HISTORY - 1
        self._last = len(tape) - 1
        self._t = None
        # action index taken at each step of the episode in progress
        self._actions = np.zeros(self._last - self._start, dtype=np.int64)

    @property
    def obs_dim(self) -> int:
        return OBS_SIZE

    @property
    def n_actions(self) -> int:
        return len(self.config.action_set)

    @property
    def n_steps(self) -> int:
        return self._last - self._start

    def reset(self) -> np.ndarray:
        self._t = self._start
        self._actions.fill(0)
        return self._observe()

    def walk(self, actor, decide, n: int):
        """Take up to `n` decisions from the current step with `actor`, a
        single-network `ppo.Mlp` with `obs_dim` inputs and `n_actions`
        outputs, stopping at the episode's end. `decide(logits, steps)`
        gives the action of each row of logits (rows, n_actions); row i is
        that of step `steps[i]` of this walk, counted from 0 at its first.
        Returns the observation, action and reward of each step taken and
        whether the episode is over: the scored segment, bitwise what
        deciding each step on a 1-row `forward` of its observation and
        scoring with `rewards` give. The rewards are this env's `rewards`
        of the walked steps.

        `_walk` decides the steps; each step's observation is then one
        gather of the range live at it, rebuilt from the actions."""
        if self._t is None:
            raise RuntimeError("reset() must be called before walk()")
        if self._t >= self._last:
            raise RuntimeError("walk() called after the episode ended")
        if n < 1:
            raise ValueError(f"walk() needs n >= 1 steps, got {n}")
        t0 = self._t - self._start
        _walk(self, actor, decide, n)
        t1 = self._t - self._start
        return (self._observations(t0, t1), self._actions[t0:t1].copy(), self.rewards(t0, t1),
                self._t >= self._last)

    def _opened(self, lo: int) -> int:
        """The step at which the range live at step `lo` of the episode in
        progress opened, the last deploy before it; -1 for none."""
        before = np.flatnonzero(self._actions[:lo])
        return int(before[-1]) if before.size else -1

    def _observations(self, lo: int, hi: int) -> np.ndarray:
        """The observation of each of steps [lo, hi), lo < hi, of the episode
        in progress, from the actions recorded before each: the market row
        and the entries of the range opened at the last deploy before it.
        Step hi - 1's own action is not read, so hi may be `n_steps` + 1,
        the step after the last, which has no action slot."""
        opened = self._opened(lo)
        # the last deploy before each step: the step at which the range live
        # at the step opened, -1 for none
        last = np.maximum.accumulate(
            np.where(self._actions[lo:hi - 1] != 0, np.arange(lo, hi - 1), opened))
        live_from = np.append(opened, last)
        obs = self._obs[self._start + lo:self._start + hi].copy()
        action = np.where(live_from >= 0, self._actions[live_from], 0)
        for k in range(1, self.n_actions):
            at = np.flatnonzero(action == k)
            if at.size:
                obs[at, 2:4] = self._range_entries(k, self._start + live_from[at])
        return obs

    def rewards(self, lo: int, hi: int) -> np.ndarray:
        """Rewards of steps [lo, hi) of the episode in progress; only that
        segment is scored."""
        return self._trace(lo, hi).reward

    def _trace(self, lo: int, hi: int) -> EpisodeTrace:
        taken = 0 if self._t is None else self._t - self._start
        if not 0 <= lo <= hi <= taken:
            raise ValueError(f"steps [{lo}, {hi}) are not within the {taken} taken")
        return _score(self.config, self._actions, lo, hi, self._opened(lo))

    def _range_entries(self, action_index: int, hours) -> np.ndarray:
        """Normalized (width, liquidity), (..., 2), of the ranges `action_index`
        opens at `hours`, an hour or a slice of them."""
        config = self.config
        table = config.data.range_table(config.action_set[action_index],
                                        config.pool.tick_spacing, config.x0)[hours]
        entries = np.stack([(table[..., 1] - table[..., 0]) / 2.0, table[..., 2]], axis=-1)
        return self._position_stats.normalize(entries, out=entries)

    def _observe(self) -> np.ndarray:
        """The observation of the current step, under the range live at it."""
        t = self._t - self._start
        return self._observations(t, t + 1)[0]


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


def run_policy(env: LPEnv, actor) -> EpisodeTrace:
    """Roll one full episode of the greedy policy of `actor`, a single-network
    `ppo.Mlp` with `env.obs_dim` inputs and `env.n_actions` outputs: take at
    every step the action of the largest logit, then score the whole episode
    at once. An open-loop schedule of actions is scored by `replay`.

    The episode is one `_walk`, which keeps nothing per step but the env's
    action record: the logits come from hold ladders and hold chunks, not
    one `forward` per step, and the actions and the trace are bitwise those
    of deciding every step on its own 1-row `forward`. The env is left at
    the end of the episode."""
    n_networks, n_in, _ = actor.weights[0].shape
    n_out = actor.weights[-1].shape[2]
    if (n_networks, n_in, n_out) != (1, env.obs_dim, env.n_actions):
        raise ValueError(
            f"actor must be one network with {env.obs_dim} inputs and {env.n_actions} "
            f"outputs, got {n_networks} with {n_in} inputs and {n_out} outputs")
    env.reset()
    _walk(env, actor, _greedy, env.n_steps)
    trace = env._trace(0, env.n_steps)
    trace.action = trace.action.copy()  # not a view of the env's action record
    return trace


def _greedy(logits, steps):
    """The action of the largest logit of each row."""
    return logits.argmax(axis=-1)


def _walk(env: LPEnv, actor, decide, n: int) -> None:
    """Decide up to `n` steps of `env`'s episode from its current step with
    `actor`, each by `decide` (see `LPEnv.walk`), stopping at the episode's
    end; record the actions in the env and move it past them.

    Prices do not depend on the actions, so a step's observation is fixed by
    the step and the live range, and its action by its logits and the step.
    A range of width k opened at step o lives until its exit, the first
    later step whose decision is nonzero, and a walk is a chain of exits.
    When the walk reaches a range opened at a step that no ladder covers,
    `_ladder` follows every range that could open in the next
    `_POLICY_BLOCK` steps at once, a hold level at a time, so each deploy
    is one lookup in Python lists. A range the ladder left unresolved, a
    range carried in from before the walk and the stretch with no range
    before the first deploy read hold chunks: one `forward_rows` call over
    the next observations with the held range's entries (at first those of
    `_observe`, with no range the no-position ones that `_obs` holds), used
    up to the first deploy; chunks double while the agent holds, from
    `_HOLD_CHUNK` rows up to the block size. `forward_rows` gives each row
    the bits of its own 1-row `forward`. Memory is bounded by the block
    size."""
    start = env._start
    t0 = env._t - start
    end = min(t0 + n, env.n_steps)
    obs = env._obs[start:env._last]  # each step's observation with no position open
    # the entries of the range held from step i; with none, the no-position ones
    held = env._observe()[2:4]
    deploys, taken = [], []
    i = lo = hi = t0  # the ladder's opening steps are [lo, hi)
    while i < end:
        chunk, a = _HOLD_CHUNK, 0
        while i < end:
            x = obs[i:min(i + chunk, end)].copy()
            x[:, 2:4] = held
            acts = decide(actor.forward_rows(x[None])[0], np.arange(i - t0, i - t0 + len(x)))
            first = int((acts != 0).argmax())  # the first deploy, 0 if there is none
            a = int(acts[first])
            if a:
                i += first
                break
            i += len(x)
            chunk = min(2 * chunk, _POLICY_BLOCK)
        # follow the chain of exits from the deploy at step i
        while a:
            deploys.append(i)
            taken.append(a)
            if not lo <= i < hi:
                if i + 1 >= end:
                    i = end
                    break
                lo = i
                hi, exit_at, exit_action, entries = _ladder(env, actor, decide, i, end, t0)
            c = (a - 1) * (hi - lo) + i - lo
            i, a = exit_at[c], exit_action[c]
        if i < end:
            held = entries[c]  # the range the ladder left holding at step i
    if deploys:
        env._actions[deploys] = taken
    env._t = start + end


def _ladder(env: LPEnv, actor, decide, o: int, end: int, t0: int):
    """The exits of the ranges of every width that open at steps [o, hi),
    hi = min(o + `_POLICY_BLOCK`, end - 1), so that every such range has a
    decision before `end`. Candidate c = (k - 1) (hi - o) + o' - o is the
    range that action k opens at step o'.

    Level j decides step o' + j of every candidate that held at every
    earlier level and has that step before `end`: one `forward_rows` call
    and one `decide` call. Levels 1 and 2 always run; the next runs only
    while at most half of a level's rows held. Returns hi, each
    candidate's exit as lists, the step of its first deploy and that
    action, or, with action 0, the first step it has not decided (`end` or
    later if it holds to the walk's end), and the normalized entries of
    each candidate, (candidates, 2)."""
    n_widths = env.n_actions - 1
    hi = min(o + _POLICY_BLOCK, end - 1)
    hour = env._start + o
    entries = np.concatenate([env._range_entries(k, slice(hour, hour + hi - o))
                              for k in range(1, n_widths + 1)])
    obs = env._obs[env._start:env._last]
    exit_at = np.tile(np.arange(o + 1, hi + 1), n_widths)  # each candidate's next step
    exit_action = np.zeros(exit_at.size, dtype=np.int64)
    alive = np.arange(exit_at.size)
    level = 1
    while alive.size:
        steps = exit_at[alive]
        x = obs[steps]
        x[:, 2:4] = entries[alive]
        acts = decide(actor.forward_rows(x[None])[0], steps - t0)
        moved = acts != 0
        exit_action[alive[moved]] = acts[moved]
        alive = alive[~moved]
        exit_at[alive] += 1
        if level >= 2 and 2 * alive.size > steps.size:
            break
        alive = alive[exit_at[alive] < end]
        level += 1
    return hi, exit_at.tolist(), exit_action.tolist(), entries


def replay(config: EnvConfig, actions) -> EpisodeTrace:
    """The trace of this sequence of action indices over `config`, bitwise
    equal to taking them in an `LPEnv` and scoring with `LPEnv.rewards`,
    computed without an environment."""
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
