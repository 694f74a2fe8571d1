"""Per-step observations and scoring of an LP episode from the scalar pool
oracles.

`Stepper` is the independent reference for `LPEnv.walk`, `env.replay`,
`LPEnv.rewards` and the PPO rollout. It builds no environment: it keeps its
own step, checks each action and knows when the episode is done. Each
deployment opens a position with `amm_oracle.align_range` and
`amm_oracle.Position.open` at that hour's close, and each step is scored
with `amm_oracle.fee_for_move`, `amm_oracle.lvr_penalty` and the gas rule.
Each observation is `FeatureStats.normalize` of the tape's market row with
the open position's width and liquidity; a config without stats gets them
from `oracle_stats`, per close from the same oracles. It reads only the
tape's closes, their EWMA volatility and the market block, never the env's
observations, range tables or scoring, nor the `amm` array kernel; from
`activelp.amm` it takes only the scalar tick math.
"""

from dataclasses import dataclass

import numpy as np

from activelp import indicators
from activelp.amm import price_at_tick, tick_index
from activelp.env import (GAS_PER_LEG, MARKET_ENTRIES, MIN_HISTORY, OBS_SIZE, EpisodeTrace,
                          FeatureStats)
from activelp.ppo import Mlp
import amm_oracle


@dataclass(frozen=True)
class Step:
    observation: np.ndarray
    reward: float
    done: bool
    fee: float
    lvr: float
    gas: float


def oracle_stats(config) -> FeatureStats:
    """`env.compute_stats` of `config`'s tape, with each nonzero width's
    liquidity at each post-warmup close from `amm_oracle.align_range` and
    `amm_oracle.liquidity_from_x`."""
    start = MIN_HISTORY - 1
    market = config.data.market[start:]
    closes = config.data.closes[start:].tolist()
    liqs = [0.0]
    for width in config.action_set[1:]:
        for price in closes:
            _, upper = amm_oracle.align_range(tick_index(price), width,
                                              config.pool.tick_spacing)
            liqs.append(amm_oracle.liquidity_from_x(config.x0, price, price_at_tick(upper)))
    widths = np.array(config.action_set, dtype=float)
    liqs = np.array(liqs)
    mean = np.empty(OBS_SIZE)
    std = np.empty(OBS_SIZE)
    mean[[0, 1]] = market[:, :2].mean(axis=0)
    std[[0, 1]] = market[:, :2].std(axis=0)
    mean[2], std[2] = widths.mean(), widths.std()
    mean[3], std[3] = liqs.mean(), liqs.std()
    mean[4:], std[4:] = market[:, 2:].mean(axis=0), market[:, 2:].std(axis=0)
    return FeatureStats(mean=mean, std=std)


class Stepper:
    """An LP episode observed and scored one step at a time; `position` is
    the open `amm_oracle.Position` (None before the first deployment) and
    `price` the close of the hour the next decision is taken at."""

    def __init__(self, config):
        self.config = config
        tape = config.data
        self.obs_dim = OBS_SIZE
        self.n_actions = len(config.action_set)
        self.n_steps = len(tape) - MIN_HISTORY
        self._closes = tape.closes.tolist()
        self._sigma = indicators.ewma_volatility(tape.closes).tolist()
        self._market = tape.market
        self._stats = config.stats or oracle_stats(config)
        self._t = None
        self.position = None

    @property
    def price(self) -> float:
        return self._closes[self._t]

    @property
    def done(self) -> bool:
        return self._t == len(self._closes) - 1

    def observe(self) -> np.ndarray:
        """The observation of the current step, under the open position."""
        raw = np.zeros(OBS_SIZE)
        raw[list(MARKET_ENTRIES)] = self._market[self._t]
        pos = self.position
        if pos is not None:
            raw[2] = (pos.upper_tick - pos.lower_tick) / 2.0
            raw[3] = pos.liquidity
        return self._stats.normalize(raw)

    def reset(self) -> np.ndarray:
        self._t = MIN_HISTORY - 1
        self.position = None
        return self.observe()

    def step(self, action_index: int) -> Step:
        if self._t is None:
            raise RuntimeError("reset() must be called before step()")
        if self.done:
            raise RuntimeError("step() called after the episode ended")
        if not 0 <= action_index < self.n_actions:
            raise ValueError(f"action index {action_index} out of range")
        pool = self.config.pool
        price = self._closes[self._t]
        gas = 0.0
        if action_index != 0:
            if self.config.gas_mode == GAS_PER_LEG and self.position is not None:
                gas = 2.0 * pool.gas_cost  # withdraw + redeploy
            else:
                gas = pool.gas_cost
            width = self.config.action_set[action_index]
            lower, upper = amm_oracle.align_range(tick_index(price), width, pool.tick_spacing)
            self.position = amm_oracle.Position.open(lower, upper, price, self.config.x0)

        fee = 0.0
        lvr = 0.0
        pos = self.position
        if pos is not None:
            lower_price, upper_price = pos.lower_price, pos.upper_price
            fee = amm_oracle.fee_for_move(pos.liquidity, pool.fee_rate, price,
                                          self._closes[self._t + 1], lower_price, upper_price)
            in_range = lower_price <= price <= upper_price
            lvr = amm_oracle.lvr_penalty(pos.liquidity, self._sigma[self._t], price, in_range)
        self._t += 1
        return Step(observation=self.observe(), reward=fee - lvr - gas, done=self.done,
                    fee=fee, lvr=lvr, gas=gas)


def stepped_episode(config, choose):
    """A full episode one `Stepper.step` at a time, `choose(step,
    observation)` giving the action index of each step. Returns its trace
    and its observations, the one after the last step included,
    (n_steps + 1, OBS_SIZE)."""
    s = Stepper(config)
    n = s.n_steps
    cols = {name: np.empty(n) for name in ("price", "liquidity", "fee", "lvr", "gas", "reward")}
    action = np.empty(n, dtype=np.int64)
    width = np.empty(n, dtype=np.int64)
    observations = np.empty((n + 1, OBS_SIZE))
    observations[0] = s.reset()
    for step in range(n):
        a = choose(step, observations[step])
        cols["price"][step] = s.price
        out = s.step(a)
        observations[step + 1] = out.observation
        action[step] = a
        pos = s.position
        width[step] = 0 if pos is None else (pos.upper_tick - pos.lower_tick) // 2
        cols["liquidity"][step] = 0.0 if pos is None else pos.liquidity
        cols["fee"][step], cols["lvr"][step], cols["gas"][step] = out.fee, out.lvr, out.gas
        cols["reward"][step] = out.reward
    return EpisodeTrace(t=np.arange(n), action=action, width=width, **cols), observations


def stepped_trace(config, actions) -> EpisodeTrace:
    """The trace of a full episode of `actions`, one `Stepper.step` at a time."""
    return stepped_episode(config, lambda step, obs: int(actions[step]))[0]


def stepped_observations(config, actions) -> np.ndarray:
    """The observation of each step of a full episode of `actions`, and the
    one after its last step."""
    return stepped_episode(config, lambda step, obs: int(actions[step]))[1]


def scripted(actions):
    """A `decide` for `LPEnv.walk` that gives `actions[i]` at step i of the
    walk, whatever the logits."""
    actions = np.asarray(actions, dtype=np.int64)
    return lambda logits, steps: actions[steps]


def walk_scripted(e, actions):
    """`e.walk` from its current step through `actions`, one per step, with
    a zero actor and the `scripted` decide: (observations, actions,
    rewards, done)."""
    actor = Mlp([np.zeros((1, e.obs_dim, e.n_actions))], [np.zeros((1, 1, e.n_actions))],
                "tanh")
    return e.walk(actor, scripted(actions), len(actions))
