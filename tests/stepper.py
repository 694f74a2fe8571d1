"""Per-step scoring of an LPEnv episode from the scalar pool oracles.

`Stepper` is the independent reference for `env.replay`, `LPEnv.rewards`
and the PPO rollout. It decides with `LPEnv.advance`, which also gives the
observations, and recomputes everything else on its own: each deployment
opens a position with `amm_oracle.align_range` and
`amm_oracle.Position.open` at that hour's close, and each step is scored
with `amm_oracle.fee_for_move`, `amm_oracle.lvr_penalty` and the gas rule.
It reads only the config's closes and their EWMA volatility, never the
env's range tables, its scoring or the `amm` array kernel; from
`activelp.amm` it takes only the scalar `tick_index`.
"""

from dataclasses import dataclass

import numpy as np

from activelp import indicators
from activelp.amm import tick_index
from activelp.env import GAS_PER_LEG, MIN_HISTORY, EpisodeTrace, LPEnv
import amm_oracle


@dataclass(frozen=True)
class Step:
    observation: np.ndarray
    reward: float
    done: bool
    fee: float
    lvr: float
    gas: float


class Stepper:
    """An LPEnv episode scored one step at a time; `position` is the open
    `amm_oracle.Position` (None before the first deployment) and `price` the close
    of the hour the next decision is taken at."""

    def __init__(self, config):
        self.config = config
        self.env = LPEnv(config)
        self.obs_dim = self.env.obs_dim
        self.n_actions = self.env.n_actions
        self.n_steps = self.env.n_steps
        self._closes = config.data.closes.tolist()
        self._sigma = indicators.ewma_volatility(config.data.closes).tolist()
        self._t = None
        self.position = None

    @property
    def price(self) -> float:
        return self._closes[self._t]

    @property
    def done(self) -> bool:
        return self._t == len(self._closes) - 1

    def reset(self) -> np.ndarray:
        self._t = MIN_HISTORY - 1
        self.position = None
        return self.env.reset()

    def step(self, action_index: int) -> Step:
        observation, done = self.env.advance(action_index)  # checks the action first
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
        return Step(observation=observation, reward=fee - lvr - gas, done=done,
                    fee=fee, lvr=lvr, gas=gas)


def stepped_trace(config, actions) -> EpisodeTrace:
    """The trace of a full episode of `actions`, one `Stepper.step` at a time."""
    s = Stepper(config)
    n = s.n_steps
    cols = {name: np.empty(n) for name in ("price", "liquidity", "fee", "lvr", "gas", "reward")}
    action = np.empty(n, dtype=np.int64)
    width = np.empty(n, dtype=np.int64)
    s.reset()
    for step in range(n):
        a = int(actions[step])
        cols["price"][step] = s.price
        out = s.step(a)
        action[step] = a
        pos = s.position
        width[step] = 0 if pos is None else (pos.upper_tick - pos.lower_tick) // 2
        cols["liquidity"][step] = 0.0 if pos is None else pos.liquidity
        cols["fee"][step], cols["lvr"][step], cols["gas"][step] = out.fee, out.lvr, out.gas
        cols["reward"][step] = out.reward
    return EpisodeTrace(t=np.arange(n), action=action, width=width, **cols)
