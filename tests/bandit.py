"""Contextual bandit with one strictly dominant action, for trainer tests.

Observations are uninformative noise; the target action pays 1, the rest 0,
so the optimal policy is context-independent and known by construction.
"""

import numpy as np

from activelp.env import StepInfo, StepOutcome


class ContextualBandit:
    def __init__(self, seed, obs_dim=5, n_actions=3, target=2, episode_len=128):
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.target = target
        self.episode_len = episode_len
        self._rng = np.random.default_rng(seed)
        self._step = 0

    def reset(self):
        self._step = 0
        return self._rng.standard_normal(self.obs_dim)

    def step(self, action):
        if self._step >= self.episode_len:
            raise RuntimeError("step() after episode end")
        reward = 1.0 if action == self.target else 0.0
        self._step += 1
        return StepOutcome(
            observation=self._rng.standard_normal(self.obs_dim),
            reward=reward,
            done=self._step >= self.episode_len,
            info=StepInfo(fee=reward, lvr=0.0, gas=0.0),
        )
