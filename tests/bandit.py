"""Contextual bandit with one strictly dominant action, for trainer tests.

Observations are uninformative noise; the target action pays 1, the rest 0,
so the optimal policy is context-independent and known by construction. It
speaks the trainer's env protocol: `advance` records each action and
`rewards` scores a range of recorded steps.
"""

import numpy as np


class ContextualBandit:
    def __init__(self, seed, obs_dim=5, n_actions=3, target=2, episode_len=128):
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.target = target
        self.episode_len = episode_len
        self._rng = np.random.default_rng(seed)
        self._actions = []

    def reset(self):
        self._actions = []
        return self._rng.standard_normal(self.obs_dim)

    def advance(self, action):
        if len(self._actions) >= self.episode_len:
            raise RuntimeError("advance() after episode end")
        self._actions.append(action)
        return self._rng.standard_normal(self.obs_dim), len(self._actions) >= self.episode_len

    def rewards(self, lo, hi):
        return np.array([1.0 if a == self.target else 0.0 for a in self._actions[lo:hi]])
