"""Contextual bandit with one strictly dominant action, for trainer tests.

Observations are uninformative noise; the target action pays 1, the rest 0,
so the optimal policy is context-independent and known by construction. It
speaks the trainer's env protocol: `walk` decides steps, one 1-row actor
`forward` per step, and records each action, and `rewards` scores a range
of recorded steps.
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
        self._obs = None

    def reset(self):
        self._actions = []
        self._obs = self._rng.standard_normal(self.obs_dim)
        return self._obs

    def walk(self, actor, decide, n):
        steps = min(n, self.episode_len - len(self._actions))
        if steps <= 0:
            raise RuntimeError("walk() after episode end")
        obs = np.empty((steps, self.obs_dim))
        logits = np.empty((steps, self.n_actions))
        for i in range(steps):
            obs[i] = self._obs
            logits[i] = actor.forward(self._obs[None, None])[0, 0]
            self._actions.append(int(decide(logits[i:i + 1], np.arange(i, i + 1))[0]))
            self._obs = self._rng.standard_normal(self.obs_dim)
        actions = np.array(self._actions[-steps:], dtype=np.int64)
        return obs, logits, actions, len(self._actions) >= self.episode_len

    def rewards(self, lo, hi):
        return np.array([1.0 if a == self.target else 0.0 for a in self._actions[lo:hi]])
