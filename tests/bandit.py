"""Contextual bandit with one strictly dominant action, for trainer tests.

Observations are uninformative noise; the target action pays 1, the rest 0,
so the optimal policy is context-independent and known by construction. It
speaks the trainer's four-member env protocol (`obs_dim`, `n_actions`,
`reset`, `walk`): `walk` decides steps, one 1-row actor `forward` per step,
records each action and returns the segment scored by `rewards`, which a
subclass may override to change the payoff.
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
        lo = len(self._actions)
        steps = min(n, self.episode_len - lo)
        if steps <= 0:
            raise RuntimeError("walk() after episode end")
        obs = np.empty((steps, self.obs_dim))
        for i in range(steps):
            obs[i] = self._obs
            logits = actor.forward(self._obs[None, None])[0]
            self._actions.append(int(decide(logits, np.arange(i, i + 1))[0]))
            self._obs = self._rng.standard_normal(self.obs_dim)
        actions = np.array(self._actions[lo:], dtype=np.int64)
        return (obs, actions, self.rewards(lo, len(self._actions)),
                len(self._actions) >= self.episode_len)

    def rewards(self, lo, hi):
        return np.array([1.0 if a == self.target else 0.0 for a in self._actions[lo:hi]])
