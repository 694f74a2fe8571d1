"""Actor-critic PPO for discrete actions, built on small hand-rolled MLPs.

The actor outputs categorical logits, the critic a scalar value. Targets are
Monte-Carlo discounted returns, the policy update maximizes the clipped
surrogate plus an entropy bonus, and optimization uses Adam over minibatches.
Everything is numpy with explicit backprop so gradients can be checked
against finite differences.

Training runs a population at a time. An `Mlp` holds A networks of one shape,
and `train_population` trains the agents that share a network shape and a
schedule in lockstep: each rollout step makes one stacked actor forward,
each rollout one stacked per-row critic forward over all its steps, and
each minibatch one stacked objective and one Adam step, for the whole
group. Every agent keeps its own random stream and call order and computes
bitwise what it would compute alone; `train` is the population of one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, asdict
from itertools import accumulate

import numpy as np

from .data import write_csv

# each activation, and its derivative from the pre-activation z and output a
_ACTIVATIONS = {
    "sigmoid": (lambda z: 1.0 / (1.0 + np.exp(-z)), lambda z, a: a * (1.0 - a)),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z, a: (z > 0).astype(float)),
    "tanh": (np.tanh, lambda z, a: 1.0 - a * a),
}
ACTIVATIONS = tuple(_ACTIVATIONS)


class TrainingDiverged(RuntimeError):
    """Raised when the optimization produces non-finite losses or parameters."""


# ---------------------------------------------------------------------------
# networks


def _fortran(w: np.ndarray) -> bool:
    return w.flags.f_contiguous and not w.flags.c_contiguous


class Mlp:
    """A population of A fully connected networks of one shape: affine +
    activation per hidden layer, linear output. A single network is A = 1.

    All parameters live in one (A, P) buffer `theta`, a row per network;
    `weights[i]` is an (A, n_in, n_out) and `biases[i]` an (A, 1, n_out) view
    on it. Each weight keeps the memory order it was given: BLAS sums F- and
    C-ordered operands in different orders, so a change of layout would
    change the last bits of every product. Inputs and outputs put the
    population first: (A, n, features).
    """

    def __init__(self, weights, biases, activation):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        weights = [np.asarray(w) for w in weights]
        biases = [np.asarray(b) for b in biases]
        # (shape, Fortran-ordered) per weight
        layout = [(w.shape[1:], _fortran(w[0])) for w in weights]
        size = sum(w[0].size + b[0].size for w, b in zip(weights, biases))
        self._bind(np.empty((weights[0].shape[0], size)), layout, activation)
        for view, value in zip(self.weights + self.biases, weights + biases):
            view[...] = value

    def _bind(self, theta, layout, activation):
        self.theta = theta
        self._layout = layout
        self.activation = activation
        views = self.views(theta)
        self.weights = views[0::2]
        self.biases = views[1::2]
        self._hidden = list(zip(self.weights[:-1], self.biases[:-1]))
        self._act, self._act_grad = _ACTIVATIONS[activation]

    def __reduce__(self):
        # rebuilt through __init__ so the unpickled views share one buffer
        return Mlp, (self.weights, self.biases, self.activation)

    @classmethod
    def build(cls, sizes, activation, rng, out_gain: float = 1.0) -> "Mlp":
        """One network with orthogonal-style init; out_gain scales the output
        layer (0.01 for a near-uniform initial policy)."""
        weights, biases = [], []
        for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            a = rng.standard_normal((n_in, n_out))
            q, r = np.linalg.qr(a if n_in >= n_out else a.T)
            sign = np.where(np.diag(r) < 0, -1.0, 1.0)
            q = q * sign if n_in >= n_out else (q * sign).T
            gain = out_gain if i == len(sizes) - 2 else 1.0
            weights.append((gain * q)[None])
            biases.append(np.zeros((1, 1, n_out)))
        return cls(weights, biases, activation)

    @classmethod
    def stack(cls, nets) -> "Mlp":
        """The networks of `nets`, all of one shape, layout and activation, as
        one population in a buffer of its own."""
        net = cls.__new__(cls)
        net._bind(np.concatenate([n.theta for n in nets]), nets[0]._layout, nets[0].activation)
        return net

    def take(self, rows) -> "Mlp":
        """The networks at `rows`, in a buffer of their own."""
        net = type(self).__new__(type(self))
        net._bind(self.theta[rows], self._layout, self.activation)
        return net

    def views(self, buf: np.ndarray) -> list:
        """Per-tensor views of an array laid out like `theta`: each layer's
        weight, then its bias."""
        rows = buf.shape[0]
        out = []
        offset = 0
        for (n_in, n_out), fortran in self._layout:
            chunk = buf[:, offset:offset + n_in * n_out]
            out.append(chunk.reshape(rows, n_out, n_in).transpose(0, 2, 1) if fortran
                       else chunk.reshape(rows, n_in, n_out))
            offset += n_in * n_out
            out.append(buf[:, offset:offset + n_out].reshape(rows, 1, n_out))
            offset += n_out
        return out

    def _check_input(self, x: np.ndarray):
        size, n_in = self.weights[0].shape[:2]
        if x.ndim != 3 or x.shape[0] != size or x.shape[2] != n_in:
            raise ValueError(f"expected input of shape ({size}, N, {n_in}), got {x.shape}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        """`forward_cached`'s output without the backward cache; the rollout,
        the training curve and the greedy passes run it."""
        self._check_input(x)
        h = x
        for w, b in self._hidden:
            h = self._act(h @ w + b)
        return h @ self.weights[-1] + self.biases[-1]

    def forward_rows(self, x: np.ndarray) -> np.ndarray:
        """`forward` of each row of `x` on its own, in one call: a stack of
        1-row products, each the BLAS call of a 1-row `forward`, so every row
        has the bits of `forward(x[:, i:i + 1])`. A batched `forward` of the
        same rows sums in another order."""
        self._check_input(x)
        h = x[:, :, None, :]
        for w, b in self._hidden:
            h = self._act(h @ w[:, None] + b[:, None])
        return (h @ self.weights[-1][:, None] + self.biases[-1][:, None])[:, :, 0]

    def forward_cached(self, x: np.ndarray):
        self._check_input(x)
        pre, act = [], [x]
        h = x
        for w, b in self._hidden:
            z = h @ w + b
            h = self._act(z)
            pre.append(z)
            act.append(h)
        h = h @ self.weights[-1] + self.biases[-1]
        pre.append(h)
        act.append(h)
        return h, (pre, act)

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        """Gradient of sum(grad_out * output) w.r.t. each network's
        parameters, laid out like `theta` (see `views`)."""
        pre, act = cache
        rows = self.theta.shape[0]
        last = len(self.weights) - 1
        pieces = [None] * (2 * last + 2)
        delta = grad_out
        for i in range(last, -1, -1):
            if i != last:
                delta = delta * self._act_grad(pre[i], act[i + 1])
            grad_w = act[i].transpose(0, 2, 1) @ delta
            # each row of theta holds a Fortran-ordered weight transposed
            pieces[2 * i] = (grad_w.transpose(0, 2, 1) if self._layout[i][1]
                             else grad_w).reshape(rows, -1)
            pieces[2 * i + 1] = delta.sum(axis=1)
            if i > 0:
                delta = delta @ self.weights[i].transpose(0, 2, 1)
        return np.concatenate(pieces, axis=1)


# ---------------------------------------------------------------------------
# categorical policy head


def _softmax(logits):
    """(probs, log-probs) over the last axis, stabilized by max subtraction."""
    z = logits - logits.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    total = ez.sum(axis=-1, keepdims=True)
    return ez / total, z - np.log(total)


@dataclass
class Categorical:
    """Softmax distribution over the last axis of logits."""

    logits: np.ndarray

    def __post_init__(self):
        self.probs, self.logps = _softmax(self.logits)

    def log_prob(self, actions: np.ndarray) -> np.ndarray:
        return self.logps.reshape(-1)[_flat_index(actions, self.logps.shape[-1])]

    def entropy(self) -> np.ndarray:
        return -(self.probs * self.logps).sum(axis=-1)


def _flat_index(actions: np.ndarray, m: int) -> np.ndarray:
    """Where each row's entry at `actions` sits in a flattened (..., m) array."""
    return np.arange(0, actions.size * m, m).reshape(actions.shape) + actions


def _draw(probs: np.ndarray, u) -> list[int]:
    """Inverse-CDF draws, one per row of `probs` (A, m) with its uniform in
    `u`: the number of cumulative sums at or below u, clamped to the last
    category. Each row's sums accumulate Python floats in order, as
    `np.cumsum` adds along a row. The rows are drawn in Python because a
    group holds few agents: at one or two rows, the four numpy calls of a
    vectorized draw cost several times as much."""
    out = []
    for row, x in zip(probs.tolist(), u):
        for k, cdf in enumerate(accumulate(row)):
            if not x >= cdf:
                break
        out.append(k)
    return out


# ---------------------------------------------------------------------------
# returns and advantages


def compute_returns(rewards, gamma: float, dones=None) -> np.ndarray:
    """Discounted reward-to-go G_t = r_t + gamma*G_{t+1}, restarting at episode
    ends; the tail bootstraps zero."""
    rewards = np.asarray(rewards, dtype=float)
    if dones is None:
        dones = np.zeros(rewards.size, dtype=bool)
    out = np.empty_like(rewards)
    acc = 0.0
    for t in range(rewards.size - 1, -1, -1):
        if dones[t]:
            acc = 0.0
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def advantages(returns, values) -> np.ndarray:
    """Monte-Carlo advantage G - V, batch-normalized to zero mean, unit std."""
    returns = np.asarray(returns, dtype=float)
    values = np.asarray(values, dtype=float)
    if returns.shape != values.shape:
        raise ValueError("returns/values shape mismatch")
    adv = returns - values
    adv = adv - adv.mean()
    std = adv.std()
    return adv / std if std > 1e-12 else adv


# ---------------------------------------------------------------------------
# objective


@dataclass
class RolloutBatch:
    """Steps of a population's rollouts: every field is (A, n, ...), a row of
    steps per agent."""

    observations: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    rewards: np.ndarray
    values: np.ndarray
    dones: np.ndarray
    returns: np.ndarray = field(default=None)
    advantages: np.ndarray = field(default=None)

    def __len__(self):
        return self.actions.shape[1]

    def select(self, idx) -> "RolloutBatch":
        """Each agent's steps at its row of `idx`, (A, k)."""
        rows = np.arange(idx.shape[0])[:, None]
        # the (A, n) fields are C-contiguous: take from them flattened
        flat = idx + rows * self.actions.shape[1]
        return RolloutBatch(self.observations[rows, idx], *(
            a.take(flat) for a in (self.actions, self.log_probs, self.rewards, self.values,
                                   self.dones, self.returns, self.advantages)))

    def rows(self, rows) -> "RolloutBatch":
        """The steps of the agents at `rows`."""
        return RolloutBatch(
            self.observations[rows], self.actions[rows], self.log_probs[rows],
            self.rewards[rows], self.values[rows], self.dones[rows],
            self.returns[rows], self.advantages[rows])


def _column(coef) -> np.ndarray:
    """A per-agent coefficient, (A,), or one for all, broadcast over (A, n)."""
    return np.asarray(coef)[..., None]


def _surrogate(batch: RolloutBatch, logits, values, clip_range, value_coef, entropy_coef):
    """Per agent J and its terms from the networks' outputs on the batch,
    and the intermediates its gradient reuses."""
    adv = batch.advantages
    dist = Categorical(logits)
    ratio = np.exp(dist.log_prob(batch.actions) - batch.log_probs)
    clip = _column(clip_range)
    clipped = np.clip(ratio, 1.0 - clip, 1.0 + clip)
    surr1 = ratio * adv
    surr2 = clipped * adv
    ent = dist.entropy()
    err = values[..., 0] - batch.returns
    # sum / n is np.mean's arithmetic without its per-call overhead
    n = adv.shape[1]
    terms = {"policy": np.minimum(surr1, surr2).sum(axis=1) / n,
             "value_loss": (err * err).sum(axis=1) / n,
             "entropy": ent.sum(axis=1) / n}
    objective = (terms["policy"] - value_coef * terms["value_loss"]
                 + entropy_coef * terms["entropy"])
    return objective, terms, (dist, ratio, surr1, surr2, ent, err)


def ppo_objective(batch: RolloutBatch, actor: Mlp, critic: Mlp,
                  clip_range, value_coef, entropy_coef):
    """Clipped-surrogate objective and its gradients, for each agent of a
    population at once.

    J = E[min(r*A, clip(r, 1-eps, 1+eps)*A)] - c1*MSE(V, G) + c2*E[H], with r
    the probability ratio against the collection-time log-probs. The
    coefficients are per agent, (A,), or one value for all. Returns
    (J, terms, actor_grads, critic_grads): J and each term are (A,), and the
    gradients point in the ascent direction of J and are laid out like each
    network's `theta`.
    """
    n = len(batch)
    if n == 0:
        raise ValueError("empty batch")
    logits, actor_cache = actor.forward_cached(batch.observations)
    values, critic_cache = critic.forward_cached(batch.observations)
    objective, terms, (dist, ratio, surr1, surr2, ent, err) = _surrogate(
        batch, logits, values, clip_range, value_coef, entropy_coef)

    # d policy_term / d log-prob of the taken action; the clipped branch is
    # flat in ratio whenever it is strictly selected.
    active = surr1 <= surr2
    coeff = np.where(active, batch.advantages * ratio, 0.0) / n

    # one_hot - probs, with 1.0 - p as -p + 1.0
    d_logits = -dist.probs
    d_logits.reshape(-1)[_flat_index(batch.actions, d_logits.shape[-1])] += 1.0
    d_logits *= coeff[..., None]
    # entropy bonus: dH/dz_j = -p_j * (log p_j + H)
    d_logits += (_column(entropy_coef) / n)[..., None] * (
        -dist.probs * (dist.logps + ent[..., None]))
    actor_grads = actor.backward(actor_cache, d_logits)

    d_v = (-_column(value_coef) * 2.0 / n) * err
    critic_grads = critic.backward(critic_cache, d_v[..., None])
    return objective, terms, actor_grads, critic_grads


class Adam:
    """Adaptive moment estimation over an (A, P) parameter buffer, a row per
    network, updated in place as gradient ascent on the objective; `lr` is
    one rate per row, or one for all."""

    def __init__(self, theta, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.theta = theta
        self.lr = _column(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        self.t = 0

    def ascend(self, grad):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        # in place, with the arithmetic of m = beta1 * m + (1 - beta1) * grad
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grad
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * (grad * grad)
        self.theta += self.lr * (self.m / b1c) / (np.sqrt(self.v / b2c) + self.eps)

    def keep(self, rows, theta):
        """Drop every row but `rows`, whose parameters now live in `theta`."""
        self.theta = theta
        self.lr, self.m, self.v = self.lr[rows], self.m[rows], self.v[rows]


# ---------------------------------------------------------------------------
# agent specification and training


@dataclass(frozen=True)
class AgentSpec:
    """Searchable agent configuration: action set, network, PPO coefficients."""

    action_set: tuple[int, ...] = (0, 10, 20, 30, 40)
    activation: str = "tanh"
    hidden_layers: tuple[int, ...] = (8, 4)
    learning_rate: float = 3e-4
    clip_range: float = 0.2
    entropy_coef: float = 1e-3
    value_coef: float = 0.5
    gamma: float = 0.99
    rollout_length: int = 2500
    total_timesteps: int = 100_000
    epochs: int = 10
    minibatch_size: int = 64
    patience: int = 5
    improvement_threshold: float = 0.01

    def __post_init__(self):
        for name in ("action_set", "hidden_layers"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)) or not all(
                    isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in value):
                raise ValueError(f"{name} must be a list of integers, got {value!r}")
            object.__setattr__(self, name, tuple(value))
        if min(self.hidden_layers, default=1) < 1:
            raise ValueError(f"hidden_layers sizes must be >= 1, got {self.hidden_layers}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        for name in ("learning_rate", "clip_range", "entropy_coef", "value_coef", "gamma",
                     "improvement_threshold"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float, np.integer)):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("rollout_length", "total_timesteps", "epochs", "minibatch_size", "patience"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if not 0.0 < self.clip_range < 1.0:
            raise ValueError("clip_range must be in (0, 1)")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if self.entropy_coef < 0 or self.value_coef < 0:
            raise ValueError("coefficients must be >= 0")


@dataclass
class UpdateStats:
    update: int
    timesteps: int
    mean_episode_reward: float
    objective: float
    policy_term: float
    value_loss: float
    entropy: float


@dataclass
class TrainResult:
    spec: AgentSpec
    actor: Mlp
    critic: Mlp
    curve: list
    timesteps: int
    stopped_early: bool


@dataclass
class _Agent:
    """One agent's training state outside the stacked arrays."""

    index: int  # position in train_population's arguments
    spec: AgentSpec
    env: object
    rng: np.random.Generator
    curve: list = field(default_factory=list)
    returns: list = field(default_factory=list)  # of the finished episodes
    episode_return: float = 0.0  # so far, of the episode in progress
    episode_steps: int = 0
    best: float = -np.inf
    misses: int = 0
    evaluated: int = 0


class _Group:
    """Agents of one network shape and schedule, trained in lockstep. Row r of
    every stacked array (networks, Adam moments, coefficients, the current
    observations and rollout) belongs to `agents[r]`."""

    def __init__(self, agents: list[_Agent], actor: Mlp, critic: Mlp):
        self.agents = agents
        self.actor, self.critic = actor, critic
        specs = [agent.spec for agent in agents]
        lr = [s.learning_rate for s in specs]
        self.opt_actor = Adam(self.actor.theta, lr)
        self.opt_critic = Adam(self.critic.theta, lr)
        self.clip_range = np.array([s.clip_range for s in specs])
        self.value_coef = np.array([s.value_coef for s in specs])
        self.entropy_coef = np.array([s.entropy_coef for s in specs])
        self.obs = np.stack([agent.env.reset() for agent in agents])
        self.batch = None

    def keep(self, rows):
        """Compact every stacked array to the agents at `rows`."""
        self.agents = [self.agents[r] for r in rows]
        self.actor, self.critic = self.actor.take(rows), self.critic.take(rows)
        self.opt_actor.keep(rows, self.actor.theta)
        self.opt_critic.keep(rows, self.critic.theta)
        self.clip_range, self.value_coef, self.entropy_coef, self.obs = (
            self.clip_range[rows], self.value_coef[rows], self.entropy_coef[rows],
            self.obs[rows])
        self.batch = self.batch.rows(rows)

    def drop(self, bad, make_outcome, out):
        """Record `make_outcome(row)` for the agents at the true rows of
        `bad` and compact them out; False when no agent is left."""
        for r in np.flatnonzero(bad).tolist():
            out[self.agents[r].index] = make_outcome(r)
        self.keep(np.flatnonzero(~bad))
        return bool(self.agents)

    def result(self, r, timesteps, stopped_early) -> TrainResult:
        agent = self.agents[r]
        return TrainResult(spec=agent.spec, actor=self.actor.take([r]),
                           critic=self.critic.take([r]), curve=agent.curve,
                           timesteps=timesteps, stopped_early=stopped_early)

    def rollout(self, n):
        """Choose n actions per agent with its env's `advance`, one stacked
        actor forward per step, and score each agent's steps with
        `env.rewards`, one call per episode segment. An episode (and its
        open position) carries over into the next rollout. Afterwards the
        critic reads every step at once with `forward_rows`, bitwise its
        per-step values; log-probs come from the buffered logits, then each
        agent's returns and advantages; `batch` holds the result."""
        self.batch = None  # the last rollout's, no longer needed
        agents, actor, critic = self.agents, self.actor, self.critic
        size = len(agents)
        # each agent draws its uniforms in one call, as it would alone; per step, a row of A
        uniforms = np.stack([agent.rng.random(n) for agent in agents], axis=1).tolist()
        # column i + 1 is the observation after step i
        obs = np.empty((size, n + 1, self.obs.shape[1]))
        obs[:, 0] = self.obs
        logits = np.empty((size, n, actor.biases[-1].shape[-1]))
        actions = []
        rewards = np.empty((size, n))
        dones = np.zeros((size, n), dtype=bool)
        seg = [0] * size  # index of each agent's episode's first step here
        for i in range(n):
            out = actor.forward(obs[:, i:i + 1])
            logits[:, i:i + 1] = out
            ez = np.exp(out - np.maximum.reduce(out, axis=2, keepdims=True))
            drawn = _draw((ez / np.add.reduce(ez, axis=2, keepdims=True))[:, 0], uniforms[i])
            actions.append(drawn)
            for r, (agent, action) in enumerate(zip(agents, drawn)):
                obs[r, i + 1], done = agent.env.advance(action)
                if done:
                    dones[r, i] = True
                    self._score(agent, rewards[r, seg[r]:i + 1])
                    agent.returns.append(agent.episode_return)
                    agent.episode_return, agent.episode_steps = 0.0, 0
                    seg[r] = i + 1
                    obs[r, i + 1] = agent.env.reset()
        for r, agent in enumerate(agents):
            if seg[r] < n:
                self._score(agent, rewards[r, seg[r]:])
        self.obs = obs[:, n].copy()
        actions = np.array(actions, dtype=np.int64).T.copy()
        values = critic.forward_rows(obs[:, :n])[..., 0]
        returns = np.stack([compute_returns(r, agent.spec.gamma, d)
                            for agent, r, d in zip(agents, rewards, dones)])
        self.batch = RolloutBatch(
            obs[:, :n], actions, Categorical(logits).log_prob(actions), rewards, values, dones,
            returns, np.stack([advantages(g, v) for g, v in zip(returns, values)]))

    def curve_terms(self):
        """The objective and its terms on the whole rollout, per agent, for
        the training curve: no gradient, so forward passes only."""
        batch = self.batch
        objective, terms, _ = _surrogate(
            batch, self.actor.forward(batch.observations),
            self.critic.forward(batch.observations),
            self.clip_range, self.value_coef, self.entropy_coef)
        return objective, terms

    @staticmethod
    def _score(agent, out):
        """Fill `out` with the rewards of the episode's next len(out) steps."""
        lo = agent.episode_steps
        hi = lo + out.size
        out[...] = agent.env.rewards(lo, hi)
        total = agent.episode_return
        for r in out.tolist():  # one at a time, in step order
            total += r
        agent.episode_return, agent.episode_steps = total, hi


def lockstep_groups(envs, specs) -> list[list[int]]:
    """The indices of the agents that train in lockstep, in order of first
    appearance: one network shape (observation size, action count,
    activation, hidden layers) and one schedule (rollout length, total
    steps, epochs, minibatch size)."""
    groups: dict[tuple, list[int]] = {}
    for i, (env, spec) in enumerate(zip(envs, specs)):
        key = (env.obs_dim, env.n_actions, spec.activation, spec.hidden_layers,
               spec.rollout_length, spec.total_timesteps, spec.epochs, spec.minibatch_size)
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def train_population(envs, specs, seeds) -> list:
    """Train one agent per (env, spec, seed), each group of `lockstep_groups`
    in lockstep, every agent bitwise as it would train alone. Returns per
    agent its TrainResult, or the TrainingDiverged that ended its training.

    Envs are distinct objects providing `obs_dim`, `n_actions`,
    `reset() -> obs`, `advance(action) -> (obs, done)` and `rewards(lo, hi)`,
    the rewards of steps [lo, hi) of the episode in progress.

    Early stopping: after each update, the mean return of episodes finished
    since the last evaluation must beat the best seen by more than
    improvement_threshold (relative); `patience` misses in a row stop the
    agent.
    """
    if not len(envs) == len(specs) == len(seeds):
        raise ValueError(f"need one env, spec and seed per agent, got {len(envs)}, "
                         f"{len(specs)} and {len(seeds)}")
    out = [None] * len(specs)
    for members in lockstep_groups(envs, specs):
        agents, actors, critics = [], [], []
        for i in members:
            agent = _Agent(i, specs[i], envs[i], np.random.default_rng(seeds[i]))
            sizes = [agent.env.obs_dim, *agent.spec.hidden_layers]
            agents.append(agent)
            actors.append(Mlp.build(sizes + [agent.env.n_actions], agent.spec.activation,
                                    agent.rng, out_gain=0.01))
            critics.append(Mlp.build(sizes + [1], agent.spec.activation, agent.rng))
        _train_group(_Group(agents, Mlp.stack(actors), Mlp.stack(critics)), out)
    return out


def _train_group(group: _Group, out: list):
    schedule = group.agents[0].spec  # rollout length, steps, epochs, minibatch
    timesteps = 0
    update = 0
    while timesteps < schedule.total_timesteps:
        n = min(schedule.rollout_length, schedule.total_timesteps - timesteps)
        group.rollout(n)
        timesteps += n
        update += 1
        diverged = f"non-finite objective at update {update} ({timesteps} steps)"
        for _ in range(schedule.epochs):
            order = np.stack([agent.rng.permutation(n) for agent in group.agents])
            for lo in range(0, n, schedule.minibatch_size):
                objective, _, ga, gc = ppo_objective(
                    group.batch.select(order[:, lo:lo + schedule.minibatch_size]),
                    group.actor, group.critic, group.clip_range, group.value_coef,
                    group.entropy_coef)
                bad = ~np.isfinite(objective)
                if bad.any():
                    if not group.drop(bad, lambda r: TrainingDiverged(diverged), out):
                        return
                    order, ga, gc = order[~bad], ga[~bad], gc[~bad]
                group.opt_actor.ascend(ga)
                group.opt_critic.ascend(gc)
        bad = ~(np.isfinite(group.actor.theta).all(axis=1)
                & np.isfinite(group.critic.theta).all(axis=1))
        if bad.any() and not group.drop(
                bad, lambda r: TrainingDiverged(f"non-finite parameters at update {update}"),
                out):
            return

        objective, terms = group.curve_terms()
        stopped = np.zeros(len(group.agents), dtype=bool)
        for r, agent in enumerate(group.agents):
            finished = len(agent.returns) > agent.evaluated
            mean_ep = float(np.mean(agent.returns[agent.evaluated:])) if finished else np.nan
            agent.curve.append(UpdateStats(
                update, timesteps, mean_ep, float(objective[r]), float(terms["policy"][r]),
                float(terms["value_loss"][r]), float(terms["entropy"][r])))
            if finished:
                agent.evaluated = len(agent.returns)
                best = agent.best
                threshold = agent.spec.improvement_threshold
                if not np.isfinite(best) or mean_ep > best + threshold * abs(best):
                    agent.best = mean_ep
                    agent.misses = 0
                else:
                    agent.misses += 1
                    stopped[r] = agent.misses >= agent.spec.patience
        if stopped.any() and not group.drop(
                stopped, lambda r: group.result(r, timesteps, True), out):
            return

    for r, agent in enumerate(group.agents):
        out[agent.index] = group.result(r, timesteps, False)


def train(env_factory, spec: AgentSpec, seed: int) -> TrainResult:
    """Run PPO until total_timesteps or early stop; deterministic given seed.
    The population of one: see `train_population` for the env protocol and
    early stopping. Raises TrainingDiverged on non-finite losses or
    parameters."""
    result, = train_population([env_factory()], [spec], [seed])
    if isinstance(result, TrainingDiverged):
        raise result
    return result


def greedy_action_fn(actor: Mlp):
    """Deterministic argmax policy over the logits of a single network."""

    def act(obs, _step):
        return int(actor.forward(obs[None, None, :])[0, 0].argmax())

    return act


# ---------------------------------------------------------------------------
# persistence

CHECKPOINT_VERSION = 1
_META_KEYS = ("version", "spec", "activation", "actor_layers", "critic_layers", "timesteps",
              "stopped_early")


def _check_keys(what, got: dict, want):
    missing = sorted(set(want) - set(got))
    unknown = sorted(set(got) - set(want))
    if missing or unknown:
        raise ValueError(f"checkpoint {what} is malformed: missing keys {missing}, "
                         f"unknown keys {unknown}")


def save_checkpoint(path, result: TrainResult):
    meta = {
        "version": CHECKPOINT_VERSION,
        "spec": asdict(result.spec),
        "activation": result.actor.activation,
        "actor_layers": len(result.actor.weights),
        "critic_layers": len(result.critic.weights),
        "timesteps": result.timesteps,
        "stopped_early": result.stopped_early,
    }
    arrays = {}
    for name, net in (("actor", result.actor), ("critic", result.critic)):
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            arrays[f"{name}_w{i}"] = w[0]
            arrays[f"{name}_b{i}"] = b[0, 0]
    # through a handle: given a path, np.savez appends ".npz" to any other name
    with open(path, "wb") as fh:
        np.savez(fh, meta=json.dumps(meta), **arrays)


def load_checkpoint(path) -> TrainResult:
    with np.load(path, allow_pickle=False) as archive:
        blob = {name: archive[name] for name in archive.files}
    # the metadata names the other arrays, so it is checked for first
    _check_keys("arrays", set(blob) & {"meta"}, {"meta"})
    meta = json.loads(str(blob["meta"]))
    if not isinstance(meta, dict):
        raise ValueError(f"checkpoint metadata must be a JSON object, got {type(meta).__name__}")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {meta.get('version')}")
    _check_keys("metadata", meta, _META_KEYS)
    for key, least in (("actor_layers", 1), ("critic_layers", 1), ("timesteps", 0)):
        value = meta[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise ValueError(f"checkpoint {key} must be an integer >= {least}, got {value!r}")
    if not isinstance(meta["stopped_early"], bool):
        raise ValueError(f"checkpoint stopped_early must be a bool, got {meta['stopped_early']!r}")
    if not isinstance(meta["spec"], dict):
        raise ValueError(f"checkpoint spec must be a JSON object, got {type(meta['spec']).__name__}")
    _check_keys("arrays", blob, {"meta"} | {
        f"{name}_{part}{i}" for name in ("actor", "critic") for part in "wb"
        for i in range(meta[f"{name}_layers"])})
    spec_fields = AgentSpec.__dataclass_fields__
    # a null spec entry asks for nothing: files from earlier versions hold
    # one for a reserved field that was never read and is gone
    spec_dict = {k: v for k, v in meta["spec"].items() if k in spec_fields or v is not None}
    _check_keys("agent spec", spec_dict, spec_fields)
    spec = AgentSpec(**spec_dict)
    activation = meta["activation"]
    actor, critic = (
        Mlp([blob[f"{name}_w{i}"][None] for i in range(meta[f"{name}_layers"])],
            [blob[f"{name}_b{i}"][None, None] for i in range(meta[f"{name}_layers"])],
            activation)
        for name in ("actor", "critic"))
    return TrainResult(spec=spec, actor=actor, critic=critic, curve=[],
                       timesteps=meta["timesteps"], stopped_early=meta["stopped_early"])


def save_training_curve(path, curve):
    # one column per UpdateStats field, typed by its annotation ("int" or "float")
    cols = fields(UpdateStats)
    write_csv(path, [f.name for f in cols],
              [np.array([getattr(row, f.name) for row in curve], dtype=f.type) for f in cols])
