"""Actor-critic PPO for discrete actions, built on small hand-rolled MLPs.

The actor outputs categorical logits, the critic a scalar value. Targets are
Monte-Carlo discounted returns, the policy update maximizes the clipped
surrogate plus an entropy bonus, and optimization uses Adam over minibatches.
Everything is numpy with explicit backprop so gradients can be checked
against finite differences.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, asdict
from itertools import accumulate

import numpy as np

ACTIVATIONS = ("sigmoid", "relu", "tanh")


class TrainingDiverged(RuntimeError):
    """Raised when the optimization produces non-finite losses or parameters."""


# ---------------------------------------------------------------------------
# networks


class Mlp:
    """Fully connected network: affine + activation per hidden layer, linear output.

    All parameters live in one flat buffer `theta`; `weights` and `biases` are
    views on it. Each weight keeps the memory order it was given: BLAS sums
    F- and C-ordered operands in different orders, so a change of layout
    would change the last bits of every product.
    """

    def __init__(self, weights, biases, activation):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        weights = [np.asarray(w) for w in weights]
        biases = [np.asarray(b) for b in biases]
        self.activation = activation
        # (shape, Fortran-ordered) per weight
        self._layout = [(w.shape, w.flags.f_contiguous and not w.flags.c_contiguous)
                        for w in weights]
        self.theta = np.empty(sum(w.size + b.size for w, b in zip(weights, biases)))
        views = self.views(self.theta)
        self.weights = views[0::2]
        self.biases = views[1::2]
        for view, value in zip(self.weights + self.biases, weights + biases):
            view[...] = value

    def __reduce__(self):
        # rebuilt through __init__ so the unpickled views share one buffer
        return Mlp, (self.weights, self.biases, self.activation)

    @classmethod
    def build(cls, sizes, activation, rng, out_gain: float = 1.0) -> "Mlp":
        """Orthogonal-style init; out_gain scales the output layer (0.01 for a
        near-uniform initial policy)."""
        weights, biases = [], []
        for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            a = rng.standard_normal((n_in, n_out))
            q, r = np.linalg.qr(a if n_in >= n_out else a.T)
            sign = np.where(np.diag(r) < 0, -1.0, 1.0)
            q = q * sign if n_in >= n_out else (q * sign).T
            gain = out_gain if i == len(sizes) - 2 else 1.0
            weights.append(gain * q)
            biases.append(np.zeros(n_out))
        return cls(weights, biases, activation)

    def views(self, buf: np.ndarray) -> list:
        """Per-tensor views of a vector laid out like `theta`: each layer's
        weight, then its bias."""
        out = []
        offset = 0
        for (n_in, n_out), fortran in self._layout:
            chunk = buf[offset:offset + n_in * n_out]
            out.append(chunk.reshape(n_out, n_in).T if fortran else chunk.reshape(n_in, n_out))
            offset += n_in * n_out
            out.append(buf[offset:offset + n_out])
            offset += n_out
        return out

    def _act(self, z):
        if self.activation == "relu":
            return np.maximum(z, 0.0)
        if self.activation == "tanh":
            return np.tanh(z)
        return 1.0 / (1.0 + np.exp(-z))

    def _act_grad(self, z, a):
        if self.activation == "relu":
            return (z > 0).astype(float)
        if self.activation == "tanh":
            return 1.0 - a * a
        return a * (1.0 - a)

    def _check_input(self, x: np.ndarray):
        if x.ndim != 2 or x.shape[1] != self.weights[0].shape[0]:
            raise ValueError(
                f"expected input of shape (N, {self.weights[0].shape[0]}), got {x.shape}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        """`forward_cached`'s output without the backward cache; the rollout
        and greedy passes run it on single rows."""
        self._check_input(x)
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            h = z if i == last else self._act(z)
        return h

    def forward_cached(self, x: np.ndarray):
        self._check_input(x)
        pre, act = [], [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            pre.append(z)
            h = z if i == last else self._act(z)
            act.append(h)
        return h, (pre, act)

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        """Gradient of sum(grad_out * output) w.r.t. the parameters, laid out
        like `theta` (see `views`)."""
        pre, act = cache
        grad = np.empty_like(self.theta)
        grads = self.views(grad)
        delta = grad_out
        for i in range(len(self.weights) - 1, -1, -1):
            if i != len(self.weights) - 1:
                delta = delta * self._act_grad(pre[i], act[i + 1])
            grads[2 * i][...] = act[i].T @ delta
            grads[2 * i + 1][...] = delta.sum(axis=0)
            if i > 0:
                delta = delta @ self.weights[i].T
        return grad


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
    """Softmax distribution over rows of logits."""

    logits: np.ndarray

    def __post_init__(self):
        self.probs, self.logps = _softmax(self.logits)

    def log_prob(self, actions: np.ndarray) -> np.ndarray:
        return self.logps[np.arange(self.logps.shape[0]), actions]

    def entropy(self) -> np.ndarray:
        return -(self.probs * self.logps).sum(axis=-1)


def _draw(probs: list, u: float) -> int:
    """Inverse-CDF draw from one row of probabilities: the number of
    cumulative sums at or below `u`, clamped to the last category. The sums
    accumulate in order, as `np.cumsum` does along a row."""
    for k, cdf in enumerate(accumulate(probs)):
        if not u >= cdf:
            return k
    return len(probs) - 1


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
    observations: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    rewards: np.ndarray
    values: np.ndarray
    dones: np.ndarray
    returns: np.ndarray = field(default=None)
    advantages: np.ndarray = field(default=None)

    def __len__(self):
        return self.actions.size

    def select(self, idx) -> "RolloutBatch":
        return RolloutBatch(
            self.observations[idx], self.actions[idx], self.log_probs[idx],
            self.rewards[idx], self.values[idx], self.dones[idx],
            self.returns[idx], self.advantages[idx],
        )


def ppo_objective(batch: RolloutBatch, actor: Mlp, critic: Mlp,
                  clip_range: float, value_coef: float, entropy_coef: float):
    """Clipped-surrogate objective and its gradients.

    J = E[min(r*A, clip(r, 1-eps, 1+eps)*A)] - c1*MSE(V, G) + c2*E[H], with r
    the probability ratio against the collection-time log-probs. Returns
    (J, terms, actor_grads, critic_grads) where the gradients point in the
    ascent direction of J and are laid out like each network's `theta`.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    n = len(batch)
    adv = batch.advantages

    logits, actor_cache = actor.forward_cached(batch.observations)
    dist = Categorical(logits)
    lp = dist.log_prob(batch.actions)
    ratio = np.exp(lp - batch.log_probs)
    clipped = np.clip(ratio, 1.0 - clip_range, 1.0 + clip_range)
    surr1 = ratio * adv
    surr2 = clipped * adv
    policy_term = float(np.minimum(surr1, surr2).mean())
    ent = dist.entropy()
    entropy_term = float(ent.mean())

    v_out, critic_cache = critic.forward_cached(batch.observations)
    v = v_out[:, 0]
    err = v - batch.returns
    value_loss = float(np.mean(err * err))

    objective = policy_term - value_coef * value_loss + entropy_coef * entropy_term

    # d policy_term / d log-prob of the taken action; the clipped branch is
    # flat in ratio whenever it is strictly selected.
    active = surr1 <= surr2
    coeff = np.where(active, adv * ratio, 0.0) / n

    one_hot = np.zeros_like(dist.probs)
    one_hot[np.arange(n), batch.actions] = 1.0
    d_logits = coeff[:, None] * (one_hot - dist.probs)
    # entropy bonus: dH/dz_j = -p_j * (log p_j + H)
    d_logits += entropy_coef / n * (-dist.probs * (dist.logps + ent[:, None]))
    actor_grads = actor.backward(actor_cache, d_logits)

    d_v = (-value_coef * 2.0 / n) * err
    critic_grads = critic.backward(critic_cache, d_v[:, None])

    terms = {"policy": policy_term, "value_loss": value_loss, "entropy": entropy_term}
    return objective, terms, actor_grads, critic_grads


class Adam:
    """Adaptive moment estimation over one flat parameter vector, updated in
    place as gradient ascent on the objective."""

    def __init__(self, theta, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.theta = theta
        self.lr = lr
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
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * (grad * grad)
        self.theta += self.lr * (self.m / b1c) / (np.sqrt(self.v / b2c) + self.eps)


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
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if not 0.0 < self.clip_range < 1.0:
            raise ValueError("clip_range must be in (0, 1)")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if self.entropy_coef < 0 or self.value_coef < 0:
            raise ValueError("coefficients must be >= 0")
        if self.rollout_length < 1 or self.total_timesteps < 1:
            raise ValueError("rollout_length and total_timesteps must be >= 1")


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


def _collect_rollout(env, actor, critic, rng, n_steps, obs, episode_returns, episode):
    """Choose n_steps actions with `env.advance`, then score them with
    `env.rewards`, one call per episode segment.

    `episode` is [return so far, steps taken] of the episode in progress, so
    an episode (and its open position) carries over into the next rollout.
    """
    obs_buf = np.empty((n_steps, env.obs_dim))
    act_buf = np.empty(n_steps, dtype=int)
    lp_buf = np.empty(n_steps)
    rew_buf = np.empty(n_steps)
    val_buf = np.empty(n_steps)
    done_buf = np.zeros(n_steps, dtype=bool)
    uniforms = rng.random(n_steps)
    seg = 0  # buffer index of the episode's first step in this rollout

    def score(start, end):
        # rewards of buffer steps [start, end), the next steps of the episode
        lo = episode[1]
        hi = lo + end - start
        rewards = env.rewards(lo, hi)
        rew_buf[start:end] = rewards
        total = episode[0]
        for r in rewards:  # one at a time, in step order
            total += float(r)
        episode[0], episode[1] = total, hi

    for i in range(n_steps):
        row = obs[None, :]
        # _softmax of the one row, bitwise
        logits = actor.forward(row)[0]
        z = logits - logits.max()
        ez = np.exp(z)
        norm = ez.sum()
        action = _draw((ez / norm).tolist(), float(uniforms[i]))
        obs_buf[i] = obs
        act_buf[i] = action
        lp_buf[i] = z[action] - np.log(norm)
        val_buf[i] = critic.forward(row)[0, 0]
        obs, done = env.advance(action)
        if done:
            done_buf[i] = True
            score(seg, i + 1)
            episode_returns.append(episode[0])
            episode[0], episode[1] = 0.0, 0
            seg = i + 1
            obs = env.reset()
    if seg < n_steps:
        score(seg, n_steps)
    return RolloutBatch(obs_buf, act_buf, lp_buf, rew_buf, val_buf, done_buf), obs


def train(env_factory, spec: AgentSpec, seed: int) -> TrainResult:
    """Run PPO until total_timesteps or early stop; deterministic given seed.

    The env provides `obs_dim`, `n_actions`, `reset() -> obs`,
    `advance(action) -> (obs, done)` and `rewards(lo, hi)`, the rewards of
    steps [lo, hi) of the episode in progress.

    Early stopping: after each update, the mean return of episodes finished
    since the last evaluation must beat the best seen by more than
    improvement_threshold (relative); `patience` misses in a row stop training.
    """
    env = env_factory()
    rng = np.random.default_rng(seed)
    sizes = [env.obs_dim, *spec.hidden_layers]
    actor = Mlp.build(sizes + [env.n_actions], spec.activation, rng, out_gain=0.01)
    critic = Mlp.build(sizes + [1], spec.activation, rng)
    opt_actor = Adam(actor.theta, spec.learning_rate)
    opt_critic = Adam(critic.theta, spec.learning_rate)

    obs = env.reset()
    episode = [0.0, 0]
    episode_returns: list[float] = []
    curve: list[UpdateStats] = []
    timesteps = 0
    update = 0
    best = -np.inf
    misses = 0
    evaluated = 0
    stopped_early = False

    while timesteps < spec.total_timesteps:
        n = min(spec.rollout_length, spec.total_timesteps - timesteps)
        batch, obs = _collect_rollout(env, actor, critic, rng, n, obs,
                                      episode_returns, episode)
        timesteps += n
        update += 1
        batch.returns = compute_returns(batch.rewards, spec.gamma, batch.dones)
        batch.advantages = advantages(batch.returns, batch.values)

        for _ in range(spec.epochs):
            order = rng.permutation(n)
            for lo in range(0, n, spec.minibatch_size):
                mb = batch.select(order[lo:lo + spec.minibatch_size])
                objective, _, ga, gc = ppo_objective(
                    mb, actor, critic, spec.clip_range, spec.value_coef, spec.entropy_coef)
                if not np.isfinite(objective):
                    raise TrainingDiverged(
                        f"non-finite objective at update {update} ({timesteps} steps)")
                opt_actor.ascend(ga)
                opt_critic.ascend(gc)
        if not (np.isfinite(actor.theta).all() and np.isfinite(critic.theta).all()):
            raise TrainingDiverged(f"non-finite parameters at update {update}")

        objective, terms, _, _ = ppo_objective(
            batch, actor, critic, spec.clip_range, spec.value_coef, spec.entropy_coef)
        mean_ep = float(np.mean(episode_returns[evaluated:])) if len(episode_returns) > evaluated else np.nan
        curve.append(UpdateStats(update, timesteps, mean_ep, float(objective),
                                 terms["policy"], terms["value_loss"], terms["entropy"]))

        if len(episode_returns) > evaluated:
            evaluated = len(episode_returns)
            improved = (not np.isfinite(best)
                        or mean_ep > best + spec.improvement_threshold * abs(best))
            if improved:
                best = mean_ep
                misses = 0
            else:
                misses += 1
                if misses >= spec.patience:
                    stopped_early = True
                    break

    return TrainResult(spec=spec, actor=actor, critic=critic, curve=curve,
                       timesteps=timesteps, stopped_early=stopped_early)


def greedy_action_fn(actor: Mlp):
    """Deterministic argmax policy over actor logits."""

    def act(obs, _step):
        return int(np.argmax(actor.forward(obs[None, :])[0]))

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
    for i, (w, b) in enumerate(zip(result.actor.weights, result.actor.biases)):
        arrays[f"actor_w{i}"] = w
        arrays[f"actor_b{i}"] = b
    for i, (w, b) in enumerate(zip(result.critic.weights, result.critic.biases)):
        arrays[f"critic_w{i}"] = w
        arrays[f"critic_b{i}"] = b
    np.savez(path, meta=json.dumps(meta), **arrays)


def load_checkpoint(path) -> TrainResult:
    blob = np.load(path, allow_pickle=False)
    meta = json.loads(str(blob["meta"]))
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {meta.get('version')}")
    _check_keys("metadata", meta, _META_KEYS)
    fields = AgentSpec.__dataclass_fields__
    # a null spec entry asks for nothing: files from earlier versions hold
    # one for a reserved field that was never read and is gone
    spec_dict = {k: v for k, v in meta["spec"].items() if k in fields or v is not None}
    _check_keys("agent spec", spec_dict, fields)
    spec_dict["action_set"] = tuple(spec_dict["action_set"])
    spec_dict["hidden_layers"] = tuple(spec_dict["hidden_layers"])
    spec = AgentSpec(**spec_dict)
    activation = meta["activation"]
    actor = Mlp(
        [blob[f"actor_w{i}"] for i in range(meta["actor_layers"])],
        [blob[f"actor_b{i}"] for i in range(meta["actor_layers"])], activation)
    critic = Mlp(
        [blob[f"critic_w{i}"] for i in range(meta["critic_layers"])],
        [blob[f"critic_b{i}"] for i in range(meta["critic_layers"])], activation)
    return TrainResult(spec=spec, actor=actor, critic=critic, curve=[],
                       timesteps=meta["timesteps"], stopped_early=meta["stopped_early"])


def save_training_curve(path, curve):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["update", "timesteps", "mean_episode_reward",
                         "objective", "policy_term", "value_loss", "entropy"])
        for row in curve:
            writer.writerow([row.update, row.timesteps, repr(row.mean_episode_reward),
                             repr(row.objective), repr(row.policy_term),
                             repr(row.value_loss), repr(row.entropy)])
