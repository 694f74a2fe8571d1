"""Actor-critic PPO for discrete actions, built on small hand-rolled MLPs.

The actor outputs categorical logits, the critic a scalar value. Targets are
Monte-Carlo discounted returns, the policy update maximizes the clipped
surrogate plus an entropy bonus, and optimization uses Adam over minibatches.
Everything is numpy with explicit backprop so gradients can be checked
against finite differences.

Training runs a population at a time, on one schedule. An `Mlp` holds A
networks of one shape, and `train_population` trains the agents that share a
network shape in lockstep. A group keeps its actors and critics in one
parameter buffer (`_ActorCritic`): each rollout makes one stacked per-row
actor forward and one critic forward over all its steps, and each minibatch
one objective, whose forward and backward run the hidden layers of both
networks as one stacked pass, and one Adam step over the whole buffer.
Actions are sampled per agent, by its env's `walk`, which follows each range
from its deploy to its exit with hold ladders, a `forward_rows` call per
hold level over every range that could open in a block of steps, rather
than one forward per step, and returns the walked segment scored. Every
agent keeps its own random stream and call order and computes bitwise what
it would compute alone; `train` is the population of one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, asdict

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

    pair = None  # the _ActorCritic whose buffer holds this population, if any

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

    @classmethod
    def _on(cls, theta, layout, activation) -> "Mlp":
        """The networks whose parameters are the rows of `theta`, laid out
        as `layout`: a view, not a copy."""
        net = cls.__new__(cls)
        net._bind(theta, layout, activation)
        return net

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
        return cls._on(np.concatenate([n.theta for n in nets]), nets[0]._layout,
                       nets[0].activation)

    def take(self, rows) -> "Mlp":
        """The networks at `rows`, in a buffer of their own."""
        return type(self)._on(self.theta[rows], self._layout, self.activation)

    def views(self, buf: np.ndarray) -> list:
        """Per-tensor views of an array laid out like `theta` along its last
        axis: each layer's weight, then its bias, with the leading axes of
        `buf` in front."""
        lead = buf.shape[:-1]
        out = []
        offset = 0
        for (n_in, n_out), fortran in self._layout:
            chunk = buf[..., offset:offset + n_in * n_out]
            out.append(chunk.reshape(*lead, n_out, n_in).swapaxes(-1, -2) if fortran
                       else chunk.reshape(*lead, n_in, n_out))
            offset += n_in * n_out
            out.append(buf[..., offset:offset + n_out].reshape(*lead, 1, n_out))
            offset += n_out
        return out

    def _check_input(self, x: np.ndarray):
        size, n_in = self.weights[0].shape[:2]
        if x.ndim != 3 or x.shape[0] != size or x.shape[2] != n_in:
            raise ValueError(f"expected input of shape ({size}, N, {n_in}), got {x.shape}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The networks' outputs on x, (A, n, n_in); the training curve runs it."""
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


def _hidden_forward(x, hidden, act):
    """The hidden layers `hidden`, (weight, bias) pairs, on input x: the
    pre-activations of each layer, and the activations, x first. Leading
    axes broadcast, so the loop runs a population and an actor-critic pair
    alike."""
    pre, acts = [], [x]
    h = x
    for w, b in hidden:
        z = h @ w
        z += b
        h = act(z)
        pre.append(z)
        acts.append(h)
    return pre, acts


def _layer_backward(x, delta, grad_w, grad_b):
    """Write the gradient of an affine layer with input x and output gradient
    `delta` into the views `grad_w` and `grad_b`. Into a Fortran-ordered view
    numpy computes the transposed product, which BLAS may sum in another order,
    so it is made C-ordered and copied. The bias sum adds rows in sequence."""
    if grad_w.strides[-1] == grad_w.itemsize:
        np.matmul(x.swapaxes(-1, -2), delta, out=grad_w)
    else:
        grad_w[...] = x.swapaxes(-1, -2) @ delta
    np.add.reduce(delta, axis=-2, keepdims=True, out=grad_b)


def _hidden_backward(delta, hidden, pre, acts, act_grad, grads):
    """Backpropagate `delta`, the gradient at the last hidden layer's
    output, through `hidden` (see `_hidden_forward` for `pre` and `acts`),
    writing each layer's gradients into its (weight, bias) views in
    `grads`."""
    for i in range(len(hidden) - 1, -1, -1):
        delta = delta * act_grad(pre[i], acts[i + 1])
        _layer_backward(acts[i], delta, *grads[i])
        if i:
            delta = delta @ hidden[i][0].swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# categorical policy head


def _by_columns(op, x):
    """`op.reduce(x, axis=-1)` for `np.maximum` or `np.add`, over 2 to 7 columns
    a column at a time, without numpy's loop per row; else numpy's own. numpy
    adds under 8 terms in sequence onto +0.0 (from 8, pairwise), so only a row
    of all -0.0 sums apart, and no row of p or p log p is one; maxima match."""
    m = x.shape[-1]
    if not 2 <= m < 8:
        return op.reduce(x, axis=-1)
    cols = x.reshape(-1, m)  # 2-d columns cost less per call
    out = op(cols[:, 0], cols[:, 1])
    for j in range(2, m):
        op(out, cols[:, j], out=out)
    return out.reshape(x.shape[:-1])


def _softmax(logits, logs: bool = True):
    """(probs, log-probs) over the last axis, stabilized by max subtraction, or
    the probs alone. Rows sum as numpy's do: in sequence below 8 columns, else pairwise."""
    z = logits - _by_columns(np.maximum, logits)[..., None]
    ez = np.exp(z)
    total = _by_columns(np.add, ez)[..., None]
    probs = ez / total
    return (probs, z - np.log(total)) if logs else probs


@dataclass
class Categorical:
    """Softmax distribution over the last axis of logits."""

    logits: np.ndarray

    def __post_init__(self):
        self.probs, self.logps = _softmax(self.logits)

    def log_prob(self, actions: np.ndarray) -> np.ndarray:
        return self.logps.reshape(-1)[_row_starts(actions.shape, self.logps.shape[-1])
                                      + actions]

    def entropy(self) -> np.ndarray:
        return -_by_columns(np.add, self.probs * self.logps)


def _row_starts(shape, m: int) -> np.ndarray:
    """Where each row of a flattened (*shape, m) array starts: add the
    column to get an entry's flat index."""
    return np.arange(0, math.prod(shape) * m, m).reshape(shape)


def _draw(probs: np.ndarray, u) -> np.ndarray:
    """Inverse-CDF draws, one per row of `probs` (..., m) with its uniform in
    `u` (...): the index of the first cumulative sum that u is not at or
    above, clamped to the last category, so the number of the first m - 1
    sums at or below u (the sums do not decrease). The sums are added a
    column at a time, in row order, as `np.cumsum` adds along a row at any
    width; `np.sum` adds in sequence only below 8 columns, and pairwise from
    8 (see `_by_columns`)."""
    total = probs[..., 0]
    drawn = np.zeros(total.shape, dtype=np.int64)
    for j in range(1, probs.shape[-1]):
        drawn += u >= total
        total = total + probs[..., j]
    return drawn


def _sampler(u):
    """The `decide` of a sampled walk (see `env.LPEnv.walk`): step i of the
    walk draws from the softmax of its logits with uniform u[i]."""
    def decide(logits, steps):
        return _draw(_softmax(logits, logs=False), u[steps])
    return decide


# ---------------------------------------------------------------------------
# returns and advantages


def compute_returns(rewards, gamma: float, dones=None) -> np.ndarray:
    """Discounted reward-to-go G_t = r_t + gamma*G_{t+1}, restarting at episode
    ends; the tail bootstraps zero."""
    rewards = np.asarray(rewards, dtype=float).tolist()
    ends = np.zeros(len(rewards), dtype=bool) if dones is None else np.asarray(dones)
    # the recursion runs over Python floats: numpy scalars cost 3x as much
    out = []
    acc = 0.0
    for r, done in zip(reversed(rewards), reversed(ends.tolist())):
        if done:
            acc = 0.0
        acc = r + gamma * acc
        out.append(acc)
    out.reverse()
    return np.array(out, dtype=float)


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
        out, flat = self._gather(idx)
        out.rewards, out.values, out.dones = (
            a.take(flat) for a in (self.rewards, self.values, self.dones))
        return out

    def _gather(self, idx):
        """`select` of only what the loss reads, None for rewards, values and
        dones, and the flat index of its steps: every field is C-contiguous,
        so each is one `take` from its flattened rows."""
        flat = idx + _row_starts((idx.shape[0], 1), self.actions.shape[1])
        obs = self.observations
        return RolloutBatch(obs.reshape(-1, obs.shape[-1]).take(flat, axis=0),
                            self.actions.take(flat), self.log_probs.take(flat), None, None,
                            None, self.returns.take(flat), self.advantages.take(flat)), flat

    def rows(self, rows) -> "RolloutBatch":
        """The steps of the agents at `rows`."""
        return RolloutBatch(
            self.observations[rows], self.actions[rows], self.log_probs[rows],
            self.rewards[rows], self.values[rows], self.dones[rows],
            self.returns[rows], self.advantages[rows])


def _column(coef) -> np.ndarray:
    """A per-agent coefficient, (A,), or one for all, broadcast over (A, n)."""
    return np.asarray(coef)[..., None]


class _Loss:
    """The clipped-surrogate loss of a population, with its coefficients per
    agent, (A,), or one for all, and the constants that every evaluation
    reuses: the clip bounds, and per batch shape the flat index of each
    row's first logit and the gradient coefficients of the value and
    entropy terms."""

    def __init__(self, clip_range, value_coef, entropy_coef):
        self.coefs = (clip_range, value_coef, entropy_coef)
        clip = _column(clip_range)
        self.lo, self.hi = 1.0 - clip, 1.0 + clip
        self.value_coef, self.entropy_coef = value_coef, entropy_coef
        self._by_shape = {}

    def _constants(self, shape):
        c = self._by_shape.get(shape)
        if c is None:
            rows, n, m = shape
            c = self._by_shape[shape] = (
                _row_starts((rows, n), m),
                -_column(self.value_coef) * 2.0 / n,
                (_column(self.entropy_coef) / n)[..., None])
        return c

    def evaluate(self, batch: RolloutBatch, logits, values, grads: bool = False):
        """Per agent J and its terms from the networks' outputs on the batch;
        with `grads`, also the gradients of J w.r.t. the logits and the
        values."""
        base, d_value_coef, d_entropy_coef = self._constants(logits.shape)
        n = logits.shape[1]
        adv = batch.advantages
        probs, logps = _softmax(logits)
        taken = base + batch.actions
        ratio = np.exp(logps.take(taken) - batch.log_probs)
        # np.clip's arithmetic without its per-call overhead
        clipped = np.minimum(np.maximum(ratio, self.lo), self.hi)
        surr1 = ratio * adv
        surr2 = clipped * adv
        ent = -_by_columns(np.add, probs * logps)
        err = values[..., 0] - batch.returns
        # sum / n is np.mean's arithmetic without its per-call overhead
        terms = {"policy": np.add.reduce(np.minimum(surr1, surr2), axis=1) / n,
                 "value_loss": np.add.reduce(err * err, axis=1) / n,
                 "entropy": np.add.reduce(ent, axis=1) / n}
        objective = (terms["policy"] - self.value_coef * terms["value_loss"]
                     + self.entropy_coef * terms["entropy"])
        if not grads:
            return objective, terms

        # d policy_term / d log-prob of the taken action, adv * ratio; the
        # clipped branch is flat in ratio whenever it is strictly selected.
        coeff = np.where(surr1 <= surr2, surr1, 0.0) / n
        d_logits = -probs
        # entropy bonus: dH/dz_j = -p_j * (log p_j + H)
        d_entropy = d_entropy_coef * (d_logits * (logps + ent[..., None]))
        # one_hot - probs, with 1.0 - p as -p + 1.0
        d_logits.reshape(-1)[taken] += 1.0
        d_logits *= coeff[..., None]
        d_logits += d_entropy
        return objective, terms, d_logits, d_value_coef * err


class _ActorCritic:
    """An actor and a critic population with one hidden layout, as
    `Mlp.build` makes them for one spec, in one (A, 2P) buffer `theta`: row
    r holds agent r's actor in its first P columns and its critic in the
    last P, each laid out like its own `theta` and zero-padded to P.
    `actor` and `critic` are `Mlp`s on those views.

    The hidden layers sit at the same columns of both halves, so each is
    one (A, 2, n_in, n_out) weight and one (A, 2, 1, n_out) bias view, and
    one matmul, add and activation per layer run both networks. Every
    matrix keeps its memory order, so each network computes bitwise as it
    would alone. The output layers differ in width and run apart.

    `grad` is laid out like `theta` and holds the last `objective`'s
    gradients; its padding is never written, so it stays zero and Adam
    leaves the padding of `theta` at zero."""

    def __init__(self, theta, grad, layouts, activation):
        self.theta, self.grad = theta, grad
        self._layouts, self.activation = layouts, activation
        rows, size = theta.shape[0], theta.shape[1] // 2
        halves, grad_halves = theta.reshape(rows, 2, size), grad.reshape(rows, 2, size)
        nets, grads = [], []
        for k, layout in enumerate(layouts):
            width = sum(n_in * n_out + n_out for (n_in, n_out), _ in layout)
            nets.append(Mlp._on(halves[:, k, :width], layout, activation))
            grads.append(grad_halves[:, k, :width])
        self.actor, self.critic = nets
        self.actor.pair = self.critic.pair = self
        self.actor_grad, self.critic_grad = grads
        self._grad_heads = [net.views(g)[-2:] for net, g in zip(nets, grads)]
        # the actor's layout on (A, 2, P) views both halves' hidden layers
        hidden = 2 * len(self.actor._hidden)
        views, grad_views = (self.actor.views(buf)[:hidden] for buf in (halves, grad_halves))
        self._hidden = list(zip(views[0::2], views[1::2]))
        self._grad_hidden = list(zip(grad_views[0::2], grad_views[1::2]))
        self._act, self._act_grad = _ACTIVATIONS[activation]

    @classmethod
    def join(cls, actor: Mlp, critic: Mlp) -> "_ActorCritic":
        """Copies of `actor` and `critic`, populations of one size, hidden
        layout and activation, in one buffer."""
        if actor._layout[:-1] != critic._layout[:-1] or actor.activation != critic.activation:
            raise ValueError("an actor and its critic need one hidden layout and activation")
        rows = actor.theta.shape[0]
        if critic.theta.shape[0] != rows:
            raise ValueError(f"{rows} actors but {critic.theta.shape[0]} critics")
        size = max(actor.theta.shape[1], critic.theta.shape[1])
        theta = np.zeros((rows, 2, size))
        theta[:, 0, :actor.theta.shape[1]] = actor.theta
        theta[:, 1, :critic.theta.shape[1]] = critic.theta
        theta = theta.reshape(rows, 2 * size)
        return cls(theta, np.zeros_like(theta), (actor._layout, critic._layout),
                   actor.activation)

    @classmethod
    def of(cls, actor: Mlp, critic: Mlp) -> "_ActorCritic":
        """The pair that holds `actor` and `critic`, or a joined copy."""
        pair = actor.pair
        return pair if pair is not None and critic.pair is pair else cls.join(actor, critic)

    def take(self, rows) -> "_ActorCritic":
        """The agents at `rows`, parameters and gradients, in buffers of
        their own."""
        return type(self)(self.theta[rows], self.grad[rows], self._layouts, self.activation)

    def forward_cached(self, x: np.ndarray):
        """Both networks on x, (A, n, n_in): the logits, the values and the
        cache that `backward` reads."""
        pre, acts = _hidden_forward(x[:, None], self._hidden, self._act)
        # without hidden layers acts[-1] is x[:, None], so both heads read x
        h = acts[-1]
        return (h[:, 0] @ self.actor.weights[-1] + self.actor.biases[-1],
                h[:, -1] @ self.critic.weights[-1] + self.critic.biases[-1], (pre, acts))

    def backward(self, cache, d_logits: np.ndarray, d_values: np.ndarray):
        """Write into `grad` the gradient of sum(d_logits * logits) +
        sum(d_values * values) w.r.t. each agent's parameters."""
        pre, acts = cache
        h = acts[-1]
        _layer_backward(h[:, 0], d_logits, *self._grad_heads[0])
        _layer_backward(h[:, -1], d_values, *self._grad_heads[1])
        if self._hidden:
            delta = np.empty(h.shape)
            np.matmul(d_logits, self.actor.weights[-1].swapaxes(-1, -2), out=delta[:, 0])
            np.matmul(d_values, self.critic.weights[-1].swapaxes(-1, -2), out=delta[:, 1])
            _hidden_backward(delta, self._hidden, pre, acts, self._act_grad, self._grad_hidden)

    def objective(self, batch: RolloutBatch, loss: _Loss):
        """`ppo_objective` without its checks: the objective and its terms
        per agent, with the gradients written into `grad`."""
        logits, values, cache = self.forward_cached(batch.observations)
        objective, terms, d_logits, d_values = loss.evaluate(batch, logits, values, grads=True)
        self.backward(cache, d_logits, d_values[..., None])
        return objective, terms


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

    The two networks need one hidden layout and activation. When they are
    the actor and critic of one `_ActorCritic`, as a training group's are,
    the gradients are views of its `grad`, which the next call overwrites;
    any other two networks are first copied into a pair of their own.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    nets = _ActorCritic.of(actor, critic)
    nets.actor._check_input(batch.observations)
    objective, terms = nets.objective(batch, _Loss(clip_range, value_coef, entropy_coef))
    return objective, terms, nets.actor_grad, nets.critic_grad


class Adam:
    """Adaptive moment estimation over an (A, P) parameter buffer, a row per
    agent, updated in place as gradient ascent on the objective; `lr` is
    one rate per row, or one for all. Every operation is elementwise, so one
    step over a group's joint actor-critic buffer is bitwise a step per
    network, and zero-gradient padding stays where it is."""

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
    best: float = -np.inf
    misses: int = 0
    evaluated: int = 0


class _Group:
    """Agents of one network shape, trained in lockstep. Row r of
    every stacked array (parameters, Adam moments, coefficients and rollout)
    belongs to `agents[r]`. The actors and critics live in one
    `_ActorCritic`, `nets`, and one Adam steps its whole buffer; `loss`
    holds the agents' PPO coefficients."""

    def __init__(self, agents: list[_Agent], actor: Mlp, critic: Mlp):
        self.agents = agents
        self.nets = _ActorCritic.join(actor, critic)
        specs = [agent.spec for agent in agents]
        self.opt = Adam(self.nets.theta, [s.learning_rate for s in specs])
        self.loss = _Loss(*(np.array([getattr(s, name) for s in specs])
                            for name in ("clip_range", "value_coef", "entropy_coef")))
        for agent in agents:
            agent.env.reset()
        self.batch = None

    @property
    def actor(self) -> Mlp:
        return self.nets.actor

    @property
    def critic(self) -> Mlp:
        return self.nets.critic

    def keep(self, rows):
        """Compact every stacked array to the agents at `rows`."""
        self.agents = [self.agents[r] for r in rows]
        self.nets = self.nets.take(rows)
        self.opt.keep(rows, self.nets.theta)
        self.loss = _Loss(*(coef[rows] for coef in self.loss.coefs))
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
        """Take n steps per agent: each agent walks its env (`walk`, one call
        per episode segment) with its own network and its uniforms, drawn in
        one call as it would draw them alone, and each walk returns its
        segment scored. An episode (and its open position) carries over into
        the next rollout. Afterwards the actor and the critic each read every
        step at once with `forward_rows`, bitwise their per-step logits and
        values; log-probs come from those logits, then each agent's returns
        and advantages; `batch` holds the result."""
        self.batch = None  # the last rollout's, no longer needed
        agents, actor, critic = self.agents, self.actor, self.critic
        size = len(agents)
        obs = np.empty((size, n, critic.weights[0].shape[1]))
        actions = np.empty((size, n), dtype=np.int64)
        rewards = np.empty((size, n))
        dones = np.zeros((size, n), dtype=bool)
        for r, agent in enumerate(agents):
            u = agent.rng.random(n)
            net = actor.take([r])
            i = 0
            while i < n:
                seg_obs, seg_actions, seg_rewards, done = agent.env.walk(
                    net, _sampler(u[i:]), n - i)
                j = i + seg_actions.size
                obs[r, i:j], actions[r, i:j], rewards[r, i:j] = seg_obs, seg_actions, seg_rewards
                total = agent.episode_return
                for x in seg_rewards.tolist():  # one at a time, in step order
                    total += x
                agent.episode_return = total
                if done:
                    dones[r, j - 1] = True
                    agent.returns.append(agent.episode_return)
                    agent.episode_return = 0.0
                    agent.env.reset()
                i = j
        logits = actor.forward_rows(obs)
        values = critic.forward_rows(obs)[..., 0]
        returns = np.stack([compute_returns(r, agent.spec.gamma, d)
                            for agent, r, d in zip(agents, rewards, dones)])
        self.batch = RolloutBatch(
            obs, actions, Categorical(logits).log_prob(actions), rewards, values, dones,
            returns, np.stack([advantages(g, v) for g, v in zip(returns, values)]))

    def curve_terms(self):
        """The objective and its terms on the whole rollout, per agent, for
        the training curve: no gradient, so forward passes only."""
        batch = self.batch
        return self.loss.evaluate(batch, self.actor.forward(batch.observations),
                                  self.critic.forward(batch.observations))


def lockstep_groups(envs, specs) -> list[list[int]]:
    """The indices of the agents that train in lockstep, in order of first
    appearance: one network shape (observation size, action count,
    activation, hidden layers). `train_population` requires one schedule of
    the whole population, so a group needs no key for it."""
    groups: dict[tuple, list[int]] = {}
    for i, (env, spec) in enumerate(zip(envs, specs)):
        key = (env.obs_dim, env.n_actions, spec.activation, spec.hidden_layers)
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def train_population(envs, specs, seeds) -> list:
    """Train one agent per (env, spec, seed), each group of `lockstep_groups`
    in lockstep, every agent bitwise as it would train alone. Returns per
    agent its TrainResult, or the TrainingDiverged that ended its training.

    Every agent runs one schedule: a ValueError names the first of rollout
    length, total steps, epochs and minibatch size in which the specs
    differ.

    Envs are distinct objects providing `obs_dim`, `n_actions`, `reset()`
    and `walk(actor, decide, n) -> (observations, actions, rewards, done)`,
    which takes up to n decisions from the current step, stops at the
    episode's end and returns the walked segment scored (see
    `env.LPEnv.walk`). The trainer reads the logits of every step of a
    rollout in one stacked `forward_rows` call afterwards. The walk calls
    `decide(logits, steps)` on rows of logits in any order and grouping,
    each row that of step `steps[i]` of the walk; the trainer's `decide`
    draws each row's action from the softmax of its logits with its step's
    uniform, and an agent draws a rollout's uniforms in one call.

    Early stopping: after each update, the mean return of episodes finished
    since the last evaluation must beat the best seen by more than
    improvement_threshold (relative); `patience` misses in a row stop the
    agent.
    """
    if not len(envs) == len(specs) == len(seeds):
        raise ValueError(f"need one env, spec and seed per agent, got {len(envs)}, "
                         f"{len(specs)} and {len(seeds)}")
    for name in ("rollout_length", "total_timesteps", "epochs", "minibatch_size"):
        values = sorted({getattr(spec, name) for spec in specs})
        if len(values) > 1:
            raise ValueError(f"a population trains on one schedule; the agents differ "
                             f"in {name}: {values}")
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
                # the gradients land in group.nets.grad, whose rows `drop` compacts too
                batch, _ = group.batch._gather(order[:, lo:lo + schedule.minibatch_size])
                objective, _ = group.nets.objective(batch, group.loss)
                bad = ~np.isfinite(objective)
                if bad.any():
                    if not group.drop(bad, lambda r: TrainingDiverged(diverged), out):
                        return
                    order = order[~bad]
                group.opt.ascend(group.nets.grad)
        bad = ~np.isfinite(group.nets.theta).all(axis=1)
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


def train(env, spec: AgentSpec, seed: int) -> TrainResult:
    """Run PPO on `env` until total_timesteps or early stop; deterministic
    given seed. The population of one: see `train_population` for the env
    protocol and early stopping. Raises TrainingDiverged on non-finite
    losses or parameters."""
    result, = train_population([env], [spec], [seed])
    if isinstance(result, TrainingDiverged):
        raise result
    return result


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


def _layer_sizes(name, blob: dict, layers: int) -> list[int]:
    """The sizes of network `name`'s inputs and of each layer's outputs,
    checking that its weights and biases chain layer to layer."""
    sizes = []
    for i in range(layers):
        w, b = blob[f"{name}_w{i}"], blob[f"{name}_b{i}"]
        if w.ndim != 2 or b.shape != w.shape[1:]:
            raise ValueError(f"checkpoint {name} layer {i} has weight {w.shape} and bias "
                             f"{b.shape}")
        if not sizes:
            sizes.append(w.shape[0])
        elif w.shape[0] != sizes[-1]:
            raise ValueError(f"checkpoint {name} layer {i} takes {w.shape[0]} inputs, but "
                             f"layer {i - 1} has {sizes[-1]} outputs")
        sizes.append(w.shape[1])
    return sizes


def _check_networks(spec: AgentSpec, meta: dict, blob: dict):
    """Both networks chain, read one input size and have the spec's hidden
    sizes; the actor has one output per action and the critic one."""
    sizes = {name: _layer_sizes(name, blob, meta[f"{name}_layers"])
             for name in ("actor", "critic")}
    if sizes["actor"][0] != sizes["critic"][0]:
        raise ValueError(f"checkpoint actor has {sizes['actor'][0]} inputs but its critic "
                         f"has {sizes['critic'][0]}")
    for name, n_out in (("actor", len(spec.action_set)), ("critic", 1)):
        if sizes[name][1:] != [*spec.hidden_layers, n_out]:
            raise ValueError(f"checkpoint {name} has layer sizes {sizes[name][1:]} after its "
                             f"inputs, but its spec asks for {[*spec.hidden_layers, n_out]}")


def save_checkpoint(path, result: TrainResult):
    """Write `result` as a checkpoint that `load_checkpoint` reads back.

    Networks that the loader would refuse raise ValueError before the file
    is opened."""
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
    _check_networks(result.spec, meta, arrays)
    # through a handle: given a path, np.savez appends ".npz" to any other name
    with open(path, "wb") as fh:
        np.savez(fh, meta=json.dumps(meta), **arrays)


def load_checkpoint(path) -> TrainResult:
    archive = np.load(path, allow_pickle=False)
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ValueError(f"{path} is not a checkpoint archive")
    with archive:
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
    _check_networks(spec, meta, blob)
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
