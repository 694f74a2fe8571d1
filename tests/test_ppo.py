import csv
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from activelp import ppo
from activelp.env import run_policy
from activelp.harness import SearchGrid
from activelp.ppo import (ACTIVATIONS, Adam, AgentSpec, Categorical, Mlp, RolloutBatch,
                          TrainingDiverged, advantages, compute_returns,
                          ppo_objective, train, train_population)
import amm_oracle
from backprop import backward, forward_cached
from bandit import ContextualBandit
from greedy import stepped_policy
from stepper import Stepper


def params(net):
    """The network's tensors: each layer's weight, then its bias."""
    return [p for layer in zip(net.weights, net.biases) for p in layer]


def flat(net):
    """Every tensor of `params` in C order, concatenated: the values the
    network computes with, whether or not they live in `theta`."""
    return np.concatenate([p.ravel() for p in params(net)])


def forward_oracle(mlp, x):
    """Scalar-loop re-implementation of the forward pass of a single network."""
    out = np.empty((x.shape[0], mlp.biases[-1].size))
    for r in range(x.shape[0]):
        h = list(x[r])
        for layer, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            w, b = w[0], b[0, 0]
            z = []
            for j in range(w.shape[1]):
                acc = b[j]
                for k in range(w.shape[0]):
                    acc += h[k] * w[k, j]
                z.append(acc)
            if layer < len(mlp.weights) - 1:
                if mlp.activation == "relu":
                    h = [max(v, 0.0) for v in z]
                elif mlp.activation == "tanh":
                    h = [math.tanh(v) for v in z]
                else:
                    h = [1.0 / (1.0 + math.exp(-v)) for v in z]
            else:
                h = z
        out[r] = h
    return out


def random_batch(rng, actor, critic, n=8, logp_jitter=0.05):
    """A batch of one agent, (1, n, ...), for single networks."""
    obs = rng.standard_normal((n, actor.weights[0].shape[1]))
    n_actions = actor.biases[-1].shape[-1]
    actions = rng.integers(0, n_actions, n)
    dist = Categorical(actor.forward(obs[None])[0])
    old_logp = dist.log_prob(actions) + rng.uniform(-logp_jitter, logp_jitter, n)
    returns = rng.standard_normal(n)
    adv = rng.standard_normal(n)
    adv = (adv - adv.mean()) / max(adv.std(), 1e-12)
    return RolloutBatch(
        observations=obs[None], actions=actions[None], log_probs=old_logp[None],
        rewards=np.zeros((1, n)), values=np.zeros((1, n)), dones=np.zeros((1, n), dtype=bool),
        returns=returns[None], advantages=adv[None],
    )


def flat_grads(actor_grads, critic_grads):
    return np.concatenate([actor_grads.ravel(), critic_grads.ravel()])


def fd_grads(batch, actor, critic, clip, c1, c2, h=1e-5):
    """Central differences along each entry of the two `theta` buffers, so
    they line up with the analytic gradients only if those share its layout."""
    theta0 = np.concatenate([actor.theta.ravel(), critic.theta.ravel()])
    na = actor.theta.size

    def value(theta):
        a = Mlp(actor.weights, actor.biases, actor.activation)
        c = Mlp(critic.weights, critic.biases, critic.activation)
        a.theta[...] = theta[:na]
        c.theta[...] = theta[na:]
        J, _, _, _ = ppo_objective(batch, a, c, clip, c1, c2)
        return J[0]

    grad = np.empty_like(theta0)
    for i in range(theta0.size):
        up, down = theta0.copy(), theta0.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (value(up) - value(down)) / (2 * h)
    return grad


class TestMlp:
    def test_zero_params_zero_logits(self):
        mlp = Mlp([np.zeros((1, 4, 3)), np.zeros((1, 3, 2))],
                  [np.zeros((1, 1, 3)), np.zeros((1, 1, 2))], "relu")
        out = mlp.forward(np.ones((1, 5, 4)))
        assert np.all(out == 0.0)

    def test_identity_relu_kills_negative(self):
        mlp = Mlp([np.eye(3)[None], np.eye(3)[None]], [np.zeros((1, 1, 3))] * 2, "relu")
        out = mlp.forward(np.array([[[-1.0, -2.0, -3.0]]]))
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("activation", ["sigmoid", "relu", "tanh"])
    def test_forward_matches_naive_oracle(self, activation):
        rng = np.random.default_rng(41)
        mlp = Mlp.build([6, 5, 4, 3], activation, rng)
        x = rng.standard_normal((7, 6))
        got = mlp.forward(x[None])[0]
        want = forward_oracle(mlp, x)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_shape_mismatch_raises(self):
        rng = np.random.default_rng(45)
        mlp = Mlp.build([4, 3], "tanh", rng)
        for x in (np.ones((1, 2, 5)), np.ones((2, 2, 4)), np.ones((2, 4))):
            with pytest.raises(ValueError):
                mlp.forward(x)

    def test_orthogonal_init_near_isometry(self):
        rng = np.random.default_rng(47)
        mlp = Mlp.build([8, 8, 2], "tanh", rng, out_gain=0.01)
        w0 = mlp.weights[0][0]
        np.testing.assert_allclose(w0.T @ w0, np.eye(8), atol=1e-10)
        assert np.max(np.abs(mlp.weights[-1])) < 0.02


def is_fortran(a):
    return a.flags.f_contiguous and not a.flags.c_contiguous


class TestMlpBuffer:
    SIZES = [13, 4, 8, 2, 5]  # 4->8 and 2->5 are built Fortran-ordered

    def test_tensors_are_views_on_theta_in_build_order(self):
        mlp = Mlp.build(self.SIZES, "tanh", np.random.default_rng(3))
        assert mlp.theta.size == sum(p.size for p in params(mlp))
        for w, n_in, n_out in zip(mlp.weights, self.SIZES[:-1], self.SIZES[1:]):
            assert np.shares_memory(w, mlp.theta)
            assert w.shape == (1, n_in, n_out) and is_fortran(w[0]) == (n_in < n_out)
        for b in mlp.biases:
            assert np.shares_memory(b, mlp.theta)
        mlp.theta[...] = 0.0
        assert all(np.all(p == 0.0) for p in params(mlp))

    def test_construction_keeps_given_order_and_values(self):
        rng = np.random.default_rng(5)
        weights = [np.asfortranarray(rng.standard_normal((3, 4)))[None],
                   np.ascontiguousarray(rng.standard_normal((4, 2)))[None]]
        biases = [rng.standard_normal((1, 1, 4)), rng.standard_normal((1, 1, 2))]
        mlp = Mlp(weights, biases, "relu")
        assert is_fortran(mlp.weights[0][0]) and mlp.weights[1].flags.c_contiguous
        for got, want in zip(params(mlp), [weights[0], biases[0], weights[1], biases[1]]):
            np.testing.assert_array_equal(got, want)
            assert not np.shares_memory(got, want)

    def test_views_of_a_gradient_match_the_parameter_layout(self):
        mlp = Mlp.build(self.SIZES, "sigmoid", np.random.default_rng(9))
        vec = np.arange(mlp.theta.size, dtype=float).reshape(mlp.theta.shape)
        for view, p in zip(mlp.views(vec), params(mlp)):
            assert view.shape == p.shape and view.strides == p.strides

    def test_pickle_keeps_one_buffer_and_layout(self):
        import pickle

        mlp = Mlp.build(self.SIZES, "relu", np.random.default_rng(13))
        back = pickle.loads(pickle.dumps(mlp))
        np.testing.assert_array_equal(back.theta, mlp.theta)
        for a, b in zip(params(back), params(mlp)):
            assert np.shares_memory(a, back.theta) and a.strides == b.strides

    @pytest.mark.parametrize("activation", ["sigmoid", "relu", "tanh"])
    def test_population_rows_compute_as_their_networks(self, activation):
        """A stacked population's forward, cached forward and backward give,
        row by row, the bits of each member network on its own, for single
        rows and minibatches; `take` copies rows out."""
        rng = np.random.default_rng(17)
        nets = [Mlp.build(self.SIZES, activation, rng) for _ in range(3)]
        pop = Mlp.stack(nets)
        assert pop.theta.shape == (3, nets[0].theta.size)
        for n in (1, 64):
            x = rng.standard_normal((3, n, self.SIZES[0]))
            grad_out = rng.standard_normal((3, n, self.SIZES[-1]))
            out, cache = forward_cached(pop, x)
            grads = backward(pop, cache, grad_out)
            assert pop.forward(x).tobytes() == out.tobytes()
            for r, net in enumerate(nets):
                want, want_cache = forward_cached(net, x[r:r + 1])
                assert out[r].tobytes() == want[0].tobytes()
                want_grads = backward(net, want_cache, grad_out[r:r + 1])
                assert grads[r].tobytes() == want_grads[0].tobytes()
        back = pop.take([2, 0])
        assert back.theta.tobytes() == np.concatenate([nets[2].theta, nets[0].theta]).tobytes()
        assert not np.shares_memory(back.theta, pop.theta)

    @pytest.mark.parametrize("hidden", SearchGrid.default().hidden_layers)
    @pytest.mark.parametrize("activation", SearchGrid.default().activations)
    def test_forward_rows_is_bitwise_the_one_row_forward(self, activation, hidden):
        """Each row of `forward_rows` has the bits of the 1-row `forward` a
        per-step rollout makes, on every default grid shape: populations
        stacked from built networks and taken out of order (C- and
        F-ordered weights), perturbed parameters, and strided inputs."""
        rng = np.random.default_rng(29)
        for n_out in (1, 3, 4, 5):
            sizes = [13, *hidden, n_out]
            for size in (1, 2, 5):
                nets = [Mlp.build(sizes, activation, rng) for _ in range(size + 1)]
                pop = Mlp.stack(nets).take(list(range(size, 0, -1)))
                # a widening layer is built Fortran-ordered
                assert [is_fortran(w[0]) for w in pop.weights] == [
                    a < b for a, b in zip(sizes, sizes[1:])]
                pop.theta += 0.1 * rng.standard_normal(pop.theta.shape)
                for n in (1, 9):
                    obs = rng.standard_normal((size, n + 1, 13))
                    got = pop.forward_rows(obs[:, :n])
                    assert got.shape == (size, n, n_out)
                    for i in range(n):
                        assert got[:, i].tobytes() == pop.forward(obs[:, i:i + 1])[:, 0].tobytes()

    def test_checkpoint_keeps_layout(self, tmp_path):
        spec = AgentSpec(action_set=(0, 10, 20, 30, 40), activation="tanh",
                         hidden_layers=(4, 2), rollout_length=64, total_timesteps=64)
        actor = Mlp.build([5, 4, 2, 5], "tanh", np.random.default_rng(15), out_gain=0.01)
        critic = Mlp.build([5, 4, 2, 1], "tanh", np.random.default_rng(16))
        result = ppo.TrainResult(spec, actor, critic, [], 64, False)
        ppo.save_checkpoint(tmp_path / "agent.npz", result)
        loaded = ppo.load_checkpoint(tmp_path / "agent.npz")
        for net, back in ((actor, loaded.actor), (critic, loaded.critic)):
            np.testing.assert_array_equal(back.theta, net.theta)
            for a, b in zip(params(back), params(net)):
                assert np.shares_memory(a, back.theta) and a.strides == b.strides


class TestCategorical:
    def test_uniform_from_zero_logits(self):
        dist = Categorical(np.zeros((3, 5)))
        np.testing.assert_allclose(dist.probs, 0.2)
        np.testing.assert_allclose(dist.entropy(), math.log(5), rtol=1e-12)

    def test_extreme_logits_stable(self):
        dist = Categorical(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(dist.probs))
        assert dist.probs[0, 0] == pytest.approx(1.0)
        assert dist.probs[0, 1] == pytest.approx(0.0, abs=1e-300)

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(49)
        dist = Categorical(rng.standard_normal((100, 7)) * 5)
        np.testing.assert_allclose(dist.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_entropy_matches_direct_sum(self):
        rng = np.random.default_rng(51)
        logits = rng.standard_normal((50, 4)) * 3
        dist = Categorical(logits)
        want = np.array([-sum(p * math.log(p) for p in row if p > 0)
                         for row in dist.probs])
        np.testing.assert_allclose(dist.entropy(), want, atol=1e-12)

    def test_log_prob_of_samples_finite(self):
        rng = np.random.default_rng(53)
        dist = Categorical(rng.standard_normal((200, 5)))
        actions = np.array(ppo._draw(dist.probs, rng.random(200)))
        assert np.all(np.isfinite(dist.log_prob(actions)))

    def test_sampling_frequencies(self):
        rng = np.random.default_rng(55)
        logits = np.tile(np.log(np.array([0.5, 0.3, 0.2])), (20000, 1))
        u = rng.random(20000)
        counts = np.bincount(ppo._draw(Categorical(logits).probs, u), minlength=3)
        np.testing.assert_allclose(counts / 20000, [0.5, 0.3, 0.2], atol=0.02)

    def test_sample_counts_cdf_entries_at_or_below_u(self):
        probs = np.array([[0.25, 0.5, 0.25]] * 5)
        u = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_array_equal(ppo._draw(probs, u), [0, 1, 1, 2, 2])

    def test_draw_clamps_to_last_category(self):
        # the cumulative sums end below u, so every entry counts
        probs = np.array([[0.3, 0.3, 0.3]] * 2)
        np.testing.assert_array_equal(ppo._draw(probs, np.array([0.95, 1.0])), [2, 2])
        assert ppo._draw(np.array([[1.0]]), np.array([0.5])) == [0]

    def test_draw_matches_vectorized_rule(self):
        """The old `Categorical.sample`: count of np.cumsum entries <= u,
        clamped, on rows with ties, zeros, tiny and near-one probabilities;
        drawn for many rows at once."""
        rng = np.random.default_rng(57)
        rows = [Categorical(rng.standard_normal((1, k)) * scale).probs[0]
                for k in (1, 2, 3, 4, 5, 7) for scale in (0.01, 1.0, 30.0, 800.0)
                for _ in range(40)]
        rows += [np.array(r) for r in ([0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [1e-300, 1.0],
                                       [0.1] * 10, [1 / 3] * 3)]
        for probs in rows:
            cdf = np.cumsum(probs[None, :], axis=-1)
            us = np.array([*rng.random(20), *cdf[0], *np.nextafter(cdf[0], 0.0), 0.0, 1.0])
            got = ppo._draw(np.tile(probs, (us.size, 1)), us)
            for u, drawn in zip(us, got):
                idx = (np.array([u])[:, None] >= cdf).sum(axis=-1)
                want = int(np.minimum(idx, probs.size - 1)[0])
                assert drawn == want, (probs, u)

    def test_sampler_draws_each_row_with_its_steps_uniform(self):
        """A walk's `decide` gets rows of scattered, repeated and unordered
        steps: each row draws as a 1-row `_draw` with the uniform of its
        step."""
        rng = np.random.default_rng(59)
        u = rng.random(40)
        steps = np.array([3, 0, 39, 17, 17, 5, 38, 22, 1, 9, 9, 30])
        logits = rng.standard_normal((steps.size, 4)) * 2.0
        got = ppo._sampler(u)(logits, steps)
        want = [int(ppo._draw(Categorical(logits[i:i + 1]).probs, u[step:step + 1])[0])
                for i, step in enumerate(steps.tolist())]
        assert got.tolist() == want and len(set(want)) > 1


class TestByColumns:
    """`_by_columns` against numpy's own maxima and sums over the last
    axis, bit for bit, on random rows and on rows of special values. A NaN
    need only be a NaN: which of two NaNs of opposite sign a maximum keeps
    is not numpy's contract."""

    SPECIALS = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 1e300,
                         -1e300, 5e-324])

    @staticmethod
    def same(got, want):
        nan = np.isnan(want)
        return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
                and got[~nan].tobytes() == want[~nan].tobytes())

    @pytest.mark.parametrize("m", range(1, 10))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bitwise_numpy_reductions(self, m):
        rng = np.random.default_rng(200 + m)
        for rows in ((1, 2500), (2, 64), (16, 64), (7,), ()):
            shape = (*rows, m)
            # magnitudes over 16 decades, so a sum in another order rounds apart
            mixed = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
            for x in (mixed, rng.choice(self.SPECIALS, shape),
                      rng.choice(self.SPECIALS[2:4], shape)):
                assert self.same(ppo._by_columns(np.maximum, x), x.max(axis=-1))
                want = x.sum(axis=-1)
                if 2 <= m < 8:
                    # numpy adds onto +0.0, so only a row of -0.0 sums apart
                    negative_zeros = np.all((x == 0.0) & np.signbit(x), axis=-1)
                    want = np.where(negative_zeros, -0.0, want)
                assert self.same(ppo._by_columns(np.add, x), want)


class TestReturnsAndAdvantages:
    def test_hand_recursion(self):
        np.testing.assert_allclose(compute_returns([1.0, 1.0, 1.0], 0.5),
                                   [1.75, 1.5, 1.0])

    def test_gamma_zero(self):
        r = np.array([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(compute_returns(r, 0.0), r)

    def test_matches_naive_double_sum(self):
        rng = np.random.default_rng(57)
        rewards = rng.standard_normal(200)
        dones = rng.random(200) < 0.05
        gamma = 0.97
        got = compute_returns(rewards, gamma, dones)
        for t in (0, 13, 50, 199):
            want = 0.0
            discount = 1.0
            for k in range(t, 200):
                want += discount * rewards[k]
                if dones[k]:
                    break
                discount *= gamma
            assert got[t] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("gamma,dones", [
        (0.97, None),
        (0.99, "last"),  # an episode ends at the last step
        (1.0, "random"),
        (1.0, None),
    ])
    def test_bitwise_the_reference_recursion(self, gamma, dones):
        rng = np.random.default_rng(58)
        rewards = rng.standard_normal(300) * 10.0 ** rng.integers(-3, 4, 300)
        if dones == "last":
            dones = np.zeros(300, dtype=bool)
            dones[-1] = True
        elif dones == "random":
            dones = rng.random(300) < 0.05
            assert dones.any() and not dones[-1]
        got = compute_returns(rewards, gamma, dones)
        want = reference_returns(rewards, gamma, dones)
        assert got.dtype == want.dtype and got.shape == want.shape == (300,)
        assert got.tobytes() == want.tobytes()

    def test_advantages_zero_when_values_match(self):
        g = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(advantages(g, g), np.zeros(3))

    def test_advantages_of_zero_values(self):
        g = np.array([1.0, 2.0, 3.0])
        want = (g - g.mean()) / g.std()
        np.testing.assert_allclose(advantages(g, np.zeros(3)), want)

    def test_constant_offset_invariance(self):
        rng = np.random.default_rng(59)
        g = rng.standard_normal(50)
        v = rng.standard_normal(50)
        np.testing.assert_allclose(advantages(g, v), advantages(g, v + 7.3),
                                   atol=1e-12)


class TestObjective:
    def test_ratio_one_gives_mean_advantage(self):
        rng = np.random.default_rng(61)
        actor = Mlp.build([4, 6, 3], "tanh", rng)
        critic = Mlp.build([4, 6, 1], "tanh", rng)
        batch = random_batch(rng, actor, critic, logp_jitter=0.0)
        _, terms, _, _ = ppo_objective(batch, actor, critic, 0.2, 0.0, 0.0)
        assert terms["policy"][0] == pytest.approx(float(batch.advantages.mean()))

    def test_clip_plateau_kills_gradient(self):
        rng = np.random.default_rng(63)
        actor = Mlp.build([4, 3], "tanh", rng)
        critic = Mlp.build([4, 1], "tanh", rng)
        obs = rng.standard_normal((1, 1, 4))
        action = np.array([[1]])
        dist = Categorical(actor.forward(obs))
        # collection-time log-prob far below current: ratio >> 1 + eps
        old_logp = dist.log_prob(action) - 1.0
        batch = RolloutBatch(obs, action, old_logp, np.zeros((1, 1)), np.zeros((1, 1)),
                             np.zeros((1, 1), dtype=bool), np.zeros((1, 1)), np.array([[2.0]]))
        _, _, actor_grads, _ = ppo_objective(batch, actor, critic, 0.2, 0.0, 0.0)
        assert all(np.all(g == 0.0) for g in actor_grads)

    @pytest.mark.parametrize("activation,clip", [
        ("tanh", 0.5), ("sigmoid", 0.5), ("relu", 0.5),
        ("tanh", 0.1), ("sigmoid", 0.1),
    ])
    def test_gradients_match_finite_differences(self, activation, clip):
        rng = np.random.default_rng(65)
        for _ in range(4):
            actor = Mlp.build([3, 4, 2], activation, rng)
            critic = Mlp.build([3, 4, 1], activation, rng)
            batch = random_batch(rng, actor, critic)
            _, _, ga, gc = ppo_objective(batch, actor, critic, clip, 0.5, 0.01)
            analytic = flat_grads(ga, gc)
            numeric = fd_grads(batch, actor, critic, clip, 0.5, 0.01)
            err = np.linalg.norm(analytic - numeric) / max(
                np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
            assert err < 1e-4

    def test_huge_clip_equals_vanilla_policy_gradient(self):
        rng = np.random.default_rng(67)
        actor = Mlp.build([4, 5, 3], "tanh", rng)
        critic = Mlp.build([4, 5, 1], "tanh", rng)
        batch = random_batch(rng, actor, critic, n=16, logp_jitter=0.0)

        # vanilla policy gradient of mean(log pi(a|s) * A)
        logits, cache = forward_cached(actor, batch.observations)
        dist = Categorical(logits)
        one_hot = np.zeros_like(dist.probs)
        one_hot[0, np.arange(len(batch)), batch.actions[0]] = 1.0
        coeff = batch.advantages[..., None] / len(batch)
        vanilla = backward(actor, cache, coeff * (one_hot - dist.probs))

        _, _, ppo_grads, _ = ppo_objective(batch, actor, critic, 1e9, 0.0, 0.0)

        actor_a = Mlp(actor.weights, actor.biases, actor.activation)
        actor_b = Mlp(actor.weights, actor.biases, actor.activation)
        Adam(actor_a.theta, lr=1e-3).ascend(ppo_grads)
        Adam(actor_b.theta, lr=1e-3).ascend(vanilla)
        np.testing.assert_allclose(flat(actor_a), flat(actor_b), atol=1e-10)

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(69)
        actor = Mlp.build([4, 3], "tanh", rng)
        critic = Mlp.build([4, 1], "tanh", rng)
        batch = random_batch(rng, actor, critic, n=4).select(np.zeros((1, 0), dtype=int))
        with pytest.raises(ValueError):
            ppo_objective(batch, actor, critic, 0.2, 0.5, 0.01)


class TestGather:
    def test_gather_is_select_of_what_the_loss_reads(self):
        """`_gather` takes the observations, actions, log-probs, returns and
        advantages of `select`, bit for bit, and nothing else; `select`
        takes each agent's steps at its row of the order."""
        rng = np.random.default_rng(73)
        size, n = 3, 50
        batch = RolloutBatch(
            rng.standard_normal((size, n, 13)), rng.integers(0, 4, (size, n)),
            rng.standard_normal((size, n)), rng.standard_normal((size, n)),
            rng.standard_normal((size, n)), rng.random((size, n)) < 0.1,
            rng.standard_normal((size, n)), rng.standard_normal((size, n)))
        idx = np.stack([rng.permutation(n)[:16] for _ in range(size)])
        (got, _), want = batch._gather(idx), batch.select(idx)
        for name in ("observations", "actions", "log_probs", "returns", "advantages"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert got.rewards is None and got.values is None and got.dones is None
        for name in ("observations", "actions", "log_probs", "rewards", "values", "dones",
                     "returns", "advantages"):
            picked = getattr(want, name)
            for r in range(size):
                assert picked[r].tobytes() == getattr(batch, name)[r, idx[r]].tobytes(), name


BANDIT_SPEC = AgentSpec(
    action_set=(0, 10, 20), activation="tanh", hidden_layers=(8,),
    learning_rate=3e-3, clip_range=0.2, entropy_coef=1e-3, value_coef=0.5,
    gamma=0.5, rollout_length=2048, total_timesteps=20_000, epochs=10,
    minibatch_size=64, patience=10, improvement_threshold=0.005,
)


def greedy_pick_rate(result, target, n_contexts=1000, obs_dim=5, seed=1234):
    rng = np.random.default_rng(seed)
    obs = rng.standard_normal((n_contexts, obs_dim))
    picks = result.actor.forward(obs[None])[0].argmax(axis=1)
    return float(np.mean(picks == target))


class TestTrain:
    def test_bandit_learning_single_seed(self):
        result = train(ContextualBandit(seed=0), BANDIT_SPEC, seed=0)
        assert greedy_pick_rate(result, target=2) >= 0.9

    def test_zero_learning_rate_keeps_parameters(self):
        spec = AgentSpec(action_set=(0, 10), activation="tanh", hidden_layers=(4,),
                         learning_rate=0.0, rollout_length=256, total_timesteps=512,
                         patience=1000)
        rng = np.random.default_rng(0)
        fresh_actor = Mlp.build([5, 4, 3], "tanh", rng, out_gain=0.01)
        fresh_critic = Mlp.build([5, 4, 1], "tanh", rng)
        result = train(ContextualBandit(seed=3), spec, seed=0)
        np.testing.assert_array_equal(flat(result.actor), flat(fresh_actor))
        np.testing.assert_array_equal(flat(result.critic), flat(fresh_critic))

    def test_seeded_determinism(self):
        spec = AgentSpec(action_set=(0, 10), activation="relu", hidden_layers=(6,),
                         learning_rate=1e-3, rollout_length=512, total_timesteps=2048)
        a = train(ContextualBandit(seed=5), spec, seed=11)
        b = train(ContextualBandit(seed=5), spec, seed=11)
        np.testing.assert_array_equal(flat(a.actor), flat(b.actor))
        np.testing.assert_array_equal(flat(b.critic), flat(a.critic))
        assert a.timesteps == b.timesteps
        assert [s.objective for s in a.curve] == [s.objective for s in b.curve]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        class HugeRewardBandit(ContextualBandit):
            def rewards(self, lo, hi):
                return np.full(super().rewards(lo, hi).size, 1e200)

        spec = AgentSpec(action_set=(0, 10), activation="tanh", hidden_layers=(4,),
                         learning_rate=1e-2, rollout_length=256, total_timesteps=2048)
        with pytest.raises(TrainingDiverged):
            train(HugeRewardBandit(seed=7), spec, seed=0)

    def test_learns_to_deploy_when_fees_dominate(self):
        # 30bp fee tier at low vol makes in-range provision EV-positive,
        # so the trained greedy policy should hold an active position
        from activelp import data, env
        from activelp.amm import PoolSpec
        from activelp.env import EnvConfig, LPEnv, MarketTape

        pool = PoolSpec(fee_rate=0.003, tick_spacing=10, gas_cost=5.0)
        series = data.gbm_generate(seed=21, n_hours=1200, p_start=3000.0,
                                   drift=0.0, vol=0.003)
        config = EnvConfig(pool=pool, action_set=(0, 20, 50), x0=2.0, data=MarketTape(series))
        spec = AgentSpec(action_set=(0, 20, 50), activation="tanh",
                         hidden_layers=(8, 4), learning_rate=3e-3, clip_range=0.2,
                         entropy_coef=1e-3, gamma=0.99, rollout_length=1032,
                         total_timesteps=30_000, patience=100)
        result = train(LPEnv(config), spec, seed=0)
        trace = env.run_policy(LPEnv(config), result.actor)
        assert int(np.sum(trace.action > 0)) > 0
        assert trace.total_reward > 0
        assert float(trace.fee.sum()) > float(trace.lvr.sum() + trace.gas.sum())

    def test_early_stopping_fires_on_flat_rewards(self):
        class ZeroBandit(ContextualBandit):
            def rewards(self, lo, hi):
                return np.zeros(super().rewards(lo, hi).size)

        spec = AgentSpec(action_set=(0, 10), activation="tanh", hidden_layers=(4,),
                         learning_rate=1e-3, rollout_length=256,
                         total_timesteps=100_000, patience=3)
        result = train(ZeroBandit(seed=9), spec, seed=0)
        assert result.stopped_early
        assert result.timesteps < 10_000


class TestAgentSpec:
    @pytest.mark.parametrize("key,bad", [
        ("rollout_length", "100"), ("total_timesteps", 100.0), ("epochs", 0),
        ("minibatch_size", True), ("patience", -1), ("total_timesteps", None),
        ("learning_rate", "1e-3"), ("improvement_threshold", None), ("gamma", True),
        ("hidden_layers", [8.5]), ("hidden_layers", 8), ("hidden_layers", (4, 0)),
        ("hidden_layers", ["8"]), ("action_set", [0, "10", 20]), ("action_set", (0, True)),
        ("learning_rate", math.nan), ("learning_rate", math.inf), ("value_coef", math.nan),
        ("entropy_coef", math.inf), ("improvement_threshold", math.nan),
    ])
    def test_rejects_bad_types_and_counts_naming_the_key(self, key, bad):
        with pytest.raises(ValueError, match=key):
            AgentSpec(**{key: bad})

    def test_accepts_numpy_integers(self):
        assert AgentSpec(total_timesteps=np.int64(5)).total_timesteps == 5
        assert AgentSpec(hidden_layers=[np.int64(4)]).hidden_layers == (4,)


class TestPersistence:
    def test_checkpoint_round_trip(self, tmp_path):
        # three actions, as the bandit's: a checkpoint's actor has one output per action
        spec = AgentSpec(action_set=(0, 10, 20), activation="sigmoid", hidden_layers=(4,),
                         learning_rate=1e-3, rollout_length=256, total_timesteps=512)
        result = train(ContextualBandit(seed=1), spec, seed=2)
        path = tmp_path / "agent.npz"
        ppo.save_checkpoint(path, result)
        loaded = ppo.load_checkpoint(path)
        assert loaded.spec == spec
        np.testing.assert_array_equal(flat(loaded.actor), flat(result.actor))
        np.testing.assert_array_equal(flat(loaded.critic), flat(result.critic))
        assert loaded.timesteps == result.timesteps

    def test_save_refuses_networks_the_loader_would(self, tmp_path):
        # the bandit has three actions, so the actor trained on it has three
        # outputs: one more than the spec's action set
        spec = AgentSpec(action_set=(0, 10), activation="tanh", hidden_layers=(4,),
                         learning_rate=1e-3, rollout_length=256, total_timesteps=256)
        result = train(ContextualBandit(seed=1), spec, seed=2)
        path = tmp_path / "agent.npz"
        with pytest.raises(ValueError, match=r"actor has layer sizes \[4, 3\] after its inputs, "
                                             r"but its spec asks for \[4, 2\]"):
            ppo.save_checkpoint(path, result)
        assert not path.exists()

    def test_unsupported_checkpoint_version_rejected(self, tmp_path):
        spec = AgentSpec(action_set=(0, 10, 20), activation="tanh", hidden_layers=(4,),
                         learning_rate=1e-3, rollout_length=256, total_timesteps=256)
        result = train(ContextualBandit(seed=1), spec, seed=2)
        path = tmp_path / "agent.npz"
        ppo.save_checkpoint(path, result)
        blob = dict(np.load(path, allow_pickle=False))
        meta = json.loads(str(blob["meta"]))
        meta["version"] = 999
        blob["meta"] = json.dumps(meta)
        np.savez(path, **blob)
        with pytest.raises(ValueError, match="version"):
            ppo.load_checkpoint(path)

    @pytest.mark.parametrize("arrays,match", [
        ({"actor_w1": (4, 2), "actor_b1": (2,)}, r"actor has layer sizes \[4, 2\] after its "
                                                 r"inputs, but its spec asks for \[4, 3\]"),
        ({"actor_w1": (4, 4), "actor_b1": (4,)}, r"actor has layer sizes \[4, 4\]"),
        ({"critic_w1": (4, 3), "critic_b1": (3,)}, r"critic has layer sizes \[4, 3\] after its "
                                                   r"inputs, but its spec asks for \[4, 1\]"),
        ({"actor_w0": (13, 5), "actor_b0": (5,), "actor_w1": (5, 3)},
         r"actor has layer sizes \[5, 3\]"),
        ({"actor_w1": (5, 3)}, "actor layer 1 takes 5 inputs, but layer 0 has 4 outputs"),
        ({"critic_b0": (5,)}, r"critic layer 0 has weight \(13, 4\) and bias \(5,\)"),
        ({"actor_w0": (13,)}, r"actor layer 0 has weight \(13,\)"),
        ({"critic_w0": (12, 4)}, "actor has 13 inputs but its critic has 12"),
    ], ids=["actor-2-outputs", "actor-4-outputs", "critic-3-outputs", "hidden-5",
            "weights-do-not-chain", "bias-does-not-match", "1-d-weight", "critic-12-inputs"])
    def test_networks_that_disagree_with_their_spec_rejected(self, tmp_path, arrays, match):
        """Each network's layers chain, both read one input size and have the
        spec's hidden sizes, and the actor has one output per action."""
        rng = np.random.default_rng(4)
        spec = AgentSpec(action_set=(0, 10, 20), hidden_layers=(4,))
        path = tmp_path / "agent.npz"
        ppo.save_checkpoint(path, ppo.TrainResult(spec, Mlp.build([13, 4, 3], "tanh", rng),
                                                  Mlp.build([13, 4, 1], "tanh", rng), [], 0,
                                                  False))
        blob = dict(np.load(path, allow_pickle=False))
        blob.update({name: np.zeros(shape) for name, shape in arrays.items()})
        np.savez(path, **blob)
        with pytest.raises(ValueError, match=match):
            ppo.load_checkpoint(path)

    def test_v1_file_with_gae_lambda_loads(self, tmp_path):
        """A checkpoint as earlier versions wrote it, with the never-read
        `gae_lambda` in its spec."""
        rng = np.random.default_rng(21)
        actor = Mlp.build([5, 4, 2, 3], "relu", rng, out_gain=0.01)
        critic = Mlp.build([5, 4, 2, 1], "relu", rng)
        spec = {"action_set": [0, 10, 20], "activation": "relu", "hidden_layers": [4, 2],
                "learning_rate": 0.001, "clip_range": 0.1, "entropy_coef": 0.0001,
                "value_coef": 0.5, "gamma": 0.999, "gae_lambda": None,
                "rollout_length": 256, "total_timesteps": 512, "epochs": 10,
                "minibatch_size": 64, "patience": 5, "improvement_threshold": 0.01}
        meta = {"version": 1, "spec": spec, "activation": "relu", "actor_layers": 3,
                "critic_layers": 3, "timesteps": 512, "stopped_early": True}
        arrays = {}
        for name, net in (("actor", actor), ("critic", critic)):
            for i, (w, b) in enumerate(zip(net.weights, net.biases)):
                arrays[f"{name}_w{i}"], arrays[f"{name}_b{i}"] = w[0], b[0, 0]
        path = tmp_path / "v1.npz"
        np.savez(path, meta=json.dumps(meta), **arrays)
        loaded = ppo.load_checkpoint(path)
        assert loaded.spec == AgentSpec(
            action_set=(0, 10, 20), activation="relu", hidden_layers=(4, 2),
            learning_rate=1e-3, clip_range=0.1, entropy_coef=1e-4, gamma=0.999,
            rollout_length=256, total_timesteps=512)
        assert (loaded.timesteps, loaded.stopped_early) == (512, True)
        for net, back in ((actor, loaded.actor), (critic, loaded.critic)):
            assert flat(back).tobytes() == flat(net).tobytes()
            for a, b in zip(params(back), params(net)):
                assert a.strides == b.strides

    def test_curve_csv(self, tmp_path):
        spec = AgentSpec(action_set=(0, 10), activation="tanh", hidden_layers=(4,),
                         learning_rate=1e-3, rollout_length=256, total_timesteps=1024)
        result = train(ContextualBandit(seed=1), spec, seed=2)
        path = tmp_path / "curve.csv"
        ppo.save_training_curve(path, result.curve)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("update,timesteps,mean_episode_reward")
        assert len(lines) == 1 + len(result.curve)

    @pytest.mark.parametrize("n_rows", [0, 13])
    def test_curve_csv_bytes_match_row_writer(self, tmp_path, n_rows):
        values = [-0.0, 0.0, 5e-324, 1e16, 1e-300, 0.1, 2.5e15, -7.25, 3000.123456789,
                  1.7976931348623157e308, math.nan, math.inf, -math.inf]
        curve = [ppo.UpdateStats(k + 1, 256 * (k + 1), math.nan if k % 3 == 0 else values[k],
                                 values[-1 - k], values[(k + 4) % 13], values[(k + 7) % 13],
                                 values[(k + 10) % 13]) for k in range(n_rows)]
        path = tmp_path / "curve.csv"
        ppo.save_training_curve(path, curve)
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["update", "timesteps", "mean_episode_reward",
                             "objective", "policy_term", "value_loss", "entropy"])
            for row in curve:
                writer.writerow([row.update, row.timesteps, repr(row.mean_episode_reward),
                                 repr(row.objective), repr(row.policy_term),
                                 repr(row.value_loss), repr(row.entropy)])
        assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()


# ---------------------------------------------------------------------------
# reference trainer: the single-agent loop as it stood before the lean rollout
# step, the flat-buffer Adam and the population axis, on its own copies of
# the 2-D network, softmax, batch, returns and objective; the bitwise oracle
# for `train` and `train_population`


class ReferenceMlp:
    """The single-network MLP as it stood before the population axis: 2-D
    inputs and weights. It computes with the arrays it is given, one per
    tensor, as networks did before they shared a flat buffer; `theta` only
    lends its layout to the gradient views."""

    def __init__(self, weights, biases, activation):
        if activation not in ("sigmoid", "relu", "tanh"):
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
        self.weights = list(weights)
        self.biases = list(biases)

    @classmethod
    def build(cls, sizes, activation, rng, out_gain: float = 1.0) -> "ReferenceMlp":
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


def reference_softmax(logits):
    """(probs, log-probs) over the last axis, stabilized by max subtraction."""
    z = logits - logits.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    total = ez.sum(axis=-1, keepdims=True)
    return ez / total, z - np.log(total)


@dataclass
class ReferenceCategorical:
    """Softmax distribution over rows of logits."""

    logits: np.ndarray

    def __post_init__(self):
        self.probs, self.logps = reference_softmax(self.logits)

    def log_prob(self, actions: np.ndarray) -> np.ndarray:
        return self.logps[np.arange(self.logps.shape[0]), actions]

    def entropy(self) -> np.ndarray:
        return -(self.probs * self.logps).sum(axis=-1)


@dataclass
class ReferenceBatch:
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

    def select(self, idx) -> "ReferenceBatch":
        return ReferenceBatch(
            self.observations[idx], self.actions[idx], self.log_probs[idx],
            self.rewards[idx], self.values[idx], self.dones[idx],
            self.returns[idx], self.advantages[idx],
        )


def reference_objective(batch: ReferenceBatch, actor: ReferenceMlp, critic: ReferenceMlp,
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
    dist = ReferenceCategorical(logits)
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


def reference_returns(rewards, gamma: float, dones=None) -> np.ndarray:
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


def reference_advantages(returns, values) -> np.ndarray:
    """Monte-Carlo advantage G - V, batch-normalized to zero mean, unit std."""
    returns = np.asarray(returns, dtype=float)
    values = np.asarray(values, dtype=float)
    if returns.shape != values.shape:
        raise ValueError("returns/values shape mismatch")
    adv = returns - values
    adv = adv - adv.mean()
    std = adv.std()
    return adv / std if std > 1e-12 else adv


class ReferenceAdam:
    """Adam with one Python step per tensor."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def ascend(self, grads):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m[...] = self.beta1 * m + (1.0 - self.beta1) * g
            v[...] = self.beta2 * v + (1.0 - self.beta2) * (g * g)
            p += self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def reference_collect_rollout(env, actor, critic, rng, n_steps, obs, episode_returns, running):
    """A Categorical, two cached forwards and one rng.random(1) per step; `env`
    is a `Stepper`, so every reward comes from the scalar amm formulas."""
    obs_buf = np.empty((n_steps, env.obs_dim))
    act_buf = np.empty(n_steps, dtype=int)
    lp_buf = np.empty(n_steps)
    rew_buf = np.empty(n_steps)
    val_buf = np.empty(n_steps)
    done_buf = np.zeros(n_steps, dtype=bool)
    for i in range(n_steps):
        row = obs[None, :]
        dist = ReferenceCategorical(actor.forward_cached(row)[0])
        cdf = np.cumsum(dist.probs, axis=-1)
        u = rng.random(dist.probs.shape[0])
        idx = (u[:, None] >= cdf).sum(axis=-1)
        action = int(np.minimum(idx, dist.probs.shape[1] - 1)[0])
        value = float(critic.forward_cached(row)[0][0, 0])
        out = env.step(action)
        obs_buf[i] = obs
        act_buf[i] = action
        lp_buf[i] = float(dist.log_prob(np.array([action]))[0])
        rew_buf[i] = out.reward
        val_buf[i] = value
        running[0] += out.reward
        if out.done:
            done_buf[i] = True
            episode_returns.append(running[0])
            running[0] = 0.0
            obs = env.reset()
        else:
            obs = out.observation
    return ReferenceBatch(obs_buf, act_buf, lp_buf, rew_buf, val_buf, done_buf), obs


def reference_train(env, spec, seed):
    """`train` without early stopping: (actor, critic, curve objectives)."""
    rng = np.random.default_rng(seed)
    sizes = [env.obs_dim, *spec.hidden_layers]
    actor = ReferenceMlp.build(sizes + [env.n_actions], spec.activation, rng, out_gain=0.01)
    critic = ReferenceMlp.build(sizes + [1], spec.activation, rng)
    opt_actor = ReferenceAdam(params(actor), spec.learning_rate)
    opt_critic = ReferenceAdam(params(critic), spec.learning_rate)
    coefs = (spec.clip_range, spec.value_coef, spec.entropy_coef)
    obs = env.reset()
    running, episode_returns, objectives = [0.0], [], []
    for start in range(0, spec.total_timesteps, spec.rollout_length):
        n = min(spec.rollout_length, spec.total_timesteps - start)
        batch, obs = reference_collect_rollout(env, actor, critic, rng, n, obs,
                                               episode_returns, running)
        batch.returns = reference_returns(batch.rewards, spec.gamma, batch.dones)
        batch.advantages = reference_advantages(batch.returns, batch.values)
        for _ in range(spec.epochs):
            order = rng.permutation(n)
            for lo in range(0, n, spec.minibatch_size):
                mb = batch.select(order[lo:lo + spec.minibatch_size])
                _, _, ga, gc = reference_objective(mb, actor, critic, *coefs)
                opt_actor.ascend(actor.views(ga))
                opt_critic.ascend(critic.views(gc))
        objectives.append(float(reference_objective(batch, actor, critic, *coefs)[0]))
    return actor, critic, objectives


class TestGridOracle:
    def test_train_matches_reference_bitwise_on_every_grid_shape(self):
        from activelp import data
        from activelp.amm import PoolSpec
        from activelp.env import MIN_HISTORY, EnvConfig, LPEnv, MarketTape
        from activelp.harness import SearchGrid

        grid = SearchGrid.default()
        pool = PoolSpec(fee_rate=0.003, tick_spacing=10, gas_cost=1.0)
        # 40-step episodes, so rollouts cross episode ends
        tape = MarketTape(data.gbm_generate(seed=4, n_hours=MIN_HISTORY + 40,
                                            p_start=3000.0, drift=0.0, vol=0.004))
        checked = 0
        # 3, 4 and 5 actions put Fortran-ordered output layers on the
        # narrow hidden widths
        for action_set in ((0, 10, 20), (0, 10, 20, 30), (0, 10, 20, 30, 40)):
            config = EnvConfig(pool=pool, action_set=action_set, x0=2.0, data=tape)
            for activation in grid.activations:
                for hidden in grid.hidden_layers:
                    spec = AgentSpec(action_set=action_set, activation=activation,
                                     hidden_layers=hidden, learning_rate=1e-2,
                                     rollout_length=48, total_timesteps=96, epochs=2,
                                     minibatch_size=16, patience=10**6)
                    got = train(LPEnv(config), spec, seed=17)
                    actor, critic, objectives = reference_train(Stepper(config), spec, seed=17)
                    label = (action_set, activation, hidden)
                    assert np.array_equal(flat(got.actor), flat(actor)), label
                    assert np.array_equal(flat(got.critic), flat(critic)), label
                    assert [s.objective for s in got.curve] == objectives, label
                    checked += 1
        assert checked == 3 * len(grid.activations) * len(grid.hidden_layers)


def lp_config(action_set=(0, 10, 20), n_steps=40):
    from activelp import data
    from activelp.amm import PoolSpec
    from activelp.env import MIN_HISTORY, EnvConfig, MarketTape

    pool = PoolSpec(fee_rate=0.003, tick_spacing=10, gas_cost=1.0)
    tape = MarketTape(data.gbm_generate(seed=4, n_hours=MIN_HISTORY + n_steps,
                                        p_start=3000.0, drift=0.0, vol=0.004))
    return EnvConfig(pool=pool, action_set=action_set, x0=2.0, data=tape)


def test_run_policy_takes_the_largest_logit():
    """`run_policy` decides each step with the argmax of the actor's logits
    on that step's observation, as the per-step oracle does."""
    from activelp.env import LPEnv

    # a spread-out policy, so the greedy pass takes every action
    actor = Mlp.build([13, 8, 3], "tanh", np.random.default_rng(8), out_gain=3.0)
    trace = run_policy(LPEnv(lp_config()), actor)
    want = stepped_policy(LPEnv(lp_config()), actor).action.tolist()
    assert len(want) == 40 and set(want) == {0, 1, 2}
    assert trace.action.tolist() == want


class TestDecideThenScore:
    """The rollout decides with `walk` and scores with `rewards`; the
    reference steps the scalar `Stepper`. Rollout lengths 1 and 7 cut the 40-step
    episodes at many places (positions stay open across the cuts), 40 ends
    every rollout with its episode."""

    @pytest.mark.parametrize("rollout_length", [1, 7, 40])
    def test_rollouts_match_reference(self, rollout_length):
        """A group of two agents, each against its own reference rollout."""
        from activelp.env import LPEnv

        config = lp_config()
        rng = np.random.default_rng(5)
        # spread-out policies
        actors = [ReferenceMlp.build([13, 8, 3], "tanh", rng, out_gain=3.0) for _ in range(2)]
        critics = [ReferenceMlp.build([13, 8, 1], "tanh", rng) for _ in range(2)]
        group = ppo._Group(
            [ppo._Agent(r, AgentSpec(action_set=config.action_set), LPEnv(config),
                        np.random.default_rng(6 + r)) for r in range(2)],
            Mlp.stack([Mlp([w[None] for w in a.weights], [b[None, None] for b in a.biases],
                           "tanh") for a in actors]),
            Mlp.stack([Mlp([w[None] for w in c.weights], [b[None, None] for b in c.biases],
                           "tanh") for c in critics]))
        refs = [Stepper(config) for _ in range(2)]
        rngs = [np.random.default_rng(6 + r) for r in range(2)]
        obs = [e.reset() for e in refs]
        returns = [[], []]
        running = [[0.0], [0.0]]
        n_rollouts = -(-130 // rollout_length)
        taken = set()
        for _ in range(n_rollouts):
            group.rollout(rollout_length)
            for r, agent in enumerate(group.agents):
                want, obs[r] = reference_collect_rollout(refs[r], actors[r], critics[r], rngs[r],
                                                         rollout_length, obs[r], returns[r],
                                                         running[r])
                for name in ("observations", "actions", "log_probs", "rewards", "values",
                             "dones"):
                    a, b = getattr(group.batch, name)[r], getattr(want, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
                assert agent.env._observe().tobytes() == obs[r].tobytes()
                assert agent.episode_return == running[r][0]
                taken.update(group.batch.actions[r].tolist())
        for r, agent in enumerate(group.agents):
            assert agent.returns == returns[r]
            assert len(returns[r]) == n_rollouts * rollout_length // 40
        assert taken == {0, 1, 2}

    @pytest.mark.parametrize("rollout_length", [1, 7, 40])
    def test_train_matches_reference(self, rollout_length):
        from activelp.env import LPEnv

        config = lp_config()
        spec = AgentSpec(action_set=config.action_set, activation="tanh", hidden_layers=(8, 4),
                         learning_rate=1e-2, rollout_length=rollout_length,
                         total_timesteps=120, epochs=2, minibatch_size=16, patience=10**6)
        got = train(LPEnv(config), spec, seed=17)
        actor, critic, objectives = reference_train(Stepper(config), spec, seed=17)
        assert np.array_equal(flat(got.actor), flat(actor))
        assert np.array_equal(flat(got.critic), flat(critic))
        assert [s.objective for s in got.curve] == objectives

    def test_trains_on_the_four_member_protocol(self):
        """`train` needs of its env only `obs_dim`, `n_actions`, `reset` and
        `walk`: on an object holding just those it trains bitwise as on the
        LPEnv they come from."""
        from types import SimpleNamespace

        from activelp.env import LPEnv

        spec = AgentSpec(action_set=(0, 10, 20), hidden_layers=(4,), rollout_length=30,
                         total_timesteps=90, epochs=1, patience=10**6)
        e = LPEnv(lp_config())
        walk_only = SimpleNamespace(obs_dim=e.obs_dim, n_actions=e.n_actions, reset=e.reset,
                                    walk=e.walk)
        got, want = train(walk_only, spec, seed=3), train(LPEnv(lp_config()), spec, seed=3)
        assert flat(got.actor).tobytes() == flat(want.actor).tobytes()
        assert flat(got.critic).tobytes() == flat(want.critic).tobytes()
        assert repr(got.curve) == repr(want.curve)

    def test_no_per_step_scoring_or_cached_forward(self, monkeypatch):
        """Deterministic guard: training a group on LPEnvs and the greedy
        passes score each episode segment with one call of the `amm` kernel,
        never step the scalar oracles or `advance`, make no actor forward
        per step, call the pair's cached forward only in the update, and the
        group shares each critic forward and objective."""
        from activelp import amm, env
        from activelp.env import LPEnv

        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        in_update = [False]
        objective = ppo._ActorCritic.objective

        def update_objective(*args, **kwargs):
            in_update[0] = True
            try:
                return objective(*args, **kwargs)
            finally:
                in_update[0] = False

        forward_cached = ppo._ActorCritic.forward_cached

        def rollout_forward_cached(self, x):
            if not in_update[0]:
                calls["forward_cached"] = calls.get("forward_cached", 0) + 1
            return forward_cached(self, x)

        for module in (amm, amm_oracle):
            for name in ("fee_for_move", "lvr_penalty"):
                monkeypatch.setattr(module, name, counted(f"{module.__name__}.{name}",
                                                          getattr(module, name)))
        monkeypatch.setattr(env, "_score", counted("_score", env._score))
        monkeypatch.setattr(ppo._ActorCritic, "objective", counted("objective", update_objective))
        monkeypatch.setattr(ppo._ActorCritic, "forward_cached", rollout_forward_cached)
        monkeypatch.setattr(Mlp, "forward", counted("forward", Mlp.forward))
        monkeypatch.setattr(Mlp, "forward_rows", counted("forward_rows", Mlp.forward_rows))
        monkeypatch.setattr(LPEnv, "advance", counted("advance", LPEnv.advance))

        envs = [LPEnv(lp_config()) for _ in range(2)]
        spec = AgentSpec(action_set=(0, 10, 20), rollout_length=30, total_timesteps=100,
                         epochs=1, patience=10**6)
        results = train_population(envs, [spec, replace(spec, learning_rate=1e-3)], [3, 4])
        # two agents over 100 steps in 4 rollouts of at most one minibatch:
        # no actor forward per step, one actor and one critic forward per
        # update for the curve, and one objective per minibatch for the group
        assert "advance" not in calls
        assert calls.pop("forward") == 2 * 4
        assert calls.pop("objective") == 4
        # one stacked per-row critic forward per rollout (4); per agent, one
        # walk per episode segment (6), each of which starts with a hold
        # chunk, under no range or one carried in from the walk before (12),
        # builds one hold ladder (a walk is shorter than a block), whose
        # levels are 33 calls over the 12 ladders, and reads one more chunk
        # for the one range that the ladders left unresolved (1); one
        # stacked per-row actor forward per rollout for the logits (4)
        assert calls.pop("forward_rows") == 4 + 2 * 6 + 33 + 1 + 4
        # a rollout scores each episode segment it holds once: per agent,
        # 4 rollouts over 40-step episodes cut 6 segments, and each is one
        # kernel call for fees and one for LVR, not one per step
        assert calls.pop("_score") == 2 * 6
        assert calls.pop("activelp.amm.fee_for_move") == 2 * 6
        assert calls.pop("activelp.amm.lvr_penalty") == 2 * 6
        for e, result in zip(envs, results):
            trace = env.run_policy(e, result.actor)
            assert trace.t.size == 40
        # the greedy passes make no 1-row forward: per episode, one chunk
        # for the stretch with no range before the first deploy, one hold
        # ladder (40 steps fit in one block) that stops after its two
        # levels, as more than half of the second level's rows hold, and
        # one chunk per range held at both levels, 3 in each episode
        assert "forward" not in calls and "advance" not in calls
        assert calls.pop("forward_rows") == 2 * (1 + 2 + 3)
        assert calls.pop("_score") == calls.pop("activelp.amm.fee_for_move") == 2
        assert calls.pop("activelp.amm.lvr_penalty") == 2 and calls == {}
        # the oracle counters do count, and the Stepper decides with `advance`
        s = Stepper(lp_config())
        s.reset()
        s.step(1)
        assert calls == {"amm_oracle.fee_for_move": 1, "amm_oracle.lvr_penalty": 1,
                         "advance": 1}


def as_mlp(net: ReferenceMlp) -> Mlp:
    return Mlp([w[None] for w in net.weights], [b[None, None] for b in net.biases],
               net.activation)


def longest_hold(actions) -> int:
    """The most steps in a row that hold an open range."""
    deploys = np.flatnonzero(actions)
    return int((np.diff(np.append(deploys, actions.size)) - 1).max()) if deploys.size else 0


class TestWalkBoundaries:
    """The sampled walk of `_Group.rollout` with blocks of 5 steps and hold
    chunks from 2 rows, so blocks cut the 40-step episodes and the chunks of
    a long hold cross block ends, against the scalar reference rollout. A
    rollout length of 13 cuts episodes and starts walks in every state; 40
    ends each episode exactly at a rollout's end."""

    BLOCK = 5
    HOLD_BIAS = {"hold": 4.0, "every": -1e3}  # added to the hold logit

    @pytest.mark.parametrize("rollout_length", [13, 40])
    @pytest.mark.parametrize("kind", ["hold", "every"])
    def test_sampled_walk_matches_reference(self, monkeypatch, kind, rollout_length):
        from activelp import env
        from activelp.env import LPEnv

        monkeypatch.setattr(env, "_POLICY_BLOCK", self.BLOCK)
        monkeypatch.setattr(env, "_HOLD_CHUNK", 2)
        config = lp_config()
        rng = np.random.default_rng(9)
        actor = ReferenceMlp.build([13, 8, 3], "tanh", rng, out_gain=3.0)
        actor.biases[-1][0] += self.HOLD_BIAS[kind]
        critic = ReferenceMlp.build([13, 8, 1], "tanh", rng)
        group = ppo._Group([ppo._Agent(0, AgentSpec(action_set=config.action_set),
                                       LPEnv(config), np.random.default_rng(6))],
                           as_mlp(actor), as_mlp(critic))
        ref, ref_rng = Stepper(config), np.random.default_rng(6)
        obs, returns, running = ref.reset(), [], [0.0]
        n_rollouts = -(-200 // rollout_length)
        taken = []
        for _ in range(n_rollouts):
            group.rollout(rollout_length)
            want, obs = reference_collect_rollout(ref, actor, critic, ref_rng, rollout_length,
                                                  obs, returns, running)
            for name in ("observations", "actions", "log_probs", "rewards", "values", "dones"):
                a, b = getattr(group.batch, name)[0], getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            agent = group.agents[0]
            assert agent.env._observe().tobytes() == obs.tobytes()
            assert agent.episode_return == running[0]
            if rollout_length == 40:
                assert want.dones[-1] and want.dones.sum() == 1
            taken.extend(want.actions.tolist())
        assert agent.returns == returns and len(returns) == n_rollouts * rollout_length // 40
        taken = np.array(taken)
        if kind == "every":
            assert np.all(taken != 0)
        else:
            # a range held past the table's two steps for longer than a
            # block: its hold chunks run past the end of the block whose
            # table decided its first steps
            assert np.count_nonzero(taken) > 10 and longest_hold(taken) > self.BLOCK + 2


def record_ladders(monkeypatch) -> list:
    """Wrap `env._ladder`; the returned list gets, per ladder, its number
    of levels (its `forward_rows` calls) and whether it left a range
    unresolved, holding at a step before the walk's end."""
    from activelp import env

    ladders, calls = [], [0]
    ladder, forward_rows = env._ladder, Mlp.forward_rows

    def counted(self, x):
        calls[0] += 1
        return forward_rows(self, x)

    def recorded(e, actor, decide, o, end, t0):
        before = calls[0]
        out = ladder(e, actor, decide, o, end, t0)
        exit_at, exit_action = out[1:3]
        ladders.append((calls[0] - before, any(
            a == 0 and at < end for at, a in zip(exit_at, exit_action))))
        return out

    monkeypatch.setattr(Mlp, "forward_rows", counted)
    monkeypatch.setattr(env, "_ladder", recorded)
    return ladders


class TestLadderBoundaries:
    """Hold ladders over blocks of 5 opening steps and hold chunks from 2
    rows, so ladders and chunks cut the 40-step episodes, for two policies:
    one whose ladders stop at level 2, as most rows hold, and one whose
    ladders run until every range has deployed, as most rows deploy. The
    sampled walks of `_Group.rollout` match the scalar reference rollout,
    and the greedy pass matches the per-step loop."""

    HOLD_BIAS = {"level 2": 4.0, "empty": -1.5}  # added to the hold logit

    def actor(self, kind):
        rng = np.random.default_rng(9)
        actor = ReferenceMlp.build([13, 8, 3], "tanh", rng, out_gain=3.0)
        actor.biases[-1][0] += self.HOLD_BIAS[kind]
        return actor, ReferenceMlp.build([13, 8, 1], "tanh", rng)

    def check_ladders(self, kind, ladders):
        if kind == "level 2":  # ladders stop after two levels, and chunks follow
            assert sum(n == 2 and unresolved for n, unresolved in ladders) > len(ladders) / 2
        else:  # ladders run past level 2 and resolve every range
            assert sum(not unresolved for _, unresolved in ladders) > len(ladders) / 2
            assert any(n > 2 and not unresolved for n, unresolved in ladders)

    @pytest.mark.parametrize("kind", ["level 2", "empty"])
    def test_sampled_walk_matches_reference(self, monkeypatch, kind):
        from activelp import env
        from activelp.env import LPEnv

        monkeypatch.setattr(env, "_POLICY_BLOCK", 5)
        monkeypatch.setattr(env, "_HOLD_CHUNK", 2)
        ladders = record_ladders(monkeypatch)
        config = lp_config()
        actor, critic = self.actor(kind)
        group = ppo._Group([ppo._Agent(0, AgentSpec(action_set=config.action_set),
                                       LPEnv(config), np.random.default_rng(6))],
                           as_mlp(actor), as_mlp(critic))
        ref, ref_rng = Stepper(config), np.random.default_rng(6)
        obs, returns, running = ref.reset(), [], [0.0]
        for _ in range(16):  # 13-step rollouts cut episodes everywhere
            group.rollout(13)
            want, obs = reference_collect_rollout(ref, actor, critic, ref_rng, 13, obs,
                                                  returns, running)
            for name in ("observations", "actions", "log_probs", "rewards", "values", "dones"):
                a, b = getattr(group.batch, name)[0], getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            assert group.agents[0].env._observe().tobytes() == obs.tobytes()
        assert group.agents[0].returns == returns and len(returns) == 5
        self.check_ladders(kind, ladders)

    @pytest.mark.parametrize("kind", ["level 2", "empty"])
    def test_greedy_pass_matches_the_per_step_loop(self, monkeypatch, kind):
        from activelp import env
        from activelp.env import LPEnv

        monkeypatch.setattr(env, "_POLICY_BLOCK", 5)
        monkeypatch.setattr(env, "_HOLD_CHUNK", 2)
        ladders = record_ladders(monkeypatch)
        actor = as_mlp(self.actor(kind)[0])
        for n_steps in (40, 97):
            config = lp_config(n_steps=n_steps)
            e, ref = LPEnv(config), LPEnv(config)
            got, want = run_policy(e, actor), stepped_policy(ref, actor)
            for name in ("action", "width", "liquidity", "fee", "lvr", "gas", "reward"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert e._observe().tobytes() == ref._observe().tobytes()
        self.check_ladders(kind, ladders)


class HugeRewards:
    """An LPEnv whose rewards are scaled to overflow the value loss."""

    def __init__(self, config):
        from activelp.env import LPEnv

        self.env = LPEnv(config)
        self.obs_dim, self.n_actions = self.env.obs_dim, self.env.n_actions
        self.reset = self.env.reset

    def walk(self, actor, decide, n):
        obs, actions, rewards, done = self.env.walk(actor, decide, n)
        return obs, actions, rewards * 1e200, done


class TestPopulation:
    """`train_population` against each agent's own `train` run, on a
    population that mixes network shapes, coefficients and outcomes."""

    # action set, activation, hidden layers, then the other spec fields
    AGENTS = [
        ((0, 10, 20), "tanh", (6, 2), dict(learning_rate=1e-2, gamma=0.99)),
        ((0, 10, 20, 30), "relu", (4,), dict(learning_rate=5e-3, gamma=0.999)),
        ((0, 10, 20), "tanh", (6, 2), dict(learning_rate=1e-3, gamma=0.9, clip_range=0.1)),
        # misses any improvement after its first evaluation: stops early
        ((0, 10, 20, 30), "relu", (4,), dict(learning_rate=1e-2, gamma=0.99, patience=1,
                                             improvement_threshold=1e9)),
        # HugeRewards: diverges
        ((0, 10, 20), "tanh", (6, 2), dict(learning_rate=1e-2, gamma=0.99)),
        ((0, 10, 20, 30), "tanh", (4,), dict(learning_rate=1e-2, gamma=0.9,
                                             entropy_coef=1e-2)),
        ((0, 10, 20), "relu", (6, 2), dict(learning_rate=1e-3, gamma=0.99)),
        ((0, 10, 20), "relu", (6, 2), dict(learning_rate=5e-3, gamma=0.9)),
    ]
    STOPS, DIVERGES = 3, 4

    def _setup(self, k):
        from activelp.env import LPEnv

        action_set, activation, hidden, extra = self.AGENTS[k]
        config = lp_config(action_set)
        spec = AgentSpec(action_set=action_set, activation=activation, hidden_layers=hidden,
                         rollout_length=48, total_timesteps=144, epochs=2, minibatch_size=16,
                         **{"patience": 10**6, **extra})
        return (HugeRewards if k == self.DIVERGES else LPEnv)(config), spec, 100 + k

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_population_matches_solo_runs(self):
        from activelp.env import LPEnv

        envs, specs, seeds = zip(*(self._setup(k) for k in range(len(self.AGENTS))))
        assert [len(g) for g in ppo.lockstep_groups(envs, specs)] == [3, 2, 1, 2]
        results = train_population(envs, specs, seeds)
        for k, got in enumerate(results):
            env, spec, seed = self._setup(k)
            try:
                solo = train(env, spec, seed)
            except TrainingDiverged as exc:
                assert k == self.DIVERGES and isinstance(got, TrainingDiverged)
                assert str(got) == str(exc) == "non-finite objective at update 1 (48 steps)"
                continue
            assert flat(got.actor).tobytes() == flat(solo.actor).tobytes(), k
            assert flat(got.critic).tobytes() == flat(solo.critic).tobytes(), k
            assert repr(got.curve) == repr(solo.curve), k
            assert (got.timesteps, got.stopped_early) == (solo.timesteps, solo.stopped_early), k
            assert got.stopped_early == (k == self.STOPS), k
            traces = [run_policy(LPEnv(lp_config(spec.action_set)), net)
                      for net in (got.actor, solo.actor)]
            for name in ("action", "reward"):
                assert getattr(traces[0], name).tobytes() == getattr(traces[1], name).tobytes()
        assert results[self.STOPS].timesteps == 96

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_dropped_agent_leaves_the_batch_the_loop_gathers_from(self, monkeypatch):
        """The diverging agent's group drops its middle row in the middle of
        an epoch: every later minibatch is gathered from the rollout
        compacted to the two agents kept, at their rows of the order, as
        they train alone."""
        gathers = []
        gather = RolloutBatch._gather

        def recorded(batch, idx):
            out, flat = gather(batch, idx)
            gathers.append((batch, idx, out))
            return out, flat

        monkeypatch.setattr(RolloutBatch, "_gather", recorded)
        members = [0, self.DIVERGES, 2]  # one network shape
        envs, specs, seeds = zip(*(self._setup(k) for k in members))
        results = train_population(envs, specs, seeds)
        monkeypatch.undo()
        assert isinstance(results[1], TrainingDiverged)
        sizes = [len(batch.actions) for batch, _, _ in gathers]
        cut = sizes.index(2)
        assert cut > 0 and set(sizes[:cut]) == {3} and set(sizes[cut:]) == {2}
        before, after = gathers[cut - 1][0], gathers[cut][0]
        for name in ("observations", "actions", "log_probs", "returns", "advantages"):
            assert getattr(after, name).tobytes() == getattr(before, name)[[0, 2]].tobytes(), name
        for batch, idx, out in gathers:
            assert idx.shape[0] == len(batch.actions)
            assert out.observations.tobytes() == batch.select(idx).observations.tobytes()
        for k, got in ((0, results[0]), (2, results[2])):
            solo = train(*self._setup(k))
            assert flat(got.actor).tobytes() == flat(solo.actor).tobytes(), k
            assert repr(got.curve) == repr(solo.curve), k

    @pytest.mark.parametrize("changes,field", [
        ({"rollout_length": 24}, "rollout_length"),
        ({"total_timesteps": 96}, "total_timesteps"),
        ({"epochs": 1}, "epochs"),
        ({"minibatch_size": 8}, "minibatch_size"),
        ({"minibatch_size": 8, "epochs": 1}, "epochs"),
    ])
    def test_one_schedule_per_population(self, changes, field):
        # agents 0 and 2 share a network shape; apart from the schedule
        # they would train in one lockstep group
        (env0, spec0, seed0), (env2, spec2, seed2) = self._setup(0), self._setup(2)
        specs = [spec0, replace(spec2, **changes)]
        assert ppo.lockstep_groups([env0, env2], specs) == [[0, 1]]
        with pytest.raises(ValueError, match=f"differ in {field}:"):
            train_population([env0, env2], specs, [seed0, seed2])


class TestActorCritic:
    """One lockstep group keeps its actors and critics in one buffer, runs
    their hidden layers as one stacked pass and steps them with one Adam."""

    def _group_vs_solo(self, hidden, activation, size):
        """Train `size` agents of one shape as a group; each agent's actor,
        critic and curve against its own `train` run and `reference_train`."""
        from activelp.env import LPEnv

        config = lp_config()
        extras = [dict(learning_rate=1e-2), dict(learning_rate=5e-3, clip_range=0.1),
                  dict(learning_rate=1e-2, entropy_coef=1e-2, value_coef=0.25)]
        specs = [AgentSpec(action_set=config.action_set, activation=activation,
                           hidden_layers=hidden, rollout_length=48, total_timesteps=96,
                           epochs=2, minibatch_size=16, patience=10**6, **extras[k])
                 for k in range(size)]
        seeds = [31 + k for k in range(size)]
        envs = [LPEnv(config) for _ in range(size)]
        assert ppo.lockstep_groups(envs, specs) == [list(range(size))]
        results = train_population(envs, specs, seeds)
        for got, spec, seed in zip(results, specs, seeds):
            solo = train(LPEnv(config), spec, seed)
            actor, critic, objectives = reference_train(Stepper(config), spec, seed)
            label = (hidden, activation, seed)
            for net, want in ((got.actor, solo.actor), (got.actor, actor),
                              (got.critic, solo.critic), (got.critic, critic)):
                assert flat(net).tobytes() == flat(want).tobytes(), label
            assert [s.objective for s in got.curve] == objectives, label

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("hidden", [(4, 8), (3, 16, 5)])
    def test_widening_layers_match_solo_and_reference(self, hidden, activation):
        """The default grid has no widening hidden layer, so no
        Fortran-ordered hidden weight enters the stacked pass there."""
        sizes = [13, *hidden]
        assert any(a < b for a, b in zip(sizes, sizes[1:]))
        self._group_vs_solo(hidden, activation, 3)

    @pytest.mark.parametrize("size", [1, 2])
    def test_linear_actor_and_critic(self, size):
        """hidden_layers=() trains a linear actor and critic: the pair has no
        hidden layer, and both output layers read the observations."""
        self._group_vs_solo((), "tanh", size)

    def test_one_objective_and_one_adam_step_per_minibatch(self, monkeypatch):
        """Deterministic guard: a group of two makes one objective of its
        actor-critic pair and one `Adam.ascend` call per minibatch, for
        actors and critics alike, and gathers each minibatch once."""
        from activelp.env import LPEnv

        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ppo._ActorCritic, "objective",
                            counted("objective", ppo._ActorCritic.objective))
        monkeypatch.setattr(Adam, "ascend", counted("ascend", Adam.ascend))
        monkeypatch.setattr(RolloutBatch, "_gather", counted("_gather", RolloutBatch._gather))
        spec = AgentSpec(action_set=(0, 10, 20), rollout_length=40, total_timesteps=100,
                         epochs=3, minibatch_size=16, patience=10**6)
        results = train_population([LPEnv(lp_config()) for _ in range(2)],
                                   [spec, replace(spec, learning_rate=1e-3)], [3, 4])
        assert all(isinstance(r, ppo.TrainResult) for r in results)
        # rollouts of 40, 40 and 20 steps, 3, 3 and 2 minibatches per epoch
        steps = 3 * (3 + 3 + 2)
        assert calls == {"objective": steps, "ascend": steps, "_gather": steps}

    def test_one_buffer_with_zero_padding(self):
        """The group's actor and critic views, and the stacked hidden views,
        share one buffer; the narrower network's padding stays zero through
        training, and Adam's moments cover the whole buffer."""
        from activelp.env import LPEnv

        config = lp_config()
        spec = AgentSpec(action_set=config.action_set, hidden_layers=(4, 8),
                         learning_rate=1e-2, rollout_length=48, total_timesteps=96, epochs=2,
                         minibatch_size=16, patience=10**6)
        rng = np.random.default_rng(7)
        actors = [Mlp.build([13, 4, 8, 3], "tanh", rng, out_gain=0.01) for _ in range(2)]
        critics = [Mlp.build([13, 4, 8, 1], "tanh", rng) for _ in range(2)]
        group = ppo._Group([ppo._Agent(r, spec, LPEnv(config), np.random.default_rng(r))
                            for r in range(2)], Mlp.stack(actors), Mlp.stack(critics))
        nets = group.nets
        assert nets.theta.flags.c_contiguous and nets.theta.shape == (2, 2 * actors[0].theta.size)
        assert group.opt.theta is nets.theta
        for net, want in ((group.actor, actors), (group.critic, critics)):
            assert net.pair is nets
            assert net.theta.tobytes() == np.concatenate([n.theta for n in want]).tobytes()
            for p in params(net):
                assert np.shares_memory(p, nets.theta)
        for (w, b), a, c in zip(nets._hidden, group.actor._hidden, group.critic._hidden):
            assert w.shape == (2, 2, *a[0].shape[1:]) and np.shares_memory(w, nets.theta)
            assert is_fortran(w[0, 0]) == is_fortran(a[0][0]) == is_fortran(c[0][0])
            assert w[:, 0].tobytes() == a[0].tobytes() and w[:, 1].tobytes() == c[0].tobytes()
            assert b[:, 0].tobytes() == a[1].tobytes() and b[:, 1].tobytes() == c[1].tobytes()
        width = group.critic.theta.shape[1]
        padding = nets.theta.reshape(2, 2, -1)[:, 1, width:]
        assert padding.size == 2 * (9 * 3 - 9 * 1) and not padding.any()

        for _ in range(2):
            group.rollout(48)
            for _ in range(2):
                order = np.stack([agent.rng.permutation(48) for agent in group.agents])
                for lo in range(0, 48, 16):
                    ppo_objective(group.batch.select(order[:, lo:lo + 16]), group.actor,
                                  group.critic, *group.loss.coefs)
                    group.opt.ascend(nets.grad)
        assert group.opt.t == 12 and np.isfinite(nets.theta).all()
        assert not padding.any() and not nets.grad.reshape(2, 2, -1)[:, 1, width:].any()
        group.keep([1])
        assert group.nets.theta.tobytes() == nets.theta[1:].tobytes()
        assert group.actor.pair is group.nets and group.opt.theta is group.nets.theta

    def test_objective_needs_one_hidden_layout(self):
        rng = np.random.default_rng(71)
        actor = Mlp.build([4, 6, 3], "tanh", rng)
        batch = random_batch(rng, actor, None)
        for critic in (Mlp.build([4, 5, 1], "tanh", rng), Mlp.build([4, 6, 1], "relu", rng),
                       Mlp.build([4, 1], "tanh", rng)):
            with pytest.raises(ValueError, match="one hidden layout and activation"):
                ppo_objective(batch, actor, critic, 0.2, 0.5, 0.01)
        critics = Mlp.stack([Mlp.build([4, 6, 1], "tanh", rng) for _ in range(2)])
        with pytest.raises(ValueError, match="1 actors but 2 critics"):
            ppo_objective(batch, actor, critics, 0.2, 0.5, 0.01)
