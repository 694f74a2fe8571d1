"""Acceptance suite: every promised property at its stated tolerance.

Each test is one criterion; the conftest hook prints one PASS/FAIL line per
criterion when the suite runs.
"""

import json
import time

import numpy as np
import pytest

from activelp import amm, cli, data, env, ppo
from activelp.amm import PoolSpec
from activelp.env import MIN_HISTORY, EnvConfig, LPEnv, MarketTape
import amm_oracle as oracle
from bandit import ContextualBandit
from stepper import stepped_trace
from test_amm import brute_force_fee
from test_ppo import BANDIT_SPEC, fd_grads, flat_grads, greedy_pick_rate, random_batch

POOL = PoolSpec(fee_rate=0.0005, tick_spacing=10, gas_cost=5.0)


def test_amm_math_oracle_suite():
    start = time.monotonic()

    # fee function vs 10^4-sub-step decomposition on 100 random cases
    rng = np.random.default_rng(101)
    for _ in range(100):
        liq = float(rng.uniform(0.1, 50.0))
        rate = float(rng.uniform(0.0001, 0.3))
        anchor = float(np.exp(rng.uniform(-2, 9)))
        p_from = anchor * float(rng.uniform(0.5, 2.0))
        p_to = anchor * float(rng.uniform(0.5, 2.0))
        p_l = anchor * float(rng.uniform(0.4, 1.2))
        p_u = p_l * float(rng.uniform(1.05, 3.0))
        want = brute_force_fee(liq, rate, p_from, p_to, p_l, p_u, 10_000)
        got = oracle.fee_for_move(liq, rate, p_from, p_to, p_l, p_u)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-15)

    # impermanent loss on 1000-point grids for 50 random in-range positions
    for _ in range(50):
        entry = float(rng.uniform(0.5, 5000.0))
        spacing = int(rng.choice([1, 5, 10, 60]))
        half = spacing * int(rng.integers(1, 40))
        lower, upper = oracle.align_range(amm.tick_index(entry), half, spacing)
        pos = oracle.Position.open(lower, upper, entry, float(rng.uniform(0.1, 10.0)))
        assert abs(oracle.impermanent_loss(pos, entry)) < 1e-9
        grid = np.linspace(pos.lower_price / 2, 2 * pos.upper_price, 1000)
        for p in grid:
            assert oracle.impermanent_loss(pos, p) <= 1e-12

    # tick round trip across the full index range
    for i in range(-200_000, 200_001):
        assert amm.tick_index(amm.price_at_tick(i) * (1 + 1e-12)) == i

    assert time.monotonic() - start < 30.0


def test_reward_accounting_identity_and_gas_replay():
    rng = np.random.default_rng(202)
    for case in range(20):
        series = data.gbm_generate(seed=300 + case, n_hours=240, p_start=3000.0,
                                   drift=0.0, vol=0.01)
        e = LPEnv(EnvConfig(pool=POOL, action_set=(0, 20, 50), x0=2.0,
                            data=MarketTape(series)))
        actions = rng.integers(0, e.n_actions, e.n_steps)
        trace = env.replay(e.config, actions)
        stepped = stepped_trace(e.config, actions)
        for name in ("fee", "lvr", "gas", "reward"):
            assert getattr(trace, name).tobytes() == getattr(stepped, name).tobytes(), name
        fee, lvr, gas, reward = trace.fee, trace.lvr, trace.gas, trace.reward
        assert np.all(reward == fee - lvr - gas)
        assert float(np.sum(reward)) == float(np.sum(fee - lvr - gas))
        open_position = False
        for a, g in zip(actions, gas):
            if a == 0:
                assert g == 0.0
            elif not open_position:
                assert g == POOL.gas_cost
                open_position = True
            else:
                assert g == 2 * POOL.gas_cost


def test_ppo_gradient_check():
    start = time.monotonic()
    rng = np.random.default_rng(303)
    activations = ["tanh", "sigmoid", "relu"]
    clips = [0.5, 0.1]
    for net in range(20):
        activation = activations[net % 3]
        clip = clips[net % 2]
        actor = ppo.Mlp.build([3, 4, 2], activation, rng)   # 26 parameters
        critic = ppo.Mlp.build([3, 4, 1], activation, rng)  # 21 parameters
        batch = random_batch(rng, actor, critic)
        _, _, ga, gc = ppo.ppo_objective(batch, actor, critic, clip, 0.5, 0.01)
        analytic = flat_grads(ga, gc)
        numeric = fd_grads(batch, actor, critic, clip, 0.5, 0.01, h=1e-5)
        err = np.linalg.norm(analytic - numeric) / max(
            np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
        assert err < 1e-4, (net, activation, clip, err)
    assert time.monotonic() - start < 60.0


def test_ppo_learning_check_three_seeds():
    start = time.monotonic()
    spec = ppo.AgentSpec(**{**BANDIT_SPEC.__dict__, "total_timesteps": 50_000})
    for seed in (0, 1, 2):
        result = ppo.train(ContextualBandit(seed=seed), spec, seed=seed)
        assert result.timesteps <= 50_000
        rate = greedy_pick_rate(result, target=2)
        assert rate >= 0.9, (seed, rate)
    assert time.monotonic() - start < 300.0


def test_window_arithmetic():
    from activelp.harness import make_windows

    assert len(make_windows(24_090, 7500, 1500, 1500)) == 11
    assert len(make_windows(10_500, 7500, 1500, 1500)) == 2


def test_passive_baseline_structure():
    def run_once():
        series = data.gbm_generate(seed=404, n_hours=MIN_HISTORY + 1500,
                                   p_start=3000.0, drift=0.0, vol=0.005)
        e = LPEnv(EnvConfig(pool=POOL, action_set=(0, 50), x0=2.0, data=MarketTape(series)))
        return env.run_passive(e.config, width=50, period=500)

    trace = run_once()
    assert trace.t.size == 1500
    assert list(trace.t[trace.action > 0]) == [0, 500, 1000]
    again = run_once()
    np.testing.assert_array_equal(trace.cumulative_reward, again.cumulative_reward)


@pytest.fixture(scope="module")
def smoke_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("smoke")


def _smoke_config(base_dir, candles, out_name, x0=2.0):
    config = {
        "data": str(candles),
        "output_dir": str(base_dir / out_name),
        "x0": x0,
        "train_len": 2000, "test_len": 500, "stride": 500,
        "n_agents": 3, "seed": 11,
        "training": {"total_timesteps": 10_000, "rollout_length": 2500},
    }
    path = base_dir / f"{out_name}.json"
    path.write_text(json.dumps(config))
    return path


def test_end_to_end_smoke(smoke_dir):
    start = time.monotonic()
    candles = smoke_dir / "gbm.csv"
    assert cli.main(["generate", "--out", str(candles), "--hours", "3000",
                     "--seed", "11", "--vol", "0.01"]) == 0
    config = _smoke_config(smoke_dir, candles, "results_x2")
    assert cli.main(["experiment", "--config", str(config)]) == 0

    import csv

    with open(smoke_dir / "results_x2" / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2  # one row per window
    for row in rows:
        assert set(row) == {"window", "end_of_test", "active_reward", "passive_reward"}
        float(row["active_reward"])
        float(row["passive_reward"])

    wins_line = (smoke_dir / "results_x2" / "wins.txt").read_text().strip()
    assert wins_line.startswith("active wins ")
    wins = int(wins_line.split()[2])
    assert wins >= 1
    assert time.monotonic() - start < 600.0


def test_higher_liquidity_configuration(smoke_dir):
    candles = smoke_dir / "gbm.csv"
    if not candles.exists():
        assert cli.main(["generate", "--out", str(candles), "--hours", "3000",
                         "--seed", "11", "--vol", "0.01"]) == 0
    config = _smoke_config(smoke_dir, candles, "results_x10", x0=10.0)
    from activelp.harness import ExperimentConfig, run_experiment

    results = run_experiment(ExperimentConfig.from_file(config))
    assert len(results) == 2
    for result in results:
        assert not result.failed
        for trace in (result.active_trace, result.passive_trace):
            assert np.all(trace.reward == trace.fee - trace.lvr - trace.gas)
            assert float(np.sum(trace.reward)) == float(
                np.sum(trace.fee - trace.lvr - trace.gas))
        # position sizing follows the larger X deposit: liquidity scales 5x
        deployed = result.passive_trace.liquidity[result.passive_trace.action > 0]
        assert np.all(deployed > 0)
