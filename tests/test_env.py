import csv
import functools
import pickle

import numpy as np
import pytest

from activelp import amm, data, env, indicators
from activelp.amm import PoolSpec
from activelp.data import HOUR, PriceSeries
from activelp.env import MIN_HISTORY, OBS_SIZE, EnvConfig, LPEnv, MarketTape
from activelp.ppo import ACTIVATIONS, Mlp, _sampler
import amm_oracle as oracle
from greedy import stepped_policy
from stepper import Stepper, stepped_observations, stepped_trace, walk_scripted

POOL = PoolSpec(fee_rate=0.0005, tick_spacing=10, gas_cost=5.0)


def flat_series(n, price=3000.0, start_ts=1609459200):
    ts = start_ts + HOUR * np.arange(n)
    closes = np.full(n, float(price))
    return PriceSeries(ts, closes, closes, closes, closes)


def step_series(n_before, n_after, p0, p1):
    closes = np.concatenate([np.full(n_before, float(p0)), np.full(n_after, float(p1))])
    n = closes.size
    opens = np.concatenate([[closes[0]], closes[:-1]])
    highs = np.maximum(opens, closes)
    lows = np.minimum(opens, closes)
    return PriceSeries(1609459200 + HOUR * np.arange(n), opens, highs, lows, closes)


def tick_series(n, spacing, seed=0, start_tick=80000):
    """Closes exactly on tick prices: a random walk over multiples of spacing."""
    rng = np.random.default_rng(seed)
    ticks = start_tick + spacing * np.cumsum(rng.integers(-3, 4, n))
    closes = np.array([amm.price_at_tick(int(i)) for i in ticks])
    opens = np.concatenate([[closes[0]], closes[:-1]])
    highs = np.maximum(opens, closes)
    lows = np.minimum(opens, closes)
    return PriceSeries(1609459200 + HOUR * np.arange(n), opens, highs, lows, closes)


def reference_stats(series, action_set, pool, x0):
    """compute_stats as a per-close loop over align_range and liquidity_from_x."""
    feats = env.compute_features(series)
    closes = series.closes
    sigma = indicators.ewma_volatility(closes)
    start = MIN_HISTORY - 1
    ticks = np.array([amm.tick_index(p) for p in closes[start:]], dtype=float)
    market = np.column_stack([
        closes[start:], ticks, sigma[start:], feats.ma24[start:],
        feats.ma168[start:], feats.bb_upper[start:], feats.bb_mid[start:],
        feats.bb_lower[start:], feats.adxr[start:], feats.bop[start:], feats.dx[start:],
    ])
    widths = np.array(action_set, dtype=float)
    liqs = [0.0]
    for width in action_set:
        if width == 0:
            continue
        for price, tick in zip(closes[start:], ticks):
            _, upper = oracle.align_range(int(tick), int(width), pool.tick_spacing)
            liqs.append(oracle.liquidity_from_x(x0, price, amm.price_at_tick(upper)))
    liqs = np.array(liqs)
    mean = np.empty(env.OBS_SIZE)
    std = np.empty(env.OBS_SIZE)
    mean[[0, 1]] = market[:, :2].mean(axis=0)
    std[[0, 1]] = market[:, :2].std(axis=0)
    mean[2], std[2] = widths.mean(), widths.std()
    mean[3], std[3] = liqs.mean(), liqs.std()
    mean[4:], std[4:] = market[:, 2:].mean(axis=0), market[:, 2:].std(axis=0)
    return mean, std


def reference_normalize(stats, vector):
    out = np.where(stats.std > 0,
                   (vector - stats.mean) / np.where(stats.std > 0, stats.std, 1.0), 0.0)
    return np.where(np.isfinite(out), out, 0.0)


def gbm_env(n_hours=260, seed=0, vol=0.005, action_set=(0, 20, 50), x0=2.0,
            gas_mode="per_leg"):
    series = data.gbm_generate(seed=seed, n_hours=n_hours, p_start=3000.0,
                               drift=0.0, vol=vol)
    return LPEnv(EnvConfig(pool=POOL, action_set=action_set, x0=x0,
                           data=MarketTape(series), gas_mode=gas_mode))


def first_step_only(e, action):
    """A schedule over `e`'s episode that takes `action` at step 0 and holds
    after."""
    actions = np.zeros(e.n_steps, dtype=np.int64)
    actions[0] = action
    return actions


def gbm_stepper(**kwargs):
    return Stepper(gbm_env(**kwargs).config)


class TestConfig:
    def test_action_set_must_start_with_zero(self):
        with pytest.raises(ValueError):
            EnvConfig(pool=POOL, action_set=(10, 20), x0=2.0, data=MarketTape(flat_series(200)))

    def test_widths_must_align_to_spacing(self):
        with pytest.raises(ValueError):
            EnvConfig(pool=POOL, action_set=(0, 15), x0=2.0, data=MarketTape(flat_series(200)))

    def test_short_slice_rejected(self):
        with pytest.raises(ValueError):
            EnvConfig(pool=POOL, action_set=(0, 50), x0=2.0, data=MarketTape(flat_series(100)))

    def test_data_must_be_a_tape(self):
        with pytest.raises(TypeError, match="data must be a MarketTape, got PriceSeries"):
            EnvConfig(pool=POOL, action_set=(0, 50), x0=2.0, data=flat_series(300))
        with pytest.raises(TypeError, match="data must be a MarketTape, got PriceSeries"):
            env.compute_stats(flat_series(300), (0, 50), POOL, 2.0)

    def test_minimum_length_boundary(self):
        with pytest.raises(ValueError):
            EnvConfig(pool=POOL, action_set=(0, 50), x0=2.0,
                      data=MarketTape(flat_series(MIN_HISTORY + 1)))
        EnvConfig(pool=POOL, action_set=(0, 50), x0=2.0,
                  data=MarketTape(flat_series(MIN_HISTORY + 2)))


class TestReset:
    def test_observation_shape(self):
        e = gbm_env()
        obs = e.reset()
        assert obs.shape == (13,)
        assert np.all(np.isfinite(obs))

    def test_episode_length(self):
        e = LPEnv(EnvConfig(pool=POOL, action_set=(0, 50), x0=2.0,
                            data=MarketTape(flat_series(400))))
        assert e.n_steps == 400 - MIN_HISTORY

    def test_constant_price_sigma_feature_zero(self):
        e = LPEnv(EnvConfig(pool=POOL, action_set=(0, 50), x0=2.0,
                            data=MarketTape(flat_series(300))))
        obs = e.reset()
        assert obs[4] == 0.0  # zero-std guard maps the vol feature to 0


class TestStepMechanics:
    def test_hold_without_position_is_neutral(self):
        s = gbm_stepper()
        s.reset()
        for _ in range(10):
            out = s.step(0)
            assert out.reward == 0.0
            assert out.fee == 0.0 and out.lvr == 0.0 and out.gas == 0.0

    def test_first_deployment_charges_single_gas(self):
        s = gbm_stepper()
        s.reset()
        out = s.step(1)
        assert out.gas == POOL.gas_cost
        assert out.reward == out.fee - out.lvr - out.gas

    def test_rebalance_charges_double_gas(self):
        s = gbm_stepper()
        s.reset()
        s.step(1)
        out = s.step(2)
        assert out.gas == 2 * POOL.gas_cost

    def test_hold_open_position_charges_no_gas(self):
        s = gbm_stepper()
        s.reset()
        s.step(1)
        out = s.step(0)
        assert out.gas == 0.0

    def test_flat_gas_mode_charges_single_fee(self):
        s = gbm_stepper(gas_mode="flat")
        s.reset()
        assert s.step(1).gas == POOL.gas_cost
        assert s.step(2).gas == POOL.gas_cost

    def test_step_after_done_raises(self):
        s = Stepper(EnvConfig(pool=POOL, action_set=(0, 50), x0=2.0,
                              data=MarketTape(flat_series(MIN_HISTORY + 2))))
        s.reset()
        assert s.n_steps == 2
        s.step(0)
        assert s.step(0).done
        with pytest.raises(RuntimeError):
            s.step(0)

    def test_invalid_action_raises(self):
        s = gbm_stepper()
        s.reset()
        with pytest.raises(ValueError):
            s.step(5)

    def test_step_before_reset_raises(self):
        s = gbm_stepper()
        with pytest.raises(RuntimeError):
            s.step(0)

    def test_position_sizing_follows_x0(self):
        for x0 in (2.0, 10.0):
            e = gbm_env(x0=x0)
            trace = env.replay(e.config, first_step_only(e, 1))
            price = float(trace.price[0])
            lower, upper = oracle.align_range(amm.tick_index(price), 20, POOL.tick_spacing)
            got = oracle.range_reserves(float(trace.liquidity[0]), price,
                                        amm.price_at_tick(lower), amm.price_at_tick(upper))
            assert got.x == pytest.approx(x0, rel=1e-12)

    def test_fee_matches_amm_for_logged_move(self):
        e = gbm_env(seed=5)
        trace = env.replay(e.config, first_step_only(e, 2))
        p_from, p_to = float(trace.price[0]), float(trace.price[1])
        lower, upper = oracle.align_range(amm.tick_index(p_from), 50, POOL.tick_spacing)
        pos = oracle.Position.open(lower, upper, p_from, 2.0)
        want = oracle.fee_for_move(pos.liquidity, POOL.fee_rate, p_from,
                                   p_to, pos.lower_price, pos.upper_price)
        assert trace.fee[0] == want


class TestAccounting:
    def test_identity_and_gas_replay(self):
        rng = np.random.default_rng(31)
        for case in range(20):
            e = gbm_env(n_hours=240, seed=100 + case, vol=0.01)
            actions = rng.integers(0, e.n_actions, e.n_steps)
            trace = env.replay(e.config, actions)
            assert_same_trace(trace, stepped_trace(e.config, actions))
            fees, lvrs, gases, rewards = trace.fee, trace.lvr, trace.gas, trace.reward
            # per-step identity is exact, so any consistent aggregation agrees
            assert np.all(rewards == fees - lvrs - gases)
            assert float(np.sum(rewards)) == float(np.sum(fees - lvrs - gases))
            # replay the action log: first deployment g, later rebalances 2g
            open_position = False
            for a, g in zip(actions, gases):
                if a == 0:
                    assert g == 0.0
                elif not open_position:
                    assert g == POOL.gas_cost
                    open_position = True
                else:
                    assert g == 2 * POOL.gas_cost

    def test_out_of_range_stasis(self):
        series = step_series(MIN_HISTORY + 5, 40, 3000.0, 4000.0)
        s = Stepper(EnvConfig(pool=POOL, action_set=(0, 50), x0=2.0, data=MarketTape(series)))
        s.reset()
        s.step(1)  # deploy around 3000
        pos = s.position
        while s.price != 4000.0:
            s.step(0)  # hold through the jump hour
        assert 4000.0 > pos.upper_price
        while not s.done:
            out = s.step(0)
            assert out.fee == 0.0
            assert out.lvr == 0.0
            assert out.reward == 0.0

    def test_determinism(self):
        def run():
            s = gbm_stepper(n_hours=250, seed=9, vol=0.02)
            s.reset()
            rewards = []
            for t in range(s.n_steps):
                rewards.append(s.step(t % s.n_actions).reward)
            return np.array(rewards)

        a, b = run(), run()
        assert np.array_equal(a, b)


class TestObservation:
    def test_training_mean_maps_to_zero(self):
        series = data.gbm_generate(seed=11, n_hours=300, p_start=3000.0, vol=0.01)
        stats = env.compute_stats(MarketTape(series), (0, 50), POOL, 2.0)
        assert stats.normalize(stats.mean) == pytest.approx(np.zeros(13), abs=1e-12)

    def test_zero_std_guard(self):
        series = flat_series(300)
        stats = env.compute_stats(MarketTape(series), (0, 50), POOL, 2.0)
        vec = stats.mean.copy()
        vec[4] += 123.0  # perturb a zero-std feature
        assert stats.normalize(vec)[4] == 0.0

    def test_entries_always_finite(self):
        e = gbm_env(seed=13, vol=0.05)
        e.reset()
        obs, _, _, done = walk_scripted(e, np.ones(e.n_steps))
        assert done and np.all(np.isfinite(obs)) and np.all(np.isfinite(e._observe()))

    def test_width_and_liquidity_zero_without_position(self):
        series = data.gbm_generate(seed=15, n_hours=300, p_start=3000.0, vol=0.01)
        stats = env.compute_stats(MarketTape(series), (0, 50), POOL, 2.0)
        e = LPEnv(EnvConfig(pool=POOL, action_set=(0, 50), x0=2.0, data=MarketTape(series),
                            stats=stats))
        obs = e.reset()
        assert obs[2] == pytest.approx((0.0 - stats.mean[2]) / stats.std[2])
        assert obs[3] == pytest.approx((0.0 - stats.mean[3]) / stats.std[3])


class TestMarketTape:
    CASES = [
        (1, (0, 1, 7, 50)),
        (10, (0, 10, 20, 30)),
        (10, (0, 50, 100)),
        (60, (0, 60, 120)),
        (60, (0, 90, 600)),
    ]

    @pytest.mark.parametrize("spacing,action_set", CASES)
    def test_stats_match_per_close_loop(self, spacing, action_set):
        pool = PoolSpec(fee_rate=0.0005, tick_spacing=spacing, gas_cost=5.0)
        series_list = [
            data.gbm_generate(seed=spacing, n_hours=600, p_start=3000.0, vol=0.01),
            data.gbm_generate(seed=7, n_hours=400, p_start=0.05, vol=0.03),
            tick_series(500, spacing, seed=spacing),
        ]
        for series in series_list:
            for x0 in (2.0, 10.0):
                got = env.compute_stats(MarketTape(series), action_set, pool, x0)
                mean, std = reference_stats(series, action_set, pool, x0)
                assert np.array_equal(got.mean, mean)
                assert np.array_equal(got.std, std)

    def test_stats_reject_width_below_spacing(self):
        series = data.gbm_generate(seed=3, n_hours=300, p_start=3000.0, vol=0.01)
        with pytest.raises(ValueError):
            env.compute_stats(MarketTape(series), (0, 5), POOL, 2.0)

    def test_ticks_match_scalar_tick_index(self):
        for series in (data.gbm_generate(seed=4, n_hours=500, p_start=3000.0, vol=0.02),
                       tick_series(500, 1, seed=4), tick_series(500, 60, seed=5)):
            tape = env.MarketTape(series)
            assert tape.ticks.tolist() == [amm.tick_index(p) for p in series.closes]

    def test_scoring_leaves_the_block_unbuilt(self, monkeypatch):
        calls = []
        compute_features = env.compute_features

        def counting(series):
            calls.append(len(series))
            return compute_features(series)

        monkeypatch.setattr(env, "compute_features", counting)
        series = data.gbm_generate(seed=31, n_hours=600, p_start=3000.0, vol=0.01)
        tape = MarketTape(series)
        config = EnvConfig(pool=POOL, action_set=(0, 20, 50), x0=2.0, data=tape)
        rng = np.random.default_rng(31)
        env.replay(config, rng.integers(0, 3, len(series) - MIN_HISTORY))
        env.run_passive(config, 50, 24)
        assert calls == []
        assert "market" not in vars(tape)
        assert tape.market is tape.market  # built once, on first read
        assert calls == [600]

    def test_pickled_before_the_block_builds_the_same_block(self):
        series = data.gbm_generate(seed=32, n_hours=500, p_start=3000.0, vol=0.02)
        f = env.compute_features(series)
        want = np.column_stack([
            series.closes, [amm.tick_index(p) for p in series.closes],
            indicators.ewma_volatility(series.closes), f.ma24, f.ma168, f.bb_upper,
            f.bb_mid, f.bb_lower, f.adxr, f.bop, f.dx,
        ])
        tape = MarketTape(series)
        clone = pickle.loads(pickle.dumps(tape))
        assert tape.market.tobytes() == want.tobytes()
        assert clone.market.tobytes() == want.tobytes()
        assert clone.sigma.tobytes() == want[:, 2].tobytes()
        # the candles are dropped once the block exists, so a built tape
        # pickles without them
        built = pickle.loads(pickle.dumps(tape))
        assert not hasattr(built, "_series")
        assert built.market.tobytes() == want.tobytes()

    @pytest.mark.parametrize("own_stats", [False, True])
    def test_observations_match_per_step_normalize(self, own_stats):
        train = data.gbm_generate(seed=23, n_hours=400, p_start=3000.0, vol=0.01)
        series = data.gbm_generate(seed=24, n_hours=420, p_start=2800.0, vol=0.02)
        action_set = (0, 10, 20, 50)
        stats = env.compute_stats(MarketTape(series if own_stats else train), action_set,
                                  POOL, 2.0)
        s = Stepper(EnvConfig(pool=POOL, action_set=action_set, x0=2.0, data=MarketTape(series),
                              stats=stats))
        f = env.compute_features(series)
        closes = series.closes
        sigma = indicators.ewma_volatility(closes)
        ticks = [amm.tick_index(p) for p in closes]
        rng = np.random.default_rng(25)
        obs = s.reset()
        t = MIN_HISTORY - 1
        while True:
            pos = s.position
            width = 0.0 if pos is None else (pos.upper_tick - pos.lower_tick) / 2.0
            liq = 0.0 if pos is None else pos.liquidity
            raw = np.array([
                closes[t], ticks[t], width, liq, sigma[t], f.ma24[t], f.ma168[t],
                f.bb_upper[t], f.bb_mid[t], f.bb_lower[t], f.adxr[t], f.bop[t], f.dx[t],
            ])
            want = reference_normalize(stats, raw)
            assert np.array_equal(obs, want)
            assert np.array_equal(stats.normalize(raw), want)
            if s.done:
                break
            obs = s.step(int(rng.integers(0, s.n_actions))).observation
            t += 1
        assert t == len(series) - 1


class TestNoLookahead:
    """Nothing derived for hour t reads a candle after t."""

    T = 330

    @staticmethod
    def perturbed_after(series, t, rng):
        """`series` with every candle after hour t moved, OHLC kept valid."""
        later = slice(t + 1, len(series))
        m = len(series) - t - 1
        opens, highs, lows, closes = (np.array(c) for c in (
            series.opens, series.highs, series.lows, series.closes))
        closes[later] *= np.exp(rng.normal(0.0, 0.03, m))
        opens[later] *= np.exp(rng.normal(0.0, 0.03, m))
        highs[later] = np.maximum(opens, closes)[later] * (1.0 + 0.01 * rng.random(m))
        lows[later] = np.minimum(opens, closes)[later] * (1.0 - 0.01 * rng.random(m))
        return PriceSeries(series.timestamps, opens, highs, lows, closes)

    @staticmethod
    def observations(tape, action_set, stats, actions):
        e = LPEnv(EnvConfig(pool=POOL, action_set=action_set, x0=2.0, data=tape, stats=stats))
        e.reset()
        obs = walk_scripted(e, actions)[0]
        return np.concatenate([obs, e._observe()[None]])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_later_candles_change_nothing_up_to_t(self, seed):
        t = self.T
        series = data.gbm_generate(seed=40 + seed, n_hours=520, p_start=3000.0, vol=0.01)
        rng = np.random.default_rng(seed)
        moved = self.perturbed_after(series, t, rng)
        assert np.array_equal(moved.closes[:t + 1], series.closes[:t + 1])
        a, b = MarketTape(series), MarketTape(moved)
        assert a.market[:t + 1].tobytes() == b.market[:t + 1].tobytes()
        assert np.all(a.market[t + 1:, 0] != b.market[t + 1:, 0])  # the perturbation is real
        for width in (10, 20, 50, 300):
            rows_a = a.range_table(width, POOL.tick_spacing, 2.0)[:t + 1]
            rows_b = b.range_table(width, POOL.tick_spacing, 2.0)[:t + 1]
            assert rows_a.tobytes() == rows_b.tobytes()

        action_set = (0, 10, 20, 50)
        stats = env.compute_stats(MarketTape(series.slice(0, t + 1)), action_set, POOL, 2.0)
        moved_stats = env.compute_stats(MarketTape(moved.slice(0, t + 1)), action_set, POOL, 2.0)
        assert stats.mean.tobytes() == moved_stats.mean.tobytes()
        assert stats.std.tobytes() == moved_stats.std.tobytes()

        # observation k is taken at hour MIN_HISTORY - 1 + k
        actions = np.where(rng.random(len(series) - MIN_HISTORY) < 0.2,
                           rng.integers(1, len(action_set), len(series) - MIN_HISTORY), 0)
        obs_a, obs_b = (self.observations(tape, action_set, stats, actions) for tape in (a, b))
        known = t - (MIN_HISTORY - 1) + 1
        assert obs_a[:known].tobytes() == obs_b[:known].tobytes()
        assert not np.array_equal(obs_a[known:], obs_b[known:])


class TestPassivePolicy:
    @staticmethod
    def deploy_steps(width, period, n_steps):
        series = data.gbm_generate(seed=5, n_hours=MIN_HISTORY + n_steps,
                                   p_start=3000.0, vol=0.002)
        config = EnvConfig(pool=POOL, action_set=(0, width), x0=2.0, data=MarketTape(series))
        trace = env.run_passive(config, width=width, period=period)
        return trace.t[trace.action > 0].tolist()

    def test_schedule(self):
        assert self.deploy_steps(50, 500, 1002) == [0, 500, 1000]

    def test_period_one_redeploys_every_step(self):
        assert self.deploy_steps(50, 1, 10) == list(range(10))

    def test_three_deployments_over_1500_steps(self):
        series = data.gbm_generate(seed=17, n_hours=MIN_HISTORY + 1500,
                                   p_start=3000.0, vol=0.002)
        e = LPEnv(EnvConfig(pool=POOL, action_set=(0, 50), x0=2.0, data=MarketTape(series)))
        trace = env.run_passive(e.config, width=50, period=500)
        assert trace.t.size == 1500
        deploy_steps = trace.t[trace.action > 0]
        assert list(deploy_steps) == [0, 500, 1000]
        # gas: one fresh deployment plus two rebalances
        assert float(trace.gas.sum()) == POOL.gas_cost + 2 * (2 * POOL.gas_cost)

    def test_width_must_be_available(self):
        e = gbm_env(action_set=(0, 20))
        with pytest.raises(ValueError):
            env.run_passive(e.config, width=50)


TRACE_COLUMNS = ("t", "price", "action", "width", "liquidity", "fee", "lvr", "gas", "reward")


def assert_same_trace(got, want):
    for name in TRACE_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


class TestRangeTable:
    CASES = [(1, (1, 7, 50)), (10, (10, 30, 100)), (60, (60, 120, 600))]

    @pytest.mark.parametrize("spacing,widths", CASES)
    def test_rows_match_align_range_and_position_open(self, spacing, widths):
        for series in (data.gbm_generate(seed=spacing, n_hours=300, p_start=3000.0, vol=0.02),
                       data.gbm_generate(seed=8, n_hours=300, p_start=0.05, vol=0.03),
                       tick_series(300, spacing, seed=spacing)):
            tape = env.MarketTape(series)
            for width in widths:
                for x0 in (2.0, 10.0):
                    table = tape.range_table(width, spacing, x0)
                    assert table.shape == (len(series), 5)
                    for t, close in enumerate(series.closes.tolist()):
                        lower, upper = oracle.align_range(amm.tick_index(close), width, spacing)
                        pos = oracle.Position.open(lower, upper, close, x0)
                        liq = oracle.liquidity_from_x(x0, close, amm.price_at_tick(upper))
                        want = [lower, upper, pos.liquidity, pos.lower_price, pos.upper_price]
                        assert table[t].tolist() == want
                        assert liq == pos.liquidity

    def test_cached_per_width_spacing_and_x0(self):
        tape = env.MarketTape(data.gbm_generate(seed=2, n_hours=300, p_start=3000.0, vol=0.01))
        table = tape.range_table(50, 10, 2.0)
        assert tape.range_table(50, 10, 2.0) is table
        assert tape.range_table(50, 10, 3.0) is not table
        assert tape.range_table(60, 10, 2.0) is not table

    def test_rejects_width_below_spacing(self):
        tape = env.MarketTape(data.gbm_generate(seed=2, n_hours=300, p_start=3000.0, vol=0.01))
        with pytest.raises(ValueError):
            tape.range_table(5, 10, 2.0)


class TestReplay:
    """replay against the scalar stepper, bitwise in every trace column."""

    # an odd spacing gives ranges an odd number of ticks wide
    CASES = [(1, (0, 1, 7, 50)), (10, (0, 10, 20, 30)), (15, (0, 15, 30, 45)),
             (60, (0, 60, 120))]

    @staticmethod
    def sequences(n, n_actions, rng):
        held = rng.integers(0, n_actions, n)
        held[:n // 3] = 0
        sparse = np.where(rng.random(n) < 0.05, rng.integers(1, n_actions, n), 0)
        return {
            "random": rng.integers(0, n_actions, n),
            "leading holds": held,
            "sparse": sparse,
            "all holds": np.zeros(n, dtype=np.int64),
            "every step": np.full(n, n_actions - 1),
        }

    @pytest.mark.parametrize("gas_mode", ["per_leg", "flat"])
    @pytest.mark.parametrize("spacing,action_set", CASES)
    def test_equals_stepping(self, spacing, action_set, gas_mode):
        pool = PoolSpec(fee_rate=0.003, tick_spacing=spacing, gas_cost=5.0)
        rng = np.random.default_rng(spacing)
        for series in (data.gbm_generate(seed=spacing, n_hours=400, p_start=3000.0, vol=0.03),
                       tick_series(400, spacing, seed=spacing + 1)):
            config = EnvConfig(pool=pool, action_set=action_set, x0=2.0, data=MarketTape(series),
                               gas_mode=gas_mode)
            n = len(series) - MIN_HISTORY
            for name, actions in self.sequences(n, len(action_set), rng).items():
                got = env.replay(config, actions)
                assert_same_trace(got, stepped_trace(config, actions))

    def test_passive_equals_stepping(self):
        series = data.gbm_generate(seed=12, n_hours=MIN_HISTORY + 1000, p_start=3000.0,
                                   vol=0.01)
        for period in (1, 24, 500, 5000):
            config = EnvConfig(pool=POOL, action_set=(0, 50), x0=2.0, data=MarketTape(series))
            actions = [1 if step % period == 0 else 0 for step in range(1000)]
            assert_same_trace(env.run_passive(config, 50, period),
                              stepped_trace(config, actions))

    def test_rejects_bad_sequences(self):
        config = EnvConfig(pool=POOL, action_set=(0, 20, 50), x0=2.0,
                           data=MarketTape(flat_series(MIN_HISTORY + 10)))
        for bad in (np.zeros(9, dtype=int), np.zeros(11, dtype=int), np.full(10, 3),
                    np.full(10, -1), np.zeros(10)):
            with pytest.raises(ValueError):
                env.replay(config, bad)

    def test_passive_rejects_bad_period(self):
        config = EnvConfig(pool=POOL, action_set=(0, 50), x0=2.0,
                           data=MarketTape(flat_series(300)))
        with pytest.raises(ValueError):
            env.run_passive(config, 50, period=0)


class TestAdvanceRewards:
    """Scripted walks decide and `rewards(lo, hi)` scores: together they
    must give what the scalar stepper gives, bitwise, however the episode is
    cut."""

    @staticmethod
    def stepped(config, actions):
        s = Stepper(config)
        obs = [s.reset()]
        rewards = []
        for a in actions:
            out = s.step(int(a))
            obs.append(out.observation)
            rewards.append(out.reward)
        assert out.done
        return np.array(obs), np.array(rewards)

    @staticmethod
    def advanced(config, actions, cuts):
        """Walk through the episode one segment between consecutive cuts at
        a time and score each segment as soon as its last step is taken."""
        e = LPEnv(config)
        e.reset()
        obs, rewards = [], []
        bounds = sorted(set(cuts) | {0, len(actions)})
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            ob, _, _, done = walk_scripted(e, actions[lo:hi])
            obs.extend(ob)
            rewards.extend(e.rewards(lo, hi).tolist())
        assert done
        obs.append(e._observe())
        return np.array(obs), np.array(rewards)

    def assert_same(self, config, actions, cuts):
        want_obs, want = self.stepped(config, actions)
        got_obs, got = self.advanced(config, actions, cuts)
        assert got.tobytes() == want.tobytes()
        assert got_obs.tobytes() == want_obs.tobytes()

    @pytest.mark.parametrize("gas_mode", ["per_leg", "flat"])
    @pytest.mark.parametrize("spacing,action_set", [(1, (0, 1, 7, 50)), (10, (0, 10, 20, 30)),
                                                    (60, (0, 60, 120))])
    def test_random_segments_equal_stepping(self, spacing, action_set, gas_mode):
        pool = PoolSpec(fee_rate=0.003, tick_spacing=spacing, gas_cost=5.0)
        rng = np.random.default_rng(spacing + len(gas_mode))
        for series in (data.gbm_generate(seed=spacing, n_hours=400, p_start=3000.0, vol=0.03),
                       tick_series(400, spacing, seed=spacing + 1)):
            config = EnvConfig(pool=pool, action_set=action_set, x0=2.0, data=MarketTape(series),
                               gas_mode=gas_mode)
            n = len(series) - MIN_HISTORY
            for density in (0.02, 0.3, 1.0):
                actions = np.where(rng.random(n) < density,
                                   rng.integers(1, len(action_set), n), 0)
                cuts = rng.integers(0, n, rng.integers(1, 30))
                self.assert_same(config, actions, cuts)

    @pytest.mark.parametrize("gas_mode", ["per_leg", "flat"])
    def test_position_open_across_a_boundary(self, gas_mode):
        config = gbm_env(n_hours=MIN_HISTORY + 40, seed=8, vol=0.01, gas_mode=gas_mode).config
        actions = np.zeros(40, dtype=np.int64)
        actions[[3, 20]] = 1, 2  # open at 3, held over 10, rebalanced at 20
        for cuts in ([10], [4], [3], [20], [21], [10, 20, 21]):
            self.assert_same(config, actions, cuts)
        e = LPEnv(config)
        e.reset()
        walk_scripted(e, actions)
        # a segment that starts after the opening step still scores that position
        assert e.rewards(10, 11)[0] != 0.0 and e.rewards(0, 3).tolist() == [0.0] * 3

    def test_segments_of_length_one(self):
        config = gbm_env(n_hours=MIN_HISTORY + 60, seed=9, vol=0.01).config
        actions = np.random.default_rng(9).integers(0, 3, 60)
        self.assert_same(config, actions, range(60))

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_block_boundaries(self, monkeypatch, block):
        monkeypatch.setattr(env, "_SCORE_BLOCK", block)
        config = gbm_env(n_hours=MIN_HISTORY + 150, seed=10, vol=0.01).config
        rng = np.random.default_rng(block)
        actions = np.where(rng.random(150) < 0.1, rng.integers(1, 3, 150), 0)
        self.assert_same(config, actions, [0, 33, 34, 100])
        assert_same_trace(env.replay(config, actions), stepped_trace(config, actions))

    def test_reset_clears_the_record(self):
        e = gbm_env(n_hours=MIN_HISTORY + 30, seed=11)
        e.reset()
        walk_scripted(e, [2] * 30)
        e.reset()
        walk_scripted(e, [0])
        assert e.rewards(0, 1).tolist() == [0.0]
        fresh = gbm_env(n_hours=MIN_HISTORY + 30, seed=11)
        fresh.reset()
        walk_scripted(fresh, [0])
        assert e._observe().tobytes() == fresh._observe().tobytes()  # no position left open

    def test_checks(self):
        e = gbm_env(n_hours=MIN_HISTORY + 5, seed=12)
        s = Stepper(e.config)
        with pytest.raises(RuntimeError, match=r"reset\(\) must be called before walk\(\)"):
            walk_scripted(e, [0])
        with pytest.raises(RuntimeError, match=r"reset\(\) must be called before step\(\)"):
            s.step(0)
        s.reset()
        with pytest.raises(ValueError, match="out of range"):
            s.step(3)
        with pytest.raises(ValueError, match="out of range"):
            s.step(-1)
        for _ in range(4):
            s.step(1)
        assert s.step(0).done
        with pytest.raises(RuntimeError, match=r"step\(\) called after the episode ended"):
            s.step(0)
        e.reset()
        assert walk_scripted(e, [1, 1, 1, 1, 0])[3]
        with pytest.raises(RuntimeError, match=r"walk\(\) called after the episode ended"):
            walk_scripted(e, [0])
        for lo, hi in ((0, 6), (-1, 2), (3, 2)):
            with pytest.raises(ValueError, match="taken"):
                e.rewards(lo, hi)
        assert e.rewards(2, 2).size == 0


@functools.lru_cache(maxsize=None)
def policy_tape(n_steps):
    return MarketTape(data.gbm_generate(seed=7, n_hours=MIN_HISTORY + n_steps, p_start=3000.0,
                                        drift=0.0, vol=0.004))


def greedy_actor(e, activation, kind):
    """A (13, 8, 4, n_actions) actor of one of these kinds: `spread` and
    `uniform` (output gains 3 and 0.01), `hold` (the hold logit raised to
    win on 80% of the no-position observations, so it holds for long runs),
    and `never` and `every`, which never deploy and deploy on every step."""
    actor = Mlp.build([13, 8, 4, e.n_actions], activation, np.random.default_rng(3),
                      out_gain=0.01 if kind == "uniform" else 3.0)
    if kind == "hold":
        logits = actor.forward_rows(e._obs[None, e._start:e._last])[0]
        actor.biases[-1][0, 0, 0] += np.quantile(logits[:, 1:].max(axis=1) - logits[:, 0], 0.8)
    elif kind in ("never", "every"):
        actor.biases[-1][0, 0, 0] += 1e3 if kind == "never" else -1e3
    return actor


def longest_hold(actions) -> int:
    """The most steps in a row that hold an open range."""
    deploys = np.flatnonzero(actions)
    return int((np.diff(np.append(deploys, actions.size)) - 1).max()) if deploys.size else 0


class TestRunPolicy:
    """`run_policy` computes its logits in blocks; `tests/greedy.py`'s
    per-step loop, one `forward` and `Stepper.step` per step, is the
    reference."""

    # shorter than a block, one block, one block and a step, several blocks
    LENGTHS = (40, env._POLICY_BLOCK, env._POLICY_BLOCK + 1, 3 * env._POLICY_BLOCK + 100)

    @pytest.mark.parametrize("action_set", [(0, 20), (0, 10, 20, 30, 40)])
    @pytest.mark.parametrize("kind", ["spread", "uniform", "hold", "never", "every"])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_bitwise_the_per_step_loop(self, activation, kind, action_set):
        for n_steps in self.LENGTHS:
            config = EnvConfig(pool=POOL, action_set=action_set, x0=2.0,
                               data=policy_tape(n_steps))
            e, ref = LPEnv(config), LPEnv(config)
            actor = greedy_actor(e, activation, kind)
            got = env.run_policy(e, actor)
            assert_same_trace(got, stepped_policy(ref, actor))
            # the env is left at the end of the episode, as the loop leaves it
            assert e.rewards(0, e.n_steps).tobytes() == got.reward.tobytes()
            assert e._observe().tobytes() == stepped_observations(config, got.action)[-1].tobytes()
            deploys = np.count_nonzero(got.action)
            if kind == "never":
                assert deploys == 0
            elif kind == "every":
                assert deploys == n_steps
            elif kind == "hold" and n_steps >= env._POLICY_BLOCK:
                assert deploys > 0 and longest_hold(got.action) > env._HOLD_CHUNK

    @pytest.mark.parametrize("kind", ["spread", "hold", "every"])
    def test_small_blocks_cut_the_episode(self, monkeypatch, kind):
        """Blocks of 5 steps and hold chunks from 2 rows: blocks cut the
        episode, and the chunks of a hold longer than a block cross its end."""
        monkeypatch.setattr(env, "_POLICY_BLOCK", 5)
        monkeypatch.setattr(env, "_HOLD_CHUNK", 2)
        for n_steps in (40, 97):
            config = EnvConfig(pool=POOL, action_set=(0, 10, 20, 30), x0=2.0,
                               data=policy_tape(n_steps))
            e, ref = LPEnv(config), LPEnv(config)
            actor = greedy_actor(e, "tanh", kind)
            got = env.run_policy(e, actor)
            assert_same_trace(got, stepped_policy(ref, actor))
            assert e._observe().tobytes() == stepped_observations(config, got.action)[-1].tobytes()
            if kind == "hold":
                assert np.count_nonzero(got.action) > 1 and longest_hold(got.action) > 5 + 2
            elif kind == "every":
                assert np.all(got.action != 0)

    @pytest.mark.parametrize("n_in,n_out,networks", [(13, 4, 1), (12, 3, 1), (13, 3, 2)])
    def test_rejects_an_actor_of_another_shape_before_any_step(self, monkeypatch, n_in,
                                                               n_out, networks):
        """A 4-output actor on a 3-action env whose argmax never reaches
        index 3 would run to the end; it, a 12-input actor and a population
        of two are refused before the first logit."""
        calls = []

        def counted(method):
            def wrapper(self, x):
                calls.append(x.shape)
                return method(self, x)
            return wrapper

        monkeypatch.setattr(Mlp, "forward", counted(Mlp.forward))
        monkeypatch.setattr(Mlp, "forward_rows", counted(Mlp.forward_rows))
        e = gbm_env(action_set=(0, 20, 50))
        nets = [Mlp.build([n_in, 8, n_out], "tanh", np.random.default_rng(r))
                for r in range(networks)]
        for net in nets:
            net.biases[-1][0, 0, 3:] = -1e3  # an index past the env's actions never wins
        with pytest.raises(ValueError, match="actor must be one network with 13 inputs and 3"):
            env.run_policy(e, Mlp.stack(nets))
        assert calls == []


class TestWalk:
    """`LPEnv.walk` takes up the episode where an earlier walk left it, in
    each state of the walker: no range, one opened one or two steps before,
    and an older one. The reference steps the `Stepper` one step at a time
    on the logits of a 1-row `forward`."""

    @pytest.mark.parametrize("prefix", [[], [0, 0], [2], [2, 0], [2, 0, 0], [1, 0, 0, 0, 0]])
    def test_continues_an_advanced_episode(self, prefix):
        config = EnvConfig(pool=POOL, action_set=(0, 10, 20), x0=2.0, data=policy_tape(40))
        e, ref = LPEnv(config), Stepper(config)
        actor = greedy_actor(e, "tanh", "spread")
        e.reset()
        if prefix:
            walk_scripted(e, prefix)
        ref.reset()
        want_rewards = [ref.step(a).reward for a in prefix]
        obs, actions, rewards, done = e.walk(actor, env._greedy, 12)
        want_obs, want_logits = [ref.observe()], []
        for _ in range(12):
            want_logits.append(actor.forward(want_obs[-1][None, None])[0, 0])
            out = ref.step(int(want_logits[-1].argmax()))
            want_obs.append(out.observation)
            want_rewards.append(out.reward)
        assert obs.tobytes() == np.array(want_obs[:-1]).tobytes()
        assert actions.tolist() == np.array(want_logits).argmax(axis=1).tolist()
        assert not done and e._observe().tobytes() == want_obs[-1].tobytes()
        taken = len(prefix) + 12
        assert rewards.tobytes() == np.array(want_rewards[len(prefix):]).tobytes()
        assert e.rewards(0, taken).tobytes() == np.array(want_rewards).tobytes()

    def test_stops_at_the_episode_end(self):
        e = LPEnv(EnvConfig(pool=POOL, action_set=(0, 10, 20), x0=2.0, data=policy_tape(40)))
        actor = greedy_actor(e, "tanh", "spread")
        with pytest.raises(RuntimeError, match=r"reset\(\) must be called before walk\(\)"):
            e.walk(actor, env._greedy, 5)
        e.reset()
        assert e.walk(actor, env._greedy, 30)[3] is False
        obs, actions, rewards, done = e.walk(actor, env._greedy, 30)
        assert done and obs.shape == (10, 13) and actions.size == rewards.size == 10
        with pytest.raises(RuntimeError, match=r"walk\(\) called after the episode ended"):
            e.walk(actor, env._greedy, 1)

    @pytest.mark.parametrize("n", [0, -20])
    def test_refuses_fewer_than_one_step(self, n):
        """A walk of no steps or a negative count is refused before the env
        moves: the step and the action record stay where they were."""
        e = LPEnv(EnvConfig(pool=POOL, action_set=(0, 10, 20), x0=2.0, data=policy_tape(60)))
        actor = greedy_actor(e, "tanh", "spread")
        e.reset()
        e.walk(actor, env._greedy, 50)
        t, actions = e._t, e._actions.copy()
        with pytest.raises(ValueError, match="n >= 1"):
            e.walk(actor, env._greedy, n)
        assert e._t == t and e._actions.tobytes() == actions.tobytes()

    def test_segments_score_as_replay(self):
        """The rewards of an episode's walks, cut at several lengths, are
        `replay`'s rewards of the actions they took."""
        config = EnvConfig(pool=POOL, action_set=(0, 10, 20, 30), x0=2.0, data=policy_tape(97))
        e = LPEnv(config)
        actor = greedy_actor(e, "tanh", "spread")
        e.reset()
        u = np.random.default_rng(4).random(97)
        actions, rewards, done, i = [], [], False, 0
        for n in (1, 7, 30, 2, 100):
            _, seg_actions, seg_rewards, done = e.walk(actor, _sampler(u[i:]), n)
            i += seg_actions.size
            actions.append(seg_actions)
            rewards.append(seg_rewards)
        assert done and np.count_nonzero(np.concatenate(actions)) > 1
        want = env.replay(config, np.concatenate(actions)).reward
        assert np.concatenate(rewards).tobytes() == want.tobytes()


def hold_always_actor(e):
    """A linear (13, n_actions) actor that deploys the narrowest width with
    no range open and holds any open range: its hold logit is 1e3 times the
    distance of the width entry above the midpoint between the entry of no
    range and that of the narrowest width."""
    none, narrowest = e._obs[e._start, 2], e._range_entries(1, e._start)[0]
    weight = np.zeros((1, OBS_SIZE, e.n_actions))
    bias = np.zeros((1, 1, e.n_actions))
    weight[0, 2, 0] = 1e3
    bias[0, 0, 0] = -1e3 * (none + narrowest) / 2
    return Mlp([weight], [bias], "tanh")


class TestRowBudget:
    """Rows of `forward_rows` that a walk of n steps computes, with K
    actions. The block tables that hold ladders replaced computed 2K - 1
    rows per step, for every state of the range, plus hold chunks."""

    LENGTHS = (40, env._POLICY_BLOCK + 1, 3 * env._POLICY_BLOCK + 100)

    @staticmethod
    def counted_rows(monkeypatch) -> list:
        rows = []
        forward_rows = Mlp.forward_rows

        def counted(self, x):
            rows.append(x.shape[1])
            return forward_rows(self, x)

        monkeypatch.setattr(Mlp, "forward_rows", counted)
        return rows

    @pytest.mark.parametrize("n_steps", LENGTHS)
    def test_never_hold_decides_k_minus_one_rows_per_step(self, monkeypatch, n_steps):
        """An actor that deploys at every step: the no-position stretch is
        step 0, one hold chunk, and each later step is one level-1 row per
        width of a ladder; no level-1 row holds, so no level 2 runs. A
        sampled walk computes the same rows."""
        config = EnvConfig(pool=POOL, action_set=(0, 10, 20, 30), x0=2.0,
                           data=policy_tape(n_steps))
        e = LPEnv(config)
        actor, k = greedy_actor(e, "tanh", "every"), e.n_actions
        rows = self.counted_rows(monkeypatch)
        assert np.all(env.run_policy(e, actor).action != 0)
        assert sum(rows) == env._HOLD_CHUNK + (k - 1) * (n_steps - 1)
        rows.clear()
        e.reset()
        u = np.random.default_rng(1).random(n_steps)
        _, actions, _, done = e.walk(actor, _sampler(u), n_steps)
        assert done and np.all(actions != 0)
        assert sum(rows) == env._HOLD_CHUNK + (k - 1) * (n_steps - 1)

    @pytest.mark.parametrize("n_steps", LENGTHS)
    def test_hold_always_stays_within_one_block_table(self, monkeypatch, n_steps):
        """An actor that deploys at step 0 and then holds: one chunk for
        step 0; one ladder over the first block of opening steps, whose two
        levels hold every row, so it stops; hold chunks over the steps from
        the third on. The ladder computes 2(K - 1) rows per opening step,
        fewer than one block table's 2K - 1 per step."""
        config = EnvConfig(pool=POOL, action_set=(0, 10, 20, 30), x0=2.0,
                           data=policy_tape(n_steps))
        e = LPEnv(config)
        actor, k = hold_always_actor(e), e.n_actions
        rows = self.counted_rows(monkeypatch)
        actions = env.run_policy(e, actor).action
        assert actions[0] == 1 and not np.any(actions[1:])
        block = min(env._POLICY_BLOCK, n_steps - 1)
        ladder = (k - 1) * (block + min(block, n_steps - 2))
        assert ladder <= (2 * k - 1) * block
        assert sum(rows) == env._HOLD_CHUNK + ladder + n_steps - 3
        rows.clear()
        e.reset()
        u = np.random.default_rng(2).random(n_steps)
        assert e.walk(actor, _sampler(u), n_steps)[1].tolist() == actions.tolist()
        assert sum(rows) == env._HOLD_CHUNK + ladder + n_steps - 3


class TestStepper:
    def test_calls_none_of_the_code_it_checks(self, monkeypatch):
        """The oracle is built and steps a full episode with the env, its
        observations, the scoring, `replay`, the range tables and the `amm`
        array kernel disabled."""
        config = gbm_env(n_hours=MIN_HISTORY + 80, seed=14, vol=0.02).config
        actions = np.random.default_rng(14).integers(0, 3, 80)
        want = env.replay(config, actions)

        def forbidden(*args, **kwargs):
            raise AssertionError("the stepper called the code under test")

        monkeypatch.setattr(env, "_score", forbidden)
        monkeypatch.setattr(env, "replay", forbidden)
        monkeypatch.setattr(env.MarketTape, "range_table", forbidden)
        for method in ("__init__", "_observations", "_observe", "_range_entries"):
            monkeypatch.setattr(LPEnv, method, forbidden)
        for kernel in ("align_range", "liquidity_from_x", "fee_for_move", "lvr_penalty"):
            monkeypatch.setattr(amm, kernel, forbidden)
        s = Stepper(config)
        s.reset()
        rewards = [s.step(int(a)).reward for a in actions]
        assert s.done and np.array(rewards).tobytes() == want.reward.tobytes()

    @pytest.mark.parametrize("own_stats", [True, False])
    @pytest.mark.parametrize("spacing,action_set", [(1, (0, 1, 7, 50)), (10, (0, 10, 20, 30)),
                                                    (60, (0, 60, 120))])
    def test_observations_are_the_walks(self, spacing, action_set, own_stats):
        """The Stepper's observation at every step of a scripted episode,
        and after its last step, is bitwise the one `walk` gives, under the
        env's own stats and under those of another slice."""
        pool = PoolSpec(fee_rate=0.003, tick_spacing=spacing, gas_cost=5.0)
        rng = np.random.default_rng(spacing)
        other = MarketTape(data.gbm_generate(seed=spacing + 1, n_hours=300, p_start=2500.0,
                                             vol=0.02))
        stats = None if own_stats else env.compute_stats(other, action_set, pool, 2.0)
        for series in (data.gbm_generate(seed=spacing, n_hours=400, p_start=3000.0, vol=0.03),
                       tick_series(400, spacing, seed=spacing + 1)):
            config = EnvConfig(pool=pool, action_set=action_set, x0=2.0,
                               data=MarketTape(series), stats=stats)
            n = len(series) - MIN_HISTORY
            for density in (0.02, 0.3, 1.0):
                actions = np.where(rng.random(n) < density,
                                   rng.integers(1, len(action_set), n), 0)
                e = LPEnv(config)
                e.reset()
                obs, _, _, done = walk_scripted(e, actions)
                assert done
                got = np.concatenate([obs, e._observe()[None]])
                assert got.tobytes() == stepped_observations(config, actions).tobytes()


def reference_to_csv(trace, path):
    """EpisodeTrace.to_csv as one csv.writer row per step."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "price", "action", "width", "L", "fee", "lvr", "gas", "reward"])
        for i in range(trace.t.size):
            writer.writerow([
                int(trace.t[i]), repr(float(trace.price[i])), int(trace.action[i]),
                int(trace.width[i]), repr(float(trace.liquidity[i])),
                repr(float(trace.fee[i])), repr(float(trace.lvr[i])),
                repr(float(trace.gas[i])), repr(float(trace.reward[i])),
            ])


class TestTrace:
    def test_csv_bytes_match_row_writer(self, tmp_path):
        values = np.array([-0.0, 0.0, 5e-324, 1e16, 1e-300, 0.1, 2.5e15, -7.25,
                           3000.123456789, 1.7976931348623157e308, np.nan, np.inf, -np.inf])
        n = values.size
        rng = np.random.default_rng(4)
        trace = env.EpisodeTrace(
            t=np.arange(n), price=values, action=rng.integers(0, 5, n),
            width=np.array([0, 50, -3, 10**12, *range(n - 4)]), liquidity=values[::-1].copy(),
            fee=np.roll(values, 3), lvr=np.roll(values, 5), gas=np.roll(values, 7),
            reward=np.roll(values, 11))
        e = gbm_env(n_hours=260, seed=3)
        real = env.replay(e.config, np.arange(e.n_steps) % 3)
        for i, tr in enumerate((trace, real)):
            got, want = tmp_path / f"got{i}.csv", tmp_path / f"want{i}.csv"
            tr.to_csv(got)
            reference_to_csv(tr, want)
            assert got.read_bytes() == want.read_bytes()

    def test_csv_export(self, tmp_path):
        e = gbm_env(n_hours=220, seed=19)
        trace = env.replay(e.config, first_step_only(e, 1))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,price,action,width,L,fee,lvr,gas,reward"
        assert len(lines) == 1 + trace.t.size

    def test_cumulative_matches_sum(self):
        e = gbm_env(n_hours=220, seed=21)
        trace = env.replay(e.config, np.arange(e.n_steps) % 2)
        assert trace.cumulative_reward[-1] == pytest.approx(trace.total_reward)
