import csv
import pickle

import numpy as np
import pytest

from activelp import amm, data, env, indicators
from activelp.amm import PoolSpec
from activelp.data import HOUR, PriceSeries
from activelp.env import MIN_HISTORY, EnvConfig, LPEnv, MarketTape
from stepper import Stepper, stepped_trace

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
            _, upper = amm.align_range(int(tick), int(width), pool.tick_spacing)
            liqs.append(amm.liquidity_from_x(x0, price, amm.price_at_tick(upper)))
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
        e = LPEnv(EnvConfig(pool=POOL, action_set=(0, 50), x0=2.0,
                            data=MarketTape(flat_series(MIN_HISTORY + 2))))
        e.reset()
        assert e.n_steps == 2
        e.advance(0)
        _, done = e.advance(0)
        assert done
        with pytest.raises(RuntimeError):
            e.advance(0)

    def test_invalid_action_raises(self):
        e = gbm_env()
        e.reset()
        with pytest.raises(ValueError):
            e.advance(5)

    def test_step_before_reset_raises(self):
        e = gbm_env()
        with pytest.raises(RuntimeError):
            e.advance(0)

    def test_position_sizing_follows_x0(self):
        for x0 in (2.0, 10.0):
            e = gbm_env(x0=x0)
            trace = env.run_policy(e, lambda obs, t: 1 if t == 0 else 0)
            price = float(trace.price[0])
            lower, upper = amm.align_range(amm.tick_index(price), 20, POOL.tick_spacing)
            got = amm.range_reserves(float(trace.liquidity[0]), price,
                                     amm.price_at_tick(lower), amm.price_at_tick(upper))
            assert got.x == pytest.approx(x0, rel=1e-12)

    def test_fee_matches_amm_for_logged_move(self):
        e = gbm_env(seed=5)
        trace = env.run_policy(e, lambda obs, t: 2 if t == 0 else 0)
        p_from, p_to = float(trace.price[0]), float(trace.price[1])
        lower, upper = amm.align_range(amm.tick_index(p_from), 50, POOL.tick_spacing)
        pos = amm.Position.open(lower, upper, p_from, 2.0)
        want = amm.fee_for_move(pos.liquidity, POOL.fee_rate, p_from,
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
        obs = e.reset()
        done = False
        while not done:
            assert np.all(np.isfinite(obs))
            obs, done = e.advance(1)

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
        obs = [e.reset()]
        for a in actions:
            obs.append(e.advance(int(a))[0])
        return np.array(obs)

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
                        lower, upper = amm.align_range(amm.tick_index(close), width, spacing)
                        pos = amm.Position.open(lower, upper, close, x0)
                        liq = amm.liquidity_from_x(x0, close, amm.price_at_tick(upper))
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
    """`advance` decides and `rewards(lo, hi)` scores: together they must
    give what the scalar stepper gives, bitwise, however the episode is cut."""

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
        """Advance through the episode and score each segment between
        consecutive cuts as soon as its last step is taken."""
        e = LPEnv(config)
        obs = [e.reset()]
        rewards = []
        bounds = sorted(set(cuts) | {0, len(actions)})
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            for a in actions[lo:hi]:
                ob, done = e.advance(int(a))
                obs.append(ob)
            rewards.extend(e.rewards(lo, hi).tolist())
        assert done
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
        for a in actions:
            e.advance(int(a))
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
        for _ in range(30):
            e.advance(2)
        e.reset()
        obs, _ = e.advance(0)
        assert e.rewards(0, 1).tolist() == [0.0]
        fresh = gbm_env(n_hours=MIN_HISTORY + 30, seed=11)
        fresh.reset()
        assert obs.tobytes() == fresh.advance(0)[0].tobytes()  # no position left open

    def test_checks(self):
        e = gbm_env(n_hours=MIN_HISTORY + 5, seed=12)
        with pytest.raises(RuntimeError, match=r"reset\(\) must be called before advance\(\)"):
            e.advance(0)
        e.reset()
        with pytest.raises(ValueError, match="out of range"):
            e.advance(3)
        with pytest.raises(ValueError, match="out of range"):
            e.advance(-1)
        for _ in range(4):
            e.advance(1)
        _, done = e.advance(0)
        assert done
        with pytest.raises(RuntimeError, match=r"advance\(\) called after the episode ended"):
            e.advance(0)
        for lo, hi in ((0, 6), (-1, 2), (3, 2)):
            with pytest.raises(ValueError, match="taken"):
                e.rewards(lo, hi)
        assert e.rewards(2, 2).size == 0


class TestStepper:
    def test_calls_none_of_the_code_it_checks(self, monkeypatch):
        """The oracle steps a full episode with the scoring kernel, `replay`
        and the range tables disabled."""
        config = gbm_env(n_hours=MIN_HISTORY + 80, seed=14, vol=0.02).config
        actions = np.random.default_rng(14).integers(0, 3, 80)
        want = env.replay(config, actions)
        s = Stepper(config)  # its LPEnv builds range tables here, before the patches

        def forbidden(*args, **kwargs):
            raise AssertionError("the stepper called the code under test")

        monkeypatch.setattr(env, "_score", forbidden)
        monkeypatch.setattr(env, "replay", forbidden)
        monkeypatch.setattr(env.MarketTape, "range_table", forbidden)
        s.reset()
        rewards = [s.step(int(a)).reward for a in actions]
        assert s.done and np.array(rewards).tobytes() == want.reward.tobytes()


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
        real = env.run_policy(gbm_env(n_hours=260, seed=3), lambda obs, t: t % 3)
        for i, tr in enumerate((trace, real)):
            got, want = tmp_path / f"got{i}.csv", tmp_path / f"want{i}.csv"
            tr.to_csv(got)
            reference_to_csv(tr, want)
            assert got.read_bytes() == want.read_bytes()

    def test_csv_export(self, tmp_path):
        e = gbm_env(n_hours=220, seed=19)
        trace = env.run_policy(e, lambda obs, t: 1 if t == 0 else 0)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,price,action,width,L,fee,lvr,gas,reward"
        assert len(lines) == 1 + trace.t.size

    def test_cumulative_matches_sum(self):
        e = gbm_env(n_hours=220, seed=21)
        trace = env.run_policy(e, lambda obs, t: t % 2)
        assert trace.cumulative_reward[-1] == pytest.approx(trace.total_reward)
