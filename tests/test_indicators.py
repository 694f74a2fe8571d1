import math

import numpy as np
import pytest

from activelp import indicators


def ewma_vol_oracle(closes, alpha):
    """Direct geometric-sum evaluation of the EWMA recursion."""
    r2 = np.diff(np.log(np.asarray(closes, dtype=float))) ** 2
    out = np.full(len(closes), np.nan)
    for t in range(1, len(closes)):
        k = t - 1  # return index of the newest term
        v = (1 - alpha) ** k * r2[0]
        for j in range(1, k + 1):
            v += alpha * (1 - alpha) ** (k - j) * r2[j]
        out[t] = math.sqrt(v)
    return out


def scalar_ewma_volatility(closes, alpha):
    """ewma_volatility as it looped over numpy scalars."""
    r2 = np.diff(np.log(closes)) ** 2
    v = np.empty_like(r2)
    v[0] = r2[0]
    for t in range(1, r2.size):
        v[t] = (1.0 - alpha) * v[t - 1] + alpha * r2[t]
    out = np.full(closes.size, np.nan)
    out[1:] = np.sqrt(v)
    return out


def wilder_oracle(values, period):
    smoothed = [sum(values[:period]) / period]
    for x in values[period:]:
        smoothed.append((smoothed[-1] * (period - 1) + x) / period)
    return smoothed


def scalar_wilder_smooth(values, period):
    """_wilder_smooth as it looped over numpy scalars."""
    out = np.full(values.size, np.nan)
    if values.size < period:
        return out
    out[period - 1] = values[:period].mean()
    for t in range(period, values.size):
        out[t] = (out[t - 1] * (period - 1) + values[t]) / period
    return out


def adxr_oracle(dx, period):
    """ADX via Wilder smoothing of defined DX values, then the period-lagged average."""
    n = dx.size
    first = int(np.argmax(~np.isnan(dx)))
    adx = np.full(n, np.nan)
    smoothed = wilder_oracle(list(dx[first:]), period)
    adx[first + period - 1: first + period - 1 + len(smoothed)] = smoothed
    out = np.full(n, np.nan)
    for t in range(n):
        if t - period >= 0 and np.isfinite(adx[t]) and np.isfinite(adx[t - period]):
            out[t] = (adx[t] + adx[t - period]) / 2.0
    return out


def dx_oracle(open_, high, low, close, period):
    """Independent scalar-loop DX computation."""
    n = len(close)
    tr, pdm, mdm = [], [], []
    for i in range(1, n):
        tr.append(max(high[i] - low[i], abs(high[i] - close[i - 1]),
                      abs(low[i] - close[i - 1])))
        up = high[i] - high[i - 1]
        down = low[i - 1] - low[i]
        pdm.append(up if (up > down and up > 0) else 0.0)
        mdm.append(down if (down > up and down > 0) else 0.0)
    out = np.full(n, np.nan)
    if len(tr) < period:
        return out
    atr = wilder_oracle(tr, period)
    sp = wilder_oracle(pdm, period)
    sm = wilder_oracle(mdm, period)
    for k in range(len(atr)):
        if atr[k] > 0:
            pdi = 100 * sp[k] / atr[k]
            mdi = 100 * sm[k] / atr[k]
            out[k + period] = 100 * abs(pdi - mdi) / (pdi + mdi) if pdi + mdi > 0 else 0.0
        else:
            out[k + period] = 0.0
    return out


class TestEwmaVolatility:
    def test_constant_series_is_zero(self):
        closes = np.full(50, 123.4)
        sig = indicators.ewma_volatility(closes)
        assert np.isnan(sig[0])
        assert np.all(sig[1:] == 0.0)

    def test_alternating_returns_give_abs_r(self):
        r = 0.02
        closes = 100 * np.exp(np.cumsum(r * (-1.0) ** np.arange(60)))
        sig = indicators.ewma_volatility(closes, alpha=0.05)
        # v_1 = r^2 and every update mixes r^2 with r^2, so sigma == |r| throughout
        assert sig[1:] == pytest.approx(np.full(59, r), rel=1e-12)

    def test_alpha_one_has_no_memory(self):
        rng = np.random.default_rng(3)
        closes = 50 * np.exp(np.cumsum(rng.normal(0, 0.05, 40)))
        sig = indicators.ewma_volatility(closes, alpha=1.0)
        assert sig[1:] == pytest.approx(np.abs(np.diff(np.log(closes))), rel=1e-12)

    def test_matches_geometric_sum_oracle(self):
        rng = np.random.default_rng(5)
        closes = 3000 * np.exp(np.cumsum(rng.normal(0, 0.01, 120)))
        got = indicators.ewma_volatility(closes, alpha=0.05)
        want = ewma_vol_oracle(closes, 0.05)
        assert got[1:] == pytest.approx(want[1:], rel=1e-9)

    def test_bitwise_equal_to_scalar_loop(self):
        rng = np.random.default_rng(7)
        alphas = (1e-4, 0.01, 0.05, 0.3, 1.0)
        checked = 0
        for n in (2, 3, 50, 1000):
            for vol in (0.0, 1e-6, 0.005, 0.05):
                closes = 3000 * np.exp(np.cumsum(rng.normal(0, vol, n)))
                for alpha in alphas:
                    got = indicators.ewma_volatility(closes, alpha)
                    assert got.tobytes() == scalar_ewma_volatility(closes, alpha).tobytes()
                    checked += 1
        assert checked == 80

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            indicators.ewma_volatility([1.0])
        with pytest.raises(ValueError):
            indicators.ewma_volatility([1.0, -2.0])
        with pytest.raises(ValueError):
            indicators.ewma_volatility([1.0, 2.0], alpha=0.0)


class TestMovingAverage:
    def test_constant(self):
        out = indicators.moving_average(np.full(30, 7.0), 24)
        assert np.all(np.isnan(out[:23]))
        assert np.all(out[23:] == 7.0)

    def test_ramp(self):
        out = indicators.moving_average(np.arange(1.0, 25.0), 24)
        assert out[23] == pytest.approx(12.5)

    def test_matches_naive_resummation(self):
        rng = np.random.default_rng(9)
        closes = rng.uniform(1000, 4000, 300)
        for window in (24, 168):
            got = indicators.moving_average(closes, window)
            for t in range(window - 1, closes.size, 17):
                want = closes[t - window + 1: t + 1].sum() / window
                assert got[t] == pytest.approx(want, rel=1e-12)

    def test_warmup_nan(self):
        out = indicators.moving_average(np.arange(1.0, 11.0), 168)
        assert np.all(np.isnan(out))


class TestBollinger:
    def test_constant_collapses(self):
        upper, mid, lower = indicators.bollinger(np.full(40, 9.0))
        assert np.all(upper[19:] == 9.0)
        assert np.all(mid[19:] == 9.0)
        assert np.all(lower[19:] == 9.0)

    def test_two_value_alternation(self):
        a, b = 10.0, 14.0
        closes = np.tile([a, b], 30).astype(float)
        upper, mid, lower = indicators.bollinger(closes, window=20, k=2.0)
        # any window of 20 holds ten of each: mean (a+b)/2, pop std |a-b|/2
        t = 25
        assert mid[t] == pytest.approx((a + b) / 2)
        assert upper[t] == pytest.approx((a + b) / 2 + 2 * abs(a - b) / 2)
        assert lower[t] == pytest.approx((a + b) / 2 - 2 * abs(a - b) / 2)

    def test_bands_bracket_mid(self):
        rng = np.random.default_rng(13)
        closes = rng.uniform(10, 20, 100)
        upper, mid, lower = indicators.bollinger(closes)
        defined = ~np.isnan(mid)
        assert np.all(lower[defined] <= mid[defined])
        assert np.all(mid[defined] <= upper[defined])


class TestWilderSmooth:
    def test_bitwise_equal_to_scalar_loop(self):
        rng = np.random.default_rng(3)
        for n, period in [(0, 14), (13, 14), (14, 14), (15, 14), (3000, 14), (500, 1), (300, 7)]:
            values = rng.exponential(1.0, n) * 10.0 ** rng.uniform(-3, 3, n)
            if n > 100:
                values[50] = np.nan
            got = indicators._wilder_smooth(values, period)
            assert got.tobytes() == scalar_wilder_smooth(values, period).tobytes()


class TestDmFamily:
    def _rising(self, n, step=0.5, spread=0.2):
        close = 100 + step * np.arange(n)
        high = close + spread
        low = close - spread
        open_ = np.concatenate([[close[0]], close[:-1]])
        return open_, high, low, close

    def test_rising_closes_saturate_dx(self):
        open_, high, low, close = self._rising(80)
        dx, adxr, _ = indicators.dm_family(open_, high, low, close, period=14)
        assert np.all(dx[14:] == pytest.approx(100.0))
        defined = ~np.isnan(adxr)
        assert np.all(adxr[defined] == pytest.approx(100.0))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(17)
        close = 3000 * np.exp(np.cumsum(rng.normal(0, 0.01, 150)))
        spread = np.abs(rng.normal(0, 5, 150)) + 1
        high = close + spread
        low = close - spread
        open_ = np.concatenate([[close[0]], close[:-1]])
        dx, _, _ = indicators.dm_family(open_, high, low, close, period=14)
        want = dx_oracle(open_, high, low, close, 14)
        defined = ~np.isnan(want)
        assert dx[defined] == pytest.approx(want[defined], rel=1e-9)

    def test_adxr_matches_scalar_oracle(self):
        rng = np.random.default_rng(19)
        close = 3000 * np.exp(np.cumsum(rng.normal(0, 0.01, 200)))
        spread = np.abs(rng.normal(0, 5, 200)) + 1
        high = close + spread
        low = close - spread
        open_ = np.concatenate([[close[0]], close[:-1]])
        dx, adxr, _ = indicators.dm_family(open_, high, low, close, period=14)
        want = adxr_oracle(dx, 14)
        defined = ~np.isnan(adxr)
        assert defined.sum() > 100
        np.testing.assert_array_equal(defined, ~np.isnan(want))
        assert adxr[defined] == pytest.approx(want[defined], rel=1e-9)

    def test_flat_candles(self):
        flat = np.full(60, 42.0)
        dx, adxr, bop = indicators.dm_family(flat, flat, flat, flat, period=14)
        assert np.all(bop == 0.0)
        assert np.all(dx[14:] == 0.0)

    def test_adxr_of_constant_adx(self):
        # saturated DX=100 gives constant ADX=100, so ADXR must equal it
        open_, high, low, close = self._rising(120)
        _, adxr, _ = indicators.dm_family(open_, high, low, close, period=14)
        defined = ~np.isnan(adxr)
        assert defined.sum() > 0
        assert np.all(adxr[defined] == pytest.approx(100.0))

    def test_warmup_boundary(self):
        open_, high, low, close = self._rising(120)
        dx, adxr, _ = indicators.dm_family(open_, high, low, close, period=14)
        assert np.all(np.isnan(dx[:14])) and np.isfinite(dx[14])
        assert np.all(np.isnan(adxr[:41])) and np.isfinite(adxr[41])

    def test_bop_bounds_and_values(self):
        open_ = np.array([10.0, 11.0, 12.0])
        close = np.array([11.0, 10.5, 12.0])
        high = np.array([11.5, 11.2, 12.0])
        low = np.array([9.5, 10.0, 12.0])
        _, _, bop = indicators.dm_family(open_, high, low, close)
        assert bop[0] == pytest.approx((11.0 - 10.0) / (11.5 - 9.5))
        assert bop[1] == pytest.approx((10.5 - 11.0) / (11.2 - 10.0))
        assert bop[2] == 0.0  # degenerate bar
        assert np.all((bop >= -1) & (bop <= 1))


class TestSharedProperties:
    def test_scale_behavior(self):
        rng = np.random.default_rng(21)
        close = 2000 * np.exp(np.cumsum(rng.normal(0, 0.02, 220)))
        spread = np.abs(rng.normal(0, 3, 220)) + 0.5
        high, low = close + spread, close - spread
        open_ = np.concatenate([[close[0]], close[:-1]])
        c = 3.7

        for window in (24, 168):
            base = indicators.moving_average(close, window)
            scaled = indicators.moving_average(c * close, window)
            np.testing.assert_allclose(scaled, c * base, rtol=1e-12)
        for a, b in zip(indicators.bollinger(c * close), indicators.bollinger(close)):
            np.testing.assert_allclose(a, c * b, rtol=1e-12)

        dx0, adxr0, bop0 = indicators.dm_family(open_, high, low, close)
        dx1, adxr1, bop1 = indicators.dm_family(c * open_, c * high, c * low, c * close)
        np.testing.assert_allclose(dx1, dx0, rtol=1e-9)
        np.testing.assert_allclose(adxr1, adxr0, rtol=1e-9)
        np.testing.assert_allclose(bop1, bop0, rtol=1e-9)

    def test_shift_equivariance_window_indicators(self):
        rng = np.random.default_rng(25)
        close = rng.uniform(90, 110, 260)
        shift = 30
        for window in (24, 168):
            full = indicators.moving_average(close, window)
            late = indicators.moving_average(close[shift:], window)
            defined = ~np.isnan(late)
            np.testing.assert_allclose(late[defined], full[shift:][defined], rtol=1e-12)
        full_mid = indicators.bollinger(close)[1]
        late_mid = indicators.bollinger(close[shift:])[1]
        defined = ~np.isnan(late_mid)
        np.testing.assert_allclose(late_mid[defined], full_mid[shift:][defined], rtol=1e-12)

    def test_shift_convergence_ewma(self):
        # exponential forgetting: a shifted start converges geometrically
        rng = np.random.default_rng(29)
        close = 100 * np.exp(np.cumsum(rng.normal(0, 0.01, 900)))
        full = indicators.ewma_volatility(close, alpha=0.05)
        late = indicators.ewma_volatility(close[100:], alpha=0.05)
        np.testing.assert_allclose(late[-100:], full[-100:], rtol=1e-6)
