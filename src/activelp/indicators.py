"""Price-series features: EWMA volatility, moving averages, Bollinger Bands, Wilder DX/ADXR, BOP.

All functions take plain float arrays and return arrays of the same length,
with NaN in every slot before the indicator's minimum lookback. Callers are
expected to mask the warmup region.
"""

from __future__ import annotations

import numpy as np


def ewma_volatility(closes: np.ndarray, alpha: float = 0.05) -> np.ndarray:
    """Exponentially weighted volatility of hourly log returns.

    v_t = (1-alpha)*v_{t-1} + alpha*r_t^2 seeded with v_1 = r_1^2; returns
    sqrt(v_t). Index 0 is NaN (no return yet).
    """
    closes = np.asarray(closes, dtype=float)
    if closes.size < 2:
        raise ValueError("need at least 2 closes")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if np.any(closes <= 0):
        raise ValueError("closes must be positive")
    # the recursion runs over Python floats: numpy scalars cost 3x as much
    v = (np.diff(np.log(closes)) ** 2).tolist()
    for t in range(1, len(v)):
        v[t] = (1.0 - alpha) * v[t - 1] + alpha * v[t]
    out = np.full(closes.size, np.nan)
    out[1:] = np.sqrt(v)
    return out


def moving_average(closes: np.ndarray, window: int) -> np.ndarray:
    """Trailing simple moving average; NaN until `window` closes are available."""
    closes = np.asarray(closes, dtype=float)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    out = np.full(closes.size, np.nan)
    if closes.size >= window:
        windows = np.lib.stride_tricks.sliding_window_view(closes, window)
        out[window - 1:] = windows.mean(axis=1)
    return out


def bollinger(
    closes: np.ndarray, window: int = 20, k: float = 2.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bollinger Bands: (upper, mid, lower) = SMA +- k * population std."""
    closes = np.asarray(closes, dtype=float)
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    mid = moving_average(closes, window)
    std = np.full(closes.size, np.nan)
    if closes.size >= window:
        windows = np.lib.stride_tricks.sliding_window_view(closes, window)
        std[window - 1:] = windows.std(axis=1)
    return mid + k * std, mid, mid - k * std


def _wilder_smooth(values: np.ndarray, period: int) -> np.ndarray:
    """Wilder's RMA: first value is the SMA of the first `period` inputs,
    then s_t = (s_{t-1}*(period-1) + x_t) / period. NaN before that."""
    out = np.full(values.size, np.nan)
    if values.size < period:
        return out
    out[period - 1] = s = float(values[:period].mean())
    smoothed = []
    for x in values[period:].tolist():
        s = (s * (period - 1) + x) / period
        smoothed.append(s)
    out[period:] = smoothed
    return out


def dm_family(
    open_: np.ndarray,
    high: np.ndarray,
    low: np.ndarray,
    close: np.ndarray,
    period: int = 14,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directional-movement family from OHLC bars: (dx, adxr, bop).

    DX = 100*|+DI - -DI|/(+DI + -DI) from Wilder-smoothed +DM/-DM/TR,
    ADXR_t = (ADX_t + ADX_{t-period})/2 with ADX the Wilder smoothing of DX,
    BOP = (close-open)/(high-low), 0 on degenerate bars.
    """
    open_ = np.asarray(open_, dtype=float)
    high = np.asarray(high, dtype=float)
    low = np.asarray(low, dtype=float)
    close = np.asarray(close, dtype=float)
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    n = close.size

    spread = high - low
    bop = np.where(spread > 0, (close - open_) / np.where(spread > 0, spread, 1.0), 0.0)

    dx = np.full(n, np.nan)
    adxr = np.full(n, np.nan)
    if n >= 2:
        up = high[1:] - high[:-1]
        down = low[:-1] - low[1:]
        plus_dm = np.where((up > down) & (up > 0), up, 0.0)
        minus_dm = np.where((down > up) & (down > 0), down, 0.0)
        tr = np.maximum.reduce(
            [high[1:] - low[1:], np.abs(high[1:] - close[:-1]), np.abs(low[1:] - close[:-1])]
        )
        atr = _wilder_smooth(tr, period)
        sp = _wilder_smooth(plus_dm, period)
        sm = _wilder_smooth(minus_dm, period)
        with np.errstate(invalid="ignore", divide="ignore"):
            plus_di = np.where(atr > 0, 100.0 * sp / atr, 0.0)
            minus_di = np.where(atr > 0, 100.0 * sm / atr, 0.0)
            di_sum = plus_di + minus_di
            dx_vals = np.where(di_sum > 0, 100.0 * np.abs(plus_di - minus_di) / di_sum, 0.0)
        dx_vals[np.isnan(atr)] = np.nan
        dx[1:] = dx_vals

        first = period  # candle index of the first defined DX
        if n > first:
            adx = np.full(n, np.nan)
            adx[first:] = _wilder_smooth(dx[first:], period)
            defined = first + 2 * period - 1
            if n > defined:
                adxr[defined:] = (adx[defined:] + adx[first + period - 1:n - period]) / 2.0

    return dx, adxr, bop
